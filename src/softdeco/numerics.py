"""Special functions and quadrature engines.

Two integrators carry the numerical work: a Gauss-Legendre rule on frequency
intervals, and a product Gauss-Legendre x trapezoid rule on the unit sphere.
Both report an error gauge obtained by doubling the resolution.  The angular
factor of every Gamma needs no sphere rule, since decoherence reduces it to
one dimension; the sphere rule is the independent cross-check of that
reduction, and the rule of check's sphere line.

The sphere rule evaluates its integrand on the grid and then on its doubled
grid, in blocks of _SPHERE_BLOCK = 8192 nodes.  A whole fine grid (96 x 192
nodes) would make every temporary of the integrand 147 KB, above glibc's
128 KB mmap threshold, so each one would be mapped afresh and page-faulted;
a 64 KB block reuses the heap.

The frequency rule has two regimes.  Over the first 64 periods 2*pi/tau it
uses panels aligned to the period, so its cost there is fixed.  Above them,
a stack of rows may be given in the split form a + b cos(w tau) +
c sin(w tau), with a, b, c free of oscillation; these are integrated on
geometric panels whose width grows by sqrt(2), a with plain GL weights and
b, c with Filon-GL weights that carry the oscillation exactly.  The tail
costs a few dozen panels per decade, whatever w tau reaches.  Both regimes
evaluate the integrand once, at the GL-12 and GL-24 nodes of every panel
together, and the gauge is the GL-24 sum minus the GL-12 sum.  The panelled
regime calls its integrand on blocks of _FREQ_BLOCK = 1024 nodes and writes
the rows into one values array, which the per-panel and panel-width
contractions then reduce as one matmul each.  A whole pass (a 269-panel
segment at w tau = 1e6 is 9,684 nodes) made every temporary of the Gram
rows larger than the heap could reuse: about 195 minor page faults per
decoherence_report there, against none with the blocks.  The integrand is
elementwise, so the values, and with them the sums, keep their bits.

The special functions are in-house, so that softdeco needs only numpy:

- cosine_integral: the power series of Cin up to x = 2, and above it the
  continued fraction of e^{ix} E1(ix), evaluated from its last level up.
- _spherical_jn, the j_k (k < 24) of the Filon weights: upward recurrence
  for kappa >= 24, Miller's backward recurrence for 1 <= kappa < 24, and
  the power series below 1.
- bessel_k2: the trapezoid rule on K_2(x) = int_0^inf e^{-x cosh t}
  cosh(2t) dt, which converges double-exponentially.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "FINE_STRUCTURE_ALPHA",
    "E2_ELECTRON",
    "QuadratureSpec",
    "QuadratureResult",
    "cosine_integral",
    "atanh_over_x",
    "bessel_k2",
    "sphere_integrate",
    "freq_integrate",
    "freq_integrate_rows",
]

EULER_GAMMA = 0.57721566490153286061
FINE_STRUCTURE_ALPHA = 1.0 / 137.035999
E2_ELECTRON = 4.0 * math.pi * FINE_STRUCTURE_ALPHA

_GL_NODES = 12  # base Gauss-Legendre order per frequency panel
_PANEL_CHUNK = 8192  # panels per vectorized block
_FREQ_BLOCK = 1024  # frequency nodes per integrand call
_SPHERE_BLOCK = 8192  # sphere nodes per integrand call
_TAIL_PERIODS = 64  # oscillation periods panelled before the Filon tail takes over
_TAIL_GROWTH = math.sqrt(2.0)  # width ratio of consecutive tail panels
_MILLER_START = 64  # first order of the backward recurrence for j_k, kappa < 24


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid sizes and tolerances shared by every quadrature call.

    n_theta and n_phi set only the sphere rule, which check's
    sphere_vs_closed_form line runs; no Gamma reads them.
    """

    n_theta: int = 48
    n_phi: int = 96
    panels_per_period: int = 4
    abs_tol: float = 1e-12
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.n_theta < 8:
            raise ValueError("n_theta must be >= 8")
        if self.n_phi < 16:
            raise ValueError("n_phi must be >= 16")
        if self.panels_per_period < 4:
            raise ValueError("panels_per_period must be >= 4")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be > 0")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with a grid-doubling error gauge."""

    value: float
    error: float
    converged: bool

    def __float__(self):
        return self.value

    @classmethod
    def from_pair(cls, coarse: float, fine: float, spec: QuadratureSpec):
        """The fine estimate, gauged by its distance to the coarse one."""
        err = abs(fine - coarse)
        return cls(fine, err, err <= spec.abs_tol + spec.rel_tol * abs(fine))


def cosine_integral(x: float) -> float:
    """Cosine integral Ci(x) = gamma_EM + ln(x) - int_0^x (1-cos t)/t dt, x > 0."""
    if x <= 0:
        raise ValueError("cosine_integral requires x > 0")
    if x <= 2.0:
        # Cin(x) = sum_k (-1)^(k+1) x^(2k) / (2k (2k)!); a crossover higher
        # than 2 loses digits to the alternating terms
        x2 = x * x
        term, cin, k = -1.0, 0.0, 0
        while True:
            k += 1
            term *= -x2 / ((2 * k - 1) * (2 * k))
            step = term / (2 * k)
            cin += step
            if abs(step) < 1e-17 * cin:
                return EULER_GAMMA + math.log(x) - cin
    # continued fraction of e^{ix} E1(ix) (Numerical Recipes 6.8, cisi),
    # 1/(1+ix - 1^2/(3+ix - 2^2/(5+ix - ...))), evaluated from the bottom:
    # 8 + 250/x levels converge, and the error stays below 4e-16 of the
    # envelope 1/x up to x = 1e12, while Lentz's forward product reaches
    # 4e-15 near x = 2 and 4e-13 near x = 5e11
    z, t = complex(1.0, x), 0j
    for i in range(8 + int(250.0 / x), 0, -1):
        t = -i * i / (z + 2 * i + t)
    h = 1.0 / (z + t)
    return -(h.real * math.cos(x) + h.imag * math.sin(x))


def atanh_over_x(x: float) -> float:
    """atanh(x)/x on [0, 1), with the x -> 0 limit taken by series."""
    if x < 0 or x >= 1:
        raise ValueError("atanh_over_x requires 0 <= x < 1")
    if x < 1e-4:
        x2 = x * x
        return 1.0 + x2 / 3.0 + x2 * x2 / 5.0
    return float(np.arctanh(x) / x)


def bessel_k2(x: float) -> float:
    """Modified Bessel function K_2(x) = int_0^inf e^{-x cosh t} cosh(2t) dt, x > 0.

    The trapezoid rule on the t axis converges double-exponentially.  The
    factor e^{-x} is taken out and cosh t - 1 written as 2 sinh^2(t/2), so
    that no digits are lost in the exponent at large x; the nodes stop where
    x cosh t passes 745, the underflow point of e^{-x cosh t}.
    """
    if x <= 0:
        raise ValueError("bessel_k2 requires x > 0")
    h = 0.125 / max(1.0, 0.5 * math.sqrt(x))
    t = h * np.arange(int(math.acosh(max(745.0 / x, 1.0)) / h) + 1)
    vals = np.exp(-2.0 * x * np.sinh(0.5 * t) ** 2) * np.cosh(2.0 * t)
    return float(math.exp(-x) * h * (vals.sum() - 0.5 * vals[0]))


@functools.lru_cache(maxsize=16)
def _sphere_grid(n_theta: int, n_phi: int):
    """Nodes and weights of the sphere rule, ring by ring; cached, so returned read-only."""
    u, wu = np.polynomial.legendre.leggauss(n_theta)  # u = cos(theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    s = np.sqrt(1.0 - u * u)
    nx = np.outer(s, np.cos(phi)).ravel()
    ny = np.outer(s, np.sin(phi)).ravel()
    nz = np.repeat(u, n_phi)
    w = np.repeat(wu * (2.0 * np.pi / n_phi), n_phi)
    for a in (nx, ny, nz, w):
        a.flags.writeable = False
    return nx, ny, nz, w


def sphere_integrate(f, spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Integrate f(nx, ny, nz) over the unit sphere.

    f must accept numpy arrays of direction components and act on them
    elementwise: it is called on blocks of at most _SPHERE_BLOCK nodes.
    Gauss-Legendre in cos(theta) and periodic trapezoid in phi converge
    spectrally for smooth integrands; the error gauge compares the
    n_theta x n_phi grid of spec against its doubled grid.
    """
    sums = []
    for n_theta, n_phi in ((spec.n_theta, spec.n_phi), (2 * spec.n_theta, 2 * spec.n_phi)):
        nx, ny, nz, w = _sphere_grid(n_theta, n_phi)
        vals = np.empty_like(w)
        for start in range(0, w.size, _SPHERE_BLOCK):
            block = slice(start, start + _SPHERE_BLOCK)
            vals[block] = f(nx[block], ny[block], nz[block])
        sums.append(float(w @ vals))
    return QuadratureResult.from_pair(*sums, spec)


def _panel_edges(lo: float, hi: float, tau: float, panels_per_period: int) -> np.ndarray:
    if tau > 0:
        width = 2.0 * np.pi / (tau * panels_per_period)
    else:
        width = (hi - lo) / (8 * panels_per_period)
    width = min(width, (hi - lo) / panels_per_period)
    # period-aligned linear panels over the bulk of the interval
    first = lo + width
    main = np.arange(first, hi, width)
    edges = [lo]
    # geometric refinement toward lo when the first panel spans many octaves
    if lo > 0 and width > 8 * lo:
        e = 2.0 * lo
        while e < first:
            edges.append(e)
            e *= 2.0
    edges.extend(main.tolist())
    edges.append(hi)
    return np.unique(np.asarray(edges, dtype=float))


@functools.lru_cache(maxsize=4)
def _shared_rule(n: int = _GL_NODES):
    """GL-n and GL-2n nodes on [-1, 1] side by side, one weight column per order.

    The frequency panels use n = _GL_NODES; decoherence's angular factor
    uses n = 32.
    """
    xn, wn = np.polynomial.legendre.leggauss(n)
    x2n, w2n = np.polynomial.legendre.leggauss(2 * n)
    weights = np.zeros((3 * n, 2))
    weights[:n, 0] = wn
    weights[n:, 1] = w2n
    nodes = np.concatenate([xn, x2n])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_pass(g, edges: np.ndarray) -> np.ndarray:
    """GL-12 and GL-24 sums of g over the panels, from one evaluation of g.

    g returns one row of values per node array, or a stack of rows of shape
    (k, n); the result has shape (2,) or (k, 2), coarse sum first.
    """
    x, wx = _shared_rule()
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    total = 0.0
    for start in range(0, len(mid), _PANEL_CHUNK):
        h = half[start : start + _PANEL_CHUNK]
        nodes = mid[start : start + _PANEL_CHUNK, None] + h[:, None] * x
        vals = _blocked(g, nodes.ravel())
        per_panel = vals.reshape(vals.shape[:-1] + nodes.shape) @ wx
        total = total + h @ per_panel
    return total


def _blocked(g, nodes: np.ndarray) -> np.ndarray:
    """g(nodes) as one array, from calls of g on blocks of _FREQ_BLOCK nodes."""
    first = np.asarray(g(nodes[:_FREQ_BLOCK]), dtype=float)
    vals = np.empty(first.shape[:-1] + nodes.shape)
    vals[..., :_FREQ_BLOCK] = first
    for start in range(_FREQ_BLOCK, nodes.size, _FREQ_BLOCK):
        vals[..., start : start + _FREQ_BLOCK] = g(nodes[start : start + _FREQ_BLOCK])
    return vals


@functools.lru_cache(maxsize=1)
def _filon_basis():
    """Q[k, j, o] = (2k+1) i^k P_k(x_j) w_j of the order-o rule of _shared_rule.

    Contracted with the spherical Bessel functions j_k(kappa), it gives the
    Filon-GL weights W_j(kappa) = w_j sum_{k<n} (2k+1) i^k j_k(kappa) P_k(x_j):
    the plane-wave expansion of e^{i kappa x} truncated at the rule's order n,
    so that sum_j W_j f(x_j) is the exact integral of e^{i kappa x} times the
    degree-(n-1) interpolant of f.  At kappa = 0 it reduces to GL.
    """
    x, wx = _shared_rule()
    n = 2 * _GL_NODES
    k = np.arange(n)
    phase = np.array([1.0, 1.0j, -1.0, -1.0j])[k % 4]
    legendre = np.polynomial.legendre.legvander(x, n - 1).T  # P_k(x_j)
    basis = ((2 * k + 1) * phase)[:, None, None] * legendre[:, :, None] * wx
    basis[_GL_NODES:, :, 0] = 0.0  # the GL-12 expansion stops at k = 11
    basis.flags.writeable = False
    return basis


def _tail_edges(lo: float, hi: float) -> np.ndarray:
    n = max(1, math.ceil(math.log(hi / lo) / math.log(_TAIL_GROWTH)))
    edges = lo * _TAIL_GROWTH ** np.arange(n)
    return np.append(edges[edges < hi], hi)


def _spherical_jn(kappa: np.ndarray) -> np.ndarray:
    """Spherical Bessel functions j_k(kappa) for k < 2 * _GL_NODES, one row per kappa.

    Upward recurrence from j_0 and j_1 is stable where kappa >= k.  Below
    that, Miller's backward recurrence from k = _MILLER_START (kappa >= 1,
    where the values grow by at most 129!! < 1e111 and cannot overflow) or
    the power series (kappa < 1).  Miller's values are normalised by the
    larger of j_0 = sin(kappa)/kappa and j_1, never by one near its zero.
    """
    n = 2 * _GL_NODES
    out = np.empty((kappa.size, n))
    up = kappa >= n
    if up.any():
        x = kappa[up]
        prev = np.sin(x) / x
        cur = (prev - np.cos(x)) / x
        rows = [prev, cur]
        for k in range(1, n - 1):
            prev, cur = cur, (2 * k + 1) / x * cur - prev
            rows.append(cur)
        out[up] = np.stack(rows, axis=1)
    mid = (kappa >= 1.0) & ~up
    if mid.any():
        x = kappa[mid]
        fs = np.empty((x.size, n))
        nxt, cur = np.zeros_like(x), np.ones_like(x)
        for k in range(_MILLER_START, 0, -1):
            nxt, cur = cur, (2 * k + 1) / x * cur - nxt
            if k <= n:
                fs[:, k - 1] = cur
        j0 = np.sin(x) / x
        j1 = (j0 - np.cos(x)) / x
        use_j0 = np.abs(j0) >= np.abs(j1)
        scale = np.where(use_j0, j0, j1) / np.where(use_j0, fs[:, 0], fs[:, 1])
        out[mid] = fs * scale[:, None]
    small = kappa < 1.0
    if small.any():
        x = kappa[small, None]
        odd = 2 * np.arange(n) + 3.0
        term = x ** np.arange(n) / np.cumprod(odd - 2.0)
        total = term.copy()
        for m in range(1, 9):  # at kappa = 1 the first term left out is < 1e-17
            term = term * (-0.5 * x * x) / (m * (odd + 2 * (m - 1)))
            total += term
        out[small] = total
    return out


def _tail_pass(split, edges: np.ndarray, tau: float) -> np.ndarray:
    """GL-12 and GL-24 sums of a + b cos(w tau) + c sin(w tau) over the panels.

    split returns the stack (a, b, c) of shape (3, n), or (k, 3, n) for k
    rows; a takes the GL weights and b, c the Filon-GL weights of each panel
    times e^{i tau m}, m the panel centre.  The result has shape (2,) or (k, 2).
    """
    x, wx = _shared_rule()
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    nodes = mid[:, None] + half[:, None] * x
    vals = np.asarray(split(nodes.ravel()), dtype=float)
    a, b, c = np.moveaxis(vals.reshape(vals.shape[:-1] + nodes.shape), -3, 0)
    bessel = _spherical_jn(tau * half)
    filon = np.exp(1j * tau * mid)[:, None, None] * np.tensordot(bessel, _filon_basis(), 1)
    per_panel = (
        a @ wx
        + np.einsum("...pj,pjo->...po", b, filon.real)
        + np.einsum("...pj,pjo->...po", c, filon.imag)
    )
    return half @ per_panel


def freq_integrate(
    g,
    lo: float,
    hi: float,
    tau: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadratureResult:
    """Integrate g(omega) over [lo, hi] with period-aligned Gauss-Legendre panels.

    g must accept a numpy array of frequencies.  Panels of width
    2*pi/(tau*panels_per_period) resolve the oscillation; the leading panel
    is subdivided geometrically when lo is far below the panel scale so
    that 1/omega factors are handled robustly.  All nodes are interior, so
    lo = 0 is admissible whenever g is bounded there.  This is the
    one-segment, split-free case of freq_integrate_rows.
    """
    coarse, fine = freq_integrate_rows(g, [lo, hi], tau, spec)
    return QuadratureResult.from_pair(float(coarse[0]), float(fine[0]), spec)


def freq_integrate_rows(
    g,
    breaks,
    tau: float,
    spec: QuadratureSpec = QuadratureSpec(),
    split=None,
):
    """GL-12 and GL-24 sums of a stack of rows over consecutive frequency segments.

    g maps a numpy array of n frequencies to an array of k rows, shape
    (k, n).  breaks = (b_0 < b_1 < ... < b_m), b_0 >= 0, cut [b_0, b_m] into
    segments.  Returns (coarse, fine), each of shape (m, k): the integral of
    every row over every segment.  The caller gauges the error of any linear
    combination of rows from the same combination of coarse and fine sums.

    Each segment is cut at w tau = 2 pi * 64.  Below that, g is integrated on
    period-aligned panels as in freq_integrate.  Above it, split gives the
    same rows in the form a + b cos(w tau) + c sin(w tau), as an array of
    shape (k, 3, n) holding (a, b, c) per row, or (3, n) when g returns a
    single row, with a, b, c non-oscillatory;
    they are integrated on geometric panels, each sqrt(2) times as wide as
    the one before, with GL weights for a and Filon-GL weights for b and c,
    so the cost does not grow with w tau.  split is evaluated only above the
    cut, where the form loses no digits to cancellation.  Without split (or
    with tau <= 0) every segment is panelled.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.ndim != 1 or breaks.size < 2 or not np.all(np.diff(breaks) > 0):
        raise ValueError("freq_integrate_rows requires increasing breaks")
    if breaks[0] < 0:
        raise ValueError("freq_integrate_rows requires breaks >= 0")
    cut = math.inf
    if split is not None and tau > 0:
        cut = 2.0 * math.pi * _TAIL_PERIODS / tau
    sums = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        total = 0.0
        if lo < cut:
            total = _panel_pass(g, _panel_edges(lo, min(hi, cut), tau, spec.panels_per_period))
        if hi > cut:
            total = total + _tail_pass(split, _tail_edges(max(lo, cut), hi), tau)
        sums.append(total)
    sums = np.stack(sums)
    return sums[..., 0], sums[..., 1]
