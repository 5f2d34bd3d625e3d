"""Decoherence functionals of the two-path interferometer.

Every variant (undressed, dressed, purely sub-leading, hard-only) factorizes
as Gamma = e^2/(4 (2 pi)^3) * I_n * Int dw |c(w)|^2 [coth(beta w / 2)] / w,
with I_n the angular integral of the exact velocity bracket bilinear and
c(w) the dipole coefficient of the selected current pieces: c_div = -i,
c_sub = 2x, c_hard = c_dressed - c_sub, c_dressed = -2i expm1(ix), x = w tau.
So every variant, and the sub/hard cross term, contracts one Gram matrix
Int Re(c_i conj(c_j)) [coth] dw/w in the basis (div, sub, dressed).  Its
pointwise entries are dd = 1, ss = 4x^2, DD = 16 sin^2(x/2), sD = 4x sin x,
dD = -DD/4 and ds = 0.  VARIANTS holds each variant's weights on the four
rows (dd, ss, DD, sD); one angular and one frequency pass over these rows
serve every variant.  Dressing deletes c_div, so only full, over
[lambda, Omega], weighs the dd row; the others run over [0, Omega].  Above
the first 64 periods of cos(x) the rows are handed over in the split form
a + b cos(x) + c sin(x): dd = (W, 0, 0), ss = (4x^2 W, 0, 0),
DD = (8W, -8W, 0) and sD = (0, 0, 4xW), with W = [coth(beta w / 2)] / w,
which the frequency rule integrates at a cost independent of Omega tau.

The angular factor I_n is the sphere integral of the velocity bracket
(angular_bracket).  A Feynman parameter, 1/(d1 d2) = int_0^1 dx /
(1 - n.u(x))^2 with u(x) = (1 - x) u1 + x u2, together with
int dOmega / (1 - n.u)^2 = 4 pi / (1 - u^2), reduces it exactly to
I_n = 16 pi v^2 int_0^1/2 s / ((1 - v^2) + 2 v^2 x (1 - x)) dx,
s = x^2 + (1 - x)^2, for the two arms of speed v along y and x.
angular_integral computes this one-dimensional integral; the sphere rule
stays the independent cross-check of the reduction.

I_n depends only on v = l/tau and the frequency factor only on tau, the
cutoffs and beta, so a batch of reports whose points share one of them need
not compute it again: decoherence_report takes a dict, passes, owned by the
caller for one batch (the CLI's sweep), in which it keeps each pass under
what it depends on: the angular QuadratureResult under v and the spec, and
the frequency factors, already contracted to one QuadratureResult per
variant, under tau, the cutoffs, the spec and the variants requested.  A
report that finds both only multiplies them.  Nothing is kept at module
level, so no result outlives the batch that made it.

Hard is never a basis vector: c_sub and c_hard both grow like Omega tau, so
a (sub, hard) basis would build dressed = ss + hh + 2 sh by cancelling terms
of order (Omega tau)^2 down to one of order ln(Omega tau), losing about
eleven digits at Omega tau = 1e6.  Closed forms from the cosine-integral and
atanh identities provide the independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kinematics import FourVector, InterferometerGeometry, PhotonMomentum
from .numerics import (
    E2_ELECTRON,
    EULER_GAMMA,
    QuadratureResult,
    QuadratureSpec,
    _shared_rule,
    cosine_integral,
    freq_integrate_rows,
)
from .numerics import (  # noqa: F401  (re-exported; bench/spans.py wraps them here)
    atanh_over_x,
    freq_integrate,
    sphere_integrate,
)

__all__ = [
    "IRDivergenceError",
    "CutoffSet",
    "ClosedForms",
    "DecoherenceReport",
    "DivergenceFit",
    "gamma_kernel",
    "angular_bracket",
    "angular_integral",
    "VARIANTS",
    "gamma",
    "closed_forms",
    "decoherence_report",
    "divergence_coefficient",
]

# Weights of the Gram rows (dd, ss, DD, sD) in |c|^2 for each variant, c the
# sum of its current pieces; cross is 2 Re(c_sub conj(c_hard)), so that
# dressed = sub + hard + cross.
VARIANTS = {
    "full": (1.0, 0.0, 0.5, 0.0),
    "dressed": (0.0, 0.0, 1.0, 0.0),
    "sub": (0.0, 1.0, 0.0, 0.0),
    "hard": (0.0, 1.0, 1.0, -2.0),
    "cross": (0.0, -2.0, 0.0, 2.0),
}


class IRDivergenceError(ValueError):
    """Raised when the undressed functional is requested without an IR cutoff."""


@dataclass(frozen=True)
class CutoffSet:
    """IR cutoff lambda_ir, UV cutoff omega_uv, optional inverse temperature."""

    omega_uv: float
    lambda_ir: float = 0.0
    beta: float | None = None

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.lambda_ir >= 0:
            raise ValueError("lambda_ir must be >= 0")
        if not self.lambda_ir < self.omega_uv:
            raise ValueError("lambda_ir must be < omega_uv")
        if not math.isfinite(self.omega_uv):
            raise ValueError("omega_uv must be finite")
        if self.beta is not None and not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and > 0 when present")


def _abs2(c: complex) -> float:
    return c.real * c.real + c.imag * c.imag


def gamma_kernel(dj: FourVector, q: PhotonMomentum) -> float:
    """Transverse bilinear P_jk dj^j conj(dj)^k; real and >= 0.

    P_jk = delta_jk - n_j n_k on the spatial components, P_0a = 0.
    """
    jx, jy, jz = complex(dj.x), complex(dj.y), complex(dj.z)
    nx, ny, nz = q.n_hat
    long_ = nx * jx + ny * jy + nz * jz
    return _abs2(jx) + _abs2(jy) + _abs2(jz) - _abs2(long_)


def angular_bracket(g: InterferometerGeometry):
    """Vectorized integrand of the angular integral I_n.

    Returns f(nx, ny, nz) evaluating
    omega^2 [ 2 V1.V2 / ((q.V1)(q.V2)) - 1/(q.V1)^2 - 1/(q.V2)^2 ],
    which depends only on the direction.  With the y- and x-directed branch
    velocities this is nonnegative; it vanishes when v = 0.  angular_integral
    computes its sphere integral in one dimension; the bracket is the
    reference that the tests hold that reduction to.
    """
    v = g.v
    c = 1.0 - v * v

    def f(nx, ny, nz):
        # V1.V2 = gamma^2 (1 - v1.v2) = gamma^2 here (orthogonal velocities)
        d1, d2 = 1.0 - v * ny, 1.0 - v * nx  # (q.V1)/(omega gamma), (q.V2)/(omega gamma)
        return 2.0 / (d1 * d2) - c * (1.0 / d1**2 + 1.0 / d2**2)

    return f


_ANGULAR_NODES = 32  # GL order of the coarse angular rule; the fine one has twice as many


def angular_integral(
    g: InterferometerGeometry, spec: QuadratureSpec = QuadratureSpec()
) -> QuadratureResult:
    """I_n, the sphere integral of angular_bracket, from its one-dimensional form.

    I_n = 16 pi v^2 int_0^1/2 s / (c + 2 v^2 x (1 - x)) dx, c = 1 - v^2.
    At high v the integrand peaks at x = 0 within ~1/(2 gamma^2); the
    substitution x = a expm1(t), a = c / (2 v^2), flattens that peak and
    gives I_n = 8 pi int_0^T s (c + 2 v^2 x) / (c + 2 v^2 x (1 - x)) dt with
    T = log1p(v^2 / c), a sum of positive terms at every v, with c taken as
    (1 - v)(1 + v).  GL-32 and GL-64 in t give the value and its gauge; of
    spec only the tolerances are read.
    """
    v = g.v
    if v == 0.0:
        return QuadratureResult(0.0, 0.0, True)
    c = (1.0 - v) * (1.0 + v)
    h = 2.0 * v * v
    top = math.log1p(v * v / c)
    nodes, weights = _shared_rule(_ANGULAR_NODES)
    x = (c / h) * np.expm1(0.5 * top * (1.0 + nodes))
    vals = (x * x + (1.0 - x) ** 2) * (c + h * x) / (c + h * x * (1.0 - x))
    coarse, fine = (4.0 * math.pi * top) * (vals @ weights)
    return QuadratureResult.from_pair(float(coarse), float(fine), spec)


def _gram_weight(omega, beta: float | None):
    """[coth(beta w / 2)] / w."""
    return 1.0 / omega if beta is None else 1.0 / (omega * np.tanh(0.5 * beta * omega))


def _gram_rows(omega, tau: float, beta: float | None):
    """The rows dd, ss, DD, sD at x = w tau, each times [coth(beta w / 2)] / w."""
    w = _gram_weight(omega, beta)
    x = omega * tau
    s, c = np.sin(0.5 * x), np.cos(0.5 * x)
    return np.stack([w, 4.0 * x * x * w, 16.0 * s * s * w, 8.0 * x * s * c * w])


def _gram_split_rows(omega, tau: float, beta: float | None):
    """The rows of _gram_rows as (a, b, c) with row = a + b cos(x) + c sin(x).

    Used only above the panelled periods: at small x, DD = 8w - 8w cos(x)
    would cancel most of its digits.  Shape (4, 3, n).
    """
    w = _gram_weight(omega, beta)
    x = omega * tau
    zero = np.zeros_like(w)
    return np.array(
        [
            [w, zero, zero],
            [4.0 * x * x * w, zero, zero],
            [8.0 * w, -8.0 * w, zero],
            [zero, zero, 4.0 * x * w],
        ]
    )


def _reuse(passes, key, compute):
    """compute(), or the result stored under key in passes when one is given."""
    if passes is None:
        return compute()
    if key not in passes:
        passes[key] = compute()
    return passes[key]


def _freq_factors(tau: float, cut: CutoffSet, spec, requests) -> list:
    """The frequency factor of each (row weights, lo) request, from one pass split at every lo.

    Each error is the contracted GL-24 sum minus the GL-12 one.
    """
    breaks = np.append(np.unique([lo for _, lo in requests]), cut.omega_uv)
    rows = freq_integrate_rows(
        lambda w: _gram_rows(w, tau, cut.beta),
        breaks,
        tau,
        spec,
        split=lambda w: _gram_split_rows(w, tau, cut.beta),
    )
    # sums over [breaks[k], omega_uv]: the segments added from the top down
    coarse, fine = (np.cumsum(s[::-1], axis=0)[::-1] for s in rows)
    out = []
    for weights, lo in requests:
        k = np.searchsorted(breaks, lo)
        out.append(
            QuadratureResult.from_pair(float(coarse[k] @ weights), float(fine[k] @ weights), spec)
        )
    return out


def _gammas(
    g: InterferometerGeometry, cut: CutoffSet, spec, e2, requests, passes=None
) -> list:
    """Gamma for each (row weights, lo) request from one angular and one frequency pass.

    The frequency pass is split at every lo; the div row dd = 1/w needs lo > 0.

    passes, a dict owned by the caller, keeps the angular pass under
    ("angular", v, spec) and the contracted frequency factors, one
    QuadratureResult per request, under ("frequency", tau, cut, spec,
    requests), for reuse by later calls; a report that finds both only
    multiplies them.
    """
    if g.v == 0.0:
        return [QuadratureResult(0.0, 0.0, True)] * len(requests)
    if any(weights[0] and lo <= 0 for weights, lo in requests):
        raise IRDivergenceError(
            "undressed functional needs lambda_ir > 0: the leading soft current "
            "difference scales as 1/omega, so the frequency integral diverges "
            "like ln(1/lambda) as lambda -> 0"
        )
    ang = _reuse(passes, ("angular", g.v, spec), lambda: angular_integral(g, spec))
    freqs = _reuse(
        passes,
        ("frequency", g.tau, cut, spec, tuple(requests)),
        lambda: _freq_factors(g.tau, cut, spec, requests),
    )
    pref = e2 / (4.0 * (2.0 * math.pi) ** 3)
    out = []
    for freq in freqs:
        value = pref * ang.value * freq.value
        err = pref * (abs(ang.error * freq.value) + abs(ang.value * freq.error))
        out.append(QuadratureResult(value, err, ang.converged and freq.converged))
    return out


def _request(name: str, cut: CutoffSet):
    """(row weights, lo) of a variant: full runs from lambda_ir, the others from 0."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}")
    return VARIANTS[name], cut.lambda_ir if name == "full" else 0.0


def gamma(
    g: InterferometerGeometry,
    cut: CutoffSet,
    variant: str,
    spec: QuadratureSpec = QuadratureSpec(),
    e2: float = E2_ELECTRON,
) -> QuadratureResult:
    """The functional named by variant, a key of VARIANTS.

    full is the undressed functional, which diverges like ln(1/lambda_ir) and
    raises IRDivergenceError at lambda_ir = 0; dressed decouples the
    divergent current and is IR-finite.
    """
    return _gammas(g, cut, spec, e2, [_request(variant, cut)])[0]


def _atanh_v12_over_v12_minus_1(v: float) -> float:
    """atanh(v12)/v12 - 1 for the arms' relative speed v12 = v sqrt(2 - v^2).

    v12 = sqrt(1 - 1/(V1.V2)^2), with V1.V2 = 1/(1 - v^2).  Below v12 = 0.5
    by the series sum v12^(2k)/(2k+1): the difference itself would lose the
    digits of v12^2/3 against 1 (a crossover at 0.3 leaves 1.4e-14 there).
    Above it, v12 rounds toward 1 as v grows, so atanh(v12) is taken as
    log1p(v12) - ln((1 - v)(1 + v)), exact because 1 - v12^2 = (1 - v^2)^2.
    """
    v12 = v * math.sqrt(2.0 - v * v)
    if v12 >= 0.5:
        return (math.log1p(v12) - math.log((1.0 - v) * (1.0 + v))) / v12 - 1.0
    x2 = v12 * v12
    # 0.25^30 is 9e-19: the terms left out are below round-off
    return sum(x2**k / (2 * k + 1) for k in range(30, 0, -1))


@dataclass(frozen=True)
class ClosedForms:
    """Closed-form values assembled from the angular and frequency identities."""

    angular_exact: float  # I_n = 8 pi [atanh(v12)/v12 - 1], v12 = relative arm speed
    ir_slope: float  # e^2 I_n / (32 pi^3), the ln(1/lambda) coefficient of full
    dressed: float
    dressed_asymptotic: float
    sub: float
    sub_asymptotic: float
    hard: float
    hard_asymptotic: float
    hard_halved: float  # alternate convention with half the coefficient


def closed_forms(
    g: InterferometerGeometry, cut: CutoffSet, e2: float = E2_ELECTRON
) -> ClosedForms:
    """Analytic reference values, exact and asymptotic.

    The hard-sector coefficient is (2 e^2 / 3 pi^2) v^2 [...], the value
    the prefactor algebra e^2/(2 pi)^3 * (16 pi/3) v^2 produces; a halved
    variant circulates and is recorded alongside for comparison.  The
    bounded boundary term in the exact hard frequency integral is
    -2(1 - cos(Omega tau)), the sign that direct expansion of
    |1 - e^{i w tau} + i w tau|^2 produces.
    """
    v = g.v
    ang_exact = 8.0 * math.pi * _atanh_v12_over_v12_minus_1(v)

    wt = cut.omega_uv * g.tau
    if wt > 0:
        freq_dressed = 2.0 * (EULER_GAMMA + math.log(wt) - cosine_integral(wt))
        freq_dressed_asym = 2.0 * math.log(wt)
    else:
        freq_dressed = 0.0
        freq_dressed_asym = 0.0
    freq_sub = 0.5 * wt * wt
    freq_hard = freq_dressed + freq_sub - 2.0 * (1.0 - math.cos(wt))
    freq_hard_asym = freq_dressed_asym + freq_sub

    pref = e2 / (2.0 * math.pi) ** 3
    small_pref = 2.0 * e2 * v * v / (3.0 * math.pi**2)
    return ClosedForms(
        angular_exact=ang_exact,
        ir_slope=e2 * ang_exact / (32.0 * math.pi**3),
        dressed=pref * freq_dressed * ang_exact,
        dressed_asymptotic=small_pref * freq_dressed_asym,
        sub=pref * freq_sub * ang_exact,
        sub_asymptotic=small_pref * freq_sub,
        hard=pref * freq_hard * ang_exact,
        hard_asymptotic=small_pref * freq_hard_asym,
        hard_halved=0.5 * small_pref * freq_hard_asym,
    )


@dataclass(frozen=True)
class DecoherenceReport:
    """Numerical and closed-form decoherence values for one configuration."""

    gamma_full: float | None
    gamma_dressed: float
    gamma_sub: float
    gamma_hard: float
    closed: ClosedForms
    errors: dict = field(default_factory=dict)
    converged: bool = True

    def __post_init__(self):
        for name in ("gamma_full", "gamma_dressed", "gamma_sub", "gamma_hard"):
            val = getattr(self, name)
            if val is not None and val < -1e-15:
                raise ValueError(f"{name} must be >= 0, got {val}")


def decoherence_report(
    g: InterferometerGeometry,
    cut: CutoffSet,
    spec: QuadratureSpec = QuadratureSpec(),
    e2: float = E2_ELECTRON,
    *,
    passes: dict | None = None,
) -> DecoherenceReport:
    """Compute every functional plus closed forms.

    The undressed value is included when lambda_ir > 0; with lambda_ir = 0 it
    is None rather than divergent.  passes, when given, is a dict shared by
    the reports of one batch, which then reuse each other's angular and
    frequency passes (see _gammas); the results are the same bits as without.
    """
    names = [n for n in ("full", "dressed", "sub", "hard") if cut.lambda_ir > 0 or n != "full"]
    requests = [_request(name, cut) for name in names]
    res = dict(zip(names, _gammas(g, cut, spec, e2, requests, passes)))
    return DecoherenceReport(
        gamma_full=res["full"].value if "full" in res else None,
        gamma_dressed=res["dressed"].value,
        gamma_sub=res["sub"].value,
        gamma_hard=res["hard"].value,
        closed=closed_forms(g, cut, e2),
        errors={f"gamma_{name}": r.error for name, r in res.items()},
        converged=all(r.converged for r in res.values()),
    )


@dataclass(frozen=True)
class DivergenceFit:
    """Result of fitting Gamma(lambda) to a + b ln(1/lambda)."""

    coefficient: float  # b
    r_squared: float
    ok: bool


def divergence_coefficient(
    g: InterferometerGeometry,
    cut: CutoffSet,
    spec: QuadratureSpec = QuadratureSpec(),
    e2: float = E2_ELECTRON,
    variant: str = "full",
    n_points: int = 8,
) -> DivergenceFit:
    """Fit the ln(1/lambda) coefficient of a functional over a geometric ladder.

    The ladder descends by factors of two from cut.lambda_ir.  For the
    undressed functional the coefficient is e^2 I_n / (32 pi^3), which
    closed_forms gives as ir_slope; for the dressed functional it is zero
    and the fit quality flag is meaningless.
    """
    if cut.lambda_ir <= 0:
        raise ValueError("divergence_coefficient needs lambda_ir > 0")
    if variant not in ("full", "dressed"):
        raise ValueError(f"unknown variant {variant!r}")
    lams = cut.lambda_ir * 0.5 ** np.arange(n_points)
    xs = np.log(1.0 / lams)
    # one pass split at every rung: the ladder adds [lambda_k, lambda_{k-1}]
    requests = [(VARIANTS[variant], lam) for lam in lams]
    ys = np.array([r.value for r in _gammas(g, cut, spec, e2, requests)])
    b, a = np.polyfit(xs, ys, 1)
    resid = ys - (a + b * xs)
    sstot = float(np.sum((ys - ys.mean()) ** 2))
    ssres = float(np.sum(resid**2))
    r2 = 1.0 - ssres / sstot if sstot > 0 else 0.0
    return DivergenceFit(
        coefficient=float(b),
        r_squared=r2,
        ok=r2 >= 1.0 - 1e-6,
    )
