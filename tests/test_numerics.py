import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softdeco import (
    EULER_GAMMA,
    FINE_STRUCTURE_ALPHA,
    E2_ELECTRON,
    QuadratureSpec,
    atanh_over_x,
    bessel_k2,
    cosine_integral,
    freq_integrate,
    sphere_integrate,
)
from softdeco.decoherence import _gram_rows, _gram_split_rows
from softdeco.numerics import (
    _FREQ_BLOCK,
    _SPHERE_BLOCK,
    _TAIL_PERIODS,
    _panel_edges,
    _shared_rule,
    _sphere_grid,
    _spherical_jn,
    freq_integrate_rows,
)

mpmath.mp.dps = 30


def test_constants():
    assert EULER_GAMMA == pytest.approx(float(mpmath.euler), abs=1e-16)
    assert FINE_STRUCTURE_ALPHA == pytest.approx(1.0 / 137.035999, rel=1e-15, abs=0)
    assert E2_ELECTRON == pytest.approx(4.0 * math.pi * FINE_STRUCTURE_ALPHA, rel=1e-15, abs=0)


def test_cosine_integral_frozen_values():
    # reference values from an independent arbitrary-precision evaluation
    assert cosine_integral(1.0) == pytest.approx(0.3374039229009681, rel=1e-12, abs=0)
    assert cosine_integral(10.0) == pytest.approx(-0.04545643300445537, rel=1e-10, abs=0)


def test_cosine_integral_vs_mpmath():
    # power series up to x = 2, continued fraction above; near the zeros of Ci
    # the error is gauged on its envelope min(1, 1/x)
    xs = np.concatenate(
        [
            np.logspace(-8, 12, 2000),
            np.linspace(0.3, 60.0, 1200),
            [0.01, 0.5, 30.0, 1e3, 1e6],
            [2.0, np.nextafter(2.0, 3.0)],
        ]
    )
    with mpmath.workdps(40):
        for x in xs.tolist():
            ref = mpmath.ci(x)
            assert abs(cosine_integral(x) - ref) <= 2e-15 * max(abs(ref), min(1.0, 1.0 / x)), x
    with pytest.raises(ValueError):
        cosine_integral(0.0)
    with pytest.raises(ValueError):
        cosine_integral(-1.0)


def test_spherical_jn_vs_mpmath():
    # power series below kappa = 1, Miller's recurrence up to 24, upward
    # recurrence above; where kappa > k, j_k has zeros and the error is
    # gauged on its envelope 1/kappa (kappa = pi is a zero of j_0)
    kappa = np.concatenate(
        [
            np.logspace(-10, 9, 96),
            [0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, math.pi, 2.0 * math.pi, 4.493409457909064],
            [23.5, 24.0 - 1e-9, 24.0, 24.0 + 1e-9, 30.0],
        ]
    )
    got = _spherical_jn(kappa)
    assert got.shape == (kappa.size, 24)
    with mpmath.workdps(40):
        for x, row in zip(kappa.tolist(), got.tolist()):
            for k, value in enumerate(row):
                ref = mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(k + 0.5, x)
                envelope = 1.0 / x if x > k else 0.0
                assert abs(value - ref) <= 1e-13 * max(abs(ref), envelope), (x, k)


def test_atanh_over_x():
    for x in (1e-8, 1e-5, 1e-3, 0.1, 0.5, 0.99):
        want = float(mpmath.atanh(x) / x)
        assert atanh_over_x(x) == pytest.approx(want, rel=1e-12, abs=0)
    assert atanh_over_x(0.0) == 1.0
    with pytest.raises(ValueError):
        atanh_over_x(1.0)
    with pytest.raises(ValueError):
        atanh_over_x(-0.1)


def test_bessel_k2():
    assert bessel_k2(1.0) == pytest.approx(1.6248388986351774, rel=1e-12, abs=0)
    xs = np.concatenate([np.logspace(-4, math.log10(600.0), 100), [0.05, 0.3, 1.0, 4.0, 12.0]])
    for x in xs.tolist():
        want = float(mpmath.besselk(2, x))
        assert bessel_k2(x) == pytest.approx(want, rel=2e-15, abs=0), x
    with pytest.raises(ValueError):
        bessel_k2(0.0)


def test_quadrature_spec_validation():
    QuadratureSpec()
    with pytest.raises(ValueError):
        QuadratureSpec(n_theta=4)
    with pytest.raises(ValueError):
        QuadratureSpec(n_phi=8)
    with pytest.raises(ValueError):
        QuadratureSpec(panels_per_period=2)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)


def test_sphere_constant():
    r = sphere_integrate(lambda nx, ny, nz: np.ones_like(nx))
    assert r.value == pytest.approx(4.0 * math.pi, rel=1e-14, abs=0)
    assert r.converged


def test_sphere_frozen_oracle():
    # Int dS^2 / (1 - 0.5 n_z) = (4 pi / 0.5) atanh(0.5) = 13.8058...
    r = sphere_integrate(lambda nx, ny, nz: 1.0 / (1.0 - 0.5 * nz))
    want = (4.0 * math.pi / 0.5) * float(mpmath.atanh(0.5))
    assert want == pytest.approx(13.80556918089, rel=1e-11, abs=0)
    assert r.value == pytest.approx(want, rel=1e-12, abs=0)


def test_sphere_odd_integrands_vanish():
    for f in (
        lambda nx, ny, nz: nx,
        lambda nx, ny, nz: ny * nz,
        lambda nx, ny, nz: nz**3,
    ):
        assert abs(sphere_integrate(f).value) < 1e-13


def test_sphere_polynomial_exactness():
    # Int nz^2 dS^2 = 4 pi / 3
    r = sphere_integrate(lambda nx, ny, nz: nz**2)
    assert r.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13, abs=0)


def test_sphere_blocks_sum_like_one_array():
    # 50 x 98 and 100 x 196 nodes: neither grid is a whole number of blocks
    spec = QuadratureSpec(n_theta=50, n_phi=98)
    assert (50 * 98) % _SPHERE_BLOCK and (100 * 196) % _SPHERE_BLOCK
    calls = []

    def f(nx, ny, nz):
        calls.append(nx.size)
        return 2.0 / ((1.0 - 0.7 * ny) * (1.0 - 0.7 * nx)) - 0.51 / (1.0 - 0.7 * nz) ** 2

    r = sphere_integrate(f, spec)
    assert max(calls) == _SPHERE_BLOCK and sum(calls) == 50 * 98 + 100 * 196
    # the values of each grid, evaluated as one array, weighted and summed once
    grids = (_sphere_grid(50, 98), _sphere_grid(100, 196))
    coarse, fine = (float(w @ f(nx, ny, nz)) for nx, ny, nz, w in grids)
    assert r.value == fine
    assert r.error == abs(fine - coarse)


def test_sphere_grid_mirrored_rings_share_nx_ny():
    for n_theta in list(range(8, 130)) + [192, 400, 800]:
        nx, ny, nz, w = (a.reshape(n_theta, 16) for a in _sphere_grid(n_theta, 16))
        assert np.array_equal(nx, nx[::-1]) and np.array_equal(ny, ny[::-1]), n_theta
        assert np.array_equal(nz, -nz[::-1]), n_theta
        assert np.array_equal(w, w[::-1]), n_theta
        assert np.all(nz[: n_theta // 2] < 0), n_theta
        if n_theta % 2:
            assert np.all(nz[n_theta // 2] == 0.0), n_theta
    # each ring is phi_k = 2 pi k / n_phi, and the weights sum to 4 pi
    for n_phi in (16, 30, 96, 97):
        nx, ny, nz, w = (a.reshape(9, n_phi) for a in _sphere_grid(9, n_phi))
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        s = np.sqrt(1.0 - nz[:, :1] ** 2)
        assert np.array_equal(nx, s * np.cos(phi)) and np.array_equal(ny, s * np.sin(phi)), n_phi
        assert float(np.sum(w)) == pytest.approx(4.0 * math.pi, rel=1e-14, abs=0), n_phi


def _asymmetric(nx, ny, nz):
    """A smooth integrand with neither mirror symmetry."""
    return np.exp(0.9 * nx - 0.4 * ny + 0.7 * nz) / (1.0 - 0.5 * nx - 0.3 * ny)


@pytest.mark.parametrize("n_theta", [8, 9, 48, 49])
@pytest.mark.parametrize("n_phi", [16, 30, 96, 97])
@pytest.mark.parametrize("even_z", [False, True])
@pytest.mark.parametrize("swap_xy", [False, True])
def test_sphere_orbit_weights_count_the_mirror_images(n_theta, n_phi, even_z, swap_xy):
    # the mirrors nz -> -nz (even_z) and nx <-> ny (swap_xy) map each node of a
    # grid onto a node of the same weight: the first always, the second when 4
    # divides n_phi, column k onto (n_phi // 4 - k) mod n_phi.  Then one node
    # of each orbit, weighed w times the number of its images (1, 2 or 4),
    # weighs the grid, and the rule gives f and f after the mirrors alike.
    symmetric = True
    for nt, nph in ((n_theta, n_phi), (2 * n_theta, 2 * n_phi)):
        nx, ny, nz, w = (a.reshape(nt, nph) for a in _sphere_grid(nt, nph))
        assert all(not a.flags.writeable for a in (nx, ny, nz, w))
        total = float(np.sum(w))
        assert total == pytest.approx(4.0 * math.pi, rel=1e-14, abs=0)
        if swap_xy and nph % 4:
            # pi/2 - phi_k is no node: the reflection does not map the grid onto itself
            turns = np.arctan2(nx, ny) * (nph / (2.0 * np.pi))
            assert np.abs(turns - np.round(turns)).min() > 0.1
            symmetric = False
            continue
        rows = np.arange(nt)[::-1] if even_z else np.arange(nt)
        cols = (nph // 4 - np.arange(nph)) % nph if swap_xy else np.arange(nph)
        image = [a[rows][:, cols] for a in (nx, ny, nz, w)]
        mx, my = (ny, nx) if swap_xy else (nx, ny)
        mz = -nz if even_z else nz
        assert np.abs(image[0] - mx).max() <= 2e-15 and np.abs(image[1] - my).max() <= 2e-15
        assert np.array_equal(image[2], mz) and np.array_equal(image[3], w)
        i, k = np.meshgrid(np.arange(nt), np.arange(nph), indexing="ij")
        times = np.where(i != rows[i], 2.0, 1.0) * np.where(k != cols[k], 2.0, 1.0)
        assert set(np.unique(times)) <= {1.0, 2.0, 4.0}
        one_per_orbit = (i <= rows[i]) & (k <= cols[k])
        orbits = float(np.sum((w * times)[one_per_orbit]))
        assert orbits == pytest.approx(total, rel=1e-15, abs=0)

    def mirrored(nx, ny, nz):
        if even_z:
            nz = -nz
        if swap_xy:
            nx, ny = ny, nx
        return _asymmetric(nx, ny, nz)

    spec = QuadratureSpec(n_theta=n_theta, n_phi=n_phi)
    plain, image = sphere_integrate(_asymmetric, spec), sphere_integrate(mirrored, spec)
    # to rounding on a symmetric grid pair, else within the two gauges
    bound = 2e-15 * plain.value + (0.0 if symmetric else plain.error + image.error)
    assert abs(image.value - plain.value) <= bound


@given(st.floats(0.05, 0.95))
@settings(max_examples=20, deadline=None)
def test_sphere_doppler_identity(v):
    r = sphere_integrate(lambda nx, ny, nz: 1.0 / (1.0 - v * nz))
    want = 4.0 * math.pi * atanh_over_x(v)
    assert r.value == pytest.approx(want, rel=1e-10, abs=0)


def test_freq_polynomial():
    r = freq_integrate(lambda w: w**2, 0.0, 3.0, 1.0)
    assert r.value == pytest.approx(9.0, rel=1e-13, abs=0)
    assert r.converged


def test_freq_oscillatory_vs_mpmath():
    # Int_0^x 2 (1 - cos w)/w dw = 2 [gamma + ln x - Ci(x)]
    for x in (1.0, 10.0, 200.0):
        r = freq_integrate(lambda w: 2.0 * (1.0 - np.cos(w)) / w, 0.0, x, 1.0)
        want = 2.0 * float(mpmath.euler + mpmath.log(x) - mpmath.ci(x))
        assert r.value == pytest.approx(want, rel=1e-10, abs=0)
    r10 = freq_integrate(lambda w: 2.0 * (1.0 - np.cos(w)) / w, 0.0, 10.0, 1.0)
    assert r10.value == pytest.approx(5.850514381800, rel=1e-11, abs=0)


def test_freq_small_lower_cutoff_log_kernel():
    # Int_lam^1 dw / w = ln(1/lam), with lam many octaves below the panel scale
    lam = 1e-9
    r = freq_integrate(lambda w: 1.0 / w, lam, 1.0, 1.0)
    assert r.value == pytest.approx(math.log(1.0 / lam), rel=1e-12, abs=0)


def test_freq_validation():
    with pytest.raises(ValueError):
        freq_integrate(lambda w: w, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        freq_integrate(lambda w: w, -1.0, 1.0, 1.0)


def test_freq_period_alignment_long_interval():
    # many oscillation periods: relative accuracy must survive x = 1e4
    x = 1e4
    r = freq_integrate(lambda w: 2.0 * (1.0 - np.cos(w)) / w, 0.0, x, 1.0)
    want = 2.0 * float(mpmath.euler + mpmath.log(x) - mpmath.ci(x))
    assert r.value == pytest.approx(want, rel=1e-10, abs=0)


def test_quadrature_result_float_protocol():
    r = freq_integrate(lambda w: np.ones_like(w), 0.0, 2.0, 1.0)
    assert float(r) == pytest.approx(2.0, rel=1e-14, abs=0)


def test_freq_integrate_rows_matches_scalar_passes():
    # a stack of rows over split segments sums to the scalar pass of each row
    def rows(w):
        return np.stack([np.ones_like(w), 2.0 * (1.0 - np.cos(w)) / w, w**2])

    coarse, fine = freq_integrate_rows(rows, [0.0, 0.5, 3.0, 40.0], 1.0)
    assert coarse.shape == fine.shape == (3, 3)
    for k in range(3):
        whole = freq_integrate(lambda w: rows(w)[k], 0.0, 40.0, 1.0).value
        assert fine[:, k].sum() == pytest.approx(whole, rel=1e-13, abs=0)
    assert fine[:, 0] == pytest.approx([0.5, 2.5, 37.0], rel=1e-14, abs=0)
    assert np.abs(fine - coarse).max() < 1e-12
    with pytest.raises(ValueError):
        freq_integrate_rows(rows, [0.0, 2.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        freq_integrate_rows(rows, [-1.0, 1.0], 1.0)


def test_frequency_blocks_sum_like_one_array():
    # the gamma_wideband segment: 269 panels of 36 nodes, not a whole number
    # of blocks; each block is evaluated on its own, the sums run as before
    tau, beta = 100.0, 300.0
    edges = _panel_edges(1e-6, 2.0 * math.pi * _TAIL_PERIODS / tau, tau, 4)
    x, wx = _shared_rule()
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * x
    assert nodes.size % _FREQ_BLOCK
    calls = []

    def rows(w):
        calls.append(w.size)
        return _gram_rows(w, tau, beta)

    coarse, fine = freq_integrate_rows(rows, [edges[0], edges[-1]], tau)
    assert max(calls) == _FREQ_BLOCK and sum(calls) == nodes.size
    vals = _gram_rows(nodes.ravel(), tau, beta)
    whole = half @ (vals.reshape(vals.shape[:-1] + nodes.shape) @ wx)
    assert np.array_equal(coarse[0], whole[:, 0]) and np.array_equal(fine[0], whole[:, 1])


def test_sphere_grid_is_cached_and_read_only():
    grid = _sphere_grid(8, 16)
    assert _sphere_grid(8, 16) is grid
    with pytest.raises(ValueError):
        grid[0][0] = 0.0


def _gram_pass(breaks, tau, beta=None, hybrid=True, count=None):
    """freq_integrate_rows over the Gram rows; count, if given, sums the nodes."""

    def wrap(rows):
        def f(w):
            if count is not None:
                count[0] += w.size
            return rows(w, tau, beta)

        return f

    split = wrap(_gram_split_rows) if hybrid else None
    return freq_integrate_rows(wrap(_gram_rows), breaks, tau, split=split)


@pytest.mark.parametrize("wt", [1e3, 1e6, 1e9])
def test_gram_rows_vs_mpmath_on_the_filon_tail(wt):
    # tau = 100, lambda tau = 1e-4: DD = 8 Cin(Omega tau), dd = ln(Omega/lambda),
    # ss = 2 (Omega tau)^2, sD = 4 (1 - cos(Omega tau))
    tau, lam = 100.0, 1e-6
    omega = wt / tau
    coarse, fine = _gram_pass([0.0, lam, omega], tau)
    dd = fine[1, 0]
    ss, DD, sD = fine[:, 1:].sum(axis=0)
    cin = mpmath.euler + mpmath.log(wt) - mpmath.ci(wt)
    assert DD == pytest.approx(float(8 * cin), rel=1e-13, abs=0)
    assert dd == pytest.approx(math.log(omega / lam), rel=1e-13, abs=0)
    assert ss == pytest.approx(2.0 * wt * wt, rel=1e-13, abs=0)
    if wt <= 1e6:
        # cos(Omega tau) itself is known to ~ Omega tau * 1e-16 only
        assert sD == pytest.approx(4.0 * (1.0 - math.cos(wt)), abs=1e-9)
    gap = (fine - coarse)[:, 1:].sum(axis=0)
    assert abs(fine[1, 0] - coarse[1, 0]) <= 1e-13 * dd
    assert abs(gap[0]) <= 1e-13 * ss and abs(gap[1]) <= 1e-13 * DD
    assert abs(gap[2]) <= 1e-9


def test_frequency_pass_nodes_do_not_grow_with_omega_tau():
    # the panelled rule alone would need ~2.3e10 more nodes at 1e9 than at 1e3
    tau = 100.0
    counts = {}
    for wt in (1e3, 1e9):
        count = [0]
        _gram_pass([0.0, 1e-6, wt / tau], tau, count=count)
        counts[wt] = count[0]
    assert abs(counts[1e9] - counts[1e3]) < 2000


def test_hybrid_rule_is_continuous_at_the_split():
    tau = 100.0
    seam = 2.0 * math.pi * _TAIL_PERIODS / tau
    below = _gram_pass([0.0, np.nextafter(seam, 0.0)], tau)[1][0]
    above = _gram_pass([0.0, np.nextafter(seam, np.inf)], tau)[1][0]
    # one octave past the seam, the tail matches the panels it replaces
    hybrid = _gram_pass([0.0, 2.0 * seam], tau)[1][0]
    panels = _gram_pass([0.0, 2.0 * seam], tau, hybrid=False)[1][0]
    for got, want in ((above, below), (hybrid, panels)):
        assert got[:3] == pytest.approx(want[:3], rel=1e-13, abs=0)
        # sD = 4 tau sin(w tau) integrates to 0 over whole periods; both sides
        # keep only round-off of order eps * 4 tau * w_max (4e-13 and 7e-13 here)
        assert got[3] == pytest.approx(want[3], rel=0, abs=1e-12)


@pytest.mark.parametrize("beta", [1.0, 100.0, 1e4])
def test_thermal_rows_across_the_split_match_a_panel_only_pass(beta):
    tau, wt = 100.0, 1e4
    breaks = [1e-6, wt / tau]
    hybrid = _gram_pass(breaks, tau, beta)[1][0]
    panels = _gram_pass(breaks, tau, beta, hybrid=False)[1][0]
    assert hybrid[:3] == pytest.approx(panels[:3], rel=1e-12, abs=0)
    # sD = 4 tau sin(w tau) [coth] cancels over every period: at beta = 100 the
    # panel-only sum is itself 1.5e-11 off (mpmath), the hybrid one 3e-12
    assert hybrid[3] == pytest.approx(panels[3], abs=1e-10)


def test_filon_tail_is_exact_for_polynomial_amplitudes():
    # Int w^3 cos(w) dw = (w^3 - 6w) sin(w) + (3w^2 - 6) cos(w), on panels with kappa 80-360;
    # GL-12 is exact on the cubic too, so coarse and fine agree
    lo, hi = 2.0 * math.pi * _TAIL_PERIODS, 3e3

    def rows(w):
        return np.stack([w**2, w**3 * np.cos(w)])

    def split(w):
        zero = np.zeros_like(w)
        return np.array([[w**2, zero, zero], [zero, w**3, zero]])

    coarse, fine = freq_integrate_rows(rows, [lo, hi], 1.0, split=split)

    def antiderivative(w):
        w = mpmath.mpf(w)
        return (w**3 - 6 * w) * mpmath.sin(w) + (3 * w**2 - 6) * mpmath.cos(w)

    want = float(antiderivative(hi) - antiderivative(lo))
    assert fine[0, 0] == pytest.approx((hi**3 - lo**3) / 3.0, rel=1e-14, abs=0)
    assert fine[0, 1] == pytest.approx(want, rel=1e-12, abs=0)
    assert coarse[0] == pytest.approx(fine[0], rel=1e-12, abs=0)
