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
from softdeco.numerics import _sphere_grid, freq_integrate_rows

mpmath.mp.dps = 30


def test_constants():
    assert EULER_GAMMA == pytest.approx(float(mpmath.euler), abs=1e-16)
    assert FINE_STRUCTURE_ALPHA == pytest.approx(1.0 / 137.035999, rel=1e-15)
    assert E2_ELECTRON == pytest.approx(4.0 * math.pi * FINE_STRUCTURE_ALPHA)


def test_cosine_integral_frozen_values():
    # reference values from an independent arbitrary-precision evaluation
    assert cosine_integral(1.0) == pytest.approx(0.3374039229009681, rel=1e-12)
    assert cosine_integral(10.0) == pytest.approx(-0.04545643300445537, rel=1e-10)


def test_cosine_integral_vs_mpmath():
    for x in (0.01, 0.5, 2.0, 30.0, 1e3, 1e6):
        assert cosine_integral(x) == pytest.approx(
            float(mpmath.ci(x)), rel=1e-12, abs=1e-14
        )
    with pytest.raises(ValueError):
        cosine_integral(0.0)
    with pytest.raises(ValueError):
        cosine_integral(-1.0)


def test_atanh_over_x():
    for x in (1e-8, 1e-5, 1e-3, 0.1, 0.5, 0.99):
        want = float(mpmath.atanh(x) / x)
        assert atanh_over_x(x) == pytest.approx(want, rel=1e-12)
    assert atanh_over_x(0.0) == 1.0
    with pytest.raises(ValueError):
        atanh_over_x(1.0)
    with pytest.raises(ValueError):
        atanh_over_x(-0.1)


def test_bessel_k2():
    assert bessel_k2(1.0) == pytest.approx(1.6248388986351774, rel=1e-12)
    for x in (0.05, 0.3, 1.0, 4.0, 12.0):
        want = float(mpmath.besselk(2, x))
        assert bessel_k2(x) == pytest.approx(want, rel=1e-10)
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
    assert r.value == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert r.converged


def test_sphere_frozen_oracle():
    # Int dS^2 / (1 - 0.5 n_z) = (4 pi / 0.5) atanh(0.5) = 13.8058...
    r = sphere_integrate(lambda nx, ny, nz: 1.0 / (1.0 - 0.5 * nz))
    want = (4.0 * math.pi / 0.5) * float(mpmath.atanh(0.5))
    assert want == pytest.approx(13.80556918089, rel=1e-11)
    assert r.value == pytest.approx(want, rel=1e-12)


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
    assert r.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)


@given(st.floats(0.05, 0.95))
@settings(max_examples=20, deadline=None)
def test_sphere_doppler_identity(v):
    r = sphere_integrate(lambda nx, ny, nz: 1.0 / (1.0 - v * nz))
    want = 4.0 * math.pi * atanh_over_x(v)
    assert r.value == pytest.approx(want, rel=1e-10)


def test_freq_polynomial():
    r = freq_integrate(lambda w: w**2, 0.0, 3.0, 1.0)
    assert r.value == pytest.approx(9.0, rel=1e-13)
    assert r.converged


def test_freq_oscillatory_vs_mpmath():
    # Int_0^x 2 (1 - cos w)/w dw = 2 [gamma + ln x - Ci(x)]
    for x in (1.0, 10.0, 200.0):
        r = freq_integrate(lambda w: 2.0 * (1.0 - np.cos(w)) / w, 0.0, x, 1.0)
        want = 2.0 * float(mpmath.euler + mpmath.log(x) - mpmath.ci(x))
        assert r.value == pytest.approx(want, rel=1e-10)
    r10 = freq_integrate(lambda w: 2.0 * (1.0 - np.cos(w)) / w, 0.0, 10.0, 1.0)
    assert r10.value == pytest.approx(5.850514381800, rel=1e-11)


def test_freq_small_lower_cutoff_log_kernel():
    # Int_lam^1 dw / w = ln(1/lam), with lam many octaves below the panel scale
    lam = 1e-9
    r = freq_integrate(lambda w: 1.0 / w, lam, 1.0, 1.0)
    assert r.value == pytest.approx(math.log(1.0 / lam), rel=1e-12)


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
    assert r.value == pytest.approx(want, rel=1e-10)


def test_quadrature_result_float_protocol():
    r = freq_integrate(lambda w: np.ones_like(w), 0.0, 2.0, 1.0)
    assert float(r) == pytest.approx(2.0, rel=1e-14)


def test_freq_integrate_rows_matches_scalar_passes():
    # a stack of rows over split segments sums to the scalar pass of each row
    def rows(w):
        return np.stack([np.ones_like(w), 2.0 * (1.0 - np.cos(w)) / w, w**2])

    coarse, fine = freq_integrate_rows(rows, [0.0, 0.5, 3.0, 40.0], 1.0)
    assert coarse.shape == fine.shape == (3, 3)
    for k in range(3):
        whole = freq_integrate(lambda w: rows(w)[k], 0.0, 40.0, 1.0).value
        assert fine[:, k].sum() == pytest.approx(whole, rel=1e-13)
    assert fine[:, 0] == pytest.approx([0.5, 2.5, 37.0], rel=1e-14)
    assert np.abs(fine - coarse).max() < 1e-12
    with pytest.raises(ValueError):
        freq_integrate_rows(rows, [0.0, 2.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        freq_integrate_rows(rows, [-1.0, 1.0], 1.0)


def test_sphere_grid_is_cached_and_read_only():
    grid = _sphere_grid(8, 16)
    assert _sphere_grid(8, 16) is grid
    with pytest.raises(ValueError):
        grid[0][0] = 0.0
