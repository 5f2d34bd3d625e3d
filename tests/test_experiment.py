import math

import mpmath
import pytest

from softdeco import (
    ParticleMirror,
    SlitGeometry,
    gamma_dressed_2slit,
    gamma_hard_2slit,
    rayleigh_rate,
    slit_acceleration,
    surface_coupling,
    vdw_potential,
)

mpmath.mp.dps = 30


def _slit(**kw):
    base = dict(a_o=1e-6, b_o=5e-7, d_o=2e-6, L_o=1e-2, v_over_c=0.01)
    base.update(kw)
    return SlitGeometry(**base)


def test_slit_validation():
    _slit()
    with pytest.raises(ValueError):
        _slit(a_o=0.0)
    with pytest.raises(ValueError):
        _slit(v_over_c=1.0)
    with pytest.raises(ValueError):
        _slit(L_o=1e-7)  # must exceed a_o


def test_deflection_scale_default():
    s = _slit()
    assert s.deflection_scale == s.L_o
    s2 = _slit(ell_o=0.5)
    assert s2.deflection_scale == 0.5


def test_slit_acceleration_signs():
    s = _slit()
    a_plus = slit_acceleration(s, 0.0, "A")
    a_minus = slit_acceleration(s, 0.0, "B")
    assert a_plus == -a_minus
    assert a_plus == pytest.approx(s.v_over_c**2 / s.L_o * 0.5 * s.d_o, rel=1e-15, abs=0)
    z = 3e-6
    assert slit_acceleration(s, z, "A") == pytest.approx(
        s.v_over_c**2 / s.L_o * (z + 0.5 * s.d_o), rel=1e-15, abs=0
    )
    with pytest.raises(ValueError):
        slit_acceleration(s, 0.0, "C")


def test_gamma_dressed_2slit_frozen():
    # Q = 1, v/c = 0.01, L_o/a_o = 1e4
    s = _slit()
    got = gamma_dressed_2slit(s)
    want = (16.0 * s.alpha / (3.0 * math.pi)) * 1e-4 * math.log(1e4)
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    assert got == pytest.approx(1.1410110888e-5, rel=1e-9, abs=0)


def test_gamma_dressed_2slit_charge_scaling():
    s1, s2 = _slit(Q=1.0), _slit(Q=2.0)
    assert gamma_dressed_2slit(s2) == 4.0 * gamma_dressed_2slit(s1)


def test_slit_values_pinned_at_config_geometry():
    # configs/slit.json; estimate-slit prints these bits
    s = _slit(Q=1.0)
    assert gamma_dressed_2slit(s) == 1.1410110888279164e-05
    assert gamma_hard_2slit(s) == (309709.3763938496, 15.485468819692482, 20000.0)


@pytest.mark.parametrize("Q", [1.0, -1.0, 0.5, 3.0])
@pytest.mark.parametrize("v", [1e-4, 0.01, 0.3, 0.9])
@pytest.mark.parametrize("a_o, L_o", [(1e-6, 1e-2), (1e-3, 1e-2), (1.0, 1.5), (1e-9, 1e3)])
def test_slit_values_match_printed_formulas(Q, v, a_o, L_o):
    # the engine's asymptotic closed forms against the formulas as printed
    s = _slit(a_o=a_o, L_o=L_o, v_over_c=v, Q=Q)
    r = L_o / a_o
    dressed = Q**2 * (16.0 * s.alpha / (3.0 * math.pi)) * v**2 * math.log(r)
    bracket = 2.0 * math.log(r) + 0.5 * r**2
    printed = Q**2 * (8.0 * s.alpha / (3.0 * math.pi)) * bracket
    flagged = Q**2 * (4.0 * s.alpha / (3.0 * math.pi)) * v**2 * bracket
    got_printed, got_flagged, ratio = gamma_hard_2slit(s)
    assert gamma_dressed_2slit(s) == pytest.approx(dressed, rel=1e-14, abs=0)
    assert got_printed == pytest.approx(printed, rel=1e-14, abs=0)
    assert got_flagged == pytest.approx(flagged, rel=1e-14, abs=0)
    assert ratio == pytest.approx(2.0 / v**2, rel=1e-14, abs=0)


def test_gamma_hard_2slit_frozen_and_ratio():
    s = _slit(a_o=1e-3, L_o=1e-2)  # L_o/a_o = 10
    printed, flagged, ratio = gamma_hard_2slit(s)
    want_printed = (8.0 * s.alpha / (3.0 * math.pi)) * (2.0 * math.log(10.0) + 50.0)
    assert printed == pytest.approx(want_printed, rel=1e-14, abs=0)
    assert printed == pytest.approx(0.33823454, rel=1e-6, abs=0)
    # restoring the velocity factor costs (v/c)^2 and a coefficient half
    assert ratio == pytest.approx(2.0 / s.v_over_c**2, rel=1e-14, abs=0)
    assert flagged == pytest.approx(printed * s.v_over_c**2 / 2.0, rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "key, value",
    [
        ("a_o", math.nan),
        ("L_o", math.inf),
        ("v_over_c", math.nan),
        ("Q", -math.inf),
        ("alpha", 0.0),
        ("alpha", math.nan),
        ("ell_o", 0.0),
        ("ell_o", -1.0),
        ("ell_o", math.nan),
        ("ell_o", math.inf),
    ],
)
def test_slit_rejects_nonfinite_and_out_of_range(key, value):
    with pytest.raises(ValueError, match=key):
        _slit(**{key: value})


def test_slit_rejects_an_aspect_ratio_beyond_the_float_range():
    with pytest.raises(ValueError, match="L_o/a_o must be finite"):
        _slit(a_o=1e-150, L_o=1e160)


def _mirror(**kw):
    base = dict(r_o=1.0, Z_o=5.0, epsilon=2.0, g_o=1.0, q=0.5, X_o=0.0, U_o=0.0)
    base.update(kw)
    return ParticleMirror(**base)


def test_mirror_validation():
    _mirror()
    with pytest.raises(ValueError):
        _mirror(r_o=0.0)
    with pytest.raises(ValueError):
        _mirror(Z_o=-1.0)
    with pytest.raises(ValueError):
        _mirror(epsilon=1.0)


@pytest.mark.parametrize(
    "key, value",
    [
        ("Z_o", math.nan),
        ("q", -0.5),
        ("q", 0.0),
        ("epsilon", math.inf),
        ("epsilon", math.nan),
        ("r_o", math.inf),
        ("g_o", math.nan),
        ("X_o", -math.inf),
        ("U_o", math.nan),
    ],
)
def test_mirror_rejects_nonfinite_and_out_of_range(key, value):
    # Z_o = NaN and q < 0 reached K_2 and failed there; epsilon = inf gave NaN
    with pytest.raises(ValueError, match=key):
        _mirror(**{key: value})


def test_vdw_far_frozen():
    p = _mirror(r_o=1.0, Z_o=1.0)
    with pytest.warns(UserWarning):
        got = vdw_potential(p, "far")  # Z_o = r_o triggers the regime warning
    want = -(9.0 / (16.0 * math.pi)) / 16.0
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    assert got == pytest.approx(-0.011190581936, rel=1e-9, abs=0)


def test_vdw_far_distance_scaling():
    p1, p2 = _mirror(Z_o=10.0), _mirror(Z_o=21.0)
    got = vdw_potential(p1, "far") / vdw_potential(p2, "far")
    want = ((p2.r_o + p2.Z_o) / (p1.r_o + p1.Z_o)) ** 4
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_vdw_near_coefficient():
    p = _mirror(r_o=10.0, Z_o=1.0)
    got = vdw_potential(p, "near")
    coeff = float((mpmath.mpf(1) / 3 - 5 / mpmath.pi**2) * mpmath.pi**3 / 720)
    assert got == pytest.approx(coeff / p.Z_o, rel=1e-12, abs=0)
    assert got < 0


def test_vdw_regime_warnings_and_validation():
    far_ok = _mirror(r_o=1.0, Z_o=5.0)
    vdw_potential(far_ok, "far")  # no warning
    with pytest.warns(UserWarning):
        vdw_potential(far_ok, "near")
    with pytest.raises(ValueError):
        vdw_potential(far_ok, "middle")


def test_surface_coupling_frozen():
    p = _mirror(r_o=1.0, Z_o=1.0, g_o=1.0, q=1.0, X_o=0.0)
    got = surface_coupling(p)
    want = float(
        -(mpmath.sqrt(2) * mpmath.pi**2 / 3) * mpmath.besselk(2, 1)
    )
    assert got == pytest.approx(want, rel=1e-10, abs=0)
    # phase factor flips the sign at q X_o = pi
    flipped = surface_coupling(_mirror(r_o=1.0, Z_o=1.0, q=1.0, X_o=math.pi))
    assert flipped == pytest.approx(-got, rel=1e-10, abs=0)


def test_rayleigh_rate():
    p = _mirror(epsilon=2.0, r_o=1.0)
    got = rayleigh_rate(p, 1.0)
    want = (8.0 * math.pi / 3.0) * (1.0 / 4.0) ** 2
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    # |q|^4 scaling
    assert rayleigh_rate(p, 2.0) == pytest.approx(16.0 * got, rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        rayleigh_rate(p, 0.0)


def test_rayleigh_conductor_limit():
    p = _mirror(epsilon=1e9)
    got = rayleigh_rate(p, 1.0)
    assert got == pytest.approx(8.0 * math.pi / 3.0, rel=1e-8, abs=0)
