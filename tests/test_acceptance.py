"""End-to-end acceptance suite.

Each test prints one "[acceptance] <name>: PASS/FAIL" line and then asserts,
so the printed transcript doubles as a sign-off sheet.
"""

import math

import mpmath
import numpy as np
import pytest

from softdeco import (
    CutoffSet,
    FourVector,
    InterferometerGeometry,
    PhotonMomentum,
    QuadratureSpec,
    SlitGeometry,
    Worldline,
    WorldlineSegment,
    bessel_k2,
    closed_forms,
    current_fourier,
    divergence_coefficient,
    four_velocity,
    freq_integrate,
    gamma,
    gamma_dressed_2slit,
    rayleigh_rate,
    soft_decompose,
    soft_factors,
    sphere_integrate,
    summarize,
)
from softdeco.numerics import E2_ELECTRON, EULER_GAMMA, cosine_integral
from softdeco.experiment import ParticleMirror

mpmath.mp.dps = 30


def report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_angular_quadrature_identity():
    ok = True
    for v in (0.1, 0.3, 0.6, 0.9):
        got = sphere_integrate(lambda nx, ny, nz: 1.0 / (1.0 - v * nz)).value
        want = (4.0 * math.pi / v) * math.atanh(v)
        ok = ok and abs(got - want) <= 1e-8 * abs(want)
    report("angular_quadrature_identity", ok)


def test_frequency_quadrature_identity():
    ok = True
    for x in (1.0, 10.0, 1e3, 1e6):
        got = freq_integrate(
            lambda w: 2.0 * (1.0 - np.cos(w)) / w, 0.0, x, 1.0
        ).value
        want = 2.0 * (EULER_GAMMA + math.log(x) - cosine_integral(x))
        ok = ok and abs(got - want) <= 1e-8 * abs(want)
    report("frequency_quadrature_identity", ok)


def test_dressed_functional_asymptote():
    g = InterferometerGeometry(0.01, 1.0)  # v = 0.01
    devs = []
    ok = True
    for uv in (1e3, 1e4, 1e5, 1e6):
        cut = CutoffSet(omega_uv=uv)
        got = gamma(g, cut, "dressed").value
        cf = closed_forms(g, cut)
        ok = ok and abs(got - cf.dressed) <= 1e-6 * cf.dressed
        devs.append(abs(got / cf.dressed_asymptotic - 1.0))
    # at Omega tau = 1e6 the numeric value sits within 6% of the
    # log-asymptote, and the deviation shrinks monotonically with the cutoff
    ok = ok and devs[-1] <= 0.06
    ok = ok and all(a > b for a, b in zip(devs, devs[1:]))
    report("dressed_functional_asymptote", ok)


def test_subleading_functional_scaling():
    ok = True
    for v in (0.01, 0.05):
        g = InterferometerGeometry(v, 1.0)
        cut = CutoffSet(omega_uv=100.0)
        got = gamma(g, cut, "sub").value
        want = E2_ELECTRON * cut.omega_uv**2 * g.l**2 / (3.0 * math.pi**2)
        ok = ok and abs(got / want - 1.0) <= 2.0 * v * v
    # quadratic growth with the arm length at fixed tau
    tau, uv = 10.0, 10.0
    ls = np.array([0.05, 0.1, 0.2, 0.4])
    ys = [
        gamma(InterferometerGeometry(float(l), tau), CutoffSet(omega_uv=uv), "sub").value
        for l in ls
    ]
    slope = np.polyfit(np.log(ls), np.log(ys), 1)[0]
    ok = ok and abs(slope - 2.0) <= 0.01
    # tau-independence at fixed l and fixed Omega*tau scaling broken:
    # Gamma_sub depends on l and Omega only, up to O(v^2) corrections
    l, uv = 0.1, 5.0
    vals = [
        gamma(InterferometerGeometry(l, tau), CutoffSet(omega_uv=uv), "sub").value
        for tau in (2.0, 4.0, 8.0)
    ]
    v_max = l / 2.0
    spread = (max(vals) - min(vals)) / min(vals)
    ok = ok and spread <= 2.0 * v_max**2
    report("subleading_functional_scaling", ok)


def test_hard_functional_coefficient():
    # at Omega tau = 1e3 and v = 0.01 the numeric value must match the
    # (2 e^2 / 3 pi^2) v^2 [2 ln + (Omega tau)^2/2] evaluation within 1%,
    # i.e. twice the alternative coefficient that halves it
    v = 0.01
    g = InterferometerGeometry(v, 1.0)
    cut = CutoffSet(omega_uv=1e3)
    got = gamma(g, cut, "hard").value
    cf = closed_forms(g, cut)
    ok = abs(got / cf.hard_asymptotic - 1.0) <= 0.01
    ratio = got / cf.hard_halved
    ok = ok and abs(ratio - 2.0) <= 0.02
    report("hard_functional_coefficient", ok)


def _random_worldline(rng, n_seg=None):
    if n_seg is None:
        n_seg = int(rng.integers(2, 5))
    event = FourVector(*rng.uniform(-1.0, 1.0, size=4))
    segments = []
    for _ in range(n_seg):
        vel = four_velocity(rng.uniform(-0.5, 0.5, size=3))
        segments.append(WorldlineSegment(event, vel, float(rng.uniform(0.1, 2.0))))
        event = segments[-1].end_event
    return Worldline(segments)


def _random_direction(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


def test_current_conservation_and_scaling():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(1000):
        w = _random_worldline(rng)
        q = PhotonMomentum(float(10.0 ** rng.uniform(-2, 1)), _random_direction(rng))
        qv = q.four_vector()
        j = current_fourier(w, q)
        t = soft_decompose(w, q)
        scale = max(j.norm(), t.j_div.norm(), t.j_sub.norm())
        for piece in (j, t.j_div, t.j_sub, t.j_hard):
            if abs(qv.dot(piece)) > 1e-12 * scale:
                ok = False
    # scaling exponents over omega in [1e-8, 1e-4]
    w = _random_worldline(rng)
    n = _random_direction(rng)
    omegas = np.geomspace(1e-8, 1e-4, 9)
    mags = {"div": [], "sub": [], "hard": []}
    for om in omegas:
        t = soft_decompose(w, PhotonMomentum(float(om), n))
        mags["div"].append(t.j_div.norm())
        mags["sub"].append(t.j_sub.norm())
        mags["hard"].append(t.j_hard.norm())
    for name, want in (("div", -1.0), ("sub", 0.0), ("hard", 1.0)):
        slope = np.polyfit(np.log(omegas), np.log(mags[name]), 1)[0]
        if abs(slope - want) > 0.01:
            ok = False
    report("current_conservation_and_scaling", ok)


def test_boundary_soft_expansion():
    rng = np.random.default_rng(43)
    ok = True
    for _ in range(5):
        w = _random_worldline(rng, n_seg=2)
        n = _random_direction(rng)
        omegas = np.geomspace(1e-5, 1e-2, 7)
        resid = []
        for om in omegas:
            q = PhotonMomentum(float(om), n)
            j = current_fourier(w, q)
            s0f, s1f = soft_factors(q, w.end_event, w.final_velocity)
            s0i, s1i = soft_factors(q, w.start_event, w.initial_velocity)
            pred = (s0f - s0i) + (s1f - s1i)
            resid.append((1j * j.conjugate() - pred).norm())
        slope = np.polyfit(np.log(omegas), np.log(resid), 1)[0]
        if abs(slope - 1.0) > 0.02:
            ok = False
    report("boundary_soft_expansion", ok)


def test_ir_divergence_coefficient():
    g = InterferometerGeometry(0.2, 3.0)
    cut = CutoffSet(omega_uv=15.0, lambda_ir=1e-4)
    fit = divergence_coefficient(g, cut, variant="full")
    want = E2_ELECTRON * closed_forms(g, cut).angular_exact / (32.0 * math.pi**3)
    ok = abs(fit.coefficient - want) <= 1e-3 * want
    flat = divergence_coefficient(g, cut, variant="dressed")
    ok = ok and abs(flat.coefficient) <= 1e-4 * E2_ELECTRON * g.v**2
    report("ir_divergence_coefficient", ok)


def test_which_path_duality():
    ok = True
    for gamma in np.linspace(0.0, 20.0, 201):
        s = summarize(float(gamma))
        if abs(s.distinguishability**2 + s.visibility_bound**2 - 1.0) > 1e-12:
            ok = False
    report("which_path_duality", ok)


def test_thermal_monotonicity():
    g = InterferometerGeometry(0.2, 3.0)
    betas = (2.0, 10.0, 50.0, 250.0, 1250.0)
    vals = [
        gamma(g, CutoffSet(omega_uv=15.0, beta=b), "dressed").value for b in betas
    ]
    ok = all(a >= b for a, b in zip(vals, vals[1:]))
    cold = gamma(g, CutoffSet(omega_uv=15.0, beta=1e7), "dressed").value
    zero = gamma(g, CutoffSet(omega_uv=15.0), "dressed").value
    ok = ok and abs(cold - zero) <= 1e-6 * zero
    report("thermal_monotonicity", ok)


def test_desk_scale_estimators():
    slit = SlitGeometry(a_o=1e-6, b_o=5e-7, d_o=2e-6, L_o=1e-2, v_over_c=0.01)
    got = gamma_dressed_2slit(slit)
    ok = abs(got - 1.1410110888e-5) <= 1e-3 * 1.1410110888e-5
    # Rayleigh |q|^4 law
    p = ParticleMirror(r_o=1.0, Z_o=5.0, epsilon=2.0)
    base = rayleigh_rate(p, 1.0)
    for qm in (0.5, 2.0, 7.0):
        if abs(rayleigh_rate(p, qm) / base - qm**4) > 1e-10 * qm**4:
            ok = False
    # K_2 against an independent arbitrary-precision oracle
    for x in (0.1, 1.0, 3.0, 8.0):
        want = float(mpmath.besselk(2, x))
        if abs(bessel_k2(x) - want) > 1e-10 * want:
            ok = False
    report("desk_scale_estimators", ok)
