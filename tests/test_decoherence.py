import math

import numpy as np
import pytest
from scipy.special import sici

from softdeco import (
    CutoffSet,
    DecoherenceReport,
    FourVector,
    InterferometerGeometry,
    IRDivergenceError,
    PhotonMomentum,
    QuadratureSpec,
    VARIANTS,
    angular_integral,
    closed_forms,
    decoherence_report,
    delta_current,
    dipole_coefficients,
    divergence_coefficient,
    gamma,
    gamma_kernel,
    sphere_integrate,
)
from softdeco import decoherence
from softdeco.decoherence import _gram_rows
from softdeco.numerics import E2_ELECTRON, EULER_GAMMA

FAST = QuadratureSpec(n_theta=16, n_phi=32)


def test_cutoffs_validation():
    CutoffSet(omega_uv=1.0)
    with pytest.raises(ValueError):
        CutoffSet(omega_uv=1.0, lambda_ir=-0.1)
    with pytest.raises(ValueError):
        CutoffSet(omega_uv=1.0, lambda_ir=2.0)
    with pytest.raises(ValueError):
        CutoffSet(omega_uv=1.0, beta=0.0)


@pytest.mark.parametrize(
    "omega_uv, lambda_ir, beta",
    [
        (math.inf, 0.0, None),
        (math.nan, 0.0, None),
        (1.0, math.nan, None),
        (1.0, 0.0, math.nan),
        (1.0, 0.0, math.inf),
    ],
)
def test_cutoffs_reject_nonfinite(omega_uv, lambda_ir, beta):
    with pytest.raises(ValueError):
        CutoffSet(omega_uv=omega_uv, lambda_ir=lambda_ir, beta=beta)


def test_kernel_nonnegative_and_transverse():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        q = PhotonMomentum(float(10.0 ** rng.uniform(-2, 1)), n)
        comps = rng.normal(size=4) + 1j * rng.normal(size=4)
        dj = FourVector(*comps)
        val = gamma_kernel(dj, q)
        assert val >= 0.0
        # adding any multiple of q (gauge shift) leaves the kernel unchanged
        c = complex(rng.normal(), rng.normal())
        shifted = dj + c * q.four_vector()
        assert gamma_kernel(shifted, q) == pytest.approx(val, rel=1e-10, abs=1e-12)


def test_angular_integral_vs_closed_form():
    for v in (0.05, 0.2, 0.5, 0.8):
        g = InterferometerGeometry(v, 1.0)
        got = angular_integral(g).value
        # atanh_over_x(v12) - 1 would cancel 5.7e-14 of it at v = 0.05
        want = closed_forms(g, CutoffSet(omega_uv=1.0)).angular_exact
        assert got == pytest.approx(want, rel=1e-14, abs=0)


def _angular_mpmath(v):
    """8 pi [atanh(v12)/v12 - 1], v12 = v sqrt(2 - v^2), at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        mv = mpmath.mpf(v)
        v12 = mv * mpmath.sqrt(2 - mv * mv)
        return 8 * mpmath.pi * (mpmath.atanh(v12) / v12 - 1)


@pytest.mark.parametrize(
    "v", [1e-6, 1e-4, 1e-2, 0.5, 0.98, 0.99, 0.995, 0.9999, 1 - 5e-7, 1 - 1e-9]
)
def test_angular_closed_form_against_mpmath(v):
    want = float(_angular_mpmath(v))
    got = closed_forms(InterferometerGeometry(v, 1.0), CutoffSet(omega_uv=1.0)).angular_exact
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize(
    "v", [1e-8, 1e-6, 1e-3, 0.01, 0.5, 0.99, 0.995, 0.999, 0.9999, 1 - 1e-14]
)
def test_angular_integral_against_mpmath(v):
    want = _angular_mpmath(v)
    got = angular_integral(InterferometerGeometry(v, 1.0))
    assert got.converged
    assert got.value == pytest.approx(float(want), rel=1e-15, abs=0)
    # the gauge covers the true deviation
    assert abs(got.value - want) <= got.error + 1e-15 * want


@pytest.mark.parametrize("v", [0.05, 0.3, 0.6, 0.9])
def test_angular_integral_is_the_sphere_pass_of_the_bracket(v):
    g = InterferometerGeometry(v, 1.0)
    sphere = sphere_integrate(decoherence.angular_bracket(g), QuadratureSpec())
    assert sphere.value == pytest.approx(angular_integral(g).value, rel=1e-12, abs=0)


@pytest.mark.parametrize("v", [1e-6, 0.01, 0.3, 0.9, 0.995])
def test_angular_bracket_in_place_is_the_expression(v):
    # the bracket, the reference of angular_integral, is the written expression
    # to the bit, and leaves the direction arrays it is handed as they were
    from softdeco.numerics import _sphere_grid

    nx, ny, nz, _ = (a.copy() for a in _sphere_grid(96, 192))
    d1, d2 = 1.0 - v * ny, 1.0 - v * nx
    want = 2.0 / (d1 * d2) - (1.0 - v * v) * (1.0 / d1**2 + 1.0 / d2**2)
    got = decoherence.angular_bracket(InterferometerGeometry(v, 1.0))(nx, ny, nz)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too
    assert all(np.array_equal(a, b) for a, b in zip((nx, ny, nz), _sphere_grid(96, 192)))


def test_angular_integral_small_v_limit():
    v = 1e-3
    g = InterferometerGeometry(v, 1.0)
    got = angular_integral(g).value
    assert got == pytest.approx((16.0 * math.pi / 3.0) * v * v, rel=1e-5, abs=0)


def test_angular_kernel_consistency():
    # the vectorized bracket equals the transverse-kernel bilinear of the
    # exact current difference with the phases stripped (dipole, omega^2
    # scaled out), checked at scattered directions
    from softdeco.decoherence import angular_bracket

    g = InterferometerGeometry(0.4, 1.0)
    f = angular_bracket(g)
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        omega = 0.7
        q = PhotonMomentum(omega, n)
        qv = q.four_vector()
        B = g.Xdot_1 / qv.dot(g.Xdot_1) - g.Xdot_2 / qv.dot(g.Xdot_2)
        want = omega**2 * gamma_kernel(B, q)
        got = float(f(*(np.asarray([c]) for c in n))[0])
        assert got == pytest.approx(want, rel=1e-10, abs=0)


def test_dressed_vs_closed_form():
    for l, tau, uv in ((0.01, 1.0, 50.0), (0.3, 2.0, 20.0), (1.0, 100.0, 10.0)):
        g = InterferometerGeometry(l, tau)
        cut = CutoffSet(omega_uv=uv)
        got = gamma(g, cut, "dressed").value
        want = closed_forms(g, cut).dressed
        assert got == pytest.approx(want, rel=1e-6, abs=0)


def test_sub_and_hard_vs_closed_form():
    g = InterferometerGeometry(0.3, 2.0)
    cut = CutoffSet(omega_uv=20.0)
    cf = closed_forms(g, cut)
    assert gamma(g, cut, "sub").value == pytest.approx(cf.sub, rel=1e-8, abs=0)
    assert gamma(g, cut, "hard").value == pytest.approx(cf.hard, rel=1e-8, abs=0)


def test_cross_term_completeness():
    # dressed = sub + hard + interference, term by term from the same engine
    g = InterferometerGeometry(0.2, 3.0)
    cut = CutoffSet(omega_uv=15.0)
    d = gamma(g, cut, "dressed").value
    s = gamma(g, cut, "sub").value
    h = gamma(g, cut, "hard").value
    x = gamma(g, cut, "cross").value
    assert s + h + x == pytest.approx(d, rel=1e-8, abs=0)


# the current pieces each variant keeps, as indices into (c_div, c_sub, c_hard)
_PIECES = {"full": (0, 1, 2), "dressed": (1, 2), "sub": (1,), "hard": (2,), "cross": (1, 2)}


@pytest.mark.parametrize("tau", [0.5, 3.0, 100.0])
def test_variant_weights_match_dipole_coefficients(tau):
    # every row of VARIANTS, contracted with the Gram rows, is |sum of the
    # kept pieces|^2 of currents.dipole_coefficients, or 2 Re(c_sub conj(c_hard))
    # for cross: dressing is deleting c_div, where the coefficients are written.
    # The scale includes the table's own terms, since hard cancels O(x^2) to x^4.
    omega = np.geomspace(1e-8, 1e7, 3001) / tau
    rows = _gram_rows(omega, tau, None) * omega
    coeffs = [dipole_coefficients(float(om), tau) for om in omega]
    for name, weights in VARIANTS.items():
        got = np.asarray(weights) @ rows
        table_scale = np.abs(np.asarray(weights)[:, None] * rows).sum(axis=0)
        pieces = _PIECES[name]
        for k, c in enumerate(coeffs):
            if name == "cross":
                want = 2.0 * (c[1] * c[2].conjugate()).real
            else:
                want = abs(sum(c[p] for p in pieces)) ** 2
            scale = max(table_scale[k], sum(abs(c[p]) ** 2 for p in pieces))
            assert abs(got[k] - want) <= 1e-14 * scale, (name, omega[k] * tau)


def test_gamma_rejects_unknown_variant():
    g = InterferometerGeometry(0.2, 3.0)
    with pytest.raises(ValueError, match="nope"):
        gamma(g, CutoffSet(omega_uv=15.0), "nope")


def test_variants_match_independent_closed_forms_at_wide_band():
    # Omega tau = 1e5 and 1e9, lambda tau = 1e-4: a (sub, hard) basis would build
    # the dressed value by cancelling terms of order 1e10 and miss it by ~2e-7;
    # at 1e9 the period panels alone would need ~6.4e8 panels
    tau, lt = 100.0, 1e-4
    g = InterferometerGeometry(10.0, tau)
    v = g.v
    v12 = math.sqrt(1.0 - (1.0 - v * v) ** 2)
    ang = 8.0 * math.pi * (math.atanh(v12) / v12 - 1.0)
    pref = E2_ELECTRON / (4.0 * (2.0 * math.pi) ** 3) * ang
    for wt in (1e5, 1e9):
        rep = decoherence_report(g, CutoffSet(omega_uv=wt / tau, lambda_ir=lt / tau))
        ci_w, ci_l = sici(wt)[1], sici(lt)[1]
        freq_dressed = 8.0 * (EULER_GAMMA + math.log(wt) - ci_w)
        freq_sub = 2.0 * wt * wt
        freq = {
            "dressed": freq_dressed,
            "sub": freq_sub,
            "hard": freq_dressed + freq_sub - 8.0 * (1.0 - math.cos(wt)),
            "full": 5.0 * math.log(wt / lt) - 4.0 * (ci_w - ci_l),
        }
        assert rep.converged, wt
        for name, f in freq.items():
            got = getattr(rep, f"gamma_{name}")
            assert got == pytest.approx(pref * f, rel=1e-10, abs=0), (wt, name)


def test_one_angular_and_one_frequency_pass_per_report(pass_counts):
    g = InterferometerGeometry(0.2, 3.0)
    decoherence_report(g, CutoffSet(omega_uv=15.0, lambda_ir=1e-4), FAST)
    assert pass_counts == {"angular_integral": 1, "freq_integrate": 0, "freq_integrate_rows": 1}


def test_shared_passes_keep_each_request_list_apart():
    # one dict, one (tau, cut, spec), request lists that differ in weights and in lo
    g = InterferometerGeometry(0.6, 3.0)
    cut = CutoffSet(omega_uv=15.0, lambda_ir=1e-4)
    lists = [
        [(VARIANTS["dressed"], 0.0)],
        [(VARIANTS["sub"], 0.0), (VARIANTS["hard"], 0.0)],
        [(VARIANTS["full"], 1e-4), (VARIANTS["full"], 1e-3)],
        [(VARIANTS["full"], 1e-4), (VARIANTS["dressed"], 0.0)],
    ]
    passes = {}
    for _ in range(2):
        for requests in lists:
            shared = decoherence._gammas(g, cut, FAST, E2_ELECTRON, requests, passes)
            fresh = decoherence._gammas(g, cut, FAST, E2_ELECTRON, requests)
            assert shared == fresh, requests
    assert len(passes) == 1 + len(lists)


def test_one_angular_and_one_frequency_pass_per_divergence_fit(pass_counts):
    g = InterferometerGeometry(0.2, 3.0)
    cut = CutoffSet(omega_uv=15.0, lambda_ir=1e-4)
    for variant in ("full", "dressed"):
        divergence_coefficient(g, cut, FAST, variant=variant)
    assert pass_counts == {"angular_integral": 2, "freq_integrate": 0, "freq_integrate_rows": 2}


def test_full_requires_ir_cutoff():
    g = InterferometerGeometry(0.2, 3.0)
    cut = CutoffSet(omega_uv=15.0, lambda_ir=0.0)
    with pytest.raises(IRDivergenceError):
        gamma(g, cut, "full")
    # but a motionless particle decoheres nothing, cutoff or not
    g0 = InterferometerGeometry(0.0, 3.0)
    assert gamma(g0, cut, "full").value == 0.0


def test_full_with_cutoff_and_ln2_increment():
    g = InterferometerGeometry(0.2, 3.0)
    e2 = E2_ELECTRON
    ang = closed_forms(g, CutoffSet(omega_uv=15.0), e2).angular_exact
    b_want = e2 * ang / (32.0 * math.pi**3)
    lam = 1e-5
    g1 = gamma(g, CutoffSet(omega_uv=15.0, lambda_ir=lam), "full").value
    g2 = gamma(g, CutoffSet(omega_uv=15.0, lambda_ir=lam / 2.0), "full").value
    assert g2 - g1 == pytest.approx(b_want * math.log(2.0), rel=1e-6, abs=0)


def test_divergence_fit_full():
    g = InterferometerGeometry(0.2, 3.0)
    cut = CutoffSet(omega_uv=15.0, lambda_ir=1e-4)
    fit = divergence_coefficient(g, cut, variant="full")
    e2 = E2_ELECTRON
    cf = closed_forms(g, cut, e2)
    want = e2 * cf.angular_exact / (32.0 * math.pi**3)
    assert cf.ir_slope == want
    assert fit.ok
    assert fit.coefficient == pytest.approx(want, rel=1e-3, abs=0)


def test_divergence_fit_dressed_is_flat():
    g = InterferometerGeometry(0.2, 3.0)
    cut = CutoffSet(omega_uv=15.0, lambda_ir=1e-4)
    fit = divergence_coefficient(g, cut, variant="dressed")
    bound = 1e-4 * E2_ELECTRON * g.v**2
    assert abs(fit.coefficient) <= bound
    with pytest.raises(ValueError):
        divergence_coefficient(g, CutoffSet(omega_uv=15.0), variant="full")
    with pytest.raises(ValueError):
        divergence_coefficient(g, cut, variant="nope")


def test_finite_temperature_monotone_and_zero_limit():
    g = InterferometerGeometry(0.2, 3.0)
    vals = []
    for beta in (5.0, 50.0, 500.0):
        vals.append(gamma(g, CutoffSet(omega_uv=15.0, beta=beta), "dressed").value)
    assert vals[0] >= vals[1] >= vals[2]
    cold = gamma(g, CutoffSet(omega_uv=15.0, beta=1e7), "dressed").value
    zero = gamma(g, CutoffSet(omega_uv=15.0), "dressed").value
    assert cold == pytest.approx(zero, rel=1e-6, abs=0)
    assert vals[0] > zero


def test_nonnegativity_random_configurations():
    rng = np.random.default_rng(19)
    for _ in range(60):
        tau = float(10.0 ** rng.uniform(-1, 2))
        l = float(rng.uniform(0.0, 0.9)) * tau
        uv = float(10.0 ** rng.uniform(-1, 2))
        g = InterferometerGeometry(l, tau)
        cut = CutoffSet(omega_uv=uv)
        for variant in ("dressed", "sub", "hard"):
            assert gamma(g, cut, variant, FAST).value >= -1e-15


def test_report_assembly():
    g = InterferometerGeometry(0.2, 3.0)
    cut = CutoffSet(omega_uv=15.0, lambda_ir=1e-4)
    rep = decoherence_report(g, cut)
    assert rep.gamma_full is not None and rep.gamma_full > 0
    assert set(rep.errors) == {
        "gamma_full",
        "gamma_dressed",
        "gamma_sub",
        "gamma_hard",
    }
    assert rep.converged
    rep0 = decoherence_report(g, CutoffSet(omega_uv=15.0))
    assert rep0.gamma_full is None


def test_report_rejects_negative_values():
    g = InterferometerGeometry(0.2, 3.0)
    cf = closed_forms(g, CutoffSet(omega_uv=15.0))
    with pytest.raises(ValueError):
        DecoherenceReport(
            gamma_full=None,
            gamma_dressed=-1.0,
            gamma_sub=0.0,
            gamma_hard=0.0,
            closed=cf,
        )


def test_kernel_route_matches_scalar_route():
    # the production frequency x angular factorization must agree with a
    # direct double integral of the transverse kernel of the dressed dipole
    # current difference, built vector by vector
    from softdeco import delta_current_parts
    from softdeco.numerics import freq_integrate, sphere_integrate

    g = InterferometerGeometry(0.2, 1.0)
    cut = CutoffSet(omega_uv=2.0)
    spec = QuadratureSpec(n_theta=8, n_phi=16)

    def outer(nx, ny, nz):
        out = np.empty_like(nx)
        for i in range(len(nx)):
            n = (nx[i], ny[i], nz[i])

            def inner(omega):
                vals = np.empty_like(omega)
                for k, om in enumerate(omega):
                    q = PhotonMomentum(float(om), n)
                    parts = delta_current_parts(g, q)
                    dj = parts.j_sub + parts.j_hard
                    # measure: Int d^3q/(2 omega (2 pi)^3) -> one omega per
                    # unit solid angle after the 1/4 prefactor
                    vals[k] = om * gamma_kernel(dj, q)
                return vals

            out[i] = freq_integrate(inner, 0.0, cut.omega_uv, g.tau, spec).value
        return out

    direct = sphere_integrate(outer, spec).value * E2_ELECTRON / (
        4.0 * (2.0 * math.pi) ** 3
    )
    engine = gamma(g, cut, "dressed", spec).value
    assert direct == pytest.approx(engine, rel=1e-6, abs=0)
