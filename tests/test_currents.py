import cmath
import itertools
import math

import numpy as np
import pytest

from softdeco import (
    FourVector,
    InterferometerGeometry,
    PhotonMomentum,
    SoftCurrentTriple,
    Worldline,
    WorldlineSegment,
    current_fourier,
    delta_current,
    delta_current_parts,
    dipole_coefficients,
    four_velocity,
    soft_decompose,
    soft_factors,
)
from softdeco.currents import chain_currents


def _rng():
    return np.random.default_rng(7)


def random_worldline(rng, n_seg=None):
    if n_seg is None:
        n_seg = int(rng.integers(2, 5))
    event = FourVector(*rng.uniform(-1.0, 1.0, size=4))
    segments = []
    for _ in range(n_seg):
        vel = four_velocity(rng.uniform(-0.5, 0.5, size=3))
        segments.append(WorldlineSegment(event, vel, float(rng.uniform(0.1, 2.0))))
        event = segments[-1].end_event
    return Worldline(segments)


def random_momentum(rng, omega=None):
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    if omega is None:
        omega = float(10.0 ** rng.uniform(-2, 1))
    return PhotonMomentum(omega, n)


def test_unaccelerated_particle_radiates_nothing():
    u = four_velocity([0.3, 0.2, 0.0])
    w = Worldline([WorldlineSegment(FourVector.zero(), u, 5.0)])
    j = current_fourier(w, PhotonMomentum(1.0, [0.0, 0.0, 1.0]))
    assert j.norm() == 0.0


def test_single_kink_against_hand_formula():
    # rest -> speed v along x, kink at the origin, photon along z:
    # j = i e [V2/(q.V2) - V1/(q.V1)] = (0, i e v / omega, 0, 0)
    v, omega, charge = 0.3, 2.0, 1.0
    u1 = four_velocity([0.0, 0.0, 0.0])
    u2 = four_velocity([v, 0.0, 0.0])
    s1 = WorldlineSegment(-1.0 * u1, u1, 1.0)
    s2 = WorldlineSegment(FourVector.zero(), u2, 1.0)
    w = Worldline([s1, s2])
    j = current_fourier(w, PhotonMomentum(omega, [0.0, 0.0, 1.0]), charge)
    assert j.t == pytest.approx(0.0, abs=1e-15)
    assert j.x == pytest.approx(1j * charge * v / omega, abs=1e-15)
    assert abs(j.y) < 1e-15 and abs(j.z) < 1e-15


def test_charge_linearity():
    rng = _rng()
    w = random_worldline(rng)
    q = random_momentum(rng)
    j1 = current_fourier(w, q, charge=1.0)
    j3 = current_fourier(w, q, charge=3.0)
    assert (j3 - 3.0 * j1).norm() < 1e-14 * j1.norm()


def test_conservation_random():
    rng = _rng()
    for _ in range(100):
        w = random_worldline(rng)
        q = random_momentum(rng)
        qv = q.four_vector()
        j = current_fourier(w, q)
        triple = soft_decompose(w, q)
        scale = max(j.norm(), triple.j_div.norm(), triple.j_sub.norm())
        for piece in (j, triple.j_div, triple.j_sub, triple.j_hard):
            assert abs(qv.dot(piece)) <= 1e-12 * scale


def test_decomposition_sums_to_full():
    rng = _rng()
    for _ in range(50):
        w = random_worldline(rng)
        q = random_momentum(rng)
        j = current_fourier(w, q)
        total = soft_decompose(w, q).total()
        assert (total - j).norm() <= 1e-11 * max(1.0, j.norm())


def test_soft_scaling_exponents():
    rng = _rng()
    w = random_worldline(rng)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    omegas = np.geomspace(1e-8, 1e-4, 9)
    mags = {"div": [], "sub": [], "hard": []}
    for om in omegas:
        t = soft_decompose(w, PhotonMomentum(float(om), n))
        mags["div"].append(t.j_div.norm())
        mags["sub"].append(t.j_sub.norm())
        mags["hard"].append(t.j_hard.norm())
    for name, want in (("div", -1.0), ("sub", 0.0), ("hard", 1.0)):
        slope = np.polyfit(np.log(omegas), np.log(mags[name]), 1)[0]
        assert slope == pytest.approx(want, abs=0.01), name


def test_endpoint_locality_of_soft_pieces():
    # div and sub depend only on endpoint data: splitting an interior
    # segment in two changes neither of them
    rng = _rng()
    w = random_worldline(rng, n_seg=3)
    seg = w.segments[1]
    half = seg.duration / 2.0
    s1 = WorldlineSegment(seg.start_event, seg.velocity, half)
    s2 = WorldlineSegment(s1.end_event, seg.velocity, half)
    w2 = Worldline([w.segments[0], s1, s2, w.segments[2]])
    q = random_momentum(rng)
    a, b = soft_decompose(w, q), soft_decompose(w2, q)
    assert (a.j_div - b.j_div).norm() < 1e-13 * a.j_div.norm()
    assert (a.j_sub - b.j_sub).norm() < 1e-13 * max(1.0, a.j_sub.norm())


def test_kink_current_against_smoothed_quadrature():
    """Independent oracle: smooth the kink over a window delta_s and evaluate
    i e Int ds exp(i q.X(s)) d/ds [V/(q.V)] by brute-force quadrature."""
    v, omega = 0.4, 0.01
    u1 = four_velocity([0.0, 0.0, 0.0])
    u2 = four_velocity([v, 0.0, 0.0])
    s1 = WorldlineSegment(-1.0 * u1, u1, 1.0)
    s2 = WorldlineSegment(FourVector.zero(), u2, 1.0)
    w = Worldline([s1, s2])
    q = PhotonMomentum(omega, [0.0, 0.0, 1.0])
    j = current_fourier(w, q)

    delta_s = 1e-4
    s = np.linspace(-delta_s, delta_s, 4001)
    t = np.clip((s + 0.5 * delta_s) / delta_s, 0.0, 1.0)
    blend = t * t * (3.0 - 2.0 * t)  # compact-support smoothstep
    vx = v * blend
    gam = 1.0 / np.sqrt(1.0 - vx**2)
    V = np.stack([gam, gam * vx, np.zeros_like(s), np.zeros_like(s)], axis=1)
    # X(s) by cumulative integration, anchored so X(0) ~ kink event (origin)
    X = np.concatenate(
        [
            np.zeros((1, 4)),
            np.cumsum(0.5 * (V[1:] + V[:-1]) * np.diff(s)[:, None], axis=0),
        ]
    )
    X -= X[len(s) // 2]
    qv = np.array([omega, 0.0, 0.0, omega])
    eta = np.array([1.0, -1.0, -1.0, -1.0])
    qdotV = V @ (eta * qv)
    qdotX = X @ (eta * qv)
    F = V / qdotV[:, None]
    dF = np.gradient(F, s, axis=0)
    phase = np.exp(1j * qdotX)
    oracle = 1j * np.trapezoid(phase[:, None] * dF, s, axis=0)
    got = np.array(j)
    assert np.max(np.abs(got - oracle)) <= 1e-6 * np.max(np.abs(got))


def test_soft_factors_mass_independence():
    # S0 and S1 built from p and from m*p agree: the mass cancels
    rng = _rng()
    q = random_momentum(rng)
    x = FourVector(*rng.uniform(-1, 1, size=4))
    p = four_velocity(rng.uniform(-0.5, 0.5, size=3))
    s0a, s1a = soft_factors(q, x, p)
    s0b, s1b = soft_factors(q, x, 7.3 * p)
    assert (s0a - s0b).norm() < 1e-13 * s0a.norm()
    assert (s1a - s1b).norm() < 1e-13 * max(1.0, s1a.norm())


def test_soft_factors_reject_orthogonal_momentum():
    q = PhotonMomentum(1.0, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        soft_factors(q, FourVector.zero(), FourVector(0.0, 1.0, 0.0, 0.0))


def test_boundary_soft_theorem_residual_slope():
    # i conj(j(q)) = [Delta S0 + Delta S1](q) up to the hard remainder O(omega)
    rng = _rng()
    for _ in range(5):
        w = random_worldline(rng, n_seg=2)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
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
        assert slope == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# two-path current difference


def test_dipole_coefficient_identities():
    for wt in (1e-6, 0.3, 1.7, 9.0):
        c_div, c_sub, c_hard = dipole_coefficients(wt, 1.0)
        total = c_div + c_sub + c_hard
        want = 1j * (1.0 - 2.0 * cmath.exp(1j * wt))
        assert total == pytest.approx(want, abs=1e-14)
        assert abs(total) ** 2 == pytest.approx(5.0 - 4.0 * math.cos(wt), rel=1e-12, abs=0)
        # 8 (1 - cos wt) written as 16 sin^2(wt/2) to stay accurate at small wt
        assert abs(c_sub + c_hard) ** 2 == pytest.approx(
            16.0 * math.sin(0.5 * wt) ** 2, rel=1e-10, abs=1e-25
        )


def test_dipole_hard_coefficient_small_argument():
    # |c_hard|^2 ~ (w tau)^4, so the hard piece is quadratically suppressed
    wts = np.geomspace(1e-6, 1e-3, 7)
    mags = [abs(dipole_coefficients(wt, 1.0)[2]) for wt in wts]
    slope = np.polyfit(np.log(wts), np.log(mags), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.01)


def test_delta_current_dipole_vs_parts_total():
    g = InterferometerGeometry(0.5, 2.0)
    for omega in (0.01, 0.7, 3.0):
        q = PhotonMomentum(omega, [0.0, 0.0, 1.0])
        dj = delta_current(g, q, mode="dipole")
        total = delta_current_parts(g, q).total()
        assert (dj - total).norm() <= 1e-12 * dj.norm()


def test_delta_current_exact_approaches_dipole_at_long_wavelength():
    g = InterferometerGeometry(0.5, 2.0)
    # spatial phases q.x ~ omega*l vanish relative to omega*tau as the
    # direction-dependent part becomes negligible; compare at small omega*l
    q = PhotonMomentum(1e-5, [0.0, 0.0, 1.0])
    exact = delta_current(g, q, mode="exact")
    dipole = delta_current(g, q, mode="dipole")
    assert (exact - dipole).norm() <= 1e-4 * dipole.norm()


def test_delta_current_detector_flag():
    g = InterferometerGeometry(0.5, 2.0)
    q = PhotonMomentum(0.7, [0.0, 1.0, 0.0])
    base = delta_current(g, q, include_detector=False)
    with_det = delta_current(g, q, include_detector=True)
    assert (base - with_det).norm() > 1e-3 * base.norm()
    with pytest.raises(ValueError):
        delta_current(g, q, mode="bogus")


def test_delta_current_conservation():
    g = InterferometerGeometry(0.5, 2.0)
    rng = _rng()
    for _ in range(50):
        q = random_momentum(rng)
        qv = q.four_vector()
        for mode in ("exact", "dipole"):
            dj = delta_current(g, q, mode=mode)
            assert abs(qv.dot(dj)) <= 1e-12 * dj.norm()


# ---------------------------------------------------------------------------
# the scalar kernels against the FourVector route they replaced
#
# The kernels accumulate plain floats and complex numbers in the order that
# FourVector arithmetic and numpy's complex expm1 use, so the reference below
# must agree bit for bit, not just to round-off.


def _ref_bracket(v_after, v_before, qv):
    return v_after / qv.dot(v_after) - v_before / qv.dot(v_before)


def _ref_current(w, q, charge):
    qv = q.four_vector()
    total = FourVector.zero()
    for event, v_before, v_after in w.kinks():
        phase = cmath.exp(1j * qv.dot(event))
        total = total + phase * _ref_bracket(v_after, v_before, qv)
    return (1j * charge) * total


def _ref_soft(w, q, charge):
    qv = q.four_vector()

    def sub(event, vel):
        return event - (qv.dot(event) / qv.dot(vel)) * vel

    j_div = (1j * charge) * _ref_bracket(w.final_velocity, w.initial_velocity, qv)
    j_sub = charge * (sub(w.end_event, w.final_velocity) - sub(w.start_event, w.initial_velocity))
    acc = FourVector.zero()
    for event, v_before, v_after in w.kinks():
        phase_m1 = complex(np.expm1(1j * qv.dot(event)))
        acc = acc + phase_m1 * _ref_bracket(v_after, v_before, qv)
    return j_div, j_sub, (1j * charge) * acc - j_sub


def _ref_delta(g, q, mode, charge, include_detector=False):
    qv = q.four_vector()
    B = _ref_bracket(g.Xdot_1, g.Xdot_2, qv)
    if mode == "exact":
        phases = (
            cmath.exp(1j * qv.dot(g.X_i))
            - cmath.exp(1j * qv.dot(g.X_L))
            - cmath.exp(1j * qv.dot(g.X_R))
        )
        if include_detector:
            phases += cmath.exp(1j * qv.dot(g.detector))
    else:
        phases = 1.0 - 2.0 * cmath.exp(1j * q.omega * g.tau)
        if include_detector:
            phases += cmath.exp(2j * q.omega * g.tau)
    return (1j * charge * phases) * B


def _ref_parts(g, q, charge):
    B = _ref_bracket(g.Xdot_1, g.Xdot_2, q.four_vector())
    wt = q.omega * g.tau
    c_hard = 2j * (-complex(np.expm1(1j * wt)) + 1j * wt)
    return (charge * -1j) * B, (charge * (2.0 * wt)) * B, (charge * c_hard) * B


def _same(got, want):
    """Same type and the same bits in every component, signed zeros included."""
    return type(got) is FourVector and list(map(repr, got)) == list(map(repr, want))


def test_scalar_kernels_bit_identical_to_fourvector_route():
    rng = np.random.default_rng(2024)
    # 2 to 4 segments as random_worldline draws them, and the lengths it never
    # draws: one segment, whose last q.V is its first, and five or six
    for n_seg in [None] * 200 + [1, 5, 6] * 50:
        w = random_worldline(rng, n_seg)
        q = random_momentum(rng, omega=float(10.0 ** rng.uniform(-6, 2)))
        charge = float(rng.uniform(-2.0, 2.0))
        tau = float(rng.uniform(0.5, 50.0))
        g = InterferometerGeometry(float(rng.uniform(0.0, 0.9)) * tau, tau)

        assert _same(current_fourier(w, q, charge), _ref_current(w, q, charge))
        triple = soft_decompose(w, q, charge)
        assert type(triple) is SoftCurrentTriple
        for got, want in zip(triple, _ref_soft(w, q, charge)):
            assert _same(got, want)
        for mode, detector in itertools.product(("exact", "dipole"), (False, True)):
            got = delta_current(g, q, mode, charge, include_detector=detector)
            assert _same(got, _ref_delta(g, q, mode, charge, detector))
        parts = delta_current_parts(g, q, charge)
        assert type(parts) is SoftCurrentTriple
        for got, want in zip(parts, _ref_parts(g, q, charge)):
            assert _same(got, want)


def test_dipole_hard_coefficient_matches_numpy_expm1():
    rng = np.random.default_rng(5)
    wts = np.concatenate([np.geomspace(1e-9, 1e4, 2001), 10.0 ** rng.uniform(-9, 4, 2000)])
    for wt in wts.tolist():
        assert dipole_coefficients(wt, 1.0)[2] == 2j * (-np.expm1(1j * wt) + 1j * wt)


# ---------------------------------------------------------------------------
# the array kernel against the scalar ones


def _chain_arrays(w, m=None):
    """Events and velocities of w, padded to m segments that repeat the last velocity."""
    segs = w.segments
    pad = (m or len(segs)) - len(segs)
    events = [s.start_event for s in segs] + [w.end_event] * (1 + pad)
    velocities = [s.velocity for s in segs] + [segs[-1].velocity] * pad
    return np.array(events), np.array(velocities)


def test_chain_currents_match_scalar_kernels():
    # one call on 1200 chains of 2 to 4 segments, padded to 4; each draw is
    # held to 1e-13 of its own current scale, a bound set before measuring
    rng = np.random.default_rng(1515)
    draws = [(random_worldline(rng), random_momentum(rng)) for _ in range(1200)]
    events, velocities = zip(*(_chain_arrays(w, 4) for w, _ in draws))
    q = np.array([q.components() for _, q in draws])
    got = chain_currents(np.array(events), np.array(velocities), q)
    assert [a.shape for a in got] == [(1200, 4)] * 4
    for i, (w, qm) in enumerate(draws):
        full = current_fourier(w, qm)
        triple = soft_decompose(w, qm)
        scale = max(full.norm(), triple.j_div.norm(), triple.j_sub.norm())
        for arr, want in zip(got, (full, *triple)):
            assert np.abs(arr[i] - np.array(want)).max() <= 1e-13 * scale


def test_chain_currents_padding_keeps_the_bits():
    rng = np.random.default_rng(16)
    for _ in range(200):
        w = random_worldline(rng, n_seg=2)
        q = np.array(random_momentum(rng).components())
        plain = chain_currents(*_chain_arrays(w), q)
        padded = chain_currents(*_chain_arrays(w, 4), q)
        for a, b in zip(plain, padded):
            assert a.tobytes() == b.tobytes()


def test_chain_currents_grid_of_momenta_against_one_chain():
    rng = np.random.default_rng(17)
    w = random_worldline(rng, n_seg=3)
    events, velocities = _chain_arrays(w)
    qs = np.array([random_momentum(rng).components() for _ in range(60)])
    grid = chain_currents(events, velocities, qs.reshape(6, 10, 4))
    assert [a.shape for a in grid] == [(6, 10, 4)] * 4
    for i, q in enumerate(qs):
        for a, b in zip(grid, chain_currents(events, velocities, q)):
            assert a.reshape(60, 4)[i].tobytes() == b.tobytes()


def test_chain_currents_single_segment_and_validation():
    u = four_velocity([0.3, 0.2, 0.0])
    w = Worldline([WorldlineSegment(FourVector(0.5, 0.1, 0.0, 0.0), u, 5.0)])
    q = PhotonMomentum(1.0, [0.0, 0.0, 1.0])
    got = chain_currents(*_chain_arrays(w), np.array(q.components()))
    assert not got.full.any() and not got.j_div.any()
    assert np.abs(got.j_sub).max() <= 1e-15 and np.abs(got.j_hard).max() <= 1e-15
    events, velocities = _chain_arrays(w)
    with pytest.raises(ValueError, match="frequency"):
        chain_currents(events, velocities, np.zeros(4))
    with pytest.raises(ValueError, match="events"):
        chain_currents(events[:1], velocities, np.array(q.components()))
