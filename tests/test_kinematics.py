import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from softdeco import (
    FourVector,
    InterferometerGeometry,
    PhotonMomentum,
    Worldline,
    WorldlineSegment,
    build_interferometer,
    four_velocity,
)

v3_strategy = st.lists(
    st.floats(-0.57, 0.57, allow_nan=False), min_size=3, max_size=3
)


def test_signature():
    a = FourVector(1.0, 2.0, 3.0, 4.0)
    assert a.dot(a) == 1.0 - 4.0 - 9.0 - 16.0
    b = FourVector(1.0, 0.0, 0.0, 0.0)
    assert a.dot(b) == 1.0


def test_dot_no_conjugation():
    a = FourVector(1j, 0.0, 0.0, 0.0)
    assert a.dot(a) == -1.0  # (1j)^2, not |1j|^2


def test_four_velocity_example():
    u = four_velocity([0.6, 0.0, 0.0])
    assert u == (1.25, 0.75, 0.0, 0.0)


def test_four_velocity_rejects_superluminal():
    with pytest.raises(ValueError):
        four_velocity([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        four_velocity([0.8, 0.8, 0.0])


@given(v3_strategy)
def test_four_velocity_unit_norm(v3):
    u = four_velocity(v3)
    assert u.dot(u) == pytest.approx(1.0, rel=0, abs=1e-12)
    assert u.t >= 1.0


def test_photon_momentum_null_and_validation():
    q = PhotonMomentum(2.0, [0.0, 0.0, 1.0])
    qv = q.four_vector()
    assert qv.dot(qv) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        PhotonMomentum(-1.0, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        PhotonMomentum(1.0, [0.0, 0.0, 2.0])


@pytest.mark.parametrize(
    "n_hat, count",
    [
        ([0.6, 0.8], "2"),
        ([0.6, 0.0, 0.0, 0.8], "4"),
        ([1.0], "1"),
        ([[0.0, 0.6, 0.8]], r"shape \(1, 3\)"),
    ],
)
def test_photon_momentum_needs_three_components(n_hat, count):
    # each of these has |n| = 1, so only the count can reject it
    with pytest.raises(ValueError, match=f"3 components, got {count}"):
        PhotonMomentum(1.0, n_hat)


def test_segment_validation():
    u = four_velocity([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        WorldlineSegment(FourVector.zero(), u, 0.0)
    with pytest.raises(ValueError):
        WorldlineSegment(FourVector.zero(), FourVector(1.0, 0.5, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        WorldlineSegment(FourVector.zero(), -u, 1.0)


def test_worldline_continuity():
    u = four_velocity([0.0, 0.0, 0.0])
    s1 = WorldlineSegment(FourVector.zero(), u, 1.0)
    s2_ok = WorldlineSegment(s1.end_event, u, 1.0)
    Worldline([s1, s2_ok])
    s2_bad = WorldlineSegment(FourVector(5.0, 0.0, 0.0, 0.0), u, 1.0)
    with pytest.raises(ValueError):
        Worldline([s1, s2_bad])
    with pytest.raises(ValueError):
        Worldline([])


def test_worldline_measures_the_gap_between_distinct_events():
    # a segment that starts at the previous end event itself skips the gap
    # arithmetic; an equal or nearby copy of that event is still measured
    u = four_velocity([0.0, 0.0, 0.0])
    s1 = WorldlineSegment(FourVector.zero(), u, 0.5)
    end = s1.end_event
    same = WorldlineSegment(FourVector(*end), u, 1.0)
    assert same.start_event == end and same.start_event is not end
    Worldline([s1, same])
    # |end| = 0.5, so the tolerance is the bare 1e-12
    for component in ("t", "x", "y", "z"):
        off = end._replace(**{component: getattr(end, component) + 2e-12})
        with pytest.raises(ValueError, match="not continuous"):
            Worldline([s1, WorldlineSegment(off, u, 1.0)])


def test_worldline_kinks_join_the_segments():
    u1, u2, u3 = (four_velocity(v) for v in ([0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3]))
    s1 = WorldlineSegment(FourVector(0.1, 0.2, -0.3, 0.4), u1, 2.0)
    s2 = WorldlineSegment(s1.end_event, u2, 3.0)
    s3 = WorldlineSegment(FourVector(*s2.end_event), u3, 0.5)
    w = Worldline([s1, s2, s3])
    kinks = w.kinks()
    assert kinks == ((s2.start_event, u1, u2), (s3.start_event, u2, u3))
    for (event, before, after), a, b in zip(kinks, (s1, s2), (s2, s3)):
        assert event is b.start_event and before is a.velocity and after is b.velocity
    assert w.kinks() is kinks
    assert Worldline([s1]).kinks() == ()
    # the stored kinks take no part in equality, hashing or pickling
    fresh = Worldline([s1, s2, s3])
    assert fresh == w and hash(fresh) == hash(w)
    back = pickle.loads(pickle.dumps(w))
    assert back == w and back.kinks() == kinks


def test_worldline_accessors():
    u1 = four_velocity([0.3, 0.0, 0.0])
    s1 = WorldlineSegment(FourVector.zero(), u1, 2.0)
    u2 = four_velocity([0.0, 0.3, 0.0])
    s2 = WorldlineSegment(s1.end_event, u2, 3.0)
    w = Worldline([s1, s2])
    assert w.initial_velocity is u1
    assert w.final_velocity is u2
    kinks = w.kinks()
    assert len(kinks) == 1
    event, before, after = kinks[0]
    assert before is u1 and after is u2
    assert event is s1.end_event is s2.start_event
    assert w.kinks() is kinks  # built once, on the first call


def test_geometry_derived_fields():
    g = InterferometerGeometry(3.0, 5.0)
    assert g.v == 0.6
    assert g.gamma == 1.25
    assert g.X_L.y == 3.0 and g.X_L.t == 5.0
    assert g.X_R.x == 3.0 and g.X_R.y == 0.0
    assert g.detector.t == 10.0 and g.detector.x == 3.0 and g.detector.y == 3.0
    assert g.Xdot_1.y == g.gamma * g.v
    assert g.Xdot_2.x == g.gamma * g.v


def test_geometry_rejects_superluminal_and_bad_tau():
    with pytest.raises(ValueError):
        InterferometerGeometry(5.0, 5.0)
    with pytest.raises(ValueError):
        InterferometerGeometry(1.0, 0.0)
    # a degenerate zero-side square is allowed and has v = 0
    g = InterferometerGeometry(0.0, 1.0)
    assert g.v == 0.0


def test_build_interferometer_branches():
    g, wl_L, wl_R = build_interferometer(3.0, 5.0)
    for wl in (wl_L, wl_R):
        assert wl.start_event.norm() == 0.0
        assert (wl.end_event - g.detector).norm() < 1e-12
        assert sum(seg.duration for seg in wl.segments) == 2 * g.tau / g.gamma
    # L goes through X_L, R through X_R
    assert (wl_L.segments[1].start_event - g.X_L).norm() < 1e-12
    assert (wl_R.segments[1].start_event - g.X_R).norm() < 1e-12
    # opposite velocity ordering
    assert wl_L.initial_velocity is g.Xdot_1
    assert wl_R.initial_velocity is g.Xdot_2


# ---------------------------------------------------------------------------
# non-finite inputs and plain-float components


@pytest.mark.parametrize(
    "omega, n_hat",
    [
        (math.nan, [0.0, 0.0, 1.0]),
        (math.inf, [0.0, 0.0, 1.0]),
        (1.0, [math.nan, 0.0, 1.0]),
        (1.0, [0.0, math.inf, 0.0]),
    ],
)
def test_photon_momentum_rejects_nonfinite(omega, n_hat):
    with pytest.raises(ValueError):
        PhotonMomentum(omega, n_hat)


@pytest.mark.parametrize(
    "v3", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf]]
)
def test_four_velocity_rejects_nonfinite(v3):
    with pytest.raises(ValueError):
        four_velocity(v3)


@pytest.mark.parametrize(
    "l, tau", [(math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0), (0.5, math.inf)]
)
def test_geometry_rejects_nonfinite(l, tau):
    with pytest.raises(ValueError):
        InterferometerGeometry(l, tau)


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_segment_rejects_nonfinite_duration(duration):
    with pytest.raises(ValueError):
        WorldlineSegment(FourVector.zero(), four_velocity([0.1, 0.0, 0.0]), duration)


@pytest.mark.parametrize("component", ["t", "x", "y", "z"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_segment_rejects_nonfinite_start_event(component, bad):
    # the constructor and _make agree: neither builds such a segment
    u = four_velocity([0.1, 0.0, 0.0])
    start = FourVector.zero()._replace(**{component: bad})
    with pytest.raises(ValueError, match="start event"):
        WorldlineSegment(start, u, 1.0)
    fields = (start, u, 1.0, start + 1.0 * u)
    with pytest.raises(ValueError):
        WorldlineSegment._make(fields)


def test_kinematic_components_are_python_floats():
    # the current kernels run on plain scalars only if their inputs do:
    # a numpy float64 component would turn every later operation into numpy
    # scalar arithmetic
    seg = WorldlineSegment(
        FourVector(0.1, -0.2, 0.3, 0.4), four_velocity(np.array([0.2, -0.1, 0.3])), 1.5
    )
    g = InterferometerGeometry(np.float64(0.3), 1.0)
    vecs = [
        four_velocity([0.1, -0.2, 0.3]),
        seg.velocity,
        seg.end_event,
        PhotonMomentum(np.float64(2.0), np.array([0.0, 0.6, 0.8])).four_vector(),
        g.Xdot_1,
        g.Xdot_2,
    ]
    for vec in vecs:
        assert [type(c) for c in (vec.t, vec.x, vec.y, vec.z)] == [float] * 4


def test_geometry_velocities_equal_four_velocity():
    # Xdot_1 and Xdot_2 are built directly; |v|^2 with two zero components
    # is v*v in any summation order, so they equal four_velocity exactly
    for l, tau in ((0.3, 1.0), (1.7, 2.0), (0.123456789, 0.987654321), (0.0, 1.0)):
        g = InterferometerGeometry(l, tau)
        assert g.Xdot_1 == four_velocity([0.0, g.v, 0.0])
        assert g.Xdot_2 == four_velocity([g.v, 0.0, 0.0])


# ---------------------------------------------------------------------------
# tuple-backed values


def test_fourvector_numpy_scalars_and_immutability():
    fv = FourVector(1.0, -2.0, 0.5, 3.0)
    # without __array_ufunc__ = None, a numpy scalar on the left spreads over
    # the tuple and returns an ndarray
    for got, want in (
        (np.float64(2.0) * fv, (2.0, -4.0, 1.0, 6.0)),
        (fv * np.float64(2.0), (2.0, -4.0, 1.0, 6.0)),
        (np.complex128(1j) * fv, (1j, -2j, 0.5j, 3j)),
    ):
        assert type(got) is FourVector
        assert got == want
    with pytest.raises(AttributeError):
        fv.t = 5.0


def test_numpy_norm_forms_bit_identical():
    # |v|^2 and |n| are numpy dot products, whose fused multiply-adds a plain
    # Python sum of squares does not reproduce in the last bit
    rng = np.random.default_rng(17)
    for v3 in rng.uniform(-0.57, 0.57, size=(10000, 3)):
        a = np.asarray(v3)
        gamma = 1.0 / math.sqrt(1.0 - float(a @ a))
        assert four_velocity(v3) == (gamma, *(gamma * c for c in a.tolist()))
    m = rng.normal(size=(10000, 3))
    ns = m / np.linalg.norm(m, axis=1, keepdims=True)
    ns *= 1.0 + rng.uniform(-1e-10, 1e-10, size=(10000, 1))
    for n in ns:
        assert PhotonMomentum(2.0, n).n_hat == tuple((n / np.linalg.norm(n)).tolist())


def test_pickle_and_copy_keep_stored_values():
    # a second normalisation moves the last bit of about a third of all n_hat
    rng = np.random.default_rng(3)
    for n in rng.normal(size=(200, 3)):
        q = PhotonMomentum(1.5, n / np.linalg.norm(n))
        assert pickle.loads(pickle.dumps(q)) == q
        assert copy.deepcopy(q) == q
    seg = WorldlineSegment(FourVector(0.1, 0.2, 0.3, 0.4), four_velocity([0.3, -0.2, 0.1]), 1.7)
    back = pickle.loads(pickle.dumps(seg))
    assert type(back) is WorldlineSegment and back == seg


def test_replace_runs_the_checks():
    q = PhotonMomentum(1.0, [0.0, 0.6, 0.8])
    assert q._replace(omega=2.0) == (2.0, q.n_hat)
    with pytest.raises(ValueError):
        q._replace(n_hat=(0.0, 0.0, 5.0))
    seg = WorldlineSegment(FourVector.zero(), four_velocity([0.3, 0.0, 0.0]), 1.0)
    longer = seg._replace(duration=2.0)
    assert longer == WorldlineSegment(seg.start_event, seg.velocity, 2.0)
    assert longer.end_event == seg.start_event + 2.0 * seg.velocity
    with pytest.raises(ValueError):
        seg._replace(duration=-1.0)
    with pytest.raises(TypeError):
        seg._replace(end_event=FourVector.zero())
    # _make goes through the constructors too
    made = PhotonMomentum._make([1.0, (0.0, 0.6, 0.8)])
    assert type(made) is PhotonMomentum and made == PhotonMomentum(1.0, (0.0, 0.6, 0.8))
    for fields in ([-1.0, (0.0, 0.0, 1.0)], [1.0, (0.0, 0.0, 5.0)]):
        with pytest.raises(ValueError):
            PhotonMomentum._make(fields)
    assert WorldlineSegment._make(tuple(seg)) == seg
    start, velocity, duration, end = seg
    for fields in ([start, velocity, -1.0, end], [start, velocity, duration, FourVector.zero()]):
        with pytest.raises(ValueError):
            WorldlineSegment._make(fields)


@pytest.mark.parametrize(
    "gap, ok",
    [(1e-12, True), (0.9e-6, True), (1.1e-6, False), (1.0, False)],
)
def test_worldline_continuity_scales_with_the_event(gap, ok):
    # the tolerance is 1e-12 * max(1, |start|), here 1e-6
    u = four_velocity([0.0, 0.0, 0.0])
    s1 = WorldlineSegment(FourVector(1e6, 0.0, 0.0, 0.0), u, 1.0)
    end = s1.end_event
    s2 = WorldlineSegment(FourVector(end.t, end.x + gap, end.y, end.z), u, 1.0)
    if ok:
        Worldline([s1, s2])
    else:
        with pytest.raises(ValueError):
            Worldline([s1, s2])


@pytest.mark.parametrize("component", ["t", "x", "y", "z"])
def test_worldline_rejects_nan_at_a_junction(component):
    u = four_velocity([0.0, 0.0, 0.0])
    s1 = WorldlineSegment(FourVector.zero(), u, 1.0)
    start = s1.end_event._replace(**{component: math.nan})
    with pytest.raises(ValueError, match="start event"):
        WorldlineSegment(start, u, 1.0)
    # a segment stored without the check, as unpickling builds one, still
    # fails the junction test
    s2 = tuple.__new__(WorldlineSegment, (start, u, 1.0, start + 1.0 * u))
    with pytest.raises(ValueError, match="not continuous"):
        Worldline([s1, s2])
