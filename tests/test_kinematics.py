import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softdeco import (
    FourVector,
    InterferometerGeometry,
    PhotonMomentum,
    Worldline,
    WorldlineSegment,
    boost,
    build_interferometer,
    four_velocity,
    minkowski_dot,
)

v3_strategy = st.lists(
    st.floats(-0.57, 0.57, allow_nan=False), min_size=3, max_size=3
)
component = st.floats(-10.0, 10.0, allow_nan=False)


def test_signature():
    a = FourVector(1.0, 2.0, 3.0, 4.0)
    assert a.dot(a) == 1.0 - 4.0 - 9.0 - 16.0
    b = FourVector(1.0, 0.0, 0.0, 0.0)
    assert minkowski_dot(a, b) == 1.0


def test_dot_no_conjugation():
    a = FourVector(1j, 0.0, 0.0, 0.0)
    assert a.dot(a) == -1.0  # (1j)^2, not |1j|^2


def test_four_velocity_example():
    u = four_velocity([0.6, 0.0, 0.0])
    assert u.t == pytest.approx(1.25)
    assert u.x == pytest.approx(0.75)
    assert u.y == 0.0 and u.z == 0.0


def test_four_velocity_rejects_superluminal():
    with pytest.raises(ValueError):
        four_velocity([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        four_velocity([0.8, 0.8, 0.0])


@given(v3_strategy)
def test_four_velocity_unit_norm(v3):
    u = four_velocity(v3)
    assert u.dot(u) == pytest.approx(1.0, abs=1e-12)
    assert u.t >= 1.0


@given(
    st.tuples(component, component, component, component),
    v3_strategy,
)
@settings(max_examples=200)
def test_boost_preserves_interval(comps, v3):
    a = FourVector(*comps)
    b = boost(a, v3)
    assert b.dot(b) == pytest.approx(a.dot(a), abs=1e-9)


def test_boost_of_rest_velocity():
    rest = FourVector(1.0, 0.0, 0.0, 0.0)
    u = boost(rest, [0.6, 0.0, 0.0])
    want = four_velocity([0.6, 0.0, 0.0])
    assert u.t == pytest.approx(want.t)
    assert u.x == pytest.approx(want.x)


def test_photon_momentum_null_and_validation():
    q = PhotonMomentum(2.0, [0.0, 0.0, 1.0])
    qv = q.four_vector()
    assert qv.dot(qv) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        PhotonMomentum(-1.0, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        PhotonMomentum(1.0, [0.0, 0.0, 2.0])


def test_photon_momentum_from_angles():
    q = PhotonMomentum.from_angles(1.0, math.pi / 2, 0.0)
    assert q.n_hat[0] == pytest.approx(1.0)
    assert abs(q.n_hat[2]) < 1e-12


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


def test_worldline_accessors():
    u1 = four_velocity([0.3, 0.0, 0.0])
    s1 = WorldlineSegment(FourVector.zero(), u1, 2.0)
    u2 = four_velocity([0.0, 0.3, 0.0])
    s2 = WorldlineSegment(s1.end_event, u2, 3.0)
    w = Worldline([s1, s2], s_i=-1.0)
    assert w.s_f == pytest.approx(4.0)
    assert w.initial_velocity is u1
    assert w.final_velocity is u2
    kinks = w.kinks()
    assert len(kinks) == 1
    event, before, after = kinks[0]
    assert before is u1 and after is u2
    assert event.t == pytest.approx(s1.end_event.t)


def test_geometry_derived_fields():
    g = InterferometerGeometry(3.0, 5.0)
    assert g.v == pytest.approx(0.6)
    assert g.gamma == pytest.approx(1.25)
    assert g.X_L.y == 3.0 and g.X_L.t == 5.0
    assert g.X_R.x == 3.0 and g.X_R.y == 0.0
    assert g.detector.t == 10.0 and g.detector.x == 3.0 and g.detector.y == 3.0
    assert g.Xdot_1.y == pytest.approx(g.gamma * g.v)
    assert g.Xdot_2.x == pytest.approx(g.gamma * g.v)


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
        assert wl.s_f == pytest.approx(2 * g.tau / g.gamma)
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
