"""Minkowski algebra, piecewise-linear worldlines, and the square two-path geometry.

Everything here uses natural units (hbar = c = eps0 = 1) and the
mostly-negative signature (+,-,-,-).  All types are immutable values and
all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FourVector",
    "PhotonMomentum",
    "WorldlineSegment",
    "Worldline",
    "InterferometerGeometry",
    "minkowski_dot",
    "four_velocity",
    "boost",
    "build_interferometer",
]

_CONTINUITY_TOL = 1e-12
_NORM_TOL = 1e-12


@dataclass(frozen=True)
class FourVector:
    """Four-component vector with signature (+,-,-,-).

    Components may be real or complex; the same layout is used for
    positions, velocities and momentum-space currents.  The dot product
    never conjugates, matching the convention used for complex currents.
    """

    t: complex
    x: complex
    y: complex
    z: complex

    def dot(self, other: "FourVector") -> complex:
        return (
            self.t * other.t
            - self.x * other.x
            - self.y * other.y
            - self.z * other.z
        )

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(
            self.t + other.t, self.x + other.x, self.y + other.y, self.z + other.z
        )

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(
            self.t - other.t, self.x - other.x, self.y - other.y, self.z - other.z
        )

    def __mul__(self, c) -> "FourVector":
        return FourVector(c * self.t, c * self.x, c * self.y, c * self.z)

    __rmul__ = __mul__

    def __truediv__(self, c) -> "FourVector":
        return FourVector(self.t / c, self.x / c, self.y / c, self.z / c)

    def __neg__(self) -> "FourVector":
        return FourVector(-self.t, -self.x, -self.y, -self.z)

    def conjugate(self) -> "FourVector":
        return FourVector(
            self.t.conjugate(), self.x.conjugate(), self.y.conjugate(), self.z.conjugate()
        )

    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    def norm(self) -> float:
        """Euclidean magnitude of the components, used for error scales."""
        return math.sqrt(
            abs(self.t) ** 2 + abs(self.x) ** 2 + abs(self.y) ** 2 + abs(self.z) ** 2
        )

    @staticmethod
    def zero() -> "FourVector":
        return FourVector(0.0, 0.0, 0.0, 0.0)


def minkowski_dot(a: FourVector, b: FourVector) -> complex:
    """Signature (+,-,-,-) contraction; no conjugation on either argument."""
    return a.dot(b)


def four_velocity(v3) -> FourVector:
    """Unit timelike four-velocity gamma*(1, v3) for a three-velocity with |v3| < 1.

    |v3|^2 stays a numpy dot product, which may fuse multiply-adds; the
    components are Python floats, so later arithmetic runs on plain scalars.
    """
    v3 = np.asarray(v3, dtype=float)
    speed2 = float(v3 @ v3)
    if not speed2 < 1.0:
        raise ValueError(f"three-velocity magnitude {math.sqrt(speed2)} must be < 1")
    gamma = 1.0 / math.sqrt(1.0 - speed2)
    vx, vy, vz = v3.tolist()
    return FourVector(gamma, gamma * vx, gamma * vy, gamma * vz)


def boost(a: FourVector, v3) -> FourVector:
    """Apply a pure boost with three-velocity v3 (|v3| < 1) to a four-vector."""
    v3 = np.asarray(v3, dtype=float)
    b2 = float(v3 @ v3)
    if not b2 < 1.0:
        raise ValueError("boost velocity must satisfy |v| < 1")
    if b2 == 0.0:
        return a
    gamma = 1.0 / math.sqrt(1.0 - b2)
    r = a.spatial()
    bp = v3 @ r
    t = gamma * (a.t + bp)
    r_new = r + ((gamma - 1.0) * bp / b2 + gamma * a.t) * v3
    return FourVector(t, r_new[0], r_new[1], r_new[2])


@dataclass(frozen=True)
class PhotonMomentum:
    """Null momentum q = omega*(1, n_hat) with omega >= 0 and |n_hat| = 1."""

    omega: float
    n_hat: tuple

    def __init__(self, omega: float, n_hat):
        if not (math.isfinite(omega) and omega >= 0):
            raise ValueError(f"photon frequency must be finite and >= 0, got {omega}")
        n = np.asarray(n_hat, dtype=float)
        mag = float(np.linalg.norm(n))
        if not math.isclose(mag, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError(f"direction must be a unit vector, got |n| = {mag}")
        n = n / mag  # remove residual float drift
        object.__setattr__(self, "omega", float(omega))
        object.__setattr__(self, "n_hat", tuple(n.tolist()))

    def components(self) -> tuple:
        """(q^t, q^x, q^y, q^z) as plain floats, for kernels that skip the FourVector."""
        w = self.omega
        return w, w * self.n_hat[0], w * self.n_hat[1], w * self.n_hat[2]

    def four_vector(self) -> FourVector:
        return FourVector(*self.components())

    @staticmethod
    def from_angles(omega: float, theta: float, phi: float) -> "PhotonMomentum":
        n = (
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        )
        return PhotonMomentum(omega, n)


@dataclass(frozen=True)
class WorldlineSegment:
    """Straight worldline piece: start event, unit four-velocity, proper duration."""

    start_event: FourVector
    velocity: FourVector
    duration: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"segment duration must be finite and > 0, got {self.duration}")
        n2 = self.velocity.dot(self.velocity)
        if not abs(n2 - 1.0) <= _NORM_TOL:
            raise ValueError(f"four-velocity norm^2 = {n2}, expected 1")
        if not self.velocity.t.real > 0:
            raise ValueError("four-velocity must be future-pointing")

    @property
    def end_event(self) -> FourVector:
        x, u, d = self.start_event, self.velocity, self.duration
        return FourVector(x.t + d * u.t, x.x + d * u.x, x.y + d * u.y, x.z + d * u.z)


@dataclass(frozen=True)
class Worldline:
    """Ordered continuous chain of straight segments with proper-time bounds."""

    segments: tuple
    s_i: float = 0.0

    def __init__(self, segments, s_i: float = 0.0):
        segments = tuple(segments)
        if not segments:
            raise ValueError("worldline needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            end, start = a.end_event, b.start_event
            gap = max(
                abs(end.t - start.t),
                abs(end.x - start.x),
                abs(end.y - start.y),
                abs(end.z - start.z),
            )
            if not gap <= _CONTINUITY_TOL * max(1.0, start.norm()):
                raise ValueError("segments are not continuous")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "s_i", float(s_i))

    @property
    def s_f(self) -> float:
        return self.s_i + sum(seg.duration for seg in self.segments)

    @property
    def start_event(self) -> FourVector:
        return self.segments[0].start_event

    @property
    def end_event(self) -> FourVector:
        return self.segments[-1].end_event

    @property
    def initial_velocity(self) -> FourVector:
        return self.segments[0].velocity

    @property
    def final_velocity(self) -> FourVector:
        return self.segments[-1].velocity

    def kinks(self):
        """Interior junctions as (event, velocity_before, velocity_after) triples."""
        out = []
        for a, b in zip(self.segments, self.segments[1:]):
            out.append((b.start_event, a.velocity, b.velocity))
        return out


@dataclass(frozen=True)
class InterferometerGeometry:
    """The square two-path layout: side l, transit time tau per side.

    The particle starts at X_i, branch L goes up (velocity Xdot_1, y-directed)
    then across (Xdot_2, x-directed); branch R goes across then up.  Both
    branches meet at the detector event (2*tau, l, l, 0).
    """

    l: float
    tau: float
    v: float = field(init=False)
    gamma: float = field(init=False)
    X_i: FourVector = field(init=False)
    X_L: FourVector = field(init=False)
    X_R: FourVector = field(init=False)
    detector: FourVector = field(init=False)
    Xdot_1: FourVector = field(init=False)
    Xdot_2: FourVector = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.l) and self.l >= 0):
            raise ValueError(f"side length must be finite and >= 0, got {self.l}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"transit time must be finite and > 0, got {self.tau}")
        v = float(self.l / self.tau)
        if not v < 1.0:
            raise ValueError(f"speed l/tau = {v} is superluminal")
        gamma = 1.0 / math.sqrt(1.0 - v * v)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "X_i", FourVector.zero())
        object.__setattr__(self, "X_L", FourVector(self.tau, 0.0, self.l, 0.0))
        object.__setattr__(self, "X_R", FourVector(self.tau, self.l, 0.0, 0.0))
        object.__setattr__(
            self, "detector", FourVector(2 * self.tau, self.l, self.l, 0.0)
        )
        # four_velocity along one axis: |v|^2 with two zero components is v*v
        object.__setattr__(self, "Xdot_1", FourVector(gamma, 0.0, gamma * v, 0.0))
        object.__setattr__(self, "Xdot_2", FourVector(gamma, gamma * v, 0.0, 0.0))


def build_interferometer(l: float, tau: float):
    """Construct the square geometry and the two branch worldlines.

    Branch L runs X_i -> X_L -> detector with velocities (Xdot_1, Xdot_2);
    branch R runs X_i -> X_R -> detector with (Xdot_2, Xdot_1).  Each side
    takes proper time tau/gamma, so both branches have total proper time
    2*tau/gamma and shared endpoints.
    """
    geom = InterferometerGeometry(l, tau)
    ds = tau / geom.gamma
    wl_L = Worldline(
        [
            WorldlineSegment(geom.X_i, geom.Xdot_1, ds),
            WorldlineSegment(geom.X_L, geom.Xdot_2, ds),
        ]
    )
    wl_R = Worldline(
        [
            WorldlineSegment(geom.X_i, geom.Xdot_2, ds),
            WorldlineSegment(geom.X_R, geom.Xdot_1, ds),
        ]
    )
    return geom, wl_L, wl_R
