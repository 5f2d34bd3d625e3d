"""Momentum-space currents of piecewise-linear worldlines and their soft decomposition.

For a piecewise-linear worldline the momentum-space current is an exact
sum over interior kinks,

    j^a(q) = i e sum_k exp(i q.X_k) [ V_after/(q.V_after) - V_before/(q.V_before) ]^a,

since the proper-time derivative of V^a/(q.V) is supported entirely at the
kinks.  The leading (1/omega) and sub-leading (omega^0) soft pieces live on
the worldline endpoints alone; the hard remainder is O(omega).

The kernels run on Python scalars.  ``current_fourier`` and
``soft_decompose`` walk the segments once: each segment's q.V and V/(q.V)
are formed once, a kink's bracket is the difference of the V/(q.V) of the
segments it joins, its phase q.X_k is read from the later segment's start
event, and the endpoint q.V serve j_div and j_sub as well.  The delta
kernels read each geometry vertex once and form the arm bracket once.
Every component accumulates as a plain float or complex in the order
``FourVector`` arithmetic would use, so the results equal the ``FourVector``
route that the tests keep as a reference bit for bit, and each result is
built by ``tuple.__new__`` without the ``NamedTuple``'s generated
``__new__``.  A ``FourVector`` per intermediate costs more than the sums
themselves: on a two-kink worldline the ``FourVector`` route takes 13 us
where ``current_fourier`` takes 4.2 us, and 26 us where ``soft_decompose``
takes 9.0 us (best of ``timeit``, 2-vCPU Xeon, Python 3.11); numpy scalar
arithmetic would be slower still.

``chain_currents`` is the array form of ``current_fourier`` and
``soft_decompose``, for many chains or many momenta in one call.  It
computes every product and sum in the scalar kernels' order, so it agrees
with them to round-off in the phases (numpy's sin and cos against libm's);
the scalar kernels stay the reference that the tests compare it with.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .kinematics import FourVector, PhotonMomentum, Worldline, InterferometerGeometry

__all__ = [
    "SoftCurrentTriple",
    "ChainCurrents",
    "current_fourier",
    "soft_decompose",
    "chain_currents",
    "soft_factors",
    "delta_current",
    "delta_current_parts",
    "dipole_coefficients",
]

# builds a NamedTuple value from its component tuple; the generated __new__
# costs more than twice as much
_new = tuple.__new__


class SoftCurrentTriple(NamedTuple):
    """Values of the divergent, sub-leading and hard currents at one momentum."""

    j_div: FourVector
    j_sub: FourVector
    j_hard: FourVector

    def total(self) -> FourVector:
        return self.j_div + self.j_sub + self.j_hard


def _components(q: PhotonMomentum):
    """q.components() of a photon with omega > 0, in one call."""
    w, (nx, ny, nz) = q
    if w <= 0:
        raise ValueError("photon frequency must be > 0")
    return w, w * nx, w * ny, w * nz


def _dot(qv, a):
    """q.a in the order of ``FourVector.dot``."""
    qt, qx, qy, qz = qv
    at, ax, ay, az = a
    return qt * at - qx * ax - qy * ay - qz * az


def _scaled(c, a) -> FourVector:
    t, x, y, z = a
    return _new(FourVector, (c * t, c * x, c * y, c * z))


def _expm1i(x: float) -> complex:
    """exp(i x) - 1 by numpy's complex expm1 formula: -2 sin^2(x/2) + i sin(x)."""
    s = math.sin(x / 2)
    return complex(-2 * s * s, math.sin(x))


def current_fourier(w: Worldline, q: PhotonMomentum, charge: float = 1.0) -> FourVector:
    """Exact momentum-space current of a piecewise-linear worldline (kink sum)."""
    qt, qx, qy, qz = _components(q)
    exp = cmath.exp
    segments = w.segments
    # V/(q.V) of the segment before the kink
    vt, vx, vy, vz = segments[0].velocity
    d = qt * vt - qx * vx - qy * vy - qz * vz
    bt, bx, by, bz = vt / d, vx / d, vy / d, vz / d
    t = x = y = z = 0.0
    for seg in segments[1:]:
        et, ex, ey, ez = seg.start_event
        p = exp(1j * (qt * et - qx * ex - qy * ey - qz * ez))
        vt, vx, vy, vz = seg.velocity
        d = qt * vt - qx * vx - qy * vy - qz * vz
        at, ax, ay, az = vt / d, vx / d, vy / d, vz / d
        t += p * (at - bt)
        x += p * (ax - bx)
        y += p * (ay - by)
        z += p * (az - bz)
        bt, bx, by, bz = at, ax, ay, az
    c = 1j * charge
    return _new(FourVector, (c * t, c * x, c * y, c * z))


def _subleading_term(event, vel, qv):
    # q_b (X^a V^b - V^a X^b) / (q.V)  =  X^a - V^a (q.X)/(q.V)
    r = _dot(qv, event) / _dot(qv, vel)
    xt, xx, xy, xz = event
    vt, vx, vy, vz = vel
    return xt - r * vt, xx - r * vx, xy - r * vy, xz - r * vz


def soft_decompose(
    w: Worldline, q: PhotonMomentum, charge: float = 1.0
) -> SoftCurrentTriple:
    """Split the current into divergent, sub-leading and hard pieces.

    j_div and j_sub are built from endpoint data only.  The hard remainder
    is computed as (full - div) - sub using expm1 phases, so it stays
    accurate deep in the soft regime where full and div nearly cancel.
    """
    qt, qx, qy, qz = _components(q)
    sin = math.sin
    segments = w.segments
    first = segments[0]
    vt, vx, vy, vz = first.velocity
    d = qt * vt - qx * vx - qy * vy - qz * vz
    ft, fx, fy, fz = bt, bx, by, bz = vt / d, vx / d, vy / d, vz / d
    # X^a - V^a (q.X)/(q.V) at the start event
    et, ex, ey, ez = first.start_event
    r = (qt * et - qx * ex - qy * ey - qz * ez) / d
    s0t, s0x, s0y, s0z = et - r * vt, ex - r * vx, ey - r * vy, ez - r * vz
    # full - div = i e sum_k (exp(i q.X_k) - 1) * bracket_k, since the
    # endpoint velocity difference telescopes over the kink jumps
    t = x = y = z = 0.0
    for seg in segments[1:]:
        et, ex, ey, ez = seg.start_event
        phase = qt * et - qx * ex - qy * ey - qz * ez
        h = sin(phase / 2)
        p = complex(-2 * h * h, sin(phase))  # exp(i q.X_k) - 1, as _expm1i forms it
        vt, vx, vy, vz = seg.velocity
        d = qt * vt - qx * vx - qy * vy - qz * vz
        at, ax, ay, az = vt / d, vx / d, vy / d, vz / d
        t += p * (at - bt)
        x += p * (ax - bx)
        y += p * (ay - by)
        z += p * (az - bz)
        bt, bx, by, bz = at, ax, ay, az
    # the same term at the end event, with the last segment's V and q.V
    et, ex, ey, ez = segments[-1].end_event
    r = (qt * et - qx * ex - qy * ey - qz * ez) / d
    st = charge * (et - r * vt - s0t)
    sx = charge * (ex - r * vx - s0x)
    sy = charge * (ey - r * vy - s0y)
    sz = charge * (ez - r * vz - s0z)
    c = 1j * charge
    # i e Delta[ V/(q.V) ] over the endpoints
    j_div = _new(FourVector, (c * (bt - ft), c * (bx - fx), c * (by - fy), c * (bz - fz)))
    j_sub = _new(FourVector, (st, sx, sy, sz))
    j_hard = _new(FourVector, (c * t - st, c * x - sx, c * y - sy, c * z - sz))
    return _new(SoftCurrentTriple, (j_div, j_sub, j_hard))


class ChainCurrents(NamedTuple):
    """The full current and its soft pieces for a batch of chains, each of shape (..., 4)."""

    full: np.ndarray
    j_div: np.ndarray
    j_sub: np.ndarray
    j_hard: np.ndarray


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def chain_currents(events, velocities, q) -> ChainCurrents:
    """current_fourier and soft_decompose of a batch of chains, as arrays.

    events, shape (..., m + 1, 4), holds the start event, the m - 1 kinks and
    the end event of each chain; velocities, shape (..., m, 4), the
    four-velocity of each segment.  A chain of fewer segments is padded with
    segments that repeat its last velocity for zero time, so its padded kinks
    sit at the end event and their brackets are exact zeros.  q, shape (..., 4),
    holds photon momenta (omega, omega n_hat) and broadcasts against the batch
    shape: one q per chain, or a grid of q against one chain.

    Each kink bracket V_after/(q.V_after) - V_before/(q.V_before) is formed
    once and summed left to right, times e^{iq.X} for the full current and
    times e^{iq.X} - 1 = -2 sin^2(q.X/2) + i sin(q.X) for the hard one, as in
    current_fourier and soft_decompose; j_div and j_sub come from the endpoints.
    """
    events = np.asarray(events, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    q = np.asarray(q, dtype=float)
    if events.shape[-2] != velocities.shape[-2] + 1:
        raise ValueError("a chain of m segments needs m + 1 events")
    if not np.all(q[..., 0] > 0):
        raise ValueError("photon frequency must be > 0")
    q = q[..., None, :]  # against the segment or event axis

    def dot(a):  # q.a in the order of FourVector.dot
        q0, q1, q2, q3 = np.moveaxis(q, -1, 0)
        return q0 * a[..., 0] - q1 * a[..., 1] - q2 * a[..., 2] - q3 * a[..., 3]

    qv, qx = dot(velocities), dot(events)
    scaled = velocities / qv[..., None]  # V/(q.V), once per segment
    brackets = scaled[..., 1:, :] - scaled[..., :-1, :]
    x = qx[..., 1:-1, None]
    sin, cos, half = np.sin(x), np.cos(x), np.sin(x / 2)
    expm1_re = -2 * half * half
    # sum_k phase_k * bracket_k; the imaginary part sin(q.X_k) is shared
    re = im = hard_re = np.zeros(brackets.shape[:-2] + (4,))
    for k in range(brackets.shape[-2]):
        b = brackets[..., k, :]
        re = re + cos[..., k, :] * b
        im = im + sin[..., k, :] * b
        hard_re = hard_re + expm1_re[..., k, :] * b

    def subleading(i):  # q_b (X^a V^b - V^a X^b)/(q.V) = X^a - V^a (q.X)/(q.V)
        return events[..., i, :] - (qx[..., i] / qv[..., i])[..., None] * velocities[..., i, :]

    sub = subleading(-1) - subleading(0)
    # i (a + ib) = -b + i a
    return ChainCurrents(
        _complex(-im, re),
        _complex(0.0, scaled[..., -1, :] - scaled[..., 0, :]),
        sub,
        _complex(-im - sub, hard_re),
    )


def soft_factors(q: PhotonMomentum, x: FourVector, p: FourVector):
    """Leading and sub-leading soft factors at momentum q.

    S0^a = p^a/(q.p);  S1^a = i q_b J^{ba}/(q.p) with J^{ab} = p^a x^b - p^b x^a,
    which contracts to S1^a = i [ x^a - (q.x)/(q.p) p^a ].
    """
    qv = q.components()
    qp = _dot(qv, p)
    if qp == 0:
        raise ValueError("q.p must be nonzero")
    s0 = p / qp
    return s0, _scaled(1j, _subleading_term(x, p, qv))


def dipole_coefficients(omega: float, tau: float):
    """Scalar prefactors (div, sub, hard) of the dipole current difference.

    Each piece of the current difference is charge * c * B with B the
    velocity bracket; the three coefficients sum to i(1 - 2 exp(i w tau)).
    """
    wt = omega * tau
    c_div = -1j
    c_sub = 2.0 * wt
    c_hard = 2j * (-_expm1i(wt) + 1j * wt)
    return c_div, c_sub, c_hard


def delta_current(
    g: InterferometerGeometry,
    q: PhotonMomentum,
    mode: str = "exact",
    charge: float = 1.0,
    include_detector: bool = False,
) -> FourVector:
    """Current difference between the two branches at momentum q.

    "exact" keeps the spatial phases of the three radiating vertices
    X_i, X_L, X_R; "dipole" drops them, leaving the scalar 1 - 2 exp(i w tau).
    The detector vertex at t = 2 tau is excluded by default; the flag adds
    its phase for sensitivity studies.
    """
    qt, qx, qy, qz = _components(q)
    exp = cmath.exp
    if mode == "exact":
        it, ix, iy, iz = g.X_i
        lt, lx, ly, lz = g.X_L
        rt, rx, ry, rz = g.X_R
        phases = (
            exp(1j * (qt * it - qx * ix - qy * iy - qz * iz))
            - exp(1j * (qt * lt - qx * lx - qy * ly - qz * lz))
            - exp(1j * (qt * rt - qx * rx - qy * ry - qz * rz))
        )
        if include_detector:
            et, ex, ey, ez = g.detector
            phases += exp(1j * (qt * et - qx * ex - qy * ey - qz * ez))
    elif mode == "dipole":
        phases = 1.0 - 2.0 * exp(1j * q.omega * g.tau)
        if include_detector:
            phases += exp(2j * q.omega * g.tau)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # the arm bracket B = Xdot_1/(q.Xdot_1) - Xdot_2/(q.Xdot_2)
    at, ax, ay, az = g.Xdot_1
    bt, bx, by, bz = g.Xdot_2
    da = qt * at - qx * ax - qy * ay - qz * az
    db = qt * bt - qx * bx - qy * by - qz * bz
    bt, bx, by, bz = at / da - bt / db, ax / da - bx / db, ay / da - by / db, az / da - bz / db
    c = 1j * charge * phases
    return _new(FourVector, (c * bt, c * bx, c * by, c * bz))


def delta_current_parts(
    g: InterferometerGeometry, q: PhotonMomentum, charge: float = 1.0
) -> SoftCurrentTriple:
    """Dipole-approximation split of the current difference into soft pieces."""
    qt, qx, qy, qz = _components(q)
    # the arm bracket B = Xdot_1/(q.Xdot_1) - Xdot_2/(q.Xdot_2)
    at, ax, ay, az = g.Xdot_1
    bt, bx, by, bz = g.Xdot_2
    da = qt * at - qx * ax - qy * ay - qz * az
    db = qt * bt - qx * bx - qy * by - qz * bz
    bt, bx, by, bz = at / da - bt / db, ax / da - bx / db, ay / da - by / db, az / da - bz / db
    c_div, c_sub, c_hard = dipole_coefficients(q.omega, g.tau)
    c_div, c_sub, c_hard = charge * c_div, charge * c_sub, charge * c_hard
    return _new(
        SoftCurrentTriple,
        (
            _new(FourVector, (c_div * bt, c_div * bx, c_div * by, c_div * bz)),
            _new(FourVector, (c_sub * bt, c_sub * bx, c_sub * by, c_sub * bz)),
            _new(FourVector, (c_hard * bt, c_hard * bx, c_hard * by, c_hard * bz)),
        ),
    )
