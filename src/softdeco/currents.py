"""Momentum-space currents of piecewise-linear worldlines and their soft decomposition.

For a piecewise-linear worldline the momentum-space current is an exact
sum over interior kinks,

    j^a(q) = i e sum_k exp(i q.X_k) [ V_after/(q.V_after) - V_before/(q.V_before) ]^a,

since the proper-time derivative of V^a/(q.V) is supported entirely at the
kinks.  The leading (1/omega) and sub-leading (omega^0) soft pieces live on
the worldline endpoints alone; the hard remainder is O(omega).

The kernels run on Python scalars: they unpack the component tuples of
their inputs, accumulate each component as a plain float or complex in the
order ``FourVector`` arithmetic would use, and build one ``FourVector`` per
result.  A ``FourVector`` per intermediate costs more than the sums
themselves: on a two-kink worldline the ``FourVector`` route that the tests
keep as a reference takes 17 us where ``current_fourier`` takes 6.5 us (best
of ``timeit``, 2-vCPU Xeon, Python 3.11), and numpy scalar arithmetic would be
slower still.  Only the two 3-vector norms upstream (|v|^2 in
``four_velocity`` and |n| in ``PhotonMomentum``) stay numpy dot products,
whose fused multiply-adds plain Python would not reproduce.

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

class SoftCurrentTriple(NamedTuple):
    """Values of the divergent, sub-leading and hard currents at one momentum."""

    j_div: FourVector
    j_sub: FourVector
    j_hard: FourVector

    def total(self) -> FourVector:
        return self.j_div + self.j_sub + self.j_hard


def _check_omega(q: PhotonMomentum):
    if q.omega <= 0:
        raise ValueError("photon frequency must be > 0")


def _dot(qv, a):
    """q.a in the order of ``FourVector.dot``."""
    qt, qx, qy, qz = qv
    at, ax, ay, az = a
    return qt * at - qx * ax - qy * ay - qz * az


def _scaled(c, a) -> FourVector:
    t, x, y, z = a
    return FourVector(c * t, c * x, c * y, c * z)


def _velocity_bracket(v_after, v_before, qv):
    """Components of V_after/(q.V_after) - V_before/(q.V_before)."""
    da, db = _dot(qv, v_after), _dot(qv, v_before)
    at, ax, ay, az = v_after
    bt, bx, by, bz = v_before
    return at / da - bt / db, ax / da - bx / db, ay / da - by / db, az / da - bz / db


def _expi(x: float) -> complex:
    return cmath.exp(1j * x)


def _expm1i(x: float) -> complex:
    """exp(i x) - 1 by numpy's complex expm1 formula: -2 sin^2(x/2) + i sin(x)."""
    s = math.sin(x / 2)
    return complex(-2 * s * s, math.sin(x))


def _kink_sum(w: Worldline, qv, phase):
    """Components of sum_k phase(q.X_k) * bracket_k, accumulated left to right."""
    t = x = y = z = 0.0
    for event, v_before, v_after in w.kinks():
        p = phase(_dot(qv, event))
        bt, bx, by, bz = _velocity_bracket(v_after, v_before, qv)
        t, x, y, z = t + p * bt, x + p * bx, y + p * by, z + p * bz
    return t, x, y, z


def current_fourier(w: Worldline, q: PhotonMomentum, charge: float = 1.0) -> FourVector:
    """Exact momentum-space current of a piecewise-linear worldline (kink sum)."""
    _check_omega(q)
    return _scaled(1j * charge, _kink_sum(w, q.components(), _expi))


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
    _check_omega(q)
    qv = q.components()
    c = 1j * charge
    # i e Delta[ V/(q.V) ] over the endpoints
    j_div = _scaled(c, _velocity_bracket(w.final_velocity, w.initial_velocity, qv))
    at, ax, ay, az = _subleading_term(w.end_event, w.final_velocity, qv)
    bt, bx, by, bz = _subleading_term(w.start_event, w.initial_velocity, qv)
    st, sx, sy, sz = sub = at - bt, ax - bx, ay - by, az - bz
    # full - div = i e sum_k (exp(i q.X_k) - 1) * bracket_k, since the
    # endpoint velocity difference telescopes over the kink jumps.
    ht, hx, hy, hz = _kink_sum(w, qv, _expm1i)
    j_hard = FourVector(
        c * ht - charge * st, c * hx - charge * sx, c * hy - charge * sy, c * hz - charge * sz
    )
    return SoftCurrentTriple(j_div, _scaled(charge, sub), j_hard)


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
    _kink_sum; j_div and j_sub come from the endpoints, as in soft_decompose.
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
    _check_omega(q)
    qv = q.components()
    if mode == "exact":
        phases = _expi(_dot(qv, g.X_i)) - _expi(_dot(qv, g.X_L)) - _expi(_dot(qv, g.X_R))
        if include_detector:
            phases += _expi(_dot(qv, g.detector))
    elif mode == "dipole":
        phases = 1.0 - 2.0 * cmath.exp(1j * q.omega * g.tau)
        if include_detector:
            phases += cmath.exp(2j * q.omega * g.tau)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _scaled(1j * charge * phases, _velocity_bracket(g.Xdot_1, g.Xdot_2, qv))


def delta_current_parts(
    g: InterferometerGeometry, q: PhotonMomentum, charge: float = 1.0
) -> SoftCurrentTriple:
    """Dipole-approximation split of the current difference into soft pieces."""
    _check_omega(q)
    B = _velocity_bracket(g.Xdot_1, g.Xdot_2, q.components())
    c_div, c_sub, c_hard = dipole_coefficients(q.omega, g.tau)
    return SoftCurrentTriple(
        _scaled(charge * c_div, B), _scaled(charge * c_sub, B), _scaled(charge * c_hard, B)
    )
