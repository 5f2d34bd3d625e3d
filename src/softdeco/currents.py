"""Momentum-space currents of piecewise-linear worldlines and their soft decomposition.

For a piecewise-linear worldline the momentum-space current is an exact
sum over interior kinks,

    j^a(q) = i e sum_k exp(i q.X_k) [ V_after/(q.V_after) - V_before/(q.V_before) ]^a,

since the proper-time derivative of V^a/(q.V) is supported entirely at the
kinks.  The leading (1/omega) and sub-leading (omega^0) soft pieces live on
the worldline endpoints alone; the hard remainder is O(omega).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .kinematics import FourVector, PhotonMomentum, Worldline, InterferometerGeometry

__all__ = [
    "SoftCurrentTriple",
    "current_fourier",
    "soft_decompose",
    "soft_factors",
    "delta_current",
    "delta_current_parts",
    "dipole_coefficients",
]

@dataclass(frozen=True)
class SoftCurrentTriple:
    """Values of the divergent, sub-leading and hard currents at one momentum."""

    j_div: FourVector
    j_sub: FourVector
    j_hard: FourVector

    def total(self) -> FourVector:
        return self.j_div + self.j_sub + self.j_hard


def _check_omega(q: PhotonMomentum):
    if q.omega <= 0:
        raise ValueError("photon frequency must be > 0")


def _velocity_bracket(v_after: FourVector, v_before: FourVector, qv: FourVector):
    return v_after / qv.dot(v_after) - v_before / qv.dot(v_before)


def current_fourier(w: Worldline, q: PhotonMomentum, charge: float = 1.0) -> FourVector:
    """Exact momentum-space current of a piecewise-linear worldline (kink sum)."""
    _check_omega(q)
    qv = q.four_vector()
    total = FourVector.zero()
    for event, v_before, v_after in w.kinks():
        phase = cmath.exp(1j * qv.dot(event))
        total = total + phase * _velocity_bracket(v_after, v_before, qv)
    return (1j * charge) * total


def _endpoint_leading(w: Worldline, qv: FourVector, charge: float) -> FourVector:
    # i e Delta[ V/(q.V) ] over the endpoints
    return (1j * charge) * _velocity_bracket(w.final_velocity, w.initial_velocity, qv)


def _subleading_term(event: FourVector, vel: FourVector, qv: FourVector) -> FourVector:
    # q_b (X^a V^b - V^a X^b) / (q.V)  =  X^a - V^a (q.X)/(q.V)
    return event - (qv.dot(event) / qv.dot(vel)) * vel


def _endpoint_subleading(w: Worldline, qv: FourVector, charge: float) -> FourVector:
    a = _subleading_term(w.end_event, w.final_velocity, qv)
    b = _subleading_term(w.start_event, w.initial_velocity, qv)
    return charge * (a - b)


def soft_decompose(
    w: Worldline, q: PhotonMomentum, charge: float = 1.0
) -> SoftCurrentTriple:
    """Split the current into divergent, sub-leading and hard pieces.

    j_div and j_sub are built from endpoint data only.  The hard remainder
    is computed as (full - div) - sub using expm1 phases, so it stays
    accurate deep in the soft regime where full and div nearly cancel.
    """
    _check_omega(q)
    qv = q.four_vector()
    j_div = _endpoint_leading(w, qv, charge)
    j_sub = _endpoint_subleading(w, qv, charge)
    # full - div = i e sum_k (exp(i q.X_k) - 1) * bracket_k, since the
    # endpoint velocity difference telescopes over the kink jumps.
    acc = FourVector.zero()
    for event, v_before, v_after in w.kinks():
        phase_m1 = complex(np.expm1(1j * qv.dot(event)))
        acc = acc + phase_m1 * _velocity_bracket(v_after, v_before, qv)
    j_hard = (1j * charge) * acc - j_sub
    return SoftCurrentTriple(j_div, j_sub, j_hard)


def soft_factors(q: PhotonMomentum, x: FourVector, p: FourVector):
    """Leading and sub-leading soft factors at momentum q.

    S0^a = p^a/(q.p);  S1^a = i q_b J^{ba}/(q.p) with J^{ab} = p^a x^b - p^b x^a,
    which contracts to S1^a = i [ x^a - (q.x)/(q.p) p^a ].
    """
    qv = q.four_vector()
    qp = qv.dot(p)
    if qp == 0:
        raise ValueError("q.p must be nonzero")
    s0 = p / qp
    s1 = 1j * (x - (qv.dot(x) / qp) * p)
    return s0, s1


def dipole_coefficients(omega: float, tau: float):
    """Scalar prefactors (div, sub, hard) of the dipole current difference.

    Each piece of the current difference is charge * c * B with B the
    velocity bracket; the three coefficients sum to i(1 - 2 exp(i w tau)).
    """
    wt = omega * tau
    c_div = -1j
    c_sub = 2.0 * wt
    c_hard = 2j * (-complex(np.expm1(1j * wt)) + 1j * wt)
    return c_div, c_sub, c_hard


def _bracket(g: InterferometerGeometry, qv: FourVector) -> FourVector:
    return _velocity_bracket(g.Xdot_1, g.Xdot_2, qv)


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
    qv = q.four_vector()
    B = _bracket(g, qv)
    if mode == "exact":
        phases = (
            cmath.exp(1j * qv.dot(g.X_i))
            - cmath.exp(1j * qv.dot(g.X_L))
            - cmath.exp(1j * qv.dot(g.X_R))
        )
        if include_detector:
            phases += cmath.exp(1j * qv.dot(g.detector))
    elif mode == "dipole":
        phases = 1.0 - 2.0 * cmath.exp(1j * q.omega * g.tau)
        if include_detector:
            phases += cmath.exp(2j * q.omega * g.tau)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return (1j * charge * phases) * B


def delta_current_parts(
    g: InterferometerGeometry, q: PhotonMomentum, charge: float = 1.0
) -> SoftCurrentTriple:
    """Dipole-approximation split of the current difference into soft pieces."""
    _check_omega(q)
    qv = q.four_vector()
    B = _bracket(g, qv)
    c_div, c_sub, c_hard = dipole_coefficients(q.omega, g.tau)
    return SoftCurrentTriple(
        (charge * c_div) * B, (charge * c_sub) * B, (charge * c_hard) * B
    )
