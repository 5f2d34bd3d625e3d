"""Desk-scale estimators: two-slit electron predictions and the
neutral-particle/mirror formula set.

The two-slit Gamma estimates are asymptotic closed_forms of the
interferometer at v = v/c, Omega tau = L_o/a_o and e^2 = 4 pi alpha Q^2;
the hard one is returned as printed (no velocity factor) and with the
(v/c)^2 of the interferometer result restored.  The mirror formulas are
order-of-magnitude forms with explicit regime flags.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

from .decoherence import ClosedForms, CutoffSet, closed_forms
from .kinematics import InterferometerGeometry
from .numerics import FINE_STRUCTURE_ALPHA, bessel_k2

__all__ = [
    "SlitGeometry",
    "ParticleMirror",
    "slit_acceleration",
    "gamma_dressed_2slit",
    "gamma_hard_2slit",
    "vdw_potential",
    "surface_coupling",
    "rayleigh_rate",
]


def _require_fields(obj, positive):
    """Reject NaN and +-inf in every field, and <= 0 in those named; None passes."""
    for f in fields(obj):
        val = getattr(obj, f.name)
        if val is not None and not math.isfinite(val):
            raise ValueError(f"{f.name} must be finite, got {val}")
        if val is not None and f.name in positive and not val > 0:
            raise ValueError(f"{f.name} must be > 0, got {val}")


@dataclass(frozen=True)
class SlitGeometry:
    """Two-slit layout: plate thickness a_o, slit width b_o, separation d_o,
    slit-screen distance L_o, particle speed v/c and charge Q (units of e)."""

    a_o: float
    b_o: float
    d_o: float
    L_o: float
    v_over_c: float
    Q: float = 1.0
    alpha: float = FINE_STRUCTURE_ALPHA
    ell_o: float | None = None  # deflection length scale; defaults to L_o

    def __post_init__(self):
        _require_fields(self, positive=("a_o", "b_o", "d_o", "L_o", "alpha", "ell_o"))
        if not 0 < self.v_over_c < 1:
            raise ValueError("v_over_c must lie in (0, 1)")
        if not self.L_o > self.a_o:
            raise ValueError("L_o must exceed a_o")
        if not math.isfinite(self.L_o / self.a_o):
            raise ValueError(f"L_o/a_o must be finite, got {self.L_o / self.a_o}")

    @property
    def deflection_scale(self) -> float:
        return self.L_o if self.ell_o is None else self.ell_o


@dataclass(frozen=True)
class ParticleMirror:
    """Spherical particle of radius r_o at closest distance Z_o from a mirror."""

    r_o: float
    Z_o: float
    epsilon: float = 2.0
    g_o: float = 1.0
    q: float = 1.0
    X_o: float = 0.0
    U_o: float = 0.0

    def __post_init__(self):
        _require_fields(self, positive=("r_o", "Z_o", "q"))
        if not self.epsilon > 1:
            raise ValueError("epsilon must be > 1")


def slit_acceleration(s: SlitGeometry, z_f: float, path: str) -> float:
    """Deflection acceleration ~ (v^2/ell_o)(z_f +/- d_o/2); + on path A, - on B."""
    if path == "A":
        sign = +1.0
    elif path == "B":
        sign = -1.0
    else:
        raise ValueError("path must be 'A' or 'B'")
    v = s.v_over_c
    return (v * v / s.deflection_scale) * (z_f + sign * 0.5 * s.d_o)


def _slit_closed_forms(s: SlitGeometry) -> ClosedForms:
    """closed_forms at tau = 1, so v = v/c and Omega tau = L_o/a_o exactly."""
    return closed_forms(
        InterferometerGeometry(s.v_over_c, 1.0),
        CutoffSet(omega_uv=s.L_o / s.a_o),
        4.0 * math.pi * s.alpha * s.Q**2,
    )


def gamma_dressed_2slit(s: SlitGeometry) -> float:
    """Dressed decoherence estimate Q^2 (16 alpha / 3 pi) (v/c)^2 ln(L_o/a_o)."""
    return _slit_closed_forms(s).dressed_asymptotic


def gamma_hard_2slit(s: SlitGeometry):
    """Hard-sector estimate, as printed and with the (v/c)^2 factor restored.

    Returns (printed, flagged, ratio): printed is
    Q^2 (8 alpha / 3 pi) [2 ln(L_o/a_o) + (L_o/a_o)^2 / 2]; flagged
    reinstates the (v/c)^2 of the interferometer formula together with the
    halved coefficient, so printed/flagged = 2 (c/v)^2 identically.
    """
    cf = _slit_closed_forms(s)
    printed = cf.hard_asymptotic / s.v_over_c**2
    return printed, cf.hard_halved, printed / cf.hard_halved


def vdw_potential(p: ParticleMirror, regime: str) -> float:
    """Particle-mirror potential in the far (Z_o >> r_o) or near (Z_o << r_o) regime.

    far:  U(Z_o) - (9/16 pi) r_o^3 / (r_o + Z_o)^4
    near: U(Z_o) + (1/3 - 5/pi^2) (pi^3/720) / Z_o   (negative coefficient)
    with U(Z_o) = U_o theta(-Z_o) = 0 for Z_o > 0.  A regime/geometry
    mismatch warns but still evaluates, since both forms are asymptotic.
    """
    if regime == "far":
        if p.Z_o <= p.r_o:
            warnings.warn("far-regime formula used with Z_o <= r_o", stacklevel=2)
        return -(9.0 / (16.0 * math.pi)) * p.r_o**3 / (p.r_o + p.Z_o) ** 4
    if regime == "near":
        if p.Z_o >= p.r_o:
            warnings.warn("near-regime formula used with Z_o >= r_o", stacklevel=2)
        return (1.0 / 3.0 - 5.0 / math.pi**2) * (math.pi**3 / 720.0) / p.Z_o
    raise ValueError("regime must be 'far' or 'near'")


def surface_coupling(p: ParticleMirror) -> float:
    """Particle/surface-mode coupling
    -(sqrt(2) pi^2 / 3) r_o^3 g_o (q^2/Z_o^2) K_2(q Z_o) cos(q X_o)."""
    return (
        -(math.sqrt(2.0) * math.pi**2 / 3.0)
        * p.r_o**3
        * p.g_o
        * (p.q**2 / p.Z_o**2)
        * bessel_k2(p.q * p.Z_o)
        * math.cos(p.q * p.X_o)
    )


def rayleigh_rate(p: ParticleMirror, q_mag: float) -> float:
    """Rayleigh scattering rate (8 pi / 3) ((eps - 1)/(eps + 2))^2 r_o^6 |q|^4."""
    if q_mag <= 0:
        raise ValueError("q_mag must be > 0")
    frac = (p.epsilon - 1.0) / (p.epsilon + 2.0)
    return (8.0 * math.pi / 3.0) * frac**2 * p.r_o**6 * q_mag**4
