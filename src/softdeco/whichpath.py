"""Information-theoretic summary of a decoherence value.

The photon-state overlap is exp(-Gamma); distinguishability and the
visibility bound follow from it exactly and saturate the duality relation
D^2 + V^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["WhichPathSummary", "summarize"]


@dataclass(frozen=True)
class WhichPathSummary:
    overlap: float  # |<R|L>| = exp(-Gamma)
    distinguishability: float  # D = sqrt(1 - exp(-2 Gamma))
    visibility_bound: float  # V_max = exp(-Gamma)
    guess_bound: float  # L_max = (1 + D)/2


def summarize(gamma: float) -> WhichPathSummary:
    """Exact which-path measures for a decoherence value Gamma >= 0.

    D comes from the trace-distance formula at every Gamma; at small Gamma
    it is close to sqrt(2 Gamma), not Gamma.
    """
    if gamma < 0:
        raise ValueError("Gamma must be >= 0")
    overlap = math.exp(-gamma)
    # 1 - exp(-2G) via expm1 to keep D accurate at small Gamma
    dist = math.sqrt(-math.expm1(-2.0 * gamma))
    return WhichPathSummary(
        overlap=overlap,
        distinguishability=dist,
        visibility_bound=overlap,
        guess_bound=0.5 * (1.0 + dist),
    )
