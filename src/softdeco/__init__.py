"""Infrared-photon decoherence of a charged particle on two interferometer paths.

The package splits the radiated current of a piecewise-linear worldline
into divergent, sub-leading and hard soft pieces, integrates the resulting
decoherence functionals against independent closed forms, and converts
them into which-path observables and desk-scale estimates.
"""

from .kinematics import (
    FourVector,
    PhotonMomentum,
    WorldlineSegment,
    Worldline,
    InterferometerGeometry,
    four_velocity,
    build_interferometer,
)
from .currents import (
    SoftCurrentTriple,
    current_fourier,
    soft_decompose,
    soft_factors,
    delta_current,
    delta_current_parts,
    dipole_coefficients,
)
from .numerics import (
    EULER_GAMMA,
    FINE_STRUCTURE_ALPHA,
    E2_ELECTRON,
    QuadratureSpec,
    QuadratureResult,
    cosine_integral,
    atanh_over_x,
    bessel_k2,
    sphere_integrate,
    freq_integrate,
)
from .decoherence import (
    IRDivergenceError,
    CutoffSet,
    ClosedForms,
    DecoherenceReport,
    DivergenceFit,
    gamma_kernel,
    angular_bracket,
    angular_integral,
    VARIANTS,
    gamma,
    closed_forms,
    decoherence_report,
    divergence_coefficient,
)
from .whichpath import WhichPathSummary, summarize
from .experiment import (
    SlitGeometry,
    ParticleMirror,
    slit_acceleration,
    gamma_dressed_2slit,
    gamma_hard_2slit,
    vdw_potential,
    surface_coupling,
    rayleigh_rate,
)

__version__ = "0.1.0"
