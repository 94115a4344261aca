"""Elastic scattering of a Bessel vortex beam on a counterpropagating plane
wave: twisted-state kinematics, closed-form single- and triple-twisted matrix
elements, an independent constraint-solving oracle, and wave-packet-smeared
orbital-helicity intensity maps.

The root namespace holds the input types, the entry points and the errors;
result records and numerical kernels are imported from their own modules.
"""

from .amplitudes import (
    fourier_weight,
    plane_wave_limit_check,
    reduced_triple_amplitude,
    single_twisted_amplitude,
    single_twisted_solutions,
)
from .errors import (
    ConvergenceError,
    DegenerateDirectionError,
    DegenerateJacobianError,
    DegenerateSupportError,
    DomainError,
    SupportRegionError,
)
from .kinematics import (
    CollisionGeometry,
    TwistedState,
    angle_set,
    cone_momentum,
    field_amplitude,
    monochromatic_k_z,
    stripe_contains,
    triangle_geometry,
    vortex_axis,
)
from .numerics import QuadratureSpec, RootFindSpec
from .oracle import draw_support_samples, oracle_amplitude, single_twisted_oracle
from .wavepackets import WavePacketProfile, intensity_map, smeared_amplitude

__version__ = "0.1.0"

__all__ = [
    "CollisionGeometry",
    "ConvergenceError",
    "DegenerateDirectionError",
    "DegenerateJacobianError",
    "DegenerateSupportError",
    "DomainError",
    "QuadratureSpec",
    "RootFindSpec",
    "SupportRegionError",
    "TwistedState",
    "WavePacketProfile",
    "angle_set",
    "cone_momentum",
    "draw_support_samples",
    "field_amplitude",
    "fourier_weight",
    "intensity_map",
    "monochromatic_k_z",
    "oracle_amplitude",
    "plane_wave_limit_check",
    "reduced_triple_amplitude",
    "single_twisted_amplitude",
    "single_twisted_oracle",
    "single_twisted_solutions",
    "smeared_amplitude",
    "stripe_contains",
    "triangle_geometry",
    "vortex_axis",
]
