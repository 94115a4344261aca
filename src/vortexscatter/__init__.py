"""Elastic scattering of a Bessel vortex beam on a counterpropagating plane
wave: twisted-state kinematics, closed-form single- and triple-twisted matrix
elements, an independent constraint-solving oracle, and wave-packet-smeared
orbital-helicity intensity maps.

The root namespace holds the input types, the entry points and the errors;
result records and numerical kernels are imported from their own modules.
"""

from .amplitudes import (
    fourier_weight,
    reduced_triple_amplitude,
    single_twisted_amplitude,
    single_twisted_solutions,
)
from .errors import (
    ConvergenceError,
    DegenerateJacobianError,
    DegenerateSupportError,
    SupportRegionError,
)
from .kinematics import (
    CollisionGeometry,
    TwistedState,
    angle_set,
    field_amplitude,
    stripe_contains,
    triangle_geometry,
)
from .numerics import QuadratureSpec
from .oracle import draw_support_samples, oracle_amplitude
from .wavepackets import WavePacketProfile, intensity_map, smeared_amplitude

__version__ = "0.1.0"

__all__ = [
    "CollisionGeometry",
    "ConvergenceError",
    "DegenerateJacobianError",
    "DegenerateSupportError",
    "QuadratureSpec",
    "SupportRegionError",
    "TwistedState",
    "WavePacketProfile",
    "angle_set",
    "draw_support_samples",
    "field_amplitude",
    "fourier_weight",
    "intensity_map",
    "oracle_amplitude",
    "reduced_triple_amplitude",
    "single_twisted_amplitude",
    "single_twisted_solutions",
    "smeared_amplitude",
    "stripe_contains",
    "triangle_geometry",
]
