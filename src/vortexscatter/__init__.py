"""Elastic scattering of a Bessel vortex beam on a counterpropagating plane
wave: twisted-state kinematics, closed-form single- and triple-twisted matrix
elements, an independent constraint-solving oracle, and wave-packet-smeared
orbital-helicity intensity maps.
"""

from .amplitudes import (
    PlaneWaveLimitReport,
    ReducedAmplitude,
    TwoBodyBranch,
    fourier_weight,
    plane_wave_limit_check,
    reduced_triple_amplitude,
    single_twisted_amplitude,
    single_twisted_solutions,
    unit_imag_power,
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
    AngleSet,
    CollisionGeometry,
    TriangleGeometry,
    TwistedState,
    angle_set,
    cone_momentum,
    field_amplitude,
    monochromatic_k_z,
    stripe_contains,
    tilt_frame,
    triangle_geometry,
    vortex_axis,
)
from .numerics import (
    QuadratureSpec,
    RootFindSpec,
    TorusRoot,
    bessel_j,
    heron_area,
    solve_system,
)
from .oracle import (
    ConstraintSolution,
    OracleResult,
    draw_support_samples,
    oracle_amplitude,
    single_twisted_oracle,
)
from .wavepackets import (
    IntensityMap,
    WavePacketProfile,
    intensity_map,
    smeared_amplitude,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSet",
    "CollisionGeometry",
    "ConstraintSolution",
    "ConvergenceError",
    "DegenerateDirectionError",
    "DegenerateJacobianError",
    "DegenerateSupportError",
    "DomainError",
    "IntensityMap",
    "OracleResult",
    "PlaneWaveLimitReport",
    "QuadratureSpec",
    "ReducedAmplitude",
    "RootFindSpec",
    "SupportRegionError",
    "TorusRoot",
    "TriangleGeometry",
    "TwistedState",
    "TwoBodyBranch",
    "WavePacketProfile",
    "angle_set",
    "bessel_j",
    "cone_momentum",
    "draw_support_samples",
    "field_amplitude",
    "fourier_weight",
    "heron_area",
    "intensity_map",
    "monochromatic_k_z",
    "oracle_amplitude",
    "plane_wave_limit_check",
    "reduced_triple_amplitude",
    "single_twisted_amplitude",
    "single_twisted_oracle",
    "single_twisted_solutions",
    "smeared_amplitude",
    "solve_system",
    "stripe_contains",
    "tilt_frame",
    "triangle_geometry",
    "unit_imag_power",
    "vortex_axis",
]
