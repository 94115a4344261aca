"""Closed-form scattering matrix elements for twisted states.

The dynamical amplitude is treated as a constant M0 (paraxial approximation:
it varies slowly over the momentum cones and is taken at the mean momenta)
and factored out: every amplitude here is in units of M0, so everything below
is pure kinematics of the momentum deltas.

Single-twisted element (initial beam twisted, both finals projected on plane
waves), with k12 = k1_perp + k2_perp:

    S ~ (-i)^m e^{i m phi12} delta(kappa - k12) / ((2 pi)^{3/2} sqrt(kappa))

Triple-twisted reduced element (both finals twisted, azimuths measured about
each particle's own mean propagation direction from the shared x' axis), with
the overall factor i delta(E_f - E_i) / sqrt(2 pi) dropped by convention:

    S~ = i^{m1+m2-m} (2/Delta) sqrt(kappa1 kappa2 / kappa)
         cos[m phi* - (m1 - m2) phi~*] cos[m1 delta1 + m2 delta2]
         / sqrt(sin^2 theta - sin^2 xi)

supported on |xi| < theta and on the open stripe
|kappa1 - kappa2| < kappa cos(xi) < kappa1 + kappa2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateSupportError, SupportRegionError
from .kinematics import (
    STRIPE_DEGENERACY_FLOOR,
    AngleSet,
    CollisionGeometry,
    TriangleGeometry,
    TwistedState,
    angle_set,
    triangle_geometry,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_RADIAL_SUPPORT_RTOL = 1e-9
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def unit_imag_power(n: int) -> complex:
    """i**n, exact for any integer n."""
    return _I_POWERS[n % 4]


@dataclass(frozen=True)
class ReducedAmplitude:
    """Triple-twisted reduced matrix element, with the angles and the
    triangle it was evaluated on (both None outside the q region).

    value / i**phase_power is real whenever in_support is True; the value is
    identically 0 when in_support is False.
    """

    value: complex
    phase_power: int
    angles: AngleSet | None
    triangle: TriangleGeometry | None

    @property
    def in_support(self) -> bool:
        return self.triangle is not None and self.triangle.in_stripe


class SingleTwistedValue(NamedTuple):
    smooth: complex
    on_support: bool


@dataclass(frozen=True)
class TwoBodyBranch:
    """One branch of the two-solution single-twisted geometry."""

    phi1: float
    phi12: float
    degenerate: bool = False


def fourier_weight(kappa: float, m: int, k_azimuth: float) -> complex:
    """Smooth factor (-i)^m e^{i m phi} sqrt(2 pi) / sqrt(kappa) of a Bessel
    state's plane-wave decomposition at azimuth phi on its cone.

    The radial delta itself is handled analytically by callers.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    return (
        unit_imag_power(-m)
        * complex(math.cos(m * k_azimuth), math.sin(m * k_azimuth))
        * _SQRT_2PI
        / math.sqrt(kappa)
    )


def single_twisted_solutions(
    kappa: float, k1_mod: float, k2_mod: float, phi2: float
) -> list[TwoBodyBranch]:
    """Both azimuth solutions of the single-twisted transverse geometry.

    With the second final transverse momentum fixed at modulus k2 and azimuth
    phi2, and the first constrained to modulus k1, the cone condition
    |k1 + k2| = kappa closes the triangle (kappa, k1, k2) of
    triangle_geometry, the one the triple-twisted element reads. Its inner
    angles delta1, delta2 at the kappa side give two mirror branches

        phi1 = phi2 +/- (delta1 + delta2),   phi12 = phi2 +/- delta2

    with correlated signs, the + branch first. Exactly on the stripe boundary
    kappa = k1 + k2 or |k1 - k2| there is one branch, flagged degenerate;
    outside it the circles do not intersect and SupportRegionError is raised.
    """
    tri = triangle_geometry(kappa, 0.0, k1_mod, k2_mod)
    if math.isnan(tri.area):
        raise SupportRegionError(
            "no transverse-momentum solution: "
            f"kappa = {kappa} outside [{abs(k1_mod - k2_mod)}, {k1_mod + k2_mod}]"
        )
    degenerate = not tri.in_stripe  # exactly on the boundary
    turn = tri.delta1 + tri.delta2
    signs = (1,) if degenerate else (1, -1)
    return [TwoBodyBranch(phi2 + s * turn, phi2 + s * tri.delta2, degenerate) for s in signs]


def single_twisted_amplitude(
    state: TwistedState,
    k12_mod: float,
    phi12: float,
) -> SingleTwistedValue:
    """Single-twisted element: smooth part of the radial delta at k12 = kappa.

    Off the radial support, a band of 1e-9 kappa about k12 = kappa, the value
    is exactly 0; in particular back-to-back final transverse momenta
    (k12 = 0) never scatter, for any helicity and kappa. That zero is the
    phase vortex of the outgoing wave.
    """
    if not k12_mod >= 0.0:
        raise ValueError("k12_mod must be non-negative")
    on = abs(k12_mod - state.kappa) <= _RADIAL_SUPPORT_RTOL * state.kappa
    if not on:
        return SingleTwistedValue(0j, False)
    m = state.m
    phase = unit_imag_power(-m) * complex(math.cos(m * phi12), math.sin(m * phi12))
    smooth = phase / ((2.0 * math.pi) ** 1.5 * math.sqrt(state.kappa))
    return SingleTwistedValue(smooth, True)


def reduced_triple_amplitude(
    geom: CollisionGeometry,
    m: int,
    m1: int,
    m2: int,
) -> ReducedAmplitude:
    """Reduced triple-twisted matrix element (module docstring formula).

    The helicity is the m argument; of geom.initial only kappa is read.
    The record carries the angle_set and triangle_geometry it read. Returns
    value 0 with in_support False outside |xi| < theta, where both are None,
    or outside the open stripe. Inside the stripe, a triangle area that is 0
    or below STRIPE_DEGENERACY_FLOOR * kappa_tilde^2 raises
    DegenerateSupportError rather than returning a huge value (or dividing by
    0 once kappa_tilde^2 underflows).
    """
    phase_power = m1 + m2 - m
    kappa = geom.initial.kappa
    try:
        angles = angle_set(geom)
    except SupportRegionError:
        return ReducedAmplitude(0j, phase_power, None, None)
    tri = triangle_geometry(kappa, angles.xi, geom.kappa1, geom.kappa2)
    if not tri.in_stripe:
        return ReducedAmplitude(0j, phase_power, angles, tri)
    if tri.degenerate or tri.area < STRIPE_DEGENERACY_FLOOR * tri.kappa_tilde**2:
        raise DegenerateSupportError(
            f"triangle area {tri.area} below degeneracy floor inside the stripe"
        )
    # one root per modulus: kappa1 kappa2 / kappa can overflow where the amplitude is finite
    magnitude = (
        (2.0 / tri.area)
        * (math.sqrt(geom.kappa1) * math.sqrt(geom.kappa2) / math.sqrt(kappa))
        * math.cos(m * angles.phi_star - (m1 - m2) * angles.phi_tilde_star)
        * math.cos(m1 * tri.delta1 + m2 * tri.delta2)
        / angles.root
    )
    # + 0.0 turns the -0.0 component of a purely real or imaginary value into
    # 0.0, so the signed zeros in `eval` output stay as they have always been
    value = unit_imag_power(phase_power) * magnitude + 0.0
    return ReducedAmplitude(value, phase_power, angles, tri)
