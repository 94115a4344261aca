"""Momentum-cone geometry of a twisted beam colliding with a plane wave.

Conventions (natural units, one shared inverse-length scale):

  * The initial Bessel state propagates along +z; the counterpropagating
    plane wave has p = (0, 0, -k_z), so the average total momentum vanishes.
  * Both final states share the tilted axis z' at polar angle theta in the
    x-z scattering plane; azimuths of the final states are measured from x'.
  * q = k_{1z'} + k_{2z'} is the longitudinal imbalance along z'.

The tilt angle xi is defined through sin(xi) = q / kappa and exists only for
|q| < kappa; momentum conservation restricts it further to |xi| < theta.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDirectionError,
    DomainError,
    SupportRegionError,
)
from .numerics import bessel_j, heron_area

# Triangle areas below this fraction of kappa_tilde^2 count as degenerate:
# the closed-form amplitude carries 1/area and must not silently explode.
STRIPE_DEGENERACY_FLOOR = 1e-9


@dataclass(frozen=True)
class TwistedState:
    """A Bessel mode: transverse momentum modulus kappa, orbital helicity m,
    longitudinal momentum k_z and energy omega, with plane-wave components on
    a cone of opening angle arctan(kappa / k_z).
    """

    kappa: float
    m: int
    k_z: float
    omega: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.kappa, self.k_z, self.omega)):
            raise ValueError("kappa, k_z and omega must be finite")
        scale = max(abs(self.kappa), abs(self.k_z), abs(self.omega))
        if not math.isfinite(scale * scale):  # ** would raise OverflowError below
            raise ValueError("kappa^2, k_z^2 and omega^2 must be finite")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.mass_squared < -1e-9 * self.omega**2:
            raise ValueError("omega^2 must be >= kappa^2 + k_z^2")

    @classmethod
    def massless(cls, kappa: float, m: int, k_z: float) -> "TwistedState":
        return cls(kappa=kappa, m=m, k_z=k_z, omega=math.hypot(kappa, k_z))

    @property
    def mass_squared(self) -> float:
        return self.omega**2 - self.kappa**2 - self.k_z**2

    @property
    def paraxiality(self) -> float:
        """kappa / |k_z|; small for a paraxial beam."""
        if self.k_z == 0.0:
            return math.inf
        return self.kappa / abs(self.k_z)


@dataclass(frozen=True)
class CollisionGeometry:
    """Center-of-mass configuration: tilted-axis angle theta, longitudinal
    imbalance q, the initial twisted state, and the final transverse moduli.
    """

    theta: float
    q: float
    initial: TwistedState
    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.theta, self.q, self.kappa1, self.kappa2)):
            raise ValueError("theta, q and the final transverse moduli must be finite")
        if not 0.0 < self.theta < 0.5 * math.pi:
            raise ValueError("theta must lie in (0, pi/2)")
        if self.kappa1 <= 0.0 or self.kappa2 <= 0.0:
            raise ValueError("final transverse moduli must be positive")


@dataclass(frozen=True)
class AngleSet:
    """Tilt angle xi and the two characteristic azimuths

        phi_star       = arccos(sin xi / sin theta)
        phi_tilde_star = arccos(tan xi / tan theta)

    both in [0, pi], with phi_star <= phi_tilde_star for xi >= 0.
    """

    xi: float
    phi_star: float
    phi_tilde_star: float


@dataclass(frozen=True)
class TriangleGeometry:
    """Transverse-momentum triangle with sides (kappa_tilde, kappa1, kappa2).

    delta1 and delta2 are the inner angles adjacent to the kappa_tilde side:
    cos(delta_i) = (kappa_tilde^2 + kappa_i^2 - kappa_j^2) / (2 kappa_tilde kappa_i).
    Outside the stripe the area and angles are NaN and in_stripe is False;
    exactly on the boundary the area is 0 and degenerate is True.
    """

    kappa_tilde: float
    kappa1: float
    kappa2: float
    area: float
    delta1: float
    delta2: float
    in_stripe: bool
    degenerate: bool


def monochromatic_k_z(omega: float, kappa: float, mass: float = 0.0) -> float:
    """Longitudinal momentum of a mode with energy omega and transverse
    modulus kappa: k_z = sqrt(omega^2 - kappa^2 - mass^2).

    This is the fixed-energy slicing of a packet (k_z varies with kappa so
    the superposition stays monochromatic). The reduced amplitudes depend on
    longitudinal data only through q and theta, so the smearing pipeline
    slices at fixed q; this helper covers the complementary convention.
    """
    arg = omega * omega - kappa * kappa - mass * mass
    if arg < 0.0:
        raise DomainError(
            f"no real k_z: omega^2 - kappa^2 - mass^2 = {arg} is negative"
        )
    return math.sqrt(arg)


def tilt_frame(theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal basis (x', y', z') of the axis tilted by theta in the x-z
    plane: x' = (cos t, 0, -sin t), y' = y, z' = (sin t, 0, cos t)."""
    st, ct = math.sin(theta), math.cos(theta)
    return np.array([ct, 0.0, -st]), np.array([0.0, 1.0, 0.0]), np.array([st, 0.0, ct])


def cone_momentum(state: TwistedState, phi: float, axis_theta: float) -> np.ndarray:
    """Momentum on the state's cone at azimuth phi about an axis tilted by
    axis_theta in the x-z plane: k = k_z z' + kappa (cos phi x' + sin phi y').
    """
    ex, ey, ez = tilt_frame(axis_theta)
    return state.k_z * ez + state.kappa * (math.cos(phi) * ex + math.sin(phi) * ey)


def angle_set(geom: CollisionGeometry) -> AngleSet:
    """Tilt angle and characteristic azimuths for a collision geometry.

    Raises DomainError when |q| >= kappa (xi undefined) and
    SupportRegionError when |q / kappa| >= sin(theta) (outside the allowed
    region; the boundary is excluded).
    """
    kappa = geom.initial.kappa
    if abs(geom.q) >= kappa:
        raise DomainError(f"xi undefined: |q| = {abs(geom.q)} >= kappa = {kappa}")
    sin_t = math.sin(geom.theta)
    sin_xi = geom.q / kappa
    # decided on the rounded sin(xi) the formulas use: one ulp inside
    # |q| < kappa sin(theta), q / kappa can still round up to sin(theta)
    if abs(sin_xi) >= sin_t:
        raise SupportRegionError(
            f"outside allowed q region: |q| / kappa = {abs(sin_xi)} >= sin(theta) = {sin_t}"
        )
    xi = math.asin(sin_xi)
    phi_star = math.acos(sin_xi / sin_t)
    phi_tilde_star = math.acos(min(1.0, max(-1.0, math.tan(xi) / math.tan(geom.theta))))
    return AngleSet(xi=xi, phi_star=phi_star, phi_tilde_star=phi_tilde_star)


def stripe_contains(kappa_tilde: float, kappa1: float, kappa2: float) -> bool:
    """Strict triangle condition |kappa1 - kappa2| < kappa_tilde < kappa1 + kappa2.

    The boundary is excluded: the amplitude carries the inverse triangle area,
    which diverges there.
    """
    if kappa_tilde <= 0.0 or kappa1 <= 0.0 or kappa2 <= 0.0:
        raise ValueError("all moduli must be positive")
    return abs(kappa1 - kappa2) < kappa_tilde < kappa1 + kappa2


def triangle_geometry(
    kappa: float, xi: float, kappa1: float, kappa2: float
) -> TriangleGeometry:
    """Triangle data for sides (kappa cos(xi), kappa1, kappa2)."""
    if kappa <= 0.0 or kappa1 <= 0.0 or kappa2 <= 0.0:
        raise ValueError("all moduli must be positive")
    kt = kappa * math.cos(xi)
    area = heron_area(kt, kappa1, kappa2)
    inside = stripe_contains(kt, kappa1, kappa2)
    if math.isnan(area):
        return TriangleGeometry(kt, kappa1, kappa2, math.nan, math.nan, math.nan, False, False)
    c1 = (kt * kt + kappa1 * kappa1 - kappa2 * kappa2) / (2.0 * kt * kappa1)
    c2 = (kt * kt + kappa2 * kappa2 - kappa1 * kappa1) / (2.0 * kt * kappa2)
    delta1 = math.acos(min(1.0, max(-1.0, c1)))
    delta2 = math.acos(min(1.0, max(-1.0, c2)))
    return TriangleGeometry(
        kappa_tilde=kt,
        kappa1=kappa1,
        kappa2=kappa2,
        area=area,
        delta1=delta1,
        delta2=delta2,
        in_stripe=inside,
        degenerate=(area == 0.0),
    )


def vortex_axis(mean_initial: np.ndarray, p: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Unit vector along <k> + p - k2, the direction of exactly vanishing
    scattering for the first final particle (its phase-vortex line). The same
    formula with indices swapped serves the second particle.
    """
    n = np.asarray(mean_initial, dtype=float) + np.asarray(p, dtype=float) - np.asarray(k2, dtype=float)
    norm = float(np.linalg.norm(n))
    scale = max(
        float(np.linalg.norm(mean_initial)),
        float(np.linalg.norm(p)),
        float(np.linalg.norm(k2)),
        1.0,
    )
    if norm <= 1e-14 * scale:
        raise DegenerateDirectionError("vortex axis undefined: <k> + p - k2 is the zero vector")
    return n / norm


def mode_field(m: int, kappas, radii, azimuths) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each radius in turn, the real and imaginary parts of
    e^{i m phi} J_m(kappa r) sqrt(kappa / 2 pi) as (kappa x azimuth) arrays,
    from one bessel_j call per kappa. (phase * radial) * scale is written out
    in real arithmetic as z * x = z * (x + 0j), whose zero terms set the
    signs of zero results."""
    order = abs(m)
    scale = np.array([math.sqrt(k / (2.0 * math.pi)) for k in kappas])[:, None]
    cos_m = np.array([math.cos(m * phi) for phi in azimuths])
    sin_m = np.array([math.sin(m * phi) for phi in azimuths])
    for r in radii:
        radial = np.array([bessel_j(order, k * r) for k in kappas])[:, None]
        if m < 0 and order % 2 == 1:  # J_{-m} = (-1)^m J_m
            radial = -radial
        re, im = cos_m * radial - sin_m * 0.0, cos_m * 0.0 + sin_m * radial
        yield re * scale - im * 0.0, re * 0.0 + im * scale


def field_amplitude(state: TwistedState, r: float, phi_r: float) -> complex:
    """Transverse Bessel mode e^{i m phi} J_m(kappa r) sqrt(kappa / 2 pi).

    Time and longitudinal phases are factored out. Negative helicity uses
    J_{-m}(x) = (-1)^m J_m(x).
    """
    if r < 0.0:
        raise ValueError("r must be non-negative")
    ((re, im),) = mode_field(state.m, [state.kappa], [r], [phi_r])
    return complex(re.item(), im.item())
