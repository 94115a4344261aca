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
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import SupportRegionError
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
        if not isinstance(self.m, numbers.Integral):
            raise ValueError("m must be an integer")
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
        scale = max(abs(self.kappa1), abs(self.kappa2))
        if not math.isfinite(scale * scale):  # scale ** 2 would raise OverflowError
            raise ValueError("the squares of the final transverse moduli must be finite")
        if not 0.0 < self.theta < 0.5 * math.pi:
            raise ValueError("theta must lie in (0, pi/2)")
        if self.kappa1 <= 0.0 or self.kappa2 <= 0.0:
            raise ValueError("final transverse moduli must be positive")


@dataclass(frozen=True)
class AngleSet:
    """Tilt angle xi and the two characteristic azimuths, in [0, pi] and
    phi_star <= phi_tilde_star for xi >= 0, with root = sqrt(sin^2 theta - sin^2 xi):

        phi_star       = arccos(sin xi / sin theta) = atan2(root, sin xi)
        phi_tilde_star = arccos(tan xi / tan theta) = atan2(root, sin xi cos theta)

    as sin phi_star = root / sin theta and tan phi_tilde_star = root / (sin xi cos theta).
    """

    xi: float
    phi_star: float
    phi_tilde_star: float
    root: float


@dataclass(frozen=True)
class TriangleGeometry:
    """Transverse-momentum triangle with sides (kappa_tilde, kappa1, kappa2),
    kappa1 and kappa2 the moduli passed to triangle_geometry.

    delta1 and delta2 are the inner angles adjacent to the kappa_tilde side:
    cos(delta_i) = (kappa_tilde^2 + kappa_i^2 - kappa_j^2) / (2 kappa_tilde kappa_i).
    Outside the stripe the area and angles are NaN and in_stripe is False;
    exactly on the boundary in_stripe is False and the area 0. degenerate is
    True wherever the area is 0, also inside the stripe once it underflows.
    """

    kappa_tilde: float
    area: float
    delta1: float
    delta2: float
    in_stripe: bool
    degenerate: bool


def tilt_frame(theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal basis (x', y', z') of the axis tilted by theta in the x-z
    plane: x' = (cos t, 0, -sin t), y' = y, z' = (sin t, 0, cos t)."""
    st, ct = math.sin(theta), math.cos(theta)
    return np.array([ct, 0.0, -st]), np.array([0.0, 1.0, 0.0]), np.array([st, 0.0, ct])


def angle_set(geom: CollisionGeometry) -> AngleSet:
    """AngleSet of a collision geometry: one root, of a difference times a
    sum, and both azimuths atan2 of it, so they keep their digits near the
    edge |q| -> kappa sin(theta), where an arccos of the ratio loses half.

    Raises SupportRegionError when |q / kappa| >= sin(theta) (outside the
    allowed region; the boundary is excluded). That covers |q| >= kappa,
    where xi is undefined: there |q / kappa| >= 1 >= sin(theta).
    """
    sin_t = math.sin(geom.theta)
    sin_xi = geom.q / geom.initial.kappa
    # decided on the rounded sin(xi) the formulas use: one ulp inside
    # |q| < kappa sin(theta), q / kappa can still round up to sin(theta)
    if abs(sin_xi) >= sin_t:
        raise SupportRegionError(
            f"outside allowed q region: |q| / kappa = {abs(sin_xi)} >= sin(theta) = {sin_t}"
        )
    root = math.sqrt((sin_t - sin_xi) * (sin_t + sin_xi))
    phi_star = math.atan2(root, sin_xi)
    phi_tilde_star = math.atan2(root, sin_xi * math.cos(geom.theta))
    return AngleSet(math.asin(sin_xi), phi_star, phi_tilde_star, root)


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
    """Triangle data for sides (kappa cos(xi), kappa1, kappa2).

    Inner angles are atan2(4 area, cosine-law numerator), within a few ulps
    also near 0 and pi, on the sides scaled exactly by 2^-e, e the exponent
    of the longest side, and on their own area, so the squares stay in range
    wherever heron_area's do.
    """
    kt = kappa * math.cos(xi)
    inside = stripe_contains(kt, kappa1, kappa2)
    area = heron_area(kt, kappa1, kappa2)
    if math.isnan(area):
        return TriangleGeometry(kt, math.nan, math.nan, math.nan, False, False)
    e = math.frexp(max(kt, kappa1, kappa2))[1]
    a, b, c = (math.ldexp(s, -e) for s in (kt, kappa1, kappa2))
    four_area = 4.0 * heron_area(a, b, c)
    delta1 = math.atan2(four_area, a * a + (b - c) * (b + c))
    delta2 = math.atan2(four_area, a * a + (c - b) * (c + b))
    return TriangleGeometry(
        kappa_tilde=kt,
        area=area,
        delta1=delta1,
        delta2=delta2,
        in_stripe=inside,
        degenerate=(area == 0.0),
    )


def mode_field(m: int, kappas, radii, azimuths) -> Iterator[np.ndarray]:
    """For each radius in turn, e^{i m phi} J_m(kappa r) sqrt(kappa / 2 pi) as
    one complex (kappa x azimuth) array, phase * radial * scale. One bessel_j
    call takes the whole (radius x kappa) grid of arguments r * kappa, which
    are bit for bit kappa * r."""
    order = abs(m)
    scale = np.array([math.sqrt(k / (2.0 * math.pi)) for k in kappas])[:, None]
    phase = np.array([complex(math.cos(m * phi), math.sin(m * phi)) for phi in azimuths])
    radial = bessel_j(order, np.asarray(radii)[:, None] * np.asarray(kappas)[None, :])
    if m < 0 and order % 2 == 1:  # J_{-m} = (-1)^m J_m
        radial = -radial
    for row in radial:
        yield phase * row[:, None] * scale


def field_amplitude(state: TwistedState, r: float, phi_r: float) -> complex:
    """Transverse Bessel mode e^{i m phi} J_m(kappa r) sqrt(kappa / 2 pi).

    Time and longitudinal phases are factored out. Negative helicity uses
    J_{-m}(x) = (-1)^m J_m(x). One bessel_j call per point: sample a grid
    with mode_field.
    """
    if r < 0.0:
        raise ValueError("r must be non-negative")
    (z,) = mode_field(state.m, [state.kappa], [r], [phi_r])
    return complex(z.item())
