"""Brute-force evaluation of the triple-twisted matrix element.

The three-dimensional momentum delta fixes the three azimuths (phi, phi1,
phi2) of the cone momenta. This module solves those constraints numerically
(multi-start Newton on _constraint_system, the residual with its closed-form
Jacobian, which also gives the determinants) and sums the plane-wave
decomposition weights over the solutions with inverse-|Jacobian| factors:

    amplitude = sum_roots  a(kappa, m; phi) a*(kappa1, m1; phi1) a*(kappa2, m2; phi2)
                           * kappa kappa1 kappa2 / |det dF/d(phi, phi1, phi2)|

in units of M0, where the kappa_i product is the radial measure collected by
the cone deltas.
None of the closed-form ingredients (phi*, triangle area, inner angles) are
reused here; that independence is the point.

Azimuth conventions: phi winds about +z (the initial beam direction), phi1
about +z' and phi2 about the second particle's own mean direction -z', all
measured from their frame's in-plane x axis. In the tilted frame the second
particle's azimuth is therefore -phi2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import fourier_weight
from .errors import DegenerateJacobianError
from .kinematics import CollisionGeometry, TwistedState, tilt_frame
from .numerics import solve_system


@dataclass(frozen=True)
class ConstraintSolution:
    """One solved azimuth triple with the |Jacobian determinant| of the raw
    (unnormalized) conservation residual."""

    phi: float
    phi1: float
    phi2: float
    jacobian_det: float


@dataclass(frozen=True)
class OracleResult:
    solutions: tuple[ConstraintSolution, ...]
    amplitude: complex


def _constraint_system(geom: CollisionGeometry):
    """solve_system's system for one geometry: (N, 3) batches of
    (phi, phi1, phi2) triples -> the conservation residual
    (k(phi) + p - k1(phi1) - k2(phi2)) / kappa with p = (0, 0, -k_z) as
    (N, 3), and its exact Jacobian d residual_i / d (phi, phi1, phi2)_j as
    (N, 3, 3), the derivative of the same cos/sin sum over kappa. Both come
    from one cos and one sin of the points.

    The work runs on (angle, component, point) arrays, one loop over the N
    points per numpy call, and both results are transposed views. Each value
    is bit for bit that of the per-vector sums kappa_i (cos phi_i u_i +
    sin phi_i v_i) over the frames' unit vectors: a - b rounds as a + (-b).
    """
    kappa, kappa1, kappa2 = geom.initial.kappa, geom.kappa1, geom.kappa2
    ex, ey, ez = tilt_frame(geom.theta)
    gx = np.array([1.0, 0.0, 0.0])  # initial azimuth is measured from global x
    gy = np.array([0.0, 1.0, 0.0])
    # unit vectors of cos and sin in k, k1 and k2 (own-frame azimuth -phi2),
    # and in their derivatives; kappa_i stays the last factor of each term
    cos_units, sin_units, d_sin_units, d_cos_units = np.array(
        [(gx, ex, ex), (gy, ey, -ey), (-gx, ex, ex), (gy, -ey, ey)]
    )[..., None]
    kappas = np.array([kappa, kappa1, kappa2])[:, None, None]
    # only q = k_{1z'} + k_{2z'} enters, never the longitudinal scale
    offset = (geom.q * ez)[:, None]

    def system(points):
        shape = np.shape(points)
        angles = np.reshape(points, (-1, 3)).T
        cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
        momenta = (cos * cos_units + sin * sin_units) * kappas  # k + p: the k_z parts cancel
        residual = (momenta[0] - momenta[1] - momenta[2] - offset) / kappa
        deriv = (sin * d_sin_units + cos * d_cos_units) * kappas / kappa
        return residual.T.reshape(shape), deriv.transpose(2, 1, 0).reshape(shape + (3,))

    return system


def oracle_amplitude(
    geom: CollisionGeometry,
    m: int,
    m1: int,
    m2: int,
) -> OracleResult:
    """Sum the decomposition weights over all constraint solutions.

    Only geom.q enters the constraints, never the beam's k_z. The helicity
    is the m argument; of geom.initial only kappa is read.
    Out-of-support geometries simply produce no roots and an amplitude of 0.
    A solution with singular Jacobian raises DegenerateJacobianError: the
    configuration sits too close to a support boundary for the inverse-
    Jacobian weight to mean anything.
    """
    kappa, kappa1, kappa2 = geom.initial.kappa, geom.kappa1, geom.kappa2
    roots, degenerate = solve_system(_constraint_system(geom))
    if degenerate:
        raise DegenerateJacobianError(
            f"{len(degenerate)} constraint solution(s) with singular Jacobian; "
            "configuration too close to the stripe boundary"
        )

    terms = []
    solutions = []
    for root in roots:
        phi, phi1, phi2 = (float(v) for v in root.angles)
        w0 = fourier_weight(kappa, m, phi)
        w1 = fourier_weight(kappa1, m1, phi1).conjugate()
        w2 = fourier_weight(kappa2, m2, phi2).conjugate()
        det_raw = root.jacobian_det * kappa**3  # undo the residual normalization
        terms.append(w0 * w1 * w2 * (kappa * kappa1 * kappa2) / det_raw)
        solutions.append(ConstraintSolution(phi, phi1, phi2, det_raw))
    # exactly rounded sums, so the root order, which the last bit of a paired
    # root's angles can flip, does not reach the amplitude's bits
    amplitude = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return OracleResult(solutions=tuple(solutions), amplitude=amplitude)


def draw_support_samples(
    rng: np.random.Generator,
    count: int,
    theta: float = 0.2,
    cos_floor: float = 0.1,
) -> list[tuple[CollisionGeometry, int, int, int]]:
    """Seeded in-support configurations for oracle/closed-form comparisons.

    kappa is uniform on [0.6, 1.8], the beam's k_z is 40 kappa and m, m1, m2
    are uniform on -6..6. Triangles are built from their inner angles (law of
    sines), so samples are in-stripe by construction, with |xi| < 0.9 theta,
    area > 0.05 kappa_tilde^2 and kappa1, kappa2 in (0.05, 5) kappa_tilde.
    Samples where either amplitude cosine falls below cos_floor are rejected:
    there the element vanishes and the ratio of the two evaluations
    degenerates to 0/0.
    """
    samples = []
    sin_t, tan_t = math.sin(theta), math.tan(theta)
    while len(samples) < count:
        kappa = rng.uniform(0.6, 1.8)
        xi = 0.9 * theta * rng.uniform(-1.0, 1.0)
        q = kappa * math.sin(xi)
        kt = kappa * math.cos(xi)
        d1 = rng.uniform(0.15, math.pi - 0.3)
        hi = math.pi - d1 - 0.15
        if hi <= 0.15:
            continue
        d2 = rng.uniform(0.15, hi)
        s12 = math.sin(d1 + d2)
        kappa1 = kt * math.sin(d2) / s12
        kappa2 = kt * math.sin(d1) / s12
        area = 0.5 * kt * kappa1 * math.sin(d1)
        if area <= 0.05 * kt * kt:
            continue
        if not (0.05 * kt < kappa1 < 5.0 * kt and 0.05 * kt < kappa2 < 5.0 * kt):
            continue
        m, m1, m2 = (int(v) for v in rng.integers(-6, 7, 3))
        phi_star = math.acos(math.sin(xi) / sin_t)
        phi_tilde = math.acos(math.tan(xi) / tan_t)
        if abs(math.cos(m * phi_star - (m1 - m2) * phi_tilde)) < cos_floor:
            continue
        if abs(math.cos(m1 * d1 + m2 * d2)) < cos_floor:
            continue
        initial = TwistedState.massless(kappa, m, 40.0 * kappa)
        geom = CollisionGeometry(theta=theta, q=q, initial=initial, kappa1=kappa1, kappa2=kappa2)
        samples.append((geom, m, m1, m2))
    return samples
