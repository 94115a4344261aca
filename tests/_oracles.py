"""Independent reference implementations used only by the tests.

Most deliberately avoid the package's own code paths: the Bessel series and
integral representation, an adaptive panel quadrature, a bisection solver for
the two-circle intersection, central-difference Jacobians with a Richardson-
extrapolated determinant, and a certified root witness on the 3-torus
(certified_roots: box exclusion by a Lipschitz bound, then the Krawczyk
test) with its own conservation residual, Jacobian and amplitude bounds,
written out by components from the README conventions, not taken from the
oracle's system.

The rest are witnesses that share a package algorithm or call a few package
kernels on purpose:

  * per_vector_system, the oracle's constraint residual and Jacobian as
    per-vector sums over tilt_frame's unit vectors, is the bit-for-bit
    witness of oracle._constraint_system, which forms the same float
    operations on long point rows;
  * explicit_newton_step, Cramer's rule with each cofactor product, sum and
    quotient written out as one fresh array, is the bit-for-bit witness of
    numerics._newton_step, which forms the same float operations in place;
  * scalar_bessel_j, the one-argument power series and Miller recurrence
    with the package's dispatch and constants, is the bit-for-bit witness of
    the lane-parallel bessel_j; the per-point field formula takes J_m from
    it, so that the field can be compared bit for bit;
  * stripe_substitution, the stripe rule kappa1^2 = a + (b - a) sin^2 w on
    its own, is the witness of wavepackets._triangle, which applies the rule
    inline from the angle w (the cosine-law triangle of test_wavepackets
    builds on it);
  * plane_wave_limit_check (with LimitEntry and PlaneWaveLimitReport) checks
    the second-particle plane-wave limit kappa2 -> 0 of the closed form by
    its own stripe quadrature; it takes the angles from angle_set and its
    nodes from gauss_legendre_on;
  * single_twisted_oracle, the single-twisted element by the delta reduction
    in two dimensions, takes the decomposition weight from fourier_weight
    and makes its own on-cone test;
  * q_sum_intensity, one map cell as a plain Gauss-Legendre sum in q of
    smeared_amplitude's |A(q)|^2, is the witness of intensity_map's q rule,
    parity fold and helicity-grid contraction; it shares only the slice
    axes and the triangle with the map.

wide_support_samples draws in-support geometries far past the oracle's own
sampler (needle triangles, xi near theta), on which a denser start grid
checks that the oracle's default one loses no root.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from vortexscatter.amplitudes import fourier_weight, unit_imag_power
from vortexscatter.errors import ConvergenceError
from vortexscatter.kinematics import CollisionGeometry, TwistedState, angle_set, tilt_frame
from vortexscatter.numerics import _MILLER_PAD, _SERIES_CUTOFF, QuadratureSpec, gauss_legendre_on
from vortexscatter.wavepackets import smeared_amplitude

_PLANE_WAVE_NODES = 128  # Gauss-Legendre nodes on the w axis of the kappa1 stripe


def bessel_series(m: int, x: float, terms: int = 120) -> float:
    """Plain truncated power series; float64-reliable only when the terms
    never grow (x <= ~10, or order-dominated x^2 <= 2(m+1))."""
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    term = math.exp(m * math.log(0.5 * x) - math.lgamma(m + 1.0))
    total = term
    q = 0.25 * x * x
    for k in range(1, terms):
        term *= -q / (k * (m + k))
        total += term
    return total


def bessel_integral(m: int, x: float, nodes: int = 800) -> float:
    """J_m(x) = (1/pi) Integral_0^pi cos(m t - x sin t) dt by Gauss-Legendre."""
    tau, sin_tau, weights = _integral_rule(nodes)
    return float(np.sum(weights * np.cos(m * tau - x * sin_tau)) / math.pi)


@functools.cache
def _integral_rule(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes tau on [0, pi], sin(tau) and the weights of bessel_integral, built
    once per node count (leggauss(800) takes tens of milliseconds)."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    tau = 0.5 * math.pi * (t + 1.0)
    rule = (tau, np.sin(tau), 0.5 * math.pi * w)
    for array in rule:
        array.flags.writeable = False
    return rule


def scalar_bessel_j(m: int, x: float) -> float:
    """J_m(x) one argument at a time, by the float operations that bessel_j
    performs on each of its lanes."""
    if 0.5 * x == 0.0:  # x = 0, or the smallest subnormal, whose half rounds to 0
        return 1.0 if m == 0 else 0.0
    if x <= _SERIES_CUTOFF or x * x <= 2.0 * (m + 1):
        return _bessel_series(m, x)
    return _bessel_miller(m, x)


def _bessel_series(m: int, x: float) -> float:
    # First term via logs; (x/2)^m alone can overflow long before the term does.
    log_first = m * math.log(0.5 * x) - math.lgamma(m + 1.0)
    if log_first < -745.0:  # underflows to zero anyway
        return 0.0
    term = math.exp(log_first)
    total = term
    quarter_x2 = 0.25 * x * x
    for k in range(1, 400):
        term *= -quarter_x2 / (k * (m + k))
        total += term
        if abs(term) <= 1e-17 * abs(total) + 5e-324:
            break
    return total


def _bessel_miller(m: int, x: float) -> float:
    start = max(m, int(math.ceil(x))) + _MILLER_PAD + 2 * int(math.sqrt(max(m, x)))
    if start % 2:
        start += 1
    j_up = 0.0  # J_{k+1}
    j_cur = 1e-30  # J_k, arbitrary seed
    norm = 2.0 * j_cur if start >= 2 else j_cur
    saved = j_cur if m == start else 0.0
    for k in range(start, 0, -1):
        j_down = (2.0 * k / x) * j_cur - j_up
        j_up = j_cur
        j_cur = j_down
        if abs(j_cur) > 1e250:
            j_cur *= 1e-250
            j_up *= 1e-250
            norm *= 1e-250
            saved *= 1e-250
        idx = k - 1
        if idx == 0:
            norm += j_cur
        elif idx % 2 == 0:
            norm += 2.0 * j_cur
        if idx == m:
            saved = j_cur
    return saved / norm


def _times_real(re: float, im: float, x: float) -> tuple[float, float]:
    """(re + i im)(x + 0i) = (re x - im 0) + i(re 0 + im x), the complex-by-float
    product as CPython 3.11 forms it, signed zeros included, written out so
    that it does not change with the Python version."""
    return re * x - im * 0.0, re * 0.0 + im * x


def per_point_field(m: int, kappa: float, r: float, phi: float) -> complex:
    """e^{i m phi} J_m(kappa r) sqrt(kappa / 2 pi), phase * radial * scale,
    one point and one mode at a time."""
    radial = scalar_bessel_j(abs(m), kappa * r)
    if m < 0 and abs(m) % 2 == 1:
        radial = -radial
    re, im = _times_real(math.cos(m * phi), math.sin(m * phi), radial)
    return complex(*_times_real(re, im, math.sqrt(kappa / (2.0 * math.pi))))


def adaptive_open_quadrature(f, a: float, b: float, levels: int = 60, nodes: int = 24) -> float:
    """Open-interval integration with panels shrinking geometrically toward
    both endpoints, for integrands with integrable endpoint singularities.
    The innermost slivers (width ~ 2^-levels) are dropped; for inverse-
    square-root endpoints their mass is ~ 2^(-levels/2)."""
    x, w = np.polynomial.legendre.leggauss(nodes)

    def panel(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return float(half * np.sum(w * np.array([f(mid + half * t) for t in x])))

    mid = 0.5 * (a + b)
    total = 0.0
    for k in range(levels):
        outer = 0.5**k
        inner = 0.5 ** (k + 1)
        total += panel(a + (mid - a) * inner, a + (mid - a) * outer)
        total += panel(b - (b - mid) * outer, b - (b - mid) * inner)
    return total


def circle_intersection_azimuths(kappa, k1, k2, phi2, iters=90):
    """Both azimuths phi1 with |k1 e(phi1) + k2 e(phi2)| = kappa, by bisection
    of the monotone modulus on each half-turn; also the azimuths of the sums."""

    def modulus(phi1):
        sx = k1 * math.cos(phi1) + k2 * math.cos(phi2)
        sy = k1 * math.sin(phi1) + k2 * math.sin(phi2)
        return math.hypot(sx, sy)

    out = []
    for lo, hi in ((phi2, phi2 + math.pi), (phi2 - math.pi, phi2)):
        flo, fhi = modulus(lo) - kappa, modulus(hi) - kappa
        if flo * fhi > 0:
            continue
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            fm = modulus(mid) - kappa
            if flo * fm <= 0:
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
        phi1 = 0.5 * (lo + hi)
        sx = k1 * math.cos(phi1) + k2 * math.cos(phi2)
        sy = k1 * math.sin(phi1) + k2 * math.sin(phi2)
        out.append((phi1, math.atan2(sy, sx)))
    return out


def fd_jacobian(f, points: np.ndarray, h: float) -> np.ndarray:
    """Central differences of a batched f: (N, d) -> (N, d), as (N, d, d)."""
    n, dim = points.shape
    jac = np.empty((n, dim, dim))
    for j in range(dim):
        shift = np.zeros(dim)
        shift[j] = h
        jac[:, :, j] = (f(points + shift) - f(points - shift)) / (2.0 * h)
    return jac


def richardson_det(f, point: np.ndarray, h: float = 1e-3) -> float:
    """det of the Jacobian of f at one point from the central-difference pair
    (h, h/2) and one Richardson step; on trigonometric residuals h = 1e-3
    keeps truncation ~h^4 and roundoff ~eps/h both near 1e-13."""
    pts = point[None, :]
    j1 = fd_jacobian(f, pts, h)[0]
    j2 = fd_jacobian(f, pts, 0.5 * h)[0]
    return float(np.linalg.det((4.0 * j2 - j1) / 3.0))


def conservation_residual(geom: CollisionGeometry, points) -> np.ndarray:
    """(k(phi) - k1(phi1) - k2(phi2) - q ez) / kappa by components, (..., 3).

    The beam's transverse momentum is kappa (cos phi, sin phi) about z (its
    k_z cancels the plane wave's). The final states share z' = (sin t, 0, cos t)
    with x' = (cos t, 0, -sin t) and y' = y; the first sits at azimuth phi1
    about z', the second at its own-frame azimuth phi2 about -z', which is
    -phi2 in the tilted frame. Their z' components add up to q.
    """
    phi, phi1, phi2 = points[..., 0], points[..., 1], points[..., 2]
    st, ct = math.sin(geom.theta), math.cos(geom.theta)
    k, k1, k2, q = geom.initial.kappa, geom.kappa1, geom.kappa2, geom.q
    rx = k * np.cos(phi) - k1 * ct * np.cos(phi1) - k2 * ct * np.cos(phi2) - q * st
    ry = k * np.sin(phi) - k1 * np.sin(phi1) + k2 * np.sin(phi2)
    rz = k1 * st * np.cos(phi1) + k2 * st * np.cos(phi2) - q * ct
    return np.stack([rx, ry, rz], axis=-1) / k


def conservation_jacobian(geom: CollisionGeometry, points) -> np.ndarray:
    """d conservation_residual_i / d (phi, phi1, phi2)_j, (..., 3, 3)."""
    phi, phi1, phi2 = points[..., 0], points[..., 1], points[..., 2]
    st, ct = math.sin(geom.theta), math.cos(geom.theta)
    k, k1, k2 = geom.initial.kappa, geom.kappa1, geom.kappa2
    zero = np.zeros_like(phi)
    rows = [
        [-k * np.sin(phi), k1 * ct * np.sin(phi1), k2 * ct * np.sin(phi2)],
        [k * np.cos(phi), -k1 * np.cos(phi1), k2 * np.cos(phi2)],
        [zero, -k1 * st * np.sin(phi1), -k2 * st * np.sin(phi2)],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2) / k


def per_vector_system(geom: CollisionGeometry, points) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's residual and Jacobian columns as per-vector sums over a
    (3, N) batch of points: each cos or sin row of the points times a unit
    vector, then times kappa_i, (3, N) and (3, 3, N). Every float operation
    of oracle._constraint_system, which runs them on (angle, component,
    point) arrays instead."""
    kappa, kappa1, kappa2 = geom.initial.kappa, geom.kappa1, geom.kappa2
    ex, ey, ez = (u[:, None] for u in tilt_frame(geom.theta))
    gx = np.array([[1.0], [0.0], [0.0]])
    gy = np.array([[0.0], [1.0], [0.0]])
    (c, c1, c2), (s, s1, s2) = np.cos(points), np.sin(points)
    initial = kappa * (c * gx + s * gy)
    final1 = kappa1 * (c1 * ex + s1 * ey)
    final2 = kappa2 * (c2 * ex - s2 * ey)
    residual = (initial - final1 - final2 - geom.q * ez) / kappa
    d_phi = kappa * (c * gy - s * gx)
    d_phi1 = kappa1 * (s1 * ex - c1 * ey)
    d_phi2 = kappa2 * (s2 * ex + c2 * ey)
    return residual, np.stack([d_phi, d_phi1, d_phi2]) / kappa


# (column, component) index arrays of the four factors of entry (k, i) of
# det(J) J^-1: c_{k+1}[i+1] c_{k+2}[i+2] - c_{k+1}[i+2] c_{k+2}[i+1], mod 3
_COFACTOR_INDEX = (
    np.array([[[(k + a) % 3] for k in range(3)] for a in (1, 2, 1, 2)]),  # columns, (4, 3, 1)
    np.array([[[(i + b) % 3 for i in range(3)]] for b in (1, 2, 2, 1)]),  # components, (4, 1, 3)
)


def explicit_newton_step(jac: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det J and -J^-1 res of (3, 3, N) Jacobian columns and (3, N)
    residuals, as numerics._newton_step's (N,) and (3, N): row k of
    det(J) J^-1 is c_{k+1} x c_{k+2}, det J is (c1 x c2) . c0, and each
    product, sum and quotient is its own expression."""
    f = jac[_COFACTOR_INDEX]
    adj = f[0] * f[1] - f[2] * f[3]
    lead = adj[0] * jac[0]
    det = lead[0] + lead[1] + lead[2]
    terms = adj * res
    return det, (terms[:, 0] + terms[:, 1] + terms[:, 2]) / -det


def conservation_amplitudes(geom: CollisionGeometry) -> np.ndarray:
    """A[i, j], the amplitude of the sinusoid in phi_j of residual component
    i: it bounds |dR_i / dphi_j| and |d^2 R_i / dphi_j^2|."""
    st, ct = math.sin(geom.theta), math.cos(geom.theta)
    k, k1, k2 = geom.initial.kappa, geom.kappa1, geom.kappa2
    return np.array([[k, k1 * ct, k2 * ct], [k, k1, k2], [0.0, k1 * st, k2 * st]]) / k


def certified_roots(
    residual, jacobian, amplitudes, n=16, depth=12, frontier_cap=8000, group=5e-3, margin=1e-12
):
    """Every root on the 3-torus of a residual whose component i is a sum of
    single-angle sinusoids plus a constant, amplitudes[i, j] being that of
    the sinusoid in angle j; returns one point per root, within the
    Krawczyk box that holds it.

    Exclusion: on a box of half-width h about c, |R_i(x) - R_i(c)| <=
    h sum_j A[i, j], so a box with |R_i(c)| above that plus margin for some
    i holds no root. Starting from n^3 boxes, the surviving ones are halved
    depth times; no root is ever dropped.

    Confirmation: survivors within group of each other form one group, and
    the smallest cube holding a group, grown twofold, must pass the Krawczyk
    test with J(X) inside J(c) +- h A, which proves exactly one root in it.
    The cubes must be disjoint, so the count is exact.

    RuntimeError when a frontier exceeds frontier_cap boxes, a cube fails
    the test or two cubes overlap.
    """
    two_pi = 2.0 * math.pi
    amplitudes = np.asarray(amplitudes, dtype=float)
    reach = amplitudes.sum(axis=1)
    axis = (np.arange(n) + 0.5) * two_pi / n
    centres = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    children = np.stack(np.meshgrid((-1, 1), (-1, 1), (-1, 1), indexing="ij"), axis=-1)
    children = children.reshape(8, 3)
    half = math.pi / n
    for level in range(depth + 1):
        keep = (np.abs(residual(centres)) <= half * reach + margin).all(axis=1)
        centres = centres[keep]
        if len(centres) > frontier_cap:
            raise RuntimeError(f"witness frontier exploded to {len(centres)} boxes")
        if level == depth or len(centres) == 0:
            break
        half *= 0.5
        centres = (centres[:, None, :] + half * children[None, :, :]).reshape(-1, 3)

    cubes = []
    for members in _torus_groups(centres, group):
        # unwrap the group around its first box before taking its extent
        points = members[0] + (members - members[0] + math.pi) % two_pi - math.pi
        lo, hi = points.min(axis=0) - half, points.max(axis=0) + half
        c, h = 0.5 * (lo + hi), float(np.max(hi - lo))  # twice the half extent
        if not _krawczyk_holds(residual, jacobian, amplitudes, c, h, margin):
            raise RuntimeError(f"Krawczyk test failed on the box about {c} of half-width {h:g}")
        cubes.append((c % two_pi, h))
    for i, (a, ha) in enumerate(cubes):
        for b, hb in cubes[:i]:
            if _torus_gap(a, b) <= ha + hb:
                raise RuntimeError(f"Krawczyk boxes about {a} and {b} overlap")
    return [c for c, _ in cubes]


def _torus_gap(points, ref):
    """Largest per-angle separation modulo 2 pi of each row from ref."""
    d = np.abs(points - ref) % (2.0 * math.pi)
    return np.max(np.minimum(d, 2.0 * math.pi - d), axis=-1)


def _torus_groups(points, tol):
    """Connected groups of points, neighbours within tol of _torus_gap."""
    unseen = np.ones(len(points), dtype=bool)
    groups = []
    while unseen.any():
        stack = [int(np.argmax(unseen))]
        unseen[stack[0]] = False
        members = []
        while stack:
            i = stack.pop()
            members.append(i)
            near = unseen & (_torus_gap(points, points[i]) <= tol)
            unseen &= ~near
            stack.extend(np.flatnonzero(near).tolist())
        groups.append(points[members])
    return groups


def _krawczyk_holds(residual, jacobian, amplitudes, c, h, margin):
    """K(X) = c - Y R(c) + (I - Y J(X))(X - c) inside the open cube X = c +- h,
    with Y = J(c)^-1 and |J(X) - J(c)| <= h A entrywise."""
    jac = jacobian(c)
    try:
        y = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        return False
    spread = np.abs(np.eye(3) - y @ jac) + np.abs(y) @ (h * amplitudes)
    radius = np.abs(y @ residual(c)) + h * spread.sum(axis=1)
    return bool(np.all(radius + margin < h))


def wide_support_samples(
    rng: np.random.Generator, count: int
) -> list[tuple[CollisionGeometry, int, int, int]]:
    """In-support configurations well past draw_support_samples' region, for
    checking that the oracle's start grid finds every root.

    theta is uniform on [0.02, 1.5] and xi on [-0.995, 0.995] theta. Each
    inner angle of the (kappa_tilde, kappa1, kappa2) triangle is at least
    0.01 rad; two of them are drawn log-uniformly on [0.01, pi], so needle
    triangles are common, and kappa1 and kappa2 lie within (1e-2, 1e2)
    kappa_tilde. kappa, k_z, the helicities and the rejection of amplitude
    cosines below 0.1 are those of draw_support_samples.
    """
    samples = []
    while len(samples) < count:
        theta = rng.uniform(0.02, 1.5)
        kappa = rng.uniform(0.6, 1.8)
        xi = 0.995 * theta * rng.uniform(-1.0, 1.0)
        kt = kappa * math.cos(xi)
        d1, d2 = np.exp(rng.uniform(math.log(0.01), math.log(math.pi), 2))
        if math.pi - d1 - d2 < 0.01:
            continue
        s12 = math.sin(d1 + d2)
        m, m1, m2 = (int(v) for v in rng.integers(-6, 7, 3))
        initial = TwistedState.massless(kappa, m, 40.0 * kappa)
        geom = CollisionGeometry(
            theta, kappa * math.sin(xi), initial, kt * math.sin(d2) / s12, kt * math.sin(d1) / s12
        )
        angles = angle_set(geom)
        if abs(math.cos(m * angles.phi_star - (m1 - m2) * angles.phi_tilde_star)) < 0.1:
            continue
        if abs(math.cos(m1 * d1 + m2 * d2)) < 0.1:
            continue
        samples.append((geom, m, m1, m2))
    return samples


def stripe_substitution(a, b, w):
    """kappa1 over the stripe a < kappa1^2 < b by kappa1^2 = a + (b - a) sin^2(w).

    a and b are the squared stripe ends (kappa~ -+ kappa2)^2 of the momentum
    triangle (kappa~, kappa1, kappa2), w in (0, pi/2). Returns (kappa1^2,
    kappa1, jacobian) where jacobian = 8 / kappa1 equals
    (2 / Delta) d(kappa1)/dw exactly, Delta being the triangle area: the
    inverse-square-root divergence of 1/Delta at both stripe ends cancels.
    """
    k1_sq = a + (b - a) * np.sin(w) ** 2
    k1 = np.sqrt(k1_sq)
    return k1_sq, k1, 8.0 / k1


def q_sum_intensity(profiles, template, m, m1, m2, nodes=48):
    """(total, unconverged) for one (m1, m2) cell: total is the sum over
    `nodes` Gauss-Legendre nodes q in [0, q_max] of 2 w_q |A(q)|^2, the factor
    2 for the mirror half q < 0, with A = smeared_amplitude at node_count 24,
    rel_tol 1e-6 and three doublings. q_max = kappa0's upper support end times
    sin(theta), the map's. A point whose doublings raise ConvergenceError
    takes the finer of its last two estimates; unconverged lists each such
    (coarser, finer) pair so that the caller can bound their disagreement."""
    quad = QuadratureSpec(24, rel_tol=1e-6, max_refinements=3)
    q_max = profiles[0].support[1] * math.sin(template.theta)
    q_values, q_weights = gauss_legendre_on(0.0, q_max, nodes)
    total, unconverged = 0.0, []
    for q, w in zip(q_values.tolist(), q_weights.tolist()):
        try:
            amp = abs(smeared_amplitude(profiles, template, q, m, m1, m2, quad))
        except ConvergenceError as err:
            unconverged.append(err.estimates)
            amp = abs(err.estimates[1])
        total += 2.0 * w * amp * amp
    return total, unconverged


@dataclass(frozen=True)
class LimitEntry:
    eps: float
    value: complex
    rel_error: float


@dataclass(frozen=True)
class PlaneWaveLimitReport:
    """Convergence record of the second-particle plane-wave limit."""

    limit: complex
    entries: tuple[LimitEntry, ...]
    monotone: bool


def plane_wave_limit_check(
    geom: CollisionGeometry,
    m: int,
    m1: int,
    test_weight: Callable[[float], float],
    epsilon_list: Sequence[float],
) -> PlaneWaveLimitReport:
    """Check the second-particle plane-wave limit kappa2 -> 0 with m2 = 0.

    For each eps, sets kappa2 = eps * kappa_tilde and integrates
    test_weight(kappa1) * sqrt(2 pi / kappa2) * S~ over the kappa1 stripe.
    The analytic limit replaces 2/Delta by 8 pi delta(kappa_tilde^2 - kappa1^2)
    (and delta1 -> 0), giving

        L = i^{m1-m} (4 pi / kt) sqrt(2 pi kt / kappa) w(kt)
            cos(m phi* - m1 phi~*) / sqrt(sin^2 theta - sin^2 xi).

    The report records each value against L; the tail below eps = 0.1 must be
    monotone, otherwise ``monotone`` is False (a failure report, not an
    exception).
    """
    eps_sorted = sorted(float(e) for e in epsilon_list)
    if not eps_sorted or eps_sorted[0] <= 0.0:
        raise ValueError("epsilon_list must contain positive values")
    if list(epsilon_list) != sorted(epsilon_list, reverse=True):
        raise ValueError("epsilon_list must be decreasing")

    kappa = geom.initial.kappa
    angles = angle_set(geom)
    kt = kappa * math.cos(angles.xi)
    cos_a = math.cos(m * angles.phi_star - m1 * angles.phi_tilde_star)
    phase = unit_imag_power(m1 - m)

    limit = phase * (4.0 * math.pi / kt) * math.sqrt(2.0 * math.pi * kt / kappa) * float(
        test_weight(kt)
    ) * cos_a / angles.root

    w_nodes, w_weights = gauss_legendre_on(0.0, 0.5 * math.pi, _PLANE_WAVE_NODES)

    entries = []
    for eps in epsilon_list:
        kappa2 = eps * kt
        k1sq, k1, jac = stripe_substitution((kt - kappa2) ** 2, (kt + kappa2) ** 2, w_nodes)
        cos_d1 = np.clip((kt * kt + k1sq - kappa2 * kappa2) / (2.0 * kt * k1), -1.0, 1.0)
        tw = np.array([float(test_weight(v)) for v in k1])
        integral = float(
            np.sum(
                w_weights
                * jac
                * tw
                * np.sqrt(k1 * kappa2 / kappa)
                * np.cos(m1 * np.arccos(cos_d1))
            )
        )
        value = phase * math.sqrt(2.0 * math.pi / kappa2) * cos_a * integral / angles.root
        if limit == 0:
            rel = 0.0 if value == 0 else math.inf
        else:
            rel = abs(value / limit - 1.0)
        entries.append(LimitEntry(eps=float(eps), value=value, rel_error=rel))

    tail = [e.rel_error for e in entries if e.eps <= 0.1]
    monotone = all(b <= a * (1.0 + 1e-12) + 1e-15 for a, b in zip(tail, tail[1:]))
    return PlaneWaveLimitReport(limit=limit, entries=tuple(entries), monotone=monotone)


def single_twisted_oracle(
    state: TwistedState,
    k1,
    k2,
) -> complex:
    """Single-twisted element by the same delta reduction in two dimensions.

    The transverse delta pins the initial momentum to k1 + k2; the value is
    the decomposition weight there (over (2 pi)^2 from the measure), 0 off
    the cone. Matches the closed form on support and vanishes at k1 = -k2.
    """
    k12 = np.asarray(k1, dtype=float) + np.asarray(k2, dtype=float)
    mod = float(np.hypot(k12[0], k12[1]))
    azimuth = float(np.arctan2(k12[1], k12[0]))
    if not abs(mod - state.kappa) <= 1e-9 * state.kappa:  # off the cone
        return 0j
    return fourier_weight(state.kappa, state.m, azimuth) / (2.0 * math.pi) ** 2
