"""Shared numerical kernels.

Cylindrical Bessel functions of integer order (power series plus Miller's
backward recurrence, no external special-function dependency), a numerically
stable triangle area, the quadrature layer (Gauss-Legendre nodes on an
interval, node doubling to a tolerance, and the two substitutions that absorb
the inverse-square-root edges of the allowed q region and of the kappa1
stripe), and a multi-start Newton solver for three angles on the torus.

All functions are pure and stateless; concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import ConvergenceError

MAX_BESSEL_ORDER = 200
MAX_BESSEL_ARGUMENT = 1.0e4

# Power series is used only where its alternating terms never grow, so the
# float64 cancellation error stays below ~1e-13 absolute.
_SERIES_CUTOFF = 10.0

# Offset added to the backward-recurrence start order; Miller's algorithm
# converges super-exponentially in this padding.
_MILLER_PAD = 40

_MAX_NEWTON_STEP = 0.7  # rad; keeps multi-start iterates on their own basins
_TWO_PI = 2.0 * math.pi

# Controls of the multi-start Newton search on the torus (solve_system).
_START_GRID_DENSITY = 6  # start points per angle
_MAX_ITERATIONS = 60
_RESIDUAL_TOL = 1e-12
_DEDUPE_TOL = 1e-6  # merge radius of converged iterates, modulo 2 pi


def _reject_non_finite(spec) -> None:
    # every comparison with NaN is false, so the range checks would pass it
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for refinable Gauss-Legendre quadrature."""

    node_count: int = 32
    rel_tol: float = 1e-9
    max_refinements: int = 8

    def __post_init__(self):
        _reject_non_finite(self)
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")


@dataclass(frozen=True)
class TorusRoot:
    """One root of a residual on the 3-torus.

    ``jacobian_det`` is |det of the residual Jacobian| at the root, from the
    Jacobian callable given to solve_system.
    """

    angles: np.ndarray
    jacobian_det: float
    residual_norm: float


_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached by node count."""
    got = _leggauss_cache.get(n)
    if got is None:
        got = np.polynomial.legendre.leggauss(n)
        _leggauss_cache[n] = got
    return got


def bessel_j(order: int, argument: float) -> float:
    """Cylindrical Bessel function J_m(x) for integer m >= 0, x >= 0.

    Power series where its terms decrease from the start, Miller's backward
    recurrence with the J_0 + 2*sum J_2k = 1 normalization elsewhere.
    Absolute error is below 1e-12 for order <= 50, argument <= 100.
    """
    m = int(order)
    if m != order or m < 0 or m > MAX_BESSEL_ORDER:
        raise ValueError(f"order must be an integer in [0, {MAX_BESSEL_ORDER}]")
    x = float(argument)
    if not math.isfinite(x) or x < 0.0 or x > MAX_BESSEL_ARGUMENT:
        raise ValueError(f"argument must be finite in [0, {MAX_BESSEL_ARGUMENT}]")
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


def heron_area(a: float, b: float, c: float) -> float:
    """Triangle area from three sides, Kahan-ordered for stability.

    Returns exactly 0 for a degenerate (collinear) triple and NaN when the
    triangle inequality is strictly violated; the caller decides support.
    """
    for s in (a, b, c):
        if not math.isfinite(s) or s < 0.0:
            raise ValueError("sides must be finite and non-negative")
    x, y, z = sorted((a, b, c), reverse=True)
    u = z - (x - y)
    if u < 0.0:
        return math.nan
    return 0.25 * math.sqrt((x + (y + z)) * u * (z + (x - y)) * (x + (y - z)))


def gauss_legendre_on(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = gauss_legendre_nodes(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def refine_by_doubling(estimate: Callable[[int], float], spec: QuadratureSpec, what: str) -> float:
    """estimate(n) for n = spec.node_count, 2n, 4n, ... until two successive
    values agree to spec.rel_tol relative to the finer one (two exact zeros
    agree); returns the finer one.

    Raises ConvergenceError carrying the last two estimates after
    spec.max_refinements doublings.
    """
    n = spec.node_count
    cur = estimate(n)
    for _ in range(spec.max_refinements):
        prev = cur
        n *= 2
        cur = estimate(n)
        if abs(cur - prev) <= spec.rel_tol * abs(cur):
            return cur
    raise ConvergenceError(f"{what} did not converge at {n} nodes", estimates=(prev, cur))


def q_substitution(q_max: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes q = q_max sin(u), u Gauss-Legendre on (-pi/2, pi/2), over the
    allowed region |q| < q_max; the weights carry dq = q_max cos(u) du.

    Nodes cluster toward both edges, and an integrand with an inverse square
    root 1/sqrt(q_max^2 - q^2) there becomes smooth in u.
    """
    u, wu = gauss_legendre_on(-0.5 * math.pi, 0.5 * math.pi, n)
    return q_max * np.sin(u), wu * q_max * np.cos(u)


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


def _torus_distance(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Largest per-angle separation modulo 2 pi of each row from ref."""
    d = np.abs(points - ref) % _TWO_PI
    return np.max(np.minimum(d, _TWO_PI - d), axis=-1)


def _dedupe(points: np.ndarray, tol: float) -> list[int]:
    """Indices of greedy representatives, in order: a point is picked when no
    earlier pick lies within tol of it on the torus."""
    uncovered = np.ones(len(points), dtype=bool)
    picked = []
    while uncovered.any():
        i = int(np.argmax(uncovered))
        picked.append(i)
        uncovered &= _torus_distance(points, points[i]) > tol
    return picked


def solve_system(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
) -> tuple[list[TorusRoot], list[TorusRoot]]:
    """Find all roots of a smooth residual R^3 -> R^3 on the 3-torus.

    Newton iterations start from a uniform grid of _START_GRID_DENSITY^3
    points. An iterate back within _RESIDUAL_TOL of where it stood two steps
    earlier, with no smaller residual, is caught in a 2-cycle and dropped;
    the test does not use _DEDUPE_TOL, so a wider merge radius drops no
    iterate that would still converge. Converged iterates are deduplicated
    modulo 2 pi within _DEDUPE_TOL, in order of increasing residual. Returns
    (roots, degenerate): roots whose |Jacobian determinant| falls below
    _RESIDUAL_TOL are reported separately and must not enter amplitude sums.

    residual maps an (N, 3) batch of angle triples to the (N, 3) residuals;
    jacobian maps the same batch to the (N, 3, 3) derivatives
    d residual_i / d angle_j and serves both the Newton steps and the
    determinants.
    """
    d = _START_GRID_DENSITY
    # Irrational offset keeps the regular grid off exact Jacobian singularities.
    axis = (np.arange(d) + 0.5 + 0.1180339887) * _TWO_PI / d
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    active = grid.reshape(-1, 3).copy()
    # positions and residual norms one and two steps back
    back = np.full((2,) + active.shape, np.nan)
    back_norms = np.full((2, active.shape[0]), np.nan)

    settled: list[np.ndarray] = []
    for _ in range(_MAX_ITERATIONS):
        if active.shape[0] == 0:
            break
        res = residual(active)
        norms = np.max(np.abs(res), axis=1)
        done = norms <= _RESIDUAL_TOL
        if done.any():
            settled.append(active[done])
        returned = _torus_distance(active, back[1]) <= _RESIDUAL_TOL
        cycling = returned & (norms >= back_norms[1])
        keep = ~(done | cycling)
        if not keep.all():
            active, res, norms = active[keep], res[keep], norms[keep]
            back, back_norms = back[:, keep], back_norms[:, keep]
            if active.shape[0] == 0:
                break
        jac = np.asarray(jacobian(active), dtype=float)
        with np.errstate(all="ignore"):
            dets = np.linalg.det(jac)
            solvable = np.isfinite(dets) & (np.abs(dets) > 1e-300)
            solvable &= np.isfinite(res).all(axis=1)
            steps = np.full_like(res, np.nan)
            if solvable.any():
                steps[solvable] = np.linalg.solve(
                    jac[solvable], -res[solvable][..., None]
                )[..., 0]
        alive = np.isfinite(steps).all(axis=1)
        steps = np.clip(np.nan_to_num(steps), -_MAX_NEWTON_STEP, _MAX_NEWTON_STEP)
        back = np.stack([active, back[0]])[:, alive]
        back_norms = np.stack([norms, back_norms[0]])[:, alive]
        active = (active[alive] + steps[alive]) % _TWO_PI

    if not settled:
        return [], []

    final = np.concatenate(settled) % _TWO_PI
    final_norms = np.max(np.abs(residual(final)), axis=1)
    order = np.argsort(final_norms, kind="stable")
    order = order[final_norms[order] <= _RESIDUAL_TOL]
    candidates = final[order]
    picked = _dedupe(candidates, _DEDUPE_TOL)
    reps, rnorms = candidates[picked], final_norms[order][picked]
    dets = np.abs(np.linalg.det(np.asarray(jacobian(reps), dtype=float))).tolist()

    roots: list[TorusRoot] = []
    degenerate: list[TorusRoot] = []
    for angles, det, rnorm in zip(reps, dets, rnorms):
        root = TorusRoot(angles=angles, jacobian_det=det, residual_norm=float(rnorm))
        if det < _RESIDUAL_TOL:
            degenerate.append(root)
        else:
            roots.append(root)
    roots.sort(key=lambda r: tuple(r.angles))
    degenerate.sort(key=lambda r: tuple(r.angles))
    return roots, degenerate
