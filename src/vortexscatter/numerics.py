"""Shared numerical kernels.

Cylindrical Bessel functions of integer order (power series plus Miller's
backward recurrence, run over every argument of one order at once, each
value independent of the others; no external special-function dependency),
a numerically stable triangle area, the quadrature layer (Gauss-Legendre
nodes on an interval, node doubling to a tolerance, and the substitution
that absorbs the inverse-square-root edge of the allowed q region;
wavepackets._triangle applies the one for the kappa1 stripe), and a
multi-start Newton solver for three angles on the torus. The solver takes its
3x3 determinants and steps by Cramer's rule in elementwise arithmetic, with no
BLAS or LAPACK call, so its bits do not depend on the BLAS kernel.

Functions are pure (cached nodes are read-only); concurrent use is safe.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
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

# Largest contraction rate that refine_by_doubling's second stop test trusts,
# as QUADPACK scales its raw differences before it trusts them. A smeared
# amplitude converges only algebraically past the kink where the kappa1
# interval meets the packet support, and one doubling's rate can overshoot
# the next: uncapped, the test stopped 17 of the 98 candidates that the
# perfbench smeared-scan pool leaves out (24 nodes, rel_tol 1e-6, three
# doublings) at n = 48, up to 20 times outside 10 rel_tol of their n = 384
# references. At 9 none of those 98 and the pool's 639 points misses (worst
# 8.1e-6); 20 still misses none and 30 lets 3 through. A lower cap costs
# time: 5 sends 105 pool points on to n = 96, where 9 sends 61.
_RATE_CAP = 9.0

_MAX_NEWTON_STEP = 0.7  # rad; keeps multi-start iterates on their own basins
_TWO_PI = 2.0 * math.pi

# Controls of the multi-start Newton search on the torus (solve_system).
_START_GRID_DENSITY = 4  # start points per angle
_MAX_ITERATIONS = 60
_RESIDUAL_TOL = 1e-12
_DEDUPE_TOL = 1e-6  # merge radius of converged iterates, modulo 2 pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for refinable Gauss-Legendre quadrature.

    Three doublings by default, so an out-of-reach rel_tol ends in
    ConvergenceError at 8 * node_count nodes (256 by default) within seconds,
    not after hours of n^3 slices.
    """

    node_count: int = 32
    rel_tol: float = 1e-9
    max_refinements: int = 3

    def __post_init__(self):
        for name in ("node_count", "max_refinements"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if not math.isfinite(self.rel_tol):  # NaN would pass the range check
            raise ValueError("rel_tol must be finite")
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
    Jacobian that the system given to solve_system returns there.
    """

    angles: np.ndarray
    jacobian_det: float
    residual_norm: float


@functools.cache
def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached by node count, read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def bessel_j(order: int, argument):
    """Cylindrical Bessel function J_m(x) for integer m >= 0, x >= 0.

    ``argument`` is a float, which returns a float, or an array of floats at
    the one order, which returns an array of the same shape. Each lane takes
    the power series where its terms decrease from the start, Miller's
    backward recurrence with the J_0 + 2*sum J_2k = 1 normalization
    elsewhere. A lane's value is bit for bit that of a one-lane call, so it
    does not depend on the lanes beside it.
    Absolute error is below 1e-12 for order <= 50, argument <= 100.

    The recurrence needs no rescale: over the accepted domain its largest
    value, the normalization sum included, is about 1.7e238 (m = 199, x just
    above 20, where Miller's range starts), 70 decades below overflow. A
    step multiplies by about 2k/x, so each order peaks highest at its first
    Miller argument.

    Every recurrence step is a few numpy calls over all lanes, so one lane
    costs about 0.08 ms for J_0(3) and 0.9 ms for J_200(50) (2-core x86,
    numpy 2.4), and the 1024 lanes of a packet field grid about 0.5 ms
    together: pass many arguments at once.
    """
    m = int(order)
    if m != order or m < 0 or m > MAX_BESSEL_ORDER:
        raise ValueError(f"order must be an integer in [0, {MAX_BESSEL_ORDER}]")
    x = np.asarray(argument, dtype=np.float64)
    if not np.all((x >= 0.0) & (x <= MAX_BESSEL_ARGUMENT)):  # NaN fails both
        raise ValueError(f"argument must be finite in [0, {MAX_BESSEL_ARGUMENT}]")
    lanes = x.ravel()
    # x = 0, or the smallest subnormal, whose half rounds to 0
    zero = 0.5 * lanes == 0.0
    series = ~zero & ((lanes <= _SERIES_CUTOFF) | (lanes * lanes <= 2.0 * (m + 1)))
    miller = ~(zero | series)
    values = np.where(zero, 1.0 if m == 0 else 0.0, 0.0)
    values[series] = _series_lanes(m, lanes[series])
    values[miller] = _miller_lanes(m, lanes[miller])
    if x.ndim == 0:
        return float(values[0])
    return values.reshape(x.shape)


def _series_lanes(m: int, x: np.ndarray) -> np.ndarray:
    # First term via logs; (x/2)^m alone can overflow long before the term
    # does. math.log and math.exp per lane: numpy's vector log and exp need
    # not round as the C library does.
    log_first = m * np.array(list(map(math.log, (0.5 * x).tolist()))) - math.lgamma(m + 1.0)
    live = log_first >= -745.0  # lanes whose first term underflows stay 0
    term = np.zeros(len(x))
    term[live] = list(map(math.exp, log_first[live].tolist()))
    total = term.copy()
    neg_quarter_x2 = -(0.25 * x * x)
    for k in range(1, 400):
        # every lane runs every step: past the step where the scalar loop
        # breaks, a lane's terms fall below half an ulp of its total, so its
        # total keeps its bits; the loop ends once every lane has stopped,
        # tested every 4 steps
        term *= neg_quarter_x2 / (k * (m + k))
        total += term
        if k % 4 == 0 and not (np.abs(term) > 1e-17 * np.abs(total) + 5e-324).any():
            break
    return total


_MILLER_SEED = 1e-30  # J_start, arbitrary; J_{start+1} = 0


def _miller_lanes(m: int, x: np.ndarray) -> np.ndarray:
    if not x.size:
        return x.copy()
    start = (
        np.maximum(m, np.ceil(x)).astype(np.int64)
        + _MILLER_PAD
        + 2 * np.sqrt(np.maximum(m, x)).astype(np.int64)
    )
    start += start % 2
    # Lanes by descending start, so that those running at step k (start >= k)
    # are a prefix; each enters at its own start as a one-lane call would.
    order = np.argsort(-start, kind="stable")
    x = x[order]
    top = int(start[order[0]])
    widths = np.searchsorted(-start[order], -np.arange(top, 0, -1), side="right").tolist()
    up, cur, new = np.empty(len(x)), np.empty(len(x)), np.empty(len(x))  # J_{k+1}, J_k, J_{k-1}
    norm = np.empty(len(x))
    width = 0
    for k, n in zip(range(top, 0, -1), widths):
        if n != width:
            up[width:n] = 0.0
            cur[width:n] = _MILLER_SEED
            norm[width:n] = 2.0 * _MILLER_SEED
            width = n
            xv, upv, curv, newv, normv = x[:n], up[:n], cur[:n], new[:n], norm[:n]
        np.divide(2.0 * k, xv, out=newv)
        newv *= curv
        newv -= upv
        up, cur, new = cur, new, up
        upv, curv, newv = curv, newv, upv
        idx = k - 1
        if idx == 0:
            normv += curv
        elif idx % 2 == 0:
            np.multiply(2.0, curv, out=newv)
            normv += newv
        if idx == m:  # every lane runs here, as start >= m + _MILLER_PAD
            saved = curv.copy()
    values = np.empty(len(x))
    values[order] = saved / norm
    return values


def heron_area(a: float, b: float, c: float) -> float:
    """Triangle area from three sides, Kahan-ordered, on the sides scaled
    exactly by 2^-e so that the product of the four sums stays in range.
    Exactly 0 for a degenerate (collinear) triple or below the smallest normal
    float, NaN when the triangle inequality is strictly violated."""
    for s in (a, b, c):
        if not math.isfinite(s) or s < 0.0:
            raise ValueError("sides must be finite and non-negative")
    x, y, z = sorted((a, b, c), reverse=True)
    e = (math.frexp(x)[1] + math.frexp(z)[1]) // 2
    x, y, z = (math.ldexp(s, -e) for s in (x, y, z))
    u = z - (x - y)
    if u < 0.0:
        return math.nan
    area = math.ldexp(0.25 * math.sqrt((x + (y + z)) * u * (z + (x - y)) * (x + (y - z))), 2 * e)
    return area if area >= 2.0**-1022 else 0.0


def gauss_legendre_on(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = gauss_legendre_nodes(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def refine_by_doubling(estimate: Callable[[int], float], spec: QuadratureSpec, what: str) -> float:
    """estimate(n) for n = spec.node_count, 2n, 4n, ... until the finer of
    the last two values A_n, A_2n is within spec.rel_tol; returns A_2n as
    estimated, never extrapolated.

    A_2n is accepted when the two agree, |A_2n - A_n| <= rel_tol |A_2n| (two
    exact zeros agree), or else when the contraction rate
    rho = |A_n - A_n/2| / |A_2n - A_n| of the ladder of estimates so far puts
    the error of A_2n, Richardson's |A_2n - A_n| / (min(rho, _RATE_CAP) - 1),
    within rel_tol |A_2n|. If the first doubling fails the agreement test,
    it takes one extra estimate at spec.node_count // 2, when the node count
    is even and at least 4; later doublings reuse the ladder.

    Raises ConvergenceError carrying the last two doubling estimates after
    spec.max_refinements doublings.
    """
    n = spec.node_count
    ladder = [estimate(n)]
    for _ in range(spec.max_refinements):
        n *= 2
        ladder.append(estimate(n))
        prev, cur = ladder[-2], ladder[-1]
        move, allowed = abs(cur - prev), spec.rel_tol * abs(cur)
        if move <= allowed:
            return cur
        if len(ladder) == 2 and spec.node_count % 2 == 0 and spec.node_count >= 4:
            ladder.insert(0, estimate(spec.node_count // 2))
        if len(ladder) > 2 and move <= allowed * (min(abs(prev - ladder[-3]) / move, _RATE_CAP) - 1.0):
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


def _torus_distance(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Largest per-angle separation modulo 2 pi of each column from ref, for
    angles in [0, 2 pi]: there |points - ref| lies in [0, 2 pi], and
    min(d, 2 pi - d) folds it without a modulo of its own."""
    d = np.abs(points - ref)
    return np.maximum.reduce(np.minimum(d, _TWO_PI - d), axis=0)


# Flat indices 3 column + component into the (9, N) rows of a 3x3 matrix's
# columns c0, c1, c2 of the four factors of entry (k, i) of det(J) J^-1,
# whose row k is c_{k+1} x c_{k+2}:
# c_{k+1}[i+1] c_{k+2}[i+2] - c_{k+1}[i+2] c_{k+2}[i+1], indices modulo 3.
_COFACTOR_FACTORS = np.array(
    [
        [[3 * ((k + a) % 3) + (i + b) % 3 for i in range(3)] for k in range(3)]
        for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))
    ]
)  # (factor, k, i)


def _newton_step(jac: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det J and the Newton step -J^-1 res, as (N,) and (3, N), of (3, N)
    residuals and their Jacobians' columns c_j = jac[j], a (column,
    component, N) array, by Cramer's rule on elementwise arithmetic: row k of
    det(J) J^-1 is c_{k+1} x c_{k+2}, and det J is (c1 x c2) . c0. Only IEEE
    +, -, x and / enter, so the bits do not depend on a BLAS kernel. A zero
    row or column, or c1 = c2, gives det exactly 0 and an inf or NaN step
    (numpy warns unless its errors are ignored)."""
    f = jac.reshape(9, jac.shape[2]).take(_COFACTOR_FACTORS, axis=0)
    adj = f[0] * f[1]
    adj -= f[2] * f[3]
    lead = adj[0] * jac[0]
    det = lead[0] + lead[1]
    det += lead[2]
    adj *= res
    step = adj[:, 0] + adj[:, 1]
    step += adj[:, 2]
    step /= -det
    return det, step


def _dedupe(points: np.ndarray, tol: float) -> list[int]:
    """Indices of greedy representatives of (3, N) points, in order: a point
    is picked when no earlier pick lies within tol of it on the torus."""
    uncovered = np.ones(points.shape[1], dtype=bool)
    picked = []
    while np.count_nonzero(uncovered):
        i = int(uncovered.argmax())
        picked.append(i)
        uncovered &= _torus_distance(points, points[:, i, None]) > tol
    return picked


def solve_system(
    system: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[list[TorusRoot], list[TorusRoot]]:
    """Find all roots of a smooth residual R^3 -> R^3 on the 3-torus.

    system maps a (3, N) batch of points, one angle per row, to the (3, N)
    residuals and the (3, 3, N) Jacobian columns J[j, i, n] = d residual_i /
    d angle_j; it is called once per Newton step on the active iterates, at
    most _MAX_ITERATIONS times. The arrays may have any memory layout.
    Inside the Newton loop numpy's floating-point warnings are ignored, the
    system's included: a point that turns non-finite is dropped.

    Newton iterations start from a uniform grid of _START_GRID_DENSITY^3
    points. Each step's determinant and -J^-1 residual come from the cofactors
    of the Jacobian (_newton_step); a root keeps the |det| and residual norm of
    the step at which its iterate settled. An iterate is dropped when its
    residual, step or Jacobian determinant is not finite or |det| <= 1e-300,
    and when it is back within _RESIDUAL_TOL of where it stood two steps
    earlier with no smaller residual (a 2-cycle; the test does not use
    _DEDUPE_TOL, so a wider merge radius drops no iterate that would still
    converge). Converged iterates are deduplicated modulo 2 pi within
    _DEDUPE_TOL, in order of increasing residual. Returns (roots,
    degenerate), each sorted by angles rounded to 1e-9 rad; a root with
    |det| below _RESIDUAL_TOL is degenerate and must not enter amplitude sums.
    """
    d = _START_GRID_DENSITY
    # Irrational offset keeps the regular grid off exact Jacobian singularities.
    axis = (np.arange(d) + 0.5 + 0.1180339887) * _TWO_PI / d
    active = axis[np.indices((d, d, d)).reshape(3, -1)]
    # positions and residual norms one and two steps back; a NaN norm (no
    # history yet) never compares >=, so its position is never read
    back1 = back2 = active
    norms1 = norms2 = np.full(active.shape[1], np.nan)

    settled = []  # (points, residual norms, dets) of each step's settled columns
    with np.errstate(all="ignore"):  # non-finite points are dropped, not reported
        for _ in range(_MAX_ITERATIONS):
            if active.shape[1] == 0:
                break
            res, jac = system(active)
            norms = np.maximum.reduce(np.abs(res), axis=0)
            dets, steps = _newton_step(jac, res)
            done = norms <= _RESIDUAL_TOL
            if np.count_nonzero(done):
                settled.append(tuple(a.compress(done, axis=-1) for a in (active, norms, dets)))
            # only an iterate whose residual did not fall can be in a 2-cycle
            cycling = norms >= norms2
            if np.count_nonzero(cycling):
                cycling &= _torus_distance(active, back2) <= _RESIDUAL_TOL
            # a finite step with a finite, non-zero det needs a finite residual
            keep = np.isfinite(dets) & (np.abs(dets) > 1e-300)
            keep &= np.logical_and.reduce(np.isfinite(steps), axis=0)
            keep &= ~(done | cycling)
            if np.count_nonzero(keep) < keep.size:
                active, steps, norms, back1, norms1 = (
                    a.compress(keep, axis=-1) for a in (active, steps, norms, back1, norms1)
                )
            back2, norms2 = back1, norms1
            back1, norms1 = active, norms
            np.maximum(steps, -_MAX_NEWTON_STEP, out=steps)
            np.minimum(steps, _MAX_NEWTON_STEP, out=steps)
            steps += active
            active = np.remainder(steps, _TWO_PI, out=steps)

    if not settled:
        return [], []

    points, norms, dets = (np.concatenate(a, axis=-1) for a in zip(*settled))
    points %= _TWO_PI  # the step's modulo can round an angle to 2 pi itself
    order = np.argsort(norms, kind="stable")
    picked = order[_dedupe(points[:, order], _DEDUPE_TOL)]
    found = sorted(
        map(TorusRoot, points[:, picked].T, np.abs(dets[picked]).tolist(), norms[picked].tolist()),
        # paired roots share phi up to rounding: at 1e-9 rad, far inside
        # _DEDUPE_TOL, phi ties and phi1 decides, not phi's last bit
        key=lambda r: [round(a, 9) for a in r.angles.tolist()],
    )
    degenerate = [r for r in found if r.jacobian_det < _RESIDUAL_TOL]
    return [r for r in found if not r.jacobian_det < _RESIDUAL_TOL], degenerate
