"""Wave-packet smearing and the orbital-helicity intensity map.

A transversely localized beam is a fixed-helicity superposition of Bessel
modes with a truncated-Gaussian radial weight f(kappa), L2-normalized on
[max(0, kappa0 - 5 sigma), kappa0 + 5 sigma]. The smeared amplitude at fixed
longitudinal imbalance q is

    A(q; m, m1, m2) = tripleint f(k) f1(k1) f2(k2) S~(k, k1, k2; q) dk dk1 dk2

and the (m1, m2) intensity map integrates |A|^2 over the allowed q region.

The two integrable singular edges are removed by substitution before any
node is placed:

  * kappa edge: 1/sqrt(sin^2 theta - sin^2 xi) ~ (kappa - q/sin theta)^{-1/2};
    kappa = k_left + (hi - k_left) s^2 makes the measure finite.
  * stripe edge: 1/Delta diverges like an inverse square root at both ends of
    the kappa1 interval; with kappa1^2 = A + (B - A) sin^2 w (A, B the
    squared stripe ends; _triangle applies this stripe rule, and the tests
    keep it as stripe_substitution, its witness) the combination
    d(kappa1) / Delta equals 4 dw / kappa1 exactly, which is smooth.

The stripe angle w also fixes the momentum triangle (kappa~, kappa1, kappa2):
with A, B = (kappa~ -+ kappa2)^2 the cosine law gives the opening angles

    delta2 = 2 w,    cos delta1 = (kappa~ - kappa2 cos 2w) / kappa1
                                = (kappa~ - kappa2 + 2 kappa2 sin^2 w) / kappa1.

_triangle builds the triangle from these identities, once for both
computations: per node one tan for sin^2 w and one arccos for delta1, with
the weight 8 wa wb dw ws f1(kappa1) / sqrt(kappa1), in place on four arrays
the size of its kappa rows. The q integral of the map uses
numerics.q_substitution, and the smeared amplitude doubles its node count
through numerics.refine_by_doubling.

The map contracts the whole helicity grid of a q slice from its triangle's
row blocks (_grid_values, _row_blocks). For each kappa row it builds real
tables over the row's (kappa2, w) nodes j, one row per distinct |m| of each
helicity axis: C1, S1 = cos, sin(|m1| delta1_j) and C2, S2 = weight_j cos,
sin(|m2| delta2_j), by the power recurrence E^(k+1) = E^k exp(i delta) from
one tan step per node (_helicity_phases). Two real matmuls CC = C1 C2^T and
SS = S1 S2^T then give sum_j weight_j cos(m1 delta1_j + m2 delta2_j) =
CC[|m1|, |m2|] - sgn(m1) sgn(m2) SS[|m1|, |m2|] for every cell, and the
factor cos(m phi* - (m1 - m2) phi~*) applies to the whole grid. The map
also folds the q grid: |A(q)|^2 is even in q (q -> -q keeps the weights and
the deltas and sends phi* -> pi - phi*, phi~* -> pi - phi~*), and the nodes of
q_substitution are symmetric, so only slices with q >= 0 are built, q > 0
nodes with twice their weight. The map builds the blocks one after another on
the calling thread, so no array holds a slice's n^3 nodes.

A single smeared amplitude contracts its one cell directly, which is cheaper
than the grid path for one cell (_block_row_sums): one more tan per node for
the cosine of m1 delta1 + 2 m2 w, in place on the triangle's arrays. It
builds and row-sums its slice in contiguous blocks of kappa rows, each
block's tensors capped at 2^15 elements, small enough to stay in a core's
cache and to reuse the memory the allocator freed for the block before (see
_BLOCK_ELEMENTS). One thread per core in the process's CPU affinity (the
calling thread among them) takes the blocks in turn; numpy releases the
interpreter lock in these elementwise loops, and a slice of one block starts
no thread. The kappa, kappa2 and unit axes are built once per estimate and
shared. Every tensor element depends on its own kappa row alone, and the row
sums are joined in row order before the one product and sum over all rows,
so the value is bit for bit the single-block one.

The smearing happens at the amplitude level, before squaring, exactly so the
stripe edge stays integrable.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .amplitudes import unit_imag_power
from .errors import SupportRegionError
from .kinematics import CollisionGeometry
from .numerics import (
    QuadratureSpec,
    gauss_legendre_on,
    q_substitution,
    refine_by_doubling,
)

_SUPPORT_HALFWIDTH = 5.0


@dataclass(frozen=True)
class WavePacketProfile:
    """Truncated-Gaussian radial weight, L2-normalized on its support."""

    kappa0: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa0) and self.kappa0 > 0.0):
            raise ValueError("kappa0 must be finite and positive")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be finite and positive")
        lo, hi = self.support
        if not lo < self.kappa0 < hi < math.inf:  # else the norm divides by 0
            raise ValueError(
                f"support kappa0 -+ {_SUPPORT_HALFWIDTH:g} sigma must be finite and "
                "wider than the float spacing at kappa0"
            )

    @property
    def support(self) -> tuple[float, float]:
        lo = max(0.0, self.kappa0 - _SUPPORT_HALFWIDTH * self.sigma)
        return lo, self.kappa0 + _SUPPORT_HALFWIDTH * self.sigma

    @property
    def _norm(self) -> float:
        # integral of exp(-(k-k0)^2/sigma^2) over the support, analytically
        lo, hi = self.support
        area = (
            self.sigma
            * math.sqrt(math.pi)
            * 0.5
            * (math.erf((hi - self.kappa0) / self.sigma) - math.erf((lo - self.kappa0) / self.sigma))
        )
        return 1.0 / math.sqrt(area)

    def value(self, kappa):
        """Radial weight f(kappa); exactly 0 outside the truncation support."""
        k = np.asarray(kappa, dtype=float)
        lo, hi = self.support
        out = self._norm * np.exp(-0.5 * ((k - self.kappa0) / self.sigma) ** 2)
        out = np.where((k >= lo) & (k <= hi), out, 0.0)
        if np.ndim(kappa) == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class IntensityMap:
    """Non-negative weights on an (m1, m2) grid, normalized so the largest
    cell equals 1 (the overall scale is arbitrary)."""

    m1_range: tuple[int, int]
    m2_range: tuple[int, int]
    weights: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def m1_values(self) -> np.ndarray:
        return np.arange(self.m1_range[0], self.m1_range[1] + 1)

    @property
    def m2_values(self) -> np.ndarray:
        return np.arange(self.m2_range[0], self.m2_range[1] + 1)

    def marginal_std(self, axis: int) -> float:
        marginal = self.weights.sum(axis=1 - axis)
        values = self.m1_values if axis == 0 else self.m2_values
        total = marginal.sum()
        mean = float((values * marginal).sum() / total)
        return math.sqrt(float(((values - mean) ** 2 * marginal).sum() / total))

    def rows(self):
        """(m1, m2, weight) in row-major order, m1 outer."""
        for i, m1 in enumerate(self.m1_values):
            for j, m2 in enumerate(self.m2_values):
                yield int(m1), int(m2), float(self.weights[i, j])


class _SliceAxes(NamedTuple):
    """The node axes of one q slice: per kappa row, and the kappa2 and unit
    axes that every row shares."""

    f1: WavePacketProfile
    s: np.ndarray  # (n,) unit Gauss-Legendre nodes, reused for the w axis
    ws: np.ndarray
    kt: np.ndarray  # (Na,) transverse kappa~ of each kappa row
    wa: np.ndarray  # (Na,) kappa measure
    phi_star: np.ndarray  # (Na,)
    phi_tilde_star: np.ndarray
    k2: np.ndarray  # (Nb,) kappa2 nodes
    wb: np.ndarray  # (Nb,) kappa2 measure


def _slice_axes(profiles, theta: float, q: float, n: int) -> _SliceAxes | None:
    """The axes of the q slice at n nodes per axis; None when the slice is
    empty (q beyond the initial packet's support)."""
    f0, f1, f2 = profiles
    sin_t = math.sin(theta)
    lo0, hi0 = f0.support
    k_left = max(lo0, abs(q) / sin_t)
    if k_left >= hi0:
        return None

    s, ws = gauss_legendre_on(0.0, 1.0, n)
    kappa = k_left + (hi0 - k_left) * s**2
    dk = 2.0 * (hi0 - k_left) * s * ws
    sin_xi = q / kappa
    cos_xi = np.sqrt(1.0 - sin_xi**2)
    kt = kappa * cos_xi
    # where kappa rounds to |q| / sin theta, sin^2 theta - sin^2 xi cancels to 0;
    # there it is gap (kappa sin theta + |q|) / kappa^2, with gap = kappa sin theta - |q|
    # formed as (k_left sin theta - |q|) + (hi0 - k_left) s^2 sin theta, which does not cancel
    edge = max(lo0 * sin_t - abs(q), 0.0) if k_left == lo0 else 0.0
    gap = (hi0 - k_left) * s**2 * sin_t + edge
    root_sq = (sin_t - sin_xi) * (sin_t + sin_xi)
    root = np.sqrt(np.where(root_sq > 0.0, root_sq, gap * (kappa * sin_t + abs(q)) / kappa**2))
    phi_star = np.arccos(np.clip(sin_xi / sin_t, -1.0, 1.0))
    phi_tilde = np.arccos(np.clip(sin_xi / (cos_xi * math.tan(theta)), -1.0, 1.0))
    wa = dk * f0.value(kappa) / (root * np.sqrt(kappa))

    k2, wk2 = gauss_legendre_on(*f2.support, n)
    wb = wk2 * f2.value(k2) * np.sqrt(k2)
    return _SliceAxes(f1, s, ws, kt, wa, phi_star, phi_tilde, k2, wb)


def _stripe_ends(kt: np.ndarray, k2: np.ndarray, f1: WavePacketProfile):
    """(a, b, w_lo, w_hi) per (kappa~, kappa2) pair: the squared stripe ends
    a, b = (kappa~ -+ kappa2)^2 and the stripe angles w of the stripe rule
    kappa1^2 = a + (b - a) sin^2 w that bound kappa1 to f1's support (w_lo =
    w_hi for an empty stripe)."""
    a = (kt[:, None] - k2[None, :]) ** 2
    b = (kt[:, None] + k2[None, :]) ** 2
    lo1, hi1 = f1.support
    a_eff = np.maximum(a, lo1 * lo1)
    b_eff = np.minimum(b, hi1 * hi1)
    nonempty = b_eff > a_eff
    # span = 4 kt k2 rounds to 0 once kappa2 is below the float spacing of kt;
    # such a stripe is empty (b_eff <= a_eff), and an infinite span gives it
    # w_lo = w_hi = 0 where 0 / 0 would give NaN
    span = b - a
    span = np.where(span > 0.0, span, np.inf)
    w_lo = np.arcsin(np.sqrt(np.clip((a_eff - a) / span, 0.0, 1.0)))
    w_hi = np.arcsin(np.sqrt(np.clip((b_eff - a) / span, 0.0, 1.0)))
    w_hi = np.where(nonempty, w_hi, w_lo)
    return a, b, w_lo, w_hi


def _triangle(axes: _SliceAxes, rows: slice):
    """(w, delta1, weight) per (kappa~, kappa2, w) node of the kappa rows
    `rows`: the momentum triangle straight from the stripe angle w, with
    delta2 = 2 w, cos delta1 = (kappa~ - kappa2 + 2 kappa2 sin^2 w) / kappa1 and
    weight = 8 wa wb dw ws f1(kappa1) / sqrt(kappa1), the full quadrature
    measure. Every element depends on its own kappa row alone. Four
    block-sized arrays, built in place; sin^2 w = t^2 / (1 + t^2) with
    t = tan w, because numpy's float64 tan costs a fraction of its sin and cos
    (about 2.6 against 10 to 17 ns per element, numpy 2.4 on AVX-512)."""
    f1, k2 = axes.f1, axes.k2
    kt = axes.kt[rows]
    a, b, w_lo, w_hi = _stripe_ends(kt, k2, f1)
    dw = w_hi - w_lo
    w = dw[..., None] * axes.s
    w += w_lo[..., None]
    sin_sq = np.tan(w)
    sin_sq *= sin_sq
    k1 = sin_sq + 1.0
    sin_sq /= k1
    np.multiply(sin_sq, (b - a)[..., None], out=k1)
    k1 += a[..., None]
    np.sqrt(k1, out=k1)
    delta1 = sin_sq * (2.0 * k2)[:, None]
    delta1 += (kt[:, None] - k2[None, :])[..., None]
    delta1 /= k1
    np.clip(delta1, -1.0, 1.0, out=delta1)
    np.arccos(delta1, out=delta1)

    # f1(kappa1) / sqrt(kappa1), the norm folded into the per-(kappa~, kappa2) factor
    weight = np.subtract(k1, f1.kappa0, out=sin_sq)
    weight *= weight
    weight *= -0.5 / (f1.sigma * f1.sigma)
    np.exp(weight, out=weight)
    lo1, hi1 = f1.support
    weight[(k1 < lo1) | (k1 > hi1)] = 0.0  # f1's truncation, as in WavePacketProfile.value
    weight /= np.sqrt(k1, out=k1)
    weight *= (8.0 * f1._norm * axes.wa[rows, None] * axes.wb[None, :] * dw)[..., None]
    weight *= axes.ws
    return w, delta1, weight


def _block_row_sums(axes: _SliceAxes, rows: slice, m1: int, m2: int) -> np.ndarray:
    """Per kappa row of the block, the sum of weight cos(m1 delta1 + m2 delta2)
    over the row's (kappa2, w) nodes of _triangle. A block's sums are bit for
    bit those rows' sums in the whole slice (a block of one row excepted, see
    _row_blocks). The cosine is 2 / (1 + t^2) - 1 with t = tan(x / 2), for
    tan's speed."""
    w, phase, weight = _triangle(axes, rows)
    # half the argument, (m1 delta1 + 2 m2 w) / 2, then its cosine
    phase *= 0.5 * m1
    w *= m2
    phase += w
    np.tan(phase, out=phase)
    phase *= phase
    phase += 1.0
    np.divide(2.0, phase, out=phase)
    phase -= 1.0
    return np.einsum("abc,abc->a", weight, phase)


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# A smeared estimate's row blocks hold at most this many elements per tensor
# (256 KiB of float64), so a block's tensors fit in a core's L2 cache. Once
# glibc's malloc keeps freed chunks of this size (its dynamic mmap threshold
# rises past them after any larger array is freed), each block reuses the
# memory of the one before, where whole-slice tensors fault in fresh pages
# on every estimate.
_BLOCK_ELEMENTS = 1 << 15


def _row_blocks(n: int) -> list[slice]:
    """Contiguous blocks of kappa rows covering the n rows of an n-node slice
    (n^2 elements per row), as many rows per block as _BLOCK_ELEMENTS allows
    but at least 2, a lone last row joining the block before it. einsum sums
    a block of one row in pieces of numpy's 8192-element buffer once n^2
    exceeds it, which rounds differently from the same row in a block of
    several."""
    starts = list(range(0, n, max(2, _BLOCK_ELEMENTS // (n * n))))
    if n - starts[-1] == 1 and len(starts) > 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _on_threads(fn, count: int, threads: int) -> list:
    """[fn(k) for k in range(count)], computed by the calling thread and up to
    threads - 1 others, each taking the next k in turn until none is left.
    Returns once every started thread has ended. An exception stops the
    hand-out, and the first one raised is then raised here as it was raised."""
    results = [None] * count
    errors = []
    lock = threading.Lock()
    todo = iter(range(count))

    def run():
        while True:
            with lock:
                k = None if errors else next(todo, None)
            if k is None:
                return
            try:
                results[k] = fn(k)
            except BaseException as exc:  # re-raised on the calling thread below
                with lock:
                    errors.append(exc)
                return

    started = []
    try:
        for _ in range(min(threads, count) - 1):
            thread = threading.Thread(target=run)
            thread.start()
            started.append(thread)
        run()
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _smeared_estimate(profiles, theta, q, m, m1, m2, n: int) -> float:
    """The cell: cos(m phi_star - (m1 - m2) phi_tilde_star) dot the row sums of
    the q slice at n nodes per axis (0 if empty), built and row-summed in the
    _row_blocks that up to _usable_cores() threads take in turn. The row
    sums are joined in row order before the one product and sum, so the
    value is the whole slice's bit for bit for any block size, thread count
    and hand-out order. The sum is numpy's, not a BLAS dot, whose bits would
    follow OpenBLAS's per-CPU kernel."""
    axes = _slice_axes(profiles, theta, q, n)
    if axes is None:
        return 0.0
    blocks = _row_blocks(n)
    sums = _on_threads(
        lambda k: _block_row_sums(axes, blocks[k], m1, m2), len(blocks), _usable_cores()
    )
    cos_a = np.cos(m * axes.phi_star - (m1 - m2) * axes.phi_tilde_star)
    return float(np.add.reduce(cos_a * np.concatenate(sums)))


def smeared_amplitude(
    profiles: tuple[WavePacketProfile, WavePacketProfile, WavePacketProfile],
    geom_template: CollisionGeometry,
    q: float,
    m: int,
    m1: int,
    m2: int,
    quad: QuadratureSpec,
) -> complex:
    """Packet-weighted amplitude at fixed q.

    Only theta is read from geom_template (the helicity is the m argument);
    the kappa moduli are integrated over the three profiles. Returns 0 when
    q lies outside every allowed region over the initial packet's support
    (ValueError if q is not finite). Node counts double until the last two
    estimates agree to quad.rel_tol, or until their contraction rate puts the
    finer one's error within it (numerics.refine_by_doubling, which may take
    one estimate at quad.node_count // 2); the finer estimate is returned as
    computed. Each estimate runs in small row blocks on every core in the
    process's CPU affinity (see _smeared_estimate).
    """
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    theta = geom_template.theta

    def estimate(n: int) -> float:
        return _smeared_estimate(profiles, theta, q, m, m1, m2, n)

    value = refine_by_doubling(estimate, quad, f"smeared amplitude at q = {q}")
    return unit_imag_power(m1 + m2 - m) * value


def _abs_helicities(lo: int, hi: int) -> tuple[int, int]:
    """(first, count): the distinct |m| over m = lo, ..., hi are first,
    first + 1, ..., first + count - 1."""
    if lo <= 0 <= hi:
        return 0, max(-lo, hi) + 1
    return (-hi if hi < 0 else lo), hi - lo + 1


def _helicity_phases(delta: np.ndarray, first: int, count: int, scale=None):
    """Real tables (C, S), C[k] = scale cos((first + k) delta) and
    S[k] = scale sin((first + k) delta) for k = 0, ..., count - 1 (scale 1 if
    None), each contiguous for BLAS. Row 0 is scale itself when first is 0,
    else scale exp(i first delta); then the power recurrence
    E^(k+1) = E^k exp(i delta) on one complex row, with the step
    exp(i delta) = (u - 1, u t), t = tan(delta / 2) and u = 2 / (1 + t^2),
    because numpy's float64 tan costs a fraction of its complex exp (about
    2.5 against 35 to 41 ns per element, numpy 2.4 on AVX-512). sin delta is
    u t, never t (1 + cos delta), which cancels near delta = pi."""
    cos_table = np.empty((count, delta.size))
    sin_table = np.empty((count, delta.size))
    if first == 0:
        power = np.ones(delta.size, dtype=complex) if scale is None else scale.astype(complex)
    else:
        power = np.exp(1j * first * delta)
        if scale is not None:
            power *= scale
    cos_table[0] = power.real
    sin_table[0] = power.imag
    if count > 1:
        t = np.tan(0.5 * delta)
        u = t * t
        u += 1.0
        np.divide(2.0, u, out=u)
        step = np.empty(delta.size, dtype=complex)
        np.subtract(u, 1.0, out=step.real)
        np.multiply(u, t, out=step.imag)
        for k in range(1, count):
            power *= step
            cos_table[k] = power.real
            sin_table[k] = power.imag
    return cos_table, sin_table


def _grid_values(axes: _SliceAxes, m: int, m1_values, m2_values) -> np.ndarray:
    """The _smeared_estimate cell for every (m1, m2) of a consecutive helicity
    grid, from the slice's _triangle (w, delta1, weight) in _row_blocks blocks.

    Per kappa row, with j running over the row's (kappa2, w) nodes and
    delta2 = 2 w, the row sum sum_j weight_j cos(m1 delta1_j + m2 delta2_j) is
    CC[|m1|, |m2|] - sgn(m1) sgn(m2) SS[|m1|, |m2|], from two real matmuls
    CC = C1 C2^T and SS = S1 S2^T of the _helicity_phases tables: cos and sin
    of |m1| delta1, and of |m2| delta2 times the weights, one table row per
    distinct |m| of each axis. The tables are built one kappa row at a time,
    so they stay at a few (|M|, n^2) arrays whatever the node count.
    """
    m1_values = np.asarray(m1_values)
    m2_values = np.asarray(m2_values)
    first1, count1 = _abs_helicities(int(m1_values[0]), int(m1_values[-1]))
    first2, count2 = _abs_helicities(int(m2_values[0]), int(m2_values[-1]))
    n = axes.kt.size
    cc = np.empty((n, count1, count2))
    ss = np.empty_like(cc)
    for block in _row_blocks(n):
        w, delta1, weight = _triangle(axes, block)
        for a, k in enumerate(range(n)[block]):
            c1, s1 = _helicity_phases(delta1[a].ravel(), first1, count1)
            c2, s2 = _helicity_phases(2.0 * w[a].ravel(), first2, count2, weight[a].ravel())
            np.matmul(c1, c2.T, out=cc[k])
            np.matmul(s1, s2.T, out=ss[k])
    rows = (np.abs(m1_values) - first1)[:, None]
    cols = (np.abs(m2_values) - first2)[None, :]
    signs = np.sign(m1_values)[:, None] * np.sign(m2_values)[None, :]
    inner = cc[:, rows, cols]
    inner -= signs * ss[:, rows, cols]
    d = m1_values[:, None] - m2_values[None, :]
    cos_a = np.cos(m * axes.phi_star[:, None, None] - d * axes.phi_tilde_star[:, None, None])
    return np.einsum("abc,abc->bc", cos_a, inner)


def _map_pass(profiles, theta, m, m1_values, m2_values, n, q_nodes) -> np.ndarray:
    q_max = profiles[0].support[1] * math.sin(theta)
    q_values, q_weights = q_substitution(q_max, q_nodes)
    # |A(q)|^2 is even in q (the slice at -q has the same weights and deltas,
    # with phi* -> pi - phi* and phi~* -> pi - phi~*), and the q nodes are
    # symmetric, so each q > 0 node also stands for its mirror; the q = 0 node
    # of an odd grid counts once.
    half = q_values >= 0.0
    q_weights = np.where(q_values > 0.0, 2.0 * q_weights, q_weights)

    out = np.zeros((len(m1_values), len(m2_values)))
    for qv, qw in zip(q_values[half], q_weights[half]):
        axes = _slice_axes(profiles, theta, float(qv), n)
        if axes is None:
            continue
        amp = _grid_values(axes, m, m1_values, m2_values)
        out += qw * amp * amp
    return out


def intensity_map(
    profiles: tuple[WavePacketProfile, WavePacketProfile, WavePacketProfile],
    geom_template: CollisionGeometry,
    m: int,
    m1_range: tuple[int, int],
    m2_range: tuple[int, int],
    quad: QuadratureSpec,
    q_nodes: int = 64,
) -> IntensityMap:
    """q-integrated |A|^2 on the (m1, m2) grid, normalized to max 1.

    The q integration runs on the substituted u grid (q = q_max sin u), which
    clusters nodes toward the edges of the allowed region, folded onto its
    q >= 0 half by the parity of |A|^2. Each cell is
    evaluated at quad.node_count and at twice that; the relative change is
    recorded per cell in metadata["cell_rel_delta"]. Of quad only node_count
    is read: the caller judges that change (the CLI against map_cell_rtol).
    Only theta is read from geom_template (the helicity is the m argument).
    """
    if m1_range[0] > m1_range[1] or m2_range[0] > m2_range[1]:
        raise ValueError("helicity ranges must be non-empty")
    theta = geom_template.theta
    m1_values = np.arange(m1_range[0], m1_range[1] + 1)
    m2_values = np.arange(m2_range[0], m2_range[1] + 1)
    coarse = _map_pass(profiles, theta, m, m1_values, m2_values, quad.node_count, q_nodes)
    fine = _map_pass(profiles, theta, m, m1_values, m2_values, 2 * quad.node_count, q_nodes)

    peak = float(fine.max())
    if peak <= 0.0:
        raise SupportRegionError(
            "intensity map vanished everywhere; configuration has no support"
        )
    rel_delta = np.abs(fine - coarse) / np.maximum(np.abs(fine), 1e-6 * peak)
    return IntensityMap(
        m1_range=(int(m1_range[0]), int(m1_range[1])),
        m2_range=(int(m2_range[0]), int(m2_range[1])),
        weights=fine / peak,
        metadata={"cell_rel_delta": rel_delta, "max_cell_rel_delta": float(rel_delta.max())},
    )
