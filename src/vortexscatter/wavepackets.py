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
    squared stripe ends, numerics.stripe_substitution) the combination
    d(kappa1) / Delta equals 4 dw / kappa1 exactly, which is smooth.

The q integral of the map uses numerics.q_substitution, and the smeared
amplitude doubles its node count through numerics.refine_by_doubling.

The map contracts the whole helicity grid of a q slice at once. For each
kappa row it builds E1[m1, j] = exp(i m1 delta1_j) and
E2[m2, j] = weight_j exp(i m2 delta2_j) over the row's (kappa2, w) nodes j,
by the power recurrence E^(k+1) = E^k exp(i delta), and one matmul gives
Re(E1 E2^T)[m1, m2] = sum_j weight_j cos(m1 delta1_j + m2 delta2_j); the
factor cos(m phi* - (m1 - m2) phi~*) then applies to the whole grid. The map
also folds the q grid: |A(q)|^2 is even in q (q -> -q keeps the weights and
the deltas and sends phi* -> pi - phi*, phi~* -> pi - phi~*), and the nodes of
q_substitution are symmetric, so only slices with q >= 0 are built, q > 0
nodes with twice their weight. A single smeared amplitude still contracts
its one cell directly, which is cheaper than the grid path for one cell.

A smeared estimate builds and row-sums its slice in contiguous blocks of
kappa rows, each block's tensors capped at 2^15 elements, small enough to
stay in a core's cache and to reuse the memory the allocator freed for the
block before (see _BLOCK_ELEMENTS). One thread per core in the process's
CPU affinity (the calling thread among them) takes the blocks in turn;
numpy releases the interpreter lock in these elementwise loops, and a slice
of one block starts no thread. The kappa, kappa2 and unit axes are built
once per estimate and shared. Every tensor element depends on its own kappa
row alone, and the row sums are joined in row order before the one dot over
all rows, so the value is bit for bit the single-block one. The map builds
each slice as one block on the calling thread.

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
    stripe_substitution,
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

    def diagonal_sum(self, d: int) -> float:
        total = 0.0
        for i, m1 in enumerate(self.m1_values):
            j = m1 - d - self.m2_range[0]
            if 0 <= j < self.weights.shape[1]:
                total += float(self.weights[i, j])
        return total

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


class _QSlice(NamedTuple):
    weight: np.ndarray  # (Na, Nb, Nc) full quadrature measure
    delta1: np.ndarray
    delta2: np.ndarray
    phi_star: np.ndarray  # (Na,)
    phi_tilde_star: np.ndarray


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
    root = np.sqrt((sin_t - sin_xi) * (sin_t + sin_xi))
    phi_star = np.arccos(np.clip(sin_xi / sin_t, -1.0, 1.0))
    phi_tilde = np.arccos(np.clip(sin_xi / (cos_xi * math.tan(theta)), -1.0, 1.0))
    wa = dk * f0.value(kappa) / (root * np.sqrt(kappa))

    k2, wk2 = gauss_legendre_on(*f2.support, n)
    wb = wk2 * f2.value(k2) * np.sqrt(k2)
    return _SliceAxes(f1, s, ws, kt, wa, phi_star, phi_tilde, k2, wb)


def _build_q_slice(axes: _SliceAxes, rows: slice = slice(None)) -> _QSlice:
    """All helicity-independent quadrature tensors of the given kappa rows of
    one q slice. Every element depends on its own row alone, so a block of
    rows holds bit for bit the same values as those rows of the whole slice."""
    s, ws, k2 = axes.s, axes.ws, axes.k2
    kt = axes.kt[rows]
    a = (kt[:, None] - k2[None, :]) ** 2
    b = (kt[:, None] + k2[None, :]) ** 2
    lo1, hi1 = axes.f1.support
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

    w_ang = w_lo[..., None] + (w_hi - w_lo)[..., None] * s
    k1_sq, k1, wc = stripe_substitution(a[..., None], b[..., None], w_ang)
    del w_ang  # frees an n^3 array before the profile call, the slice's memory peak
    wc *= (w_hi - w_lo)[..., None] * ws
    wc *= axes.f1.value(k1)
    wc *= np.sqrt(k1)

    kt3 = kt[:, None, None]
    k23 = k2[None, :, None]
    delta1 = np.arccos(np.clip((kt3**2 + k1_sq - k23**2) / (2.0 * kt3 * k1), -1.0, 1.0))
    delta2 = np.arccos(np.clip((kt3**2 + k23**2 - k1_sq) / (2.0 * kt3 * k23), -1.0, 1.0))
    weight = axes.wa[rows, None, None] * axes.wb[None, :, None] * wc
    return _QSlice(weight, delta1, delta2, axes.phi_star[rows], axes.phi_tilde_star[rows])


def _row_sums(sl: _QSlice, m1: int, m2: int) -> np.ndarray:
    """Per kappa row, the sum of weight cos(m1 delta1 + m2 delta2) over the
    row's (kappa2, w) nodes."""
    return np.einsum("abc,abc->a", sl.weight, np.cos(m1 * sl.delta1 + m2 * sl.delta2))


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
    """The cell: cos(m phi_star - (m1 - m2) phi_tilde_star) dot _row_sums of
    the q slice at n nodes per axis (0 if empty), built and row-summed in the
    _row_blocks that up to _usable_cores() threads take in turn. The row
    sums are joined in row order before the one dot, so the value is the
    whole slice's bit for bit for any block size, thread count and hand-out
    order."""
    axes = _slice_axes(profiles, theta, q, n)
    if axes is None:
        return 0.0
    blocks = _row_blocks(n)
    sums = _on_threads(
        lambda k: _row_sums(_build_q_slice(axes, blocks[k]), m1, m2), len(blocks), _usable_cores()
    )
    cos_a = np.cos(m * axes.phi_star - (m1 - m2) * axes.phi_tilde_star)
    return float(np.dot(cos_a, np.concatenate(sums)))


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
    (ValueError if q is not finite). Node counts double until the estimate
    moves by less than the quadrature tolerance. Each estimate runs in small
    row blocks on every core in the process's CPU affinity (see
    _smeared_estimate).
    """
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    theta = geom_template.theta

    def estimate(n: int) -> float:
        return _smeared_estimate(profiles, theta, q, m, m1, m2, n)

    value = refine_by_doubling(estimate, quad, f"smeared amplitude at q = {q}")
    return unit_imag_power(m1 + m2 - m) * value


def _helicity_phases(delta: np.ndarray, first: int, count: int) -> np.ndarray:
    """exp(i k delta) for k = first, first + 1, ..., first + count - 1, one row
    per k: one exp for the first row, then the power recurrence
    E^(k+1) = E^k exp(i delta)."""
    out = np.empty((count, delta.size), dtype=complex)
    out[0] = np.exp(1j * first * delta)
    step = np.exp(1j * delta)
    for k in range(1, count):
        np.multiply(out[k - 1], step, out=out[k])
    return out


def _grid_values(sl: _QSlice, m: int, m1_values, m2_values) -> np.ndarray:
    """The _smeared_estimate cell for every (m1, m2) of a consecutive helicity grid.

    Per kappa row a, with j running over the row's (kappa2, w) nodes,
    Re(E1 E2^T)[k, l] = sum_j weight_j cos(m1_k delta1_j + m2_l delta2_j) for
    E1[k, j] = exp(i m1_k delta1_j) and E2[l, j] = weight_j exp(i m2_l delta2_j),
    one matmul per row. The tensors are built one row at a time, so memory
    stays at a few (M, n^2) arrays whatever the node count.
    """
    m1_values = np.asarray(m1_values)
    m2_values = np.asarray(m2_values)
    d = m1_values[:, None] - m2_values[None, :]
    out = np.zeros(d.shape)
    for a in range(sl.weight.shape[0]):
        e1 = _helicity_phases(sl.delta1[a].ravel(), int(m1_values[0]), len(m1_values))
        e2 = _helicity_phases(sl.delta2[a].ravel(), int(m2_values[0]), len(m2_values))
        e2 *= sl.weight[a].ravel()
        inner = np.matmul(e1, e2.T).real
        out += np.cos(m * sl.phi_star[a] - d * sl.phi_tilde_star[a]) * inner
    return out


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
        amp = _grid_values(_build_q_slice(axes), m, m1_values, m2_values)
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
