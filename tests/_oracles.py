"""Independent reference implementations used only by the tests.

Most deliberately avoid the package's own code paths: the Bessel series and
integral representation, an adaptive panel quadrature, a bisection solver for
the two-circle intersection, central-difference Jacobians with a Richardson-
extrapolated determinant, and a dense sign-change scan on the 3-torus.

The rest are witnesses that call a few package kernels on purpose:

  * the per-point field formula takes J_m from the package's bessel_j, so
    that it can be compared bit for bit;
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
    and makes its own on-cone test.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from vortexscatter.amplitudes import fourier_weight, unit_imag_power
from vortexscatter.kinematics import CollisionGeometry, TwistedState, angle_set
from vortexscatter.numerics import bessel_j, gauss_legendre_on

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
    t, w = np.polynomial.legendre.leggauss(nodes)
    tau = 0.5 * math.pi * (t + 1.0)
    return float(np.sum(0.5 * math.pi * w * np.cos(m * tau - x * np.sin(tau))) / math.pi)


def _times_real(re: float, im: float, x: float) -> tuple[float, float]:
    """(re + i im)(x + 0i) = (re x - im 0) + i(re 0 + im x), the complex-by-float
    product as CPython 3.11 forms it, signed zeros included, written out so
    that it does not change with the Python version."""
    return re * x - im * 0.0, re * 0.0 + im * x


def per_point_field(m: int, kappa: float, r: float, phi: float) -> complex:
    """e^{i m phi} J_m(kappa r) sqrt(kappa / 2 pi), phase * radial * scale,
    one point and one mode at a time."""
    radial = bessel_j(abs(m), kappa * r)
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


def sign_change_cells(residual_batch, n: int = 24):
    """Cells of an n^3 torus grid where every residual component changes sign
    over the cell corners, merged into connected clusters; returns the list
    of cluster center angle triples."""
    axis = np.arange(n + 1) * 2.0 * math.pi / n
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    vals = residual_batch(grid.reshape(-1, 3)).reshape(n + 1, n + 1, n + 1, 3)
    # wrap the last row/column onto the first so cells cover the torus
    vals[-1] = vals[0]
    vals[:, -1] = vals[:, 0]
    vals[:, :, -1] = vals[:, :, 0]

    corners = np.stack(
        [
            vals[i : i + n, j : j + n, k : k + n]
            for i in (0, 1)
            for j in (0, 1)
            for k in (0, 1)
        ],
        axis=0,
    )  # (8, n, n, n, 3)
    pos = (corners > 0).any(axis=0)
    neg = (corners < 0).any(axis=0)
    flagged = (pos & neg).all(axis=-1)

    seen = np.zeros_like(flagged)
    clusters = []
    for idx in np.argwhere(flagged):
        t = tuple(idx)
        if seen[t]:
            continue
        stack, members = [t], []
        seen[t] = True
        while stack:
            cur = stack.pop()
            members.append(cur)
            for d in range(3):
                for step in (-1, 1):
                    nb = list(cur)
                    nb[d] = (nb[d] + step) % n
                    nb = tuple(nb)
                    if flagged[nb] and not seen[nb]:
                        seen[nb] = True
                        stack.append(nb)
        center = (np.array(members).mean(axis=0) + 0.5) * 2.0 * math.pi / n
        clusters.append(center)
    return clusters


def _lattice_flag(sub):
    """True when every component takes both signs on the point lattice."""
    pts = sub.reshape(-1, sub.shape[-1])
    return bool(((pts > 0).any(axis=0) & (pts < 0).any(axis=0)).all())


def certified_root_scan(residual_batch, n=28, depth=15, frontier_cap=8000, dedupe=5e-3):
    """Locate all roots on the 3-torus by sign scanning alone.

    Cells of an n^3 grid are flagged when every residual component changes
    sign over the cell's 3x3x3 sublattice; flagged cells are recursively
    subdivided (keeping every subcell whose 5x5x5 lattice still flags) until
    the surviving cells are ~2^-depth of a cell wide. Decoy cells, where the
    component zero surfaces pass close but do not intersect, die out during
    subdivision. Independent of any Newton iteration or Jacobian.
    """
    two_pi = 2.0 * math.pi
    fine = 2 * n
    axis = np.arange(fine + 1) * two_pi / fine
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    vals = residual_batch(grid.reshape(-1, 3)).reshape(fine + 1, fine + 1, fine + 1, 3)
    lattice = np.stack(
        [
            vals[a : a + fine - 1 : 2, b : b + fine - 1 : 2, c : c + fine - 1 : 2]
            for a in (0, 1, 2)
            for b in (0, 1, 2)
            for c in (0, 1, 2)
        ],
        axis=0,
    )  # (27, n, n, n, 3)
    pos = (lattice > 0).any(axis=0)
    neg = (lattice < 0).any(axis=0)
    flagged = (pos & neg).all(axis=-1)

    frontier = np.argwhere(flagged) * two_pi / n
    sub_shift = np.stack(
        np.meshgrid((0, 1), (0, 1), (0, 1), indexing="ij"), axis=-1
    ).reshape(8, 3)
    size = two_pi / n
    for _ in range(depth):
        half = 0.5 * size
        pad = 0.25 * half  # overlap so boundary roots stay inside a survivor
        corners = (frontier[:, None, :] + sub_shift[None, :, :] * half).reshape(-1, 3)
        offs = np.linspace(-pad, half + pad, 5)
        lattice = corners[:, None, None, None, :] + np.stack(
            np.meshgrid(offs, offs, offs, indexing="ij"), axis=-1
        )
        vals = residual_batch(lattice.reshape(-1, 3)).reshape(len(corners), 125, 3)
        keep = ((vals > 0).any(axis=1) & (vals < 0).any(axis=1)).all(axis=-1)
        frontier = corners[keep]
        size = half
        if len(frontier) == 0:
            break
        if len(frontier) > frontier_cap:
            raise RuntimeError(
                f"scan frontier exploded to {len(frontier)} cells; "
                "residual unsuitable for sign certification"
            )

    roots = []
    for lo in frontier:
        p = (lo + 0.5 * size) % two_pi
        if all(
            np.max(np.minimum(np.abs(p - r) % two_pi, two_pi - np.abs(p - r) % two_pi))
            > dedupe
            for r in roots
        ):
            roots.append(p)
    return roots


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
    sin_t = math.sin(geom.theta)
    sin_xi = geom.q / kappa
    root = math.sqrt((sin_t - sin_xi) * (sin_t + sin_xi))
    cos_a = math.cos(m * angles.phi_star - m1 * angles.phi_tilde_star)
    phase = unit_imag_power(m1 - m)

    limit = phase * (4.0 * math.pi / kt) * math.sqrt(2.0 * math.pi * kt / kappa) * float(
        test_weight(kt)
    ) * cos_a / root

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
        value = phase * math.sqrt(2.0 * math.pi / kappa2) * cos_a * integral / root
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
    if not abs(mod - state.kappa) <= 1e-9 * max(state.kappa, 1.0):  # off the cone
        return 0j
    return fourier_weight(state.kappa, state.m, azimuth) / (2.0 * math.pi) ** 2
