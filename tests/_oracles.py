"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own code paths: the Bessel series and
integral representation, an adaptive panel quadrature, a bisection solver for
the two-circle intersection, central-difference Jacobians with a Richardson-
extrapolated determinant, and a dense sign-change scan on the 3-torus.
The one exception is the per-point field formula, which takes J_m from the
package's bessel_j so that it can be compared bit for bit.
"""

import math

import numpy as np

from vortexscatter.numerics import bessel_j


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


def per_point_field(m: int, kappa: float, r: float, phi: float) -> complex:
    """e^{i m phi} J_m(kappa r) sqrt(kappa / 2 pi) as Python complex products,
    phase * radial * scale, one point and one mode at a time. The signs of
    zero results are those of CPython 3.11's complex-by-float product."""
    radial = bessel_j(abs(m), kappa * r)
    if m < 0 and abs(m) % 2 == 1:
        radial = -radial
    phase = complex(math.cos(m * phi), math.sin(m * phi))
    return phase * radial * math.sqrt(kappa / (2.0 * math.pi))


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
