import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vortexscatter.errors import ConvergenceError
from vortexscatter.numerics import (
    QuadratureSpec,
    bessel_j,
    gauss_legendre_on,
    heron_area,
    q_substitution,
    refine_by_doubling,
    solve_system,
    stripe_substitution,
)
import vortexscatter.numerics as numerics_module
from vortexscatter.numerics import _dedupe

from _oracles import (
    adaptive_open_quadrature,
    bessel_integral,
    bessel_series,
    fd_jacobian,
    richardson_det,
    sign_change_cells,
)


class TestBessel:
    def test_zero_argument(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0

    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_smallest_subnormal_argument(self, m):
        # half of 5e-324 rounds to 0, so log(x / 2) of the series is undefined
        assert bessel_j(m, 5e-324) == (1.0 if m == 0 else 0.0)

    def test_j1_of_one_series_oracle(self):
        expected = bessel_series(1, 1.0)
        assert expected == pytest.approx(0.4400505857449335, abs=1e-15)
        assert bessel_j(1, 1.0) == pytest.approx(expected, abs=1e-13)

    def test_series_oracle_where_float64_valid(self):
        for m in (0, 1, 2, 5, 10, 25, 50):
            for x in (0.1, 0.5, 1.0, 3.0, 7.0, 10.0):
                assert bessel_j(m, x) == pytest.approx(bessel_series(m, x), abs=1e-12)
        # order-dominated region: terms decrease from the start
        for m in (30, 50):
            for x in (0.5 * m, 0.3 * m):
                assert bessel_j(m, x) == pytest.approx(bessel_series(m, x), rel=1e-10, abs=1e-300)

    def test_integral_representation_full_range(self):
        for m in (0, 1, 2, 5, 10, 20, 35, 50):
            for x in (0.5, 1.0, 5.0, 12.0, 20.0, 40.0, 70.0, 100.0):
                assert bessel_j(m, x) == pytest.approx(bessel_integral(m, x), abs=1e-12)

    def test_recurrence_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = int(rng.integers(1, 50))
            x = float(rng.uniform(0.5, 100.0))
            lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
            rhs = 2.0 * m / x * bessel_j(m, x)
            scale = max(abs(bessel_j(m - 1, x)), abs(bessel_j(m + 1, x)), abs(rhs))
            assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-300)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(201, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, -0.5)
        with pytest.raises(ValueError):
            bessel_j(0, math.inf)

    def test_high_order(self):
        assert bessel_j(200, 50.0) == pytest.approx(bessel_integral(200, 50.0), abs=1e-12)

    def test_scipy_reference_full_range(self):
        # scipy is a test-only reference; the package never imports it
        special = pytest.importorskip("scipy.special")
        for m in range(51):
            # both sides of the switch from the power series to Miller's
            # recurrence: x = 10 and x^2 = 2 (m + 1)
            edges = [10.0, math.sqrt(2.0 * (m + 1))]
            xs = list(np.linspace(0.0, 100.0, 401))
            xs += [math.nextafter(x, side) for x in edges for side in (0.0, math.inf)] + edges
            for x in xs:
                assert bessel_j(m, x) == pytest.approx(float(special.jv(m, x)), abs=1e-12), (m, x)


class TestHeron:
    def test_right_triangle_exact(self):
        assert heron_area(3.0, 4.0, 5.0) == 6.0

    def test_equilateral(self):
        assert heron_area(1.0, 1.0, 1.0) == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-15)

    def test_degenerate_exact_zero(self):
        assert heron_area(1.0, 2.0, 3.0) == 0.0

    def test_violation_is_nan(self):
        assert math.isnan(heron_area(1.0, 1.0, 3.0))

    @given(
        st.permutations([3.0, 4.0, 5.0]),
    )
    def test_permutation_symmetry_345(self, sides):
        assert heron_area(*sides) == 6.0

    @given(
        st.floats(0.01, 100), st.floats(0.01, 100), st.floats(0.01, 100),
        st.permutations([0, 1, 2]),
    )
    def test_permutation_symmetry_bitwise(self, a, b, c, perm):
        sides = [a, b, c]
        shuffled = [sides[i] for i in perm]
        base = heron_area(a, b, c)
        other = heron_area(*shuffled)
        assert (math.isnan(base) and math.isnan(other)) or base == other

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            heron_area(-1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            heron_area(math.nan, 2.0, 2.0)


def integrate_q_substituted(g_of_xi, theta, spec, kappa):
    """Integral of g(xi) dq over |q| < kappa sin(theta), q = kappa sin(xi),
    by q_substitution nodes doubled until the spec's tolerance is met. Under
    it sin(xi) = sin(theta) sin(u), so an inverse square root
    1/sqrt(sin^2 theta - sin^2 xi) at the edges cancels analytically."""
    q_max = kappa * math.sin(theta)

    def estimate(n):
        q, wq = q_substitution(q_max, n)
        return float(sum(w * g_of_xi(math.asin(v / kappa)) for v, w in zip(q, wq)))

    return refine_by_doubling(estimate, spec, "q integral")


class TestQuadrature:
    def test_singular_integrand_exact(self):
        # (sin^2 theta - sin^2 xi)^{-1/2} integrates to pi * kappa
        theta = 0.2
        spec = QuadratureSpec(node_count=16, rel_tol=1e-12)
        val = integrate_q_substituted(
            lambda xi: 1.0 / math.sqrt(math.sin(theta) ** 2 - math.sin(xi) ** 2),
            theta,
            spec,
            kappa=1.0,
        )
        assert val == pytest.approx(math.pi, rel=1e-12)

    def test_singular_integrand_vs_adaptive_reference(self):
        theta, kappa = 0.2, 1.3
        spec = QuadratureSpec(node_count=16, rel_tol=1e-12)

        def g_of_xi(xi):
            return math.cos(3.0 * xi) / math.sqrt(math.sin(theta) ** 2 - math.sin(xi) ** 2)

        val = integrate_q_substituted(g_of_xi, theta, spec, kappa=kappa)

        qmax = kappa * math.sin(theta)
        ref = adaptive_open_quadrature(
            lambda q: g_of_xi(math.asin(q / kappa)), -qmax, qmax
        )
        assert val == pytest.approx(ref, rel=1e-8)

    def test_zero_integrand(self):
        spec = QuadratureSpec(node_count=8, rel_tol=1e-9)
        assert integrate_q_substituted(lambda xi: 0.0, 0.2, spec, kappa=1.0) == 0.0

    def test_unit_integrand_interval_length(self):
        spec = QuadratureSpec(node_count=16, rel_tol=1e-12)
        val = integrate_q_substituted(lambda xi: 1.0, 0.2, spec, kappa=1.0)
        assert val == pytest.approx(2.0 * math.sin(0.2), rel=1e-12)

    def test_even_integrand_equals_twice_half_interval(self):
        theta, kappa = 0.3, 1.0
        spec = QuadratureSpec(node_count=24, rel_tol=1e-11)
        full = integrate_q_substituted(lambda xi: math.cos(2.0 * xi), theta, spec, kappa=kappa)
        # half interval via the same substitution restricted to u in (0, pi/2)
        x, w = np.polynomial.legendre.leggauss(400)
        u = 0.25 * math.pi * (x + 1.0)
        sin_t = math.sin(theta)
        half = float(
            np.sum(0.25 * math.pi * w * np.cos(2.0 * np.arcsin(sin_t * np.sin(u)))
                   * kappa * sin_t * np.cos(u))
        )
        assert full == pytest.approx(2.0 * half, rel=1e-9)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=1)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="rel_tol must be finite"):
                QuadratureSpec(rel_tol=bad)

    def test_nonconvergence_raises_with_estimates(self):
        spec = QuadratureSpec(node_count=2, rel_tol=1e-16, max_refinements=1)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(4096)

        def rough(xi):  # deliberately unresolvable
            return noise[int(abs(xi) * 1e7) % 4096]

        with pytest.raises(ConvergenceError) as err:
            integrate_q_substituted(rough, 0.2, spec, kappa=1.0)
        coarse, fine = err.value.estimates
        assert coarse != fine

    @pytest.mark.parametrize("kt, k2", [(1.0, 0.5), (0.8, 0.9), (1.2, 0.05), (0.7, 0.7)])
    def test_stripe_substitution_linear_weight_exact(self, kt, k2):
        # integral of 2 kappa1 / Delta over the stripe is 4 pi for any triangle
        w, ww = gauss_legendre_on(0.0, 0.5 * math.pi, 16)
        _, k1, jac = stripe_substitution((kt - k2) ** 2, (kt + k2) ** 2, w)
        assert float(np.sum(ww * jac * k1)) == pytest.approx(4.0 * math.pi, rel=1e-14)

    @pytest.mark.parametrize("kt, k2", [(1.0, 0.5), (0.8, 0.9), (1.2, 0.05)])
    def test_stripe_substitution_vs_adaptive_reference(self, kt, k2):
        a, b = (kt - k2) ** 2, (kt + k2) ** 2
        w, ww = gauss_legendre_on(0.0, 0.5 * math.pi, 64)
        k1_sq, k1, jac = stripe_substitution(a, b, w)

        # The reference drops slivers at both ends whose share scales like the
        # square root of their width, and a sliver cannot be narrower than the
        # float spacing near kappa1; a g vanishing at both ends keeps that share
        # below 1e-10. The edge weight itself is pinned by the exact 4 pi case.
        def g(k1):
            return np.cos(3.0 * k1) * (k1 * k1 - a) * (b - k1 * k1)

        val = float(np.sum(ww * jac * g(k1)))
        ref = adaptive_open_quadrature(
            lambda k: 2.0 * g(k) / heron_area(kt, k, k2), abs(kt - k2), kt + k2, levels=40
        )
        assert val == pytest.approx(ref, rel=1e-10)


def _embedded_two_root_residual(points):
    # 3-4-5 transverse closure (two orientations) with a smooth periodic phi
    # pin. The pin vanishes at phi = pi/4 and at pi/4 + 3pi/2, but at the
    # second zero the required base side (8) exceeds the maximal reach (7),
    # so exactly two roots survive.
    phi = points[..., 0]
    phi1 = points[..., 1]
    phi2 = points[..., 2]
    x = phi - 0.25 * math.pi
    rx = (5.0 + 3.0 * (1.0 - np.cos(x))) - 4.0 * np.cos(phi1) - 3.0 * np.cos(phi2)
    ry = -4.0 * np.sin(phi1) - 3.0 * np.sin(phi2)
    rz = np.sin(x) + 1.0 - np.cos(x)
    return np.stack([rx, ry, rz], axis=-1)


def _fd(residual):
    return lambda points: fd_jacobian(residual, points, 1e-6)


def _embedded_two_root_jacobian(points):
    phi, phi1, phi2 = points[..., 0], points[..., 1], points[..., 2]
    x = phi - 0.25 * math.pi
    zero = np.zeros_like(phi)
    rows = [
        [3.0 * np.sin(x), 4.0 * np.sin(phi1), 3.0 * np.sin(phi2)],
        [zero, -4.0 * np.cos(phi1), -3.0 * np.cos(phi2)],
        [np.cos(x) + np.sin(x), zero, zero],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


class TestSolveSystem:
    def test_two_root_geometry(self):
        roots, degenerate = solve_system(
            _embedded_two_root_residual, _fd(_embedded_two_root_residual)
        )
        assert not degenerate
        assert len(roots) == 2
        for root in roots:
            assert root.angles[0] == pytest.approx(0.25 * math.pi, abs=1e-9)
            assert root.jacobian_det > 1e-6

    def test_no_roots_when_stripe_violated(self):
        def residual(points):
            phi1, phi2 = points[..., 1], points[..., 2]
            x = points[..., 0] - 1.0
            rx = 9.0 - 1.0 * np.cos(phi1) - 1.0 * np.cos(phi2)  # unreachable
            ry = -np.sin(phi1) - np.sin(phi2)
            rz = np.sin(x) + 1.0 - np.cos(x)
            return np.stack([rx, ry, rz], axis=-1)

        roots, degenerate = solve_system(residual, _fd(residual))
        assert roots == [] and degenerate == []

    def test_grid_doubling_never_loses_roots(self, monkeypatch):
        fd = _fd(_embedded_two_root_residual)
        monkeypatch.setattr(numerics_module, "_START_GRID_DENSITY", 3)
        base = solve_system(_embedded_two_root_residual, fd)
        monkeypatch.setattr(numerics_module, "_START_GRID_DENSITY", 6)
        dense = solve_system(_embedded_two_root_residual, fd)
        assert len(dense[0]) >= len(base[0])

    def test_batched_residual_error_propagates(self, monkeypatch):
        # an error of the residual is not retried or swallowed
        monkeypatch.setattr(numerics_module, "_START_GRID_DENSITY", 2)
        calls = []

        def failing_residual(points):
            calls.append(np.shape(points))
            raise ZeroDivisionError("residual failed")

        with pytest.raises(ZeroDivisionError):
            solve_system(failing_residual, _fd(failing_residual))
        assert calls == [(8, 3)]

    def test_exact_jacobian_finds_the_same_roots(self):
        fd_roots, _ = solve_system(_embedded_two_root_residual, _fd(_embedded_two_root_residual))
        roots, degenerate = solve_system(_embedded_two_root_residual, _embedded_two_root_jacobian)
        assert not degenerate
        assert len(roots) == len(fd_roots) == 2
        for root, fd_root in zip(roots, fd_roots):
            np.testing.assert_allclose(root.angles, fd_root.angles, rtol=0, atol=1e-12)
            richardson = abs(richardson_det(_embedded_two_root_residual, root.angles))
            assert root.jacobian_det == pytest.approx(richardson, rel=1e-10)

    def test_wide_merge_radius_keeps_both_roots(self, monkeypatch):
        monkeypatch.setattr(numerics_module, "_DEDUPE_TOL", 1e-2)
        roots, degenerate = solve_system(
            _embedded_two_root_residual, _fd(_embedded_two_root_residual)
        )
        assert not degenerate
        assert len(roots) == 2
        for root in roots:
            assert root.angles[0] == pytest.approx(0.25 * math.pi, abs=1e-9)

    def test_dedupe_matches_pairwise_loop(self):
        def reference(points, tol):
            picked = []
            for i, point in enumerate(points):
                d = np.abs(point - points[picked]) % (2.0 * math.pi)
                if np.all(np.max(np.minimum(d, 2.0 * math.pi - d), axis=1) > tol):
                    picked.append(i)
            return picked

        rng = np.random.default_rng(8)
        for _ in range(200):
            centers = rng.uniform(0.0, 2.0 * math.pi, (int(rng.integers(1, 5)), 3))
            count = int(rng.integers(1, 60))
            # spreads around tol make chains of points within tol of a neighbour
            spread = rng.choice([1e-7, 1e-6, 3e-6])
            points = centers[rng.integers(0, len(centers), count)]
            points = (points + rng.normal(0.0, spread, points.shape)) % (2.0 * math.pi)
            assert _dedupe(points, 1e-6) == reference(points, 1e-6)

    def test_dense_grid_scan_agreement(self):
        roots, _ = solve_system(_embedded_two_root_residual, _fd(_embedded_two_root_residual))
        clusters = sign_change_cells(_embedded_two_root_residual, n=28)
        assert len(clusters) == len(roots)
        cell = 2.0 * math.pi / 28
        for root in roots:
            dists = []
            for c in clusters:
                d = np.abs(root.angles - c) % (2.0 * math.pi)
                dists.append(np.max(np.minimum(d, 2.0 * math.pi - d)))
            assert min(dists) < 2.0 * cell
