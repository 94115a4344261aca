import math

import numpy as np
import pytest

from vortexscatter.amplitudes import reduced_triple_amplitude
from vortexscatter.kinematics import (
    CollisionGeometry,
    TwistedState,
    angle_set,
    triangle_geometry,
)
import vortexscatter.numerics as numerics_module
from vortexscatter.oracle import (
    _ConstraintKernel,
    draw_support_samples,
    oracle_amplitude,
    single_twisted_oracle,
)

from _oracles import certified_root_scan, fd_jacobian, richardson_det, sign_change_cells

TWO_PI = 2.0 * math.pi


def _geom(theta=0.2, q_frac=0.3, kappa=1.0, kappa1=0.9, kappa2=0.7):
    q = q_frac * kappa * math.sin(theta)
    return CollisionGeometry(theta, q, TwistedState.massless(kappa, 0, 40.0), kappa1, kappa2)


def _analytic_solutions(geom):
    """The four (phi, phi1, phi2) triples built from the closed-form angles."""
    angles = angle_set(geom)
    tri = triangle_geometry(geom.initial.kappa, angles.xi, geom.kappa1, geom.kappa2)
    out = []
    for s in (1, -1):
        for t in (1, -1):
            out.append(
                (
                    s * angles.phi_star,
                    s * angles.phi_tilde_star + t * tri.delta1,
                    -(s * angles.phi_tilde_star - t * tri.delta2),
                )
            )
    return out


class TestConservationResidual:
    def test_collinear_smoke(self):
        # nearly transverse-free configuration: everything collapses as kappa -> 0
        kappa = 1e-9
        geom = CollisionGeometry(
            0.2,
            kappa * math.sin(0.2),
            TwistedState.massless(kappa, 0, 10.0),
            1e-12,
            1e-12,
        )
        res = _ConstraintKernel(geom)(np.array([0.0, 1.0, 2.0]))
        assert np.linalg.norm(res) <= 2.0

    def test_analytic_construction_is_root(self):
        geom = _geom()
        kernel = _ConstraintKernel(geom)
        for triple in _analytic_solutions(geom):
            res = kernel(np.array(triple))
            assert np.max(np.abs(res)) < 1e-10

    def test_out_of_stripe_has_no_sign_change_triple(self):
        geom = _geom(kappa1=0.2, kappa2=3.0)  # violates the stripe
        assert sign_change_cells(_ConstraintKernel(geom), n=20) == []

    def test_k_independence_is_exact(self):
        # only q = k_{1z'} + k_{2z'} enters the residual, never the beam's k_z
        geom = _geom()
        doubled = CollisionGeometry(
            geom.theta, geom.q, TwistedState.massless(1.0, 0, 80.0), geom.kappa1, geom.kappa2
        )
        a = oracle_amplitude(geom, 4, 3, -2)
        b = oracle_amplitude(doubled, 4, 3, -2)
        assert len(a.solutions) == 4
        assert a.solutions == b.solutions
        assert a.amplitude == b.amplitude


class TestOracleAmplitude:
    def test_out_of_stripe_empty(self):
        result = oracle_amplitude(_geom(kappa1=0.2, kappa2=3.0), 2, 1, 1)
        assert result.amplitude == 0j
        assert result.solutions == ()

    def test_symmetric_point_cancellation(self):
        result = oracle_amplitude(_geom(q_frac=0.0), 1, 0, 0)
        assert len(result.solutions) == 4
        # phases cancel pairwise; what remains is Jacobian-determinant noise
        term_scale = sum(1.0 / s.jacobian_det for s in result.solutions)
        assert abs(result.amplitude) < 1e-7 * term_scale

    def test_four_solutions_match_analytic_construction(self):
        geom = _geom()
        result = oracle_amplitude(geom, 3, 2, -1)
        assert len(result.solutions) == 4
        expected = _analytic_solutions(geom)
        for sol in result.solutions:
            best = min(
                max(
                    min(abs(a - b) % TWO_PI, TWO_PI - abs(a - b) % TWO_PI)
                    for a, b in zip((sol.phi, sol.phi1, sol.phi2), trip)
                )
                for trip in expected
            )
            assert best < 1e-9

    def test_ratio_to_closed_form(self):
        rng = np.random.default_rng(101)
        ratios = []
        for geom, m, m1, m2 in draw_support_samples(rng, 60, theta=0.2):
            closed = reduced_triple_amplitude(geom, m, m1, m2)
            result = oracle_amplitude(geom, m, m1, m2)
            ratios.append(result.amplitude / closed.value)
        arr = np.array(ratios)
        mean = arr.mean()
        dispersion = float(np.sqrt(np.mean(np.abs(arr - mean) ** 2)) / abs(mean))
        assert dispersion < 1e-8
        # the conventions fix the constant at (2 pi)^{3/2}
        assert mean == pytest.approx((2.0 * math.pi) ** 1.5, rel=1e-9)

    def test_invariant_under_start_grid_doubling(self, monkeypatch):
        geom = _geom()
        monkeypatch.setattr(numerics_module, "_START_GRID_DENSITY", 4)
        a = oracle_amplitude(geom, 4, 3, -2)
        monkeypatch.setattr(numerics_module, "_START_GRID_DENSITY", 8)
        b = oracle_amplitude(geom, 4, 3, -2)
        assert len(b.solutions) >= len(a.solutions)
        assert abs(b.amplitude - a.amplitude) <= 1e-10 * abs(a.amplitude)

    def test_swap_symmetry_with_helicity_negation(self):
        # exchanging the final particles flips the tilt axis: q -> -q,
        # kappa1 <-> kappa2, and the observed helicities map to (-m2, -m1)
        rng = np.random.default_rng(55)
        for geom, m, m1, m2 in draw_support_samples(rng, 10, theta=0.25):
            swapped = CollisionGeometry(
                geom.theta, -geom.q, geom.initial, geom.kappa2, geom.kappa1
            )
            a = oracle_amplitude(geom, m, m1, m2)
            b = oracle_amplitude(swapped, m, -m2, -m1)
            assert abs(b.amplitude) == pytest.approx(abs(a.amplitude), rel=1e-9)

    def test_solution_count_and_values_vs_dense_scan(self):
        # sign-certification scan, fully independent of Newton and Jacobians
        rng = np.random.default_rng(2024)
        for geom, m, m1, m2 in draw_support_samples(rng, 100, theta=0.25):
            scanned = certified_root_scan(_ConstraintKernel(geom), depth=12)
            result = oracle_amplitude(geom, m, m1, m2)
            assert len(scanned) == len(result.solutions) == 4
            for sol in result.solutions:
                pt = np.array([sol.phi, sol.phi1 % TWO_PI, sol.phi2 % TWO_PI])
                nearest = min(
                    float(
                        np.max(
                            np.minimum(np.abs(pt - r) % TWO_PI, TWO_PI - np.abs(pt - r) % TWO_PI)
                        )
                    )
                    for r in scanned
                )
                assert nearest < 5e-3


class TestAnalyticJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for geom, _, _, _ in draw_support_samples(rng, 5, theta=0.25):
            kernel = _ConstraintKernel(geom)
            points = rng.uniform(0.0, TWO_PI, (20, 3))
            exact = kernel.jacobian(points)
            fd = fd_jacobian(kernel, points, 1e-6)
            np.testing.assert_allclose(exact, fd, rtol=0, atol=1e-8)

    def test_det_matches_richardson_at_the_roots(self):
        geom = _geom()
        kernel = _ConstraintKernel(geom)
        result = oracle_amplitude(geom, 3, 2, -1)
        assert len(result.solutions) == 4
        for sol in result.solutions:
            point = np.array([sol.phi, sol.phi1, sol.phi2])
            exact = abs(np.linalg.det(kernel.jacobian(point)))
            richardson = abs(richardson_det(kernel, point))
            assert exact == pytest.approx(richardson, rel=1e-10)
            # the solution carries the determinant of the raw residual
            assert sol.jacobian_det == pytest.approx(exact * geom.initial.kappa**3, rel=1e-12)

    def test_few_residual_calls_per_solve(self, monkeypatch):
        import vortexscatter.oracle as oracle_module

        calls = []
        solve = oracle_module.solve_system

        def counting_solve(residual, *args, **kwargs):
            def counted(points):
                calls.append(len(points))
                return residual(points)

            return solve(counted, *args, **kwargs)

        monkeypatch.setattr(oracle_module, "solve_system", counting_solve)
        result = oracle_amplitude(_geom(), 3, 2, -1)
        assert len(result.solutions) == 4
        assert len(calls) <= 40

    def test_merge_radius_drops_no_converging_iterate(self, monkeypatch):
        # At this geometry some iterates come back near where they stood two
        # steps earlier, by less than 0.1 but more than residual_tol, and go
        # on to converge; the 2-cycle test must keep them at any merge radius.
        converged = []
        dedupe = numerics_module._dedupe

        def counting_dedupe(points, tol):
            converged.append(len(points))
            return dedupe(points, tol)

        monkeypatch.setattr(numerics_module, "_dedupe", counting_dedupe)
        geom = _geom(q_frac=-0.6, kappa1=0.5, kappa2=0.8)
        for tol in (1e-6, 1e-1):
            monkeypatch.setattr(numerics_module, "_DEDUPE_TOL", tol)
            result = oracle_amplitude(geom, 1, 0, 1)
            assert len(result.solutions) == 4
        assert converged[0] == converged[1]


class TestSingleTwistedOracle:
    def test_345_branch_phases(self):
        from vortexscatter.amplitudes import single_twisted_amplitude, single_twisted_solutions

        state = TwistedState.massless(5.0, 3, 40.0)
        for branch in single_twisted_solutions(5.0, 4.0, 3.0, 0.0):
            k1 = 4.0 * np.array([math.cos(branch.phi1), math.sin(branch.phi1)])
            k2 = np.array([3.0, 0.0])
            oracle_value = single_twisted_oracle(state, k1, k2)
            closed = single_twisted_amplitude(state, 5.0, branch.phi12)
            assert closed.on_support
            assert oracle_value == pytest.approx(closed.smooth, rel=1e-12)

    def test_vortex_zero(self):
        state = TwistedState.massless(1.0, 4, 40.0)
        k1 = np.array([0.4, -0.3])
        assert single_twisted_oracle(state, k1, -k1) == 0j

    def test_random_on_support_matches_closed_form(self):
        from vortexscatter.amplitudes import single_twisted_amplitude

        rng = np.random.default_rng(77)
        for _ in range(200):
            kappa = float(rng.uniform(0.3, 3.0))
            m = int(rng.integers(-10, 11))
            state = TwistedState.massless(kappa, m, 40.0)
            psi = float(rng.uniform(0.0, TWO_PI))
            k12 = kappa * np.array([math.cos(psi), math.sin(psi)])
            split = rng.uniform(-1.0, 1.0, 2)
            k1 = 0.5 * k12 + np.array([split[0], split[1]])
            k2 = k12 - k1
            value = single_twisted_oracle(state, k1, k2)
            closed = single_twisted_amplitude(state, kappa, psi)
            assert value == pytest.approx(closed.smooth, rel=1e-12)
