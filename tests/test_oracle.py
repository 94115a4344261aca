import itertools
import math

import numpy as np
import pytest

from vortexscatter.amplitudes import fourier_weight, reduced_triple_amplitude
from vortexscatter.kinematics import (
    CollisionGeometry,
    TwistedState,
    angle_set,
    triangle_geometry,
)
import vortexscatter.numerics as numerics_module
from vortexscatter.oracle import (
    _constraint_system,
    draw_support_samples,
    oracle_amplitude,
)

from _oracles import (
    certified_roots,
    conservation_amplitudes,
    conservation_jacobian,
    conservation_residual,
    fd_jacobian,
    per_vector_system,
    richardson_det,
    single_twisted_oracle,
)
from _pins import assert_bits, assert_pins_held

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


def _witness(geom):
    """certified_roots' residual, Jacobian and amplitudes for geom."""
    return (
        lambda points: conservation_residual(geom, points),
        lambda points: conservation_jacobian(geom, points),
        conservation_amplitudes(geom),
    )


def _residual(geom):
    """The residual half of the oracle's system."""
    system = _constraint_system(geom)
    return lambda points: system(points)[0]


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
        res = _residual(geom)(np.array([0.0, 1.0, 2.0]))
        assert np.linalg.norm(res) <= 2.0

    def test_analytic_construction_is_root(self):
        geom = _geom()
        residual = _residual(geom)
        for triple in _analytic_solutions(geom):
            res = residual(np.array(triple))
            assert np.max(np.abs(res)) < 1e-10

    def test_out_of_stripe_has_no_surviving_box(self):
        # the witness returns [] only when its exclusion leaves no box
        geom = _geom(kappa1=0.2, kappa2=3.0)  # violates the stripe
        assert certified_roots(*_witness(geom)) == []

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
    @pytest.mark.pin
    @pytest.mark.parametrize(
        "draw, theta, seed", [(0, 0.1, 1), (1, 0.2, 2), (2, 0.35, 3)],
        ids=["theta0.1", "theta0.2", "theta0.35"],
    )
    def test_pinned_bits(self, draw, theta, seed):
        # float.hex values of an earlier commit: 8 samples of
        # draw_support_samples(default_rng(seed), 8, theta), their amplitude
        # and every solution's (phi, phi1, phi2, jacobian_det)
        got = []
        for geom, m, m1, m2 in draw_support_samples(np.random.default_rng(seed), 8, theta=theta):
            result = oracle_amplitude(geom, m, m1, m2)
            amplitude = (result.amplitude.real, result.amplitude.imag)
            got.append(
                {
                    "m": [m, m1, m2],
                    "amplitude": [v.hex() for v in amplitude],
                    "solutions": [
                        [v.hex() for v in (s.phi, s.phi1, s.phi2, s.jacobian_det)]
                        for s in result.solutions
                    ],
                }
            )
        assert_bits(("oracle", draw), {"theta": theta, "seed": seed, "samples": got})

    def test_root_order_keeps_the_amplitude_bits(self, monkeypatch):
        # the roots of a pair share phi, so the last bit of phi orders them;
        # every order of the roots gives the same bits, where a running sum
        # of the terms in that order would not
        import vortexscatter.oracle as oracle_module

        solve = oracle_module.solve_system
        order_sensitive = 0
        for geom, m, m1, m2 in draw_support_samples(np.random.default_rng(1), 8, theta=0.1):
            roots, degenerate = solve(_constraint_system(geom))
            bits, running = set(), set()
            for perm in itertools.permutations(roots):
                monkeypatch.setattr(oracle_module, "solve_system", lambda _, p=perm: (list(p), []))
                result = oracle_amplitude(geom, m, m1, m2)
                bits.add((result.amplitude.real.hex(), result.amplitude.imag.hex()))
                total = 0j
                for s in result.solutions:
                    total += (
                        fourier_weight(geom.initial.kappa, m, s.phi)
                        * fourier_weight(geom.kappa1, m1, s.phi1).conjugate()
                        * fourier_weight(geom.kappa2, m2, s.phi2).conjugate()
                        * (geom.initial.kappa * geom.kappa1 * geom.kappa2)
                        / s.jacobian_det
                    )
                running.add((total.real.hex(), total.imag.hex()))
            assert len(roots) == 4 and degenerate == []
            assert len(bits) == 1
            order_sensitive += len(running) > 1
        assert order_sensitive >= 4

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
        # certified witness on its own residual, independent of the oracle's
        # system and of Newton
        rng = np.random.default_rng(2024)
        for geom, m, m1, m2 in draw_support_samples(rng, 100, theta=0.25):
            scanned = certified_roots(*_witness(geom))
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
            system = _constraint_system(geom)
            points = rng.uniform(0.0, TWO_PI, (20, 3))
            residual, exact = system(points)
            assert residual.shape == (20, 3) and exact.shape == (20, 3, 3)
            # the witness's residual and Jacobian, written out by components
            np.testing.assert_allclose(
                residual, conservation_residual(geom, points), rtol=0, atol=1e-14
            )
            np.testing.assert_allclose(
                exact, conservation_jacobian(geom, points), rtol=0, atol=1e-14
            )
            fd = fd_jacobian(_residual(geom), points, 1e-6)
            np.testing.assert_allclose(exact, fd, rtol=0, atol=1e-8)
            # one triple gives the batch's row, bit for bit
            for row, point in enumerate(points[:3]):
                one_residual, one_exact = system(point)
                assert one_residual.shape == (3,) and one_exact.shape == (3, 3)
                assert np.array_equal(one_residual, residual[row])
                assert np.array_equal(one_exact, exact[row])

    def test_matches_per_vector_witness_bit_for_bit(self):
        rng = np.random.default_rng(21)
        edge = np.nextafter(TWO_PI, 0.0)
        for theta in (0.1, 0.2, 0.35):
            for geom, _, _, _ in draw_support_samples(rng, 3, theta=theta):
                system = _constraint_system(geom)
                batches = []

                def recorded(points):
                    batches.append(points.copy())
                    return system(points)

                numerics_module.solve_system(recorded)
                assert batches[0].shape == (216, 3)  # the start grid, then every iterate
                batches += [
                    rng.uniform(0.0, TWO_PI, (1, 3)),
                    rng.uniform(0.0, TWO_PI, (60, 3)),
                    rng.uniform(0.0, TWO_PI, 3),
                    np.array([[0.0, 0.0, 0.0], [edge, edge, edge], [0.0, edge, 0.0]]),
                    np.array([edge, 0.0, edge]),
                ]
                for points in batches:
                    residual, exact = system(points)
                    witness_residual, witness_exact = per_vector_system(geom, points)
                    assert residual.shape == points.shape
                    assert exact.shape == points.shape + (3,)
                    assert np.array_equal(residual, witness_residual)
                    assert np.array_equal(exact, witness_exact)

    def test_det_matches_richardson_at_the_roots(self):
        geom = _geom()
        system = _constraint_system(geom)
        result = oracle_amplitude(geom, 3, 2, -1)
        assert len(result.solutions) == 4
        for sol in result.solutions:
            point = np.array([sol.phi, sol.phi1, sol.phi2])
            exact = abs(np.linalg.det(system(point)[1]))
            richardson = abs(richardson_det(_residual(geom), point))
            assert exact == pytest.approx(richardson, rel=1e-10)
            # the solution carries the determinant of the raw residual
            assert sol.jacobian_det == pytest.approx(exact * geom.initial.kappa**3, rel=1e-12)

    def test_few_residual_calls_per_solve(self, monkeypatch):
        import vortexscatter.oracle as oracle_module

        calls = []
        solve = oracle_module.solve_system

        def counting_solve(system, *args, **kwargs):
            def counted(points):
                calls.append(len(points))
                return system(points)

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


def test_solver_pins_hold_without_avx512_dispatch(pin_runs):
    # sin and cos round alike on both dispatch paths, and so does the
    # elementwise arithmetic
    assert_pins_held(pin_runs, "avx2", __file__)


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_oracle_pins_hold_on_other_openblas_kernels(core, pin_runs):
    # the kernel OpenBLAS picks for an AVX2-only or an AVX-only CPU; no
    # oracle pin may depend on it
    assert_pins_held(pin_runs, core.lower(), __file__)
