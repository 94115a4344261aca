import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vortexscatter.errors import ConvergenceError
from vortexscatter.kinematics import CollisionGeometry, TwistedState
from vortexscatter.numerics import (
    MAX_BESSEL_ARGUMENT,
    MAX_BESSEL_ORDER,
    QuadratureSpec,
    bessel_j,
    gauss_legendre_nodes,
    gauss_legendre_on,
    heron_area,
    q_substitution,
    refine_by_doubling,
    solve_system,
)
import vortexscatter.numerics as numerics_module
from vortexscatter.numerics import _dedupe, _newton_step, _torus_distance
from vortexscatter.oracle import _constraint_system, draw_support_samples

from _oracles import (
    adaptive_open_quadrature,
    bessel_integral,
    bessel_series,
    certified_roots,
    explicit_newton_step,
    fd_jacobian,
    richardson_det,
    scalar_bessel_j,
    stripe_substitution,
)
from _pins import assert_bits


def _lane_argument(m: int):
    """One lane's argument at order m: x = 0, the smallest subnormal, the
    switches x = 10 and x^2 = 2(m + 1) with their float neighbours, an x
    whose first series term e^{m log(x/2) - lgamma(m + 1)} is subnormal or
    below the e^-745 cut to 0, or x in [0, 300]."""
    edges = [0.0, 5e-324]
    for edge in (10.0, math.sqrt(2.0 * (m + 1))):
        edges += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    lanes = [st.sampled_from(edges), st.floats(0.0, 30.0), st.floats(0.0, 300.0)]
    if m > 0:
        log_gamma = math.lgamma(m + 1.0)
        lanes.append(st.floats(-750.0, -700.0).map(lambda t: 2.0 * math.exp((t + log_gamma) / m)))
    return st.one_of(lanes)


@st.composite
def _order_and_lanes(draw):
    """One order and 1-300 lane arguments at it, at most one of them in
    (300, MAX_BESSEL_ARGUMENT], whose Miller recurrence runs up to about 1e4
    steps."""
    m = draw(st.integers(0, MAX_BESSEL_ORDER))
    xs = draw(st.lists(_lane_argument(m), min_size=1, max_size=300))
    xs += draw(st.lists(st.floats(300.0, MAX_BESSEL_ARGUMENT), max_size=1))
    return m, draw(st.permutations(xs))


_ABOVE_MAX_ARGUMENT = math.nextafter(MAX_BESSEL_ARGUMENT, math.inf)
_BAD_ORDER = rf"order must be an integer in \[0, {MAX_BESSEL_ORDER}\]"
# one lane out of range rejects the whole call, with the scalar message
_BAD_ARGUMENT = r"argument must be finite in \[0, 10000"
_BAD_SIDES = "sides must be finite and non-negative"


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: bessel_j(-1, 1.0), _BAD_ORDER, id="bessel-order-minus"),
        pytest.param(lambda: bessel_j(201, 1.0), _BAD_ORDER, id="bessel-order-above-max"),
        pytest.param(lambda: bessel_j(2.5, 1.0), _BAD_ORDER, id="bessel-order-fraction"),
        pytest.param(lambda: bessel_j(-1, np.array([1.0, 2.0])), _BAD_ORDER, id="bessel-lanes-order-minus"),
        pytest.param(
            lambda: bessel_j(201, np.array([1.0, 2.0])), _BAD_ORDER, id="bessel-lanes-order-above-max"
        ),
        pytest.param(
            lambda: bessel_j(2.5, np.array([1.0, 2.0])), _BAD_ORDER, id="bessel-lanes-order-fraction"
        ),
        pytest.param(lambda: bessel_j(0, -0.5), _BAD_ARGUMENT, id="bessel-argument-minus"),
        pytest.param(lambda: bessel_j(0, math.inf), _BAD_ARGUMENT, id="bessel-argument-inf"),
        pytest.param(lambda: bessel_j(0, math.nan), _BAD_ARGUMENT, id="bessel-argument-nan"),
        pytest.param(
            lambda: bessel_j(0, _ABOVE_MAX_ARGUMENT), _BAD_ARGUMENT, id="bessel-argument-above-max"
        ),
        pytest.param(lambda: bessel_j(0, [1.0, -0.5]), _BAD_ARGUMENT, id="bessel-lanes-list-minus"),
        pytest.param(
            lambda: bessel_j(0, [[1.0, 2.0], [math.nan, 3.0]]), _BAD_ARGUMENT, id="bessel-lanes-2d-nan"
        ),
        pytest.param(
            lambda: bessel_j(0, np.array([0.0, 5.0, math.inf])), _BAD_ARGUMENT, id="bessel-lanes-inf"
        ),
        pytest.param(
            lambda: bessel_j(0, np.array([2.0, _ABOVE_MAX_ARGUMENT])), _BAD_ARGUMENT,
            id="bessel-lanes-above-max",
        ),
        pytest.param(lambda: heron_area(-1.0, 2.0, 2.0), _BAD_SIDES, id="heron-side-minus"),
        pytest.param(lambda: heron_area(math.nan, 2.0, 2.0), _BAD_SIDES, id="heron-side-nan"),
        pytest.param(
            lambda: QuadratureSpec(node_count=1), "node_count must be >= 2", id="spec-node_count-1"
        ),
        pytest.param(lambda: QuadratureSpec(rel_tol=0.0), "rel_tol must be positive", id="spec-rel_tol-zero"),
    ],
)
def test_out_of_domain_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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

    @given(_order_and_lanes())
    @example((0, [0.5 * k for k in range(300)]))
    @example((200, [4.0, 3.7, 20.0, math.nextafter(math.sqrt(402.0), math.inf), 21.0, 1e4]))
    def test_lanes_match_scalar_bit_for_bit(self, case):
        m, xs = case
        values = bessel_j(m, np.array(xs)).tolist()
        assert [v.hex() for v in values] == [scalar_bessel_j(m, x).hex() for x in xs]

    def test_miller_lanes_need_no_rescale(self):
        # the recurrence of order m peaks highest at the first Miller argument,
        # x just above max(10, sqrt(2 (m + 1))); over the whole domain its
        # largest value is about 1.7e238 (m = 199, x just above 20). The
        # witness still rescales past 1e250, so a lane that would need it
        # differs in its bits, and an overflow fails as a RuntimeWarning.
        for m in range(MAX_BESSEL_ORDER + 1):
            first = math.nextafter(max(10.0, math.sqrt(2.0 * (m + 1))), math.inf)
            xs = [first, math.nextafter(first, math.inf), 1.5 * first, 3.0 * first, 10.0 * first]
            values = bessel_j(m, np.array(xs)).tolist()
            assert all(map(math.isfinite, values)), m
            assert [v.hex() for v in values] == [scalar_bessel_j(m, x).hex() for x in xs], m

    def test_array_shapes(self):
        assert type(bessel_j(3, 2.0)) is float
        empty = bessel_j(3, np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        assert bessel_j(3, np.zeros((0, 4))).shape == (0, 4)
        grid = np.array([[0.0, 2.0, 12.0], [30.0, 5e-324, 7.5]])
        values = bessel_j(1, grid)
        assert values.shape == (2, 3)
        assert values.tolist() == [[bessel_j(1, x) for x in row] for row in grid.tolist()]

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
            for x, value in zip(xs, bessel_j(m, np.array(xs))):
                assert value == pytest.approx(float(special.jv(m, x)), abs=1e-12), (m, x)


class TestHeron:
    def test_equilateral(self):
        assert heron_area(1.0, 1.0, 1.0) == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-15)

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

    @pytest.mark.parametrize("j", [-250, -200, 130, 250])
    def test_power_of_four_scale_moves_no_bit(self, j):
        # the product of the four side sums would overflow or underflow at
        # these scales without the rescale by a power of two
        assert heron_area(3.0 * 4.0**j, 4.0 * 4.0**j, 5.0 * 4.0**j) == 6.0 * 16.0**j

    def test_needle_and_subnormal_areas(self):
        # the rescale centres the exponents of the longest and the shortest
        # side; by the longest alone the short side of the needle would
        # flush to 0. An area below the smallest normal float is 0.
        assert heron_area(1e-150, 1e150, 1e150) == 0.5
        assert heron_area(1e-160, 1e-160, 1e-160) == 0.0


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
        with pytest.raises(ValueError, match="max_refinements must be >= 1"):
            QuadratureSpec(max_refinements=0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="rel_tol must be finite"):
                QuadratureSpec(rel_tol=bad)
        # these used to fail only at the first estimate, in numpy's leggauss or range()
        for name, bad in (("node_count", 24.5), ("node_count", 24.0), ("max_refinements", 1.5)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                QuadratureSpec(**{name: bad})
        # bools are integers: True is 1
        with pytest.raises(ValueError, match="node_count must be >= 2"):
            QuadratureSpec(node_count=True)
        assert QuadratureSpec(max_refinements=True).max_refinements == 1

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

    def test_cached_nodes_are_read_only(self):
        x, w = gauss_legendre_nodes(4)
        for a in (x, w):
            with pytest.raises(ValueError):
                a *= 0.0
        ref_x, ref_w = np.polynomial.legendre.leggauss(4)
        nodes, weights = gauss_legendre_on(0.0, 1.0, 4)
        assert np.array_equal(nodes, 0.5 + 0.5 * ref_x)
        assert np.array_equal(weights, 0.5 * ref_w)

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


def _refine_ladder(values: dict, spec: QuadratureSpec):
    """refine_by_doubling on stored estimates by node count: (value, the
    node counts it asked for, in order)."""
    called = []

    def estimate(n):
        called.append(n)
        return values[n]

    return refine_by_doubling(estimate, spec, "ladder"), called


def _geometric(rate: float, node_counts, first_error: float = 2.0**-8) -> dict:
    """1 + first_error / rate^k at the k-th node count; at a power-of-two
    rate every value and difference is exact."""
    return {n: 1.0 + first_error / rate**k for k, n in enumerate(node_counts)}


class TestRefineByDoubling:
    """The two stop tests of refine_by_doubling on synthetic ladders."""

    def test_agreement_exit_takes_no_half_estimate(self):
        values = {24: 1.0, 48: 1.0 + 2.0**-40}
        value, called = _refine_ladder(values, QuadratureSpec(24, rel_tol=1e-6))
        assert (value, called) == (values[48], [24, 48])

    def test_rate_4_ladder_stops_one_doubling_before_agreement(self):
        # errors 2^-8, 2^-10, ... at n = 8, 16, ...: rate 4 puts the error of
        # A_64 at a third of its move, within 1e-4; agreement alone waits for
        # n = 128
        values = _geometric(4.0, (8, 16, 32, 64, 128))
        spec = QuadratureSpec(16, rel_tol=1e-4)
        assert abs(values[64] - values[32]) > spec.rel_tol * values[64]
        assert abs(values[128] - values[64]) <= spec.rel_tol * values[128]
        value, called = _refine_ladder(values, spec)
        assert (value, called) == (values[64], [16, 32, 8, 64])

    def test_large_contraction_then_stall_is_refused(self, monkeypatch):
        # |A_16 - A_8| is 1e5 moves of 10 rel_tol, then the moves stall: the
        # capped rate refuses A_32, where the raw rate would accept it
        values = {8: 2.0, 16: 1.0, 32: 1.0 + 1e-5, 64: 1.0 + 2e-5}
        spec = QuadratureSpec(16, rel_tol=1e-6, max_refinements=2)
        with pytest.raises(ConvergenceError) as err:
            _refine_ladder(values, spec)
        assert err.value.estimates == (values[32], values[64])
        monkeypatch.setattr(numerics_module, "_RATE_CAP", math.inf)
        assert _refine_ladder(values, spec) == (values[32], [16, 32, 8])

    @pytest.mark.parametrize("node_count", [5, 2])
    def test_odd_or_two_node_count_takes_no_half_estimate(self, node_count):
        counts = [node_count * 2**k for k in range(4)]
        values = _geometric(4.0, counts)
        value, called = _refine_ladder(values, QuadratureSpec(node_count, rel_tol=2.0**-11))
        assert called == counts[:3]
        assert value == values[counts[2]]

    def test_convergence_error_carries_the_last_two_doublings(self):
        # the n/2 estimate is taken, yet never reported
        values, called = _geometric(1.5, (8, 16, 32)), []
        spec = QuadratureSpec(16, rel_tol=1e-9, max_refinements=1)
        with pytest.raises(ConvergenceError) as err:
            refine_by_doubling(lambda n: called.append(n) or values[n], spec, "ladder")
        assert called == [16, 32, 8]
        coarse, fine = err.value.estimates
        assert (coarse, fine) == (values[16], values[32])
        assert coarse != fine


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
    """solve_system's system of a residual on (N, 3) rows of angles, with its
    central-difference Jacobian: both transposed to the (3, N) and (3, 3, N)
    column layout."""

    def system(angles):
        points = angles.T
        return residual(points).T, fd_jacobian(residual, points, 1e-6).T

    return system


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


# A[i, j]: amplitude of the sinusoid in angle j of component i (rz is
# sqrt(2) sin(x - pi/4) + 1)
_EMBEDDED_AMPLITUDES = [[3.0, 4.0, 3.0], [0.0, 4.0, 3.0], [math.sqrt(2.0), 0.0, 0.0]]


def _embedded_two_root_system(angles):
    # the residual and Jacobian above take (N, 3) rows, as the witness does
    points = angles.T
    return _embedded_two_root_residual(points).T, _embedded_two_root_jacobian(points).T


class TestSolveSystem:
    def test_two_root_geometry(self):
        roots, degenerate = solve_system(_fd(_embedded_two_root_residual))
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

        roots, degenerate = solve_system(_fd(residual))
        assert roots == [] and degenerate == []

    def test_grid_doubling_never_loses_roots(self, monkeypatch):
        fd = _fd(_embedded_two_root_residual)
        monkeypatch.setattr(numerics_module, "_START_GRID_DENSITY", 3)
        base = solve_system(fd)
        monkeypatch.setattr(numerics_module, "_START_GRID_DENSITY", 6)
        dense = solve_system(fd)
        assert len(dense[0]) >= len(base[0])

    def test_batched_residual_error_propagates(self, monkeypatch):
        # an error of the system is not retried or swallowed
        monkeypatch.setattr(numerics_module, "_START_GRID_DENSITY", 2)
        calls = []

        def failing_system(points):
            calls.append(np.shape(points))
            raise ZeroDivisionError("residual failed")

        with pytest.raises(ZeroDivisionError):
            solve_system(failing_system)
        assert calls == [(3, 8)]

    def test_exact_jacobian_finds_the_same_roots(self):
        fd_roots, _ = solve_system(_fd(_embedded_two_root_residual))
        roots, degenerate = solve_system(_embedded_two_root_system)
        assert not degenerate
        assert len(roots) == len(fd_roots) == 2
        for root, fd_root in zip(roots, fd_roots):
            np.testing.assert_allclose(root.angles, fd_root.angles, rtol=0, atol=1e-12)
            richardson = abs(richardson_det(_embedded_two_root_residual, root.angles))
            assert root.jacobian_det == pytest.approx(richardson, rel=1e-10)

    def test_wide_merge_radius_keeps_both_roots(self, monkeypatch):
        monkeypatch.setattr(numerics_module, "_DEDUPE_TOL", 1e-2)
        roots, degenerate = solve_system(_fd(_embedded_two_root_residual))
        assert not degenerate
        assert len(roots) == 2
        for root in roots:
            assert root.angles[0] == pytest.approx(0.25 * math.pi, abs=1e-9)

    def test_call_and_column_counts_of_the_support_samples(self):
        # the system's calls and the columns they take over 300 solves: an
        # iterate that settles or is dropped one step early or late moves
        # the column total
        calls = columns = 0
        for geom, *_ in draw_support_samples(np.random.default_rng(7), 300):
            system = _constraint_system(geom)

            def counted(points, system=system):
                nonlocal calls, columns
                calls += 1
                columns += points.shape[1]
                return system(points)

            solve_system(counted)
        assert (calls, columns) == (4048, 162_479)

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
            assert _dedupe(points.T, 1e-6) == reference(points, 1e-6)

    def test_dense_grid_scan_agreement(self):
        roots, _ = solve_system(_fd(_embedded_two_root_residual))
        certified = certified_roots(
            _embedded_two_root_residual, _embedded_two_root_jacobian, _EMBEDDED_AMPLITUDES
        )
        assert len(certified) == len(roots) == 2
        for root in roots:
            dists = []
            for c in certified:
                d = np.abs(root.angles - c) % (2.0 * math.pi)
                dists.append(np.max(np.minimum(d, 2.0 * math.pi - d)))
            assert min(dists) < 5e-3

    def test_witness_frontier_cap(self):
        # an identically zero component excludes no box: the other two vanish
        # on curves, which the survivors cover until they pass the cap
        def flat_residual(points):
            res = _embedded_two_root_residual(points)
            res[..., 2] = 0.0
            return res

        with pytest.raises(RuntimeError, match="frontier exploded"):
            certified_roots(flat_residual, _embedded_two_root_jacobian, _EMBEDDED_AMPLITUDES)


_TWO_PI = 2.0 * math.pi


@given(
    st.lists(st.tuples(*[st.floats(0.0, _TWO_PI)] * 3), min_size=1, max_size=6),
    st.tuples(*[st.floats(0.0, _TWO_PI)] * 3),
)
@example([(0.0, _TWO_PI, math.pi), (_TWO_PI, 0.0, 0.0)], (_TWO_PI, 0.0, math.pi))
@example([(math.nextafter(_TWO_PI, 0.0), 0.0, _TWO_PI)], (0.0, math.nextafter(0.0, 1.0), 0.0))
def test_torus_distance_needs_no_modulo_on_its_domain(points, ref):
    """On angles in [0, 2 pi], exact 0 and 2 pi included, the separation
    |a - b| lies in [0, 2 pi]: a modulo 2 pi would keep all of it but 2 pi,
    whose min(d, 2 pi - d) is 0 either way."""
    points, ref = np.array(points).T, np.array(ref)[:, None]
    d = np.abs(points - ref) % _TWO_PI
    with_modulo = np.minimum(d, _TWO_PI - d).max(axis=0)
    got = _torus_distance(points, ref)
    assert np.array_equal(got, with_modulo)
    assert np.array_equal(np.signbit(got), np.signbit(with_modulo))


def _orthogonal(rng, n):
    return np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]


def _ill_conditioned(rng, n, max_cond=1e10):
    # singular values 1, U(0.5, 1) and 1/cond: one direction nearly lost,
    # so cond eps bounds the error of det and of the step; scales 1e-3..1e3
    cond = 10.0 ** rng.uniform(0.0, math.log10(max_cond), n)
    s = np.stack([np.ones(n), rng.uniform(0.5, 1.0, n), 1.0 / cond], axis=1)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n)
    jac = (_orthogonal(rng, n) * s[:, None, :]) @ _orthogonal(rng, n).transpose(0, 2, 1)
    return jac * scale[:, None, None]


def _singular(rng):
    # a zero row in each position, a zero column, and equal columns 1 and 2
    # (the Jacobian of a system at phi1 = phi2 has parallel ones there)
    jac = rng.normal(size=(5, 3, 3))
    for k in range(3):
        jac[k, k] = 0.0
    jac[3, :, 0] = 0.0
    jac[4, :, 2] = jac[4, :, 1]
    return jac


class TestNewtonStep:
    """numerics._newton_step, Cramer's rule on elementwise arithmetic,
    against LAPACK's det and solve. The (N, 3, 3) matrices and (N, 3)
    residuals that LAPACK takes enter the step transposed, as the (3, 3, N)
    columns and (3, N) residuals of solve_system's layout."""

    @pytest.mark.parametrize("kind", ["random", "ill_conditioned"])
    def test_matches_lapack_within_cond_eps(self, kind):
        rng = np.random.default_rng(23)
        n = 500
        jac = rng.normal(size=(n, 3, 3)) if kind == "random" else _ill_conditioned(rng, n)
        res = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-12.0, 0.0, (n, 1))
        det, step = _newton_step(jac.T, res.T)
        step = step.T
        ref_det = np.linalg.det(jac)
        ref_step = np.linalg.solve(jac, -res[..., None])[..., 0]
        # worst measured over 2000 rows of each kind: 10.4 (det) and 1.4 (step)
        tol = 32.0 * np.finfo(float).eps * np.linalg.cond(jac)
        assert np.all(np.abs(det - ref_det) <= tol * np.abs(ref_det))
        err = np.linalg.norm(step - ref_step, axis=1)
        assert np.all(err <= tol * np.linalg.norm(ref_step, axis=1))
        if kind == "ill_conditioned":
            assert np.linalg.cond(jac).max() > 1e9

    def test_singular_rows_give_det_exactly_zero(self):
        rng = np.random.default_rng(5)
        jac = _singular(rng)
        with np.errstate(all="ignore"):
            det, step = _newton_step(jac.T, rng.normal(size=(3, len(jac))))
        assert np.all(det == 0.0)
        assert not np.isfinite(step).all(axis=0).any()

    def test_rows_are_independent_and_non_finite_rows_stay_non_finite(self):
        rng = np.random.default_rng(9)
        jac = rng.normal(size=(12, 3, 3))
        res = rng.normal(size=(12, 3))
        bad = [1, 4, 7, 10]
        jac[1, 0, 0] = np.inf
        jac[4, 2, 1] = -np.inf
        jac[7, 1, 2] = np.nan
        res[10, 1] = np.nan
        with np.errstate(all="ignore"):
            det, step = _newton_step(jac.T, res.T)
        assert not np.isfinite(det[bad[:3]]).any()
        assert not np.isfinite(step[:, bad]).all(axis=0).any()
        good = np.setdiff1d(np.arange(12), bad)
        alone_det, alone_step = _newton_step(jac[good].T, res[good].T)
        assert np.array_equal(det[good], alone_det)
        assert np.array_equal(step[:, good], alone_step)

    @pytest.mark.parametrize("kind", ["random", "singular", "non_finite", "transposed_view"])
    def test_matches_the_explicit_step_bit_for_bit(self, kind):
        # the witness writes each cofactor product, sum and quotient as its
        # own array; the step forms the same operations in place. Scales up
        # to 1e80 make some products overflow to inf.
        rng = np.random.default_rng(31)
        if kind == "singular":
            jac = _singular(rng)
        else:
            jac = rng.normal(size=(300, 3, 3)) * 10.0 ** rng.uniform(-80.0, 80.0, (300, 1, 1))
        res = rng.normal(size=(len(jac), 3)) * 10.0 ** rng.uniform(-12.0, 0.0, (len(jac), 1))
        if kind == "non_finite":
            for value, rows in zip((np.inf, -np.inf, np.nan), np.split(rng.permutation(300)[:90], 3)):
                jac[rows, rng.integers(0, 3, 30), rng.integers(0, 3, 30)] = value
            res[rng.permutation(300)[:20], rng.integers(0, 3, 20)] = np.nan
        jac, res = jac.T, res.T  # (column, component, point) views
        if kind != "transposed_view":
            jac, res = np.ascontiguousarray(jac), np.ascontiguousarray(res)
        with np.errstate(all="ignore"):
            got, want = _newton_step(jac, res), explicit_newton_step(jac, res)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True)
            numbers = ~np.isnan(a)
            assert np.array_equal(np.signbit(a[numbers]), np.signbit(b[numbers]))  # signed zeros
        if kind == "non_finite":
            assert not np.isfinite(got[1]).all()

    def test_bits_do_not_depend_on_memory_layout(self):
        # a system may return its columns as transposed views of point-major
        # arrays
        rng = np.random.default_rng(4)
        jac = rng.normal(size=(40, 3, 3))  # (point, component, column)
        res = rng.normal(size=(40, 3))
        view_det, view_step = _newton_step(jac.T, res.T)
        det, step = _newton_step(np.ascontiguousarray(jac.T), np.ascontiguousarray(res.T))
        assert np.array_equal(view_det, det) and np.array_equal(view_step, step)

    def test_solver_bits_do_not_depend_on_memory_layout(self):
        for geom, *_ in draw_support_samples(np.random.default_rng(3), 4, theta=0.2):
            system = _constraint_system(geom)

            def as_views(points):
                views = tuple(np.ascontiguousarray(a.T).T for a in system(points))
                # a single point is contiguous in any layout
                assert points.shape[1] == 1 or not any(a.flags.c_contiguous for a in views)
                return views

            def as_copies(points):
                return tuple(np.ascontiguousarray(a) for a in system(points))

            views, copies = solve_system(as_views), solve_system(as_copies)
            assert len(views[0]) == 4 and views[1] == copies[1] == []
            assert _root_hexes(views[0]) == _root_hexes(copies[0])

    def test_iteration_cap_bounds_the_calls_and_the_roots(self, monkeypatch):
        # uncapped, this geometry takes 14 calls, and 3 of its 4 roots have
        # settled within the first 6
        initial = TwistedState.massless(1.0, 0, 40.0)
        geom = CollisionGeometry(0.2, 0.3 * math.sin(0.2), initial, 0.9, 0.7)
        system = _constraint_system(geom)
        assert len(solve_system(system)[0]) == 4
        monkeypatch.setattr(numerics_module, "_MAX_ITERATIONS", 6)
        batches = []

        def recorded(points):
            batches.append(points.copy())
            return system(points)

        roots, degenerate = solve_system(recorded)
        assert len(batches) == 6 and batches[-1].shape[1] > 0
        assert len(roots) == 3 and degenerate == []
        settled = {}
        for points in batches:
            norms = np.abs(system(points)[0]).max(axis=0)
            for point, norm in zip((points % (2.0 * math.pi)).T, norms):
                if norm <= 1e-12:
                    settled[tuple(point.tolist())] = norm
        for root in roots:
            assert settled[tuple(root.angles.tolist())] == root.residual_norm

    def test_solver_drops_singular_rows_without_a_warning(self):
        calls = []

        def singular_everywhere(points):
            calls.append(points.shape[1])
            jac = np.zeros((3,) + points.shape)
            jac[1] = jac[2] = np.cos(points)  # equal columns
            return np.sin(points), jac

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_system(singular_everywhere) == ([], [])
        assert calls == [numerics_module._START_GRID_DENSITY**3]

    def test_degenerate_roots_are_reported_without_a_warning(self):
        # the Jacobian turns singular (a zero last row) only where the
        # residual has converged, so every root is settled with det exactly 0
        def singular_at_roots(points):
            res = np.sin(points)
            jac = np.eye(3)[:, :, None] * np.cos(points)
            converged = np.max(np.abs(res), axis=0) <= 1e-12
            jac[:, 2, converged] = 0.0
            return res, jac

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots, degenerate = solve_system(singular_at_roots)
        assert roots == []
        assert len(degenerate) == 8
        assert all(r.jacobian_det == 0.0 for r in degenerate)


def _band(points, lo, hi):
    """The points with phi in [lo, hi), a mask that broadcasts along the last
    axis of the (3, N) residuals and (3, 3, N) Jacobian columns."""
    return (points[0] >= lo) & (points[0] < hi)


def _non_finite_residual_system(points):
    # no start point lies in the NaN band; iterates walk into it
    res, jac = _embedded_two_root_system(points)
    return np.where(_band(points, 4.95, 5.3), np.nan, res), jac


def _singular_jacobian_system(points):
    # a zero middle row (det exactly 0) in one band, inf entries in another
    res, jac = _embedded_two_root_system(points)
    zero_row = jac * np.array([[1.0], [0.0], [1.0]])
    jac = np.where(_band(points, 1.8, 2.1), zero_row, jac)
    return res, np.where(_band(points, 4.4, 4.75), np.inf, jac)


def _two_cycle_system(points):
    # In [3.0, 4.4) the Jacobian is replaced by a tiny diagonal one whose
    # steps, clipped to the largest Newton step, go up in [3.0, 3.7) and down
    # in [3.7, 4.4): every iterate there bounces between two points.
    res, jac = _embedded_two_root_system(points)
    sign = np.where(_band(points, 3.0, 3.7), 1.0, -1.0)
    bounce = np.eye(3)[:, :, None] * (-1e-6 * res * sign)
    return res, np.where(_band(points, 3.0, 4.4), bounce, jac)


def _step_overflow_system(points):
    # finite residual and |det| > 1e-300, but a step beyond the float range
    res, jac = _embedded_two_root_system(points)
    inside = _band(points, 1.3, 1.6)
    res = np.where(inside, 1e30 * res, res)
    return res, np.where(inside, jac * np.array([[1e-290], [1.0], [1.0]]), jac)


_DROP_SYSTEMS = {
    "non_finite_residual": (_non_finite_residual_system, [(4.95, 5.3)]),
    "singular_jacobian": (_singular_jacobian_system, [(1.8, 2.1), (4.4, 4.75)]),
    "two_cycle": (_two_cycle_system, [(3.0, 4.4)]),
    "step_overflow": (_step_overflow_system, [(1.3, 1.6)]),
}


def _root_hexes(roots):
    return [[float(v).hex() for v in (*r.angles, r.jacobian_det, r.residual_norm)] for r in roots]


class TestDroppedIterates:
    @pytest.mark.pin
    @pytest.mark.parametrize("name", list(_DROP_SYSTEMS))
    def test_same_roots_and_rows_as_pinned(self, name, monkeypatch):
        # the bands were placed for a 6^3 start grid, from which iterates
        # reach every band after the first step
        monkeypatch.setattr(numerics_module, "_START_GRID_DENSITY", 6)
        system, bands = _DROP_SYSTEMS[name]
        rows, band_rows = [], []

        def counted(points):
            rows.append(points.shape[1])
            band_rows.append([int(_band(points, lo, hi).sum()) for lo, hi in bands])
            return system(points)

        roots, degenerate = solve_system(counted)
        # each drop band holds iterates after the first step...
        for k in range(len(bands)):
            assert any(counts[k] for counts in band_rows[1:])
        # ...and none at the last step: they were dropped
        assert not any(band_rows[-1])
        # the row count of every system call, and each root's angles, |det|
        # and residual norm as float.hex strings
        assert_bits(
            ("solve_system", name),
            {"call_rows": rows, "roots": _root_hexes(roots), "degenerate": _root_hexes(degenerate)},
        )


def _witness_systems():
    for theta in (0.05, 0.2, 1.0):
        for geom, *_ in draw_support_samples(np.random.default_rng(7), 50, theta=theta):
            yield _constraint_system(geom)
    for system, _ in _DROP_SYSTEMS.values():
        yield system


def test_roots_carry_the_norm_and_det_of_their_point():
    # a root's residual norm and |det| come from the Newton step at which it
    # settled; a fresh call of the system at the reported angles repeats them
    for system in _witness_systems():
        roots, degenerate = solve_system(system)
        assert roots
        for root in roots + degenerate:
            res, jac = system(root.angles[:, None])
            assert float(np.max(np.abs(res))).hex() == root.residual_norm.hex()
            with np.errstate(divide="ignore", invalid="ignore"):  # a degenerate det may be 0
                det, _ = _newton_step(jac, res)
            assert float(abs(det[0])).hex() == root.jacobian_det.hex()
