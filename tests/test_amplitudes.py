import math

import numpy as np
import pytest

from vortexscatter.amplitudes import (
    fourier_weight,
    reduced_triple_amplitude,
    single_twisted_amplitude,
    single_twisted_solutions,
    unit_imag_power,
)
from vortexscatter.errors import DegenerateSupportError, SupportRegionError
from vortexscatter.kinematics import (
    CollisionGeometry,
    TwistedState,
    angle_set,
    stripe_contains,
    triangle_geometry,
)

from _oracles import circle_intersection_azimuths, plane_wave_limit_check, single_twisted_oracle

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _geom(theta=0.2, q=0.0, kappa=1.0, kappa1=0.9, kappa2=0.7, m=0):
    return CollisionGeometry(theta, q, TwistedState.massless(kappa, m, 40.0), kappa1, kappa2)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: fourier_weight(0.0, 1, 0.3), "kappa must be positive", id="fourier-kappa-zero"),
        pytest.param(
            lambda: single_twisted_solutions(1.0, 0.9, 0.0, 0.3), "all moduli must be positive",
            id="solutions-k2-zero",
        ),
        pytest.param(
            lambda: single_twisted_solutions(-1.0, 0.9, 0.7, 0.3), "all moduli must be positive",
            id="solutions-kappa-negative",
        ),
        pytest.param(
            lambda: single_twisted_amplitude(TwistedState.massless(1.0, 2, 40.0), -1e-9, 0.3),
            "k12_mod must be non-negative",
            id="amplitude-k12-negative",
        ),
        pytest.param(
            lambda: single_twisted_amplitude(TwistedState.massless(1.0, 3, 10.0), math.nan, 0.3),
            "k12_mod must be non-negative",
            id="amplitude-k12-nan",
        ),
    ],
)
def test_out_of_domain_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestUnitImagPower:
    def test_exact_cycle(self):
        assert unit_imag_power(0) == 1
        assert unit_imag_power(1) == 1j
        assert unit_imag_power(2) == -1
        assert unit_imag_power(-1) == -1j
        assert unit_imag_power(-6) == -1


class TestFourierWeight:
    def test_zero_helicity(self):
        w = fourier_weight(1.0, 0, 2.7)
        assert w == pytest.approx(SQRT_2PI, abs=1e-14)

    def test_phase_cancellation(self):
        w = fourier_weight(1.0, 1, 0.5 * math.pi)
        assert w == pytest.approx(SQRT_2PI, abs=1e-14)

    def test_m4_phase(self):
        w = fourier_weight(1.0, 4, 0.25 * math.pi)
        assert w == pytest.approx(-SQRT_2PI, abs=1e-13)


class TestSingleTwistedSolutions:
    def test_345_geometry(self):
        branches = single_twisted_solutions(5.0, 4.0, 3.0, 0.0)
        assert len(branches) == 2
        assert branches[0].phi1 == pytest.approx(0.5 * math.pi, abs=1e-14)
        assert branches[1].phi1 == pytest.approx(-0.5 * math.pi, abs=1e-14)
        assert branches[0].phi12 == pytest.approx(math.acos(0.6), abs=1e-14)
        assert branches[1].phi12 == pytest.approx(-math.acos(0.6), abs=1e-14)

    def test_empty_support(self):
        with pytest.raises(SupportRegionError):
            single_twisted_solutions(1.0, 5.0, 1.0, 0.0)

    @pytest.mark.parametrize("k1, k2", [(1.0, 1.0), (0.75, 0.5), (0.7, 0.5), (1.1, 2.3), (2.3, 1.1)])
    @pytest.mark.parametrize(
        "toward, branches",
        [
            pytest.param(None, 1, id="on-edge"),
            pytest.param(0.0, 2, id="one-ulp-inside"),
            pytest.param(math.inf, 0, id="one-ulp-outside"),
        ],
    )
    def test_one_ulp_about_the_outer_edge_follows_stripe_contains(self, k1, k2, toward, branches):
        # the branches read the shared triangle, so one ulp inside kappa = k1 + k2
        # there are two of them, one ulp outside none, and exactly on it one
        kappa = k1 + k2 if toward is None else math.nextafter(k1 + k2, toward)
        assert stripe_contains(kappa, k1, k2) == (branches == 2)
        if branches == 0:
            with pytest.raises(SupportRegionError):
                single_twisted_solutions(kappa, k1, k2, 0.3)
            return
        solved = single_twisted_solutions(kappa, k1, k2, 0.3)
        assert len(solved) == branches
        assert all(b.degenerate == (branches == 1) for b in solved)
        if branches == 1:  # k1 and k2 parallel to k12: both inner angles exactly 0
            assert solved[0].phi1 == solved[0].phi12 == 0.3

    @pytest.mark.parametrize("j", [-270, -100, 100, 255, 256])
    def test_power_of_four_scale_moves_no_bit(self, j):
        # a cosine law on unscaled sides would overflow 2 k1 k2 at j = 256 and
        # underflow it to 0 at j = -270
        def solve(scale):
            return single_twisted_solutions(0.75 * scale, 0.75 * scale, 0.75 * scale, 0.3)

        assert solve(4.0**j) == solve(1.0)

    def test_sign_correlation_reconstruction(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            k1, k2 = rng.uniform(0.3, 3.0, 2)
            lo, hi = abs(k1 - k2), k1 + k2
            kappa = float(rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)))
            phi2 = float(rng.uniform(0.0, 2.0 * math.pi))
            for br in single_twisted_solutions(kappa, float(k1), float(k2), phi2):
                sx = k1 * math.cos(br.phi1) + k2 * math.cos(phi2)
                sy = k1 * math.sin(br.phi1) + k2 * math.sin(phi2)
                assert math.hypot(sx, sy) == pytest.approx(kappa, rel=1e-12)
                mismatch = (math.atan2(sy, sx) - br.phi12 + math.pi) % (2.0 * math.pi) - math.pi
                assert abs(mismatch) < 1e-12

    def test_back_to_back_edge(self):
        # kappa << k1 ~ k2 (the vortex line), 3.0e-4 relative to kappa inside
        # the inner edge |k1 - k2|
        kappa, k1, k2, phi2 = 0.002667389431674221, 3.008844769848077, 3.011511363222533, 0.3
        branches = single_twisted_solutions(kappa, k1, k2, phi2)
        expected = circle_intersection_azimuths(kappa, k1, k2, phi2)
        assert len(branches) == len(expected) == 2
        for br, (phi1, phi12) in zip(branches, expected):
            assert not br.degenerate
            assert abs(math.remainder(br.phi1 - phi1, 2.0 * math.pi)) < 1e-9
            assert abs(math.remainder(br.phi12 - phi12, 2.0 * math.pi)) < 1e-9



class TestSingleTwistedAmplitude:
    @pytest.mark.parametrize("j", [-20, 0, 20])
    def test_radial_band_is_relative_to_kappa(self, j):
        # a band absolute below kappa = 1 would put k12 = 0 on the support at
        # kappa = 4^-20; the oracle keeps the same band
        state = TwistedState.massless(4.0**j, 3, 40.0 * 4.0**j)
        k1 = state.kappa * np.array([0.4, -0.3])
        assert single_twisted_amplitude(state, 0.0, 0.7) == (0j, False)
        assert single_twisted_oracle(state, k1, -k1) == 0j
        for stretch in (1.0 - 5e-10, 1.0 + 5e-10):
            assert single_twisted_amplitude(state, state.kappa * stretch, 0.7).on_support
            assert single_twisted_oracle(state, k1, np.array([stretch * state.kappa, 0.0]) - k1) != 0j

    def test_on_support_zero_helicity(self):
        state = TwistedState.massless(1.0, 0, 40.0)
        value = single_twisted_amplitude(state, 1.0, 0.0)
        assert value.on_support
        assert value.smooth == pytest.approx(1.0 / (2.0 * math.pi) ** 1.5, abs=1e-15)

    def test_phase_arithmetic(self):
        state = TwistedState.massless(1.0, 2, 40.0)
        value = single_twisted_amplitude(state, 1.0, 0.5 * math.pi)
        assert value.smooth == pytest.approx(1.0 / (2.0 * math.pi) ** 1.5, abs=1e-15)


class TestReducedTripleAmplitude:
    def test_cusp_zero_at_symmetric_point(self):
        # xi = 0 makes phi* = pi/2; cos(pi/2) kills the (m=1, m1=m2=0) element
        geom = _geom(q=0.0)
        amp = reduced_triple_amplitude(geom, 1, 0, 0)
        assert amp.in_support
        assert abs(amp.value) < 1e-13
        # the record holds the angles and the triangle the value was built on
        assert amp.angles == angle_set(geom)
        assert amp.triangle == triangle_geometry(1.0, amp.angles.xi, 0.9, 0.7)

    def test_outside_stripe_zero(self):
        geom = _geom(kappa1=0.2, kappa2=3.0)
        amp = reduced_triple_amplitude(geom, 2, 1, 1)
        assert amp.value == 0j
        assert not amp.in_support
        assert amp.angles == angle_set(geom)
        # a record holding NaN never compares equal
        assert not amp.triangle.in_stripe and math.isnan(amp.triangle.area)

    def test_outside_q_region_zero(self):
        amp = reduced_triple_amplitude(_geom(q=0.5), 2, 1, 1)
        assert amp.value == 0j and not amp.in_support
        assert amp.angles is None and amp.triangle is None
        # one ulp inside |q| < kappa sin(theta), where q / kappa rounds to sin(theta)
        # and sqrt(sin^2 theta - sin^2 xi) would be exactly 0
        edge = _geom(
            theta=0.5768321621309331,
            q=3.9705274847427057,
            kappa=7.280409986954765,
            kappa1=6.552368988259288,
            kappa2=5.096286990868335,
        )
        amp = reduced_triple_amplitude(edge, 1, 1, 0)
        assert amp.value == 0j and not amp.in_support
        assert amp.angles is None and amp.triangle is None

    def test_degenerate_raises(self):
        # a sliver triangle: in-stripe but with area / kappa_tilde^2 ~ 5e-10,
        # below the degeneracy floor
        geom = CollisionGeometry(
            0.2, 0.0, TwistedState.massless(1e8, 0, 4e9), 1e8, 0.1
        )
        with pytest.raises(DegenerateSupportError):
            reduced_triple_amplitude(geom, 0, 0, 0)

    def test_underflowing_area_raises(self):
        # kappa_tilde^2 and the area underflow to 0, so the floor test alone
        # reads 0 < 0 and the amplitude would divide by the zero area
        geom = _geom(kappa=1e-160, kappa1=1e-160, kappa2=1e-160)
        with pytest.raises(DegenerateSupportError):
            reduced_triple_amplitude(geom, 5, 1, 0)

    @pytest.mark.parametrize("j", [-250, 100, 255, 256])
    def test_power_of_four_scale_moves_no_bit(self, j):
        # the value scales as the momenta^-3/2; a cosine law on unscaled sides
        # would overflow kappa_tilde^2 + kappa1^2 at j = 256
        def value(scale):
            kappa = 0.75 * scale
            geom = CollisionGeometry(
                0.2, 0.04 * scale, TwistedState.massless(kappa, 3, 0.1 * kappa), 0.7 * scale, 0.5 * scale
            )
            return reduced_triple_amplitude(geom, 3, 4, 1).value

        assert value(4.0**j) * 8.0**j == value(1.0) != 0.0

    def test_explicit_value(self):
        theta = 0.2
        q = 0.3 * math.sin(theta)
        geom = _geom(theta=theta, q=q, kappa=1.0, kappa1=0.9, kappa2=0.7)
        amp = reduced_triple_amplitude(geom, 5, 6, 1)
        angles = angle_set(geom)
        xi = angles.xi
        kt = math.cos(xi)
        from vortexscatter.numerics import heron_area

        area = heron_area(kt, 0.9, 0.7)
        d1 = math.acos((kt**2 + 0.81 - 0.49) / (2 * kt * 0.9))
        d2 = math.acos((kt**2 + 0.49 - 0.81) / (2 * kt * 0.7))
        expected = (
            unit_imag_power(2)
            * (2.0 / area)
            * math.sqrt(0.9 * 0.7)
            * math.cos(5 * angles.phi_star - 5 * angles.phi_tilde_star)
            * math.cos(6 * d1 + 1 * d2)
            / math.sqrt(math.sin(theta) ** 2 - math.sin(xi) ** 2)
        )
        assert amp.value == pytest.approx(expected, rel=1e-13)
        assert amp.phase_power == 2

    def test_parity_and_reality(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            theta = float(rng.uniform(0.1, 0.6))
            kappa = float(rng.uniform(0.5, 2.0))
            q = float(rng.uniform(-0.9, 0.9)) * kappa * math.sin(theta)
            k1, k2 = rng.uniform(0.2, 2.5, 2)
            geom = _geom(theta=theta, q=q, kappa=kappa, kappa1=float(k1), kappa2=float(k2))
            m, m1, m2 = (int(v) for v in rng.integers(-8, 9, 3))
            try:
                plus = reduced_triple_amplitude(geom, m, m1, m2)
                minus = reduced_triple_amplitude(geom, -m, -m1, -m2)
            except DegenerateSupportError:
                continue
            assert abs(plus.value) == pytest.approx(abs(minus.value), abs=1e-14 * max(1, abs(plus.value)))
            rotated = plus.value * unit_imag_power(-plus.phase_power)
            assert rotated.imag == pytest.approx(0.0, abs=1e-14 * max(1.0, abs(rotated)))



class TestPlaneWaveLimit:
    @staticmethod
    def _setup(theta=0.2, q_frac=0.25):
        q = q_frac * math.sin(theta)
        geom = _geom(theta=theta, q=q, kappa=1.0, kappa1=1.0, kappa2=0.5)
        angles = angle_set(geom)
        kt = math.cos(angles.xi)

        def weight(k1):
            s = 0.2 * kt
            if abs(k1 - kt) > 5.0 * s:
                return 0.0
            return math.exp(-0.5 * ((k1 - kt) / s) ** 2)

        return geom, kt, weight

    def test_zero_weight_gives_zero(self):
        geom, _, _ = self._setup()
        report = plane_wave_limit_check(geom, 0, 0, lambda k: 0.0, [0.1, 0.01])
        assert report.limit == 0j
        assert all(e.value == 0j for e in report.entries)
        assert report.monotone

    def test_zero_helicities_converges(self):
        geom, _, weight = self._setup()
        report = plane_wave_limit_check(geom, 0, 0, weight, [0.1, 0.03, 0.01, 3e-3, 1e-3])
        assert report.monotone
        assert report.entries[-1].rel_error < 1e-2

    def test_matched_helicities_converge(self):
        geom, _, weight = self._setup()
        report = plane_wave_limit_check(geom, 5, 5, weight, [0.1, 0.03, 0.01, 3e-3, 1e-3])
        assert report.monotone
        assert report.entries[-1].rel_error < 1e-2

    def test_epsilon_ordering_enforced(self):
        geom, _, weight = self._setup()
        with pytest.raises(ValueError):
            plane_wave_limit_check(geom, 0, 0, weight, [0.01, 0.1])
