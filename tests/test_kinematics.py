import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vortexscatter.errors import SupportRegionError
from vortexscatter.kinematics import (
    CollisionGeometry,
    TwistedState,
    angle_set,
    field_amplitude,
    stripe_contains,
    triangle_geometry,
)
from vortexscatter.numerics import heron_area
from vortexscatter.wavepackets import WavePacketProfile

from _oracles import bessel_series, per_point_field


def _state(kappa=1.0, m=0, k_z=10.0):
    return TwistedState.massless(kappa, m, k_z)


def _geom(theta=0.2, q=0.0, kappa=1.0, kappa1=0.9, kappa2=0.7, m=0):
    return CollisionGeometry(theta, q, _state(kappa, m), kappa1, kappa2)


class TestTwistedState:
    def test_massless_energy(self):
        s = _state(1.0, 2, 10.0)
        assert s.omega == pytest.approx(math.hypot(1.0, 10.0))
        assert s.mass_squared == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        # a fractional m used to construct and fail only in field_amplitude
        for m in (2.5, 2.0):
            with pytest.raises(ValueError, match="m must be an integer"):
                TwistedState.massless(1.0, m, 50.0)
        assert TwistedState.massless(1.0, np.int64(2), 50.0).m == 2


_NON_FINITE_STATE = "kappa, k_z and omega must be finite"
_NON_FINITE_GEOMETRY = "theta, q and the final transverse moduli must be finite"


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: TwistedState(math.nan, 0, 1.0, 2.0), _NON_FINITE_STATE, id="state-kappa-nan"),
        pytest.param(
            lambda: TwistedState(1.0, 0, math.inf, math.inf), _NON_FINITE_STATE, id="state-k_z-omega-inf"
        ),
        pytest.param(lambda: _state(k_z=math.nan), _NON_FINITE_STATE, id="massless-k_z-nan"),
        pytest.param(lambda: _geom(q=math.nan), _NON_FINITE_GEOMETRY, id="geometry-q-nan"),
        pytest.param(lambda: _geom(kappa1=math.nan), _NON_FINITE_GEOMETRY, id="geometry-kappa1-nan"),
        pytest.param(lambda: _geom(kappa2=math.inf), _NON_FINITE_GEOMETRY, id="geometry-kappa2-inf"),
        pytest.param(
            lambda: WavePacketProfile(math.nan, 0.1), "kappa0 must be finite and positive",
            id="profile-kappa0-nan",
        ),
        pytest.param(
            lambda: WavePacketProfile(1.0, math.inf), "sigma must be finite and positive",
            id="profile-sigma-inf",
        ),
    ],
)
def test_non_finite_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: TwistedState(-1.0, 0, 1.0, 2.0), "kappa must be positive", id="state-kappa-negative"
        ),
        pytest.param(
            lambda: TwistedState(1.0, 0, 1.0, -2.0), "omega must be positive", id="state-omega-negative"
        ),
        pytest.param(
            lambda: TwistedState(1.0, 0, 5.0, 1.0), r"omega\^2 must be >= kappa\^2 \+ k_z\^2",
            id="state-mass-squared-negative",
        ),
        pytest.param(lambda: _geom(theta=0.0), r"theta must lie in \(0, pi/2\)", id="geometry-theta-zero"),
        pytest.param(
            lambda: _geom(theta=0.5 * math.pi), r"theta must lie in \(0, pi/2\)", id="geometry-theta-pi/2"
        ),
        pytest.param(
            lambda: _geom(kappa1=0.0), "final transverse moduli must be positive", id="geometry-kappa1-zero"
        ),
        pytest.param(
            lambda: _geom(kappa2=-0.7), "final transverse moduli must be positive", id="geometry-kappa2-minus"
        ),
        pytest.param(
            lambda: stripe_contains(0.0, 0.9, 0.7), "all moduli must be positive", id="stripe-kappa-zero"
        ),
        pytest.param(
            lambda: triangle_geometry(1.0, 0.0, 0.9, -0.7), "all moduli must be positive",
            id="triangle-kappa2-minus",
        ),
        pytest.param(
            lambda: field_amplitude(_state(), -1e-9, 0.0), "r must be non-negative", id="field-r-minus"
        ),
        # reduced_triple_amplitude raised OverflowError from heron_area here
        pytest.param(
            lambda: _geom(kappa=1e150, kappa1=1e160, kappa2=1e160),
            "squares of the final transverse moduli must be finite",
            id="geometry-final-moduli-1e160",
        ),
    ],
)
def test_out_of_domain_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestAngleSet:
    def test_symmetric_point(self):
        angles = angle_set(_geom(q=0.0))
        assert angles.xi == 0.0
        assert angles.phi_star == pytest.approx(0.5 * math.pi, abs=1e-15)
        assert angles.phi_tilde_star == pytest.approx(0.5 * math.pi, abs=1e-15)

    def test_boundary_excluded(self):
        with pytest.raises(SupportRegionError):
            angle_set(_geom(q=math.sin(0.2)))  # |q| = kappa sin(theta)
        # |q| is one ulp below kappa sin(theta), but q / kappa rounds to sin(theta)
        with pytest.raises(SupportRegionError):
            angle_set(_geom(theta=0.6424507411017956, q=3.4748134637392347, kappa=5.7994810873570755))

    def test_xi_undefined(self):
        # |q| >= kappa: then |q / kappa| >= 1 >= sin(theta)
        with pytest.raises(SupportRegionError):
            angle_set(_geom(q=1.5))

    def test_half_boundary_values(self):
        theta = 0.2
        angles = angle_set(_geom(theta=theta, q=0.5 * math.sin(theta)))
        xi = math.asin(0.5 * math.sin(theta))
        assert angles.xi == pytest.approx(xi, abs=1e-15)
        assert angles.phi_star == pytest.approx(math.acos(0.5), abs=1e-15)
        assert angles.phi_tilde_star == pytest.approx(
            math.acos(math.tan(xi) / math.tan(theta)), abs=1e-15
        )
        assert angles.phi_star <= angles.phi_tilde_star

    def test_reflection_identities(self):
        theta = 0.35
        for frac in (0.1, 0.4, 0.8):
            q = frac * math.sin(theta)
            plus = angle_set(_geom(theta=theta, q=q))
            minus = angle_set(_geom(theta=theta, q=-q))
            assert plus.phi_star == pytest.approx(math.pi - minus.phi_star, abs=1e-14)
            assert plus.phi_tilde_star == pytest.approx(
                math.pi - minus.phi_tilde_star, abs=1e-14
            )

    def test_edge_angles_keep_their_digits(self):
        # near the edge q / kappa -> sin(theta) both azimuths are small, and
        # an acos of their cosine kept about half their digits (errors of a
        # few percent). The reference is asin of the root of the exact
        # sin^2 theta - sin^2 xi of the rounded sin(theta) and q / kappa,
        # over sin theta for phi*, and for phi~* over sin theta cos xi, whose
        # square sin^2 theta - sin^2 xi + (sin xi cos theta)^2 also takes the
        # rounded cos(theta): cos xi from the rounded sin(theta) alone would
        # be off by up to tan^2 theta ulps near theta = pi/2
        rng = np.random.default_rng(45)
        compared = 0
        for _ in range(500):
            theta, kappa = float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.5, 2.0))
            sin_t = math.sin(theta)
            q = kappa * sin_t * (1.0 - 10.0 ** rng.uniform(-15.0, -3.0))
            sin_xi = q / kappa
            if sin_xi >= sin_t:
                continue
            angles = angle_set(_geom(theta=theta, q=q, kappa=kappa))
            root_sq = Fraction(sin_t) ** 2 - Fraction(sin_xi) ** 2
            root = math.sqrt(root_sq)
            sin_t_cos_xi = math.sqrt(root_sq + (Fraction(sin_xi) * Fraction(math.cos(theta))) ** 2)
            assert angles.phi_star == pytest.approx(math.asin(root / sin_t), rel=1e-15)
            assert angles.phi_tilde_star == pytest.approx(math.asin(root / sin_t_cos_xi), rel=1e-15)
            compared += 1
        assert compared > 450


class TestTriangleGeometry:
    def test_345(self):
        tri = triangle_geometry(5.0, 0.0, 4.0, 3.0)
        assert tri.kappa_tilde == 5.0
        assert tri.area == 6.0
        assert tri.delta1 == pytest.approx(math.acos(0.8), abs=1e-15)
        assert tri.delta2 == pytest.approx(math.acos(0.6), abs=1e-15)
        assert tri.in_stripe and not tri.degenerate

    def test_equilateral(self):
        tri = triangle_geometry(1.0, 0.0, 1.0, 1.0)
        assert tri.delta1 == pytest.approx(math.pi / 3.0, abs=1e-15)
        assert tri.delta2 == pytest.approx(math.pi / 3.0, abs=1e-15)
        assert tri.area == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-15)

    def test_outside_stripe_flag(self):
        tri = triangle_geometry(1.0, 0.0, 1.0, 3.0)
        assert not tri.in_stripe
        assert math.isnan(tri.area)

    def test_boundary_degenerate_flag(self):
        tri = triangle_geometry(2.0, 0.0, 1.0, 1.0)
        assert not tri.in_stripe
        assert tri.degenerate
        assert tri.area == 0.0

    def test_angle_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            kt, k1, k2 = rng.uniform(0.2, 3.0, 3)
            if not stripe_contains(kt, k1, k2):
                continue
            tri = triangle_geometry(kt, 0.0, float(k1), float(k2))
            c3 = (k1**2 + k2**2 - kt**2) / (2.0 * k1 * k2)
            delta3 = math.acos(min(1.0, max(-1.0, c3)))
            assert tri.delta1 + tri.delta2 + delta3 == pytest.approx(math.pi, abs=1e-12)

    def test_needle_angles_keep_their_digits(self):
        # near either stripe edge one or two inner angles are small, and
        # asin(2 area / (kt k_i)) takes them to a few ulps; an acos of the
        # cosine missed by up to 100% here, reading 0 for angles near 1e-8
        rng = np.random.default_rng(12)
        compared = 0
        for _ in range(500):
            k1, k2 = (float(v) for v in rng.uniform(0.1, 3.0, 2))
            gap = 10.0 ** rng.uniform(-15.0, -2.0)
            kt = (k1 + k2) * (1.0 - gap) if rng.integers(2) else abs(k1 - k2) * (1.0 + gap)
            if not stripe_contains(kt, k1, k2):
                continue
            tri = triangle_geometry(kt, 0.0, k1, k2)
            for delta, k in ((tri.delta1, k1), (tri.delta2, k2)):
                if delta < 0.1:
                    assert delta == pytest.approx(math.asin(2.0 * tri.area / (kt * k)), rel=1e-14)
                    compared += 1
        assert compared > 500


class TestStripe:
    def test_examples(self):
        assert stripe_contains(1.5, 1.0, 1.0)
        assert not stripe_contains(1.0, 1.0, 3.0)
        assert not stripe_contains(2.0, 1.0, 1.0)  # boundary excluded

    def test_agrees_with_heron_finiteness(self):
        rng = np.random.default_rng(17)
        sides = rng.uniform(0.05, 5.0, size=(10_000, 3))
        for kt, k1, k2 in sides:
            area = heron_area(kt, k1, k2)
            finite_positive = math.isfinite(area) and area > 0.0
            assert stripe_contains(kt, k1, k2) == finite_positive


class TestFieldAmplitude:
    def test_core_values(self):
        s0 = _state(kappa=2.0, m=0)
        assert field_amplitude(s0, 0.0, 0.3) == pytest.approx(
            math.sqrt(2.0 / (2.0 * math.pi)), abs=1e-15
        )
        s3 = _state(kappa=2.0, m=3)
        assert field_amplitude(s3, 0.0, 0.3) == 0.0

    def test_series_oracle_value(self):
        s = _state(kappa=1.0, m=1)
        value = field_amplitude(s, 1.0, 0.5 * math.pi)
        expected = 1j * bessel_series(1, 1.0) * math.sqrt(1.0 / (2.0 * math.pi))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_negative_helicity_reflection(self):
        sp = _state(kappa=1.3, m=4)
        sm = _state(kappa=1.3, m=-4)
        for r, phi in [(0.7, 0.3), (2.0, 1.1)]:
            assert field_amplitude(sm, r, phi) == pytest.approx(
                field_amplitude(sp, r, -phi), abs=1e-14
            )

    @given(m=st.integers(-8, 8), r=st.floats(0.2, 4.0))
    @example(m=3, r=2.6936239108988747)  # moduli 1 ulp apart across a 13th-decimal rounding edge
    def test_modulus_azimuth_independent(self, m, r):
        s = _state(kappa=1.0, m=m)
        mods = [abs(field_amplitude(s, r, phi)) for phi in np.linspace(0, 6.0, 23)]
        assert max(mods) - min(mods) <= 1e-13

    @pytest.mark.parametrize("m", [-3, -2, 0, 1, 4])
    def test_matches_per_point_formula_bit_for_bit(self, m):
        # r = 0 gives zero parts whose signs the complex products set; at
        # kappa = 1e-200, r = 1e-24 and phi = 4 both m = 1 parts are negative
        # and the real one underflows to -0 when scaled
        grid = [(1.3, r, phi) for r in (0.0, 0.7, 2.0) for phi in (0.0, 0.5 * math.pi, math.pi, 5.1)]
        for kappa, r, phi in grid + [(1e-200, 1e-24, 4.0)]:
            value = field_amplitude(_state(kappa=kappa, m=m), r, phi)
            expected = per_point_field(m, kappa, r, phi)
            assert type(value) is complex
            assert (value.real.hex(), value.imag.hex()) == (
                expected.real.hex(), expected.imag.hex()
            ), (kappa, r, phi)

    def test_phase_winding(self):
        for m in (-3, 1, 5):
            s = _state(kappa=1.0, m=m)
            r = 1.0  # J_m(1) != 0 for these orders
            phases = [
                cmath.phase(field_amplitude(s, r, phi))
                for phi in np.linspace(0.0, 2.0 * math.pi, 65)
            ]
            total = 0.0
            for a, b in zip(phases, phases[1:]):
                d = b - a
                while d > math.pi:
                    d -= 2.0 * math.pi
                while d < -math.pi:
                    d += 2.0 * math.pi
                total += d
            assert total == pytest.approx(2.0 * math.pi * m, abs=1e-9)
