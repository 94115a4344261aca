import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vortexscatter.errors import DomainError, SupportRegionError
from vortexscatter.kinematics import (
    CollisionGeometry,
    TwistedState,
    angle_set,
    field_amplitude,
    stripe_contains,
    tilt_frame,
    triangle_geometry,
)
from vortexscatter.numerics import heron_area
from vortexscatter.wavepackets import WavePacketProfile

from _oracles import bessel_series, per_point_field


class DegenerateDirectionError(ValueError):
    """A direction that should define an axis came out as the zero vector."""


def monochromatic_k_z(omega: float, kappa: float, mass: float = 0.0) -> float:
    """Longitudinal momentum of a mode with energy omega and transverse
    modulus kappa: k_z = sqrt(omega^2 - kappa^2 - mass^2).

    This is the fixed-energy slicing of a packet (k_z varies with kappa so
    the superposition stays monochromatic). The reduced amplitudes depend on
    longitudinal data only through q and theta, so the smearing pipeline
    slices at fixed q; this helper covers the complementary convention.
    """
    arg = omega * omega - kappa * kappa - mass * mass
    if arg < 0.0:
        raise DomainError(
            f"no real k_z: omega^2 - kappa^2 - mass^2 = {arg} is negative"
        )
    return math.sqrt(arg)


def cone_momentum(state: TwistedState, phi: float, axis_theta: float) -> np.ndarray:
    """Momentum on the state's cone at azimuth phi about an axis tilted by
    axis_theta in the x-z plane: k = k_z z' + kappa (cos phi x' + sin phi y').
    """
    ex, ey, ez = tilt_frame(axis_theta)
    return state.k_z * ez + state.kappa * (math.cos(phi) * ex + math.sin(phi) * ey)


def vortex_axis(mean_initial: np.ndarray, p: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Unit vector along <k> + p - k2, the direction of exactly vanishing
    scattering for the first final particle (its phase-vortex line). The same
    formula with indices swapped serves the second particle.
    """
    n = np.asarray(mean_initial, dtype=float) + np.asarray(p, dtype=float) - np.asarray(k2, dtype=float)
    norm = float(np.linalg.norm(n))
    scale = max(
        float(np.linalg.norm(mean_initial)),
        float(np.linalg.norm(p)),
        float(np.linalg.norm(k2)),
        1.0,
    )
    if norm <= 1e-14 * scale:
        raise DegenerateDirectionError("vortex axis undefined: <k> + p - k2 is the zero vector")
    return n / norm


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
        with pytest.raises(ValueError):
            TwistedState(kappa=-1.0, m=0, k_z=1.0, omega=2.0)
        with pytest.raises(ValueError):
            TwistedState(kappa=1.0, m=0, k_z=5.0, omega=1.0)  # negative mass^2
        # a fractional m used to construct and fail only in field_amplitude
        for m in (2.5, 2.0):
            with pytest.raises(ValueError, match="m must be an integer"):
                TwistedState.massless(1.0, m, 50.0)
        assert TwistedState.massless(1.0, np.int64(2), 50.0).m == 2

    def test_monochromatic_longitudinal_momentum(self):
        assert monochromatic_k_z(5.0, 3.0) == 4.0
        # round trip with the massless constructor
        s = TwistedState.massless(1.2, 0, 7.5)
        assert monochromatic_k_z(s.omega, s.kappa) == pytest.approx(7.5, rel=1e-15)
        with pytest.raises(DomainError):
            monochromatic_k_z(1.0, 2.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwistedState(kappa=math.nan, m=0, k_z=1.0, omega=2.0),
        lambda: TwistedState(kappa=1.0, m=0, k_z=math.inf, omega=math.inf),
        lambda: _state(k_z=math.nan),
        lambda: _geom(q=math.nan),
        lambda: _geom(kappa1=math.nan),
        lambda: _geom(kappa2=math.inf),
        lambda: WavePacketProfile(math.nan, 0.1),
        lambda: WavePacketProfile(1.0, math.inf),
    ],
)
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TwistedState(kappa=1.0, m=0, k_z=1.0, omega=-2.0), "omega must be positive"),
        (lambda: _geom(theta=0.0), "theta must lie in"),
        (lambda: _geom(theta=0.5 * math.pi), "theta must lie in"),
        (lambda: _geom(kappa1=0.0), "final transverse moduli must be positive"),
        (lambda: _geom(kappa2=-0.7), "final transverse moduli must be positive"),
        (lambda: stripe_contains(0.0, 0.9, 0.7), "all moduli must be positive"),
        (lambda: triangle_geometry(1.0, 0.0, 0.9, -0.7), "all moduli must be positive"),
        (lambda: field_amplitude(_state(), -1e-9, 0.0), "r must be non-negative"),
    ],
)
def test_out_of_domain_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestConeMomentum:
    def test_untilted_axis(self):
        np.testing.assert_allclose(
            cone_momentum(_state(), 0.0, 0.0), [1.0, 0.0, 10.0], atol=1e-15
        )
        np.testing.assert_allclose(
            cone_momentum(_state(), 0.5 * math.pi, 0.0), [0.0, 1.0, 10.0], atol=1e-15
        )

    def test_plane_wave_limit_on_tilted_axis(self):
        theta = 0.3
        k = cone_momentum(_state(kappa=1e-12), 1.234, theta)
        np.testing.assert_allclose(
            k, [10.0 * math.sin(theta), 0.0, 10.0 * math.cos(theta)], atol=1e-11
        )

    def test_transverse_and_longitudinal_moduli(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            kappa = float(rng.uniform(0.1, 3.0))
            kz = float(rng.uniform(-20.0, 20.0)) or 1.0
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            theta = float(rng.uniform(0.0, 1.5))
            state = TwistedState.massless(kappa, 0, kz)
            k = cone_momentum(state, phi, theta)
            ez = np.array([math.sin(theta), 0.0, math.cos(theta)])
            longitudinal = float(k @ ez)
            transverse = float(np.linalg.norm(k - longitudinal * ez))
            # roundoff scales with the full momentum magnitude
            scale = max(1.0, state.omega)
            assert longitudinal == pytest.approx(kz, abs=1e-14 * scale)
            assert transverse == pytest.approx(kappa, abs=1e-13 * scale)


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
        with pytest.raises(DomainError):
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


class TestVortexAxis:
    def test_cms_antiparallel_to_k2(self):
        n = vortex_axis([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -5.0])
        np.testing.assert_allclose(n, [0.0, 0.0, 1.0], atol=1e-15)

    def test_degenerate(self):
        with pytest.raises(DegenerateDirectionError):
            vortex_axis([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0])

    def test_generic_direction(self):
        n = vortex_axis([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(n, np.array([-1.0, 0.0, 2.0]) / math.sqrt(5.0), atol=1e-15)


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
