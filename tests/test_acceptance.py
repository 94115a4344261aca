"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure (run with ``pytest -s`` to see the lines on success)."""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from vortexscatter.amplitudes import (
    reduced_triple_amplitude,
    single_twisted_amplitude,
    single_twisted_solutions,
)
from vortexscatter.cli import EXIT_OK, main
from vortexscatter.errors import DegenerateSupportError
from vortexscatter.kinematics import (
    CollisionGeometry,
    TwistedState,
    angle_set,
    stripe_contains,
)
from vortexscatter.numerics import QuadratureSpec, bessel_j, heron_area
from vortexscatter.oracle import draw_support_samples, oracle_amplitude
from vortexscatter.wavepackets import WavePacketProfile, intensity_map

from _oracles import (
    bessel_integral,
    bessel_series,
    circle_intersection_azimuths,
    plane_wave_limit_check,
)
from _pins import CRITERION_8_CONFIGS, assert_md5, run_python

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _report(line: str) -> None:
    print(line, flush=True)


def _diagonal_sum(result, d: int) -> float:
    """Sum of the map's weights on the diagonal m1 - m2 = d."""
    total = 0.0
    for i, m1 in enumerate(result.m1_values):
        j = m1 - d - result.m2_range[0]
        if 0 <= j < result.weights.shape[1]:
            total += float(result.weights[i, j])
    return total


# The reference configuration map (helicity 5, tilt 0.2, asymmetric packet
# peaks 1.0 / 1.0 / 0.5 with widths a fifth of each peak): intensity_map's
# arguments before the quadrature
_FIG2_ARGS = (
    (WavePacketProfile(1.0, 0.2), WavePacketProfile(1.0, 0.2), WavePacketProfile(0.5, 0.1)),
    CollisionGeometry(0.2, 0.0, TwistedState.massless(1.0, 5, 50.0), 1.0, 0.5),
    5,
    (-5, 15),
    (-10, 10),
)


@pytest.fixture(scope="module")
def fig2_map():
    started = time.perf_counter()
    result = intensity_map(*_FIG2_ARGS, QuadratureSpec(node_count=24, rel_tol=1e-6), q_nodes=64)
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20110915)
    groups = {}
    ratios_all = []
    for theta, count in ((0.2, 880), (0.1, 60), (0.35, 60)):
        ratios = []
        for geom, m, m1, m2 in draw_support_samples(rng, count, theta=theta):
            closed = reduced_triple_amplitude(geom, m, m1, m2)
            result = oracle_amplitude(geom, m, m1, m2)
            ratios.append(result.amplitude / closed.value)
        groups[theta] = np.array(ratios)
        ratios_all.extend(ratios)
    # k_z-doubling subset: only q enters the reduced constraint system
    k_pairs = []
    for geom, m, m1, m2 in draw_support_samples(rng, 40, theta=0.2):
        beam = TwistedState.massless(geom.initial.kappa, geom.initial.m, 2 * geom.initial.k_z)
        doubled = CollisionGeometry(geom.theta, geom.q, beam, geom.kappa1, geom.kappa2)
        a = oracle_amplitude(geom, m, m1, m2).amplitude
        b = oracle_amplitude(doubled, m, m1, m2).amplitude
        k_pairs.append(abs(b - a) / abs(a))
    elapsed = time.perf_counter() - started

    arr = np.array(ratios_all)
    mean = complex(arr.mean())
    dispersion = float(np.sqrt(np.mean(np.abs(arr - mean) ** 2)) / abs(mean))
    theta_means = {t: complex(g.mean()) for t, g in groups.items()}
    theta_spread = max(abs(v / mean - 1.0) for v in theta_means.values())
    k_spread = max(k_pairs)

    _report(
        f"criterion 1 {'PASS' if dispersion < 1e-8 else 'FAIL'}: "
        f"{len(arr)} samples, ratio dispersion {dispersion:.3e} (< 1e-8), "
        f"mean {mean:.12g}, theta-group spread {theta_spread:.3e}, "
        f"k_z-doubling spread {k_spread:.3e}, runtime {elapsed:.1f} s (< 60 s)"
    )
    assert len(arr) == 1000
    assert dispersion < 1e-8
    assert elapsed < 60.0
    # systematics report: spreads are at the finite-difference noise level
    assert theta_spread < 1e-7
    assert k_spread < 1e-10


def test_criterion_2_single_twisted_geometry():
    # exact 3-4-5 case first
    branches = single_twisted_solutions(5.0, 4.0, 3.0, 0.0)
    assert branches[0].phi1 == pytest.approx(0.5 * math.pi, abs=1e-14)
    assert branches[1].phi1 == pytest.approx(-0.5 * math.pi, abs=1e-14)

    rng = np.random.default_rng(4242)
    worst = 0.0
    checked = 0
    while checked < 10_000:
        k1, k2 = (float(v) for v in rng.uniform(0.3, 3.0, 2))
        lo, hi = abs(k1 - k2), k1 + k2
        kappa = float(rng.uniform(lo + 0.03 * (hi - lo), hi - 0.03 * (hi - lo)))
        phi2 = float(rng.uniform(-math.pi, math.pi))
        solved = sorted(
            (p1 - phi2 + math.pi) % (2.0 * math.pi) - math.pi
            for p1, _ in circle_intersection_azimuths(kappa, k1, k2, phi2)
        )
        closed = sorted(
            (b.phi1 - phi2 + math.pi) % (2.0 * math.pi) - math.pi
            for b in single_twisted_solutions(kappa, k1, k2, phi2)
        )
        assert len(solved) == len(closed) == 2
        worst = max(worst, max(abs(a - b) for a, b in zip(solved, closed)))
        checked += 1
    _report(
        f"criterion 2 {'PASS' if worst < 1e-12 else 'FAIL'}: "
        f"{checked} configurations, worst azimuth deviation {worst:.3e} (< 1e-12)"
    )
    assert worst < 1e-12


def test_criterion_3_support_laws():
    rng = np.random.default_rng(9090)
    outside = inside = skipped = 0
    for _ in range(100_000):
        theta = float(rng.uniform(0.08, 0.7))
        kappa = float(rng.uniform(0.3, 2.5))
        q = float(rng.uniform(-1.3, 1.3)) * kappa * math.sin(theta)
        k1, k2 = (float(v) for v in rng.uniform(0.05, 3.5, 2))
        m, m1, m2 = (int(v) for v in rng.integers(-6, 7, 3))
        geom = CollisionGeometry(theta, q, TwistedState.massless(kappa, m, 40.0), k1, k2)
        try:
            amp = reduced_triple_amplitude(geom, m, m1, m2)
        except DegenerateSupportError:
            skipped += 1
            continue
        in_region = abs(q) < kappa * math.sin(theta)
        in_stripe = in_region and stripe_contains(
            kappa * math.cos(math.asin(q / kappa)), k1, k2
        )
        if in_region and in_stripe:
            inside += 1
            assert amp.in_support
        else:
            outside += 1
            assert amp.value == 0j and not amp.in_support

    vortex_checked = 0
    for m in range(-20, 21):
        state = TwistedState.massless(1.0, m, 40.0)
        value = single_twisted_amplitude(state, 0.0, 0.7)
        assert value.smooth == 0j
        vortex_checked += 1

    _report(
        f"criterion 3 PASS: {outside} out-of-support samples exactly zero, "
        f"{inside} in-support, {skipped} boundary-degenerate skipped; "
        f"back-to-back zero for {vortex_checked} helicities"
    )
    assert outside > 10_000 and inside > 10_000


def test_criterion_4_parity_and_reality():
    rng = np.random.default_rng(777)
    samples = draw_support_samples(rng, 10_000, theta=0.25, cos_floor=0.0)
    worst_parity = worst_imag = 0.0
    for geom, m, m1, m2 in samples:
        plus = reduced_triple_amplitude(geom, m, m1, m2)
        minus = reduced_triple_amplitude(geom, -m, -m1, -m2)
        scale = max(abs(plus.value), 1e-300)
        worst_parity = max(worst_parity, abs(abs(plus.value) - abs(minus.value)) / scale)
        from vortexscatter.amplitudes import unit_imag_power

        rotated = plus.value * unit_imag_power(-plus.phase_power)
        worst_imag = max(worst_imag, abs(rotated.imag) / max(abs(rotated), 1e-300))
    ok = worst_parity < 1e-14 and worst_imag < 1e-14
    _report(
        f"criterion 4 {'PASS' if ok else 'FAIL'}: 10000 samples, "
        f"parity deviation {worst_parity:.3e} (< 1e-14), "
        f"rotated imaginary part {worst_imag:.3e} (< 1e-14)"
    )
    assert ok


def test_criterion_5_plane_wave_limit():
    theta = 0.2
    q = 0.25 * math.sin(theta)
    geom = CollisionGeometry(theta, q, TwistedState.massless(1.0, 5, 40.0), 1.0, 0.5)
    kt = math.cos(angle_set(geom).xi)

    def weight(k1):
        s = 0.2 * kt
        if abs(k1 - kt) > 5.0 * s:
            return 0.0
        return math.exp(-0.5 * ((k1 - kt) / s) ** 2)

    eps_list = [0.1, 0.03, 0.01, 3e-3, 1e-3]
    final_errors = []
    for m, m1 in ((0, 0), (5, 5), (3, 1)):
        report = plane_wave_limit_check(geom, m, m1, weight, eps_list)
        assert report.monotone, f"non-monotone tail for (m, m1) = {m, m1}"
        final_errors.append(report.entries[-1].rel_error)
    worst = max(final_errors)
    _report(
        f"criterion 5 {'PASS' if worst < 1e-2 else 'FAIL'}: monotone convergence, "
        f"relative error at kappa2/kappa_tilde = 1e-3: {worst:.3e} (< 1e-2)"
    )
    assert worst < 1e-2


def test_criterion_6_intensity_map_properties(fig2_map):
    result, elapsed = fig2_map
    sums = {d: _diagonal_sum(result, d) for d in range(-5, 16)}
    best = max(sums, key=sums.get)
    std1 = result.marginal_std(0)
    std2 = result.marginal_std(1)
    ok = best == 5 and std1 > std2 and elapsed < 600.0
    _report(
        f"criterion 6 {'PASS' if ok else 'FAIL'}: diagonal argmax {best} (= 5), "
        f"m1-marginal width {std1:.3f} > m2-marginal width {std2:.3f}, "
        f"map runtime {elapsed:.0f} s (< 600 s), "
        f"max cell doubling delta {result.metadata['max_cell_rel_delta']:.2e}"
    )
    assert best == 5
    assert std1 > std2
    assert elapsed < 600.0


@pytest.mark.pin
def test_readme_reference_map_outputs_are_pinned(fig2_map, tmp_path, monkeypatch):
    # the README's map config through `map`, its map taken from the
    # criterion-6 fixture once the arguments are checked to be the same
    calls = []

    def reference_map(*args, **kwargs):
        calls.append((args, kwargs))
        return fig2_map[0]

    monkeypatch.setattr("vortexscatter.cli.intensity_map", reference_map)
    text = README.read_text(encoding="utf-8")
    cfg_path = tmp_path / "map.json"
    cfg_path.write_text(text.split("```json\n")[2].split("```", 1)[0], encoding="utf-8")
    out = tmp_path / "map.csv"
    assert main(["map", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    (args, kwargs), = calls
    assert args[:5] == _FIG2_ARGS
    assert args[5].node_count == 24 and kwargs == {"q_nodes": 64}
    assert_md5("README reference map", out.read_bytes())
    gp = (tmp_path / "map.csv.gp").read_bytes().replace(str(out).encode(), b"<out>")
    assert_md5("README reference map .gp", gp)
    # the weights' bits, which the CSV's 9 digits do not show
    assert_md5("README reference map weights", fig2_map[0].weights.tobytes())


def test_criterion_7_numerics():
    # one bessel_j call per order, over every argument at that order
    worst_series = 0.0
    for m in (0, 1, 2, 5, 10, 25, 50):
        xs = (0.1, 0.5, 1.0, 3.0, 7.0, 10.0)
        for x, value in zip(xs, bessel_j(m, np.array(xs)).tolist()):
            worst_series = max(worst_series, abs(value - bessel_series(m, x)))
    worst_integral = 0.0
    for m in (0, 1, 2, 5, 10, 20, 35, 50):
        xs = (0.5, 1.0, 5.0, 12.0, 20.0, 40.0, 70.0, 100.0)
        for x, value in zip(xs, bessel_j(m, np.array(xs)).tolist()):
            worst_integral = max(worst_integral, abs(value - bessel_integral(m, x)))
    rng = np.random.default_rng(33)
    draws = [(int(rng.integers(1, 50)), float(rng.uniform(0.5, 100.0))) for _ in range(500)]
    xs = np.array([x for _, x in draws])
    j = [bessel_j(order, xs).tolist() for order in range(51)]  # j[order][draw]
    worst_rec = 0.0
    for i, (m, x) in enumerate(draws):
        lhs = j[m - 1][i] + j[m + 1][i]
        rhs = 2.0 * m / x * j[m][i]
        scale = max(abs(j[m - 1][i]), abs(j[m + 1][i]), abs(rhs), 1e-300)
        worst_rec = max(worst_rec, abs(lhs - rhs) / scale)
    heron_ok = (
        heron_area(3.0, 4.0, 5.0) == 6.0
        and heron_area(5.0, 12.0, 13.0) == 30.0
        and heron_area(1.0, 2.0, 3.0) == 0.0
    )
    ok = worst_series < 1e-10 and worst_integral < 1e-10 and worst_rec < 1e-10 and heron_ok
    _report(
        f"criterion 7 {'PASS' if ok else 'FAIL'}: series oracle {worst_series:.2e}, "
        f"integral oracle {worst_integral:.2e}, recurrence {worst_rec:.2e} (all < 1e-10), "
        f"Pythagorean and degenerate areas exact: {heron_ok}"
    )
    assert ok


@pytest.mark.pin
def test_criterion_8_cli_determinism(tmp_path):
    for command, cfg in CRITERION_8_CONFIGS.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}.{attempt}.out"
            proc = run_python(
                ["-m", "vortexscatter", command, "--config", str(cfg_path), "--out", str(out)]
            )
            assert proc.returncode == 0, (command, proc.stderr)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{command} output not byte-identical"
        assert_md5(f"criterion 8 {command}", blobs[0])
    _report("criterion 8 PASS: eval, oracle-check, map, field byte-identical across reruns")
