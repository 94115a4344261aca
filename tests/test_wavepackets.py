import math
import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from vortexscatter.amplitudes import reduced_triple_amplitude, unit_imag_power
from vortexscatter.errors import ConvergenceError
from vortexscatter.kinematics import CollisionGeometry, TwistedState
from vortexscatter.numerics import QuadratureSpec, gauss_legendre_nodes, q_substitution
import vortexscatter.wavepackets as wavepackets_module
from vortexscatter.wavepackets import (
    _BLOCK_ELEMENTS,
    WavePacketProfile,
    _build_q_slice,
    _grid_values,
    _map_pass,
    _row_blocks,
    _row_sums,
    _slice_axes,
    _smeared_estimate,
    intensity_map,
    smeared_amplitude,
)


def _template(theta=0.2, m=5, kappa0=1.0, kappa1=1.0, kappa2=0.5):
    return CollisionGeometry(theta, 0.0, TwistedState.massless(kappa0, m, 50.0), kappa1, kappa2)


def _profiles(k0=1.0, k1=1.0, k2=0.5, rel=0.2):
    return (
        WavePacketProfile(k0, rel * k0),
        WavePacketProfile(k1, rel * k1),
        WavePacketProfile(k2, rel * k2),
    )


def _l2_norm(p, nodes=4000):
    lo, hi = p.support
    x, w = gauss_legendre_nodes(nodes)
    k = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    return float(np.sum(0.5 * (hi - lo) * w * p.value(k) ** 2))


class TestProfile:
    def test_outside_support_zero(self):
        p = WavePacketProfile(1.0, 0.1)
        assert p.value(1.0 + 0.51) == 0.0
        assert p.value(0.49) == 0.0

    def test_l2_normalized(self):
        for k0, sigma in [(1.0, 0.2), (0.5, 0.1), (2.0, 0.6)]:
            p = WavePacketProfile(k0, sigma)
            assert _l2_norm(p) == pytest.approx(1.0, abs=1e-10)

    def test_support_clipped_at_zero(self):
        p = WavePacketProfile(0.3, 0.2)
        lo, hi = p.support
        assert lo == 0.0 and hi == pytest.approx(1.3)
        assert _l2_norm(p) == pytest.approx(1.0, abs=1e-10)

    def test_peak_location(self):
        p = WavePacketProfile(1.0, 0.2)
        grid = np.linspace(*p.support, 20001)
        values = p.value(grid)
        assert grid[int(np.argmax(values))] == pytest.approx(1.0, abs=2e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            WavePacketProfile(-1.0, 0.1)


class TestSmearedAmplitude:
    def test_outside_all_allowed_regions(self):
        profiles = _profiles()
        q_max = profiles[0].support[1] * math.sin(0.2)
        quad = QuadratureSpec(node_count=8, rel_tol=1e-6)
        assert smeared_amplitude(profiles, _template(), 1.1 * q_max, 5, 5, 0, quad) == 0j

    def test_narrow_packets_reproduce_pointwise_value(self):
        theta = 0.2
        q = 0.3 * math.sin(theta)
        rel = 1e-3
        k0, k1, k2 = 1.0, 0.9, 0.7
        profiles = (
            WavePacketProfile(k0, rel * k0),
            WavePacketProfile(k1, rel * k1),
            WavePacketProfile(k2, rel * k2),
        )
        quad = QuadratureSpec(node_count=16, rel_tol=1e-8)
        smeared = smeared_amplitude(profiles, _template(theta), q, 5, 6, 1, quad)
        geom = CollisionGeometry(theta, q, TwistedState.massless(k0, 5, 50.0), k1, k2)
        point = reduced_triple_amplitude(geom, 5, 6, 1)

        def integral(p):
            lo, hi = p.support
            x, w = gauss_legendre_nodes(400)
            k = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
            return float(np.sum(0.5 * (hi - lo) * w * p.value(k)))

        scale = integral(profiles[0]) * integral(profiles[1]) * integral(profiles[2])
        assert smeared / (point.value * scale) == pytest.approx(1.0, rel=1e-2)

    def test_phase_factor(self):
        quad = QuadratureSpec(node_count=12, rel_tol=1e-6)
        value = smeared_amplitude(_profiles(), _template(), 0.0, 5, 5, 0, quad)
        # phase_power = 0 here, so the value is real
        assert value.imag == pytest.approx(0.0, abs=1e-14 * abs(value))
        value2 = smeared_amplitude(_profiles(), _template(), 0.0, 5, 6, 1, quad)
        rotated = value2 * unit_imag_power(-2)
        assert rotated.imag == pytest.approx(0.0, abs=1e-14 * abs(value2))

    def test_node_doubling_stability_at_reference_cell(self):
        quad = QuadratureSpec(node_count=24, rel_tol=1e-8, max_refinements=6)
        value = smeared_amplitude(_profiles(), _template(), 0.0, 5, 5, 0, quad)
        assert value != 0j
        # recompute with doubled starting nodes; the converged results agree
        quad2 = QuadratureSpec(node_count=48, rel_tol=1e-8, max_refinements=6)
        value2 = smeared_amplitude(_profiles(), _template(), 0.0, 5, 5, 0, quad2)
        assert value2 == pytest.approx(value, rel=1e-6)

    def test_nonconvergence_raises_with_estimates(self):
        args = (_profiles(), _template(), 0.05, 5, 6, 1)
        with pytest.raises(ConvergenceError) as err:
            smeared_amplitude(*args, QuadratureSpec(node_count=8, rel_tol=1e-16, max_refinements=1))
        coarse, fine = err.value.estimates
        assert coarse != fine
        # the last entry is the 16-node value, without the phase i^(m1 + m2 - m)
        loose = smeared_amplitude(*args, QuadratureSpec(node_count=8, rel_tol=1.0, max_refinements=1))
        assert unit_imag_power(2) * fine == loose

    def test_non_finite_q_rejected_before_any_slice(self, monkeypatch):
        sizes = []
        build = wavepackets_module._build_q_slice

        def counting_build(axes, rows=slice(None)):
            sizes.append(len(axes.kt[rows]))
            return build(axes, rows)

        monkeypatch.setattr(wavepackets_module, "_build_q_slice", counting_build)
        quad = QuadratureSpec(node_count=8, max_refinements=3)
        with pytest.raises(ValueError, match="q must be finite"):
            smeared_amplitude(_profiles(), _template(), math.nan, 5, 5, 0, quad)
        assert sizes == []
        # with a finite q the wrapper sees every row of the 8- and 16-node slices
        loose = QuadratureSpec(node_count=8, rel_tol=1.0, max_refinements=1)
        smeared_amplitude(_profiles(), _template(), 0.0, 5, 5, 0, loose)
        assert sum(sizes) == 8 + 16


def _whole_slice(profiles, theta, q, n):
    return _build_q_slice(_slice_axes(profiles, theta, q, n))


def _cell_value(sl, m, m1, m2):
    """One (m1, m2) cell from a whole slice: the reference for the blocked
    estimate and the helicity-grid contraction."""
    cos_a = np.cos(m * sl.phi_star - (m1 - m2) * sl.phi_tilde_star)
    return float(np.dot(cos_a, _row_sums(sl, m1, m2)))


def _set_block_rows(monkeypatch, n, rows):
    """Blocks of `rows` kappa rows for an n-node slice."""
    monkeypatch.setattr(wavepackets_module, "_BLOCK_ELEMENTS", rows * n * n)


def _set_cores(monkeypatch, cores):
    monkeypatch.setattr(wavepackets_module, "_usable_cores", lambda: cores)


class TestRowBlocks:
    """The smeared estimate built and row-summed in kappa-row blocks that one
    thread per core takes in turn."""

    @pytest.mark.parametrize("n", [24, 25, 48, 96])
    def test_blocked_estimate_bit_identical_to_whole_slice(self, monkeypatch, n):
        profiles, theta, m, m1, m2 = _profiles(), 0.2, 5, 10, -3
        q_max = profiles[0].support[1] * math.sin(theta)
        # 1, 2 and 3 blocks, the production block size, and sizes that leave
        # a lone last row (1 means 2, and 25 = 12 * 2 + 1, 96 = 19 * 5 + 1)
        sizes = sorted({n, -(-n // 2), -(-n // 3), max(1, _BLOCK_ELEMENTS // (n * n)), 1, 5})
        for q in (0.3 * q_max, -0.7 * q_max, 1.1 * q_max):
            axes = _slice_axes(profiles, theta, q, n)
            whole = 0.0 if axes is None else _cell_value(_build_q_slice(axes), m, m1, m2)
            for block_rows in sizes:
                _set_block_rows(monkeypatch, n, block_rows)
                for threads in (1, 2, 3):
                    _set_cores(monkeypatch, threads)
                    blocked = _smeared_estimate(profiles, theta, q, m, m1, m2, n)
                    assert blocked.hex() == whole.hex(), (q, block_rows, threads)

    @pytest.mark.parametrize("block_rows", [1, 5, 7, _BLOCK_ELEMENTS // (96 * 96)])
    def test_block_row_sums_bit_identical_to_whole_slice(self, monkeypatch, block_rows):
        # n^2 = 9216 exceeds numpy's 8192-element buffer, where einsum would
        # sum a block of one row in pieces
        profiles, n, m1, m2 = _profiles(), 96, 10, -3
        axes = _slice_axes(profiles, 0.2, 0.01, n)
        whole = _row_sums(_build_q_slice(axes), m1, m2)
        _set_block_rows(monkeypatch, n, block_rows)
        blocks = _row_blocks(n)
        blocked = np.concatenate([_row_sums(_build_q_slice(axes, b), m1, m2) for b in blocks])
        assert [v.hex() for v in blocked] == [v.hex() for v in whole]

    @pytest.mark.parametrize("n, rows", [(96, 1), (96, 5), (97, 3), (25, 2), (2, 1), (3, 2), (24, 56)])
    def test_row_blocks_cover_every_row_in_blocks_of_two_or_more(self, monkeypatch, n, rows):
        _set_block_rows(monkeypatch, n, rows)
        blocks = _row_blocks(n)
        assert [r for b in blocks for r in range(n)[b]] == list(range(n))
        assert all(len(range(n)[b]) >= min(2, n) for b in blocks)
        assert all(len(range(n)[b]) <= max(2, rows) + 1 for b in blocks)

    @pytest.mark.parametrize("n", [2, 24, 48, 96, 181, 182, 400])
    def test_block_rows_fill_the_element_budget(self, n):
        # every block but the last holds as many rows as the budget allows,
        # 2 at least; the last one ends the slice or takes a lone last row
        *full, last = [len(range(n)[b]) for b in _row_blocks(n)]
        for rows in full:
            assert rows * n * n <= max(_BLOCK_ELEMENTS, 2 * n * n)
            assert (rows + 1) * n * n > _BLOCK_ELEMENTS
        assert last <= (full[0] + 1 if full else n)

    def test_threads_start_only_for_slices_of_several_blocks(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        _set_cores(monkeypatch, 4)
        profiles = _profiles()
        _smeared_estimate(profiles, 0.2, 0.01, 5, 10, -3, 24)
        assert started == []  # one block
        _smeared_estimate(profiles, 0.2, 0.01, 5, 10, -3, 48)
        assert len(started) == 3  # four blocks, one thread per core

    def test_more_threads_than_cores_under_fast_thread_switching(self, monkeypatch):
        profiles, theta, q, n = _profiles(), 0.2, 0.01, 25
        whole = _cell_value(_whole_slice(profiles, theta, q, n), 5, 10, -3)
        _set_block_rows(monkeypatch, n, 3)
        _set_cores(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                blocked = _smeared_estimate(profiles, theta, q, 5, 10, -3, n)
                assert blocked.hex() == whole.hex()
        finally:
            sys.setswitchinterval(interval)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        raised = []
        failed = threading.Event()

        class FailingProfile(WavePacketProfile):
            def value(self, kappa):
                # only the kappa1 tensors of the row blocks are 3-D
                if np.ndim(kappa) == 3:
                    if threading.current_thread() is threading.main_thread():
                        assert failed.wait(timeout=60)  # hold a block until a worker failed
                    else:
                        raised.append(ArithmeticError("kappa1 profile failed in a worker"))
                        failed.set()
                        time.sleep(0.2)  # outlives the calling thread's blocks unless joined
                        raise raised[-1]
                return super().value(kappa)

        _set_cores(monkeypatch, 3)
        monkeypatch.setattr(wavepackets_module, "_BLOCK_ELEMENTS", 1)  # one row per block
        f0, f1, f2 = _profiles()
        profiles = (f0, FailingProfile(f1.kappa0, f1.sigma), f2)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as err:
            smeared_amplitude(profiles, _template(), 0.0, 5, 5, 0, QuadratureSpec(node_count=12))
        assert 1 <= len(raised) <= 2  # each worker fails on its first block and stops
        assert any(err.value is exc for exc in raised)
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control")
    def test_single_core_starts_no_thread_and_keeps_bits(self):
        script = textwrap.dedent(
            """
            import os, threading
            from vortexscatter.kinematics import CollisionGeometry, TwistedState
            from vortexscatter.numerics import QuadratureSpec
            from vortexscatter.wavepackets import WavePacketProfile, smeared_amplitude

            started = []
            start = threading.Thread.start

            def counting_start(self):
                started.append(self)
                start(self)

            threading.Thread.start = counting_start
            profiles = tuple(WavePacketProfile(k, 0.2 * k) for k in (1.0, 1.0, 0.5))
            template = CollisionGeometry(
                0.2, 0.0, TwistedState.massless(1.0, 5, 50.0), 1.0, 0.5
            )
            quad = QuadratureSpec(node_count=24, rel_tol=1e-6, max_refinements=2)

            def value():
                v = smeared_amplitude(profiles, template, 0.05, 5, 10, -3, quad)
                return v.real.hex(), v.imag.hex()

            cores = len(os.sched_getaffinity(0))
            all_cores = value()
            workers = len(started)
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            del started[:]
            one_core = value()
            print(cores, workers, len(started), all_cores == one_core, all_cores)
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        cores, workers, single, same = done.stdout.split()[:4]
        assert int(single) == 0
        assert same == "True"
        if int(cores) > 1:
            assert int(workers) > 0


def _cell_grid(sl, m, m1_values, m2_values):
    return np.array(
        [[_cell_value(sl, m, int(m1), int(m2)) for m2 in m2_values] for m1 in m1_values]
    )


@pytest.mark.parametrize("m1_range, m2_range", [((-3, 6), (-5, 2)), ((6, 6), (1, 1))])
def test_grid_values_match_cell_values(m1_range, m2_range):
    sl = _whole_slice(_profiles(), 0.2, 0.03, 16)
    m1_values = np.arange(m1_range[0], m1_range[1] + 1)
    m2_values = np.arange(m2_range[0], m2_range[1] + 1)
    grid = _grid_values(sl, 5, m1_values, m2_values)
    cells = _cell_grid(sl, 5, m1_values, m2_values)
    np.testing.assert_allclose(grid, cells, rtol=0.0, atol=1e-13 * np.abs(cells).max())


@pytest.mark.parametrize("q_nodes", [6, 7])
def test_map_pass_matches_unfolded_q_sum(q_nodes):
    # the parity fold against the plain sum over every node, the q = 0 node
    # of the odd grid included
    profiles, theta, m, n = _profiles(), 0.2, 5, 12
    m1_values, m2_values = np.arange(-1, 7), np.arange(-2, 3)
    q_max = profiles[0].support[1] * math.sin(theta)
    expected = np.zeros((len(m1_values), len(m2_values)))
    for q, w in zip(*q_substitution(q_max, q_nodes)):
        sl = _whole_slice(profiles, theta, float(q), n)
        expected += w * _cell_grid(sl, m, m1_values, m2_values) ** 2
    folded = _map_pass(profiles, theta, m, m1_values, m2_values, n, q_nodes)
    np.testing.assert_allclose(folded, expected, rtol=0.0, atol=1e-13 * expected.max())


@pytest.fixture(scope="module")
def small_map():
    quad = QuadratureSpec(node_count=24, rel_tol=1e-6)
    return intensity_map(_profiles(), _template(), 5, (3, 7), (-2, 2), quad, q_nodes=64)


class TestIntensityMap:

    def test_cells_finite_nonnegative_normalized(self, small_map):
        w = small_map.weights
        assert np.isfinite(w).all()
        assert (w >= 0.0).all()
        assert w.max() == 1.0

    def test_convergence_annotation(self, small_map):
        rel = small_map.metadata["cell_rel_delta"]
        mask = small_map.weights >= 1e-6
        assert float(rel[mask].max()) <= 1e-4

    def test_parity_reflection(self):
        quad = QuadratureSpec(node_count=12, rel_tol=1e-6)
        plus = intensity_map(_profiles(), _template(m=3), 3, (1, 4), (-2, 2), quad, q_nodes=24)
        minus = intensity_map(_profiles(), _template(m=-3), -3, (-4, -1), (-2, 2), quad, q_nodes=24)
        np.testing.assert_allclose(
            minus.weights[::-1, ::-1], plus.weights, rtol=0.0, atol=1e-10
        )

    def test_profile_swap_maps_to_negated_transpose(self):
        # swapping the final packets relabels the particles: the map comes
        # back with both helicity axes swapped and negated
        quad = QuadratureSpec(node_count=16, rel_tol=1e-6)
        span = (-3, 3)
        base = intensity_map(_profiles(), _template(), 5, span, span, quad, q_nodes=32)
        f0, f1, f2 = _profiles()
        swapped = intensity_map((f0, f2, f1), _template(), 5, span, span, quad, q_nodes=32)
        np.testing.assert_allclose(
            swapped.weights, base.weights[::-1, ::-1].T, rtol=0.0, atol=5e-6
        )

    def test_q_node_refinement_stable(self):
        quad = QuadratureSpec(node_count=12, rel_tol=1e-6)
        a = intensity_map(_profiles(), _template(), 5, (4, 6), (-1, 1), quad, q_nodes=64)
        b = intensity_map(_profiles(), _template(), 5, (4, 6), (-1, 1), quad, q_nodes=96)
        np.testing.assert_allclose(a.weights, b.weights, rtol=0.0, atol=1e-6)

    def test_empty_range_rejected(self):
        quad = QuadratureSpec(node_count=8, rel_tol=1e-6)
        with pytest.raises(ValueError):
            intensity_map(_profiles(), _template(), 5, (3, 1), (-2, 2), quad)
