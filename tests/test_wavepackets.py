import json
import math
import os
import pathlib
import sys
import textwrap
import threading
import time
import warnings
from typing import NamedTuple

import numpy as np
import pytest

from vortexscatter.amplitudes import reduced_triple_amplitude, unit_imag_power
from vortexscatter.cli import _COMMANDS, EXIT_CONFIG, main
from vortexscatter.errors import ConvergenceError
from vortexscatter.kinematics import CollisionGeometry, TwistedState
from vortexscatter.numerics import QuadratureSpec, gauss_legendre_nodes, q_substitution
import vortexscatter.wavepackets as wavepackets_module
from vortexscatter.wavepackets import (
    _BLOCK_ELEMENTS,
    WavePacketProfile,
    _abs_helicities,
    _block_row_sums,
    _grid_values,
    _helicity_phases,
    _map_pass,
    _row_blocks,
    _slice_axes,
    _SliceAxes,
    _smeared_estimate,
    _stripe_ends,
    intensity_map,
    smeared_amplitude,
)

from _oracles import stripe_substitution
from _pins import assert_hex, run_python


def _template(theta=0.2, m=5, kappa0=1.0, kappa1=1.0, kappa2=0.5):
    return CollisionGeometry(theta, 0.0, TwistedState.massless(kappa0, m, 50.0), kappa1, kappa2)


def _profiles(k0=1.0, k1=1.0, k2=0.5, rel=0.2):
    return (
        WavePacketProfile(k0, rel * k0),
        WavePacketProfile(k1, rel * k1),
        WavePacketProfile(k2, rel * k2),
    )


def _l2_norm(p):
    lo, hi = p.support
    x, w = gauss_legendre_nodes(200)  # the norms below come within 6e-15 of 1
    k = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    return float(np.sum(0.5 * (hi - lo) * w * p.value(k) ** 2))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: WavePacketProfile(-1.0, 0.1), "kappa0 must be finite and positive",
            id="profile-kappa0-minus",
        ),
        pytest.param(
            lambda: intensity_map(
                _profiles(), _template(), 5, (3, 1), (-2, 2), QuadratureSpec(node_count=8, rel_tol=1e-6)
            ),
            "helicity ranges must be non-empty",
            id="map-m1-range-empty",
        ),
    ],
)
def test_out_of_domain_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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

    @pytest.mark.skipif(sys.platform == "win32", reason="no resource module")
    def test_default_spec_ends_within_seconds(self):
        # the library default, 32 nodes and rel_tol 1e-9, at a point whose
        # moves are still about 1e-8 per doubling past n = 96: its three
        # doublings end in a value or in ConvergenceError under 3 GB and 30 s
        # of CPU time (about 1.3 s and 40 MB on a 2-core x86)
        script = textwrap.dedent(
            """
            import math, resource
            from vortexscatter.errors import ConvergenceError
            from vortexscatter.kinematics import CollisionGeometry, TwistedState
            from vortexscatter.numerics import QuadratureSpec
            from vortexscatter.wavepackets import WavePacketProfile, smeared_amplitude

            for limit, value in ((resource.RLIMIT_AS, 3 << 30), (resource.RLIMIT_CPU, 30)):
                hard = resource.getrlimit(limit)[1]
                if hard != resource.RLIM_INFINITY:
                    value = min(value, hard)
                resource.setrlimit(limit, (value, hard))
            profiles = tuple(WavePacketProfile(k, 0.2 * k) for k in (1.0, 1.0, 0.5))
            template = CollisionGeometry(
                0.2, 0.0, TwistedState.massless(1.0, 5, 50.0), 1.0, 0.5
            )
            q = 0.3 * profiles[0].support[1] * math.sin(0.2)
            try:
                print(smeared_amplitude(profiles, template, q, 5, 10, -10, QuadratureSpec()))
            except ConvergenceError:
                print("ConvergenceError")
            """
        )
        done = run_python(["-c", script])
        assert done.returncode == 0, done.stderr
        outcome = done.stdout.split()[-1]
        assert outcome == "ConvergenceError" or math.isfinite(abs(complex(outcome)))

    def test_non_finite_q_rejected_before_any_slice(self, monkeypatch):
        sizes = []
        kernel = wavepackets_module._block_row_sums

        def counting_kernel(axes, rows, m1, m2):
            sizes.append(len(axes.kt[rows]))
            return kernel(axes, rows, m1, m2)

        monkeypatch.setattr(wavepackets_module, "_block_row_sums", counting_kernel)
        quad = QuadratureSpec(node_count=8, max_refinements=3)
        with pytest.raises(ValueError, match="q must be finite"):
            smeared_amplitude(_profiles(), _template(), math.nan, 5, 5, 0, quad)
        assert sizes == []
        # with a finite q the wrapper sees every row of the 8- and 16-node slices
        loose = QuadratureSpec(node_count=8, rel_tol=1.0, max_refinements=1)
        smeared_amplitude(_profiles(), _template(), 0.0, 5, 5, 0, loose)
        assert sum(sizes) == 8 + 16


class _QSlice(NamedTuple):
    weight: np.ndarray  # (Na, Nb, Nc) full quadrature measure
    delta1: np.ndarray
    delta2: np.ndarray
    phi_star: np.ndarray  # (Na,)
    phi_tilde_star: np.ndarray


def _build_q_slice(axes: _SliceAxes) -> _QSlice:
    """All helicity-independent quadrature tensors of one whole q slice, the
    triangle's angles from the cosine law in kappa1^2 and f1 from
    WavePacketProfile.value: the independent witness for _triangle."""
    s, ws, k2, kt = axes.s, axes.ws, axes.k2, axes.kt
    a, b, w_lo, w_hi = _stripe_ends(kt, k2, axes.f1)
    w_ang = w_lo[..., None] + (w_hi - w_lo)[..., None] * s
    k1_sq, k1, wc = stripe_substitution(a[..., None], b[..., None], w_ang)
    del w_ang  # frees an n^3 array before the profile call, the slice's memory peak
    wc *= (w_hi - w_lo)[..., None] * ws
    wc *= axes.f1.value(k1)
    wc *= np.sqrt(k1)

    kt3 = kt[:, None, None]
    k23 = k2[None, :, None]
    delta1 = np.arccos(np.clip((kt3**2 + k1_sq - k23**2) / (2.0 * kt3 * k1), -1.0, 1.0))
    delta2 = np.arccos(np.clip((kt3**2 + k23**2 - k1_sq) / (2.0 * kt3 * k23), -1.0, 1.0))
    weight = axes.wa[:, None, None] * axes.wb[None, :, None] * wc
    return _QSlice(weight, delta1, delta2, axes.phi_star, axes.phi_tilde_star)


def _whole_slice(profiles, theta, q, n):
    return _build_q_slice(_slice_axes(profiles, theta, q, n))


def _row_sums(sl, m1, m2):
    """Per kappa row of a map slice, the sum of weight cos(m1 delta1 + m2 delta2)
    over the row's (kappa2, w) nodes: the reference for the smeared kernel."""
    return np.einsum("abc,abc->a", sl.weight, np.cos(m1 * sl.delta1 + m2 * sl.delta2))


def _cell_value(sl, m, m1, m2):
    """One (m1, m2) cell from a whole map slice: the reference for the
    helicity-grid contraction."""
    cos_a = np.cos(m * sl.phi_star - (m1 - m2) * sl.phi_tilde_star)
    return float(np.dot(cos_a, _row_sums(sl, m1, m2)))


def _kernel_cell_value(axes, m, m1, m2):
    """One (m1, m2) cell from the smeared kernel run on the whole slice as one
    block: the reference for the blocked, threaded estimate."""
    cos_a = np.cos(m * axes.phi_star - (m1 - m2) * axes.phi_tilde_star)
    return float(np.add.reduce(cos_a * _block_row_sums(axes, slice(None), m1, m2)))


def _set_block_rows(monkeypatch, n, rows):
    """Blocks of `rows` kappa rows for an n-node slice."""
    monkeypatch.setattr(wavepackets_module, "_BLOCK_ELEMENTS", rows * n * n)


def _set_cores(monkeypatch, cores):
    monkeypatch.setattr(wavepackets_module, "_usable_cores", lambda: cores)


def _fail_in_workers(monkeypatch, error_type):
    """Three threads take one-row smeared blocks; each worker thread's first
    block raises error_type("row block failed") after the calling thread's
    first block waits for one to. Returns the list of the raised errors."""
    raised = []
    failed = threading.Event()
    kernel = wavepackets_module._block_row_sums

    def failing_kernel(axes, rows, m1, m2):
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(timeout=60)  # hold a block until a worker failed
        else:
            raised.append(error_type("row block failed"))
            failed.set()
            time.sleep(0.2)  # outlives the calling thread's blocks unless joined
            raise raised[-1]
        return kernel(axes, rows, m1, m2)

    monkeypatch.setattr(wavepackets_module, "_block_row_sums", failing_kernel)
    _set_cores(monkeypatch, 3)
    monkeypatch.setattr(wavepackets_module, "_BLOCK_ELEMENTS", 1)  # one row per block
    return raised


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
            whole = 0.0 if axes is None else _kernel_cell_value(axes, m, m1, m2)
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
        whole = _block_row_sums(axes, slice(None), m1, m2)
        _set_block_rows(monkeypatch, n, block_rows)
        blocks = _row_blocks(n)
        blocked = np.concatenate([_block_row_sums(axes, b, m1, m2) for b in blocks])
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
        whole = _kernel_cell_value(_slice_axes(profiles, theta, q, n), 5, 10, -3)
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
        raised = _fail_in_workers(monkeypatch, ArithmeticError)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as err:
            smeared_amplitude(_profiles(), _template(), 0.0, 5, 5, 0, QuadratureSpec(12))
        assert 1 <= len(raised) <= 2  # each worker fails on its first block and stops
        assert any(err.value is exc for exc in raised)
        assert threading.active_count() == before

    def test_worker_memory_error_exits_config_from_main(self, monkeypatch, tmp_path, capsys):
        # a command that runs a smeared amplitude: the MemoryError of a worker
        # thread's block reaches main as the MemoryError it is
        _fail_in_workers(monkeypatch, MemoryError)

        def smeared_command(cfg, out_path):
            smeared_amplitude(_profiles(), _template(), 0.0, 5, 5, 0, QuadratureSpec(12))

        monkeypatch.setitem(_COMMANDS, "field", smeared_command)
        cfg = tmp_path / "config.json"
        cfg.write_text("{}")
        before = threading.active_count()
        assert main(["field", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config too large: out of memory (row block failed)\n"
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
        done = run_python(["-c", script])
        assert done.returncode == 0, done.stderr
        cores, workers, single, same = done.stdout.split()[:4]
        assert int(single) == 0
        assert same == "True"
        if int(cores) > 1:
            assert int(workers) > 0


# measured: at most 1.5e-14 of a row's sum of |weight| on the grid below
_KERNEL_ROW_TOL = 5e-14


class TestBlockKernel:
    """The smeared kernel's triangle from the stripe angle (delta2 = 2 w) against
    the cosine-law tensors of _build_q_slice."""

    @pytest.mark.parametrize("n", [24, 48, 96])
    def test_row_sums_match_the_map_tensors(self, n):
        profiles, theta = _profiles(), 0.2
        q_max = profiles[0].support[1] * math.sin(theta)
        for q in (0.05 * q_max, 0.3 * q_max, -0.7 * q_max):
            axes = _slice_axes(profiles, theta, q, n)
            sl = _build_q_slice(axes)
            scale = np.abs(sl.weight).sum(axis=(1, 2))
            for m1, m2 in [(0, 0), (5, 0), (10, -3), (-5, 10), (15, -10)]:
                error = np.abs(_block_row_sums(axes, slice(None), m1, m2) - _row_sums(sl, m1, m2))
                assert (error <= _KERNEL_ROW_TOL * scale).all(), (q, m1, m2)

    def test_zero_span_stripe_is_empty_not_nan(self):
        # kappa2 is below the float spacing of kappa~, so every stripe span
        # (kappa~ + kappa2)^2 - (kappa~ - kappa2)^2 rounds to 0 and holds no kappa1
        profiles = tuple(WavePacketProfile(k, 28.5 * k) for k in (1.8e-3, 8.1e-3, 3.3e-94))
        template = _template(1e-20, 5, 1.8e-3, 8.1e-3, 3.3e-94)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = smeared_amplitude(
                profiles, template, 0.0, 5, 5, 0, QuadratureSpec(node_count=8)
            )
        assert value == 0j

    @pytest.mark.parametrize("sigma1", [0.2, 0.1])  # f1's support from 0, and from 0.5
    def test_coincident_kappas_stay_finite(self, sigma1):
        # kappa~ = kappa2 exactly: the stripe starts at kappa1 = 0 (a = 0)
        f0, _, f2 = _profiles()
        axes = _slice_axes((f0, WavePacketProfile(1.0, sigma1), f2), 0.2, 0.0, 24)
        axes = axes._replace(kt=axes.k2.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = _block_row_sums(axes, slice(None), 10, -3)
        assert np.isfinite(sums).all() and sums.any()


_REFERENCES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "references"


@pytest.mark.pin
def test_benchmark_pool_points_pass_its_check_at_their_doublings(monkeypatch):
    # about 40 points of the smeared-scan benchmark's pool, drawn per doubling
    # count in the pool's shares: each lands within 10 rel_tol of its n = 192
    # reference and keeps the bits of its pin. The stored doublings are those
    # of the agreement test alone: a one-doubling point still stops on it at
    # n = 48, and a two-doubling one takes the n = 12 estimate and stops at
    # 48 on its capped rate or goes on to 96
    with open(_REFERENCES / "smeared_scan.json", encoding="utf-8") as fh:
        pool = json.load(fh)["points"]
    quad = QuadratureSpec(node_count=24, rel_tol=1e-6, max_refinements=2)
    profiles, template = _profiles(), _template()
    rng = np.random.default_rng(15)
    by_doublings = {}
    for point in pool:
        by_doublings.setdefault(point["doublings"], []).append(point)
    estimates = []
    estimate = wavepackets_module._smeared_estimate

    def counting(*args):
        estimates.append(args)
        return estimate(*args)

    monkeypatch.setattr(wavepackets_module, "_smeared_estimate", counting)
    values = []
    for doublings, group in sorted(by_doublings.items()):
        for i in rng.choice(len(group), size=round(40 * len(group) / len(pool)), replace=False):
            point = group[int(i)]
            del estimates[:]
            m1, m2 = point["m1"], point["m2"]
            value = smeared_amplitude(profiles, template, point["q"], 5, m1, m2, quad)
            ref = complex(point["re"], point["im"])
            assert abs(value - ref) <= 10 * quad.rel_tol * abs(ref), point
            stops = [(24, 48)] if doublings == 1 else [(24, 48, 12), (24, 48, 12, 96)]
            assert tuple(args[-1] for args in estimates) in stops, point
            values.append(value)
    assert len(values) == 40
    assert_hex("smeared pool", values)


def test_rate_cap_holds_on_candidates_the_pool_leaves_out():
    # the 17 candidates of the pool's draw, left out of it as too slow or too
    # loose, on which the rate test without its cap stops at n = 48 outside 10
    # rel_tol of the n = 384 reference (uncapped_rel_err, up to 2e-4). With
    # the cap each is accepted within 10 rel_tol, or refused after three
    # doublings; the pool test above holds the accepted share
    with open(pathlib.Path(__file__).with_name("smeared_left_out.json"), encoding="utf-8") as fh:
        points = json.load(fh)["points"]
    quad = QuadratureSpec(node_count=24, rel_tol=1e-6, max_refinements=3)
    profiles, template = _profiles(), _template()
    misses = []
    for point in points:
        try:
            value = smeared_amplitude(
                profiles, template, point["q"], 5, point["m1"], point["m2"], quad
            )
        except ConvergenceError:
            continue
        ref = complex(point["re"], point["im"])
        if abs(value - ref) > 10 * quad.rel_tol * abs(ref):
            misses.append((point, abs(value - ref) / abs(ref)))
    assert len(points) == 17
    assert not misses


def _cell_grid(sl, m, m1_values, m2_values):
    return np.array(
        [[_cell_value(sl, m, int(m1), int(m2)) for m2 in m2_values] for m1 in m1_values]
    )


@pytest.mark.parametrize(
    "m1_range, m2_range", [((-3, 6), (-5, 2)), ((6, 6), (1, 1)), ((-7, -2), (3, 8))]
)
def test_grid_values_match_cell_values(m1_range, m2_range):
    # the map's grid against the cosine-law cells and the smeared kernel's cells
    axes = _slice_axes(_profiles(), 0.2, 0.03, 16)
    m1_values = np.arange(m1_range[0], m1_range[1] + 1)
    m2_values = np.arange(m2_range[0], m2_range[1] + 1)
    grid = _grid_values(axes, 5, m1_values, m2_values)
    cells = _cell_grid(_build_q_slice(axes), 5, m1_values, m2_values)
    np.testing.assert_allclose(grid, cells, rtol=0.0, atol=1e-13 * np.abs(cells).max())
    kernel_cells = np.array(
        [[_kernel_cell_value(axes, 5, int(m1), int(m2)) for m2 in m2_values] for m1 in m1_values]
    )
    np.testing.assert_allclose(
        grid, kernel_cells, rtol=0.0, atol=1e-13 * np.abs(kernel_cells).max()
    )


# delta at 0, at pi and just below it (where t = tan(delta / 2) is near 1.6e16,
# so sin delta must not be formed as t (1 + cos delta)), and in between
_PHASE_DELTAS = np.concatenate([
    [0.0, math.pi, math.nextafter(math.pi, 0.0), math.pi - 1e-8, 1e-300],
    np.random.default_rng(3).uniform(0.0, math.pi, 200),
])


@pytest.mark.parametrize(
    "lo, hi",
    [(-5, 15), (-10, 10), (-4, 0), (0, 9), (3, 12), (-12, -3), (0, 0), (7, 7), (-7, -7),
     (10**4, 10**4), (-(10**4), -(10**4))],
)
@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
def test_helicity_phases_match_complex_exp(lo, hi, scaled):
    first, count = _abs_helicities(lo, hi)
    assert list(range(first, first + count)) == sorted({abs(m) for m in range(lo, hi + 1)})
    scale = np.random.default_rng(4).uniform(0.5, 2.0, _PHASE_DELTAS.size) if scaled else None
    cos_table, sin_table = _helicity_phases(_PHASE_DELTAS, first, count, scale)
    assert cos_table.shape == sin_table.shape == (count, _PHASE_DELTAS.size)
    assert count <= hi - lo + 1  # no more table rows than the range has values
    k = np.arange(first, first + count)[:, None]
    expected = np.exp(1j * k * _PHASE_DELTAS) * (1.0 if scale is None else scale)
    # the recurrence adds a few eps per step, and k delta itself rounds by
    # |k| pi eps / 2
    tol = 4.0 * (k + 1) * np.finfo(float).eps * (1.0 if scale is None else scale)
    assert np.all(np.abs(cos_table - expected.real) <= tol)
    assert np.all(np.abs(sin_table - expected.imag) <= tol)


def test_grid_tables_hold_one_row_per_distinct_abs_helicity(monkeypatch):
    # the reference grid m1 -5..15, m2 -10..10 needs |m1| 0..15 and |m2| 0..10
    counts = []

    def recording(delta, first, count, scale=None):
        counts.append((first, count))
        return _helicity_phases(delta, first, count, scale)

    monkeypatch.setattr(wavepackets_module, "_helicity_phases", recording)
    axes = _slice_axes(_profiles(), 0.2, 0.03, 4)
    _grid_values(axes, 5, np.arange(-5, 16), np.arange(-10, 11))
    assert counts == [(0, 16), (0, 11)] * 4


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


@pytest.mark.parametrize("rel", [0.1, 0.2])
@pytest.mark.parametrize("n", [24, 48])
def test_kappa_measure_finite_at_every_q_node(rel, n):
    # in the slice nearest q_max, kappa row 0 rounds to q / sin theta, where
    # sin xi rounded to sin theta; its measure was inf and the map all NaN. At
    # kappa0 sin theta near 1e-162 the root's two factors multiplied to below 1e-324
    for k0, theta in ((1.0, 0.2), (1e-153, 1e-9)):
        profiles = _profiles(k0, k0, 0.5 * k0, rel)
        q_values, _ = q_substitution(profiles[0].support[1] * math.sin(theta), 1024)
        for q in q_values[q_values >= 0.0]:
            axes = _slice_axes(profiles, theta, float(q), n)
            assert axes is None or np.isfinite(axes.wa).all(), (k0, q)


@pytest.mark.parametrize("rel", [0.1, 0.2])
@pytest.mark.parametrize("n", [24, 48])
def test_kappa_measure_matches_its_s_cancelled_closed_form(rel, n):
    # where k_left = |q| / sin theta > lo0, gap = (hi0 - k_left) s^2 sin theta
    # and dkappa = 2 (hi0 - k_left) s ws, so s cancels from the measure in
    # closed form; a root taken as (sin theta - sin xi)(sin theta + sin xi)
    # cancels near k_left and misses it by up to 0.41 at 1024 q nodes
    profiles, theta = _profiles(rel=rel), 0.2
    f0, sin_t = profiles[0], math.sin(theta)
    lo0, hi0 = f0.support
    for q_nodes in (64, 1024):
        q_values, _ = q_substitution(hi0 * sin_t, q_nodes)
        for q in q_values[q_values > lo0 * sin_t].tolist():
            axes = _slice_axes(profiles, theta, q, n)
            k_left = q / sin_t
            kappa = k_left + (hi0 - k_left) * axes.s**2
            closed = (
                2.0 * math.sqrt((hi0 - k_left) / sin_t) * axes.ws * f0.value(kappa)
                * np.sqrt(kappa) / np.sqrt(kappa * sin_t + q)
            )
            np.testing.assert_allclose(axes.wa, closed, rtol=2e-15, atol=0.0, err_msg=f"q {q}")


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

    @pytest.mark.skipif(sys.platform == "win32", reason="no resource module")
    def test_map_memory_stays_below_one_slice_of_the_fine_pass(self):
        # the fine pass runs 192 nodes per axis: one whole slice's four
        # triangle arrays would take 4 * 192^3 float64, 226 MB; its row
        # blocks and per-row tables take a few MB
        script = textwrap.dedent(
            """
            import resource, sys
            from vortexscatter.kinematics import CollisionGeometry, TwistedState
            from vortexscatter.numerics import QuadratureSpec
            from vortexscatter.wavepackets import WavePacketProfile, intensity_map

            profiles = tuple(WavePacketProfile(k, 0.2 * k) for k in (1.0, 1.0, 0.5))
            template = CollisionGeometry(
                0.2, 0.0, TwistedState.massless(1.0, 5, 50.0), 1.0, 0.5
            )
            quad = QuadratureSpec(node_count=96)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            intensity_map(profiles, template, 5, (4, 6), (-1, 1), quad, q_nodes=2)
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            # ru_maxrss counts bytes on macOS and KiB elsewhere
            print(grown / 2**20 if sys.platform == "darwin" else grown / 2**10)
            """
        )
        done = run_python(["-c", script])
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 64.0
