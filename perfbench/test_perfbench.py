"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads
from tracing import Tracer, covered_length, traced

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def _bindings():
    """Every (owner, attribute) the tracer may replace, with its current value."""
    out = {}
    for module_name, attr, _ in tracing.TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        for module in tracing._package_modules():
            for key, value in vars(module).items():
                if value is original:
                    out[(module.__name__, key)] = value
    cls = workloads.wavepackets.WavePacketProfile
    out[("WavePacketProfile", "value")] = vars(cls)["value"]
    return out


def _tiny_job(name: str, count: int, workdir: Path, tracer=None):
    workload = workloads.WORKLOADS[name]()
    return workload, run.run_job(workload, workload.inputs(7, count), workdir, tracer)


def test_every_wrapper_is_restored(tmp_path):
    before = _bindings()
    tracer = Tracer()
    with traced(tracer):
        during = _bindings()
        _tiny_job("oracle-check", 3, tmp_path, tracer)
        _tiny_job("field-packet", 1, tmp_path, tracer)
    assert all(during[key] is not value for key, value in before.items())
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.counts["numerics.solve_system"] > 0 and tracer.counts["numerics.bessel_j"] > 0


def test_wrappers_are_restored_when_the_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            raise RuntimeError("boom")
    assert all(_bindings()[key] is value for key, value in before.items())


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    tracer.begin("a")
    tracer.begin("b")
    tracer.begin("c")
    tracer.end()
    tracer.end()
    tracer.begin("d")
    tracer.end()
    tracer.end()
    tracer.fold()
    assert dict(tracer.total_s) == {"a": 10, "b": 3, "c": 1, "d": 2}
    assert dict(tracer.self_s) == {"a": 5, "b": 2, "c": 1, "d": 2}
    assert tracer.spans == []


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_fold_refuses_open_spans():
    tracer = Tracer()
    tracer.begin("a")
    with pytest.raises(RuntimeError):
        tracer.fold()


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1000, 99.0, 10), (999, 99.0, 10), (200, 95.0, 10), (100, 90.0, 10), (40, 75.0, 10), (20, 50.0, 10), (7, 50.0, 3)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    values = [float(k) for k in range(n)]
    chosen, value, count = run.tail(values)
    assert chosen == percentile
    assert count == beyond
    assert value == pytest.approx(run.percentile(values, percentile))


def test_wrong_reference_counts_as_failed_items(tmp_path, monkeypatch):
    real = workloads.load_reference

    def doubled(name):
        data = real(name)
        for point in data["points"]:
            point["re"], point["im"] = 2.0 * point["re"], 2.0 * point["im"]
        return data

    monkeypatch.setattr(workloads, "load_reference", doubled)
    _, job = _tiny_job("smeared-scan", 3, tmp_path)
    assert job.attempted == 3 and job.failed == 3


def test_raising_item_counts_as_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("degenerate")

    monkeypatch.setattr(workloads.oracle, "oracle_amplitude", broken)
    _, job = _tiny_job("oracle-check", 3, tmp_path)
    assert job.attempted == 3 and job.failed == 3
    assert job.failures[0] == "ArithmeticError: degenerate"


COUNTS = (
    "wavepackets.profile.calls",
    "wavepackets.profile.points",
    "numerics.gauss_legendre_nodes.calls",
    "numerics.solve_system.calls",
    "oracle.residual.calls_per_solve",
    "oracle.residual.points_per_solve",
    "numerics.solve_system.roots_per_solve",
    "numerics.bessel_j.calls",
    "amplitudes.reduced_triple_amplitude.calls",
    "amplitudes.fourier_weight.calls",
    "cli.bytes_written",
)


@pytest.mark.parametrize("name, count", [("map-ref", 1), ("oracle-check", 4), ("smeared-scan", 4), ("field-packet", 2)])
def test_two_traced_runs_give_the_same_counts(tmp_path, name, count):
    seen = []
    for _ in range(2):
        tracer = Tracer()
        with traced(tracer):
            workload, job = _tiny_job(name, count, tmp_path, tracer)
        assert job.failed == 0, job.failures
        metrics = tracing.layer_metrics(tracer, workload.diagnostics())
        seen.append({key: metrics[key]["value"] for key in COUNTS})
    assert seen[0] == seen[1]
    assert any(seen[0].values())


def test_times_are_scaled_by_the_speed_kernel(tmp_path, monkeypatch):
    monkeypatch.setattr(speed, "kernel_s", lambda: 2.0 * speed.REFERENCE_KERNEL_S)
    _, job = _tiny_job("oracle-check", 3, tmp_path)
    assert job.job_s == pytest.approx(0.5 * job.raw_job_s)
    assert job.latencies == pytest.approx([0.5 * t for t in job.raw_latencies])
    assert 0.0 < sum(job.raw_latencies) <= job.raw_job_s


def test_stratified_pick_keeps_the_mix_and_never_repeats():
    pool = [{"id": k, "cost": k % 3} for k in range(30)]
    for seed in range(5):
        picked = workloads._pick(pool, seed, 12, stratum="cost")
        assert len({p["id"] for p in picked}) == 12
        assert sorted(p["cost"] for p in picked) == [0] * 4 + [1] * 4 + [2] * 4
    assert workloads._pick(pool, 1, 12, "cost") == workloads._pick(pool, 1, 12, "cost")
    assert workloads._pick(pool, 1, 12, "cost") != workloads._pick(pool, 2, 12, "cost")


def test_benchmark_json_names_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
