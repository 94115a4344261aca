"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload map-ref --seed 1 --seconds 15 --trace 0

Each workload is a closed loop in this one process: the next item starts
when the previous one returns. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same item list untraced and then traced, and reports
the per-layer metrics with ``trace.overhead_frac``. A failed check or an
exception counts as a failed item and never stops the run. Times are scaled
to a fixed machine speed (see speed.py); the raw wall times are in the
``info`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
CALIBRATE_EVERY_S = 1.0
END_TO_END = {"setup_s": "s", "job_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    threads = nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest listed percentile
    with at least ten samples beyond it; the median when none has."""
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= TAIL_MIN_BEYOND:
            break
    return p, value, beyond


class JobResult:
    """Item latencies and job time, scaled to the reference machine speed
    (see speed.py); the raw wall times are kept beside them."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.failures: list[str] = []
        self.job_s = 0.0
        self.raw_job_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def add_stretch(self, wall: float, latencies: list[float], scale: float) -> None:
        self.raw_job_s += wall
        self.job_s += wall * scale
        self.raw_latencies.extend(latencies)
        self.latencies.extend(t * scale for t in latencies)


def run_job(workload, inputs, workdir: Path, tracer=None) -> JobResult:
    """Time every item, then check every output; failures are counted, not raised.

    The loop is cut into stretches of at least CALIBRATE_EVERY_S, each
    bracketed by speed-kernel timings that are not part of the job.
    """
    import speed

    result = JobResult()
    pending, stretch = [], []
    clock = time.perf_counter
    before = speed.kernel_s()
    started = clock()
    for call, check in workload.items(inputs, workdir):
        t0 = clock()
        try:
            pending.append((check, call(), None))
        except Exception as exc:  # an item's failure must not end the run
            pending.append((check, None, exc))
        stretch.append(clock() - t0)
        if tracer is not None:
            tracer.fold()
        if clock() - started >= CALIBRATE_EVERY_S:
            wall = clock() - started
            after = speed.kernel_s()
            result.add_stretch(wall, stretch, speed.factor(before, after))
            before, stretch, started = after, [], clock()
    wall = clock() - started
    result.add_stretch(wall, stretch, speed.factor(before, speed.kernel_s()))
    for check, output, error in pending:
        if error is None:
            try:
                if check(output):
                    continue
                error = "output failed its check"
            except Exception as exc:
                error = exc
        result.failures.append(error if isinstance(error, str) else f"{type(error).__name__}: {error}")
    return result


def measure_setup(workload: str, workdir: Path) -> tuple[float, float]:
    """Median time from a fresh interpreter to a finished warm-up call,
    scaled to the reference speed, and the raw median."""
    import speed

    scaled, raw = [], []
    for k in range(SETUP_REPEATS):
        probe_dir = workdir / f"probe-{k}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--probe", str(probe_dir)]
        before = speed.kernel_s()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120, check=False)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * speed.factor(before, speed.kernel_s()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    return statistics.median(scaled), statistics.median(raw)


def run_info(args, blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
    }


def end_to_end(args, workload_cls, workdir: Path, info: dict):
    setup_s, raw_setup_s = measure_setup(args.workload, workdir)
    workload = workload_cls()
    inputs = workload.inputs(args.seed, workload.item_count(args.seconds))
    workload.warmup(workdir)
    job = run_job(workload, inputs, workdir)
    ms = [1e3 * t for t in job.latencies]
    tail_p, tail_ms, beyond = tail(ms)
    info.update(items=job.attempted, tail_percentile=tail_p, tail_beyond=beyond,
                fail_frac=job.failed / job.attempted, raw_setup_s=raw_setup_s,
                raw_job_s=job.raw_job_s, raw_item_p50_ms=1e3 * statistics.median(job.raw_latencies),
                raw_item_tail_ms=1e3 * tail(job.raw_latencies)[1])
    values = {
        "setup_s": setup_s,
        "job_s": job.job_s,
        "item_p50_ms": statistics.median(ms),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return [job], {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(args, workload_cls, workdir: Path, info: dict):
    from tracing import Tracer, layer_metrics, traced

    plain = workload_cls()
    inputs = plain.inputs(args.seed, plain.item_count(args.seconds))
    plain.warmup(workdir)
    base = run_job(plain, inputs, workdir)
    observed = workload_cls()
    tracer = Tracer()
    with traced(tracer):
        job = run_job(observed, inputs, workdir, tracer)
    diagnostics = observed.diagnostics()
    diagnostics["trace.overhead_frac"] = job.job_s / base.job_s - 1.0
    info.update(items=job.attempted, untraced_job_s=base.job_s, traced_job_s=job.job_s,
                raw_untraced_job_s=base.raw_job_s, raw_traced_job_s=job.raw_job_s)
    return [base, job], layer_metrics(tracer, diagnostics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vortexscatter benchmark: one workload, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)  # set-up probe: import, warm up, exit
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vortexscatter" / "__init__.py").is_file():
        print(f"no vortexscatter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe:
        WORKLOADS[args.workload]().warmup(Path(args.probe))
        return 0

    info = run_info(args, blas_threads)
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        jobs, metrics = measure(args, WORKLOADS[args.workload], workdir, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(j.attempted for j in jobs)
    failures = [f for j in jobs for f in j.failures]
    info["failures"] = failures[:5]
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
