"""Spans and counts around the package's public functions, taken from outside.

``traced(tracer)`` replaces each function in TARGETS, and
``WavePacketProfile.value``, on every ``vortexscatter`` module attribute that
refers to it, so calls between the package's own modules are seen too. It
restores the originals on exit. A span is (name, start, end, parent); a
layer's self time is its span's duration minus the part its child spans
cover. Spans stay in memory until ``fold`` turns them into per-name sums,
which the benchmark does between items.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name)
TARGETS = (
    ("vortexscatter.numerics", "bessel_j", "numerics.bessel_j"),
    ("vortexscatter.numerics", "solve_system", "numerics.solve_system"),
    ("vortexscatter.numerics", "gauss_legendre_nodes", "numerics.gauss_legendre_nodes"),
    ("vortexscatter.oracle", "oracle_amplitude", "oracle.oracle_amplitude"),
    ("vortexscatter.oracle", "draw_support_samples", "oracle.draw_support_samples"),
    ("vortexscatter.amplitudes", "reduced_triple_amplitude", "amplitudes.reduced_triple_amplitude"),
    ("vortexscatter.amplitudes", "fourier_weight", "amplitudes.fourier_weight"),
    ("vortexscatter.kinematics", "field_amplitude", "kinematics.field_amplitude"),
    ("vortexscatter.wavepackets", "intensity_map", "wavepackets.intensity_map"),
    ("vortexscatter.wavepackets", "smeared_amplitude", "wavepackets.smeared_amplitude"),
    ("vortexscatter.cli", "main", "cli.main"),
)
PROFILE_SPAN = "wavepackets.profile"
RESIDUAL_SPAN = "oracle.residual"

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("wavepackets.intensity_map.self_ms", "ms"),
    ("wavepackets.smeared_amplitude.self_ms", "ms"),
    ("wavepackets.profile.calls", "count"),
    ("wavepackets.profile.points", "count"),
    ("wavepackets.profile.ms", "ms"),
    ("numerics.gauss_legendre_nodes.calls", "count"),
    ("numerics.solve_system.calls", "count"),
    ("numerics.solve_system.self_ms", "ms"),
    ("oracle.residual.ms", "ms"),
    ("oracle.residual.calls_per_solve", "count/solve"),
    ("oracle.residual.points_per_solve", "count/solve"),
    ("oracle.oracle_amplitude.self_ms", "ms"),
    ("oracle.draw_support_samples.ms", "ms"),
    ("numerics.bessel_j.calls", "count"),
    ("numerics.bessel_j.ms", "ms"),
    ("kinematics.field_amplitude.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.bytes_written", "bytes"),
    ("cli.field.numpy_repr_rows", "count"),
    ("amplitudes.reduced_triple_amplitude.calls", "count"),
    ("amplitudes.reduced_triple_amplitude.ms", "ms"),
    ("amplitudes.fourier_weight.calls", "count"),
    ("numerics.solve_system.roots_per_solve", "count/solve"),
    ("numerics.solve_system.degenerate", "count"),
    ("numerics.solve_system.min_det", "1"),
    ("numerics.solve_system.max_residual", "1"),
    ("oracle.dispersion", "1"),
    ("wavepackets.map.max_cell_rel_delta", "1"),
    ("wavepackets.smeared.max_rel_err", "1"),
    ("trace.overhead_frac", "1"),
)


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """In-memory spans, counts and extrema for one traced job."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.lows: dict[str, float] = {}
        self.highs: dict[str, float] = {}
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, self.clock(), None, parent])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = self.clock()

    def low(self, name: str, value: float) -> None:
        self.lows[name] = min(self.lows.get(name, math.inf), value)

    def high(self, name: str, value: float) -> None:
        self.highs[name] = max(self.highs.get(name, -math.inf), value)

    def fold(self) -> None:
        """Add the finished spans to the per-name total and self times, then drop them."""
        if self._open:
            raise RuntimeError("cannot fold while spans are open")
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        for (name, start, end, _), inner in zip(self.spans, children):
            self.total_s[name] += end - start
            self.self_s[name] += (end - start) - covered_length(inner, start, end)
        self.spans.clear()


def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
            tracer.counts[name] += 1
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _wrap_solve_system(tracer: Tracer, name: str, fn):
    """Also time and count the residual callable each solve receives."""

    def record(args, kwargs, result):
        roots, degenerate = result
        tracer.counts[name + ".roots"] += len(roots)
        tracer.counts[name + ".degenerate"] += len(degenerate)
        for root in list(roots) + list(degenerate):
            tracer.low(name + ".min_det", root.jacobian_det)
            tracer.high(name + ".max_residual", root.residual_norm)

    timed = _timed(tracer, name, fn, after=record)

    @functools.wraps(fn)
    def wrapper(residual, *args, **kwargs):
        def counted(points):
            tracer.begin(RESIDUAL_SPAN)
            try:
                return residual(points)
            finally:
                tracer.end()
                tracer.counts[RESIDUAL_SPAN] += 1
                tracer.counts[RESIDUAL_SPAN + ".points"] += np.size(points) // 3

        return timed(counted, *args, **kwargs)

    return wrapper


def _wrap_cli_main(tracer: Tracer, name: str, fn):
    def record(args, kwargs, result):
        argv = args[0] if args else kwargs.get("argv")
        if argv and "--out" in argv:
            out = argv[argv.index("--out") + 1]
            if os.path.exists(out):
                tracer.counts["cli.bytes_written"] += os.path.getsize(out)

    return _timed(tracer, name, fn, after=record)


def _wrap_profile_value(tracer: Tracer, fn):
    def record(args, kwargs, result):
        tracer.counts[PROFILE_SPAN + ".points"] += np.size(args[1])

    return _timed(tracer, PROFILE_SPAN, fn, after=record)


_SPECIAL = {"numerics.solve_system": _wrap_solve_system, "cli.main": _wrap_cli_main}


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "vortexscatter" or n.startswith("vortexscatter.")]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    patches: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            make = _SPECIAL.get(name)
            wrapper = make(tracer, name, original) if make else _timed(tracer, name, original)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        profile_cls = importlib.import_module("vortexscatter.wavepackets").WavePacketProfile
        original = vars(profile_cls)["value"]
        patches.append((profile_cls, "value", original))
        profile_cls.value = _wrap_profile_value(tracer, original)
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def layer_metrics(tracer: Tracer, diagnostics: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric from a folded tracer plus the workload's accuracy figures."""
    c, total, own = tracer.counts, tracer.total_s, tracer.self_s
    solves = c["numerics.solve_system"]

    def per_solve(value):
        return value / solves if solves else 0.0

    values = {
        "wavepackets.intensity_map.self_ms": 1e3 * own["wavepackets.intensity_map"],
        "wavepackets.smeared_amplitude.self_ms": 1e3 * own["wavepackets.smeared_amplitude"],
        "wavepackets.profile.calls": c[PROFILE_SPAN],
        "wavepackets.profile.points": c[PROFILE_SPAN + ".points"],
        "wavepackets.profile.ms": 1e3 * total[PROFILE_SPAN],
        "numerics.gauss_legendre_nodes.calls": c["numerics.gauss_legendre_nodes"],
        "numerics.solve_system.calls": solves,
        "numerics.solve_system.self_ms": 1e3 * own["numerics.solve_system"],
        "oracle.residual.ms": 1e3 * total[RESIDUAL_SPAN],
        "oracle.residual.calls_per_solve": per_solve(c[RESIDUAL_SPAN]),
        "oracle.residual.points_per_solve": per_solve(c[RESIDUAL_SPAN + ".points"]),
        "oracle.oracle_amplitude.self_ms": 1e3 * own["oracle.oracle_amplitude"],
        "oracle.draw_support_samples.ms": 1e3 * total["oracle.draw_support_samples"],
        "numerics.bessel_j.calls": c["numerics.bessel_j"],
        "numerics.bessel_j.ms": 1e3 * total["numerics.bessel_j"],
        "kinematics.field_amplitude.self_ms": 1e3 * own["kinematics.field_amplitude"],
        "cli.main.self_ms": 1e3 * own["cli.main"],
        "cli.bytes_written": c["cli.bytes_written"],
        "amplitudes.reduced_triple_amplitude.calls": c["amplitudes.reduced_triple_amplitude"],
        "amplitudes.reduced_triple_amplitude.ms": 1e3 * total["amplitudes.reduced_triple_amplitude"],
        "amplitudes.fourier_weight.calls": c["amplitudes.fourier_weight"],
        "numerics.solve_system.roots_per_solve": per_solve(c["numerics.solve_system.roots"]),
        "numerics.solve_system.degenerate": c["numerics.solve_system.degenerate"],
        "numerics.solve_system.min_det": tracer.lows.get("numerics.solve_system.min_det", 0.0),
        "numerics.solve_system.max_residual": tracer.highs.get("numerics.solve_system.max_residual", 0.0),
    }
    values.update(diagnostics)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in LAYER_METRICS}
