"""The four benchmark workloads: seeded inputs, the public calls, their checks.

Each workload turns a seed into a fixed item list and yields one
``(call, check)`` pair per item. ``call`` is one top-level public call into
``vortexscatter``; ``check`` judges its output against a reference that was
stored by ``make_references.py`` (or, for the oracle, against the analytic
ratio) and never against the code under test. Calls are looked up through
module attributes at call time, so the tracer's wrappers see them.

Item counts scale with ``--seconds`` through a nominal rate measured on a
2-core x86 box; they are capped by the size of a workload's reference pool.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from vortexscatter import amplitudes, cli, oracle, wavepackets  # noqa: E402
from vortexscatter.kinematics import CollisionGeometry, TwistedState  # noqa: E402
from vortexscatter.numerics import QuadratureSpec  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# The reference configuration: helicity 5, tilt 0.2, packet peaks
# 1.0 / 1.0 / 0.5 with widths a fifth of each peak, on the 21 x 21 grid.
PEAKS = (1.0, 1.0, 0.5)
SIGMA_REL = 0.2
THETA = 0.2
M = 5
M1_RANGE = (-5, 15)
M2_RANGE = (-10, 10)
KZ = 50.0

MAP_QUAD = QuadratureSpec(node_count=24, rel_tol=1e-6)
# Even, so no q node sits at q = 0; two nodes keep one map near two seconds.
MAP_Q_NODES = 2
MAP_WEIGHT_TOL = 1e-9  # of the peak, which is 1
MAP_CELL_RTOL = 1e-2

# Pool points converge by n = 96; capping the doublings there turns a slower
# convergence into failed items instead of n^3 tensors of hundreds of MB.
SMEAR_QUAD = QuadratureSpec(node_count=24, rel_tol=1e-6, max_refinements=2)
SMEAR_CHECK_FACTOR = 10.0

ORACLE_THETA_MIX = ((0.2, 0.88), (0.1, 0.06), (0.35, 0.06))
ORACLE_RATIO = (2.0 * math.pi) ** 1.5
ORACLE_RTOL = 1e-8

FIELD_NORM_TOL = 1e-12


def reference_profiles(sigmas=None):
    sigmas = sigmas or [SIGMA_REL * p for p in PEAKS]
    return tuple(wavepackets.WavePacketProfile(p, s) for p, s in zip(PEAKS, sigmas))


def geometry_template(theta: float, m: int) -> CollisionGeometry:
    initial = TwistedState.massless(PEAKS[0], m, KZ)
    return CollisionGeometry(theta, 0.0, initial, PEAKS[1], PEAKS[2])


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _pick(pool: list, seed: int, count: int, stratum: str | None = None) -> list:
    """count distinct pool entries in seeded order, so no input repeats in a run.

    With a stratum key, each stratum gives its share of the pool (largest
    remainder), so the mix of cheap and costly items does not vary with the
    seed and neither does job_s.
    """
    rng = np.random.default_rng(seed)
    count = min(count, len(pool))
    if stratum is None:
        return [pool[int(i)] for i in rng.choice(len(pool), size=count, replace=False)]
    groups: dict = {}
    for entry in pool:
        groups.setdefault(entry[stratum], []).append(entry)
    keys = sorted(groups)
    exact = [count * len(groups[k]) / len(pool) for k in keys]
    quota = [math.floor(x) for x in exact]
    by_remainder = sorted(range(len(keys)), key=lambda i: quota[i] - exact[i])
    for i in by_remainder[: count - sum(quota)]:
        quota[i] += 1
    chosen = []
    for key, n in zip(keys, quota):
        group = groups[key]
        chosen.extend(group[int(i)] for i in rng.choice(len(group), size=n, replace=False))
    return [chosen[int(i)] for i in rng.permutation(len(chosen))]


class Workload:
    name = ""
    rate = 1.0  # items per second, sizes the item list
    min_items = 2

    def __init__(self):
        self._diagnostics: dict[str, float] = {}

    def item_count(self, seconds: float) -> int:
        return max(self.min_items, round(seconds * self.rate))

    def inputs(self, seed: int, count: int) -> list:
        raise NotImplementedError

    def items(self, inputs: list, workdir: Path):
        """Iterable of (call, check); work done between items counts in job_s.

        By default one item per input, through ``self.call(entry)`` and
        ``self.check(entry, output)``.
        """
        for entry in inputs:
            yield (lambda e=entry: self.call(e)), (lambda out, e=entry: self.check(e, out))

    def warmup(self, workdir: Path) -> None:
        raise NotImplementedError

    def diagnostics(self) -> dict[str, float]:
        """Accuracy figures gathered by the checks; they gate nothing."""
        return dict(self._diagnostics)

    def _note_max(self, key: str, value: float) -> None:
        self._diagnostics[key] = max(self._diagnostics.get(key, 0.0), float(value))


class MapRef(Workload):
    """Jittered full-grid intensity maps near the reference configuration."""

    name = "map-ref"
    rate = 0.6

    def inputs(self, seed, count):
        return _pick(load_reference("map_ref")["configs"], seed, count)

    @staticmethod
    def call(cfg):
        return wavepackets.intensity_map(
            reference_profiles(cfg["sigmas"]),
            geometry_template(cfg["theta"], cfg["m"]),
            cfg["m"],
            M1_RANGE,
            M2_RANGE,
            MAP_QUAD,
            q_nodes=MAP_Q_NODES,
        )

    def check(self, cfg, result) -> bool:
        weights = np.asarray(result.weights, dtype=float)
        ref = np.asarray(cfg["weights"], dtype=float)
        rel_delta = float(result.metadata["max_cell_rel_delta"])
        self._note_max("wavepackets.map.max_cell_rel_delta", rel_delta)
        if weights.shape != ref.shape:
            return False
        return (
            float(np.max(np.abs(weights - ref))) <= MAP_WEIGHT_TOL
            and diagonal_argmax(weights) == cfg["m"]
            and marginal_std(weights, 0) > marginal_std(weights, 1)
            and rel_delta <= MAP_CELL_RTOL
        )

    def warmup(self, workdir):
        wavepackets.intensity_map(
            reference_profiles(), geometry_template(THETA, M), M, (5, 5), (0, 0),
            MAP_QUAD, q_nodes=MAP_Q_NODES,
        )


def diagonal_argmax(weights: np.ndarray) -> int:
    """m1 - m2 of the heaviest diagonal of a weights array on M1 x M2."""
    m1 = np.arange(M1_RANGE[0], M1_RANGE[1] + 1)[:, None]
    m2 = np.arange(M2_RANGE[0], M2_RANGE[1] + 1)[None, :]
    diff = np.broadcast_to(m1 - m2, weights.shape)
    sums = np.bincount((diff - diff.min()).ravel(), weights=weights.ravel())
    return int(np.argmax(sums) + diff.min())


def marginal_std(weights: np.ndarray, axis: int) -> float:
    lo, hi = (M1_RANGE, M2_RANGE)[axis]
    values = np.arange(lo, hi + 1)
    marginal = weights.sum(axis=1 - axis)
    mean = float((values * marginal).sum() / marginal.sum())
    return math.sqrt(float(((values - mean) ** 2 * marginal).sum() / marginal.sum()))


class OracleCheck(Workload):
    """Seeded in-support samples, closed form against the constraint oracle."""

    name = "oracle-check"
    rate = 30.0

    def __init__(self):
        super().__init__()
        self.ratios: list[complex] = []

    def inputs(self, seed, count):
        counts = [round(share * count) for _, share in ORACLE_THETA_MIX[1:]]
        counts.insert(0, count - sum(counts))
        return [(theta, n, [seed, k]) for k, ((theta, _), n) in enumerate(zip(ORACLE_THETA_MIX, counts))]

    @staticmethod
    def call(sample):
        geom, m, m1, m2 = sample
        closed = amplitudes.reduced_triple_amplitude(geom, m, m1, m2)
        result = oracle.oracle_amplitude(geom, m, m1, m2)
        return result.amplitude / closed.value

    def check(self, ratio) -> bool:
        self.ratios.append(ratio)
        return abs(ratio / ORACLE_RATIO - 1.0) <= ORACLE_RTOL

    def diagnostics(self):
        if not self.ratios:
            return {}
        arr = np.asarray(self.ratios)
        mean = complex(arr.mean())
        return {"oracle.dispersion": float(np.sqrt(np.mean(np.abs(arr - mean) ** 2)) / abs(mean))}

    def items(self, inputs, workdir):
        for theta, count, group_seed in inputs:
            rng = np.random.default_rng(group_seed)
            for sample in oracle.draw_support_samples(rng, count, theta=theta):
                yield (lambda s=sample: self.call(s)), self.check

    def warmup(self, workdir):
        sample = oracle.draw_support_samples(np.random.default_rng(0), 1, theta=THETA)[0]
        self.call(sample)


class SmearedScan(Workload):
    """Single smeared amplitudes at seeded (q, m1, m2) over the allowed region."""

    name = "smeared-scan"
    rate = 27.0

    def __init__(self):
        super().__init__()
        self.profiles = reference_profiles()
        self.template = geometry_template(THETA, M)

    def inputs(self, seed, count):
        return _pick(load_reference("smeared_scan")["points"], seed, count, stratum="doublings")

    def call(self, point):
        return wavepackets.smeared_amplitude(
            self.profiles, self.template, point["q"], M, point["m1"], point["m2"], SMEAR_QUAD
        )

    def check(self, point, value) -> bool:
        ref = complex(point["re"], point["im"])
        err = abs(complex(value) - ref) / abs(ref)
        self._note_max("wavepackets.smeared.max_rel_err", err)
        return err <= SMEAR_CHECK_FACTOR * SMEAR_QUAD.rel_tol

    def warmup(self, workdir):
        wavepackets.smeared_amplitude(self.profiles, self.template, 0.05, M, 5, 0, SMEAR_QUAD)


class FieldPacket(Workload):
    """In-process ``field`` subcommand runs with packet superposition."""

    name = "field-packet"
    rate = 9.5

    def inputs(self, seed, count):
        return _pick(load_reference("field_packet")["configs"], seed, count, stratum="grid_n")

    @staticmethod
    def write_config(cfg, path: Path) -> None:
        keys = ("kappa0", "m", "r_max", "grid_n")
        doc = {k: cfg[k] for k in keys}
        doc["field_packet"] = True
        path.write_text(json.dumps(doc), encoding="utf-8")

    @staticmethod
    def call(config: Path, out: Path) -> int:
        return cli.main(["field", "--config", str(config), "--out", str(out)])

    def check(self, cfg, out: Path, code) -> bool:
        if code != cli.EXIT_OK:
            return False
        ok, numpy_repr_rows = field_csv_matches(cfg, out.read_text(encoding="utf-8"))
        key = "cli.field.numpy_repr_rows"
        self._diagnostics[key] = self._diagnostics.get(key, 0.0) + numpy_repr_rows
        return ok

    def items(self, inputs, workdir):
        # Config files are written before the job starts, not during it.
        pairs = []
        for k, cfg in enumerate(inputs):
            config, out = workdir / f"field-{k}.json", workdir / f"field-{k}.csv"
            self.write_config(cfg, config)
            pairs.append((
                lambda c=config, o=out: self.call(c, o),
                lambda code, g=cfg, o=out: self.check(g, o, code),
            ))
        return pairs

    def warmup(self, workdir):
        cfg = {"kappa0": 1.0, "m": 3, "r_max": 5.0, "grid_n": 2}
        self.write_config(cfg, workdir / "warmup.json")
        self.call(workdir / "warmup.json", workdir / "warmup.csv")


# numpy >= 2 writes repr(np.float64(x)) as "np.float64(x)"; the value inside
# is still the exact shortest round-trip form.
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _csv_float(text: str) -> tuple[float, bool]:
    wrapped = _NUMPY_REPR.fullmatch(text)
    return (float(wrapped.group(1)), True) if wrapped else (float(text), False)


def field_csv_matches(cfg: dict, text: str) -> tuple[bool, int]:
    """Compare a ``field`` CSV with e^{i m phi} R(r) from the stored radial profile.

    Returns (match, rows whose re/im are written as np.float64(...)).
    """
    n, m = cfg["grid_n"], cfg["m"]
    radii = np.linspace(0.0, cfg["r_max"], n)
    azimuths = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    lines = text.splitlines()
    if lines[0] != "r,phi,re,im" or len(lines) != 1 + n * n:
        return False, 0
    tol = FIELD_NORM_TOL * cfg["norm"]
    rows = iter(lines[1:])
    ok, numpy_repr_rows = True, 0
    for r, radial in zip(radii, cfg["radial"]):
        for phi in azimuths:
            r_txt, phi_txt, re_txt, im_txt = next(rows).split(",")
            (real, real_wrapped), (imag, imag_wrapped) = _csv_float(re_txt), _csv_float(im_txt)
            numpy_repr_rows += real_wrapped or imag_wrapped
            expected = complex(math.cos(m * phi), math.sin(m * phi)) * radial
            ok = ok and r_txt == f"{r:.9g}" and phi_txt == f"{phi:.9g}"
            ok = ok and abs(complex(real, imag) - expected) <= tol
    return ok, numpy_repr_rows


WORKLOADS = {w.name: w for w in (MapRef, OracleCheck, SmearedScan, FieldPacket)}
