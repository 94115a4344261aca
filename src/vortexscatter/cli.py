"""Command-line front end.

Subcommands (each takes --config <path> --out <path>):

  eval          single reduced triple-twisted amplitude -> JSON
  oracle-check  oracle vs closed form over seeded random configurations -> JSON
  map           q-integrated (m1, m2) intensity map -> CSV (+ optional gnuplot script)
  field         transverse field samples on a polar grid -> CSV

Exit codes: 0 success, 1 threshold failure, 2 invalid config or output path, or a config
too large for the memory at hand (MemoryError), 3 degenerate support, 4 degenerate oracle
sample, 5 quadrature failure.

All floats are emitted in shortest round-trip form (at most 17 significant
digits), so identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from .amplitudes import reduced_triple_amplitude
from .errors import DegenerateJacobianError, DegenerateSupportError, SupportRegionError
from .kinematics import (
    CollisionGeometry,
    TwistedState,
    angle_set,
    mode_field,
    triangle_geometry,
)
from .numerics import (
    MAX_BESSEL_ARGUMENT,
    MAX_BESSEL_ORDER,
    QuadratureSpec,
    gauss_legendre_on,
)
from .oracle import draw_support_samples, oracle_amplitude
from .wavepackets import WavePacketProfile, intensity_map

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE_SUPPORT = 3
EXIT_DEGENERATE_ORACLE = 4
EXIT_QUADRATURE = 5

_KZ_FACTOR = 50.0  # the reduced problem is k_z independent; any paraxial value works
# Largest field grid: grid_n^2 CSV rows, about 1e6 at the cap. validate rejects
# a larger grid before numpy allocates (past its maximum it raises ValueError).
MAX_GRID_N = 1024
# Largest oracle-check sample count: one oracle solve per sample, about 5 ms
# each, so about an hour and a half at the cap.
MAX_SAMPLE_COUNT = 10**6
# Largest map sizes. The fine pass builds each q slice's triangle in blocks of
# kappa rows at n = 2 node_count nodes per axis, 1 MiB per array at the node
# cap; per kappa row it builds real cos and sin tables of (distinct |m| x n^2)
# float64, at most 1.8 MB each for a 100 x 100 map at the default 24 nodes;
# each pass takes about q_nodes / 2 slices. Each cap bounds one size: a map
# near several caps at once can still need more memory than the host has,
# which main reports as exit 2.
MAX_HELICITY_CELLS = 10**4
MAX_NODE_COUNT = 128
MAX_Q_NODES = 1024


@dataclass(frozen=True)
class RunConfig:
    """All physical and numerical parameters, one JSON document."""

    m: int = 5
    theta: float = 0.2
    kappa0: float = 1.0
    kappa01: float = 1.0
    kappa02: float = 0.5
    sigma_rel: float = 0.2
    q: float = 0.0
    m1_min: int = -5
    m1_max: int = 15
    m2_min: int = -10
    m2_max: int = 10
    seed: int = 0
    sample_count: int = 100
    threshold: float = 1e-8
    r_max: float = 10.0
    grid_n: int = 16
    field_packet: bool = False
    plot_script: bool = False
    q_nodes: int = 64
    node_count: int = 24
    map_cell_rtol: float = 1e-2


# every RunConfig field name -> its declared type, resolved once from the
# string annotations
_FIELD_TYPES = typing.get_type_hints(RunConfig)

# declared field type -> (accepted JSON value types, name in messages)
_VALUE_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
}


def _type_problems(raw: dict) -> list[str]:
    """One message per value of raw that does not fit the declared type of the
    RunConfig field it sets: an int field takes an integer, a float field an
    integer or a float, and only a bool field takes true or false. JSON
    integers have no size limit: an int field takes only a 64-bit one (numpy
    takes the seed at any size), a float field only one within the float
    range."""
    out = []
    for key, value in raw.items():
        kind = _FIELD_TYPES.get(key)
        if kind not in _VALUE_TYPES:
            continue
        accepted, name = _VALUE_TYPES[kind]
        if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
            out.append(f"{key} must be {name}, got {value!r}")
        elif kind is int and key != "seed" and not -(2**63) <= value < 2**63:
            out.append(f"{key} must lie in [-2**63, 2**63)")
        elif kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
            out.append(f"{key} must be finite")
    return out


def load_config(path: str) -> tuple[RunConfig | None, list[str]]:
    """Parse a JSON config; returns (config, violations)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integer
    # literals beyond Python's digit limit for int conversion
    except (OSError, ValueError) as exc:
        return None, [f"cannot read config: {exc}"]
    if not isinstance(raw, dict):
        return None, ["config must be a JSON object"]

    violations = [f"unknown config key: {k!r}" for k in sorted(set(raw) - _FIELD_TYPES.keys())]
    violations.extend(_type_problems(raw))
    if violations:
        return None, violations
    return RunConfig(**raw), []


def validate(cfg: RunConfig, command: str) -> list[str]:
    """Every violated precondition of the target command, as messages."""
    out = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            out.append(f"{f.name} must be finite")
    if not 0.0 < cfg.theta < 0.5 * math.pi:
        out.append("theta must satisfy 0 < theta < pi/2")
    for name in ("kappa0", "kappa01", "kappa02"):
        kappa = getattr(cfg, name)
        if kappa <= 0.0:
            out.append(f"{name} must be positive")
        elif command in ("eval", "map") and kappa * kappa < sys.float_info.min:
            # the triangle area and the stripe angles divide by such squares
            out.append(f"{name} too small: {name}^2 underflows below the smallest normal float")
    if cfg.sigma_rel <= 0.0:
        out.append("sigma_rel must be positive")
    # math.sin raises on +-inf, which is reported above
    sin_t = math.sin(cfg.theta) if math.isfinite(cfg.theta) else math.nan
    if command != "field" and sin_t ** 2 < sys.float_info.min:
        # the closed form divides by sqrt(sin^2 theta - sin^2 xi)
        out.append("theta too small: sin(theta)^2 underflows below the smallest normal float")
    if command == "eval":
        if cfg.m1_min != cfg.m1_max:
            out.append("eval requires m1_min == m1_max (a single m1)")
        if cfg.m2_min != cfg.m2_max:
            out.append("eval requires m2_min == m2_max (a single m2)")
        # the same test as angle_set, on the rounded q / kappa0
        if cfg.kappa0 > 0.0 and abs(cfg.q / cfg.kappa0) >= sin_t:
            out.append("|q| >= kappa0*sin(theta): outside the allowed q region")
    elif command == "map":
        if cfg.m1_min > cfg.m1_max:
            out.append("m1_min must not exceed m1_max")
        if cfg.m2_min > cfg.m2_max:
            out.append("m2_min must not exceed m2_max")
        cells = (cfg.m1_max - cfg.m1_min + 1) * (cfg.m2_max - cfg.m2_min + 1)
        if cfg.m1_min <= cfg.m1_max and cfg.m2_min <= cfg.m2_max and cells > MAX_HELICITY_CELLS:
            out.append(
                f"helicity cells (m1_max - m1_min + 1) * (m2_max - m2_min + 1) = {cells} "
                f"must not exceed MAX_HELICITY_CELLS = {MAX_HELICITY_CELLS}"
            )
        if cfg.q_nodes < 2:
            out.append("q_nodes must be >= 2")
        elif cfg.q_nodes > MAX_Q_NODES:
            out.append(f"q_nodes must not exceed MAX_Q_NODES = {MAX_Q_NODES}")
        if cfg.node_count < 2:
            out.append("node_count must be >= 2")
        elif cfg.node_count > MAX_NODE_COUNT:
            out.append(f"node_count must not exceed MAX_NODE_COUNT = {MAX_NODE_COUNT}")
        if cfg.map_cell_rtol <= 0.0:
            out.append("map_cell_rtol must be positive")
    elif command == "oracle-check":
        if cfg.seed < 0:
            out.append("seed must be non-negative")
        if cfg.sample_count < 1:
            out.append("sample_count must be >= 1")
        elif cfg.sample_count > MAX_SAMPLE_COUNT:
            out.append(f"sample_count must not exceed MAX_SAMPLE_COUNT = {MAX_SAMPLE_COUNT}")
        if cfg.threshold < 0.0:
            out.append("threshold must be non-negative")
    elif command == "field":
        if cfg.grid_n < 2:
            out.append("grid_n must be >= 2")
        elif cfg.grid_n > MAX_GRID_N:
            out.append(f"grid_n must not exceed MAX_GRID_N = {MAX_GRID_N}")
        if cfg.r_max <= 0.0:
            out.append("r_max must be positive")
        if abs(cfg.m) > MAX_BESSEL_ORDER:
            out.append(f"|m| must not exceed MAX_BESSEL_ORDER = {MAX_BESSEL_ORDER}")
    if command != "oracle-check" and not out:
        out.extend(_range_problems(cfg, command))
    return out


def _range_problems(cfg: RunConfig, command: str) -> list[str]:
    """The beam modes and packet profiles the command builds must exist, and
    the field's Bessel arguments kappa * r stay in the range of bessel_j."""
    k_z = _KZ_FACTOR * cfg.kappa0
    if not math.isfinite(k_z):
        return [f"{_KZ_FACTOR:g} * kappa0 (the k_z of the beam modes) must be finite"]
    name, kappa_max, reach = "kappa0", cfg.kappa0, 0.0
    try:
        if command == "map":
            reach = sum(p.support[1] for p in _profiles(cfg))
        if command == "field" and cfg.field_packet:
            name = "the packet's largest kappa"
            kappa_max = WavePacketProfile(cfg.kappa0, cfg.sigma_rel * cfg.kappa0).support[1]
    except ValueError as exc:
        return [f"packet profile: {exc}"]
    try:
        TwistedState.massless(kappa_max, cfg.m, k_z)
    except ValueError as exc:
        return [f"beam mode at {name} = {kappa_max:g}: {exc}"]
    if not math.isfinite(reach * reach):
        # bounds every square and product of momenta in a map's q slice
        return ["packet supports too wide: (sum of the three upper support ends)^2 overflows"]
    if command == "field" and cfg.r_max * kappa_max > MAX_BESSEL_ARGUMENT:
        return [
            f"r_max * {name} = {cfg.r_max * kappa_max:g} exceeds "
            f"MAX_BESSEL_ARGUMENT = {MAX_BESSEL_ARGUMENT:g}"
        ]
    return []


def _geometry(cfg: RunConfig) -> CollisionGeometry:
    return CollisionGeometry(
        theta=cfg.theta,
        q=cfg.q,
        initial=TwistedState.massless(cfg.kappa0, cfg.m, _KZ_FACTOR * cfg.kappa0),
        kappa1=cfg.kappa01,
        kappa2=cfg.kappa02,
    )


def _profiles(cfg: RunConfig):
    return (
        WavePacketProfile(cfg.kappa0, cfg.sigma_rel * cfg.kappa0),
        WavePacketProfile(cfg.kappa01, cfg.sigma_rel * cfg.kappa01),
        WavePacketProfile(cfg.kappa02, cfg.sigma_rel * cfg.kappa02),
    )


def _write_text(path: str, *texts: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(texts)


def _probe_writable(path: str) -> None:
    """Raise the OSError that writing path would raise; leaves no new file."""
    existed = os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def _json_document(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def cmd_eval(cfg: RunConfig, out_path: str) -> int:
    geom = _geometry(cfg)
    m1, m2 = cfg.m1_min, cfg.m2_min
    try:
        amp = reduced_triple_amplitude(geom, cfg.m, m1, m2)
    except DegenerateSupportError as exc:
        print(f"degenerate support: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_SUPPORT
    angles = angle_set(geom)
    tri = triangle_geometry(cfg.kappa0, angles.xi, cfg.kappa01, cfg.kappa02)

    def opt(x: float):
        return None if math.isnan(x) else x

    payload = {
        "value_re": amp.value.real,
        "value_im": amp.value.imag,
        "phase_power": amp.phase_power,
        "in_support": amp.in_support,
        "xi": angles.xi,
        "phi_star": angles.phi_star,
        "phi_tilde_star": angles.phi_tilde_star,
        "area": opt(tri.area),
        "delta1": opt(tri.delta1),
        "delta2": opt(tri.delta2),
    }
    _write_text(out_path, _json_document(payload))
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig, out_path: str) -> int:
    rng = np.random.default_rng(cfg.seed)
    samples = draw_support_samples(rng, cfg.sample_count, theta=cfg.theta)
    ratios = []
    excluded = []
    for index, (geom, m, m1, m2) in enumerate(samples):
        closed = reduced_triple_amplitude(geom, m, m1, m2)
        try:
            result = oracle_amplitude(geom, m, m1, m2)
        except DegenerateJacobianError as exc:
            excluded.append({"sample": index, "reason": str(exc)})
            continue
        ratios.append(result.amplitude / closed.value)

    report: dict = {"samples": cfg.sample_count, "threshold": cfg.threshold}
    # null without ratios, and without a spread relative to a zero mean ratio
    dispersion = max_dev = None
    if ratios:
        arr = np.array(ratios)
        mean = complex(arr.mean())
        if mean != 0.0:
            dispersion = float(np.sqrt(np.mean(np.abs(arr - mean) ** 2)) / abs(mean))
            max_dev = float(np.max(np.abs(arr / mean - 1.0)))
        report.update(
            {
                "ratio_mean_re": mean.real,
                "ratio_mean_im": mean.imag,
                "dispersion": dispersion,
                "max_rel_deviation": max_dev,
                "per_sample_re": [r.real for r in ratios],
                "per_sample_im": [r.imag for r in ratios],
            }
        )
    else:
        report.update({"dispersion": None, "max_rel_deviation": None})
    passed = dispersion is not None and dispersion < cfg.threshold
    report["excluded_degenerate"] = excluded
    report["passed"] = passed
    _write_text(out_path, _json_document(report))
    if excluded:
        return EXIT_DEGENERATE_ORACLE
    return EXIT_OK if passed else EXIT_THRESHOLD


_FLOAT9 = "{:.9g}".format


def _map_csv(rows) -> str:
    lines = ["m1,m2,intensity"]
    lines.extend(f"{m1},{m2},{_FLOAT9(v)}" for m1, m2, v in rows)
    return "\n".join(lines) + "\n"


_PLOT_TEMPLATE = """set datafile separator ','
set key off
set xlabel 'm1'
set ylabel 'm2'
set title 'relative scattering intensity'
half = 0.48
plot '{csv}' skip 1 using 1:2:(half*sqrt($3)):(half*sqrt($3)) with boxxyerror fs solid lc rgb 'navy'
"""


def cmd_map(cfg: RunConfig, out_path: str) -> int:
    try:
        result = intensity_map(
            _profiles(cfg),
            _geometry(cfg),
            cfg.m,
            (cfg.m1_min, cfg.m1_max),
            (cfg.m2_min, cfg.m2_max),
            QuadratureSpec(node_count=cfg.node_count),
            q_nodes=cfg.q_nodes,
        )
    except SupportRegionError as exc:
        print(f"degenerate support: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_SUPPORT
    csv_text = _map_csv(result.rows())
    non_finite = int(np.sum(~np.isfinite(result.weights)))
    # fails closed: a NaN delta counts as above the tolerance
    if non_finite or not result.metadata["max_cell_rel_delta"] <= cfg.map_cell_rtol:
        _write_text(out_path + ".partial", csv_text)
        bad = int(np.sum(~(result.metadata["cell_rel_delta"] <= cfg.map_cell_rtol)))
        problem = f"quadrature failure: {bad} cell(s) above map_cell_rtol = {cfg.map_cell_rtol}"
        if non_finite:
            problem = f"non-finite map: {non_finite} weight(s) are NaN or inf"
        print(f"{problem}; partial results in {out_path}.partial", file=sys.stderr)
        return EXIT_QUADRATURE
    _write_text(out_path, csv_text)
    if cfg.plot_script:
        # gnuplot writes a ' inside a single-quoted string as ''
        _write_text(out_path + ".gp", _PLOT_TEMPLATE.format(csv=out_path.replace("'", "''")))
    return EXIT_OK


def cmd_field(cfg: RunConfig, out_path: str) -> int:
    """field_amplitude on the polar grid, or its packet superposition
    sum_k w_k field_amplitude(mode k), from mode_field one radius at a time.
    np.add.reduce over the mode axis starts from 0 and adds the modes in
    order, as Python's sum does, so every value is bit for bit the per-point
    one."""
    radii = np.linspace(0.0, cfg.r_max, cfg.grid_n).tolist()
    azimuths = np.linspace(0.0, 2.0 * math.pi, cfg.grid_n, endpoint=False).tolist()
    if cfg.field_packet:
        profile = WavePacketProfile(cfg.kappa0, cfg.sigma_rel * cfg.kappa0)
        nodes, weights = gauss_legendre_on(*profile.support, 64)
        weights = (weights * profile.value(nodes))[:, None]
        kappas = nodes.tolist()
    else:
        kappas, weights = [cfg.kappa0], None
    phi_text = [_FLOAT9(phi) for phi in azimuths]

    blocks = ["r,phi,re,im\n"]  # one string per radius
    for r, z in zip(radii, mode_field(cfg.m, kappas, radii, azimuths)):
        if weights is not None:
            z = np.add.reduce(weights * z, axis=0)
        r_text = _FLOAT9(r)
        rows = zip(phi_text, z.real.ravel().tolist(), z.imag.ravel().tolist())
        blocks.append("".join(f"{r_text},{phi},{x!r},{y!r}\n" for phi, x, y in rows))
    _write_text(out_path, *blocks)
    return EXIT_OK


_COMMANDS = {
    "eval": cmd_eval,
    "oracle-check": cmd_oracle_check,
    "map": cmd_map,
    "field": cmd_field,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="vortexscatter",
        description="Twisted-beam on plane-wave scattering: amplitudes, oracle checks, intensity maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output file path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    cfg, violations = load_config(args.config)
    if cfg is not None:
        violations = validate(cfg, args.command)
    if violations:
        for v in violations:
            print(f"config invalid: {v}", file=sys.stderr)
        return EXIT_CONFIG
    # the output, and a map's partial results and plot script, checked before the computation
    outputs = [args.out]
    if args.command == "map":
        outputs.append(args.out + ".partial")
        if cfg.plot_script:
            outputs.append(args.out + ".gp")
    try:
        for path in outputs:
            _probe_writable(path)
        return _COMMANDS[args.command](cfg, args.out)
    except OSError as exc:  # only the output writes touch the file system
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config too large: out of memory ({str(exc) or 'MemoryError'})", file=sys.stderr)
        return EXIT_CONFIG

