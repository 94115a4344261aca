"""Command-line front end.

Subcommands (each takes --config <path> --out <path>):

  eval          single reduced triple-twisted amplitude -> JSON
  oracle-check  oracle vs closed form over seeded random configurations -> JSON
  map           q-integrated (m1, m2) intensity map -> CSV (+ optional gnuplot script)
  field         transverse field samples on a polar grid -> CSV

Exit codes: 0 success, 1 threshold failure, 2 invalid config or output path, 3 degenerate
support, 4 degenerate oracle sample, 5 quadrature failure.

All floats are emitted in shortest round-trip form (at most 17 significant
digits), so identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
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
    hints = typing.get_type_hints(RunConfig)
    for key, value in raw.items():
        kind = hints.get(key)
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

    known = {f.name for f in fields(RunConfig)}
    violations = [f"unknown config key: {k!r}" for k in sorted(set(raw) - known)]
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
        if cfg.q_nodes < 2:
            out.append("q_nodes must be >= 2")
        if cfg.node_count < 2:
            out.append("node_count must be >= 2")
        if cfg.map_cell_rtol <= 0.0:
            out.append("map_cell_rtol must be positive")
    elif command == "oracle-check":
        if cfg.seed < 0:
            out.append("seed must be non-negative")
        if cfg.sample_count < 1:
            out.append("sample_count must be >= 1")
        if cfg.threshold < 0.0:
            out.append("threshold must be non-negative")
    elif command == "field":
        if cfg.grid_n < 2:
            out.append("grid_n must be >= 2")
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


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
    # fails closed: a NaN delta counts as above the tolerance
    if not result.metadata["max_cell_rel_delta"] <= cfg.map_cell_rtol:
        _write_text(out_path + ".partial", csv_text)
        bad = int(np.sum(~(result.metadata["cell_rel_delta"] <= cfg.map_cell_rtol)))
        print(
            f"quadrature failure: {bad} cell(s) above map_cell_rtol = {cfg.map_cell_rtol}; "
            f"partial results in {out_path}.partial",
            file=sys.stderr,
        )
        return EXIT_QUADRATURE
    _write_text(out_path, csv_text)
    if cfg.plot_script:
        _write_text(out_path + ".gp", _PLOT_TEMPLATE.format(csv=out_path))
    return EXIT_OK


def cmd_field(cfg: RunConfig, out_path: str) -> int:
    """field_amplitude on the polar grid, or its packet superposition
    sum_k w_k field_amplitude(mode k), from mode_field one radius at a time.
    The packet adds its modes in Python's order, so every value is bit for
    bit the per-point one."""
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

    lines = ["r,phi,re,im"]
    for r, (re, im) in zip(radii, mode_field(cfg.m, kappas, radii, azimuths)):
        if weights is not None:
            # Python's sum over modes. It starts from +0, which erases the
            # signed zeros of numpy's float64-by-complex product
            # (w a - 0 b) + i (w b + 0 a), so plain w a and w b suffice.
            re, im = sum(weights * re), sum(weights * im)
        r_text = _FLOAT9(r)
        for phi, x, y in zip(phi_text, re.ravel().tolist(), im.ravel().tolist()):
            lines.append(f"{r_text},{phi},{x!r},{y!r}")
    _write_text(out_path, "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "eval": cmd_eval,
    "oracle-check": cmd_oracle_check,
    "map": cmd_map,
    "field": cmd_field,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vortexscatter",
        description="Twisted-beam on plane-wave scattering: amplitudes, oracle checks, intensity maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output file path")
    args = parser.parse_args(argv)

    cfg, violations = load_config(args.config)
    if cfg is not None:
        violations = validate(cfg, args.command)
    if violations:
        for v in violations:
            print(f"config invalid: {v}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, args.out)
    except OSError as exc:  # only the output writes touch the file system
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
