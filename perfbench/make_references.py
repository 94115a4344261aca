"""Regenerate the stored references the benchmark checks against.

    python3 perfbench/make_references.py [--only map_ref|smeared_scan|field_packet]

Writes ``perfbench/references/<name>.json``. Each file is a fixed pool of
inputs drawn from POOL_SEED; a run picks its items from the pool by its own
seed, so references never come from the code under test at check time.

* ``map_ref``: intensity-map weights computed by the package at the commit
  that generates them. Regenerate only on purpose (the weights pin that
  commit's numbers to 1e-9 of the peak).
* ``smeared_scan``: smeared amplitudes from the package at rel_tol 1e-10 and
  at most n = 192 nodes. The kink where the inner kappa1 interval meets the
  packet support limits Gauss-Legendre to algebraic convergence, so 1e-10 is
  not reached; the n = 192 value is kept with ``est``, its relative change
  from n = 96, and the pool holds points with est <= 1e-6, ten times tighter
  than the check. Points whose workload call needs more than two doublings
  are left out (their n = 192 tensors take about 1 GB).
* ``field_packet``: radial profiles of the packet superposition from
  scipy.special.jv with an independent truncated-Gaussian weight; the
  package is not used.

The smeared pool takes about 12 minutes on 2 cores and 1 GB of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

import workloads as wl
from vortexscatter.errors import ConvergenceError
from vortexscatter.numerics import QuadratureSpec

POOL_SEED = 20111025
MAP_POOL = 32
SMEARED_POOL = 639
FIELD_POOL = 512
SMEARED_REF_DOUBLINGS = 3  # n = 192
SMEARED_EST_MAX = 1e-6


def _write(name: str, payload: dict) -> None:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    path = wl.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def make_map_ref(rng: np.random.Generator) -> dict:
    configs = []
    while len(configs) < MAP_POOL:
        cfg = {
            "m": int(rng.integers(4, 7)),
            "theta": float(wl.THETA + rng.uniform(-0.02, 0.02)),
            "sigmas": [float(wl.SIGMA_REL * p * (1.0 + rng.uniform(-0.1, 0.1))) for p in wl.PEAKS],
        }
        result = wl.MapRef.call(cfg)
        weights = np.asarray(result.weights)
        usable = (
            wl.diagonal_argmax(weights) == cfg["m"]
            and wl.marginal_std(weights, 0) > wl.marginal_std(weights, 1)
            and result.metadata["max_cell_rel_delta"] <= wl.MAP_CELL_RTOL
        )
        if not usable:
            print(f"map_ref: dropped {cfg}")
            continue
        cfg["weights"] = weights.tolist()
        configs.append(cfg)
    return {"q_nodes": wl.MAP_Q_NODES, "configs": configs}


def tight_estimate(profiles, template, q, m1, m2, doublings):
    """Smeared amplitude at rel_tol 1e-10, stopped after at most ``doublings``."""
    quad = QuadratureSpec(24, rel_tol=1e-10, max_refinements=doublings)
    try:
        return wl.wavepackets.smeared_amplitude(profiles, template, q, wl.M, m1, m2, quad)
    except ConvergenceError as exc:
        # Both entries of exc.estimates hold the last value, so the previous
        # one comes from a second call with one doubling fewer.
        return 1j ** ((m1 + m2 - wl.M) % 4) * exc.estimates[1]


def workload_doublings(profiles, template, q, m1, m2):
    """(node doublings the workload's call needs, its value), or (None, None)."""
    for k in range(1, wl.SMEAR_QUAD.max_refinements + 1):
        quad = QuadratureSpec(wl.SMEAR_QUAD.node_count, rel_tol=wl.SMEAR_QUAD.rel_tol, max_refinements=k)
        try:
            return k, wl.wavepackets.smeared_amplitude(profiles, template, q, wl.M, m1, m2, quad)
        except ConvergenceError:
            continue
    return None, None


def make_smeared_scan(rng: np.random.Generator) -> dict:
    profiles, template = wl.reference_profiles(), wl.geometry_template(wl.THETA, wl.M)
    q_max = profiles[0].support[1] * math.sin(wl.THETA)
    points, skipped = [], {"slow": 0, "loose": 0, "check": 0}
    while len(points) < SMEARED_POOL:
        q = float(q_max * rng.uniform(-1.0, 1.0))
        m1 = int(rng.integers(wl.M1_RANGE[0], wl.M1_RANGE[1] + 1))
        m2 = int(rng.integers(wl.M2_RANGE[0], wl.M2_RANGE[1] + 1))
        doublings, value = workload_doublings(profiles, template, q, m1, m2)
        if doublings is None:
            skipped["slow"] += 1
            continue
        ref = tight_estimate(profiles, template, q, m1, m2, SMEARED_REF_DOUBLINGS)
        coarse = tight_estimate(profiles, template, q, m1, m2, SMEARED_REF_DOUBLINGS - 1)
        est = abs(ref - coarse) / abs(ref)
        if est > SMEARED_EST_MAX:
            skipped["loose"] += 1
            continue
        point = {"q": q, "m1": m1, "m2": m2, "re": ref.real, "im": ref.imag, "est": est,
                 "doublings": doublings}
        if abs(value - ref) > wl.SMEAR_CHECK_FACTOR * wl.SMEAR_QUAD.rel_tol * abs(ref):
            skipped["check"] += 1
            print(f"smeared_scan: workload value misses its reference at {point}")
            continue
        points.append(point)
        if len(points) % 50 == 0:
            print(f"smeared_scan: {len(points)} points, skipped {skipped}", flush=True)
    return {"skipped": skipped, "points": points}


def packet_radial(kappa0: float, m: int, radii: np.ndarray, sigma_rel: float = wl.SIGMA_REL):
    """sum_k w_k J_m(k r) sqrt(k / 2 pi) over the 64-node packet, and the sum of |terms|."""
    from scipy.special import erf, jv

    sigma = sigma_rel * kappa0
    lo, hi = max(0.0, kappa0 - 5.0 * sigma), kappa0 + 5.0 * sigma
    x, w = np.polynomial.legendre.leggauss(64)
    kappas = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    area = sigma * math.sqrt(math.pi) * 0.5 * (erf((hi - kappa0) / sigma) - erf((lo - kappa0) / sigma))
    profile = np.exp(-0.5 * ((kappas - kappa0) / sigma) ** 2) / math.sqrt(area)
    weights = 0.5 * (hi - lo) * w * profile * np.sqrt(kappas / (2.0 * math.pi))
    sign = -1.0 if (m < 0 and abs(m) % 2 == 1) else 1.0
    radial = sign * jv(abs(m), np.outer(radii, kappas)) @ weights
    return radial, float(np.sum(np.abs(weights)))


def make_field_packet(rng: np.random.Generator) -> dict:
    configs = []
    for _ in range(FIELD_POOL):
        cfg = {
            "kappa0": float(rng.uniform(0.5, 2.0)),
            "m": int(rng.integers(-8, 9)),
            "r_max": float(rng.uniform(4.0, 20.0)),
            "grid_n": int(rng.integers(8, 17)),
        }
        radii = np.linspace(0.0, cfg["r_max"], cfg["grid_n"])
        radial, norm = packet_radial(cfg["kappa0"], cfg["m"], radii)
        cfg["radial"] = radial.tolist()
        cfg["norm"] = norm
        configs.append(cfg)
    return {"configs": configs}


MAKERS = {"map_ref": make_map_ref, "smeared_scan": make_smeared_scan, "field_packet": make_field_packet}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(MAKERS))
    args = parser.parse_args()
    for k, (name, make) in enumerate(MAKERS.items()):
        if args.only and name != args.only:
            continue
        started = time.perf_counter()
        payload = make(np.random.default_rng([POOL_SEED, k]))
        payload["pool_seed"] = [POOL_SEED, k]
        _write(name, payload)
        print(f"{name}: {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main()
