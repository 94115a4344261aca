"""Print every end-to-end metric of every workload, with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per workload named in BENCHMARK.json, prints one
line per metric and the failed-item fraction, and exits with 1 when any
item of any workload failed its correctness check. ``--trace 1`` prints the
per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="run every workload and print its metrics")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:<14} run failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:<14} {name:<42} {metric['value']:>14.6g} {metric['unit']}")
        print(f"{workload:<14} {'fail_frac':<42} {result['failed'] / result['attempted']:>14.6g} "
              f"({result['failed']} of {result['attempted']} items)")
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
