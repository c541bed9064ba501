"""Steadiness check: repeated runs of one workload, quartiles per metric.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload serve --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for every metric its
median, quartiles and quartile spread (``(q3 - q1) / median``, the
figure the bounds in ``BENCHMARK.json`` are compared with) as one JSON
object.  A run that fails or reports ``correct: false`` is an error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {}
    elapsed = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        elapsed.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    report = {"workload": args.workload, "seeds": args.seeds,
              "run_wall_s_max": max(elapsed), "metrics": {}}
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        report["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": vals,
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
