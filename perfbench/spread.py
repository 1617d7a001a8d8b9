#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload exact-small --seeds 1-10

Each run is untraced and lasts `run_seconds` from BENCHMARK.json.  For
every metric of the last output line this prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the
quartile distance as a share of the median.  With `--raw FILE` the last
two lines of every run (result and report) are appended to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--raw", type=Path)
    args = p.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        *_, report, line = proc.stdout.strip().splitlines()
        result = json.loads(line)
        if args.raw:
            with args.raw.open("a") as f:
                record = {"workload": args.workload, "seed": seed, **result, "report": json.loads(report)}
                f.write(json.dumps(record) + "\n")
        flag = "" if result["correct"] else "  INCORRECT"
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}{flag}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}  unit")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:10.4f}  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
