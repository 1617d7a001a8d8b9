#!/usr/bin/env python3
"""drtomo benchmark: seeded workloads run as a closed loop, outputs checked.

One client in one process sends one operation at a time; each operation
mirrors a CLI subcommand and runs in-process.  Run from the root of a
drtomo source tree:

    python3 perfbench/run.py --workload exact-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

`--trace 0` measures the end-to-end metrics with no wrapper installed;
`--trace 1` runs fixed traced passes and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is a JSON report
with every metric of the workload, the machine and the failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("exact-large", "exact-small", "noisy-oracle")
MAX_TRACED_PASSES = 20


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def require_sources() -> Path:
    src = ROOT / "src"
    if not (src / "drtomo" / "__init__.py").is_file():
        die(f"no drtomo sources under {src}; run from the root of a drtomo checkout")
    return src


def import_library():
    """Import drtomo from this source tree, never from an installed copy,
    and return the workloads module built on it."""
    src = require_sources()
    sys.path.insert(0, str(src))
    import drtomo

    if Path(drtomo.__file__).resolve().parent != (src / "drtomo").resolve():
        die(f"imported drtomo from {drtomo.__file__}, not from {src}")
    import workloads

    return workloads


# --------------------------------------------------------------------------
# machine stamp
# --------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the tree, or "unknown" in an exported tree with no git."""
    try:
        # the ceiling keeps git from reporting a repository that merely contains the tree
        env = os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(load_before: tuple[float, ...]) -> dict:
    versions = {}
    for mod in ("numpy", "scipy", "networkx"):
        versions[mod] = getattr(sys.modules.get(mod), "__version__", "not imported")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


# --------------------------------------------------------------------------
# running operations
# --------------------------------------------------------------------------

class Tally:
    """Operations run so far: failures by reason, and wall against CPU time."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()
        self.wall_s = self.cpu_s = 0.0

    def execute(self, op, tracer=None):
        """Run op (timed, traced if a tracer is given), then check it (untimed).

        Returns (output, CPU seconds of the op); output is None when the op
        failed.  Ops are single-threaded and do no I/O, so their CPU time is
        their wall time on an idle machine; on a shared VM the wall time also
        holds time the host gave to other guests (steal), which varies from
        run to run by more than the bounds, so the CPU time is what is timed.
        """
        self.attempted += 1
        err = None
        if tracer is not None:
            tracer.op = op.kind
        w0, t0 = time.perf_counter(), time.process_time()
        try:
            out = op.run()
        except Exception as e:  # a failed op is counted, the loop goes on
            out, err = None, e
        dt = time.process_time() - t0
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += dt
        if tracer is not None:
            tracer.op = None
        if err is None:
            try:
                op.check(out)
            except Exception as e:  # a wrong answer is counted the same way
                err = e
        if err is not None:
            self.failed += 1
            reason = f"{op.kind}: {type(err).__name__}: {err}"
            if not self.reasons[reason]:
                traceback.print_exception(err, file=sys.stderr)
            self.reasons[reason] += 1
            out = None
        return out, dt


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def timed_run(wl, seconds: float, tally: Tally, roles: dict) -> dict:
    """Rounds of the workload's op mix until `seconds` have passed; whole rounds only."""
    times = defaultdict(list)
    pixels = Counter()
    rounds = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        total = 0.0
        for op in wl.round(r):
            out, dt = tally.execute(op)
            times[op.kind].append(dt)
            pixels[op.kind] += op.work(out) if op.work and out is not None else op.pixels
            total += dt
        rounds.append(total)
        r += 1

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    rate = {}
    for kind, ts in times.items():
        put(f"{kind}_ms_p50", 1e3 * statistics.median(ts), "ms")
        if len(ts) >= 1000:
            put(f"{kind}_ms_p99", 1e3 * percentile(ts, 99), "ms")
        rate[kind] = pixels[kind] / sum(ts) / 1e6
        put(f"{kind}_mpix_s", rate[kind], "Mpixel/s")
        put(f"{kind}_samples", len(ts), "count")
    # geometric mean over the role's op kinds, so each kind weighs the same
    # whatever its share of the time
    for role in ("find", "certify"):
        rates = [v for kind, v in rate.items() if roles.get(kind) == role]
        put(f"{role}_mpix_s", statistics.geometric_mean(rates), "Mpixel/s")
    put("round_ms_p50", 1e3 * statistics.median(rounds), "ms")
    put("rounds", len(rounds), "count")
    return metrics


def traced_pass(wl_sets: dict, tally: Tally, tracing) -> tuple[dict, float]:
    """One traced pass over every labelled op list: per-label metrics and op time."""
    per_label, op_time = {}, 0.0
    for label, ops in wl_sets.items():
        with tracing.Tracer() as tracer:
            for op in ops:
                out, dt = tally.execute(op, tracer)
                op_time += dt
                tracer.replay_subsolvers()
                if op.kind == "tv" and out is not None:
                    tracer.counts["switches.tv_descend.steps"] += len(out[1])
            per_label[label] = tracer.metrics() | {
                f"{kind}:{key}.ms": 1e3 * t for kind, keys in tracer.busy_in.items() for key, t in keys.items()
            }
    return per_label, op_time


def picture(m: dict) -> dict:
    """Where the time goes in one traced label: the share of `solve_dr` spent
    in `reduce`, and the stage of `check_unique` with the most busy time."""
    out = {}
    if m.get("solve:solver.solve_dr.ms"):
        out["reduce_share_of_solve_dr"] = m.get("solve:switches.reduce.ms", 0.0) / m["solve:solver.solve_dr.ms"]
    stages = {
        name[len("unique:") : -len(".ms")]: v
        for name, v in m.items()
        if name.startswith("unique:") and not name.startswith(("unique:formats.", "unique:solver.check_unique"))
    }
    if stages:
        out["largest_check_unique_stage"] = max(stages, key=stages.get)
    return out


def group_of(label: str) -> str:
    """Labels `<family>@<side>` group by side; other labels form one group."""
    return label.split("@")[1] if "@" in label else label


def traced_run(wl, seconds: float, tally: Tally, tracing) -> tuple[dict, dict, bool]:
    """Per-layer metrics: an untraced reference pass, then at least two traced
    passes over the same ops, repeated until `seconds` have passed."""
    sets = wl.trace_sets()
    untraced = 0.0
    for ops in sets.values():
        for op in ops:
            untraced += tally.execute(op)[1]
    passes, op_times = [], []
    start = time.perf_counter()
    while len(passes) < 2 or (time.perf_counter() - start < seconds and len(passes) < MAX_TRACED_PASSES):
        per_label, op_time = traced_pass(sets, tally, tracing)
        passes.append(per_label)
        op_times.append(op_time)

    counts_repeat = all(
        p[label][name] == passes[0][label][name]
        for p in passes
        for label in sets
        for name in tracing.COUNT_METRICS
    )

    def group_value(p, group, name):
        return sum(v[name] for label, v in p.items() if group_of(label) == group)

    groups = list(dict.fromkeys(group_of(label) for label in sets))
    reported = groups[0]
    layer = {}
    for name in tracing.MS_METRICS + tracing.COUNT_METRICS:
        layer[name] = statistics.median(group_value(p, reported, name) for p in passes)
    runs = group_value(passes[0], reported, "oracle.runs")
    layer["oracle.budget_hit_ratio"] = group_value(passes[0], reported, "oracle.budget_hits") / runs if runs else 0.0
    for name in tracing.EXPONENT_METRICS:
        exponent = 0.0
        if len(groups) == 2:
            big = statistics.median(group_value(p, groups[0], name) for p in passes)
            small = statistics.median(group_value(p, groups[1], name) for p in passes)
            if big > 0 and small > 0:
                exponent = math.log(big / small) / math.log((int(groups[0]) / int(groups[1])) ** 2)
        layer[name + ".px_exponent"] = exponent
    layer["trace.overhead_ms"] = 1e3 * (statistics.median(op_times) - untraced)

    per_label = {
        label: {name: statistics.median(p[label][name] for p in passes) for name in passes[0][label]}
        for label in sets
    }
    detail = {
        "passes": len(passes),
        "untraced_op_ms": 1e3 * untraced,
        "traced_op_ms_p50": 1e3 * statistics.median(op_times),
        "counts_repeat": counts_repeat,
        "picture": {label: picture(m) for label, m in per_label.items()},
        "per_label": {label: {k: v for k, v in m.items() if v} for label, m in per_label.items()},
    }
    return layer, detail, counts_repeat


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run_one(args) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_before = os.getloadavg()
    workloads = import_library()
    import tracing

    wl = workloads.WORKLOADS[args.workload](args.seed)
    # ready: CPU time since process start covers start-up, imports and inputs
    setup_s = time.process_time()
    tally = Tally()

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        layer, detail, counts_repeat = traced_run(wl, args.seconds, tally, tracing)
        report["trace"] = detail
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
        correct = tally.failed == 0 and counts_repeat
    else:
        tracing.assert_unwrapped()
        metrics = timed_run(wl, args.seconds, tally, workloads.ROLE)
        tracing.assert_unwrapped()
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
        metrics["fail_ratio"] = {"value": tally.failed / tally.attempted, "unit": "1"}
        correct = tally.failed == 0
    final_metrics = {m["name"]: metrics[m["name"]] for m in declared["per_layer" if args.trace else "end_to_end"]}
    report["op_wall_over_cpu"] = tally.wall_s / tally.cpu_s if tally.cpu_s else None
    report["failures"] = dict(tally.reasons)
    report["metrics"] = metrics
    report["machine"] = machine(load_before)

    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": final_metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up and memory stay its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            die(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    require_sources()
    # one client, no helper threads: keep numerical libraries single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
