"""Per-layer timing of drtomo from outside the library.

Each public function is wrapped at the name its caller looks it up by:
the solver reaches `reduce` as `drtomo.switches.reduce` and
`verify_solution` as `drtomo.solver.verify_solution`, so those module
attributes are the ones replaced.  Wrappers exist only inside a `Tracer`
block and are removed on exit; `assert_unwrapped` lets an untraced run
prove that.  A stage the library reaches only through a private name
(`_classify_all`, the `_SOLVERS` table) is counted in its caller's self
time; the subsolvers behind `_SOLVERS` are timed separately by replaying
the subproblems that `derive_sub_sums` returned (`replay_subsolvers`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

# (module, attribute looked up by the caller, metric prefix)
WRAP_POINTS = [
    ("drtomo.formats", "parse_instance", "formats.parse_instance"),
    ("drtomo.formats", "write_image", "formats.write_image"),
    ("drtomo.formats", "validate_instance", "model.validate_instance"),
    ("drtomo.solver", "solve_dr", "solver.solve_dr"),
    ("drtomo.solver", "check_unique", "solver.check_unique"),
    ("drtomo.solver", "validate_instance", "model.validate_instance"),
    ("drtomo.solver", "verify_solution", "model.verify_solution"),
    ("drtomo.solver", "properize", "solver.properize"),
    ("drtomo.solver", "derive_sub_sums", "solver.derive_sub_sums"),
    ("drtomo.solver", "unique_dr2", "subsolvers.unique_dr2"),
    ("drtomo.switches", "reduce", "switches.reduce"),
    ("drtomo.switches", "has_reversed_switch", "switches.has_reversed_switch"),
    ("drtomo.switches", "tv_descend", "switches.tv_descend"),
    ("drtomo.switches", "all_switches", "switches.all_switches"),
    ("drtomo.switches", "apply_switch", "switches.apply_switch"),
    ("drtomo.switches", "tv", "switches.tv"),
    ("drtomo.switches", "verify_solution", "model.verify_solution"),
    ("drtomo.switches", "classify_block", "model.classify_block"),
    ("drtomo.hardness", "classify_block", "model.classify_block"),
    ("drtomo.hardness", "gen_sat_instance", "hardness.gen_sat_instance"),
    ("drtomo.hardness", "embed_assignment", "hardness.embed_assignment"),
    ("drtomo.hardness", "extract_assignment", "hardness.extract_assignment"),
    ("drtomo.hardness", "constrained_solve", "oracle.constrained_solve"),
    ("drtomo.oracle", "oracle_solve", "oracle.oracle_solve"),
    ("drtomo.oracle", "oracle_count", "oracle.oracle_count"),
]

# subproblem value -> public subsolver, as documented in drtomo.subsolvers
REPLAYED_SUBSOLVERS = {0: "fill_trivial", 1: "solve_dr1", 2: "solve_dr2", 3: "solve_dr3", 4: "fill_trivial"}

MS_METRICS = [
    "model.validate_instance.ms",
    "model.verify_solution.ms",
    "formats.parse_instance.ms",
    "formats.write_image.ms",
    "solver.properize.ms",
    "solver.derive_sub_sums.ms",
    "solver.solve_dr.self_ms",
    "solver.check_unique.self_ms",
    "subsolvers.solve_dr1.ms",
    "subsolvers.solve_dr2.ms",
    "subsolvers.solve_dr3.ms",
    "subsolvers.fill_trivial.ms",
    "subsolvers.unique_dr2.ms",
    "switches.reduce.ms",
    "switches.has_reversed_switch.ms",
    "switches.tv_descend.ms",
    "hardness.gen_sat_instance.ms",
    "hardness.embed_assignment.ms",
    "hardness.extract_assignment.ms",
    "oracle.oracle_solve.ms",
    "oracle.constrained_solve.ms",
    "oracle.oracle_count.ms",
]
# exact counts: these must repeat across traced passes of one seed
COUNT_METRICS = [
    "model.classify_block.calls",
    "subsolvers.unique_dr2.calls",
    "subsolvers.dr2_blocks",
    "switches.reduce.cells_changed",
    "switches.tv_descend.steps",
    "switches.all_switches.calls",
    "switches.apply_switch.calls",
    "switches.tv.calls",
    "oracle.solutions",
]
# stages whose growth with image side is reported as <metric>.px_exponent
EXPONENT_METRICS = [m for m in MS_METRICS if m.split(".")[0] in ("model", "formats", "solver", "subsolvers", "switches")]


def assert_unwrapped() -> None:
    """Raise if any wrap point currently holds a tracing wrapper."""
    for mod, attr, _ in WRAP_POINTS:
        if hasattr(getattr(importlib.import_module(mod), attr), "__wrapped__"):
            raise RuntimeError(f"{mod}.{attr} is wrapped outside a traced run")


class Tracer:
    """Busy time, self time and counts per wrapped function, in CPU time.

    Use as a context manager around the operations to trace.  Recording
    happens only while `op` names the benchmark operation being run, so
    output checks can call the library between operations without being
    counted.  Busy time is also kept per operation kind in `busy_in`.
    """

    def __init__(self):
        self.busy = defaultdict(float)  # seconds, inclusive
        self.own = defaultdict(float)  # seconds, minus wrapped callees
        self.busy_in = defaultdict(lambda: defaultdict(float))  # op kind -> key -> seconds
        self.counts = defaultdict(int)
        self.op: str | None = None
        self._stack: list[float] = []  # per open span: time covered by callees
        self._saved: list[tuple[object, str, object]] = []
        self._pending_subs: list[dict] = []

    def __enter__(self) -> "Tracer":
        for mod_name, attr, key in WRAP_POINTS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, key))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        self.op = None

    def _wrap(self, fn, key: str):
        hook = getattr(self, "_after_" + key.split(".")[-1], None)
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            t0 = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.process_time() - t0
                covered = self._stack.pop()
                self.busy[key] += dt
                self.busy_in[self.op][key] += dt
                self.own[key] += dt - covered
                self.counts[key + ".calls"] += 1
            t1 = time.process_time()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, out)
            if self._stack:  # the caller's self time excludes this call and its hook
                self._stack[-1] += dt + (time.process_time() - t1)
            return out

        return wrapper

    # hooks, named after the wrapped function; they read arguments and results

    def _after_reduce(self, args, out) -> None:
        self.counts["switches.reduce.cells_changed"] += int((args["img"].a != out.a).sum())

    def _after_derive_sub_sums(self, args, subs) -> None:
        self.counts["subsolvers.dr2_blocks"] += len(subs[2].I)
        self._pending_subs.append((self.op, subs))

    def _oracle_result(self, budget, found: int, exhausted: bool) -> None:
        self.counts["oracle.solutions"] += found
        self.counts["oracle.runs"] += 1
        self.counts["oracle.budget_hits"] += int(not exhausted and found < budget.max_solutions)

    def _after_oracle_solve(self, args, out) -> None:
        self._oracle_result(args["budget"], len(out[0]), out[1])

    _after_constrained_solve = _after_oracle_solve

    def _after_oracle_count(self, args, out) -> None:
        self._oracle_result(args["budget"], out[0], out[1])

    def replay_subsolvers(self) -> None:
        """Time each subsolver on the subproblems `derive_sub_sums` returned."""
        from drtomo import subsolvers

        for op, subs in self._pending_subs:
            for nu, sub in subs.items():
                if not sub.I:
                    continue
                name = REPLAYED_SUBSOLVERS[nu]
                t0 = time.process_time()
                getattr(subsolvers, name)(sub)
                dt = time.process_time() - t0
                self.busy["subsolvers." + name] += dt
                self.busy_in[op]["subsolvers." + name] += dt
        self._pending_subs.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        out: dict[str, float] = {}
        for name in MS_METRICS:
            key, _, stat = name.rpartition(".")
            out[name] = 1e3 * (self.own if stat == "self_ms" else self.busy)[key]
        for name in COUNT_METRICS + ["oracle.runs", "oracle.budget_hits"]:
            out[name] = self.counts[name]
        return out
