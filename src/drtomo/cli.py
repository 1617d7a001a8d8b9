"""Command line front end.

Exit codes: 0 success / constraint satisfied, 2 usage or input format
error, 3 infeasible or unsatisfied, 4 instance outside the exact
solver's reach (use the oracle command for those), 5 undecided because
the oracle hit its budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import formats, hardness, solver, switches
from .model import (
    BinaryImage,
    Instance,
    degrade,
    make_exact_instance,
    perturb_instance,
    random_image,
    verify_solution,
)
from .oracle import SearchBudget, constrained_solve, oracle_count, oracle_solve

OK, USAGE, INFEASIBLE, UNSUPPORTED, UNDECIDED = 0, 2, 3, 4, 5


def _read_instance(path: str) -> Instance:
    return formats.parse_instance(Path(path).read_text())


def _read_image(path: str) -> BinaryImage:
    return formats.read_image(Path(path).read_bytes())


def _emit_bytes(data: bytes, out: Optional[str]) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)


def _emit_text(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_assignment(text: str, arity: int) -> tuple[bool, ...]:
    cleaned = text.strip().upper()
    if len(cleaned) != arity or set(cleaned) - {"T", "F"}:
        raise ValueError(f"assignment must be {arity} letters from T/F, got {text!r}")
    return tuple(ch == "T" for ch in cleaned)


def cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    if inst.k != 2 or inst.epsilon != 0:
        print(
            "exact solving needs k=2 and eps=0; try the 'oracle' command",
            file=sys.stderr,
        )
        return UNSUPPORTED
    img = solver.solve_dr(inst)
    if img is None:
        print("INFEASIBLE")
        return INFEASIBLE
    _emit_bytes(formats.write_image(img), args.output)
    return OK


def cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    img = _read_image(args.image)
    report = verify_solution(inst, img)
    for q, want, got in report.row_violations:
        print(f"row {q}: expected {want}, got {got}")
    for p, want, got in report.col_violations:
        print(f"column {p}: expected {want}, got {got}")
    for (i, j), v, (lo, hi), got in report.block_violations:
        print(f"block ({i},{j}): value {v}, window [{lo},{hi}], got {got}")
    if report.satisfied:
        print("OK")
        return OK
    return INFEASIBLE


def cmd_check_unique(args) -> int:
    inst = _read_instance(args.instance)
    if inst.k != 2 or inst.epsilon != 0:
        print(
            "uniqueness test needs k=2 and eps=0; try 'oracle --count'",
            file=sys.stderr,
        )
        return UNSUPPORTED
    verdict = solver.check_unique(inst)
    if verdict is None:
        print("INFEASIBLE")
        return INFEASIBLE
    print("UNIQUE" if verdict else "NON-UNIQUE")
    return OK


def cmd_gen_phantom(args) -> int:
    img = random_image(args.m, args.n, args.density, args.seed)
    _emit_bytes(formats.write_image(img), args.output)
    return OK


def cmd_degrade(args) -> int:
    img = _read_image(args.image)
    gray = degrade(img, args.k)
    _emit_bytes(formats.write_gray(gray), args.output)
    return OK


def cmd_make_instance(args) -> int:
    img = _read_image(args.image)
    inst = make_exact_instance(img, args.k)
    _emit_text(formats.write_instance(inst), args.output)
    return OK


def cmd_perturb(args) -> int:
    inst = _read_instance(args.instance)
    noisy = Instance(
        k=inst.k,
        epsilon=args.eps,
        m=inst.m,
        n=inst.n,
        row_sums=inst.row_sums,
        col_sums=inst.col_sums,
        blocks=inst.blocks,
        reliable=inst.reliable,
    )
    noisy = perturb_instance(noisy, args.fraction, args.seed)
    _emit_text(formats.write_instance(noisy), args.output)
    return OK


def _layout_json(spec: hardness.BoardSpec) -> str:
    doc = {
        "side": spec.side,
        "anchors": list(spec.anchors),
        "initializer_chips": {str(t): list(c) for t, c in spec.init_chips.items()},
        "connector_chips": {f"{s},{t}": list(c) for (s, t), c in spec.connector_chips.items()},
        "vertical_collector_chips": {
            f"{s},{t}": list(c) for (s, t), c in spec.vcollector_chips.items()
        },
        "horizontal_collector_chips": {
            f"{s},{t}": list(c) for (s, t), c in spec.hcollector_chips.items()
        },
        "configurations": {
            f"{s},{t}": sorted(map(list, pts)) for (s, t), pts in spec.config_points.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_gen_sat(args) -> int:
    sat = hardness.parse_sat(Path(args.sat).read_text())
    inst = hardness.gen_sat_instance(sat, epsilon=args.eps)
    _emit_text(formats.write_instance(inst), args.output)
    if args.output:
        spec = hardness.build_board(sat)
        sidecar = Path(args.output).with_suffix(".layout.json")
        sidecar.write_text(_layout_json(spec))
    return OK


def cmd_embed(args) -> int:
    sat = hardness.parse_sat(Path(args.sat).read_text())
    spec = hardness.build_board(sat)
    inst = hardness.gen_sat_instance(sat, epsilon=args.eps)
    assignment = _parse_assignment(args.assign, sat.num_vars)
    img = hardness.embed_assignment(spec, inst, assignment)
    if img is None:
        print("UNSATISFYING")
        return INFEASIBLE
    _emit_bytes(formats.write_image(img), args.output)
    return OK


def cmd_extract(args) -> int:
    sat = hardness.parse_sat(Path(args.sat).read_text())
    spec = hardness.build_board(sat)
    img = _read_image(args.image)
    assignment = hardness.extract_assignment(spec, img)
    print("".join("T" if v else "F" for v in assignment))
    return OK


def cmd_lift(args) -> int:
    inst = _read_instance(args.instance)
    lifted = hardness.lift_instance(inst, args.k)
    _emit_text(formats.write_instance(lifted), args.output)
    return OK


def cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    budget = SearchBudget(
        max_solutions=args.limit if args.count else 1, max_nodes=args.max_nodes
    )
    if args.count:
        count, exhausted = oracle_count(inst, budget)
        if not exhausted:
            print(f">= {count} (budget hit)")
            return UNDECIDED
        print(count)
        return OK
    solutions, exhausted = oracle_solve(inst, budget)
    if not solutions:
        if not exhausted:
            print("UNDECIDED (budget hit)", file=sys.stderr)
            return UNDECIDED
        print("INFEASIBLE")
        return INFEASIBLE
    _emit_bytes(formats.write_image(solutions[0]), args.output)
    return OK


def cmd_tv_reduce(args) -> int:
    inst = _read_instance(args.instance)
    img = _read_image(args.image)
    start = switches.tv(img)
    print(f"tv {start.a} + {start.b}*sqrt(2) = {start.value():.4f}")

    def trace(move, t):
        print(
            f"{move.direction} class {move.cls} {move.orientation} at "
            f"{move.corners[0]}: tv {t.a} + {t.b}*sqrt(2) = {t.value():.4f}"
        )

    final = switches.tv_descend(inst, img, on_step=trace)
    _emit_bytes(formats.write_image(final), args.output)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drtomo",
        description="binary image reconstruction from line sums and block counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="reconstruct an image for an exact instance")
    p.add_argument("instance")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check an image against an instance")
    p.add_argument("instance")
    p.add_argument("image")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-unique", help="decide whether the solution is unique")
    p.add_argument("instance")
    p.set_defaults(func=cmd_check_unique)

    p = sub.add_parser("gen-phantom", help="seeded random binary image")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen_phantom)

    p = sub.add_parser("degrade", help="collapse an image to per-block counts")
    p.add_argument("image")
    p.add_argument("-k", type=int, default=2)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("make-instance", help="exact instance from a ground-truth image")
    p.add_argument("image")
    p.add_argument("-k", type=int, default=2)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_make_instance)

    p = sub.add_parser("perturb", help="mark blocks unreliable and jitter their values")
    p.add_argument("instance")
    p.add_argument("--eps", type=int, required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("gen-sat", help="gadget board instance from a 1-in-3 formula")
    p.add_argument("sat")
    p.add_argument("--eps", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen_sat)

    p = sub.add_parser("embed", help="image for a truth assignment on a gadget board")
    p.add_argument("sat")
    p.add_argument("--assign", required=True, help="e.g. TTFF")
    p.add_argument("--eps", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="read the assignment off a board image")
    p.add_argument("sat")
    p.add_argument("image")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("lift", help="enlarge blocks of a 2x2 instance")
    p.add_argument("instance")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser(
        "oracle",
        help="exhaustive search solver/counter",
        description="Exhaustive search for one solution, or with --count for all of them.",
        epilog="exit codes: 0 solved or counted in full, 3 infeasible, 5 undecided: "
        "the search hit --max-nodes before a verdict, or with --count hit "
        "--max-nodes or --limit, so the printed count is only a lower bound",
    )
    p.add_argument("instance")
    p.add_argument("--count", action="store_true")
    p.add_argument("--limit", type=int, default=1_000_000)
    p.add_argument("--max-nodes", type=int, default=50_000_000)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("tv-reduce", help="lower the total variation of a solution")
    p.add_argument("instance")
    p.add_argument("image")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tv_reduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (formats.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
