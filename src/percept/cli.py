"""Command-line front end: run scenarios, sweep budgets, replay knapsacks.

Exit codes: 0 when a run reaches its termination belief, 2 when it goes
quiescent or hits the simulated wall, 1 on load or configuration errors.
All randomness flows from one seed (--seed, then PERCEPT_SEED, then the
scenario's control section); outputs never contain wall-clock time.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import sys
from pathlib import Path

from .controller import Controller, audit_report
from .model_base import load_scenario
from .planner import KnapsackInstance, solve_approx, solve_exact
from .world import World

TRACE_COLUMNS = ("step", "action_kind", "target", "value", "cost", "outcome", "finish_time")


def trace_rows(report: dict, level: int = 1) -> list[tuple]:
    """Flatten a report into trace rows (one per selected action).

    Level 2 adds the unselected candidates with an empty outcome column.
    """
    rows = []
    for step in report["steps"]:
        by_id = {c["id"]: c for c in step["candidates"]}
        selected = step["plan"]["selected"]
        outcome_of = {cid: (out, fin) for cid, out, fin in step["completions"]}
        listed = [
            (by_id[cid], *outcome_of.get(cid, ("cancelled", "")))
            for cid in sorted(selected)
        ]
        if level >= 2:
            listed += [(c, "", "") for c in step["candidates"] if c["id"] not in selected]
        for cand, outcome, finish in listed:
            rows.append(
                (
                    step["step"],
                    cand["kind"],
                    cand["target"],
                    f"{cand['value']:.6g}",
                    cand["cost"],
                    outcome,
                    finish,
                )
            )
    return rows


def write_trace(path: Path, report: dict, level: int = 1) -> None:
    lines = ["\t".join(TRACE_COLUMNS)]
    for row in trace_rows(report, level):
        lines.append("\t".join(str(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(path: Path, report: dict) -> None:
    """Write ``json.dumps(report, indent=2, sort_keys=True)`` and a newline,
    byte for byte, as a stream (see ``_IndentedJson``)."""
    with open(path, "w", encoding="utf-8") as f:
        _IndentedJson(f.write).emit(report, 0)
        f.write("\n")


_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))
_encode_scalar = json.JSONEncoder().encode


class _IndentedJson:
    """Writes the text of ``json.dumps(value, indent=2, sort_keys=True)``
    piece by piece, never holding the whole document.

    ``json`` escapes every control character in a string, so every newline
    of that text is structural. That makes two shortcuts exact:

    - A flat container (a dict with ``str`` keys or a list or tuple, holding
      only scalars) is one call of the stdlib's C encoder with
      ``"," + newline + indent`` as its item separator; only its brackets
      then need their newline and indent.
    - A container of scalars and flat containers is encoded once per
      distinct value and depth and then reused. It is keyed by its
      ``marshal`` bytes, which, unlike ``==``, keep ``1``, ``1.0`` and
      ``True`` and ``0.0`` and ``-0.0`` apart.

    A larger container is written item by item. A value of any other type,
    or a dict with a key that is not a ``str``, is encoded by ``json.dumps``
    itself and its newlines are indented to its depth.
    """

    def __init__(self, write):
        self.write = write
        self.memo: dict[tuple[int, bytes], str] = {}
        self.flat_encoders: list = []  # by depth

    def emit(self, value, depth: int) -> None:
        text = self.text(value, depth)
        if text is not None:
            self.write(text)
            return
        t = type(value)
        if t is dict and _STR.issuperset(map(type, value)):
            items = [(_encode_key(k), value[k]) for k in sorted(value)]
            brackets = "{}"
        elif t is list or t is tuple:
            items = [("", item) for item in value]
            brackets = "[]"
        else:
            self.write(
                json.dumps(value, indent=2, sort_keys=True).replace("\n", _newline(depth))
            )
            return
        inner = _newline(depth + 1)
        sep = brackets[0] + inner
        for head, item in items:
            self.write(sep + head)
            self.emit(item, depth + 1)
            sep = "," + inner
        self.write(_newline(depth) + brackets[1])

    def text(self, value, depth: int) -> str | None:
        """The text of a scalar, a flat container or a container of scalars
        and flat containers; None for anything else."""
        t = type(value)
        if t in _SCALARS:
            return _encode_scalar(value)
        if t is dict:
            if not _STR.issuperset(map(type, value)):
                return None
            items = value.values()
        elif t is list or t is tuple:
            items = value
        else:
            return None
        if _SCALARS.issuperset(map(type, items)):
            return self.flat(value, depth)
        for item in items:
            t = type(item)
            if t is dict:
                if not (
                    _STR.issuperset(map(type, item))
                    and _SCALARS.issuperset(map(type, item.values()))
                ):
                    return None
            elif t is list or t is tuple:
                if not _SCALARS.issuperset(map(type, item)):
                    return None
            elif t not in _SCALARS:
                return None
        key = (depth, marshal.dumps(value, 2))
        text = self.memo.get(key)
        if text is None:
            if type(value) is dict:
                parts = [_encode_key(k) + self.part(value[k], depth + 1) for k in sorted(value)]
                brackets = "{}"
            else:
                parts = [self.part(item, depth + 1) for item in value]
                brackets = "[]"
            inner = _newline(depth + 1)
            text = self.memo[key] = (
                brackets[0] + inner + ("," + inner).join(parts) + _newline(depth) + brackets[1]
            )
        return text

    def part(self, value, depth: int) -> str:
        return _encode_scalar(value) if type(value) in _SCALARS else self.flat(value, depth)

    def flat(self, value, depth: int) -> str:
        if not value:
            return "{}" if type(value) is dict else "[]"
        key = (depth, marshal.dumps(value, 2))
        text = self.memo.get(key)
        if text is None:
            while len(self.flat_encoders) <= depth:
                sep = "," + _newline(len(self.flat_encoders) + 1)
                encoder = json.JSONEncoder(sort_keys=True, separators=(sep, ": "))
                self.flat_encoders.append(encoder.encode)
            body = self.flat_encoders[depth](value)
            text = self.memo[key] = (
                body[0] + _newline(depth + 1) + body[1:-1] + _newline(depth) + body[-1]
            )
        return text


def _encode_key(key: str) -> str:
    return _encode_scalar(key) + ": "


def _newline(depth: int) -> str:
    return "\n" + "  " * depth


def _seed_from(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PERCEPT_SEED")
    return int(env) if env else None


def cmd_run(args) -> int:
    mb = load_scenario(args.scenario)
    ctl = Controller(
        mb,
        seed=_seed_from(args),
        budget=args.budget,
        epsilon=args.epsilon,
    )
    report = ctl.run()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(out / "trace.tsv", report, args.trace_level)
    write_report(out / "report.json", report)
    problems = audit_report(report)
    for p in problems:
        print(f"audit: {p}", file=sys.stderr)
    winner = report["winner"]
    print(
        f"{report['terminated_reason']} after {len(report['steps'])} steps, "
        f"simulated {report['simulated_time']} ms"
    )
    if winner:
        print(f"winner: {winner['label']} at {winner['node']} ({winner['belief']:.4f})")
    if problems:
        return 1
    return 0 if report["terminated_reason"] == "terminated" else 2


def cmd_sweep(args) -> int:
    budgets = args.budgets
    if not budgets:
        print("error: sweep needs at least one budget", file=sys.stderr)
        return 2
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        print("error: budgets must be strictly increasing", file=sys.stderr)
        return 2
    mb = load_scenario(args.scenario)
    rows = []
    minimum_t = None
    for budget in budgets:
        ctl = Controller(mb, seed=_seed_from(args), budget=budget, epsilon=args.epsilon)
        report = ctl.run()
        final = 0.0
        if report["winner"]:
            final = report["winner"]["belief"]
        terminated = report["terminated_reason"] == "terminated"
        rows.append((budget, terminated, f"{final:.4f}", report["simulated_time"]))
        if terminated and minimum_t is None:
            minimum_t = budget
    lines = ["budget_T\tterminated\tfinal_belief\tsimulated_time"]
    lines += ["\t".join(str(x) for x in row) for row in rows]
    print("\n".join(lines))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if minimum_t is None:
        print("no budget reached the termination belief")
        return 2
    print(f"minimum sufficient budget_T: {minimum_t}")
    return 0


def cmd_knapsack(args) -> int:
    raw = json.loads(Path(args.instance).read_text(encoding="utf-8"))
    inst = KnapsackInstance.from_dict(raw)
    if args.exact:
        plan = solve_exact(inst)
    else:
        plan = solve_approx(inst, 0.1 if args.epsilon is None else args.epsilon)
    print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_validate(args) -> int:
    mb = load_scenario(args.scenario)
    # what a run resolves before its first step
    World.from_dict(mb)
    mb.leaf_group()
    print(
        f"OK: {len(mb.nodes)} models, {len(mb.groups)} groups, "
        f"{len(mb.actions)} action templates"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="percept",
        description="Utility-guided control for hierarchical Bayesian recognition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario end to end")
    run.add_argument("--scenario", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--budget", type=int, default=None)
    run.add_argument("--epsilon", type=float, default=None)
    run.add_argument("--out", default="out")
    run.add_argument("--trace-level", type=int, default=1, choices=(1, 2))
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run once per budget and summarize")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--epsilon", type=float, default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--budgets", type=int, nargs="*", default=[])
    sweep.set_defaults(func=cmd_sweep)

    knap = sub.add_parser("knapsack", help="solve one knapsack instance from JSON")
    knap.add_argument("--instance", required=True)
    knap.add_argument("--exact", action="store_true")
    knap.add_argument("--epsilon", type=float, default=None)
    knap.set_defaults(func=cmd_knapsack)

    val = sub.add_parser("validate", help="load and validate a scenario")
    val.add_argument("--scenario", required=True)
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # load, configuration, input
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
