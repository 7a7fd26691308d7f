"""Command-line front end: run scenarios, sweep budgets, replay knapsacks.

Exit codes: 0 when a run reaches its termination belief, 2 when it goes
quiescent or hits the simulated wall, 1 on load or configuration errors.
All randomness flows from one seed (--seed, then PERCEPT_SEED, then the
scenario's control section); outputs never contain wall-clock time.
"""

from __future__ import annotations

import argparse
import json
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
    candidates = None
    for step in report["steps"]:
        if step["candidates"] is not candidates:  # steps may share one list
            candidates = step["candidates"]
            by_id = {c["id"]: c for c in candidates}
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
    byte for byte, as a stream (see ``_IndentedJson``).

    The report must not change during the call. Its pieces may be shared
    between steps, as a run's are; each is encoded once per depth.
    """
    with open(path, "w", encoding="utf-8") as f:
        _IndentedJson(f.write).emit(report, 0)
        f.write("\n")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# json's text of each scalar type, by exact type: a subclass is not a scalar
_SCALAR_TEXT = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_SCALARS = frozenset(_SCALAR_TEXT)
_STR = frozenset((str,))

# containers nested at most this deep are written whole; in a report that
# is everything inside a step
_WHOLE_LEVELS = 4


class _IndentedJson:
    """Writes the text of ``json.dumps(value, indent=2, sort_keys=True)``
    piece by piece, never holding the whole document.

    ``json`` escapes every control character in a string, so every newline
    of that text is structural, and a container's text depends only on its
    value and depth. A report is read-only and shares its unchanged pieces
    between steps, so:

    - A container at most ``_WHOLE_LEVELS`` deep, holding only scalars,
      ``str``-keyed dicts, lists and tuples, is rendered whole, once per
      object and depth. Its text is kept under ``(id(obj), depth)`` along
      with the object, so no id can be reused during one write.
    - A flat dict (scalar values only) is one call of the stdlib's C
      encoder with ``"," + newline + indent`` as its item separator; only
      its braces then need their newline and indent. A flat list joins its
      scalars' texts and is not kept, as that costs about what a lookup
      does. Any other container joins its items' texts.

    A deeper container (the report, its step list, each step) is written
    item by item. A value of any other type, or a dict with a key that is
    not a ``str``, is encoded by ``json.dumps`` itself and its newlines are
    indented to its depth.
    """

    def __init__(self, write):
        self.write = write
        self.memo: dict[tuple[int, int], tuple[object, str]] = {}
        self.flat_encoders: list = []  # by depth

    def emit(self, value, depth: int) -> None:
        text = self.text(value, depth, _WHOLE_LEVELS)
        if text is not None:
            self.write(text)
            return
        found = _items(value)
        if found is None:
            self.write(
                json.dumps(value, indent=2, sort_keys=True).replace("\n", _newline(depth))
            )
            return
        items, brackets = found
        inner = _newline(depth + 1)
        sep = brackets[0] + inner
        for head, item in items:
            self.write(sep + head)
            self.emit(item, depth + 1)
            sep = "," + inner
        self.write(_newline(depth) + brackets[1])

    def text(self, value, depth: int, levels: int) -> str | None:
        """The text of a scalar, or of a container at most ``levels`` deep
        that holds only scalars and such containers; None for anything else."""
        scalar = _SCALAR_TEXT.get(type(value))
        if scalar is not None:
            return scalar(value)
        t = type(value)
        if not levels or not (t is dict or t is list or t is tuple):
            return None
        if not value:
            return "{}" if t is dict else "[]"
        if t is not dict and _SCALARS.issuperset(map(type, value)):
            return self.join([_SCALAR_TEXT[type(x)](x) for x in value], depth, "[]")
        key = (id(value), depth)
        kept = self.memo.get(key)
        if kept is not None:
            return kept[1]
        if t is dict and _SCALARS.issuperset(map(type, value.values())):
            if not _STR.issuperset(map(type, value)):
                return None
            text = self.flat_dict(value, depth)
        else:
            found = _items(value)
            if found is None:
                return None
            parts = []
            for head, item in found[0]:
                part = self.text(item, depth + 1, levels - 1)
                if part is None:
                    return None
                parts.append(head + part)
            text = self.join(parts, depth, found[1])
        self.memo[key] = value, text
        return text

    @staticmethod
    def join(parts: list[str], depth: int, brackets: str) -> str:
        inner = _newline(depth + 1)
        return brackets[0] + inner + ("," + inner).join(parts) + _newline(depth) + brackets[1]

    def flat_dict(self, value: dict, depth: int) -> str:
        while len(self.flat_encoders) <= depth:
            sep = "," + _newline(len(self.flat_encoders) + 1)
            encoder = json.JSONEncoder(sort_keys=True, separators=(sep, ": "))
            self.flat_encoders.append(encoder.encode)
        body = self.flat_encoders[depth](value)
        return body[0] + _newline(depth + 1) + body[1:-1] + _newline(depth) + body[-1]


def _items(value) -> tuple[list[tuple[str, object]], str] | None:
    """A container's (key text, item) pairs in output order, and its
    brackets; None for anything but a ``str``-keyed dict, a list or a tuple."""
    t = type(value)
    if t is dict and _STR.issuperset(map(type, value)):
        return [(_encode_key(k), value[k]) for k in sorted(value)], "{}"
    if t is list or t is tuple:
        return [("", item) for item in value], "[]"
    return None


def _encode_key(key: str) -> str:
    return json.encoder.encode_basestring_ascii(key) + ": "


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
