"""Run ``bench/run.py`` in alternating pairs on two commits and summarize.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload brigade-seeds --seeds 1001-1010 --seconds 40 \\
        --section claim_runs --claim runs_per_s --out BENCH_25.json

Each run extracts a fresh copy of its side's commit (``git archive``) into a
temporary directory and runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` there, unchanged.  Pair i takes the i-th seed and
runs the parent first when i is even, the change first when it is odd.

The pairs go into one section of the output file, which keeps its other
sections, so a claim set and a no-regression set can share one file.  A
section holds every run's ``correct``, ``attempted``, ``failed`` and
``metrics``; per metric the parent's and the change's median and quartiles
(``statistics.quantiles(n=4)``) and how many pairs the change won; and
``digests_match``, true when every pair's parent and change print the same
``digest`` lines.  With ``--claim`` the section also checks the claim: the
change wins at least 9 of 10 pairs (the same share of any count), and its
median beats the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # a claim needs the change to win this share of the pairs


def seed_list(text: str) -> list[int]:
    """``"901-910"`` or ``"3,5,8"`` as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def first_side(pair: int) -> str:
    return "parent" if pair % 2 == 0 else "change"


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of the pairs' runs: each side's median and quartiles, and
    the pairs the change won.  ``better`` maps a metric name, or the part
    after the last ``/`` of a ``workload/metric`` name, to "lower" or
    "higher"; a tie is no win."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        sides = {
            side: [p[side]["metrics"][name]["value"] for p in pairs]
            for side in ("parent", "change")
        }
        sign = 1.0 if better[name.rsplit("/", 1)[-1]] == "higher" else -1.0
        wins = sum(
            sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"])
        )
        out[name] = {
            "parent": _quartiles(sides["parent"]),
            "change": _quartiles(sides["change"]),
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def check_claim(summary: dict, metric: str, better: str) -> dict:
    """Whether ``metric`` improved: the change won at least ``WIN_SHARE`` of
    the pairs, and its median gain exceeds the parent's interquartile range."""
    rec = summary[metric]
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (rec["change"]["median"] - rec["parent"]["median"])
    iqr = rec["parent"]["q3"] - rec["parent"]["q1"]
    return {
        "metric": metric,
        "change_wins": rec["change_wins"],
        "pairs": rec["pairs"],
        "median_gain": gain,
        "parent_iqr": iqr,
        "met": rec["change_wins"] >= WIN_SHARE * rec["pairs"] and gain > iqr,
    }


def digests_match(pairs: list[dict]) -> bool:
    return all(p["parent"]["digests"] == p["change"]["digests"] and p["parent"]["digests"]
               for p in pairs)


def run_bench(commit: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run on a fresh extract of ``commit``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tree:
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
        )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digests"] = [line for line in lines if line.startswith("digest ")]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit the change is measured against")
    parser.add_argument("--change", required=True, help="commit being measured")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list,
                        help="one seed per pair: 'lo-hi' or 'a,b,c'")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--section", required=True, help="key of this set in the output file")
    parser.add_argument("--claim", help="metric the change claims to improve")
    parser.add_argument("--note", default="")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for i, seed in enumerate(args.seeds):
        pair = {"pair": i, "seed": seed, "first": first_side(i)}
        order = ("parent", "change") if pair["first"] == "parent" else ("change", "parent")
        for side in order:
            commit = args.parent if side == "parent" else args.change
            pair[side] = run_bench(commit, args.workload, seed, args.seconds)
            print(f"pair {i} seed {seed} {side}: "
                  f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr)
        pairs.append(pair)

    summary = summarize(pairs, better)
    section = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "note": args.note,
        "digests_match": digests_match(pairs),
        "summary": summary,
        "pairs": pairs,
    }
    if args.claim:
        section["claim"] = check_claim(summary, args.claim, better[args.claim])
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("parent", args.parent)
    doc.setdefault("change_commit", args.change)
    doc.setdefault("method", (
        "alternating pairs of parent and change, each run in a fresh process on a "
        "freshly extracted copy (git archive) of that side's commit; even pairs run "
        "the parent first, odd pairs the change first; quartiles are "
        "statistics.quantiles(n=4) over the pairs' per-run values; digests_match "
        "compares every digest line bench/run.py prints, parent against change, "
        "pair by pair"))
    doc[args.section] = section
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"digests_match": section["digests_match"],
                      "claim": section.get("claim")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
