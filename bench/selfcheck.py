"""Checks on the benchmark's own code, separate from the timed runs.

    python3 bench/selfcheck.py

- The K = 1 tiling gives reports and traces byte-identical to the bundled
  scenario on seeds 7 and 5 (5 livelocks to max_wall).
- Every tiled document the workloads use loads through ``load_scenario``.
- The span self-time arithmetic passes its hand-built test.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from percept import Controller, cli, load_scenario  # noqa: E402
from spans import self_test  # noqa: E402
from tiling import tile_scenario  # noqa: E402

BRIGADE = ROOT / "src" / "percept" / "scenarios" / "brigade.json"
OUT = ROOT / "bench_out" / "selfcheck"


def outputs(path: Path, seed: int, out: Path) -> bytes:
    report = Controller(load_scenario(path), seed=seed).run()
    out.mkdir(parents=True, exist_ok=True)
    cli.write_trace(out / "trace.tsv", report)
    cli.write_report(out / "report.json", report)
    return (out / "report.json").read_bytes() + (out / "trace.tsv").read_bytes()


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    raw = json.loads(BRIGADE.read_text(encoding="utf-8"))
    problems = []
    for k in (1, 2, 4, 8):
        path = OUT / f"tiled-{k}.json"
        path.write_text(json.dumps(tile_scenario(raw, k)), encoding="utf-8")
        mb = load_scenario(path)
        print(f"tiled-{k}: loads, {len(mb.world['entities'])} entities")
    for seed in (7, 5):
        same = outputs(BRIGADE, seed, OUT / f"bundled-{seed}") == outputs(
            OUT / "tiled-1.json", seed, OUT / f"tiled1-{seed}"
        )
        print(f"seed {seed}: K = 1 tiling byte-identical: {same}")
        if not same:
            problems.append(f"K = 1 tiling changes the outputs of seed {seed}")
    problem = self_test()
    print(f"span self-test: {problem or 'ok'}")
    if problem:
        problems.append(problem)
    shutil.rmtree(OUT, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
