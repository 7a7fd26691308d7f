"""Recognition-loop benchmark for percept.

Usage (from the repository root):

    python3 bench/run.py --workload brigade-seeds --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

One run is what ``percept run`` does after loading: ``Controller.run`` and
then ``cli.write_trace`` / ``cli.write_report``; on ``replay-tiled-4`` it is
``replay_scenario`` on a report recorded untimed beforehand (in trace mode
the recordings are traced, and give the metrics of the layers a replay
never calls: valuation, planner and cli).  The loop is
closed: one process, one run at a time.  Each run loads its scenario
first, as ``percept run`` does; the loads are timed apart from the run and
give ``setup_s``.

Runs go in rounds over the workload's fixed seed block, starting at
``--seed`` modulo the block size.  The first round runs every seed.  After
it, a seed runs in a round only if its last time still fits in
``--seconds``, counted from the start of the process, and a seed whose
last run took over ``LONG_S`` runs only every ``LONG_EVERY`` rounds, so
cheap seeds are sampled more often and the runs of every seed are spread
over the whole run.  The first round in which no seed fits ends the run.
Run-time metrics take each seed's median run, and ``setup_s`` the median
load.

``--trace 0`` times the runs untraced and prints the end-to-end metrics.
``--trace 1`` runs every seed untraced and then traced with spans around
each layer's public entry points, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BRIGADE = ROOT / "src" / "percept" / "scenarios" / "brigade.json"
OUT = ROOT / "bench_out"
LOADS_MIN = 3
LOAD_SHARE = 0.02  # loads before a run last at least this share of the seed's last run
LONG_S = 0.2  # a seed whose last run took longer runs every LONG_EVERY rounds
LONG_EVERY = 3
WARMUP_WALL_MS = 6000  # the warm-up run stops at this simulated time


@dataclass(frozen=True)
class Workload:
    name: str
    tiles: int  # brigade copies side by side; 1 is the bundled file itself
    seeds: range  # fixed seed block; --seed only picks where the rounds start
    replay: bool
    # layers the timed runs never call; their per-layer metrics are taken
    # from the traced recordings, the only place this workload calls them
    recorded_layers: tuple[str, ...] = ()


# why each workload was chosen: README.md in this directory
WORKLOADS = {
    w.name: w
    for w in (
        Workload("brigade-seeds", 1, range(1, 51), False),
        Workload("tiled-8", 8, range(7, 8), False),
        Workload("replay-tiled-4", 4, range(1, 31), True,
                 recorded_layers=("valuation", "planner", "cli")),
    )
}

LAYERS = ("world", "bayes_net", "valuation", "planner", "controller", "cli")

END_TO_END = {
    "setup_s": "s",
    "run_p50_s": "s",
    "run_tail_s": "s",
    "runs_per_s": "1/s",
    "sim_time_p50_ms": "ms",
    "recognized_frac": "ratio",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

PER_LAYER = {
    "world.cluster_s": "s",
    "world.detections": "count",
    "world.execute_s": "s",
    "world.execute_calls": "count",
    "world.uninformative_frac": "ratio",
    "bayes_net.propagate_s": "s",
    "bayes_net.propagate_calls": "count",
    "bayes_net.node_visits": "count",
    "bayes_net.link_calls": "count",
    "bayes_net.nodes_final": "count",
    "valuation.value_s": "s",
    "valuation.candidates": "count",
    "valuation.posterior_evals": "count",
    "planner.plan_s": "s",
    "planner.calls": "count",
    "planner.items_max": "count",
    "planner.table_cells": "count",
    "planner.peak_alloc_mb": "MB",
    "controller.steps": "count",
    "controller.completions": "count",
    "controller.stop_max_wall": "ratio",
    "controller.enumerate_s": "s",
    "controller.step_self_s": "s",
    "cli.write_s": "s",
    "cli.report_bytes": "bytes",
    **{f"{layer}.{kind}_s": "s" for layer in LAYERS for kind in ("self", "busy")},
    "trace.overhead_frac": "ratio",
}

# Printed but left out of the JSON result, which BENCHMARK.json gates: they
# are exact outcomes, the same on every run of a commit.
UNGATED = {"sim_time_p50_ms", "recognized_frac", "failed_frac"}

# largest self time each workload is chosen for; printed, never a failure
CLAIMED_TOP_LAYER = {
    "brigade-seeds": "bayes_net",
    "tiled-8": "planner",
    "replay-tiled-4": "bayes_net",
}


@dataclass
class Run:
    seed: int
    wall_s: float
    digest: str
    sim_time_ms: int
    recognized: bool


def tail(walls: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    xs = sorted(walls)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max of {n}"
    return xs[n - 11], f"p{100 * (n - 10) / n:.0f} of {n}"


def recognized(report: dict, ctl) -> bool:
    """Terminated, and the winner's label is the true type of its entity."""
    winner = report["winner"]
    if report["terminated_reason"] != "terminated" or winner is None:
        return False
    entity = ctl.bindings[winner["node"]].entity
    return entity is not None and ctl.world.entity(entity).type == winner["label"]


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.t_start = time.perf_counter()
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = OUT / workload.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.failures: list[str] = []
        self.first_digest: dict[int, str] = {}
        self.recordings: dict[int, tuple[dict, bool]] = {}
        self.last_wall: dict[int, float] = {}
        self.loads: list[float] = []  # timed load_scenario calls
        self.rounds = 0

        if workload.tiles == 1:
            self.path = BRIGADE
        else:
            from tiling import tile_scenario

            raw = json.loads(BRIGADE.read_text(encoding="utf-8"))
            self.path = self.out / "scenario.json"
            self.path.write_text(
                json.dumps(tile_scenario(raw, workload.tiles)), encoding="utf-8"
            )

    def load(self, budget_s: float = 0.0):
        """Load the scenario LOADS_MIN times or more, until ``budget_s`` is
        spent; return the last ModelBase and the load times.

        Every run gets a fresh ModelBase, as ``percept run`` does, so work a
        later change moves into loading or into lazily filled caches shows.
        The budget gives a workload of few long runs as many loads as one of
        many short runs.
        """
        from percept import load_scenario

        times = []
        while len(times) < LOADS_MIN or sum(times) < budget_s:
            t0 = time.perf_counter()
            mb = load_scenario(self.path)
            times.append(time.perf_counter() - t0)
        return mb, times

    def order(self) -> list[int]:
        block = list(self.w.seeds)
        k = self.seed % len(block)
        return block[k:] + block[:k]

    # -- one run -------------------------------------------------------------

    def run_once(self, mb, seed: int, tag: str) -> tuple[float, dict, bytes, bool]:
        """Time one run; return (wall, report, output bytes, recognized)."""
        from percept import replay_scenario

        if self.w.replay:
            recorded, was_recognized = self.recordings[seed]
            t0 = time.perf_counter()
            report = replay_scenario(mb, recorded, seed=seed)
            wall = time.perf_counter() - t0
            data = json.dumps(report, indent=2, sort_keys=True).encode()
            if report["final_beliefs"] != recorded["final_beliefs"]:
                self.fail(seed, "replay final_beliefs differ from the recording")
            return wall, report, data, was_recognized
        return self.percept_run(mb, seed, tag)

    def percept_run(self, mb, seed: int, tag: str) -> tuple[float, dict, bytes, bool]:
        """What ``percept run`` does after loading: run, write trace and report."""
        from percept import Controller, cli

        trace_path = self.out / f"trace-{tag}.tsv"
        report_path = self.out / f"report-{tag}.json"
        t0 = time.perf_counter()
        ctl = Controller(mb, seed=seed)
        report = ctl.run()
        cli.write_trace(trace_path, report)
        cli.write_report(report_path, report)
        wall = time.perf_counter() - t0
        data = report_path.read_bytes() + trace_path.read_bytes()
        return wall, report, data, recognized(report, ctl)

    def checked_run(self, seed: int, tag: str) -> Run | None:
        from percept import audit_report

        try:
            mb, setup = self.load(LOAD_SHARE * self.last_wall.get(seed, 0.0))
            self.loads.extend(setup)
            wall, report, data, rec = self.run_once(mb, seed, tag)
        except Exception:  # a raising run is a failed run; keep measuring
            self.fail(seed, traceback.format_exc(limit=3))
            return None
        failed_before = len(self.failures)
        for problem in audit_report(report):
            self.fail(seed, f"audit: {problem}")
        if self.w.name == "brigade-seeds" and seed == 7:
            winner = report["winner"] or {}
            if not (
                report["terminated_reason"] == "terminated"
                and len(report["steps"]) == 5
                and winner.get("label") == "brigade"
                and winner.get("belief", 0.0) >= 0.99
            ):
                self.fail(seed, "seed 7 lost its five-step arc to brigade >= 0.99")
        digest = hashlib.sha256(data).hexdigest()
        if self.first_digest.setdefault(seed, digest) != digest:
            self.fail(seed, f"{tag} output differs from an earlier run of this seed")
        if len(self.failures) > failed_before:
            return None
        if tag == "untraced":
            self.last_wall[seed] = wall
        return Run(seed, wall, digest, report["simulated_time"], rec)

    def fail(self, seed: int, why: str) -> None:
        self.failures.append(f"seed {seed}: {why}")

    # -- timed runs ------------------------------------------------------------

    def prepare(self):
        """Record replays (untimed) and make one warm-up run, also untimed.

        In trace mode the recordings are traced too; returns their span
        recorder, or None.
        """
        from percept import Controller, cli

        mb, _ = self.load()
        if self.w.replay:
            recorder = None
            if self.trace:
                from spans import SpanRecorder

                recorder = SpanRecorder()
            for s in self.w.seeds:
                if recorder is not None:
                    recorder.run_id = s
                    recorder.install()
                try:
                    _, report, _, rec = self.percept_run(mb, s, "record")
                finally:
                    if recorder is not None:
                        recorder.remove()
                self.recordings[s] = (report, rec)
            self.run_once(mb, self.order()[0], "warmup")
            return recorder
        warm = Controller(mb, seed=self.order()[0], max_wall=WARMUP_WALL_MS).run()
        cli.write_trace(self.out / "trace-warmup.tsv", warm)
        cli.write_report(self.out / "report-warmup.json", warm)
        return None

    def schedule(self):
        """Yield the seeds to run, round by round, until the run is over.

        Trace mode makes one round, since each seed then runs twice.
        """
        order = self.order()
        for rnd in itertools.count():
            fits = ran = False
            for i, s in enumerate(order):
                last = self.last_wall.get(s, 0.0)
                if rnd:
                    if time.perf_counter() - self.t_start + last > self.seconds:
                        continue
                    fits = True
                    if last > LONG_S and (i + rnd) % LONG_EVERY:
                        continue
                ran = True
                yield s
            self.rounds += ran
            if self.trace or (rnd and not fits):
                return

    def timed(self) -> tuple[list[Run], int, list[tuple[float, float]], object]:
        """Returns the runs, the attempts, (untraced, traced) wall pairs and
        the span recorder in trace mode."""
        recorder = None
        if self.trace:
            from spans import SpanRecorder

            recorder = SpanRecorder()
        runs, pairs = [], []
        attempted = 0
        for s in self.schedule():
            attempted += 1
            run = self.checked_run(s, "untraced")
            if run is None or recorder is None:
                if run is not None:
                    runs.append(run)
                continue
            recorder.run_id = attempted
            recorder.install()
            try:
                traced = self.checked_run(s, "traced")
            finally:
                recorder.remove()
            if traced is None:  # it raised, or its outputs differ from the untraced run
                continue
            runs.append(run)
            pairs.append((run.wall_s, traced.wall_s))
        return runs, attempted, pairs, recorder

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, runs: list[Run], attempted: int) -> tuple[dict, str]:
        """Times are each seed's median run, and ``setup_s`` the median load;
        outcomes are per seed."""
        first: dict[int, Run] = {}
        by_seed: dict[int, list[float]] = {}
        for r in runs:
            first.setdefault(r.seed, r)
            by_seed.setdefault(r.seed, []).append(r.wall_s)
        walls = [statistics.median(w) for w in by_seed.values()]
        count = [len(w) for w in by_seed.values()]
        tail_s, tail_label = tail(walls)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": statistics.median(self.loads),
            "run_p50_s": statistics.median(walls),
            "run_tail_s": tail_s,
            "runs_per_s": len(walls) / sum(walls),
            "sim_time_p50_ms": statistics.median(r.sim_time_ms for r in first.values()),
            "recognized_frac": sum(r.recognized for r in first.values()) / len(self.w.seeds),
            "peak_rss_mb": peak_kib / 1024,
            "failed_frac": (attempted - len(runs)) / attempted,
        }, (
            f"{tail_label} seeds, each the median of its "
            f"{min(count)} to {max(count)} runs; "
            f"{self.rounds} rounds, {len(self.loads)} loads"
        )

    @staticmethod
    def per_layer(recorder) -> tuple[dict, dict]:
        busy, own, layer_self = recorder.totals()
        layer_busy = recorder.layer_busy()
        c, m = recorder.counts, recorder.maxima
        n = c["runs"]
        calls = c["world.execute_calls"]
        out = {
            "world.cluster_s": busy.get("world.cluster_detections", 0.0) / n,
            "world.detections": c["world.detections"] / n,
            "world.execute_s": busy.get("world.execute_action", 0.0) / n,
            "world.execute_calls": calls / n,
            "world.uninformative_frac": c["world.uninformative"] / calls if calls else 0.0,
            "bayes_net.propagate_s": busy.get("bayes_net.propagate", 0.0) / n,
            "bayes_net.propagate_calls": c["bayes_net.propagate_calls"] / n,
            "bayes_net.node_visits": c["bayes_net.node_visits"] / n,
            "bayes_net.link_calls": c["bayes_net.link_calls"] / n,
            "bayes_net.nodes_final": c["bayes_net.nodes_final"] / n,
            "valuation.value_s": busy.get("valuation.value_all_candidates", 0.0) / n,
            "valuation.candidates": c["valuation.candidates"] / n,
            "valuation.posterior_evals": c["valuation.posterior_evals"] / n,
            "planner.plan_s": busy.get("planner.solve_approx", 0.0) / n,
            "planner.calls": c["planner.calls"] / n,
            "planner.items_max": m["planner.items_max"],
            "planner.table_cells": m["planner.table_cells"],
            "planner.peak_alloc_mb": m["planner.peak_alloc_mb"],
            "controller.steps": c["controller.steps"] / n,
            "controller.completions": c["controller.completions"] / n,
            "controller.stop_max_wall": c["controller.stop_max_wall"] / n,
            "controller.enumerate_s": busy.get("controller.enumerate_candidates", 0.0) / n,
            "controller.step_self_s": own.get("controller.run_step", 0.0) / n,
            "cli.write_s": (busy.get("cli.write_trace", 0.0) + busy.get("cli.write_report", 0.0)) / n,
            "cli.report_bytes": c["cli.report_bytes"] / n,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / n
            out[f"{layer}.busy_s"] = layer_busy.get(layer, 0.0) / n
        return out, layer_self

    # -- main loop ---------------------------------------------------------------

    def main(self) -> dict:
        import numpy
        from spans import self_test

        print(
            f"env nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
        )
        print(
            f"workload {self.w.name} seed={self.seed} seconds={self.seconds} "
            f"trace={int(self.trace)} block={self.w.seeds.start}..{self.w.seeds.stop - 1} "
            f"start={self.order()[0]}"
        )
        if self.trace:
            problem = self_test()
            if problem:
                self.failures.append(f"span self-test: {problem}")
        recordings = self.prepare()
        runs, attempted, pairs, recorder = self.timed()
        if not runs:
            for f in self.failures:
                print(f"FAIL {f}", file=sys.stderr)
            return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}
        e2e, tail_label = self.end_to_end(runs, attempted)
        print(f"runs {len(runs)} of {attempted} attempted; tail is {tail_label}")
        for name, unit in END_TO_END.items():
            print(f"  {name:<18} {e2e[name]:.6g} {unit}")
        digests = {}
        for r in runs:
            digests.setdefault(r.seed, r.digest)
        for s in sorted(digests):
            print(f"digest {self.w.name} seed={s} {digests[s][:16]}")
        if set(digests) == set(self.w.seeds):
            combined = hashlib.sha256("".join(digests[s] for s in sorted(digests)).encode())
            print(f"digest {self.w.name} block {combined.hexdigest()[:16]}")

        if recorder is None:
            metrics = {
                name: {"value": e2e[name], "unit": unit}
                for name, unit in END_TO_END.items() if name not in UNGATED
            }
        else:
            layer, layer_self = self.per_layer(recorder)
            if recordings is not None:
                recorded, _ = self.per_layer(recordings)
                for name in recorded:
                    if name.split(".", 1)[0] in self.w.recorded_layers:
                        layer[name] = recorded[name]
                print(f"per-layer {', '.join(self.w.recorded_layers)} metrics are "
                      f"means over the {len(self.w.seeds)} traced recordings")
            untraced = sum(u for u, _ in pairs)
            layer["trace.overhead_frac"] = (sum(t for _, t in pairs) - untraced) / untraced
            for name, unit in PER_LAYER.items():
                print(f"  {name:<28} {layer[name]:.6g} {unit}")
            top = max(layer_self, key=layer_self.get)
            claim = CLAIMED_TOP_LAYER[self.w.name]
            print(f"roles: largest self time is {top} (claimed {claim}): "
                  f"{'confirmed' if top == claim else 'NOT confirmed'}")
            if self.w.replay:
                idle = recorder.counts["valuation.candidates"] == 0 and recorder.counts["planner.calls"] == 0
                print(f"roles: valuation and planner idle on replay: {'confirmed' if idle else 'NOT confirmed'}")
            for rec, suffix in ((recorder, ""), (recordings, "-recordings")):
                if rec is not None:
                    dump = OUT / f"spans-{self.w.name}{suffix}.jsonl.gz"
                    rec.dump(dump)
                    print(f"spans {len(rec)} written to {dump.relative_to(ROOT)}")
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        for f in self.failures:
            print(f"FAIL {f}", file=sys.stderr)
        shutil.rmtree(self.out, ignore_errors=True)
        return {
            "correct": not self.failures,
            "attempted": attempted,
            "failed": attempted - len(runs),
            "metrics": metrics,
        }


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, rec in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = rec
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # single-threaded BLAS; set before percept first imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "percept" / "__init__.py").is_file():
        print(f"error: no percept sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    result = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)).main()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
