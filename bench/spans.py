"""In-memory span recorder wrapped around the public entry points of percept.

A span is (name, start, end, parent, run id).  Spans live in memory while
runs execute and are written out only when the benchmark ends.  A span's
self time is its duration minus the time its child spans cover; calls are
sequential in one thread, so children never overlap and that is the sum
of their durations.

Counters are read at the same boundaries as the spans (result sizes,
``Valuer.posterior_evals``, a tracemalloc peak around each planner call),
so every ratio is measured where the work happens.
"""

from __future__ import annotations

import gzip
import json
import math
import time
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path

from percept import bayes_net, cli, controller, valuation, world


def table_cells(inst, epsilon: float) -> int:
    """DP table size N x (sum of scaled values + 1) that solve_approx allocates.

    Computed from the instance with the same scaling as the solver; it is
    not read from the solver.
    """
    items = [it for it in inst.items if it.cost <= inst.budget and it.value > 0]
    if not items:
        return 0
    scale = epsilon * max(it.value for it in items) / len(items)
    return len(items) * (sum(int(math.floor(it.value / scale)) for it in items) + 1)


class SpanRecorder:
    """Collects spans and boundary counters; install() patches, remove() undoes.

    Spans are stored column-wise in typed arrays, which the garbage
    collector does not traverse, so recording adds no collection work to
    the runs being measured.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # index of the enclosing span, -1 at a root
        self.run = array("q")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: str, start: float, end: float, parent: int, run: int) -> int:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.run.append(run)
        return len(self.name) - 1

    # -- recording ---------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None, around=None):
        original = getattr(owner, attr)
        stack, start, end = self._stack, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = self.add(name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id)
            stack.append(idx)
            if around is not None:
                around(True, args)
            start[idx] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                if around is not None:
                    around(False, args)
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        c, m = self.counts, self.maxima

        def detections(args, result):
            c["world.detections"] += len(result)

        def executed(args, result):
            c["world.execute_calls"] += 1
            c["world.uninformative"] += 0 if result.informative else 1

        def propagated(args, result):
            c["bayes_net.propagate_calls"] += 1
            c["bayes_net.node_visits"] += len(args[0].nodes)

        def linked(args, result):
            c["bayes_net.link_calls"] += 1

        def valued(args, result):
            c["valuation.candidates"] += len(args[1])
            c["valuation.posterior_evals"] += args[0].posterior_evals

        def planned(args, result):
            inst, epsilon = args
            c["planner.calls"] += 1
            m["planner.items_max"] = max(m["planner.items_max"], len(inst.items))
            m["planner.table_cells"] = max(m["planner.table_cells"], table_cells(inst, epsilon))

        def traced_alloc(entering, args):
            if entering:
                tracemalloc.start()
            else:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                m["planner.peak_alloc_mb"] = max(m["planner.peak_alloc_mb"], peak / 2**20)

        def ran(args, result):
            ctl = args[0]
            c["runs"] += 1
            c["controller.steps"] += len(result["steps"])
            c["controller.completions"] += sum(len(s["completions"]) for s in result["steps"])
            c["controller.stop_max_wall"] += result["terminated_reason"] == "max_wall"
            c["bayes_net.nodes_final"] += len(ctl.net.nodes)

        def wrote(args, result):
            c["cli.report_bytes"] += Path(args[0]).stat().st_size

        self._wrap(world, "generate_detections", "world.generate_detections", detections)
        self._wrap(world, "cluster_detections", "world.cluster_detections")
        self._wrap(world, "execute_action", "world.execute_action", executed)
        self._wrap(bayes_net.BayesNet, "propagate", "bayes_net.propagate", propagated)
        self._wrap(bayes_net.BayesNet, "link", "bayes_net.link", linked)
        self._wrap(valuation.Valuer, "value_all_candidates", "valuation.value_all_candidates", valued)
        self._wrap(controller, "solve_approx", "planner.solve_approx", planned, traced_alloc)
        self._wrap(controller.Controller, "run", "controller.run", ran)
        self._wrap(controller.Controller, "run_step", "controller.run_step")
        self._wrap(controller.Controller, "enumerate_candidates", "controller.enumerate_candidates")
        self._wrap(cli, "write_trace", "cli.write_trace")
        self._wrap(cli, "write_report", "cli.write_report", wrote)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- arithmetic --------------------------------------------------------

    def _layer(self, i: int) -> str:
        return self.names[self.name[i]].split(".", 1)[0]

    def self_times(self) -> list[float]:
        """Per span: duration minus the summed durations of its children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def totals(self) -> tuple[dict, dict, dict]:
        """Seconds by span name (busy, self) and self seconds by layer."""
        busy: defaultdict[str, float] = defaultdict(float)
        own_by_name: defaultdict[str, float] = defaultdict(float)
        layer_self: defaultdict[str, float] = defaultdict(float)
        for i, own in enumerate(self.self_times()):
            name = self.names[self.name[i]]
            busy[name] += self.end[i] - self.start[i]
            own_by_name[name] += own
            layer_self[self._layer(i)] += own
        return dict(busy), dict(own_by_name), dict(layer_self)

    def layer_busy(self) -> dict:
        """Seconds each layer was on the stack: its spans whose parent is
        another layer's, so nested calls within one layer count once."""
        out: defaultdict[str, float] = defaultdict(float)
        for i, p in enumerate(self.parent):
            layer = self._layer(i)
            if p < 0 or self._layer(p) != layer:
                out[layer] += self.end[i] - self.start[i]
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, with its self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, own in enumerate(self.self_times()):
                fh.write(json.dumps({
                    "name": self.names[self.name[i]], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i],
                    "run": self.run[i], "self": own,
                }) + "\n")


def self_test() -> str | None:
    """Check the self-time arithmetic on a hand-built span tree."""
    rec = SpanRecorder()
    for span in (
        ("controller.run", 0.0, 10.0, -1, 1),
        ("controller.run_step", 1.0, 9.0, 0, 1),
        ("planner.solve_approx", 2.0, 5.0, 1, 1),
        ("world.execute_action", 5.0, 6.0, 1, 1),
        ("bayes_net.propagate", 6.5, 8.0, 1, 1),
        ("cli.write_report", 11.0, 12.0, -1, 1),
    ):
        rec.add(*span)
    want = [2.0, 2.5, 3.0, 1.0, 1.5, 1.0]
    got = rec.self_times()
    if any(abs(a - b) > 1e-12 for a, b in zip(got, want)):
        return f"self times {got} != {want}"
    if abs(sum(got[:5]) - 10.0) > 1e-12:
        return "self times under controller.run do not sum to its 10 s"
    _, _, layer_self = rec.totals()
    if abs(layer_self["controller"] - 4.5) > 1e-12:
        return f"controller self {layer_self['controller']} != 4.5"
    if rec.layer_busy()["controller"] != 10.0:
        return "controller busy time is not the run span"
    return None
