"""Top-level control loop: enumerate, value, select, execute, accrue, test.

Each step gets a fresh time budget.  Selected actions run on a simulated
processor pool; completions return asynchronously (in deterministic
finish-time order) and their evidence is attached and propagated one by
one.  A step ends early, cancelling whatever is still in flight, as soon
as a goal node's belief crosses the termination threshold.

The decision layer (valuation + knapsack) never touches beliefs: replaying
a recorded plan sequence with the planner disabled reproduces the same
evidence stream and therefore the exact same posteriors.

Candidate work follows what changed.  Each (node, template) keeps one
``ActionInstance``; its value, knapsack item and report entry are carried
from step to step while the target's ``BayesNode.stamp`` holds, since a
value reads only the model and the beliefs and edges of the target's
component, which propagate restamps whenever they change.  Only new or
restamped candidates go to a ``Valuer``.  ``solve_approx`` is pure, so a
step whose knapsack instance equals the previous planned step's reuses
that plan.

A report is read-only and shares its unchanged pieces between steps: a
re-valued candidate keeps its item and entry while its value is bit for
bit the same, a step whose entries are all the previous step's reuses its
candidate list, a reused plan reuses its dict, and ``BayesNet.snapshot``
shares what did not change.
"""

from __future__ import annotations

import dataclasses
import heapq
import operator
from collections import deque

import numpy as np

from . import world as world_sim
from .bayes_net import BayesNet
from .errors import ScenarioError
from .model_base import ControlConfig, ModelBase
from .planner import KnapsackInstance, KnapsackItem, Plan, solve_approx
from .valuation import ActionInstance, Valuer, ValueMode

# a run with no wall that takes this many steps is unbounded; not a user option
MAX_STEPS = 10_000

_DETECT_STREAM = 13
_ACTION_STREAM = 29
_JITTER_STREAM = 43


class SimulatedPool:
    """Discrete-event pool: at most `processors` actions in flight."""

    def __init__(self, processors: int, clock: int = 0):
        if processors < 1:
            raise ValueError("pool needs at least one processor")
        self.processors = processors
        self.clock = clock
        self._queue: deque[tuple[ActionInstance, int]] = deque()
        self._in_flight: list[tuple[int, int, ActionInstance]] = []
        self._seq = 0
        self.dispatched: list[ActionInstance] = []

    def submit(self, actions, durations=None) -> None:
        """Queue actions; a duration defaults to the action's declared cost."""
        actions = list(actions)
        if durations is None:
            durations = [int(a.cost) for a in actions]
        self._queue.extend(zip(actions, durations))
        self._fill()

    def _fill(self) -> None:
        while self._queue and len(self._in_flight) < self.processors:
            action, duration = self._queue.popleft()
            heapq.heappush(
                self._in_flight, (self.clock + duration, self._seq, action)
            )
            self._seq += 1
            self.dispatched.append(action)

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def next_completion(self) -> tuple[int, ActionInstance] | None:
        """Pop the earliest completion, advance the clock, refill the pool."""
        if not self._in_flight:
            return None
        finish, _, action = heapq.heappop(self._in_flight)
        self.clock = max(self.clock, finish)
        self._fill()
        return finish, action

    def cancel_all(self) -> list[ActionInstance]:
        """Drop everything in flight or still queued; the clock stays put."""
        out = [a for _, _, a in sorted(self._in_flight)]
        out.extend(a for a, _ in self._queue)
        self._in_flight.clear()
        self._queue.clear()
        return out


@dataclasses.dataclass(slots=True)
class _Carried:
    """One (node, template)'s candidate, with the knapsack item and report
    entry of its value, kept while re-valuing gives the same bits; ``stamp``
    is the target's stamp when it was last valued."""

    action: ActionInstance
    fired: bool = False  # dispatched in some step
    stamp: int | None = None  # None: never valued
    item: KnapsackItem | None = None
    entry: dict | None = None


def _candidate_entry(action: ActionInstance, value: float) -> dict:
    return {"id": action.id, "kind": action.kind, "target": action.target_node,
            "value": value, "cost": action.cost}


def check_termination(net: BayesNet, config: ControlConfig, goal_nodes) -> bool:
    """True once any goal node's maximum belief reaches the threshold."""
    return any(
        float(net.nodes[nid].belief.max()) >= config.termination_belief
        for nid in goal_nodes
    )


class Controller:
    """Owns one run: the net, the simulated world, and the step loop."""

    def __init__(
        self,
        model_base: ModelBase,
        *,
        seed: int | None = None,
        budget: int | None = None,
        epsilon: float | None = None,
        max_wall: float | None = None,
        value_mode: str | None = None,
    ):
        overrides = dict(seed=seed, budget_t=budget, epsilon=epsilon,
                         max_wall=max_wall, value_mode=value_mode)
        self.mb = model_base
        # replace() re-runs ControlConfig's range checks on the overrides
        self.config = dataclasses.replace(
            model_base.control, **{k: v for k, v in overrides.items() if v is not None}
        )
        self.mode = ValueMode(self.config.value_mode)
        self.net = BayesNet()
        self.world = world_sim.World.from_dict(model_base)
        self.bindings: dict[str, world_sim.Binding] = {}
        self._template_index = {t.id: i for i, t in enumerate(model_base.actions)}
        self.clock = 0
        #: each step's report entry, in order
        self.steps: list[dict] = []
        self.clusters: list = []
        #: the net's nodes of the goal group, in instantiation order
        self.goal_nodes: list[str] = []
        self._carried: dict[tuple[str, str], _Carried] = {}
        self._last_plan: tuple[KnapsackInstance, Plan, dict] | None = None
        self._likelihoods: dict[tuple[str, str], np.ndarray] = {}  # (table, outcome)

    # -- setup -------------------------------------------------------------

    def initialize(self) -> None:
        """Detect, cluster, and instantiate the initial unit-level nodes."""
        rng = np.random.default_rng((self.config.seed, _DETECT_STREAM))
        detections = world_sim.generate_detections(self.world, rng=rng)
        leaf = self.mb.leaf_group()
        base = self.mb.hypothesis_set(leaf)
        self.clusters = world_sim.cluster_detections(
            detections, self.world.cluster_params, base=base
        )
        unit_types = {lab for lab in base.labels if lab in self.mb.nodes}
        units = [e for e in self.world.entities.values() if e.type in unit_types]
        max_extent = self.world.cluster_params.max_extent
        for k, cluster in enumerate(self.clusters):
            self._instantiate(f"u{k + 1}", cluster.seed, leaf,
                              world_sim.bind_cluster(units, cluster, max_extent))
        self.net.propagate()

    def _instantiate(self, node_id: str, hypotheses, group: str, binding) -> None:
        """Add a node to the net, bound to ``binding`` in the world."""
        self.net.instantiate_node(hypotheses, group, node_id=node_id)
        if group == self.mb.goal_group:
            self.goal_nodes.append(node_id)
        self.bindings[node_id] = binding

    # -- candidate enumeration ----------------------------------------------

    def enumerate_candidates(self) -> list[ActionInstance]:
        """Every applicable, non-exhausted template of every node, in
        (node id, kind, template id) order; one ``ActionInstance`` per
        (node, template) for the whole run."""
        out = []
        nodes, templates, carried = self.net.nodes, self.mb.group_templates, self._carried
        for node_id in sorted(nodes):
            for t in templates[nodes[node_id].group]:
                key = (node_id, t.id)
                entry = carried.get(key)
                if entry is None:
                    entry = carried[key] = _Carried(
                        ActionInstance(
                            id=f"{node_id}:{t.id}",
                            kind=t.kind,
                            target_node=node_id,
                            cost=t.cost,
                            outcome_table=t.outcome_table,
                            template_id=t.id,
                        )
                    )
                elif entry.fired and not t.repeatable:
                    continue
                out.append(entry.action)
        return out

    # -- evidence handling ----------------------------------------------------

    def _likelihood_from_outcome(self, table, outcome: str) -> np.ndarray:
        """Per-label outcome likelihood from the table slice.

        The parent axis is collapsed with the a priori group priors and the
        result normalized per child label, i.e. lambda(x) = p(outcome | x)
        under a priori parent mixing.  Static priors keep the conversion
        independent of arrival order, so end-of-step beliefs cannot depend
        on completion scheduling.  It reads only the model, so each
        (table, outcome) is computed once per run.
        """
        key = (table.id, outcome)
        lam = self._likelihoods.get(key)
        if lam is None:
            oi = table.outcome_index(outcome)
            group = self.mb.table_parent_group[table.id]
            priors = np.array(self.mb.hypothesis_set(group).priors)
            joint = table.entries @ priors  # (child, outcome)
            totals = joint.sum(axis=1)
            lam = self._likelihoods[key] = np.divide(
                joint[:, oi], totals, out=np.zeros(len(table.child_labels)), where=totals > 0
            )
            lam.flags.writeable = False  # shared by every completion of the run
        return lam

    def _adopt(self, parent_id: str, child_id: str, cpt) -> None:
        """Link an existing node under a new parent.

        A root's instantiation prior may encode real detection evidence; on
        its first link it is converted into an equivalent likelihood before
        the parent's causal message supersedes it, so no information is lost.
        """
        if not self.net.parents(child_id):
            node = self.net.node(child_id)
            w = node.prior
            base = np.array(self.mb.hypothesis_set(node.group).priors)
            if not np.allclose(w, base, atol=1e-12):
                adj = np.divide(w, base, out=np.zeros_like(w), where=base > 0)
                self.net.attach_evidence(child_id, adj)
        self.net.link(parent_id, child_id, cpt)

    def _handle_match(self, action: ActionInstance, result) -> None:
        parent_group = self.mb.table_parent_group[action.outcome_table]
        child_group = self.net.node(action.target_node).group
        if parent_group == child_group:
            return  # self-bearing table, nothing to instantiate
        cpt_id = dict(self.mb.group_parents.get(child_group, ())).get(parent_group)
        if cpt_id is None:
            raise ScenarioError(
                f"no model edge from group {parent_group!r} to {child_group!r}"
            )
        cpt = self.mb.cpt(cpt_id)
        members = [nid for nid, n in self.net.nodes.items() if n.group == parent_group]
        parent_id = next(
            (m for m in members if self.bindings[m].entity == result.parent_entity), None
        )
        if parent_id is None:
            parent_id = f"{parent_group}{len(members) + 1}"
            xs = [self.bindings[s].x for s in result.siblings]
            ys = [self.bindings[s].y for s in result.siblings]
            hs = self.mb.hypothesis_set(parent_group)
            binding = world_sim.Binding(result.parent_entity, sum(xs) / len(xs), sum(ys) / len(ys))
            self._instantiate(parent_id, hs, parent_group, binding)
        for sib in result.siblings:
            already = any(
                self.net.node(pid).group == parent_group
                for pid, _ in self.net.parents(sib)
            )
            if not already:
                self._adopt(parent_id, sib, cpt)

    def apply_completion(self, action: ActionInstance, result) -> None:
        """Attach one completed action's evidential return and propagate."""
        if result.siblings is not None:
            self._handle_match(action, result)
        if result.informative:
            table = self.mb.outcome_table(action.outcome_table)
            lam = self._likelihood_from_outcome(table, result.outcome)
            self.net.attach_evidence(action.target_node, lam)
        self.net.propagate()

    def _keyed_rng(
        self, stream: int, step: int, action: ActionInstance
    ) -> np.random.Generator:
        # keyed, not sequential: replays and permutations see identical streams
        return np.random.default_rng(
            (
                self.config.seed,
                stream,
                step,
                self.net.node(action.target_node).rank,
                self._template_index[action.template_id],
            )
        )

    def _duration(self, step: int, action: ActionInstance) -> int:
        """Actual runtime: the declared cost, optionally jittered.

        Budget accounting always uses declared costs; jitter only moves
        completion times, from a keyed stream so replays stay exact.
        """
        jitter = self.config.duration_jitter
        if jitter <= 0.0:
            return int(action.cost)
        rng = self._keyed_rng(_JITTER_STREAM, step, action)
        factor = 1.0 + jitter * (2.0 * rng.random() - 1.0)
        return max(0, int(round(action.cost * factor)))

    # -- the loop ---------------------------------------------------------------

    def run_step(self, replay_ids: list[str] | None = None) -> dict | None:
        """One full iteration, returned as the step's report entry; None when
        nothing is selectable (quiescent)."""
        index = len(self.steps) + 1
        candidates = self.enumerate_candidates()
        if not candidates:
            return None
        if replay_ids is None:
            nodes = self.net.nodes
            carried = [self._carried[c.target_node, c.template_id] for c in candidates]
            stale = [e for e in carried if e.stamp != nodes[e.action.target_node].stamp]
            Valuer(self.net, self.mb, mode=self.mode).value_all_candidates(
                [e.action for e in stale]
            )
            for e in stale:
                c = e.action
                e.stamp = nodes[c.target_node].stamp
                if e.entry is None or e.entry["value"].hex() != c.value.hex():
                    e.item = KnapsackItem(id=c.id, value=c.value, cost=c.cost)
                    e.entry = _candidate_entry(c, c.value)
            instance = KnapsackInstance(
                items=tuple(e.item for e in carried), budget=self.config.budget_t
            )
            if self._last_plan is None or self._last_plan[0] != instance:
                plan = solve_approx(instance, self.config.epsilon)
                self._last_plan = instance, plan, plan.to_dict()
            _, plan, plan_entry = self._last_plan
            entries = [e.entry for e in carried]
            last = self.steps[-1]["candidates"] if self.steps else []
            if len(last) == len(entries) and all(map(operator.is_, entries, last)):
                entries = last
        else:
            # replay values nothing: every candidate, and so the plan, is worth 0
            by_id = {c.id: c for c in candidates}
            missing = [i for i in replay_ids if i not in by_id]
            if missing:
                raise ScenarioError(f"replay references unknown candidates {missing}")
            plan = Plan(
                selected=tuple(sorted(replay_ids)),
                total_value=0.0,
                total_cost=float(sum(by_id[i].cost for i in replay_ids)),
            )
            plan_entry = plan.to_dict()
            entries = [_candidate_entry(c, 0.0) for c in candidates]
        if not plan.selected:
            return None
        if plan.total_cost > self.config.budget_t and replay_ids is None:
            raise RuntimeError("planner exceeded the step budget")

        selected = set(plan.selected)
        ordered = [c for c in candidates if c.id in selected]
        pool = SimulatedPool(self.config.processors, clock=self.clock)
        pool.submit(ordered, [self._duration(index, c) for c in ordered])

        completions: list[list] = []  # [action id, outcome id, finish time]
        cancelled: list[str] = []
        while True:
            ev = pool.next_completion()
            if ev is None:
                break
            finish, action = ev
            result = world_sim.execute_action(
                action, self.world, self.net,
                lambda: self._keyed_rng(_ACTION_STREAM, index, action), self.bindings, self.mb,
            )
            self.apply_completion(action, result)
            completions.append([action.id, result.outcome, finish])
            if check_termination(self.net, self.config, self.goal_nodes):
                cancelled = [a.id for a in pool.cancel_all()]
                break
        self.clock = pool.clock
        for a in pool.dispatched:
            self._carried[a.target_node, a.template_id].fired = True
        return {
            "step": index,
            "candidates": entries,
            "plan": plan_entry,
            "completions": completions,
            "cancelled": cancelled,
            "beliefs_after": self.net.snapshot(),
        }

    def run(self, replay_plans: list[list[str]] | None = None) -> dict:
        """Drive steps until termination, quiescence, or the wall."""
        self.initialize()
        initial = self.net.snapshot()
        while True:
            if check_termination(self.net, self.config, self.goal_nodes):
                reason = "terminated"
                break
            if self.clock >= self.config.max_wall:
                reason = "max_wall"
                break
            if len(self.steps) >= MAX_STEPS:
                raise ScenarioError(
                    f"run exceeded {MAX_STEPS} steps without stopping; "
                    "set control.max_wall to bound it"
                )
            replay_ids = None
            if replay_plans is not None:
                if len(self.steps) >= len(replay_plans):
                    reason = "quiescent"
                    break
                replay_ids = replay_plans[len(self.steps)]
            step = self.run_step(replay_ids)
            if step is None:
                reason = "quiescent"
                break
            self.steps.append(step)
        return self._report(initial, reason)

    def _report(self, initial: dict, reason: str) -> dict:
        # max keeps the first of equal beliefs: a tie goes to the smallest id
        node = max(sorted(self.goal_nodes), key=lambda n: self.net.belief(n).max(), default=None)
        winner = None
        if node is not None:
            belief = self.net.belief(node)
            best = int(np.argmax(belief))
            winner = {"node": node, "label": self.net.node(node).labels[best],
                      "belief": float(belief[best])}
        return {
            "config": {
                "budget_T": self.config.budget_t,
                "epsilon": self.config.epsilon,
                "processors": self.config.processors,
                "termination_belief": self.config.termination_belief,
                "seed": self.config.seed,
                "value_mode": self.config.value_mode,
                "duration_jitter": self.config.duration_jitter,
            },
            "initial_net": initial,
            "steps": self.steps,
            "final_beliefs": self.net.snapshot(),
            "winner": winner,
            "terminated_reason": reason,
            "simulated_time": self.clock,
        }


def recorded_plans(report: dict) -> list[list[str]]:
    """Extract the per-step selected action ids for a separability replay."""
    return [list(step["plan"]["selected"]) for step in report["steps"]]


def replay_scenario(model_base: ModelBase, report: dict, **overrides) -> dict:
    """Re-run with the planner disabled, following a recorded plan sequence."""
    ctl = Controller(model_base, **overrides)
    return ctl.run(replay_plans=recorded_plans(report))


def audit_report(report: dict) -> list[str]:
    """Check pool and budget discipline over a recorded run.

    Returns human-readable violations; an empty list means the trace is
    clean.  In-flight intervals are reconstructed from (finish - cost,
    finish], which is exact because completion times equal declared costs;
    with duration jitter enabled the interval check is skipped.
    """
    violations = []
    budget = report["config"]["budget_T"]
    processors = report["config"]["processors"]
    jittered = report["config"].get("duration_jitter", 0.0) > 0.0
    for step in report["steps"]:
        idx = step["step"]
        cost_of = {c["id"]: c["cost"] for c in step["candidates"]}
        cand_ids = set(cost_of)
        plan_ids = set(step["plan"]["selected"])
        if not plan_ids <= cand_ids:
            violations.append(f"step {idx}: plan selects non-candidates")
        if step["plan"]["total_cost"] > budget + 1e-9:
            violations.append(
                f"step {idx}: selected cost {step['plan']['total_cost']} "
                f"exceeds budget {budget}"
            )
        seen = set()
        events = []
        for action_id, _, finish in step["completions"]:
            if action_id in seen:
                violations.append(f"step {idx}: {action_id} completed twice")
            seen.add(action_id)
            if action_id not in plan_ids:
                violations.append(f"step {idx}: completion {action_id} not in plan")
                continue
            start = finish - cost_of[action_id]
            events.append((start, 1))
            events.append((finish, -1))
        if not jittered:
            flying = 0
            for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
                flying += delta
                if flying > processors:
                    violations.append(f"step {idx}: {flying} actions in flight")
                    break
        unresolved = plan_ids - seen - set(step["cancelled"])
        if unresolved:
            violations.append(
                f"step {idx}: selected actions neither completed nor cancelled: "
                f"{sorted(unresolved)}"
            )
    return violations
