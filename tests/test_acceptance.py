"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is deterministic and finishes in well under a minute per
criterion at desk scale.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import enumerate_marginals, random_polytree, build_net
from percept.controller import Controller, audit_report, replay_scenario
from percept.model_base import build_model_base, load_scenario
from percept.planner import KnapsackInstance, KnapsackItem, solve_approx, solve_exact
from percept.valuation import ActionInstance, Valuer, ValueMode

BRIGADE = Path(__file__).resolve().parents[1] / "src/percept/scenarios/brigade.json"


def verdict(num, ok, text):
    print(f"\nCRITERION {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def random_instance(rng):
    n = int(rng.integers(1, 21))
    items = tuple(
        KnapsackItem(
            f"i{k:02d}",
            float(rng.integers(0, 10**6)),
            int(rng.integers(1, 10**4 + 1)),
        )
        for k in range(n)
    )
    total = sum(it.cost for it in items)
    return KnapsackInstance(items=items, budget=float(rng.integers(0, total + 1)))


def enumeration_optimum(items, budget):
    """Independent exhaustive check: (max value, min cost among optima)."""
    values = np.zeros(1)
    costs = np.zeros(1)
    for it in items:
        values = np.concatenate([values, values + it.value])
        costs = np.concatenate([costs, costs + it.cost])
    feasible = costs <= budget
    best = values[feasible].max()
    at_best = feasible & (values >= best - 1e-9 * max(1.0, best))
    return float(best), float(costs[at_best].min())


def test_criterion_1_knapsack_guarantee():
    start = time.time()
    rng = np.random.default_rng(20_260_101)
    failures = []
    for case in range(1000):
        inst = random_instance(rng)
        opt = solve_exact(inst)
        for eps in (0.25, 0.1, 0.01):
            got = solve_approx(inst, eps)
            if got.total_cost > inst.budget + 1e-9:
                failures.append((case, eps, "infeasible"))
            if opt.total_value > 0:
                gap = (opt.total_value - got.total_value) / opt.total_value
                if not gap < eps:
                    failures.append((case, eps, gap))
    for case in range(150):
        srng = np.random.default_rng(777_000 + case)
        n = int(srng.integers(1, 16))
        items = tuple(
            KnapsackItem(f"i{k:02d}", float(srng.integers(0, 10**4)),
                         int(srng.integers(1, 10**3)))
            for k in range(n)
        )
        budget = float(srng.integers(0, sum(it.cost for it in items) + 1))
        plan = solve_exact(KnapsackInstance(items=items, budget=budget))
        best_v, best_c = enumeration_optimum(items, budget)
        if abs(plan.total_value - best_v) > 1e-9 or abs(plan.total_cost - best_c) > 1e-9:
            failures.append(("enum", case, plan.total_value, best_v))
    elapsed = time.time() - start
    verdict(
        1,
        not failures and elapsed < 60,
        f"(P'-P)/P' < eps on 1000 instances x (0.25, 0.1, 0.01); exact solver "
        f"matches exhaustive enumeration on 150 instances with N <= 15 "
        f"[{elapsed:.1f}s]" + (f" failures={failures[:3]}" if failures else ""),
    )


def test_criterion_2_propagation_oracle():
    failures = []
    for case in range(500):
        rng = np.random.default_rng(31_000 + case)
        spec = random_polytree(rng)
        net = build_net(spec)
        net.propagate()
        want = enumerate_marginals(spec)
        for nid, expected in want.items():
            if not np.allclose(net.belief(nid), expected, atol=1e-9):
                failures.append((case, nid))
    # evidence permutation invariance on a further 50 nets
    for case in range(50):
        rng = np.random.default_rng(32_000 + case)
        spec = random_polytree(rng, evidence_prob=1.0)
        beliefs = []
        for flip in (False, True):
            items = list(spec.evidence.items())
            if flip:
                items = items[::-1]
            bare = type(spec)()
            bare.nodes, bare.edges = dict(spec.nodes), list(spec.edges)
            net = build_net(bare)
            for nid, vecs in items:
                for v in (vecs if not flip else vecs[::-1]):
                    net.attach_evidence(nid, np.array(v))
            net.propagate()
            beliefs.append({nid: net.belief(nid) for nid in net.nodes})
        for nid in beliefs[0]:
            if not np.allclose(beliefs[0][nid], beliefs[1][nid], atol=1e-9):
                failures.append(("perm", case, nid))
    verdict(
        2,
        not failures,
        "beliefs match full-joint enumeration within 1e-9 on 500 random "
        "polytrees (<= 8 nodes, <= 4 labels); evidence order invariant on 50"
        + (f" failures={failures[:3]}" if failures else ""),
    )


def _two_level(entries, goal=0.8):
    return build_model_base(
        {
            "models": [
                {"id": "p1", "prior": 0.5, "isa_group": "pg",
                 "parts": [{"child": "h", "cpt": "c"}, {"child": "k", "cpt": "c"}]},
                {"id": "p2", "prior": 0.5, "isa_group": "pg"},
                {"id": "h", "prior": 0.5, "isa_group": "cg"},
                {"id": "k", "prior": 0.5, "isa_group": "cg"},
            ],
            "cpts": {"c": {"parent_labels": ["p1", "p2"], "child_labels": ["h", "k"],
                           "rows": [[0.6, 0.4], [0.3, 0.7]]}},
            "outcome_tables": {"t": {
                "action_kind": "CLASSIFICATION", "child_labels": ["h", "k"],
                "outcomes": [f"o{i}" for i in range(np.shape(entries)[1])],
                "parent_labels": ["p1", "p2"], "entries": entries,
            }},
            "actions": [{"id": "act", "kind": "CLASSIFICATION",
                         "applicable_to": ["h", "k"], "cost": 10, "outcome_table": "t"}],
            "goal_values": {"p1": goal},
            "control": {"budget_T": 100, "epsilon": 0.1, "processors": 1,
                        "termination_belief": 0.99, "seed": 0},
        }
    )


def _child_net(mb):
    from percept.bayes_net import BayesNet

    net = BayesNet()
    net.instantiate_node(mb.hypothesis_set("cg"), "cg", node_id="child")
    return net


def _act(cost=10):
    return ActionInstance(id="child:act", kind="CLASSIFICATION", target_node="child",
                          cost=cost, outcome_table="t", template_id="act")


def test_criterion_3_value_recursion_properties():
    problems = []
    rng = np.random.default_rng(54321)

    # nonnegativity across random tables and both modes
    for _ in range(400):
        entries = rng.random((2, 2, 2)) + 1e-6
        entries /= entries.sum(axis=(0, 1), keepdims=True)
        mb = _two_level(entries.tolist())
        for mode in ValueMode:
            v = Valuer(_child_net(mb), mb, mode=mode).value_of_action_at_node(_act())
            if not v >= 0.0:
                problems.append(("negative", mode.value, v))

    # exact zero for parent-independent tables
    for _ in range(100):
        half = rng.random((2, 2, 1)) + 1e-6
        entries = np.repeat(half, 2, axis=2)
        entries /= entries.sum(axis=(0, 1), keepdims=True)
        mb = _two_level(entries.tolist())
        for mode in ValueMode:
            v = Valuer(_child_net(mb), mb, mode=mode).value_of_action_at_node(_act())
            if v != 0.0:
                problems.append(("nonzero-null", mode.value, v))

    # goal scaling leaves the knapsack argmax set unchanged
    for _ in range(40):
        entries = rng.random((2, 3, 2)) + 1e-3
        entries /= entries.sum(axis=(0, 1), keepdims=True)
        scale = float(rng.uniform(0.1, 50.0))
        selections = []
        for c in (1.0, scale):
            mb = _two_level(entries.tolist(), goal=0.8 * c)
            val = Valuer(_child_net(mb), mb)
            a, b = _act(cost=10), _act(cost=25)
            b.id = "child:act2"
            val.value_all_candidates([a, b])
            inst = KnapsackInstance(
                items=(KnapsackItem(a.id, a.value, a.cost),
                       KnapsackItem(b.id, b.value, b.cost)),
                budget=25,
            )
            selections.append(solve_exact(inst).selected)
        if selections[0] != selections[1]:
            problems.append(("argmax", selections))

    # the hand-derived two-level case, exact to 1e-12
    hand = [[[0.5, 0.2], [0.4, 0.1]], [[0.06, 0.42], [0.04, 0.28]]]
    mb = _two_level(hand)
    got = Valuer(_child_net(mb), mb).value_of_action_at_hypothesis("h", _act())
    if abs(got - 0.2) > 1e-12:
        problems.append(("hand-case", got))

    verdict(
        3,
        not problems,
        "values nonnegative; parent-independent tables score exactly 0; goal "
        "scaling preserves knapsack argmax; V(Parent)=0.8 with |dp|=0.25 gives "
        "0.2 to 1e-12" + (f" problems={problems[:3]}" if problems else ""),
    )


def test_criterion_4_selection_trace_replay():
    items = (
        KnapsackItem("refine-type", 11522, 1600),
        KnapsackItem("search", 5761, 842),
        KnapsackItem("terrain-1", 1125, 820),
        KnapsackItem("terrain-2", 769, 820),
        KnapsackItem("terrain-3", 769, 820),
        KnapsackItem("terrain-4", 217, 820),
    )
    full = solve_exact(KnapsackInstance(items=items, budget=5722))
    tight = solve_exact(KnapsackInstance(items=items, budget=1600))
    ok = (
        len(full.selected) == 6
        and full.total_value == 20163
        and full.total_cost == 5722
        and tight.selected == ("refine-type",)
        and tight.total_value == 11522
    )
    verdict(
        4,
        ok,
        "published step-1 values/costs: budget 5722 selects all six items "
        "(value 20163); budget 1600 selects exactly the refine-type item",
    )


@pytest.fixture(scope="module")
def brigade_report():
    return Controller(load_scenario(BRIGADE)).run()


def test_criterion_5_end_to_end_scenario(brigade_report):
    report = brigade_report
    problems = []

    if len(report["initial_net"]["nodes"]) != 4:
        problems.append(("clusters", len(report["initial_net"]["nodes"])))

    born_at = {}
    for step in report["steps"]:
        for n in step["beliefs_after"]["nodes"]:
            born_at.setdefault(n["id"], step["step"])
    force_steps = sorted(v for k, v in born_at.items() if k.startswith("force"))
    brigade_steps = sorted(v for k, v in born_at.items() if k.startswith("brigade-level"))
    if not force_steps or not brigade_steps:
        problems.append(("missing-parents", sorted(born_at)))
    elif not (max(force_steps) <= min(brigade_steps)):
        problems.append(("order", force_steps, brigade_steps))
    else:
        for step_idx in set(force_steps) | set(brigade_steps):
            step = report["steps"][step_idx - 1]
            matched = [c for c in step["completions"] if "search" in c[0] and c[1] == "match"]
            if not matched:
                problems.append(("no-search-match", step_idx))
    final = {n["id"]: n for n in report["final_beliefs"]["nodes"]}
    tops = {
        nid: n["labels"][int(np.argmax(n["belief"]))]
        for nid, n in final.items()
        if nid.startswith("force")
    }
    if sorted(tops.values()) != ["catapult-battalion", "task-force"]:
        problems.append(("force-resolution", tops))

    if report["terminated_reason"] != "terminated":
        problems.append(("reason", report["terminated_reason"]))
    if not (5 <= len(report["steps"]) <= 8):
        problems.append(("steps", len(report["steps"])))
    if not (report["winner"]["label"] == "brigade" and report["winner"]["belief"] >= 0.99):
        problems.append(("winner", report["winner"]))

    step1 = report["steps"][0]["candidates"]
    refine = sum(c["value"] for c in step1 if c["kind"] == "REFINE-TYPE")
    search = sum(c["value"] for c in step1 if c["kind"] == "SEARCH")
    if not refine > search:
        problems.append(("kind-ordering", refine, search))

    again = Controller(load_scenario(BRIGADE)).run()
    if json.dumps(again, sort_keys=True) != json.dumps(report, sort_keys=True):
        problems.append(("determinism",))

    verdict(
        5,
        not problems,
        "bundled brigade scenario: 4 company clusters; SEARCH instantiates "
        "task-force/catapult-battalion parents then a brigade ancestor; "
        f"terminates in {len(report['steps'])} steps at belief "
        f"{report['winner']['belief']:.4f} >= 0.99; refine bundle "
        f"({refine:.0f}) valued above search bundle ({search:.0f}); "
        "deterministic per seed"
        + (f" problems={problems[:3]}" if problems else ""),
    )


def test_criterion_6_separability_replay(brigade_report):
    replayed = replay_scenario(load_scenario(BRIGADE), brigade_report)
    ok = (
        replayed["final_beliefs"] == brigade_report["final_beliefs"]
        and replayed["terminated_reason"] == brigade_report["terminated_reason"]
    )
    verdict(
        6,
        ok,
        "recorded plan sequence replayed with the planner disabled reproduces "
        "final beliefs exactly",
    )


def test_criterion_7_simulation_discipline(brigade_report):
    problems = list(audit_report(brigade_report))
    for seed in (2, 3, 8):
        report = Controller(load_scenario(BRIGADE), seed=seed, max_wall=12_000).run()
        problems.extend(f"seed {seed}: {v}" for v in audit_report(report))
    verdict(
        7,
        not problems,
        "trace auditor: in-flight actions never exceed the processor count and "
        "per-step selected cost never exceeds the budget, across the default "
        "run and seeds 2, 3, 8"
        + (f" violations={problems[:3]}" if problems else ""),
    )
