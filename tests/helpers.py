"""Independent oracles and little builders shared by the test modules.

The oracles here deliberately avoid the library's own inference paths:
marginals come from full-joint enumeration with plain Python floats,
knapsack optima from exhaustive subset enumeration, and approximate plans
from the value-scaling solver over its full, unbounded table.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from percept.bayes_net import BayesNet
from percept.model_base import ConditionalTable, HypothesisSet
from percept.planner import (
    EMPTY_PLAN,
    TABLE_CELL_LIMIT,
    KnapsackInstance,
    Plan,
    _plan_from_ids,
)
from percept.world import Cluster, ClusterParams


# -- polytree specification + enumeration oracle -----------------------------

class NetSpec:
    """Plain description of a net: nodes, directed edges, evidence."""

    def __init__(self):
        self.nodes: dict[str, tuple[int, list[float]]] = {}  # id -> (card, prior)
        self.edges: list[tuple[str, str, list[list[float]]]] = []
        self.evidence: dict[str, list[list[float]]] = {}

    def add_node(self, nid: str, prior):
        self.nodes[nid] = (len(prior), list(prior))

    def add_edge(self, parent: str, child: str, rows):
        self.edges.append((parent, child, [list(r) for r in rows]))

    def add_evidence(self, nid: str, vec):
        self.evidence.setdefault(nid, []).append(list(vec))


def enumerate_marginals(spec: NetSpec) -> dict[str, list[float]]:
    """Exact marginals by brute-force enumeration of the full joint.

    Children with several parents combine their per-edge tables by a
    normalized product over the child labels, matching the network's
    declared semantics; everything here is recomputed from the raw rows.
    """
    ids = list(spec.nodes)
    cards = [spec.nodes[i][0] for i in ids]
    parents_of: dict[str, list[tuple[str, list[list[float]]]]] = {i: [] for i in ids}
    for p, c, rows in spec.edges:
        parents_of[c].append((p, rows))

    totals = {i: [0.0] * spec.nodes[i][0] for i in ids}
    for assignment in itertools.product(*(range(c) for c in cards)):
        state = dict(zip(ids, assignment))
        prob = 1.0
        for nid in ids:
            if parents_of[nid]:
                weights = [1.0] * spec.nodes[nid][0]
                for p, rows in parents_of[nid]:
                    for x in range(spec.nodes[nid][0]):
                        weights[x] *= rows[state[p]][x]
                z = sum(weights)
                if z == 0.0:
                    prob = 0.0
                    break
                prob *= weights[state[nid]] / z
            else:
                prob *= spec.nodes[nid][1][state[nid]]
            for vec in spec.evidence.get(nid, []):
                prob *= vec[state[nid]]
        if prob == 0.0:
            continue
        for nid in ids:
            totals[nid][state[nid]] += prob

    out = {}
    for nid, t in totals.items():
        z = sum(t)
        out[nid] = [x / z for x in t]
    return out


def build_net(spec: NetSpec) -> BayesNet:
    """Materialize a NetSpec through the library's own construction ops."""
    net = BayesNet()
    for nid, (card, prior) in spec.nodes.items():
        labels = tuple(f"{nid}_{k}" for k in range(card))
        net.instantiate_node(
            HypothesisSet(labels=labels, priors=np.array(prior)), node_id=nid
        )
    for k, (p, c, rows) in enumerate(spec.edges):
        table = ConditionalTable(
            id=f"t{k}",
            parent_labels=net.node(p).labels,
            child_labels=net.node(c).labels,
            rows=np.array(rows),
        )
        net.link(p, c, table)
    for nid, vecs in spec.evidence.items():
        for vec in vecs:
            net.attach_evidence(nid, np.array(vec))
    return net


def random_polytree(
    rng: np.random.Generator,
    max_nodes: int = 8,
    max_labels: int = 4,
    joint_cap: int = 20000,
    evidence_prob: float = 0.7,
) -> NetSpec:
    """Random polytree within the size bounds, with random evidence.

    The undirected skeleton is a uniform random tree, so single
    connectedness holds by construction; edge directions are random, which
    exercises multi-parent nodes.
    """
    while True:
        n = int(rng.integers(2, max_nodes + 1))
        cards = [int(rng.integers(2, max_labels + 1)) for _ in range(n)]
        if math.prod(cards) <= joint_cap:
            break
    spec = NetSpec()
    for i, card in enumerate(cards):
        prior = rng.dirichlet(np.ones(card) * 2.0)
        spec.add_node(f"n{i}", prior)
    for i in range(1, n):
        j = int(rng.integers(0, i))
        a, b = (i, j) if rng.random() < 0.5 else (j, i)
        rows = rng.dirichlet(np.ones(cards[b]) * 1.5, size=cards[a])
        spec.add_edge(f"n{a}", f"n{b}", rows)
    for i in range(n):
        if rng.random() < evidence_prob:
            vec = rng.uniform(0.05, 1.0, size=cards[i])
            spec.add_evidence(f"n{i}", vec)
    return spec


# -- tiny one-level scenario for controller tests ------------------------------

def tiny_scenario(
    prior=0.6,
    budget=100,
    termination=0.8,
    processors=1,
    seed=5,
    repeatable=False,
    units=2,
    strength=(0.5, 0.5),
    actions=True,
    max_wall=10_000,
):
    """Single-group world: goal nodes come straight from clustering.

    The one action is a self-bearing classification probe whose outcome
    strongly separates 'thing' from 'other'.
    """
    entities = []
    for k in range(units):
        x = 5.0 + 15.0 * k
        entities.append({"id": f"w{k}", "type": "thing", "x": x, "y": 5.0})
        for j, (dx, dy) in enumerate([(0, 0), (1, 0), (0, 1)]):
            entities.append(
                {"id": f"w{k}v{j}", "type": "vehicle", "x": x + dx, "y": 5.0 + dy,
                 "member_of": f"w{k}"}
            )
    return {
        "models": [{"id": "thing", "prior": prior, "isa_group": "stuff"}],
        "cpts": {},
        "outcome_tables": {
            "probe": {
                "action_kind": "CLASSIFICATION",
                "child_labels": ["thing", "other"],
                "outcomes": ["is-thing", "is-other"],
                "parent_labels": ["thing", "other"],
                "entries": [
                    [[0.873, 0.097], [0.027, 0.003]],
                    [[0.005, 0.045], [0.095, 0.855]],
                ],
            }
        },
        "actions": (
            [
                {"id": "probe-action", "kind": "CLASSIFICATION",
                 "applicable_to": ["thing"], "cost": 50,
                 "outcome_table": "probe", "repeatable": repeatable}
            ]
            if actions
            else []
        ),
        "goal_values": {"thing": 1.0},
        "world": {
            "entities": entities,
            "terrain": {
                "width": 60, "height": 20, "cells": [["open"]],
                "support": {"open": {"default": "supports"}},
            },
            "detect_prob": 1.0,
            "false_alarm_rate": 0.0,
            "detection_strength": {"true": list(strength), "false": [0.1, 0.2]},
            "cluster_params": {
                "max_intervehicle_distance": 3.0, "min_count": 1,
                "max_count": 10, "max_extent": 10.0,
            },
        },
        "control": {
            "budget_T": budget, "epsilon": 0.1, "processors": processors,
            "termination_belief": termination, "seed": seed, "max_wall": max_wall,
        },
    }


# -- knapsack oracle ----------------------------------------------------------

def brute_force_knapsack(items, budget):
    """Best (value, cost, sorted ids) over all subsets, canonically tie-broken:
    maximum value, then minimum cost, then lexicographically smallest ids."""
    best = None
    n = len(items)
    for mask in range(1 << n):
        value = cost = 0.0
        ids = []
        for i in range(n):
            if mask >> i & 1:
                value += items[i].value
                cost += items[i].cost
                ids.append(items[i].id)
        if cost > budget:
            continue
        key = (-value, cost, tuple(sorted(ids)))
        if best is None or key < best:
            best = key
    return -best[0], best[1], best[2]


# The value-scaling scheme over its full table: min_cost and keep span
# every scaled value sum.  The reference that ``solve_approx``'s table over
# cost must match plan for plan.
def unbounded_solve_approx(inst: KnapsackInstance, epsilon: float) -> Plan:
    """Approximate plan with relative value error strictly below ``epsilon``.

    Value-scaling scheme: values are scaled by K = epsilon * Vmax / N and
    floored, then a min-cost dynamic program over scaled value recovers a
    plan whose true value P satisfies (P' - P)/P' < epsilon.  Deterministic
    for fixed input; zero-value items are never selected.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    items = sorted(
        (it for it in inst.items if it.cost <= inst.budget and it.value > 0),
        key=lambda it: it.id,
    )
    if not items:
        return EMPTY_PLAN
    vmax = max(it.value for it in items)
    scale = epsilon * vmax / len(items)
    scaled = [int(math.floor(it.value / scale)) for it in items]
    total = sum(scaled)

    min_cost = np.full(total + 1, math.inf)
    min_cost[0] = 0.0
    keep = np.zeros((len(items), total + 1), dtype=bool)
    for i, (it, s) in enumerate(zip(items, scaled)):
        if s == 0:
            continue
        cand = min_cost[:-s] + it.cost
        takes = keep[i, s:]
        np.less(cand, min_cost[s:], out=takes)  # strict: prefer excluding on cost ties
        np.copyto(min_cost[s:], cand, where=takes)

    reachable = np.flatnonzero(min_cost <= inst.budget)
    best_s = int(reachable.max())
    sel = []
    s = best_s
    for i in range(len(items) - 1, -1, -1):
        if keep[i, s]:
            sel.append(items[i].id)
            s -= scaled[i]
    return _plan_from_ids(inst, sel)


# Knapsack instances (as ``percept knapsack`` reads them) that every solver
# rejects, each with the start of its ValueError message: a cost off a
# whole number by any amount, however small; costs 1 and TABLE_CELL_LIMIT,
# whose table over gcd 1 holds more cells than the limit; and malformed
# records.
def _bad_instance(name, items, message, budget=3):
    return pytest.param({"items": items, "budget_T": budget}, message, id=name)


BAD_KNAPSACK_INSTANCES = [
    *(
        _bad_instance(
            f"cost-{cost!r}",
            [{"id": "a", "value": 1, "cost": cost}, {"id": "b", "value": 1, "cost": 1}],
            f"item a: cost must be a whole number, got {cost!r}",
        )
        for cost in (1 + 1e-12, 3 - 1e-12, 2.5)
    ),
    _bad_instance(
        "cell-limit",
        [{"id": "a", "value": 1, "cost": 1},
         {"id": "b", "value": 1, "cost": TABLE_CELL_LIMIT}],
        "a knapsack table of ",
        budget=TABLE_CELL_LIMIT,
    ),
    _bad_instance("no-cost", [{"id": "a", "value": 1}], "items[0]: missing 'cost'"),
    _bad_instance(
        "value-x",
        [{"id": "a", "value": "x", "cost": 1}],
        "items[0].value: expected a number, got 'x'",
    ),
    _bad_instance(
        "value-true",
        [{"id": "a", "value": True, "cost": 1}],
        "items[0].value: expected a number, got True",
    ),
    _bad_instance("budget-true", [], "budget_T: expected a number, got True", budget=True),
    _bad_instance("items-5", 5, "items: expected a list, got 5"),
    _bad_instance("budget-list", [], "budget_T: expected a number, got []", budget=[]),
    pytest.param([{"items": []}], "instance: expected an object", id="list"),
]


# -- bundled and tiled scenarios ------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
BRIGADE = ROOT / "src/percept/scenarios/brigade.json"


def tiled_brigade(k: int) -> dict:
    """The bundled brigade tiled ``k`` times, via the benchmark's own tiler
    (``bench/tiling.py``, imported by path)."""
    spec = importlib.util.spec_from_file_location("tiling", ROOT / "bench/tiling.py")
    tiling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tiling)
    raw = json.loads(BRIGADE.read_text(encoding="utf-8"))
    return tiling.tile_scenario(raw, k)


# -- clustering oracle ----------------------------------------------------------

# Single-linkage clustering as it was before pairs were bucketed into grid
# cells: every pair of detections is compared.  Kept verbatim as the
# reference the grid version must match cluster for cluster.
def all_pairs_cluster_detections(
    detections,
    params: ClusterParams,
    base: HypothesisSet | None = None,
) -> list[Cluster]:
    """Single-linkage clustering under the inter-vehicle distance threshold.

    Components are filtered to the allowed member count and maximum extent;
    each survivor yields one hypothesis seed whose priors tilt the base set
    by the cluster's mean detection strength (the null label receives the
    complement).  The result is invariant to detection order.
    """
    detections = list(detections)
    n = len(detections)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # permutation invariance: process pairs on canonical positions, and
    # union-find components do not depend on processing order anyway
    for i in range(n):
        for j in range(i + 1, n):
            d = math.hypot(
                detections[i].x - detections[j].x, detections[i].y - detections[j].y
            )
            if d <= params.max_intervehicle_distance:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    clusters = []
    for members in groups.values():
        if not (params.min_count <= len(members) <= params.max_count):
            continue
        pts = [(detections[i].x, detections[i].y) for i in members]
        extent = max(
            (math.hypot(a[0] - b[0], a[1] - b[1]) for a in pts for b in pts),
            default=0.0,
        )
        if extent > params.max_extent:
            continue
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        strength = sum(detections[i].strength for i in members) / len(members)
        seed = None
        if base is not None:
            tilt = np.array(
                [
                    (1.0 - strength) if lab == base.null_label else strength
                    for lab in base.labels
                ]
            )
            priors = np.array(base.priors) * tilt
            total = priors.sum()
            if total <= 0:
                priors = np.array(base.priors)
            else:
                priors = priors / total
            seed = HypothesisSet(
                labels=base.labels, priors=priors, null_label=base.null_label
            )
        clusters.append(
            Cluster(
                members=tuple(sorted(members)),
                centroid=(cx, cy),
                extent=extent,
                strength=strength,
                seed=seed,
            )
        )
    clusters.sort(key=lambda c: (c.centroid[0], c.centroid[1]))
    return clusters
