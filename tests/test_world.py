"""Ground truth, detection statistics, clustering, and outcome sampling."""

import copy
import dataclasses
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from helpers import all_pairs_cluster_detections, tiny_scenario
from percept import world as world_module
from percept.controller import Controller
from percept.errors import ScenarioError, UnknownIdError
from percept.model_base import HypothesisSet, build_model_base, load_scenario
from percept.world import (
    Binding,
    Cluster,
    ClusterParams,
    Detection,
    TerrainGrid,
    World,
    WorldEntity,
    bind_cluster,
    cluster_detections,
    generate_detections,
    terrain_support,
)

BRIGADE = Path(__file__).resolve().parents[1] / "src/percept/scenarios/brigade.json"


def grid_world(vehicles, detect_prob=1.0, far=0.0, params=None):
    entities = {}
    for i, (x, y) in enumerate(vehicles):
        e = WorldEntity(id=f"v{i}", type="vehicle", x=x, y=y)
        entities[e.id] = e
    return World(
        entities=entities,
        terrain=TerrainGrid(100, 100, [["open"]], {"open": {"default": "supports"}}),
        detect_prob=detect_prob,
        false_alarm_rate=far,
        cluster_params=params
        or ClusterParams(
            max_intervehicle_distance=5.0, min_count=1, max_count=100, max_extent=1000.0
        ),
    )


class TestDetections:
    def test_perfect_detection_no_false_alarms(self):
        world = grid_world([(1, 1), (2, 2), (50, 50)])
        dets = generate_detections(world, rng=np.random.default_rng(0))
        assert len(dets) == 3
        assert {(d.x, d.y) for d in dets} == {(1, 1), (2, 2), (50, 50)}
        assert not any(d.is_false_alarm for d in dets)

    def test_no_detections(self):
        world = grid_world([(1, 1), (2, 2)], detect_prob=0.0)
        assert generate_detections(world, rng=np.random.default_rng(0)) == ()

    def test_detection_rate_monte_carlo(self):
        # 50 vehicles x 200 trials = 10^4 vehicle-trials at p = 0.8
        world = grid_world([(i, i) for i in range(50)], detect_prob=0.8)
        rng = np.random.default_rng(7)
        total = sum(len(generate_detections(world, rng=rng)) for _ in range(200))
        assert abs(total / 10_000 - 0.8) < 0.02

    def test_false_alarm_rate_is_per_unit_area(self):
        world = grid_world([], far=0.002)  # rate * area = 20 expected
        rng = np.random.default_rng(11)
        counts = [len(generate_detections(world, rng=rng)) for _ in range(300)]
        assert abs(np.mean(counts) - 20.0) < 1.0
        assert all(d.is_false_alarm for d in generate_detections(world, rng=rng))

    def test_seed_determinism(self):
        world = grid_world([(i, 2 * i) for i in range(20)], detect_prob=0.7, far=0.001)
        a = generate_detections(world, rng=np.random.default_rng(3))
        b = generate_detections(world, rng=np.random.default_rng(3))
        assert a == b


def det(x, y, s=0.8):
    return Detection(x=x, y=y, strength=s)


class TestClustering:
    def test_far_apart_singletons_filtered_by_min_count(self):
        params = ClusterParams(
            max_intervehicle_distance=1.0, min_count=2, max_count=10, max_extent=100.0
        )
        assert cluster_detections([det(0, 0), det(10, 10)], params) == []

    def test_far_apart_singletons_survive_with_min_count_one(self):
        params = ClusterParams(
            max_intervehicle_distance=1.0, min_count=1, max_count=10, max_extent=100.0
        )
        clusters = cluster_detections([det(0, 0), det(10, 10)], params)
        assert [c.members for c in clusters] == [(0,), (1,)]

    def test_single_linkage_chains(self):
        params = ClusterParams(
            max_intervehicle_distance=1.5, min_count=1, max_count=10, max_extent=100.0
        )
        chain = [det(0, 0), det(1, 0), det(2, 0), det(3, 0)]
        clusters = cluster_detections(chain, params)
        assert len(clusters) == 1
        assert clusters[0].members == (0, 1, 2, 3)

    def test_max_extent_filter(self):
        params = ClusterParams(
            max_intervehicle_distance=1.5, min_count=1, max_count=10, max_extent=2.0
        )
        chain = [det(0, 0), det(1, 0), det(2, 0), det(3, 0)]
        assert cluster_detections(chain, params) == []

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pts = [det(float(x), float(y), 0.7) for x, y in rng.uniform(0, 30, (40, 2))]
        params = ClusterParams(
            max_intervehicle_distance=3.0, min_count=1, max_count=50, max_extent=100.0
        )

        def membership(clusters, source):
            return sorted(
                tuple(sorted((source[i].x, source[i].y) for i in c.members))
                for c in clusters
            )

        base = membership(cluster_detections(pts, params), pts)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(pts))
            shuffled = [pts[i] for i in perm]
            again = membership(cluster_detections(shuffled, params), shuffled)
            assert again == base

    @staticmethod
    def cluster_key(clusters):
        return [
            (c.members, c.centroid, c.extent, c.strength,
             c.seed.labels, c.seed.priors.tolist())
            for c in clusters
        ]

    @pytest.mark.parametrize("seed", range(12))
    def test_grid_matches_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        base = HypothesisSet(
            labels=("a", "b", "other"), priors=np.array([0.4, 0.4, 0.2]), null_label="other"
        )
        threshold = float(rng.choice((0.5, 2.0, 3.0, 0.3, rng.uniform(0.1, 8.0))))
        params = ClusterParams(
            max_intervehicle_distance=threshold, min_count=1,
            max_count=int(rng.integers(1, 12)), max_extent=float(rng.uniform(1.0, 40.0)),
        )
        n = int(rng.integers(0, 150))
        pts = [tuple(p) for p in rng.uniform(-40.0, 40.0, (n, 2))]
        # lattice points on cell boundaries, whose neighbours sit at exactly
        # the threshold, some nudged one float step either way
        for _ in range(int(rng.integers(0, 60))):
            x, y = (float(k) * threshold for k in rng.integers(-6, 7, 2))
            if rng.random() < 0.3:
                x = np.nextafter(x, rng.choice((-np.inf, np.inf)))
            pts.append((x, y))
            pts.append((x + threshold, y) if rng.random() < 0.5 else (x, y - threshold))
        pts.append((-5e-324, 0.0))  # just below a cell edge, at the threshold
        pts.append((threshold, 0.0))
        order = rng.permutation(len(pts))
        dets = [det(float(pts[i][0]), float(pts[i][1]), float(rng.random())) for i in order]
        got = cluster_detections(dets, params, base=base)
        want = all_pairs_cluster_detections(dets, params, base=base)
        assert self.cluster_key(got) == self.cluster_key(want)

    def test_strength_tilts_seed_priors(self):
        base = HypothesisSet(
            labels=("a", "b", "other"), priors=np.array([0.4, 0.4, 0.2]), null_label="other"
        )
        params = ClusterParams(
            max_intervehicle_distance=2.0, min_count=2, max_count=10, max_extent=10.0
        )
        strong = cluster_detections([det(0, 0, 0.9), det(1, 0, 0.9)], params, base=base)
        weak = cluster_detections([det(0, 0, 0.2), det(1, 0, 0.2)], params, base=base)
        s, w = strong[0].seed, weak[0].seed
        assert s.priors[2] < base.priors[2] < w.priors[2]
        assert abs(s.priors.sum() - 1) < 1e-9 and abs(w.priors.sum() - 1) < 1e-9

    def test_bundled_scenario_yields_four_company_clusters(self):
        mb = load_scenario(BRIGADE)
        ctl = Controller(mb)
        ctl.initialize()
        assert len(ctl.clusters) == 4
        assert sorted(ctl.net.nodes) == ["u1", "u2", "u3", "u4"]


class TestBindCluster:
    @staticmethod
    def at(x, y):
        return Cluster(members=(0,), centroid=(x, y), extent=0.0, strength=0.5)

    @staticmethod
    def unit(eid, x, y):
        return WorldEntity(id=eid, type="company", x=x, y=y)

    def test_nearest_unit_wins(self):
        units = [self.unit("a", 0.0, 0.0), self.unit("b", 3.0, 0.0)]
        binding = bind_cluster(units, self.at(2.0, 0.5), max_extent=10.0)
        assert (binding.entity, binding.x, binding.y) == ("b", 2.0, 0.5)

    def test_tie_goes_to_first_unit(self):
        left, right = self.unit("l", -1.0, 0.0), self.unit("r", 1.0, 0.0)
        assert bind_cluster([left, right], self.at(0.0, 0.0), 10.0).entity == "l"
        assert bind_cluster([right, left], self.at(0.0, 0.0), 10.0).entity == "r"

    def test_beyond_max_extent_binds_nothing(self):
        units = [self.unit("a", 5.0, 0.0)]
        assert bind_cluster(units, self.at(0.0, 0.0), max_extent=4.9).entity is None
        assert bind_cluster(units, self.at(0.0, 0.0), max_extent=5.0).entity == "a"
        assert bind_cluster([], self.at(0.0, 0.0), max_extent=5.0).entity is None

    def test_controller_ignores_nearer_vehicles(self):
        # units moved 2 away from their vehicles, well within max_extent 9
        raw = json.loads(BRIGADE.read_text(encoding="utf-8"))
        for e in raw["world"]["entities"]:
            if e["type"] != "vehicle":
                e["y"] += 2.0
        ctl = Controller(build_model_base(raw))
        ctl.initialize()
        unit_types = set(ctl.mb.hypothesis_set(ctl.mb.leaf_group()).labels)
        vehicles = ctl.world.vehicles()
        for k, cluster in enumerate(ctl.clusters):
            bound = ctl.world.entity(ctl.bindings[f"u{k + 1}"].entity)
            assert bound.type in unit_types
            cx, cy = cluster.centroid
            nearest = min(np.hypot(v.x - cx, v.y - cy) for v in vehicles)
            assert nearest < np.hypot(bound.x - cx, bound.y - cy)


class TestTerrain:
    def grid(self):
        return TerrainGrid(
            width=20,
            height=10,
            cells=[["open", "water"], ["forest", "open"]],
            support={
                "open": {"default": "supports"},
                "water": {"default": "contradicts"},
                "forest": {"default": "neutral", "scout": "supports"},
            },
        )

    def test_open_supports_any_force(self):
        assert terrain_support((5, 2), self.grid(), "team") == "supports"
        assert terrain_support((5, 2), self.grid(), None) == "supports"

    def test_water_contradicts_ground_force(self):
        assert terrain_support((15, 2), self.grid(), "team") == "contradicts"

    def test_force_specific_entry_wins(self):
        assert terrain_support((5, 7), self.grid(), "scout") == "supports"
        assert terrain_support((5, 7), self.grid(), "team") == "neutral"

    def test_out_of_grid_clamps_to_nearest_cell(self):
        assert terrain_support((-3, -3), self.grid(), "team") == "supports"
        assert terrain_support((1000, -5), self.grid(), "team") == "contradicts"

    def test_non_finite_position_rejected(self):
        with pytest.raises(ValueError):
            terrain_support((float("nan"), 0), self.grid(), "team")


@pytest.fixture(scope="module")
def started():
    mb = load_scenario(BRIGADE)
    ctl = Controller(mb)
    ctl.initialize()
    return mb, ctl


class TestExecution:
    def find(self, ctl, kind, target):
        return next(
            c
            for c in ctl.enumerate_candidates()
            if c.kind == kind and c.target_node == target
        )

    def test_classification_correct_type_rate(self, started):
        from percept.world import execute_action

        mb, ctl = started
        battery_node = next(
            n for n, b in ctl.bindings.items() if b.entity == "w-battery"
        )
        act = self.find(ctl, "CLASSIFICATION", battery_node)
        rng = np.random.default_rng(123)
        hits = 0
        n = 4000
        for _ in range(n):
            res = execute_action(act, ctl.world, ctl.net, lambda: rng, ctl.bindings, mb)
            hits += res.outcome == "class-battery"
        assert hits / n >= 0.88  # table rate is 0.90

    def test_outcome_frequencies_match_table(self, started):
        from percept.world import _sample_outcome

        mb, _ = started
        table = mb.outcome_table("refine_company")
        rng = np.random.default_rng(9)
        n = 100_000
        counts = dict.fromkeys(table.outcomes, 0)
        for _ in range(n):
            counts[_sample_outcome(table, "team", "task-force", rng)] += 1
        ci = table.child_labels.index("team")
        pi = table.parent_labels.index("task-force")
        row = table.entries[ci, :, pi]
        row = row / row.sum()
        for oi, outcome in enumerate(table.outcomes):
            assert abs(counts[outcome] / n - row[oi]) < 0.01

    def test_terrain_action_is_deterministic(self, started):
        from percept.world import execute_action

        mb, ctl = started
        act = self.find(ctl, "TERRAIN-SUPPORT", "u1")
        outs = {
            execute_action(
                act, ctl.world, ctl.net, lambda: np.random.default_rng(s), ctl.bindings, mb
            ).outcome
            for s in range(10)
        }
        assert outs == {"supports"}

    def test_search_aborts_while_unconfirmed(self, started):
        from percept.world import execute_action

        mb, ctl = started
        act = self.find(ctl, "SEARCH", "u1")
        res = execute_action(
            act, ctl.world, ctl.net, lambda: np.random.default_rng(0), ctl.bindings, mb
        )
        assert res.outcome == "no_match"
        assert not res.informative
        assert res.siblings is None

    def test_search_matches_once_confirmed(self):
        from percept.world import execute_action

        mb = load_scenario(BRIGADE)
        ctl = Controller(mb)
        ctl.initialize()
        # confirm the three task-force companies directly
        for nid, binding in ctl.bindings.items():
            ent = ctl.world.entity(binding.entity)
            lam = [
                8.0 if lab == ent.type else 0.02
                for lab in ctl.net.node(nid).labels
            ]
            ctl.net.attach_evidence(nid, np.array(lam))
        ctl.net.propagate()
        team_node = next(n for n, b in ctl.bindings.items() if b.entity == "w-team-a")
        act = self.find(ctl, "SEARCH", team_node)
        res = execute_action(
            act, ctl.world, ctl.net, lambda: np.random.default_rng(1), ctl.bindings, mb
        )
        assert res.outcome == "match"
        assert res.parent_entity == "w-tf"
        assert len(res.siblings) == 3  # both teams and the HQ

    def test_outcome_determinism_per_stream(self, started):
        from percept.world import execute_action

        mb, ctl = started
        act = self.find(ctl, "REFINE-TYPE", "u2")
        rng = partial(np.random.default_rng, 4)
        a = execute_action(act, ctl.world, ctl.net, rng, ctl.bindings, mb)
        b = execute_action(act, ctl.world, ctl.net, rng, ctl.bindings, mb)
        assert a == b

    @pytest.mark.parametrize(
        "kind, calls",
        [("TERRAIN-SUPPORT", 0), ("SEARCH", 0), ("CLASSIFICATION", 1)],
    )
    def test_generator_built_only_to_sample(self, started, kind, calls):
        """A lookup or an aborted search builds no generator; a sampled
        outcome builds exactly one."""
        from percept.world import execute_action

        mb, ctl = started
        made = []

        def factory():
            made.append(1)
            return np.random.default_rng(0)

        act = self.find(ctl, kind, "u1")
        res = execute_action(act, ctl.world, ctl.net, factory, ctl.bindings, mb)
        assert len(made) == calls
        assert res.informative == (kind != "SEARCH")  # u1 is unconfirmed


def test_membership_cycle_rejected():
    with pytest.raises(ScenarioError):
        World(
            entities={
                "a": WorldEntity(id="a", type="vehicle", x=0, y=0, member_of="b"),
                "b": WorldEntity(id="b", type="vehicle", x=1, y=1, member_of="a"),
            },
            terrain=TerrainGrid(1, 1, [["open"]], {"open": {"default": "supports"}}),
            detect_prob=1.0,
            false_alarm_rate=0.0,
            cluster_params=ClusterParams(
                max_intervehicle_distance=1, min_count=1, max_count=5, max_extent=5
            ),
        )


# -- every branch of execute_action, pinned ------------------------------------

def _confirm(ctl, node_ids):
    """Confirm each node at its bound entity's type, then propagate."""
    for nid in node_ids:
        ent = ctl.world.entity(ctl.bindings[nid].entity)
        lam = [8.0 if lab == ent.type else 0.02 for lab in ctl.net.node(nid).labels]
        ctl.net.attach_evidence(nid, np.array(lam))
    ctl.net.propagate()


def _brigade(confirm):
    """An initialized brigade controller and its nodes by bound entity, with
    the nodes bound to the entities in ``confirm`` (all, if None) confirmed."""
    ctl = Controller(load_scenario(BRIGADE))
    ctl.initialize()
    node_of = {b.entity: n for n, b in ctl.bindings.items()}
    _confirm(ctl, [node_of[e] for e in (node_of if confirm is None else confirm)])
    return ctl, node_of


@pytest.fixture(scope="module")
def branch_contexts():
    tiny = Controller(build_model_base(tiny_scenario(units=1)))
    tiny.initialize()
    return {
        "unconfirmed": _brigade([]),
        "team-a": _brigade(["w-team-a"]),
        "confirmed": _brigade(None),
        "tiny": (tiny, {b.entity: n for n, b in tiny.bindings.items()}),
    }


def _unbound(ctl, node):
    """The controller's bindings with ``node`` bound to no entity."""
    b = ctl.bindings[node]
    return {**ctl.bindings, node: Binding(entity=None, x=b.x, y=b.y)}


def _orphaned(ctl, entity_id):
    """A copy of the controller's world where ``entity_id`` belongs to nothing."""
    world = copy.copy(ctl.world)
    ent = world.entities[entity_id]
    world.entities = {**world.entities, entity_id: dataclasses.replace(ent, member_of=None)}
    return world


# id: (context, template, target entity, how the world or bindings change,
#      outcome the stubbed samplers return, expected draw, informative,
#      whether siblings and parent come back, generators built)
_BRANCHES = {
    "terrain-bound": ("confirmed", "terrain-unit", "w-team-a", None, None,
                      None, True, False, 0),
    "terrain-unbound": ("confirmed", "terrain-unit", "w-team-a", "unbind", None,
                        None, True, False, 0),
    "search-unconfirmed": ("unconfirmed", "search-unit", "w-team-a", None, None,
                           None, False, False, 0),
    "search-unbound": ("confirmed", "search-unit", "w-team-a", "unbind", "match",
                       ("null", "other"), True, False, 1),
    "search-no-parent-entity": ("confirmed", "search-unit", "w-team-a", "orphan", "match",
                                ("null", "other"), True, False, 1),
    "search-too-few-siblings": ("team-a", "search-unit", "w-team-a", None, "match",
                                None, False, False, 0),
    "search-match": ("confirmed", "search-unit", "w-team-a", None, "match",
                     ("table", "team", "task-force"), True, True, 1),
    "search-draws-no-match": ("confirmed", "search-unit", "w-team-a", None, "no_match",
                              ("table", "team", "task-force"), True, False, 1),
    "plain-unbound": ("unconfirmed", "classify", "w-team-a", "unbind", "class-team",
                      ("null", "other"), True, False, 1),
    "plain-bound": ("unconfirmed", "classify", "w-team-a", None, "class-team",
                    ("table", "team", "task-force"), True, False, 1),
    "plain-no-parent-entity": ("unconfirmed", "refine-type", "w-team-a", "orphan",
                               "looks-team", ("table", "team", "other"), True, False, 1),
    "self-bearing": ("tiny", "probe-action", "w0", None, "is-thing",
                     ("table", "thing", "thing"), True, False, 1),
}


@pytest.mark.parametrize("case", list(_BRANCHES))
def test_execute_action_branches(branch_contexts, monkeypatch, case):
    """Which sampler each kind of target reaches, with which labels; whether
    the return is evidence; when it carries the matched siblings; and how
    many generators it builds."""
    (context, template, entity, change, stub_outcome, draw, informative,
     matched, generators) = _BRANCHES[case]
    ctl, node_of = branch_contexts[context]
    node = node_of[entity]
    action = next(c for c in ctl.enumerate_candidates() if c.id == f"{node}:{template}")
    world, bindings = ctl.world, ctl.bindings
    if change == "unbind":
        bindings = _unbound(ctl, node)
    elif change == "orphan":
        world = _orphaned(ctl, entity)
    draws = []

    def sample_outcome(table, child, parent, rng):
        draws.append(("table", child, parent))
        return stub_outcome

    def sample_null_parent(table, null, rng):
        draws.append(("null", null))
        return stub_outcome

    monkeypatch.setattr(world_module, "_sample_outcome", sample_outcome)
    monkeypatch.setattr(world_module, "_sample_null_parent", sample_null_parent)
    made = []

    def factory():
        made.append(1)
        return np.random.default_rng(0)

    res = world_module.execute_action(action, world, ctl.net, factory, bindings, ctl.mb)
    assert draws == ([draw] if draw else [])
    assert len(made) == generators
    assert res.informative is informative
    if template.startswith("terrain"):
        b = bindings[node]
        force = world.entity(b.entity).type if b.entity else None
        assert res.outcome == terrain_support((b.x, b.y), world.terrain, force)
    else:
        assert res.outcome == (stub_outcome if draw else "no_match")
    if matched:
        team = ("w-team-a", "w-team-b", "w-hq")
        assert res.siblings == tuple(sorted(node_of[e] for e in team))
        assert res.parent_entity == "w-tf"
    else:
        assert (res.siblings, res.parent_entity) == (None, None)


@pytest.mark.parametrize("null", [None, "clutter", "tank"])
def test_confirmed_reads_the_best_non_null_belief(null):
    """The null label's belief, the largest here, never confirms a node."""
    from percept.bayes_net import BayesNet
    from percept.world import _confirmed

    labels = ("tank", "clutter", "truck")
    net = BayesNet()
    hs = HypothesisSet(labels=labels, priors=np.array([0.3, 0.5, 0.2]), null_label=null)
    nid = net.instantiate_node(hs, node_id="n")
    best = max(b for lab, b in zip(labels, [0.3, 0.5, 0.2]) if lab != null)
    assert _confirmed(net, nid, best)
    assert not _confirmed(net, nid, np.nextafter(best, 1.0))
    with pytest.raises(UnknownIdError):
        _confirmed(net, "missing", 0.0)
