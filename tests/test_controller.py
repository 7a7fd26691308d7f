"""Control loop, simulated pool discipline, termination, and replays."""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import tiled_brigade, tiny_scenario
from percept import controller
from percept.bayes_net import BayesNet
from percept.controller import (
    Controller,
    SimulatedPool,
    audit_report,
    check_termination,
    recorded_plans,
    replay_scenario,
)
from percept.errors import ScenarioError
from percept.model_base import ControlConfig, HypothesisSet, build_model_base, load_scenario
from percept.planner import KnapsackInstance, KnapsackItem, solve_approx
from percept.valuation import ActionInstance
from percept.world import ActionResult

BRIGADE = Path(__file__).resolve().parents[1] / "src/percept/scenarios/brigade.json"


def make_action(aid, cost, target="u1"):
    return ActionInstance(
        id=aid, kind="SEARCH", target_node=target, cost=cost,
        outcome_table="t", template_id="tmpl",
    )


class TestPool:
    def test_four_processors_six_actions_clock_trace(self):
        # costs follow the worked step-1 plan: four slots fill first, the
        # two remaining 820s start as processors free up
        costs = [1600, 842, 820, 820, 820, 820]
        pool = SimulatedPool(processors=4, clock=0)
        pool.submit([make_action(f"a{i}", c) for i, c in enumerate(costs)])
        finishes = []
        while True:
            assert pool.in_flight_count <= 4
            ev = pool.next_completion()
            if ev is None:
                break
            finishes.append(ev[0])
        assert finishes == [820, 820, 842, 1600, 1640, 1640]
        assert pool.clock == 1640

    def test_single_action(self):
        pool = SimulatedPool(processors=3, clock=100)
        pool.submit([make_action("a", 25)])
        assert pool.next_completion()[0] == 125
        assert pool.next_completion() is None

    def test_cancel_all_returns_flight_and_queue(self):
        pool = SimulatedPool(processors=1)
        pool.submit([make_action("a", 10), make_action("b", 10), make_action("c", 10)])
        assert pool.next_completion()[1].id == "a"
        cancelled = [a.id for a in pool.cancel_all()]
        assert cancelled == ["b", "c"]
        assert pool.next_completion() is None

    def test_clock_never_regresses(self):
        pool = SimulatedPool(processors=2, clock=0)
        pool.submit([make_action(f"x{i}", c) for i, c in enumerate([5, 3, 4, 1])])
        last = 0
        while (ev := pool.next_completion()) is not None:
            assert pool.clock >= last
            last = pool.clock


class TestTermination:
    def net_with_goal(self, belief):
        net = BayesNet()
        hs = HypothesisSet(labels=("g", "other"), priors=np.array([0.5, 0.5]))
        nid = net.instantiate_node(hs, node_id="goal")
        net.attach_evidence(nid, np.array(belief) / np.array([0.5, 0.5]))
        net.propagate()
        return net

    def config(self, threshold):
        return ControlConfig(
            budget_t=10, epsilon=0.1, processors=1,
            termination_belief=threshold, seed=0,
        )

    def test_reached(self):
        net = self.net_with_goal([0.99, 0.01])
        assert check_termination(net, self.config(0.99), ["goal"]) is True

    def test_not_reached(self):
        net = self.net_with_goal([0.5, 0.5])
        assert check_termination(net, self.config(0.99), ["goal"]) is False

    def test_boundary_inclusive_at_one(self):
        net = BayesNet()
        hs = HypothesisSet(labels=("g", "other"), priors=np.array([1.0, 0.0]))
        net.instantiate_node(hs, node_id="goal")
        assert check_termination(net, self.config(1.0), ["goal"]) is True

    def test_no_goal_nodes_continues(self):
        assert check_termination(BayesNet(), self.config(0.99), []) is False


class TestRuns:
    def test_zero_steps_when_prior_already_confident(self):
        mb = build_model_base(
            tiny_scenario(prior=0.995, termination=0.99, strength=(0.9, 0.9), units=1)
        )
        report = Controller(mb).run()
        assert report["terminated_reason"] == "terminated"
        assert report["steps"] == []
        assert report["winner"]["label"] == "thing"

    def test_quiescent_with_no_candidates(self):
        mb = build_model_base(tiny_scenario(actions=False, units=1))
        report = Controller(mb).run()
        assert report["terminated_reason"] == "quiescent"
        assert report["steps"] == []

    def test_budget_zero_is_quiescent(self):
        mb = build_model_base(tiny_scenario(budget=0, units=1))
        report = Controller(mb).run()
        assert report["terminated_reason"] == "quiescent"

    def test_negative_max_wall_rejected(self):
        with pytest.raises(ScenarioError, match="negative max_wall -1"):
            Controller(build_model_base(tiny_scenario(units=1)), max_wall=-1)

    def test_max_wall_stops_repeatable_probing(self):
        mb = build_model_base(
            tiny_scenario(prior=0.5, termination=1.0, repeatable=True,
                          units=1, max_wall=300)
        )
        report = Controller(mb).run()
        assert report["terminated_reason"] == "max_wall"
        assert report["simulated_time"] >= 300

    def test_early_termination_cancels_in_flight(self):
        mb = build_model_base(
            tiny_scenario(prior=0.6, termination=0.8, processors=1, units=2)
        )
        report = Controller(mb).run()
        assert report["terminated_reason"] == "terminated"
        last = report["steps"][-1]
        assert last["cancelled"], "queued probe should be cancelled on the ratio trip"
        completed = {c[0] for c in last["completions"]}
        assert completed.isdisjoint(last["cancelled"])

    def test_single_action_plan_single_completion(self):
        mb = build_model_base(
            tiny_scenario(prior=0.6, termination=0.8, processors=1, units=1)
        )
        report = Controller(mb).run()
        step = report["steps"][0]
        assert len(step["plan"]["selected"]) == 1
        assert len(step["completions"]) == 1

    def test_non_repeatable_templates_exhaust(self):
        mb = build_model_base(
            tiny_scenario(prior=0.5, termination=0.99, units=1, repeatable=False)
        )
        report = Controller(mb).run()
        # one probe fires, then no candidates remain and the run quiesces
        assert report["terminated_reason"] == "quiescent"
        assert len(report["steps"]) == 1

    @pytest.mark.parametrize(
        "mb",
        [
            # brigade nodes are made by matches; tiny's goal group is the leaf
            pytest.param(load_scenario(BRIGADE), id="brigade"),
            pytest.param(build_model_base(tiny_scenario(units=2)), id="tiny"),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 5, 7])
    def test_goal_nodes_kept_in_instantiation_order(self, mb, seed):
        ctl = Controller(mb, seed=seed)
        ctl.run()
        goal = mb.goal_group
        assert ctl.goal_nodes
        assert ctl.goal_nodes == [nid for nid, n in ctl.net.nodes.items() if n.group == goal]


class TestCandidates:
    def test_empty_net(self):
        mb = build_model_base(tiny_scenario(units=1))
        ctl = Controller(mb)
        assert ctl.enumerate_candidates() == []

    def test_one_node_two_templates(self):
        raw = tiny_scenario(units=1)
        raw["actions"].append(
            {"id": "probe-2", "kind": "REFINE-TYPE", "applicable_to": ["thing"],
             "cost": 30, "outcome_table": "probe2"}
        )
        raw["outcome_tables"]["probe2"] = dict(
            raw["outcome_tables"]["probe"], action_kind="REFINE-TYPE"
        )
        mb = build_model_base(raw)
        ctl = Controller(mb)
        ctl.initialize()
        cands = ctl.enumerate_candidates()
        assert len(cands) == 2
        assert [c.kind for c in cands] == ["CLASSIFICATION", "REFINE-TYPE"]

    def test_group_templates_are_the_union_over_member_models(self):
        raw = tiny_scenario(units=2)
        raw["models"].append({"id": "gadget", "prior": 0.2, "isa_group": "stuff"})
        labels = ["thing", "gadget", "other"]
        seen = {  # one certain outcome; each parent slice sums to 1
            "child_labels": labels, "outcomes": ["seen"], "parent_labels": labels,
            "entries": [[[float(c == p) for p in labels]] for c in labels],
        }
        raw["outcome_tables"] = {
            "probe": dict(seen, action_kind="CLASSIFICATION"),
            "terrain": dict(seen, action_kind="TERRAIN-SUPPORT"),
        }
        # every support outcome must be an outcome of each terrain table
        raw["world"]["terrain"]["support"] = {"open": {"default": "seen"}}
        raw["actions"] = [
            {"id": tid, "kind": kind, "applicable_to": to, "cost": 10,
             "outcome_table": table}
            for tid, kind, to, table in [
                ("gadget-terrain", "TERRAIN-SUPPORT", ["gadget"], "terrain"),
                ("z-thing", "CLASSIFICATION", ["thing"], "probe"),
                ("both", "CLASSIFICATION", ["gadget", "thing"], "probe"),
                ("any", "CLASSIFICATION", "*", "probe"),
            ]
        ]
        mb = build_model_base(raw)
        expected = ["any", "both", "z-thing", "gadget-terrain"]  # (kind, id) order
        assert [t.id for t in mb.group_templates["stuff"]] == expected
        ctl = Controller(mb)
        ctl.initialize()
        cands = ctl.enumerate_candidates()
        assert sorted(ctl.net.nodes) == ["u1", "u2"]
        for nid in ctl.net.nodes:
            assert ctl.net.node(nid).group == "stuff"
            assert [c.template_id for c in cands if c.target_node == nid] == expected

    def test_bundled_initial_candidate_kinds(self):
        mb = load_scenario(BRIGADE)
        ctl = Controller(mb)
        ctl.initialize()
        kinds = {c.kind for c in ctl.enumerate_candidates()}
        assert {"REFINE-TYPE", "SEARCH", "TERRAIN-SUPPORT"} <= kinds


class TestCarry:
    def test_reused_plans_equal_a_fresh_solve(self, monkeypatch):
        """Steps whose knapsack instance repeats the last one reuse its plan;
        every step's plan equals solve_approx of that step's instance."""
        calls = []

        def counted(instance, epsilon):
            calls.append(instance)
            return solve_approx(instance, epsilon)

        monkeypatch.setattr(controller, "solve_approx", counted)
        ctl = Controller(build_model_base(tiled_brigade(8)), seed=7)
        report = ctl.run()
        assert 0 < len(calls) < len(report["steps"]) / 4
        for step in report["steps"]:
            instance = KnapsackInstance(
                items=tuple(KnapsackItem(c["id"], c["value"], c["cost"])
                            for c in step["candidates"]),
                budget=ctl.config.budget_t,
            )
            assert solve_approx(instance, ctl.config.epsilon).to_dict() == step["plan"]

    def test_replayed_step_after_planned_steps_values_nothing(self):
        """Values carried from planned steps reach neither a replayed step's
        candidates nor its plan's total value."""
        ctl = Controller(load_scenario(BRIGADE), seed=7)
        ctl.initialize()
        assert ctl.run_step()["plan"]["total_value"] > 0
        valued = [c.id for c in ctl.enumerate_candidates() if c.value > 0]
        assert valued
        step = ctl.run_step(replay_ids=valued)
        assert step["plan"]["total_value"] == 0.0
        assert {c["value"] for c in step["candidates"]} == {0.0}


@pytest.fixture(scope="module")
def report():
    mb = load_scenario(BRIGADE)
    return Controller(mb).run()


class TestBundledRun:
    def test_terminates_with_high_brigade_belief(self, report):
        assert report["terminated_reason"] == "terminated"
        assert 5 <= len(report["steps"]) <= 8
        assert report["winner"]["label"] == "brigade"
        assert report["winner"]["belief"] >= 0.99

    def test_net_grows_by_search(self, report):
        assert len(report["initial_net"]["nodes"]) == 4
        final_ids = {n["id"] for n in report["final_beliefs"]["nodes"]}
        assert {"force1", "force2", "brigade-level1"} <= final_ids

    def test_determinism_byte_identical(self, report):
        again = Controller(load_scenario(BRIGADE)).run()
        assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_audit_clean(self, report):
        assert audit_report(report) == []

    def test_audit_catches_doctored_traces(self, report):
        bad = json.loads(json.dumps(report))
        bad["steps"][0]["plan"]["total_cost"] = bad["config"]["budget_T"] + 1
        assert any("exceeds budget" in v for v in audit_report(bad))
        worse = json.loads(json.dumps(report))
        step = worse["steps"][0]
        for c in step["completions"]:
            c[2] = 10**6  # everything finishing together overloads the pool
        assert any("in flight" in v for v in audit_report(worse))

    def test_separability_replay_reproduces_beliefs_exactly(self, report):
        mb = load_scenario(BRIGADE)
        replayed = replay_scenario(mb, report)
        assert replayed["final_beliefs"] == report["final_beliefs"]
        assert replayed["terminated_reason"] == report["terminated_reason"]
        assert [s["completions"] for s in replayed["steps"]] == [
            s["completions"] for s in report["steps"]
        ]

    def test_recorded_plans_shape(self, report):
        plans = recorded_plans(report)
        assert len(plans) == len(report["steps"])
        assert all(isinstance(p, list) and p for p in plans)

    def test_step_two_offers_classification_topped_candidates(self, report):
        step2 = report["steps"][1]
        assert len(step2["candidates"]) == 8
        kinds = sorted(c["kind"] for c in step2["candidates"])
        assert kinds == ["CLASSIFICATION"] * 4 + ["SEARCH"] * 4
        top = max(step2["candidates"], key=lambda c: c["value"])
        assert top["kind"] == "CLASSIFICATION"

    def test_every_net_edge_mirrors_a_model_edge(self, report):
        mb = load_scenario(BRIGADE)
        ctl = Controller(mb)
        ctl.run()
        for edge in ctl.net.edges():
            child_group = ctl.net.node(edge.child).group
            parent_group = ctl.net.node(edge.parent).group
            assert any(
                pg == parent_group for pg, _ in mb.group_parents[child_group]
            ), f"edge {edge} has no model-base counterpart"

    def test_expected_abs_change_mode_runs(self):
        mb = build_model_base(tiny_scenario(prior=0.6, termination=0.8, units=1))
        report = Controller(mb, value_mode="EXPECTED_ABS_CHANGE").run()
        assert report["terminated_reason"] == "terminated"
        assert report["config"]["value_mode"] == "EXPECTED_ABS_CHANGE"

    def test_duration_jitter_moves_completion_times_deterministically(self):
        raw = tiny_scenario(prior=0.6, termination=0.99, units=2, budget=100,
                            processors=2)
        raw["control"]["duration_jitter"] = 0.4
        mb = build_model_base(raw)
        a = Controller(mb).run()
        b = Controller(mb).run()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        finishes = [fin for s in a["steps"] for _, _, fin in s["completions"]]
        assert finishes == [63, 68]  # jittered away from the declared cost 50
        # budget accounting still uses declared costs
        for s in a["steps"]:
            assert s["plan"]["total_cost"] <= 100
        assert audit_report(a) == []  # interval check is skipped when jittered


class TestCompletionHandling:
    def test_uniform_outcome_slice_leaves_beliefs_unchanged(self):
        raw = tiny_scenario(units=1)
        raw["outcome_tables"]["flat"] = {
            "action_kind": "REFINE-TYPE",
            "child_labels": ["thing", "other"],
            "outcomes": ["o1", "o2"],
            "parent_labels": ["thing", "other"],
            "entries": [
                [[0.25, 0.25], [0.25, 0.25]],
                [[0.25, 0.25], [0.25, 0.25]],
            ],
        }
        mb = build_model_base(raw)
        ctl = Controller(mb)
        ctl.initialize()
        before = ctl.net.belief("u1")
        act = ActionInstance(
            id="u1:flat", kind="REFINE-TYPE", target_node="u1",
            cost=10, outcome_table="flat", template_id="flat",
        )
        ctl.apply_completion(act, ActionResult(outcome="o1"))
        assert np.allclose(ctl.net.belief("u1"), before, atol=1e-12)

    def test_completion_order_invariance(self):
        mb = load_scenario(BRIGADE)
        results = []
        for flip in (False, True):
            ctl = Controller(mb)
            ctl.initialize()
            acts = [
                ("u1", "refine-type", "refine_company", "looks-team", "REFINE-TYPE"),
                ("u2", "terrain-unit", "terrain_company", "supports", "TERRAIN-SUPPORT"),
            ]
            if flip:
                acts = acts[::-1]
            for target, tmpl, table, outcome, kind in acts:
                act = ActionInstance(
                    id=f"{target}:{tmpl}", kind=kind, target_node=target,
                    cost=1, outcome_table=table, template_id=tmpl,
                )
                ctl.apply_completion(act, ActionResult(outcome=outcome))
            results.append({nid: ctl.net.belief(nid) for nid in ctl.net.nodes})
        for nid in results[0]:
            assert np.allclose(results[0][nid], results[1][nid], atol=1e-9)
