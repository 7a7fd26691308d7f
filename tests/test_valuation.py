"""Bayes-rule action posteriors and the hierarchical value recursion."""

import json

import numpy as np
import pytest

from helpers import BRIGADE, tiled_brigade
from percept.bayes_net import BayesNet
from percept.controller import Controller
from percept.errors import UnsupportedConfigurationError, UnvaluedAncestorError
from percept.model_base import build_model_base
from percept.planner import KnapsackInstance, KnapsackItem, solve_exact
from percept.valuation import ActionInstance, Valuer, ValueMode


def two_level_scenario(entries, outcomes=("o1", "o2"), goal=0.8):
    """Parent group (p1, p2) at priors (.5, .5) over child group (h, k)."""
    return build_model_base(
        {
            "models": [
                {"id": "p1", "prior": 0.5, "isa_group": "pg",
                 "parts": [{"child": "h", "cpt": "c"}, {"child": "k", "cpt": "c"}]},
                {"id": "p2", "prior": 0.5, "isa_group": "pg"},
                {"id": "h", "prior": 0.5, "isa_group": "cg"},
                {"id": "k", "prior": 0.5, "isa_group": "cg"},
            ],
            "cpts": {
                "c": {
                    "parent_labels": ["p1", "p2"],
                    "child_labels": ["h", "k"],
                    "rows": [[0.6, 0.4], [0.3, 0.7]],
                }
            },
            "outcome_tables": {
                "t": {
                    "action_kind": "CLASSIFICATION",
                    "child_labels": ["h", "k"],
                    "outcomes": list(outcomes),
                    "parent_labels": ["p1", "p2"],
                    "entries": entries,
                }
            },
            "actions": [
                {"id": "act", "kind": "CLASSIFICATION", "applicable_to": ["h", "k"],
                 "cost": 10, "outcome_table": "t"}
            ],
            "goal_values": {"p1": goal},
            "control": {"budget_T": 100, "epsilon": 0.1, "processors": 1,
                        "termination_belief": 0.99, "seed": 0},
        }
    )


def child_net(mb):
    net = BayesNet()
    net.instantiate_node(
        mb.hypothesis_set("cg"), "cg", node_id="child"
    )
    return net


def action():
    return ActionInstance(
        id="child:act", kind="CLASSIFICATION", target_node="child",
        cost=10, outcome_table="t", template_id="act",
    )


# entries[child][outcome][parent]: p(h marg | p1) = .9, p(h marg | p2) = .3
HAND_ENTRIES = [
    [[0.5, 0.2], [0.4, 0.1]],
    [[0.06, 0.42], [0.04, 0.28]],
]
# parent-independent: every (child, outcome) mass identical across parents
FLAT_ENTRIES = [
    [[0.45, 0.45], [0.15, 0.15]],
    [[0.25, 0.25], [0.15, 0.15]],
]
# child and outcome fully determined by the parent
DETERMINISTIC_ENTRIES = [
    [[1.0, 0.0], [0.0, 0.0]],
    [[0.0, 1.0], [0.0, 0.0]],
]


class TestPosterior:
    def test_hand_bayes_case(self):
        mb = two_level_scenario(HAND_ENTRIES)
        val = Valuer(child_net(mb), mb)
        # 0.9 * 0.5 / (0.9 * 0.5 + 0.3 * 0.5) = 0.45 / 0.60
        assert val.posterior_given_action("p1", "h", action()) == pytest.approx(0.75, abs=1e-12)
        assert val.posterior_given_action("p2", "h", action()) == pytest.approx(0.25, abs=1e-12)

    def test_uninformative_table_returns_prior(self):
        mb = two_level_scenario(FLAT_ENTRIES)
        val = Valuer(child_net(mb), mb)
        assert val.posterior_given_action("p1", "h", action()) == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_table(self):
        mb = two_level_scenario(DETERMINISTIC_ENTRIES)
        val = Valuer(child_net(mb), mb)
        assert val.posterior_given_action("p1", "h", action()) == 1.0

    def test_zero_denominator_is_unsupported(self):
        entries = [
            [[0.0, 0.0], [0.0, 0.0]],  # child h never occurs under any parent
            [[0.5, 0.5], [0.5, 0.5]],
        ]
        mb = two_level_scenario(entries)
        val = Valuer(child_net(mb), mb)
        with pytest.raises(UnsupportedConfigurationError):
            val.posterior_given_action("p1", "h", action())


class TestHypothesisValue:
    def test_uninformative_is_zero_in_both_modes(self):
        mb = two_level_scenario(FLAT_ENTRIES)
        for mode in ValueMode:
            val = Valuer(child_net(mb), mb, mode=mode)
            assert val.value_of_action_at_hypothesis("h", action()) == 0.0
            assert val.value_of_action_at_hypothesis("k", action()) == 0.0

    def test_two_level_hand_value(self):
        # V(parent) = 0.8 and a posterior shift of 0.25 give exactly 0.2
        mb = two_level_scenario(HAND_ENTRIES)
        val = Valuer(child_net(mb), mb)
        got = val.value_of_action_at_hypothesis("h", action())
        assert got == pytest.approx(0.2, abs=1e-12)

    def test_expected_abs_change_dominates_literal(self):
        rng = np.random.default_rng(321)
        for _ in range(1000):
            entries = rng.random((2, 2, 2)) + 1e-3
            entries /= entries.sum(axis=(0, 1), keepdims=True)
            mb = two_level_scenario(entries.tolist())
            net = child_net(mb)
            literal = Valuer(net, mb, mode=ValueMode.OUTCOME_MARGINAL)
            expected = Valuer(net, mb, mode=ValueMode.EXPECTED_ABS_CHANGE)
            for label in ("h", "k"):
                lo = literal.value_of_action_at_hypothesis(label, action())
                hi = expected.value_of_action_at_hypothesis(label, action())
                assert hi >= lo - 1e-12
                assert lo >= 0.0 and hi >= 0.0

    def test_symmetric_outcomes_score_zero_only_in_literal_mode(self):
        # outcome-marginalized child likelihood equal across parents, but
        # the per-outcome posteriors differ: the literal reading sees nothing
        entries = [
            [[0.4, 0.1], [0.1, 0.4]],
            [[0.3, 0.2], [0.2, 0.3]],
        ]
        mb = two_level_scenario(entries)
        net = child_net(mb)
        literal = Valuer(net, mb, mode=ValueMode.OUTCOME_MARGINAL)
        expected = Valuer(net, mb, mode=ValueMode.EXPECTED_ABS_CHANGE)
        assert literal.value_of_action_at_hypothesis("h", action()) == 0.0
        assert expected.value_of_action_at_hypothesis("h", action()) > 0.0


class TestNodeValue:
    def test_sum_over_labels(self):
        mb = two_level_scenario(HAND_ENTRIES)
        val = Valuer(child_net(mb), mb)
        per_label = [
            val.value_of_action_at_hypothesis(lab, action()) for lab in ("h", "k")
        ]
        assert val.value_of_action_at_node(action()) == pytest.approx(
            sum(per_label), abs=1e-12
        )

    def test_all_zero_labels_give_zero(self):
        mb = two_level_scenario(FLAT_ENTRIES)
        val = Valuer(child_net(mb), mb)
        assert val.value_of_action_at_node(action()) == 0.0

    def test_nonnegativity_on_random_tables(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            entries = rng.random((2, 2, 2)) + 1e-6
            entries /= entries.sum(axis=(0, 1), keepdims=True)
            mb = two_level_scenario(entries.tolist())
            for mode in ValueMode:
                val = Valuer(child_net(mb), mb, mode=mode)
                assert val.value_of_action_at_node(action()) >= 0.0


class TestCandidates:
    def test_empty_candidate_list(self):
        mb = two_level_scenario(HAND_ENTRIES)
        assert Valuer(child_net(mb), mb).value_all_candidates([]) == []

    def test_duplicate_candidates_get_equal_values(self):
        mb = two_level_scenario(HAND_ENTRIES)
        val = Valuer(child_net(mb), mb)
        a, b = action(), action()
        val.value_all_candidates([a, b])
        assert a.value == b.value > 0

    def test_goal_scaling_leaves_argmax_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            entries = rng.random((2, 3, 2)) + 1e-3
            entries /= entries.sum(axis=(0, 1), keepdims=True)
            flat = rng.random((2, 3, 2)) + 1e-3
            flat /= flat.sum(axis=(0, 1), keepdims=True)
            scale = float(rng.uniform(0.5, 20.0))
            plans = []
            values = []
            for c in (1.0, scale):
                mb = two_level_scenario(
                    entries.tolist(), outcomes=("o1", "o2", "o3"), goal=0.8 * c
                )
                val = Valuer(child_net(mb), mb)
                cands = [action(), action()]
                cands[1].id = "child:act2"
                cands[1].cost = 25
                val.value_all_candidates(cands)
                values.append([c0.value for c0 in cands])
                inst = KnapsackInstance(
                    items=tuple(KnapsackItem(x.id, x.value, x.cost) for x in cands),
                    budget=25,
                )
                plans.append(solve_exact(inst).selected)
            assert plans[0] == plans[1]
            for v1, vc in zip(values[0], values[1]):
                assert vc == pytest.approx(v1 * scale, rel=1e-9)

    def test_recursion_error_names_unvalued_ancestor(self):
        mb = build_model_base(
            {
                "models": [
                    {"id": "roof", "prior": 0.5, "isa_group": "rg",
                     "parts": [{"child": "m", "cpt": "c"}]},
                    {"id": "m", "prior": 0.5, "isa_group": "mg"},
                ],
                "cpts": {
                    "c": {
                        "parent_labels": ["roof", "other"],
                        "child_labels": ["m", "other"],
                        "rows": [[0.8, 0.2], [0.1, 0.9]],
                    }
                },
                "outcome_tables": {
                    "t": {
                        "action_kind": "CLASSIFICATION",
                        "child_labels": ["roof", "other"],
                        "outcomes": ["o1", "o2"],
                        "parent_labels": ["roof", "other"],
                        "entries": [
                            [[0.4, 0.1], [0.2, 0.2]],
                            [[0.2, 0.4], [0.2, 0.3]],
                        ],
                    }
                },
                "actions": [
                    {"id": "act", "kind": "CLASSIFICATION", "applicable_to": ["roof"],
                     "cost": 5, "outcome_table": "t"}
                ],
                "goal_values": {"m": 1.0},
                "control": {"budget_T": 10, "epsilon": 0.1, "processors": 1,
                            "termination_belief": 0.99, "seed": 0},
            }
        )
        net = BayesNet()
        net.instantiate_node(mb.hypothesis_set("rg"), "rg", node_id="child")
        val = Valuer(net, mb)
        act = ActionInstance(
            id="child:act", kind="CLASSIFICATION", target_node="child",
            cost=5, outcome_table="t", template_id="act",
        )
        with pytest.raises(UnvaluedAncestorError, match="rg"):
            val.value_of_action_at_node(act)


def table_sources(ctl, cand):
    """The (table, source) pairs a candidate bears on, resolved from the
    controller's own records: net parents with the table's parent labels,
    else parent groups with them, else the target itself."""
    mb, net = ctl.mb, ctl.net
    table = mb.outcome_table(cand.outcome_table)
    sources = [
        ("node", pid) for pid, _ in net.parents(cand.target_node)
        if net.node(pid).labels == table.parent_labels
    ]
    if not sources:
        sources = [
            ("group", pg)
            for pg, _ in mb.group_parents.get(ctl.net.node(cand.target_node).group, ())
            if mb.hypothesis_set(pg).labels == table.parent_labels
        ]
    if not sources and table.parent_labels == net.node(cand.target_node).labels:
        sources = [("node", cand.target_node)]
    return {(table.id, s) for s in sources}


def watch_steps(monkeypatch, check):
    """Call ``check(valuer, candidates)`` after each step's valuation."""
    original = Valuer.value_all_candidates

    def wrapped(self, candidates):
        out = original(self, candidates)
        check(self, candidates)
        return out

    monkeypatch.setattr(Valuer, "value_all_candidates", wrapped)


class TestEvaluationBudget:
    def test_posterior_evaluations_bounded(self, monkeypatch):
        mb = build_model_base(json.loads(BRIGADE.read_text(encoding="utf-8")))
        ctl = Controller(mb, seed=5)
        steps = []

        def check(val, cands):
            pairs = set().union(*(table_sources(ctl, c) for c in cands))
            assert val.posterior_evals <= len(pairs)
            steps.append(len(pairs))

        watch_steps(monkeypatch, check)
        ctl.run()
        assert len(steps) == len(ctl.steps) > 0

    def test_tiled_step_one_takes_four_contractions(self):
        ctl = Controller(build_model_base(tiled_brigade(4)))
        ctl.initialize()
        cands = ctl.enumerate_candidates()
        val = Valuer(ctl.net, ctl.mb)
        val.value_all_candidates(cands)
        assert len(cands) == 64
        assert val.posterior_evals <= 4


class TestSharedValuation:
    """Values shared across candidates, or carried across steps, equal bit
    for bit those of a fresh Valuer."""

    @staticmethod
    def check_run(monkeypatch, raw, **kw):
        """Run, checking at every step each valued candidate against a fresh
        Valuer of its own and every reported value, carried or not, against
        a fresh Valuer of the step; returns the controller and the counts
        of (valued, reported) candidates per step."""
        valued, reported = [], []

        def check(val, cands):
            for cand in cands:
                alone = Valuer(val.net, val.mb, mode=val.mode).value_of_action_at_node(cand)
                assert cand.value.hex() == alone.hex(), cand.id
            valued.append(len(cands))

        watch_steps(monkeypatch, check)
        run_step = Controller.run_step

        def checked_step(ctl, replay_ids=None):
            fresh = Valuer(ctl.net, ctl.mb, mode=ctl.mode)
            want = {
                c.id: fresh.value_of_action_at_node(c).hex()
                for c in ctl.enumerate_candidates()
            }
            step = run_step(ctl, replay_ids)
            if step is not None:
                assert {c["id"]: c["value"].hex() for c in step["candidates"]} == want
                reported.append(len(want))
            return step

        monkeypatch.setattr(Controller, "run_step", checked_step)
        ctl = Controller(build_model_base(raw), **kw)
        ctl.run()
        assert len(valued) == len(reported) == len(ctl.steps) > 0
        return ctl, valued, reported

    @pytest.mark.parametrize("mode", [m.value for m in ValueMode])
    @pytest.mark.parametrize("seed", [5, 7])
    def test_brigade_runs(self, monkeypatch, seed, mode):
        raw = json.loads(BRIGADE.read_text(encoding="utf-8"))
        ctl, _, _ = self.check_run(monkeypatch, raw, seed=seed, value_mode=mode)
        if seed == 5:  # linked parents: some candidate bears on a net node
            assert any(ctl.net.parents(n) for n in ctl.net.nodes)

    def test_tiled_run(self, monkeypatch):
        self.check_run(monkeypatch, tiled_brigade(4), seed=3)

    def test_tiled_8_run(self, monkeypatch):
        """The benchmark's tiled-8 world: many candidates share each key, and
        most steps carry every value from the step before."""
        _, valued, reported = self.check_run(monkeypatch, tiled_brigade(8), seed=7)
        assert valued[0] == reported[0]
        assert sum(valued) < sum(reported) / 10


def test_values_read_the_construction_time_beliefs():
    """A Valuer values against the beliefs of its construction, even when
    evidence arrives before a value is first asked for."""
    mb = build_model_base(json.loads(BRIGADE.read_text(encoding="utf-8")))
    ctl = Controller(mb, seed=5)
    ctl.run()
    net = ctl.net
    children = {pid: [] for pid in net.nodes}
    for nid in net.nodes:
        for pid, _ in net.parents(nid):
            children[pid].append(nid)
    parent = next(pid for pid in sorted(net.nodes) if children[pid])
    cands = [c for c in ctl.enumerate_candidates() if c.target_node in children[parent]]
    assert cands
    before = [Valuer(net, mb).value_of_action_at_node(c) for c in cands]
    held = Valuer(net, mb)
    shift = np.linspace(1.0, 0.2, len(net.node(parent).labels))
    net.attach_evidence(parent, shift)
    net.propagate()
    after = [Valuer(net, mb).value_of_action_at_node(c) for c in cands]
    assert after != before  # the evidence moves what a fresh Valuer sees
    held_values = [held.value_of_action_at_node(c) for c in cands]
    assert [v.hex() for v in held_values] == [v.hex() for v in before]
