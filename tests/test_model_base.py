"""Scenario loading, validation, and model-space lookups."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from percept.errors import CyclicModelError, ScenarioError, UnknownIdError
from percept.model_base import build_model_base, load_scenario
from percept.world import World

BRIGADE = Path(__file__).resolve().parents[1] / "src/percept/scenarios/brigade.json"

MINIMAL = {
    "models": [{"id": "thing", "prior": 1.0, "isa_group": "stuff"}],
    "cpts": {},
    "outcome_tables": {},
    "actions": [],
    "goal_values": {"thing": 1.0},
    "control": {"budget_T": 10, "epsilon": 0.1, "processors": 1,
                "termination_belief": 0.99, "seed": 0},
}


def minimal(**changes):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(changes)
    return raw


class TestLoad:
    def test_minimal_single_node(self):
        mb = build_model_base(minimal())
        assert len(mb.nodes) == 1
        hs = mb.hypothesis_set("stuff")
        assert hs.labels == ("thing",)  # prior 1.0 leaves no null mass
        assert hs.null_label is None

    def test_null_label_appended_when_mass_remains(self):
        raw = minimal()
        raw["models"][0]["prior"] = 0.7
        mb = build_model_base(raw)
        hs = mb.hypothesis_set("stuff")
        assert hs.labels == ("thing", "other")
        assert np.allclose(hs.priors, [0.7, 0.3])
        assert hs.null_label == "other"

    def test_unspecified_prior_splits_half_against_null(self):
        raw = minimal()
        del raw["models"][0]["prior"]
        mb = build_model_base(raw)
        hs = mb.hypothesis_set("stuff")
        assert np.allclose(hs.priors, [0.5, 0.5])

    def test_bundled_brigade_hierarchy(self):
        mb = load_scenario(BRIGADE)
        assert mb.parts_of("brigade") == (
            ("task-force", "cpt_force"),
            ("catapult-battalion", "cpt_force"),
        )
        assert [c for c, _ in mb.parts_of("task-force")] == ["team", "tf-hq"]
        assert [c for c, _ in mb.parts_of("catapult-battalion")] == ["battery"]
        assert mb.parts_of("team") == ()
        assert mb.goal_group == "brigade-level"
        assert mb.leaf_group() == "company"

    def test_unknown_id_errors(self):
        mb = load_scenario(BRIGADE)
        with pytest.raises(UnknownIdError):
            mb.parts_of("nonesuch")
        with pytest.raises(UnknownIdError):
            mb.templates_for("nonesuch")

    def test_generator_reproduces_bundle(self):
        path = BRIGADE.parents[3] / "tools" / "gen_brigade_scenario.py"
        spec = importlib.util.spec_from_file_location("gen_brigade_scenario", path)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        built = json.dumps(gen.build(), indent=1) + "\n"
        assert built == BRIGADE.read_text(encoding="utf-8")

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/scenario.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(p)


class TestValidation:
    def test_part_of_cycle_names_participants(self):
        raw = minimal()
        raw["models"] = [
            {"id": "A", "prior": 0.5, "isa_group": "g1",
             "parts": [{"child": "B", "cpt": "c"}]},
            {"id": "B", "prior": 0.5, "isa_group": "g2",
             "parts": [{"child": "A", "cpt": "c2"}]},
        ]
        raw["cpts"] = {
            "c": {"parent_labels": ["A", "other"], "child_labels": ["B", "other"],
                  "rows": [[0.5, 0.5], [0.5, 0.5]]},
            "c2": {"parent_labels": ["B", "other"], "child_labels": ["A", "other"],
                   "rows": [[0.5, 0.5], [0.5, 0.5]]},
        }
        raw["goal_values"] = {"A": 1.0}
        with pytest.raises(CyclicModelError) as err:
            build_model_base(raw)
        assert "A" in str(err.value) and "B" in str(err.value)

    def test_row_not_summing_to_one(self):
        raw = minimal()
        raw["models"] = [
            {"id": "A", "prior": 0.5, "isa_group": "g1",
             "parts": [{"child": "B", "cpt": "c"}]},
            {"id": "B", "prior": 0.5, "isa_group": "g2"},
        ]
        raw["cpts"] = {
            "c": {"parent_labels": ["A", "other"], "child_labels": ["B", "other"],
                  "rows": [[0.6, 0.5], [0.5, 0.5]]},
        }
        raw["goal_values"] = {"A": 1.0}
        with pytest.raises(ScenarioError, match="c"):
            build_model_base(raw)

    def test_dangling_part_reference(self):
        raw = minimal()
        raw["models"][0]["parts"] = [{"child": "ghost", "cpt": "c"}]
        with pytest.raises((ScenarioError, UnknownIdError)):
            build_model_base(raw)

    def test_negative_cost(self):
        raw = minimal()
        raw["outcome_tables"] = {
            "t": {"action_kind": "SEARCH", "child_labels": ["thing"],
                  "outcomes": ["match", "no_match"],
                  "parent_labels": ["thing"],
                  "entries": [[[0.5], [0.5]]]},
        }
        raw["actions"] = [{"id": "a", "kind": "SEARCH", "cost": -5,
                           "outcome_table": "t"}]
        with pytest.raises(ScenarioError):
            build_model_base(raw)

    def test_fractional_cost_rejected(self):
        raw = minimal()
        raw["outcome_tables"] = {
            "t": {"action_kind": "SEARCH", "child_labels": ["thing"],
                  "outcomes": ["match", "no_match"],
                  "parent_labels": ["thing"],
                  "entries": [[[0.5], [0.5]]]},
        }
        raw["actions"] = [{"id": "a", "kind": "SEARCH", "cost": 1.5,
                           "outcome_table": "t"}]
        with pytest.raises(ScenarioError, match=r"actions\[0\]\.cost: expected a whole number, got 1\.5"):
            build_model_base(raw)

    def test_priors_exceeding_one(self):
        raw = minimal()
        raw["models"] = [
            {"id": "x", "prior": 0.7, "isa_group": "g"},
            {"id": "y", "prior": 0.5, "isa_group": "g"},
        ]
        raw["goal_values"] = {"x": 1.0}
        with pytest.raises(ScenarioError, match="g"):
            build_model_base(raw)

    def test_goal_values_need_positive_entry(self):
        raw = minimal()
        raw["goal_values"] = {"thing": 0.0}
        with pytest.raises(ScenarioError):
            build_model_base(raw)

    def test_goal_values_must_name_one_group(self):
        raw = minimal()
        raw["models"].append({"id": "elsewhere", "prior": 0.5, "isa_group": "g2"})
        raw["goal_values"] = {"thing": 1.0, "elsewhere": 1.0}
        with pytest.raises(ScenarioError):
            build_model_base(raw)

    def test_search_table_requires_no_match_outcome(self):
        raw = minimal()
        raw["outcome_tables"] = {
            "t": {"action_kind": "SEARCH", "child_labels": ["thing"],
                  "outcomes": ["match", "miss"],
                  "parent_labels": ["thing"],
                  "entries": [[[0.5], [0.5]]]},
        }
        with pytest.raises(ScenarioError, match="no_match"):
            build_model_base(raw)

    def test_outcome_table_parent_slice_must_sum_to_one(self):
        raw = minimal()
        raw["outcome_tables"] = {
            "t": {"action_kind": "CLASSIFICATION", "child_labels": ["thing"],
                  "outcomes": ["o1", "o2"],
                  "parent_labels": ["thing"],
                  "entries": [[[0.5], [0.6]]]},
        }
        with pytest.raises(ScenarioError, match="t"):
            build_model_base(raw)

    def test_control_validation(self):
        for bad in (
            {"termination_belief": 0.4},
            {"processors": 0},
            {"epsilon": 0.0},
            {"budget_T": -1},
            {"value_mode": "WISHFUL"},
        ):
            raw = minimal(control={**MINIMAL["control"], **bad})
            with pytest.raises(ScenarioError):
                build_model_base(raw)

    def test_termination_ratio_alternative(self):
        raw = minimal(control={**MINIMAL["control"], "termination_ratio": 99})
        raw["control"].pop("termination_belief")
        mb = build_model_base(raw)
        assert mb.control.termination_belief == pytest.approx(0.99)


# each whole-number field of the brigade: (how to set it, how to read it back)
_WHOLE_FIELDS = {
    "budget_T": (lambda r, v: r["control"].update(budget_T=v), lambda mb: mb.control.budget_t),
    "processors": (lambda r, v: r["control"].update(processors=v),
                   lambda mb: mb.control.processors),
    "seed": (lambda r, v: r["control"].update(seed=v), lambda mb: mb.control.seed),
    "min_parts": (lambda r, v: r["models"][0].update(min_parts=v),
                  lambda mb: mb.nodes["brigade"].min_parts),
    "min_count": (lambda r, v: r["world"]["cluster_params"].update(min_count=v),
                  lambda mb: World.from_dict(mb).cluster_params.min_count),
    "max_count": (lambda r, v: r["world"]["cluster_params"].update(max_count=v),
                  lambda mb: World.from_dict(mb).cluster_params.max_count),
    "cost": (lambda r, v: r["actions"][0].update(cost=v), lambda mb: mb.actions[0].cost),
}


@pytest.mark.parametrize("offset", [1e-12, -1e-12])
@pytest.mark.parametrize("field", list(_WHOLE_FIELDS))
def test_whole_number_within_tolerance_rounds(field, offset):
    """A whole-number field within 1e-9 of a whole number loads as it."""
    change, read = _WHOLE_FIELDS[field]
    raw = json.loads(BRIGADE.read_text())
    change(raw, 5 + offset)
    value = read(build_model_base(raw))
    assert value == 5 and type(value) is int


class TestTemplates:
    def test_leaf_unit_templates_include_classification_and_terrain(self):
        mb = load_scenario(BRIGADE)
        kinds = {t.kind for t in mb.templates_for("team")}
        assert "CLASSIFICATION" in kinds
        assert "TERRAIN-SUPPORT" in kinds

    def test_root_model_templates_include_search_and_terrain(self):
        mb = load_scenario(BRIGADE)
        kinds = {t.kind for t in mb.templates_for("brigade")}
        assert "SEARCH" in kinds
        assert "TERRAIN-SUPPORT" in kinds

    def test_node_with_no_templates(self):
        mb = build_model_base(minimal())
        assert mb.templates_for("thing") == ()


class TestInvariants:
    def test_all_rows_and_slices_sum_to_one(self):
        mb = load_scenario(BRIGADE)
        for cpt in mb.cpts.values():
            assert np.allclose(cpt.rows.sum(axis=1), 1.0, atol=1e-9)
        for table in mb.outcome_tables.values():
            assert np.allclose(table.entries.sum(axis=(0, 1)), 1.0, atol=1e-9)

    def test_part_of_graph_has_topological_order(self):
        mb = load_scenario(BRIGADE)
        order = mb.topological_order()
        pos = {m: i for i, m in enumerate(order)}
        for m in mb.nodes.values():
            for child, _ in m.parts:
                assert pos[m.id] < pos[child]

    def test_group_priors_sum_to_one(self):
        mb = load_scenario(BRIGADE)
        for hs in mb.groups.values():
            assert abs(hs.priors.sum() - 1.0) < 1e-9
