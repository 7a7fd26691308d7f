"""How candidate actions are valued by their effect on parent beliefs.

A two-label child can trigger an action whose outcome table discriminates
the parent hypotheses.  Value flows top-down: the parent labels carry the
goal values, and the action is worth the absolute belief shift it induces,
weighted by those values.
"""

import numpy as np

from percept import ActionInstance, BayesNet, Valuer, ValueMode, build_model_base

scenario = {
    "models": [
        {"id": "convoy", "prior": 0.5, "isa_group": "formation",
         "parts": [{"child": "truck", "cpt": "c"}, {"child": "decoy", "cpt": "c"}]},
        {"id": "patrol", "prior": 0.5, "isa_group": "formation"},
        {"id": "truck", "prior": 0.5, "isa_group": "object"},
        {"id": "decoy", "prior": 0.5, "isa_group": "object"},
    ],
    "cpts": {
        "c": {"parent_labels": ["convoy", "patrol"], "child_labels": ["truck", "decoy"],
              "rows": [[0.6, 0.4], [0.3, 0.7]]}
    },
    "outcome_tables": {
        "t": {
            "action_kind": "CLASSIFICATION",
            "child_labels": ["truck", "decoy"],
            "outcomes": ["o1", "o2"],
            "parent_labels": ["convoy", "patrol"],
            # truck sightings are three times likelier under a convoy
            "entries": [[[0.5, 0.2], [0.4, 0.1]], [[0.06, 0.42], [0.04, 0.28]]],
        }
    },
    "actions": [{"id": "act", "kind": "CLASSIFICATION", "applicable_to": ["truck", "decoy"],
                 "cost": 10, "outcome_table": "t"}],
    "goal_values": {"convoy": 0.8},
    "control": {"budget_T": 100, "epsilon": 0.1, "processors": 1,
                "termination_belief": 0.99, "seed": 0},
}

mb = build_model_base(scenario)
net = BayesNet()
net.instantiate_node(mb.hypothesis_set("object"), "object", node_id="child")
action = ActionInstance(id="child:act", kind="CLASSIFICATION", target_node="child",
                        cost=10, outcome_table="t", template_id="act")

valuer = Valuer(net, mb)
post = valuer.posterior_given_action("convoy", "truck", action)
print(f"p(convoy | truck, action) = {post:.4f}  (prior was 0.5000)")
print(f"value of the action at the 'truck' hypothesis: "
      f"{valuer.value_of_action_at_hypothesis('truck', action):.4f}")
print(f"value of the action at the node (summed over labels): "
      f"{valuer.value_of_action_at_node(action):.4f}")

expected = Valuer(net, mb, mode=ValueMode.EXPECTED_ABS_CHANGE)
print(f"\nsame action under EXPECTED_ABS_CHANGE: "
      f"{expected.value_of_action_at_node(action):.4f} "
      "(always >= the outcome-marginalized reading)")

# a table that ignores the parent is worth exactly zero
flat = {
    "entries": [[[0.45, 0.45], [0.15, 0.15]], [[0.25, 0.25], [0.15, 0.15]]],
}
scenario["outcome_tables"]["t"]["entries"] = flat["entries"]
mb2 = build_model_base(scenario)
net2 = BayesNet()
net2.instantiate_node(mb2.hypothesis_set("object"), "object", node_id="child")
print(f"\nparent-independent table: value = "
      f"{Valuer(net2, mb2).value_of_action_at_node(action)}")
