"""Action valuation: expected effect of evidence-gathering on parent beliefs.

A source is an instantiated net node or a not-yet-instantiated model
group.  One recursion, memoized per source, values each of its labels:
goal values in the goal group; otherwise the belief change confirming the
label would induce at the source's parents, weighted by their values and
summed over them.  A node's parents are its net parents at the beliefs the
valuation was built on; a group's are its model parent groups at their a
priori priors; a parentless node takes its group's values.

An action bears on context sources.  The table's parent axis is one model
group; the sources are the target's net parents of that group, else that
group as the target group's prospective model parent, else the target
itself for a self-bearing table.  One contraction over the outcome table
``entries[c, o, p]`` gives, for every child label at once, how far the
Bayes-rule posterior over a source's labels moves from its current
probabilities.  A candidate's value at a label adds its sources'
contractions in precedence order, and its value at a node sums the node's
labels in label order.  A valuation computes that node value once per
distinct (table, sources), from one contraction per source, and every
candidate with that table and those sources reads it, so sharing changes
no bit of any value.

Two modes are provided.  OUTCOME_MARGINAL marginalizes the action's outcomes
before applying Bayes rule, so an action whose outcomes are informative
but symmetric can score 0.  EXPECTED_ABS_CHANGE averages the absolute
posterior shift over outcomes instead and never scores below the
marginalized mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bayes_net import BayesNet
from .errors import UnsupportedConfigurationError, UnvaluedAncestorError
from .model_base import ModelBase, OutcomeTable


class ValueMode(enum.Enum):
    OUTCOME_MARGINAL = "OUTCOME_MARGINAL"
    EXPECTED_ABS_CHANGE = "EXPECTED_ABS_CHANGE"


@dataclass
class ActionInstance:
    """A concrete executable action bound to a net node."""

    id: str
    kind: str
    target_node: str
    cost: int
    outcome_table: str
    template_id: str
    value: float = 0.0


# what an action bears on, and what the value recursion runs over:
# ("node", node id) or ("group", group id)
Source = tuple[str, str]


def _bayes(link: np.ndarray, prior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(parent | child) for every child label, from ``link[child, parent]``
    = p(child | parent) and the parent prior, and each child label's total
    probability; a row with zero total is NaN."""
    joint = link * prior  # (child, parent)
    denom = joint.sum(axis=1)
    post = np.divide(joint, denom[:, None], out=np.full(joint.shape, np.nan),
                     where=denom[:, None] > 0.0)
    return post, denom


def _shift_values(link: np.ndarray, prior: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per child label, |p(parent | child) - prior| weighted by the parent
    labels' values and summed; NaN at a child label of zero total."""
    post, denom = _bayes(link, prior)
    return np.where(denom > 0.0, (np.abs(post - prior) * values).sum(axis=1), np.nan)


class Valuer:
    """Values candidate actions against one immutable snapshot of the net.

    Label values are computed once per source, an action's sources once
    per (target, parent group), and a node value, from one contraction per
    source, once per (outcome table, sources); candidates share them all.
    The beliefs are those of construction, held by reference; the net's
    structure must not change while a Valuer lives.  The valuation mode is
    fixed at construction.

    A value reads only the model and the beliefs and edges of the target's
    component, so it holds while the target's ``BayesNode.stamp`` does:
    the controller carries it across steps and hands a Valuer only the
    candidates whose stamp moved.
    """

    def __init__(
        self,
        net: BayesNet,
        model_base: ModelBase,
        mode: ValueMode = ValueMode.OUTCOME_MARGINAL,
    ):
        self.net = net
        self.mb = model_base
        self.mode = mode
        self.posterior_evals = 0  # contractions: one per source of each (table, sources)
        self._sources_of: dict[tuple[str, str], tuple[Source, ...]] = {}
        self._totals: dict[tuple[str, tuple[Source, ...]], float] = {}
        self._values: dict[Source, np.ndarray] = {}
        # propagate replaces belief arrays and never writes into them, so
        # references keep the construction-time beliefs
        self._beliefs: dict[str, np.ndarray] = {
            nid: node.belief for nid, node in net.nodes.items()
        }

    # -- value recursion ---------------------------------------------------

    def _distribution(self, source: Source) -> tuple[tuple[str, ...], np.ndarray]:
        """A source's labels and current probabilities: a node's belief at
        construction, a group's a priori priors."""
        kind, ident = source
        if kind == "node":
            return self.net.node(ident).labels, self._beliefs[ident]
        hs = self.mb.hypothesis_set(ident)
        return hs.labels, np.array(hs.priors)

    def _value(self, source: Source) -> np.ndarray:
        """V(label) for each label of a source, by the module's one recursion."""
        if source in self._values:
            return self._values[source]
        kind, ident = source
        group = ident if kind == "group" else self.net.node(ident).group
        labels, _ = self._distribution(source)
        if kind == "node":
            parents = [(("node", pid), cpt) for pid, cpt in self.net.parents(ident)]
        else:
            parents = [
                (("group", pg), self.mb.cpt(cpt_id))
                for pg, cpt_id in self.mb.group_parents.get(ident, ())
            ]
        if group == self.mb.goal_group:
            vec = np.array([self.mb.goal_values.get(lab, 0.0) for lab in labels])
        elif parents:
            vec = np.zeros(len(labels))
            for parent, cpt in parents:
                # a child label of zero total cannot bear on the parent
                shift = _shift_values(
                    cpt.rows.T, self._distribution(parent)[1], self._value(parent)
                )
                vec += np.where(np.isnan(shift), 0.0, shift)
        elif kind == "node" and group is not None:
            vec = self._value(("group", group))
        else:
            raise UnvaluedAncestorError(
                f"node {ident!r} has no parents, no group, and no goal values"
                if kind == "node"
                else f"group {ident!r} has no parents and carries no goal values"
            )
        self._values[source] = vec
        return vec

    # -- context sources ------------------------------------------------------

    def _sources(self, target: str, table: OutcomeTable) -> tuple[Source, ...]:
        """What an action with ``table`` on ``target`` bears on, in precedence
        order.

        Sources are matched by group: the table's parent axis is the group
        the model base resolved for it at load.  Instantiated net parents of
        that group win; otherwise that group, if the model makes it a parent
        of the target's group (a priori probabilities); otherwise, when the
        target is itself of that group, the node itself.  Anything else,
        including every action on a node with no group, bears on nothing
        and is worth 0.  Resolved once per (target, parent group).
        """
        parent_group = self.mb.table_parent_group[table.id]
        key = (target, parent_group)
        if key in self._sources_of:
            return self._sources_of[key]
        out = tuple(
            ("node", pid)
            for pid, _ in self.net.parents(target)
            if self.net.node(pid).group == parent_group
        )
        if not out:
            group = self.net.node(target).group
            if any(pg == parent_group for pg, _ in self.mb.group_parents.get(group, ())):
                out = (("group", parent_group),)
            elif group == parent_group:
                out = (("node", target),)
        self._sources_of[key] = out
        return out

    # -- the operations ------------------------------------------------------

    def _context_values(self, table: OutcomeTable, source: Source) -> np.ndarray:
        """Value of confirming each child label, in one source's context.

        One contraction over ``entries[c, o, p]`` covers every label.  A label
        with zero total probability gets NaN: it cannot bear on this parent.
        Each label's sums run in a fixed order: values are bit-reproducible.
        """
        self.posterior_evals += 1
        _, prior = self._distribution(source)
        values = self._value(source)
        if self.mode is ValueMode.OUTCOME_MARGINAL:
            return _shift_values(table.marginal, prior, values)
        joint = table.entries * prior  # (child, outcome, parent)
        denom = joint.reshape(len(joint), -1).sum(axis=1)  # (outcome, parent) flat
        mass = joint.sum(axis=2)  # (child, outcome)
        with np.errstate(divide="ignore", invalid="ignore"):
            moved = (mass / denom[:, None])[..., None] * np.abs(
                joint / mass[..., None] - prior
            )
        # zero-mass outcomes move nothing; cumsum adds outcomes in order
        moved = np.where(mass[..., None] > 0.0, moved, 0.0)
        shift = np.cumsum(moved, axis=1)[:, -1]
        return np.where(denom > 0.0, (shift * values).sum(axis=1), np.nan)

    def _label_values(
        self, table: OutcomeTable, sources: tuple[Source, ...]
    ) -> list[float]:
        """The value at each child label of ``table``: the sources'
        contractions added in precedence order."""
        total = np.zeros(len(table.child_labels))
        for source in sources:
            total = total + self._context_values(table, source)
        return total.tolist()

    @staticmethod
    def _defined(action: ActionInstance, label: str, value: float) -> float:
        """``value``, unless NaN: the table gives ``label`` zero probability."""
        if math.isnan(value):
            raise UnsupportedConfigurationError(
                f"action {action.id}: zero probability for label {label!r}"
            )
        return value

    def posterior_given_action(
        self, parent_label: str, child_label: str, action: ActionInstance
    ) -> float:
        """Posterior probability of one parent label given the child and action."""
        table = self.mb.outcome_table(action.outcome_table)
        for source in self._sources(action.target_node, table):
            labels, prior = self._distribution(source)
            if parent_label in labels:
                self.posterior_evals += 1
                ci = table.child_labels.index(child_label)
                post, denom = _bayes(table.marginal, prior)
                if denom[ci] <= 0.0:
                    raise UnsupportedConfigurationError(
                        f"action {action.id}: zero probability for label {child_label!r}"
                    )
                return float(post[ci, labels.index(parent_label)])
        raise UnsupportedConfigurationError(
            f"action {action.id}: no parent context carries label {parent_label!r}"
        )

    def value_of_action_at_hypothesis(self, h_label: str, action: ActionInstance) -> float:
        table = self.mb.outcome_table(action.outcome_table)
        if h_label not in table.child_labels:
            raise UnsupportedConfigurationError(
                f"action {action.id}: table {table.id} does not cover label {h_label!r}"
            )
        sources = self._sources(action.target_node, table)
        value = self._label_values(table, sources)[table.child_labels.index(h_label)]
        return self._defined(action, h_label, value)

    def value_of_action_at_node(self, action: ActionInstance) -> float:
        """Sum of per-hypothesis values over the target node's labels, once
        per (table, sources)."""
        node = self.net.node(action.target_node)
        table = self.mb.outcome_table(action.outcome_table)
        if table.child_labels != node.labels:
            raise UnsupportedConfigurationError(
                f"action {action.id}: table {table.id} child labels do not match "
                f"node {node.id!r}"
            )
        sources = self._sources(node.id, table)
        key = (table.id, sources)
        if key not in self._totals:
            values = zip(node.labels, self._label_values(table, sources))
            self._totals[key] = float(sum(self._defined(action, lab, v) for lab, v in values))
        return self._totals[key]

    def value_all_candidates(self, candidates) -> list[ActionInstance]:
        """Fill in the value of every candidate; candidates with equal
        (table, sources) share one node value."""
        for cand in candidates:
            cand.value = self.value_of_action_at_node(cand)
        return list(candidates)
