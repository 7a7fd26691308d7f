"""Action valuation: expected effect of evidence-gathering on parent beliefs.

The value of confirming a hypothesis label is seeded by the goal values at
the top of the model hierarchy and propagated downward: a label is worth
the belief change its confirmation would induce at its parents, weighted
by their values.

An action bears on context sources, resolved once per (target node,
outcome table): the net parents whose labels are the table's parent axis,
else the prospective parent groups with those labels, else the target
itself for a self-bearing table.  One contraction over the outcome table
``entries[c, o, p]`` gives, for every child label at once, how far the
Bayes-rule posterior over a source's labels moves from its current
probabilities.  It runs once per distinct (table, source, mode) in a
valuation; every candidate with that table and source reads the result.
A candidate's value at a label adds its sources' contractions in
precedence order, and its value at a node sums the node's labels in label
order, so sharing changes no bit of any value.

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

    def __post_init__(self):
        if self.cost < 0:
            raise ValueError(f"action {self.id}: negative cost")


# what an action bears on: ("node", node id) or ("group", group id)
Source = tuple[str, str]


@dataclass(frozen=True)
class _ParentContext:
    """One resolved bearing of an action: labels, current probability, values."""

    labels: tuple[str, ...]
    prior: np.ndarray
    values: np.ndarray


def _marginal_posteriors(
    table: OutcomeTable, prior: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """p(parent | child label, action) for every child label, outcomes summed
    out, and each label's total probability; a row with zero total is NaN."""
    joint = table.entries.sum(axis=1) * prior  # (child, parent)
    denom = joint.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return joint / denom[:, None], denom


class Valuer:
    """Values candidate actions against one immutable snapshot of the net.

    Parent values are computed once per node or prospective group, context
    sources once per (target, outcome table), and contractions once per
    (outcome table, source, mode); candidates share all three.
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
        self.posterior_evals = 0  # contractions: one per (table, source, mode)
        self._source_memo: dict[tuple[str, str], tuple[Source, ...]] = {}
        self._contractions: dict[tuple[str, Source, ValueMode], np.ndarray] = {}
        self._sums: dict[tuple[str, tuple[Source, ...], ValueMode], list[float]] = {}
        self._node_values: dict[str, np.ndarray] = {}
        self._group_values: dict[str, np.ndarray] = {}
        self._beliefs: dict[str, np.ndarray] = {
            nid: net.belief(nid) for nid in net.nodes
        }

    # -- value recursion ---------------------------------------------------

    def _node_group(self, node_id: str) -> str | None:
        node = self.net.node(node_id)
        for ref in node.model_refs.values():
            if ref is not None:
                return self.mb.group_of.get(ref)
        return self.mb.group_for_labels(node.labels)

    def node_value_vector(self, node_id: str) -> np.ndarray:
        """V(label) for each label of an instantiated node."""
        if node_id in self._node_values:
            return self._node_values[node_id]
        node = self.net.node(node_id)
        group = self._node_group(node_id)
        if group == self.mb.goal_group:
            vec = np.array(
                [self.mb.goal_values.get(lab, 0.0) for lab in node.labels]
            )
        else:
            parents = self.net.parents(node_id)
            if parents:
                vec = np.zeros(len(node.labels))
                for pid, cpt in parents:
                    vec += self._confirmation_values(
                        cpt.rows, self._beliefs[pid], self.node_value_vector(pid)
                    )
            elif group is not None:
                vec = self.group_value_vector(group)
            else:
                raise UnvaluedAncestorError(
                    f"node {node_id!r} has no parents, no group, and no goal values"
                )
        self._node_values[node_id] = vec
        return vec

    def group_value_vector(self, group: str) -> np.ndarray:
        """V(label) for a not-yet-instantiated group, via a priori priors."""
        if group in self._group_values:
            return self._group_values[group]
        hs = self.mb.hypothesis_set(group)
        if group == self.mb.goal_group:
            vec = np.array([self.mb.goal_values.get(lab, 0.0) for lab in hs.labels])
        else:
            parent_edges = self.mb.group_parents.get(group, ())
            if not parent_edges:
                raise UnvaluedAncestorError(
                    f"group {group!r} has no parents and carries no goal values"
                )
            vec = np.zeros(len(hs.labels))
            for parent_group, cpt_id in parent_edges:
                cpt = self.mb.cpt(cpt_id)
                parent_hs = self.mb.hypothesis_set(parent_group)
                vec += self._confirmation_values(
                    cpt.rows,
                    np.array(parent_hs.priors),
                    self.group_value_vector(parent_group),
                )
        self._group_values[group] = vec
        return vec

    @staticmethod
    def _confirmation_values(
        rows: np.ndarray, parent_prob: np.ndarray, parent_values: np.ndarray
    ) -> np.ndarray:
        """Per-child-label value of full confirmation, via the linking table.

        A child label whose posterior is undefined (zero joint mass) simply
        contributes nothing.
        """
        joint = rows * parent_prob[:, None]  # (parent, child)
        totals = joint.sum(axis=0)
        out = np.zeros(rows.shape[1])
        ok = totals > 0
        post = np.zeros_like(joint)
        post[:, ok] = joint[:, ok] / totals[ok]
        shift = np.abs(post[:, ok] - parent_prob[:, None])
        out[ok] = (shift * parent_values[:, None]).sum(axis=0)
        return out

    # -- context sources ------------------------------------------------------

    def _sources(self, target: str, table: OutcomeTable) -> tuple[Source, ...]:
        """What an action with ``table`` on ``target`` bears on, in precedence
        order; resolved once per (target, table).

        Instantiated net parents with the table's parent labels win;
        otherwise the prospective model parent groups with those labels (a
        priori probabilities); otherwise, when the parent axis is the
        target's own label set, the node itself.  Anything else bears on
        nothing and is worth 0.
        """
        key = (target, table.id)
        if key in self._source_memo:
            return self._source_memo[key]
        out = tuple(
            ("node", pid)
            for pid, _ in self.net.parents(target)
            if self.net.node(pid).labels == table.parent_labels
        )
        if not out:
            group = self._node_group(target)
            if group is not None:
                out = tuple(
                    ("group", pg)
                    for pg, _ in self.mb.group_parents.get(group, ())
                    if self.mb.hypothesis_set(pg).labels == table.parent_labels
                )
        if not out and table.parent_labels == self.net.node(target).labels:
            out = (("node", target),)
        self._source_memo[key] = out
        return out

    def _context(self, source: Source) -> _ParentContext:
        """A source's labels, current probabilities and label values."""
        kind, ident = source
        if kind == "node":
            return _ParentContext(
                labels=self.net.node(ident).labels,
                prior=self._beliefs[ident],
                values=self.node_value_vector(ident),
            )
        hs = self.mb.hypothesis_set(ident)
        return _ParentContext(
            labels=hs.labels,
            prior=np.array(hs.priors),
            values=self.group_value_vector(ident),
        )

    # -- the operations ------------------------------------------------------

    def _context_values(
        self, table: OutcomeTable, ctx: _ParentContext, mode: ValueMode
    ) -> np.ndarray:
        """Value of confirming each child label, in one parent context.

        One contraction over ``entries[c, o, p]`` covers every label.  A label
        with zero total probability gets NaN: it cannot bear on this parent.
        Each label's sums run in a fixed order: values are bit-reproducible.
        """
        self.posterior_evals += 1
        if mode is ValueMode.OUTCOME_MARGINAL:
            post, denom = _marginal_posteriors(table, ctx.prior)
            shift = np.abs(post - ctx.prior)
        else:
            joint = table.entries * ctx.prior  # (child, outcome, parent)
            denom = joint.reshape(len(joint), -1).sum(axis=1)  # (outcome, parent) flat
            mass = joint.sum(axis=2)  # (child, outcome)
            with np.errstate(divide="ignore", invalid="ignore"):
                moved = (mass / denom[:, None])[..., None] * np.abs(
                    joint / mass[..., None] - ctx.prior
                )
            # zero-mass outcomes move nothing; cumsum adds outcomes in order
            moved = np.where(mass[..., None] > 0.0, moved, 0.0)
            shift = np.cumsum(moved, axis=1)[:, -1]
        return np.where(denom > 0.0, (shift * ctx.values).sum(axis=1), np.nan)

    def _contraction(
        self, table: OutcomeTable, source: Source, mode: ValueMode
    ) -> np.ndarray:
        """``_context_values`` once per (table, source, mode), then by lookup."""
        key = (table.id, source, mode)
        if key not in self._contractions:
            ctx = self._context(source)
            self._contractions[key] = self._context_values(table, ctx, mode)
        return self._contractions[key]

    def _summed(
        self, table: OutcomeTable, sources: tuple[Source, ...], mode: ValueMode
    ) -> list[float]:
        """Per child label, the contractions over ``sources`` added in order."""
        key = (table.id, sources, mode)
        if key not in self._sums:
            total = np.zeros(len(table.child_labels))
            for source in sources:
                total = total + self._contraction(table, source, mode)
            self._sums[key] = total.tolist()
        return self._sums[key]

    def _label_values(
        self, action: ActionInstance, labels: tuple[str, ...], mode: ValueMode | None
    ) -> list[float]:
        """The action's value at each of ``labels``, summed over its sources in
        precedence order."""
        table = self.mb.outcome_table(action.outcome_table)
        for label in labels:
            if label not in table.child_labels:
                raise UnsupportedConfigurationError(
                    f"action {action.id}: table {table.id} does not cover label {label!r}"
                )
        sources = self._sources(action.target_node, table)
        total = self._summed(table, sources, mode or self.mode)
        values = [total[table.child_labels.index(lab)] for lab in labels]
        for label, value in zip(labels, values):
            if math.isnan(value):
                raise UnsupportedConfigurationError(
                    f"action {action.id}: zero probability for label {label!r}"
                )
        return values

    def posterior_given_action(
        self, parent_label: str, child_label: str, action: ActionInstance
    ) -> float:
        """Posterior probability of one parent label given the child and action."""
        table = self.mb.outcome_table(action.outcome_table)
        for source in self._sources(action.target_node, table):
            ctx = self._context(source)
            if parent_label in ctx.labels:
                self.posterior_evals += 1
                ci = table.child_labels.index(child_label)
                post, denom = _marginal_posteriors(table, ctx.prior)
                if denom[ci] <= 0.0:
                    raise UnsupportedConfigurationError(
                        f"action {action.id}: zero probability for label {child_label!r}"
                    )
                return float(post[ci, ctx.labels.index(parent_label)])
        raise UnsupportedConfigurationError(
            f"action {action.id}: no parent context carries label {parent_label!r}"
        )

    def value_of_action_at_hypothesis(
        self, h_label: str, action: ActionInstance, mode: ValueMode | None = None
    ) -> float:
        return self._label_values(action, (h_label,), mode)[0]

    def value_of_action_at_node(
        self, action: ActionInstance, mode: ValueMode | None = None
    ) -> float:
        """Sum of per-hypothesis values over the target node's labels."""
        node = self.net.node(action.target_node)
        table = self.mb.outcome_table(action.outcome_table)
        if table.child_labels != node.labels:
            raise UnsupportedConfigurationError(
                f"action {action.id}: table {table.id} child labels do not match "
                f"node {node.id!r}"
            )
        return float(sum(self._label_values(action, node.labels, mode)))

    def value_all_candidates(self, candidates) -> list[ActionInstance]:
        """Fill in the value of every candidate; equal (table, sources) pairs
        share one contraction per source."""
        for cand in candidates:
            cand.value = self.value_of_action_at_node(cand)
        return list(candidates)
