"""A priori model space: object hierarchies, priors, tables, and action templates.

A scenario is a single JSON document with sections ``models``, ``cpts``,
``outcome_tables``, ``actions``, ``goal_values``, ``world`` and ``control``.
Everything loaded here is immutable afterwards and safe to share between
workers.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CyclicModelError, ScenarioError, UnknownIdError

PROB_TOL = 1e-9

ACTION_KINDS = (
    "REFINE-TYPE",
    "REFINE-FORMATION",
    "SEARCH",
    "TERRAIN-SUPPORT",
    "CLASSIFICATION",
)

#: label automatically appended to a hypothesis group whose member priors
#: do not already account for the full probability mass
NULL_LABEL = "other"

#: outcome id every SEARCH outcome table must provide (reported when the
#: matcher cannot assemble a parent hypothesis)
NO_MATCH_OUTCOME = "no_match"


def _number(value, what: str):
    """``value`` itself if it is a number, else a ScenarioError naming ``what``."""
    if not isinstance(value, numbers.Real):
        raise ScenarioError(f"{what}: expected a number, got {value!r}")
    return value


def _fields(rec, path: str, keys: tuple[str, ...]) -> list:
    """The values at ``keys`` of the record at ``path``, all required; a
    missing one, or a record that is no object, is a ScenarioError naming
    ``path``."""
    if not isinstance(rec, dict):
        raise ScenarioError(f"{path}: expected an object, got {rec!r}")
    for key in keys:
        if key not in rec:
            raise ScenarioError(f"{path}: missing {key!r}")
    return [rec[key] for key in keys]


def _as_prob_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ScenarioError(f"{what}: empty probability array")
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{what}: non-finite probability")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ScenarioError(f"{what}: probability outside [0, 1]")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HypothesisSet:
    """Ordered, mutually exclusive and exhaustive hypothesis labels."""

    labels: tuple[str, ...]
    priors: np.ndarray
    null_label: str | None = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ScenarioError(f"hypothesis labels not distinct: {self.labels}")
        priors = _as_prob_array(self.priors, f"hypothesis set {self.labels}")
        object.__setattr__(self, "priors", priors)
        if len(priors) != len(self.labels):
            raise ScenarioError(
                f"hypothesis set {self.labels}: {len(priors)} priors for "
                f"{len(self.labels)} labels"
            )
        if abs(priors.sum() - 1.0) > PROB_TOL:
            raise ScenarioError(
                f"hypothesis set {self.labels}: priors sum to {priors.sum():.12f}"
            )
        if self.null_label is not None and self.null_label not in self.labels:
            raise ScenarioError(
                f"hypothesis set {self.labels}: null label {self.null_label!r} "
                "is not a member"
            )

    def __eq__(self, other):
        return (
            isinstance(other, HypothesisSet)
            and self.labels == other.labels
            and self.null_label == other.null_label
            and np.array_equal(self.priors, other.priors)
        )


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """p(child label | parent label), one row per parent label."""

    id: str
    parent_labels: tuple[str, ...]
    child_labels: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        rows = _as_prob_array(self.rows, f"cpt {self.id}")
        object.__setattr__(self, "rows", rows)
        if rows.shape != (len(self.parent_labels), len(self.child_labels)):
            raise ScenarioError(
                f"cpt {self.id}: shape {rows.shape} does not match "
                f"{len(self.parent_labels)} parents x {len(self.child_labels)} children"
            )
        bad = np.abs(rows.sum(axis=1) - 1.0) > PROB_TOL
        if np.any(bad):
            label = self.parent_labels[int(np.argmax(bad))]
            raise ScenarioError(f"cpt {self.id}: row {label!r} does not sum to 1")


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """Stored joint p(child label, outcome | parent label) for one action kind.

    ``entries[c, o, p]`` is the probability of seeing child label ``c``
    together with outcome ``o`` when the parent truly is ``p``.  For each
    fixed parent the entries over (child, outcome) sum to one.
    """

    id: str
    action_kind: str
    child_labels: tuple[str, ...]
    outcomes: tuple[str, ...]
    parent_labels: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        if self.action_kind not in ACTION_KINDS:
            raise ScenarioError(
                f"outcome table {self.id}: unknown action kind {self.action_kind!r}"
            )
        entries = _as_prob_array(self.entries, f"outcome table {self.id}")
        object.__setattr__(self, "entries", entries)
        shape = (len(self.child_labels), len(self.outcomes), len(self.parent_labels))
        if entries.shape != shape:
            raise ScenarioError(
                f"outcome table {self.id}: shape {entries.shape}, expected {shape}"
            )
        totals = entries.sum(axis=(0, 1))
        bad = np.abs(totals - 1.0) > PROB_TOL
        if np.any(bad):
            label = self.parent_labels[int(np.argmax(bad))]
            raise ScenarioError(
                f"outcome table {self.id}: parent slice {label!r} sums to "
                f"{totals[int(np.argmax(bad))]:.12f}"
            )
        if self.action_kind == "SEARCH" and NO_MATCH_OUTCOME not in self.outcomes:
            raise ScenarioError(
                f"outcome table {self.id}: SEARCH tables need a "
                f"{NO_MATCH_OUTCOME!r} outcome"
            )

    def outcome_index(self, outcome: str) -> int:
        try:
            return self.outcomes.index(outcome)
        except ValueError:
            raise UnknownIdError(
                f"outcome table {self.id}: unknown outcome {outcome!r}"
            ) from None


@dataclass(frozen=True)
class ActionTemplate:
    """One executable action kind with its cost and outcome model."""

    id: str
    kind: str
    applicable_to: tuple[str, ...] | str  # model node ids, or "*" for all
    cost: int  # simulated milliseconds
    outcome_table: str
    repeatable: bool = False

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ScenarioError(f"action {self.id}: unknown kind {self.kind!r}")
        if self.cost < 0:
            raise ScenarioError(f"action {self.id}: negative cost {self.cost}")

    def applies_to(self, model_id: str) -> bool:
        if self.applicable_to == "*":
            return True
        return model_id in self.applicable_to


@dataclass(frozen=True)
class ModelNode:
    """One a priori object model inside a confusion group."""

    id: str
    isa_group: str
    parts: tuple[tuple[str, str], ...] = ()  # (child model id, cpt id)
    min_parts: int = 1  # confirmed children a match needs before proposing this node

    def __post_init__(self):
        if self.min_parts < 1:
            raise ScenarioError(f"model {self.id}: min_parts must be >= 1")


@dataclass(frozen=True)
class ControlConfig:
    """Per-run control parameters from the scenario's ``control`` section."""

    budget_t: int
    epsilon: float
    processors: int
    termination_belief: float
    seed: int
    max_wall: float = float("inf")
    value_mode: str = "OUTCOME_MARGINAL"
    duration_jitter: float = 0.0  # multiplicative; 0 means durations equal costs

    def __post_init__(self):
        if self.budget_t < 0:
            raise ScenarioError(f"control: negative budget_T {self.budget_t}")
        if not (0.0 < self.epsilon < 1.0):
            raise ScenarioError(f"control: epsilon {self.epsilon} outside (0, 1)")
        if self.processors < 1:
            raise ScenarioError(f"control: processors must be >= 1")
        if not (0.5 < self.termination_belief <= 1.0):
            raise ScenarioError(
                f"control: termination_belief {self.termination_belief} outside (0.5, 1]"
            )
        if self.value_mode not in ("OUTCOME_MARGINAL", "EXPECTED_ABS_CHANGE"):
            raise ScenarioError(f"control: unknown value_mode {self.value_mode!r}")
        if not (0.0 <= self.duration_jitter < 1.0):
            raise ScenarioError(
                f"control: duration_jitter {self.duration_jitter} outside [0, 1)"
            )

    @staticmethod
    def from_dict(raw: dict) -> "ControlConfig":
        if not isinstance(raw, dict):
            raise ScenarioError(f"control: expected an object, got {raw!r}")
        raw = dict(raw)

        def num(key, default):
            return _number(raw.get(key, default), f"control: {key}")

        if "termination_ratio" in raw and "termination_belief" not in raw:
            # odds ratio r maps to belief r / (1 + r)
            ratio = float(num("termination_ratio", None))
            if ratio <= 1.0:
                raise ScenarioError(f"control: termination_ratio {ratio} must be > 1")
            raw["termination_belief"] = ratio / (1.0 + ratio)
        raw.pop("termination_ratio", None)
        budget = _number(raw.get("budget_T", raw.get("budget_t", 0)), "control: budget_T")
        if abs(budget - round(budget)) > 1e-9:
            raise ScenarioError(f"control: budget_T {budget} must be integral")
        return ControlConfig(
            budget_t=int(round(budget)),
            epsilon=float(num("epsilon", 0.1)),
            processors=int(num("processors", 1)),
            termination_belief=float(num("termination_belief", 0.99)),
            seed=int(num("seed", 0)),
            max_wall=float(num("max_wall", float("inf"))),
            value_mode=str(raw.get("value_mode", "OUTCOME_MARGINAL")),
            duration_jitter=float(num("duration_jitter", 0.0)),
        )


class ModelBase:
    """Validated, immutable model space served to the rest of the engine."""

    def __init__(
        self,
        nodes: dict[str, ModelNode],
        groups: dict[str, HypothesisSet],
        cpts: dict[str, ConditionalTable],
        outcome_tables: dict[str, OutcomeTable],
        actions: tuple[ActionTemplate, ...],
        goal_values: dict[str, float],
        world: dict,
        control: ControlConfig,
    ):
        self.nodes = nodes
        self.groups = groups
        self.cpts = cpts
        self.outcome_tables = outcome_tables
        self.actions = actions
        self.goal_values = goal_values
        self.world = world
        self.control = control
        # group-level part-of edges: child group -> ((parent group, cpt id), ...)
        self.group_parents: dict[str, tuple[tuple[str, str], ...]] = {}
        # outcome table id -> the group over its parent axis, set by _validate
        self.table_parent_group: dict[str, str] = {}
        self._derive_group_edges()
        self.goal_group = self._find_goal_group()
        self._validate()
        # group -> the templates applicable to any member model, in (kind, id) order
        self.group_templates: dict[str, tuple[ActionTemplate, ...]] = {}
        for g, hs in groups.items():
            union = {t for m in hs.labels if m in nodes for t in self.templates_for(m)}
            self.group_templates[g] = tuple(sorted(union, key=lambda t: (t.kind, t.id)))

    # -- lookups ---------------------------------------------------------

    def node(self, model_id: str) -> ModelNode:
        try:
            return self.nodes[model_id]
        except KeyError:
            raise UnknownIdError(f"unknown model node {model_id!r}") from None

    def parts_of(self, model_id: str) -> tuple[tuple[str, str], ...]:
        """Declared (child id, cpt id) pairs of a model node, in order."""
        return self.node(model_id).parts

    def templates_for(self, model_id: str) -> tuple[ActionTemplate, ...]:
        """All action templates applicable to a model node."""
        self.node(model_id)
        return tuple(t for t in self.actions if t.applies_to(model_id))

    def hypothesis_set(self, group: str) -> HypothesisSet:
        try:
            return self.groups[group]
        except KeyError:
            raise UnknownIdError(f"unknown hypothesis group {group!r}") from None

    def group_for_labels(self, labels: tuple[str, ...]) -> str | None:
        """The group with exactly these labels, by a scan (load time only)."""
        for gid, hs in self.groups.items():
            if hs.labels == tuple(labels):
                return gid
        return None

    def cpt(self, cpt_id: str) -> ConditionalTable:
        try:
            return self.cpts[cpt_id]
        except KeyError:
            raise UnknownIdError(f"unknown cpt {cpt_id!r}") from None

    def outcome_table(self, table_id: str) -> OutcomeTable:
        try:
            return self.outcome_tables[table_id]
        except KeyError:
            raise UnknownIdError(f"unknown outcome table {table_id!r}") from None

    def leaf_group(self) -> str:
        """The unique confusion group whose members have no parts."""
        leaves = {
            g
            for g, hs in self.groups.items()
            if all(not self.nodes[lab].parts for lab in hs.labels if lab in self.nodes)
        }
        if len(leaves) != 1:
            raise ScenarioError(
                f"expected exactly one leaf group for clustering, found {sorted(leaves)}"
            )
        return leaves.pop()

    # -- construction ----------------------------------------------------

    def _derive_group_edges(self):
        edges: dict[str, dict[str, str]] = {}
        for m in self.nodes.values():
            for child_id, cpt_id in m.parts:
                child = self.node(child_id)
                seen = edges.setdefault(child.isa_group, {})
                prev = seen.get(m.isa_group)
                if prev is not None and prev != cpt_id:
                    raise ScenarioError(
                        f"groups {m.isa_group!r} -> {child.isa_group!r} linked by "
                        f"both cpt {prev!r} and {cpt_id!r}"
                    )
                seen[m.isa_group] = cpt_id
        self.group_parents = {
            g: tuple(sorted(parents.items())) for g, parents in edges.items()
        }

    def _find_goal_group(self) -> str:
        owners = {
            gid
            for label in self.goal_values
            for gid, hs in self.groups.items()
            if label in hs.labels
        }
        if len(owners) != 1:
            raise ScenarioError(
                f"goal values must name labels of exactly one group, found {sorted(owners)}"
            )
        return owners.pop()

    def _validate(self):
        if not any(v > 0 for v in self.goal_values.values()):
            raise ScenarioError("goal_values: no strictly positive entry")
        if any(v < 0 for v in self.goal_values.values()):
            raise ScenarioError("goal_values: negative value")

        # part-of edges reference known nodes and dimensionally consistent cpts
        for m in self.nodes.values():
            for child_id, cpt_id in m.parts:
                if child_id not in self.nodes:
                    raise ScenarioError(
                        f"model {m.id}: part {child_id!r} is not a model node"
                    )
                cpt = self.cpt(cpt_id)
                parent_hs = self.hypothesis_set(m.isa_group)
                child_hs = self.hypothesis_set(self.nodes[child_id].isa_group)
                if cpt.parent_labels != parent_hs.labels:
                    raise ScenarioError(
                        f"cpt {cpt_id}: parent labels {cpt.parent_labels} do not "
                        f"match group {m.isa_group!r} labels {parent_hs.labels}"
                    )
                if cpt.child_labels != child_hs.labels:
                    raise ScenarioError(
                        f"cpt {cpt_id}: child labels do not match group "
                        f"{self.nodes[child_id].isa_group!r}"
                    )

        self.topological_order()  # raises on a node-level cycle, naming nodes
        _topological(
            self.groups,
            lambda g: [c for c, ps in self.group_parents.items() if g in dict(ps)],
            "group-level",
        )

        # action templates reference known tables and nodes; table axes are groups
        for t in self.actions:
            table = self.outcome_table(t.outcome_table)
            if table.action_kind != t.kind:
                raise ScenarioError(
                    f"action {t.id}: kind {t.kind} but table {table.id} is for "
                    f"{table.action_kind}"
                )
            if t.applicable_to != "*":
                for mid in t.applicable_to:
                    self.node(mid)
        for table in self.outcome_tables.values():
            parent = self.group_for_labels(table.parent_labels)
            if parent is None:
                raise ScenarioError(
                    f"outcome table {table.id}: parent labels do not match any group"
                )
            if self.group_for_labels(table.child_labels) is None:
                raise ScenarioError(
                    f"outcome table {table.id}: child labels do not match any group"
                )
            self.table_parent_group[table.id] = parent

    def topological_order(self) -> tuple[str, ...]:
        """Model node ids, every part after its whole; raises on a cycle."""
        return _topological(
            self.nodes, lambda mid: [c for c, _ in self.nodes[mid].parts], "part-of"
        )


def _topological(keys, children, what: str) -> tuple[str, ...]:
    """Keys ordered parents first, by depth-first search; raises
    CyclicModelError naming the cycle's members as a ``what`` cycle."""
    order, state = [], {}

    def visit(key: str, chain: tuple[str, ...]):
        if state.get(key) == "done":
            return
        if state.get(key) == "open":
            cycle = chain[chain.index(key):] + (key,)
            raise CyclicModelError(f"{what} cycle through {', '.join(cycle)}")
        state[key] = "open"
        for child in children(key):
            visit(child, chain + (key,))
        state[key] = "done"
        order.append(key)

    for key in keys:
        visit(key, ())
    order.reverse()
    return tuple(order)


def _build_groups(models: list[dict]) -> tuple[dict[str, ModelNode], dict[str, HypothesisSet]]:
    nodes: dict[str, ModelNode] = {}
    members: dict[str, list[str]] = {}
    unspecified: dict[str, list[str]] = {}
    raw_priors: dict[str, float | None] = {}

    for rec in models:
        try:
            mid = rec["id"]
        except KeyError:
            raise ScenarioError(f"model record without id: {rec}") from None
        if mid in nodes:
            raise ScenarioError(f"duplicate model id {mid!r}")
        if mid == NULL_LABEL:
            raise ScenarioError(f"model id {NULL_LABEL!r} is reserved")
        group = rec.get("isa_group", mid)
        prior = rec.get("prior")
        raw_priors[mid] = None if prior is None else _number(prior, f"model {mid}: prior")
        members.setdefault(group, []).append(mid)
        if prior is None:
            unspecified.setdefault(group, []).append(mid)
        parts = rec.get("parts", [])
        if not isinstance(parts, list) or not all(
            isinstance(p, dict) and "child" in p and "cpt" in p for p in parts
        ):
            raise ScenarioError(
                f"model {mid}: parts must be a list of {{child, cpt}} objects, "
                f"got {parts!r}"
            )
        nodes[mid] = ModelNode(
            id=mid,
            isa_group=group,
            parts=tuple((p["child"], p["cpt"]) for p in parts),
            min_parts=int(_number(rec.get("min_parts", 1), f"model {mid}: min_parts")),
        )

    groups: dict[str, HypothesisSet] = {}
    for group, ids in members.items():
        missing = unspecified.get(group, [])
        specified_sum = sum(raw_priors[m] for m in ids if raw_priors[m] is not None)
        # unspecified members split half the mass against the null label
        default_each = 0.5 / len(missing) if missing else 0.0
        priors = [
            raw_priors[m] if raw_priors[m] is not None else default_each for m in ids
        ]
        total = specified_sum + default_each * len(missing)
        if total > 1.0 + PROB_TOL:
            raise ScenarioError(
                f"group {group!r}: member priors sum to {total:.12f} > 1"
            )
        null_mass = max(0.0, 1.0 - total)
        if null_mass > PROB_TOL:
            labels = tuple(ids) + (NULL_LABEL,)
            priors = priors + [null_mass]
            null = NULL_LABEL
        else:
            labels = tuple(ids)
            null = None
        groups[group] = HypothesisSet(labels=labels, priors=np.array(priors), null_label=null)
    return nodes, groups


def load_scenario(path: str | Path) -> ModelBase:
    """Load and validate a scenario document.

    Raises :class:`ScenarioError` naming the offending element on any
    malformed section; probabilities out of tolerance are errors, never
    silently renormalized.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario {path} must be a JSON object")
    for key in ("world", "control"):
        if key not in raw:
            raise ScenarioError(f"scenario missing required section {key!r}")
    return build_model_base(raw)


def build_model_base(raw: dict) -> ModelBase:
    """Construct a ModelBase from an already-parsed scenario dict."""
    for key in ("models", "cpts", "outcome_tables", "actions", "goal_values"):
        if key not in raw:
            raise ScenarioError(f"scenario missing required section {key!r}")

    nodes, groups = _build_groups(raw["models"])

    cpts = {}
    for cid, rec in raw["cpts"].items():
        parents, children, rows = _fields(
            rec, f"cpts.{cid}", ("parent_labels", "child_labels", "rows")
        )
        cpts[cid] = ConditionalTable(
            id=cid,
            parent_labels=tuple(parents),
            child_labels=tuple(children),
            rows=np.array(rows, dtype=float),
        )

    tables = {}
    for tid, rec in raw["outcome_tables"].items():
        kind, children, outcomes, parents, entries = _fields(
            rec,
            f"outcome_tables.{tid}",
            ("action_kind", "child_labels", "outcomes", "parent_labels", "entries"),
        )
        tables[tid] = OutcomeTable(
            id=tid,
            action_kind=kind,
            child_labels=tuple(children),
            outcomes=tuple(outcomes),
            parent_labels=tuple(parents),
            entries=np.array(entries, dtype=float),
        )

    actions = []
    for rec in raw["actions"]:
        aid = rec.get("id", "?")
        cost = _number(rec.get("cost", 0), f"action {aid}: cost")
        if abs(cost - round(cost)) > 1e-9:
            raise ScenarioError(
                f"action {aid}: fractional cost {cost} "
                "(costs are integral simulated milliseconds)"
            )
        applicable = rec.get("applicable_to", "*")
        if applicable != "*":
            if not isinstance(applicable, (list, tuple)):
                raise ScenarioError(
                    f"action {aid}: applicable_to must be \"*\" or a list of "
                    f"model ids, got {applicable!r}"
                )
            applicable = tuple(applicable)
        actions.append(
            ActionTemplate(
                id=rec["id"],
                kind=rec["kind"],
                applicable_to=applicable,
                cost=int(round(cost)),
                outcome_table=rec["outcome_table"],
                repeatable=bool(rec.get("repeatable", False)),
            )
        )
    ids = [a.id for a in actions]
    if len(set(ids)) != len(ids):
        raise ScenarioError("duplicate action template ids")

    goal_values = {str(k): float(v) for k, v in raw["goal_values"].items()}
    control = ControlConfig.from_dict(raw.get("control", {}))

    return ModelBase(
        nodes=nodes,
        groups=groups,
        cpts=cpts,
        outcome_tables=tables,
        actions=tuple(actions),
        goal_values=goal_values,
        world=raw.get("world", {}),
        control=control,
    )
