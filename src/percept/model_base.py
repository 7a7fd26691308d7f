"""A priori model space: object hierarchies, priors, tables, and action templates.

A scenario is a single JSON document with sections ``models``, ``cpts``,
``outcome_tables``, ``actions``, ``goal_values``, ``world`` and ``control``.
Every field of it (and of a knapsack instance) is read through the readers
below (``_read``, ``_field``, ``_each``, ``_labels``, ``_array``, and
``_finite`` and ``_whole`` for numbers): a value of the wrong kind is
``<path>: expected <kind>, got <value>`` and an absent required key
``<path>: missing '<key>'``, with JSON paths from the document root such
as ``cpts.cpt_force.rows`` or ``world.entities[3].x``.  A boolean is never
a number.  Everything loaded here is immutable afterwards and safe to
share between workers.
"""

from __future__ import annotations

import functools
import json
import math
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


_NUMBER = (int, float)
#: each kind a reader checks for, by the name its errors give it
_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean", _NUMBER: "a number"}
_REQUIRED = object()  # the default of a field that must be present


def _name(path) -> str:
    """The JSON path ``path`` stands for: a string, or a (parent path, key or
    index) pair, which readers build for an item and format only to raise."""
    if isinstance(path, str):
        return path
    parent, key = _name(path[0]), path[1]
    if isinstance(key, int):
        return f"{parent}[{key}]"
    return f"{parent}.{key}" if parent else key


def _read(value, kind, path):
    """``value`` if it is of ``kind``, else ``<path>: expected <kind>, got <value>``.
    A boolean is of no kind but ``bool``, although ``bool`` subclasses ``int``."""
    if isinstance(value, kind) and (kind is bool or value.__class__ is not bool):
        return value
    raise ScenarioError(f"{_name(path)}: expected {_KINDS[kind]}, got {value!r}")


def _field(rec: dict, key: str, kind, path, default=_REQUIRED):
    """``rec[key]`` read as ``kind``, ``rec`` being the object at ``path``.  An absent key
    (or a null one, where the default is None) gives ``default``, else ``missing '<key>'``."""
    value = rec.get(key, default)
    # a boolean takes the slow path, where _read accepts it only as a bool
    if value.__class__ is not bool and isinstance(value, kind) or (
        value is default and value is not _REQUIRED
    ):
        return value
    if value is _REQUIRED:
        where = _name(path)
        raise ScenarioError(f"{where}: missing {key!r}" if where else f"missing {key!r}")
    return _read(value, kind, (path, key))


def _finite(rec: dict, key: str, path, default=_REQUIRED):
    """``rec[key]`` read as a number that is neither infinite nor NaN."""
    value = _field(rec, key, _NUMBER, path, default)
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(f"{_name((path, key))}: expected a finite number, got {value!r}")
    return value


def _whole(rec: dict, key: str, path, default=_REQUIRED) -> int:
    """``rec[key]`` read as a finite number within 1e-9 of a whole one, rounded to it."""
    value = _field(rec, key, _NUMBER, path, default)
    if isinstance(value, float):
        if not math.isfinite(value) or abs(value - round(value)) > 1e-9:
            raise ScenarioError(f"{_name((path, key))}: expected a whole number, got {value!r}")
        value = round(value)
    return value


def _each(rec: dict, key: str, kind, path, default=_REQUIRED):
    """(item path, item) for each item of the list ``rec[key]``, read as ``kind``."""
    for i, item in enumerate(_field(rec, key, list, path, default)):
        yield ((path, key), i), _read(item, kind, ((path, key), i))


def _labels(rec: dict, key: str, path) -> tuple[str, ...]:
    """The list of strings ``rec[key]``, as a tuple."""
    labels = _field(rec, key, list, path)
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            _read(label, str, ((path, key), i))
    return tuple(labels)


def _array(rec: dict, key: str, depth: int, path) -> np.ndarray:
    """The ``depth``-deep nested list of numbers ``rec[key]``, as a float array."""
    value = _field(rec, key, list, path)
    try:
        arr = np.array(value)
    except ValueError:  # lists of unequal length
        arr = None
    if arr is None or arr.ndim != depth or arr.dtype.kind not in "iuf":
        _walk(value, depth, (path, key))
        raise ScenarioError(f"{_name((path, key))}: expected a {depth}-d array, got {value!r}")
    return arr.astype(float, copy=False)


def _walk(value, depth: int, path):
    """Raise naming the first item ``depth`` levels down that is no number,
    or above them that is no list."""
    if depth == 0:
        return _read(value, _NUMBER, path)
    for i, item in enumerate(_read(value, list, path)):
        _walk(item, depth - 1, (path, i))


def _as_prob_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ScenarioError(f"{what}: empty probability array")
    low, high = arr.min(), arr.max()  # either is nan if any entry is
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ScenarioError(f"{what}: non-finite probability")
    if low < 0.0 or high > 1.0:
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

    @functools.cached_property
    def columns(self) -> list[list[float]]:
        """``columns[c][p]`` = p(child label c | parent label p): ``rows``
        transposed, as Python floats, computed on first use."""
        return self.rows.T.tolist()


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

    @functools.cached_property
    def marginal(self) -> list[list[float]]:
        """``marginal[c][p]`` = p(child label c | parent label p): ``entries``
        with the outcomes summed out, as Python floats, computed on first use."""
        return self.entries.sum(axis=1).tolist()

    @functools.cached_property
    def _cdfs(self) -> dict[tuple[int | None, int], list[float] | None]:
        return {}

    def outcome_cdf(self, ci: int | None, pi: int) -> list[float] | None:
        """Cumulative outcome distribution at child label index ``ci`` and
        parent label index ``pi``, or with the child summed out when ``ci``
        is None; None if that slice has zero total.

        It is built as ``Generator.choice`` builds it from ``p = row /
        row.sum()`` (``cumsum``, then divide by the last entry), so
        ``bisect_right(cdf, rng.random())`` picks the outcome ``choice``
        would.  Each slice is computed once, on first use.
        """
        key = (ci, pi)
        if key not in self._cdfs:
            row = self.entries[:, :, pi].sum(axis=0) if ci is None else self.entries[ci, :, pi]
            total = row.sum()
            cdf = None
            if total > 0:
                cdf = (row / total).cumsum()
                cdf /= cdf[-1]
                cdf = cdf.tolist()
            self._cdfs[key] = cdf
        return self._cdfs[key]

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
        if self.seed < 0:
            raise ScenarioError(f"control: negative seed {self.seed}")
        if not (0.0 < self.epsilon < 1.0):
            raise ScenarioError(f"control: epsilon {self.epsilon} outside (0, 1)")
        if self.processors < 1:
            raise ScenarioError(f"control: processors must be >= 1")
        if not (0.5 < self.termination_belief <= 1.0):
            raise ScenarioError(
                f"control: termination_belief {self.termination_belief} outside (0.5, 1]"
            )
        if math.isnan(self.max_wall):
            raise ScenarioError("control: max_wall is NaN")
        if self.max_wall < 0:
            raise ScenarioError(f"control: negative max_wall {self.max_wall}")
        if self.value_mode not in ("OUTCOME_MARGINAL", "EXPECTED_ABS_CHANGE"):
            raise ScenarioError(f"control: unknown value_mode {self.value_mode!r}")
        if not (0.0 <= self.duration_jitter < 1.0):
            raise ScenarioError(
                f"control: duration_jitter {self.duration_jitter} outside [0, 1)"
            )

    @staticmethod
    def from_dict(raw: dict) -> "ControlConfig":
        if "termination_ratio" in raw and "termination_belief" not in raw:
            # odds ratio r maps to belief r / (1 + r)
            ratio = float(_field(raw, "termination_ratio", _NUMBER, "control"))
            if ratio <= 1.0:
                raise ScenarioError(f"control: termination_ratio {ratio} must be > 1")
            belief = ratio / (1.0 + ratio)
        else:
            belief = float(_field(raw, "termination_belief", _NUMBER, "control", 0.99))
        return ControlConfig(
            budget_t=_whole(raw, "budget_T", "control", 0),
            epsilon=float(_field(raw, "epsilon", _NUMBER, "control", 0.1)),
            processors=_whole(raw, "processors", "control", 1),
            termination_belief=belief,
            seed=_whole(raw, "seed", "control", 0),
            max_wall=float(_field(raw, "max_wall", _NUMBER, "control", float("inf"))),
            value_mode=_field(raw, "value_mode", str, "control", "OUTCOME_MARGINAL"),
            duration_jitter=float(_field(raw, "duration_jitter", _NUMBER, "control", 0.0)),
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

        # part-of edges (between known nodes) have dimensionally consistent cpts
        for m in self.nodes.values():
            for child_id, cpt_id in m.parts:
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
        children = {g: [c for c, ps in self.group_parents.items() if g in dict(ps)]
                    for g in self.groups}
        _topological(self.groups, children.__getitem__, "group-level")

        # action templates reference known tables and nodes, and a table's
        # child labels are those of every group its template applies to
        for t in self.actions:
            table = self.outcome_table(t.outcome_table)
            if table.action_kind != t.kind:
                raise ScenarioError(
                    f"action {t.id}: kind {t.kind} but table {table.id} is for "
                    f"{table.action_kind}"
                )
            for mid in self.nodes if t.applicable_to == "*" else t.applicable_to:
                group = self.node(mid).isa_group
                if table.child_labels != self.groups[group].labels:
                    raise ScenarioError(f"action {t.id}: table {table.id} child labels "
                                        f"do not match group {group!r}")
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


def _build_groups(records) -> tuple[dict[str, ModelNode], dict[str, HypothesisSet]]:
    """Model nodes and confusion groups from (path, model record) pairs."""
    nodes: dict[str, ModelNode] = {}
    members: dict[str, list[str]] = {}
    raw_priors: dict[str, float | None] = {}

    for at, rec in records:
        mid = _field(rec, "id", str, at)
        if mid in nodes:
            raise ScenarioError(f"duplicate model id {mid!r}")
        if mid == NULL_LABEL:
            raise ScenarioError(f"model id {NULL_LABEL!r} is reserved")
        group = _field(rec, "isa_group", str, at, mid)
        raw_priors[mid] = _field(rec, "prior", _NUMBER, at, None)
        members.setdefault(group, []).append(mid)
        nodes[mid] = ModelNode(
            id=mid,
            isa_group=group,
            parts=tuple(
                (_field(p, "child", str, pat), _field(p, "cpt", str, pat))
                for pat, p in _each(rec, "parts", dict, at, [])
            ),
            min_parts=_whole(rec, "min_parts", at, 1),
        )

    groups: dict[str, HypothesisSet] = {}
    for group, ids in members.items():
        missing = [m for m in ids if raw_priors[m] is None]
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
    # a document needs both; build_model_base defaults them for tests
    _field(_read(raw, dict, "scenario"), "world", dict, "")
    _field(raw, "control", dict, "")
    return build_model_base(raw)


def build_model_base(raw: dict) -> ModelBase:
    """Construct a ModelBase from an already-parsed scenario dict."""
    _read(raw, dict, "scenario")
    nodes, groups = _build_groups(_each(raw, "models", dict, ""))

    cpts = {}
    for cid, rec in _field(raw, "cpts", dict, "").items():
        at = ("cpts", cid)
        rec = _read(rec, dict, at)
        cpts[cid] = ConditionalTable(
            id=cid,
            parent_labels=_labels(rec, "parent_labels", at),
            child_labels=_labels(rec, "child_labels", at),
            rows=_array(rec, "rows", 2, at),
        )

    tables = {}
    for tid, rec in _field(raw, "outcome_tables", dict, "").items():
        at = ("outcome_tables", tid)
        rec = _read(rec, dict, at)
        tables[tid] = OutcomeTable(
            id=tid,
            action_kind=_field(rec, "action_kind", str, at),
            child_labels=_labels(rec, "child_labels", at),
            outcomes=_labels(rec, "outcomes", at),
            parent_labels=_labels(rec, "parent_labels", at),
            entries=_array(rec, "entries", 3, at),
        )

    actions = []
    for at, rec in _each(raw, "actions", dict, ""):
        applicable = rec.get("applicable_to", "*")
        actions.append(
            ActionTemplate(
                id=_field(rec, "id", str, at),
                kind=_field(rec, "kind", str, at),
                applicable_to=(
                    "*" if applicable == "*" else _labels(rec, "applicable_to", at)
                ),
                cost=_whole(rec, "cost", at, 0),
                outcome_table=_field(rec, "outcome_table", str, at),
                repeatable=_field(rec, "repeatable", bool, at, False),
            )
        )
    ids = [a.id for a in actions]
    if len(set(ids)) != len(ids):
        raise ScenarioError("duplicate action template ids")

    goals = _field(raw, "goal_values", dict, "")
    goal_values = {label: float(_finite(goals, label, "goal_values")) for label in goals}
    return ModelBase(
        nodes=nodes,
        groups=groups,
        cpts=cpts,
        outcome_tables=tables,
        actions=tuple(actions),
        goal_values=goal_values,
        world=_field(raw, "world", dict, "", {}),
        control=ControlConfig.from_dict(_field(raw, "control", dict, "", {})),
    )
