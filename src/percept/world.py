"""Synthetic ground truth and stochastic execution of the five action kinds.

The world is immutable during a run.  Sampled outcomes condition on true
entity types; the inference side only ever sees outcome ids (and, for
searches, the matched sibling node set), never the truth itself.  An
outcome draw is one ``random()`` of its generator and a ``bisect_right``
on the slice's cumulative distribution, a list of Python floats that the
table builds once per slice as ``Generator.choice`` builds it, so the
draw picks what ``choice(len(outcomes), p=row / row.sum())`` would.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bayes_net import BayesNet
from .errors import ScenarioError, UnknownIdError
from .model_base import (
    _NUMBER,
    NO_MATCH_OUTCOME,
    HypothesisSet,
    ModelBase,
    _each,
    _field,
    _finite,
    _read,
    _whole,
)

VEHICLE_TYPE = "vehicle"


_DEFAULT_TERRAIN = {"width": 1, "height": 1, "cells": [["open"]],
                    "support": {"open": {"default": "supports"}}}


@dataclass(frozen=True)
class WorldEntity:
    id: str
    type: str  # model node id, or "vehicle" below the modeled hierarchy
    x: float
    y: float
    member_of: str | None = None


@dataclass(frozen=True)
class Detection:
    x: float
    y: float
    strength: float  # detection likelihood in [0, 1]
    is_false_alarm: bool = False  # hidden from the engine; scoring only

    def __post_init__(self):
        if not (0.0 <= self.strength <= 1.0):
            raise ValueError(f"detection strength {self.strength} outside [0, 1]")


@dataclass(frozen=True)
class ClusterParams:
    max_intervehicle_distance: float
    min_count: int
    max_count: int
    max_extent: float

    def __post_init__(self):
        # "not > 0" also rejects NaN: a NaN distance could not bucket
        # detections into grid cells, and a NaN extent would bind nothing
        if not self.max_intervehicle_distance > 0 or not self.max_extent > 0:
            raise ScenarioError("cluster distances must be > 0")
        if self.min_count < 0:
            raise ScenarioError(f"cluster min_count {self.min_count} is negative")
        if self.min_count > self.max_count:
            raise ScenarioError(
                f"cluster min_count {self.min_count} > max_count {self.max_count}"
            )


@dataclass(frozen=True)
class Cluster:
    """A detection grouping proposed as one unit-level hypothesis."""

    members: tuple[int, ...]  # indices into the detection sequence
    centroid: tuple[float, float]
    extent: float
    strength: float
    seed: HypothesisSet | None = None


@dataclass(frozen=True)
class Binding:
    """World-side association of a net node with ground truth."""

    entity: str | None
    x: float
    y: float


@dataclass(frozen=True)
class ActionResult:
    outcome: str
    siblings: tuple[str, ...] | None = None
    parent_entity: str | None = None
    #: False when the process aborted before observing anything (for SEARCH,
    #: the matcher could not even be run); such returns carry no evidence
    informative: bool = True


class TerrainGrid:
    """Rectangular grid of terrain classes over [0, width) x [0, height).

    Positions outside the rectangle clamp to the nearest cell.  ``cells``
    (rows of class names) and ``support`` (class -> {force type or
    "default": outcome}) are read as a scenario's ``world.terrain`` has them.
    """

    def __init__(self, width: float, height: float, cells: list[list[str]], support: dict):
        at = "world.terrain.support"
        for terrain_class, outcomes in _read(support, dict, at).items():
            path = (at, terrain_class)
            _field(_read(outcomes, dict, path), "default", str, path)
            for force_type, outcome in outcomes.items():
                _read(outcome, str, (path, force_type))
        rows = "world.terrain.cells"
        for i, row in enumerate(_read(cells, list, rows)):
            for j, terrain_class in enumerate(_read(row, list, (rows, i))):
                if _read(terrain_class, str, ((rows, i), j)) not in support:
                    raise ScenarioError(f"{rows}[{i}][{j}]: {terrain_class!r} is not in {at}")
        if width <= 0 or height <= 0 or not cells or not cells[0]:
            raise ScenarioError("terrain grid needs positive size and cells")
        if len({len(row) for row in cells}) != 1:
            raise ScenarioError("terrain rows have inconsistent lengths")
        self.width = float(width)
        self.height = float(height)
        self.cells = [list(row) for row in cells]
        self.support = support

    def class_at(self, x: float, y: float) -> str:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"terrain lookup at non-finite position ({x}, {y})")
        rows, cols = len(self.cells), len(self.cells[0])
        col = min(max(int(x / self.width * cols), 0), cols - 1)
        row = min(max(int(y / self.height * rows), 0), rows - 1)
        return self.cells[row][col]


def terrain_support(position: tuple[float, float], grid: TerrainGrid, force_type: str | None) -> str:
    """Deterministic (terrain class, force type) -> support outcome lookup."""
    outcomes = grid.support[grid.class_at(*position)]
    return outcomes.get(force_type, outcomes["default"])


class World:
    def __init__(
        self,
        entities: dict[str, WorldEntity],
        terrain: TerrainGrid,
        detect_prob: float,
        false_alarm_rate: float,
        cluster_params: ClusterParams,
        confirm_belief: float = 0.8,
        strength_true: tuple[float, float] = (0.6, 0.95),
        strength_false: tuple[float, float] = (0.05, 0.45),
    ):
        self.entities = entities
        self.terrain = terrain
        self.detect_prob = detect_prob
        self.false_alarm_rate = false_alarm_rate
        self.cluster_params = cluster_params
        self.confirm_belief = confirm_belief
        self.strength_true = strength_true
        self.strength_false = strength_false
        self._validate()

    def _validate(self):
        if not (0.0 <= self.detect_prob <= 1.0):
            raise ScenarioError(f"detect_prob {self.detect_prob} outside [0, 1]")
        if self.false_alarm_rate < 0:
            raise ScenarioError("false_alarm_rate must be >= 0")
        if not (0.0 <= self.confirm_belief <= 1.0):
            raise ScenarioError(
                f"world.search.confirm_belief {self.confirm_belief} outside [0, 1]"
            )
        for key, pair in (("true", self.strength_true), ("false", self.strength_false)):
            if len(pair) != 2 or not (0.0 <= pair[0] <= pair[1] <= 1.0):
                raise ScenarioError(f"world.detection_strength.{key}: expected [low, high] "
                                    f"with 0 <= low <= high <= 1, got {list(pair)}")
        for e in self.entities.values():
            if not (math.isfinite(e.x) and math.isfinite(e.y)):
                raise ScenarioError(f"entity {e.id}: non-finite position")
            if e.member_of is not None and e.member_of not in self.entities:
                raise ScenarioError(f"entity {e.id}: unknown member_of {e.member_of!r}")
        # membership must be acyclic
        for e in self.entities.values():
            seen, cur = {e.id}, e.member_of
            while cur is not None:
                if cur in seen:
                    raise ScenarioError(f"membership cycle through entity {cur!r}")
                seen.add(cur)
                cur = self.entities[cur].member_of

    @staticmethod
    def from_dict(model_base: ModelBase) -> "World":
        """The world of a model base's ``world`` section.  An absent key
        takes its default, and every terrain support outcome must be an
        outcome of each TERRAIN-SUPPORT table."""
        raw = model_base.world
        entities = {}
        for at, rec in _each(raw, "entities", dict, "world", []):
            ent = WorldEntity(
                id=_field(rec, "id", str, at),
                type=_field(rec, "type", str, at),
                x=float(_field(rec, "x", _NUMBER, at)),
                y=float(_field(rec, "y", _NUMBER, at)),
                member_of=_field(rec, "member_of", str, at, None),
            )
            if ent.id in entities:
                raise ScenarioError(f"duplicate entity id {ent.id!r}")
            if ent.type != VEHICLE_TYPE and ent.type not in model_base.nodes:
                raise ScenarioError(f"entity {ent.id}: unknown type {ent.type!r}")
            entities[ent.id] = ent

        t = _field(raw, "terrain", dict, "world", _DEFAULT_TERRAIN)
        grid = TerrainGrid(
            _finite(t, "width", "world.terrain"),
            _finite(t, "height", "world.terrain"),
            _field(t, "cells", list, "world.terrain"),
            _field(t, "support", dict, "world.terrain"),
        )
        outcomes = {o for by_type in grid.support.values() for o in by_type.values()}
        for table in model_base.outcome_tables.values():
            missing = outcomes.difference(table.outcomes)
            if table.action_kind == "TERRAIN-SUPPORT" and missing:
                raise ScenarioError(
                    f"terrain outcome {min(missing)!r} missing from table {table.id}"
                )

        c = _field(raw, "cluster_params", dict, "world", {})
        at = "world.cluster_params"
        params = ClusterParams(
            max_intervehicle_distance=float(_field(c, "max_intervehicle_distance", _NUMBER, at, 1.0)),
            min_count=_whole(c, "min_count", at, 1),
            max_count=_whole(c, "max_count", at, 10**6),
            max_extent=float(_field(c, "max_extent", _NUMBER, at, 1e9)),
        )
        optional = {}  # only the keys present: World's own defaults cover the rest
        search = _field(raw, "search", dict, "world", {})
        confirm = _field(search, "confirm_belief", _NUMBER, "world.search", None)
        if confirm is not None:
            optional["confirm_belief"] = float(confirm)
        strength = _field(raw, "detection_strength", dict, "world", {})
        for key in ("true", "false"):
            pair = _field(strength, key, list, "world.detection_strength", None)
            if pair is not None:
                at = ("world.detection_strength", key)
                optional[f"strength_{key}"] = tuple(_read(v, _NUMBER, (at, i)) for i, v in enumerate(pair))
        return World(
            entities=entities,
            terrain=grid,
            detect_prob=float(_field(raw, "detect_prob", _NUMBER, "world", 1.0)),
            false_alarm_rate=float(_finite(raw, "false_alarm_rate", "world", 0.0)),
            cluster_params=params,
            **optional,
        )

    def vehicles(self) -> list[WorldEntity]:
        return [e for e in self.entities.values() if e.type == VEHICLE_TYPE]

    def entity(self, entity_id: str) -> WorldEntity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise UnknownIdError(f"unknown entity {entity_id!r}") from None


def generate_detections(world: World, rng: np.random.Generator) -> tuple[Detection, ...]:
    """Detect each true vehicle independently; scatter uniform false alarms.

    The false alarm rate is an expected count per unit of map area.
    Deterministic given the generator state.
    """
    lo, hi = world.strength_true
    out = []
    for veh in world.vehicles():
        if rng.random() < world.detect_prob:
            out.append(
                Detection(
                    x=veh.x,
                    y=veh.y,
                    strength=float(rng.uniform(lo, hi)),
                    is_false_alarm=False,
                )
            )
    area = world.terrain.width * world.terrain.height
    flo, fhi = world.strength_false
    for _ in range(int(rng.poisson(world.false_alarm_rate * area))):
        out.append(
            Detection(
                x=float(rng.uniform(0.0, world.terrain.width)),
                y=float(rng.uniform(0.0, world.terrain.height)),
                strength=float(rng.uniform(flo, fhi)),
                is_false_alarm=True,
            )
        )
    return tuple(out)


_FORWARD_CELLS = ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1))


def cluster_detections(
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

    # Only pairs in the same or neighbouring grid cells can be within the
    # threshold, so only those are compared.  Cells are a relative 1e-6
    # wider than the threshold: then rounding in x / size cannot put a
    # linked pair two cells apart for any coordinate below 2**31 cells.
    # Union-find components do not depend on the order pairs are merged in.
    threshold = params.max_intervehicle_distance
    size = threshold * (1.0 + 1e-6)
    cells: dict[tuple[int, int], list[int]] = {}
    for i, det in enumerate(detections):
        key = (math.floor(det.x / size), math.floor(det.y / size))
        cells.setdefault(key, []).append(i)
    for (cx, cy), here in cells.items():
        # the cell itself, then the half of its neighbours that come later,
        # so each pair of cells is visited once
        for dx, dy in _FORWARD_CELLS:
            there = cells.get((cx + dx, cy + dy))
            if there is None:
                continue
            for k, i in enumerate(here):
                for j in (here[k + 1:] if there is here else there):
                    d = math.hypot(
                        detections[i].x - detections[j].x,
                        detections[i].y - detections[j].y,
                    )
                    if d <= threshold:
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


def bind_cluster(
    units: list[WorldEntity], cluster: Cluster, max_extent: float
) -> Binding:
    """Associate a cluster with the nearest of ``units`` (the first of equally
    near ones), if it lies within ``max_extent``."""
    cx, cy = cluster.centroid
    best, best_d = None, math.inf
    for e in units:
        d = math.hypot(e.x - cx, e.y - cy)
        if d < best_d:
            best, best_d = e, d
    if best is not None and best_d <= max_extent:
        return Binding(entity=best.id, x=cx, y=cy)
    return Binding(entity=None, x=cx, y=cy)


def _confirmed(net: BayesNet, node_id: str, threshold: float) -> bool:
    node = net.node(node_id)
    beliefs = node.belief.tolist()
    null = node.hypotheses.null_label
    if null is not None:
        del beliefs[node.labels.index(null)]
    return max(beliefs, default=0.0) >= threshold


def execute_action(
    action,
    world: World,
    net: BayesNet,
    rng: Callable[[], np.random.Generator],
    bindings: dict[str, Binding],
    model_base: ModelBase,
) -> ActionResult:
    """Run one action against ground truth and report its outcome id.

    TERRAIN-SUPPORT is a deterministic grid lookup.  SEARCH reports an
    uninformative ``no_match`` unless its target is confirmed and the
    matcher can assemble ``min_parts`` confirmed siblings around a true
    parent.  Every other return is one table draw: from the null-parent
    slice when no entity (for SEARCH, no parent entity) backs the target,
    else conditioned on the target's true (child, parent) labels.  A match
    carries the sibling set for instantiation.

    ``rng`` makes the generator to sample from.  It is called once, and
    only when an outcome is sampled: a terrain lookup or a search that
    aborts builds no generator.
    """
    table = model_base.outcome_table(action.outcome_table)
    binding = bindings.get(action.target_node)
    if binding is None:
        raise UnknownIdError(f"action {action.id}: target has no world binding")
    entity = world.entity(binding.entity) if binding.entity else None
    if action.kind == "TERRAIN-SUPPORT":
        outcome = terrain_support(
            (binding.x, binding.y), world.terrain, entity.type if entity else None
        )
        return ActionResult(outcome=outcome)

    parent_ent = world.entity(entity.member_of) if entity and entity.member_of else None
    search = action.kind == "SEARCH"
    siblings = None
    if search:
        if not _confirmed(net, action.target_node, world.confirm_belief):
            # matcher was never run: the target is not an established
            # hypothesis yet, so this return is not evidence of anything
            return ActionResult(outcome=NO_MATCH_OUTCOME, informative=False)
        if parent_ent is not None:
            target_group = net.node(action.target_node).group
            siblings = tuple(
                nid for nid in sorted(net.nodes)
                if net.node(nid).group == target_group
                and nid in bindings
                and bindings[nid].entity is not None
                and world.entity(bindings[nid].entity).member_of == parent_ent.id
                and _confirmed(net, nid, world.confirm_belief)
            )
            if len(siblings) < model_base.node(parent_ent.type).min_parts:
                return ActionResult(outcome=NO_MATCH_OUTCOME, informative=False)

    null_label = model_base.hypothesis_set(model_base.table_parent_group[table.id]).null_label
    if entity is None or (search and parent_ent is None):
        # nothing real behind the target: a matcher finds no parent formation
        outcome = _sample_null_parent(table, null_label, rng())
    else:
        if parent_ent is not None and parent_ent.type in table.parent_labels:
            parent_label = parent_ent.type
        elif not search and entity.type in table.parent_labels:
            # self-bearing tables: the node's own truth sits on the parent axis
            parent_label = entity.type
        else:
            parent_label = null_label
        outcome = _sample_outcome(table, entity.type, parent_label, rng())
    matched = siblings is not None and outcome != NO_MATCH_OUTCOME
    return ActionResult(outcome, siblings if matched else None, parent_ent.id if matched else None)


def _sample_outcome(
    table, child_label: str, parent_label: str | None, rng: np.random.Generator
) -> str:
    if child_label not in table.child_labels:
        raise ScenarioError(
            f"table {table.id}: true type {child_label!r} not among child labels"
        )
    if parent_label is None or parent_label not in table.parent_labels:
        raise ScenarioError(
            f"table {table.id}: no parent label for truth {parent_label!r}"
        )
    cdf = table.outcome_cdf(
        table.child_labels.index(child_label), table.parent_labels.index(parent_label)
    )
    if cdf is None:
        raise ScenarioError(
            f"table {table.id}: truth ({child_label!r} | {parent_label!r}) "
            "has zero probability"
        )
    return table.outcomes[bisect.bisect_right(cdf, rng.random())]


def _sample_null_parent(table, null_label: str | None, rng: np.random.Generator) -> str:
    """Outcome distribution when no true entity backs the target: the null
    parent's slice with the child marginalized out."""
    if null_label is None or null_label not in table.parent_labels:
        raise ScenarioError(
            f"table {table.id}: no null parent label to sample an absent target"
        )
    cdf = table.outcome_cdf(None, table.parent_labels.index(null_label))
    return table.outcomes[bisect.bisect_right(cdf, rng.random())]
