"""0/1 knapsack solvers for action selection under a time budget.

Costs are whole numbers (simulated milliseconds): ``KnapsackItem`` rejects
any other.  Both solvers fill one table over cost, counted in units of the
costs' gcd g up to the most a plan can spend within the budget T:
N x (min(floor(T), total cost) // g + 1) cells, checked against
``TABLE_CELL_LIMIT`` before it is allocated.  ``solve_exact`` is the
reference oracle: a suffix table of the best value at each exact cost, read
for the optimum and then walked for the canonical plan.  ``solve_approx``
is a value-scaling approximation scheme whose result value P satisfies
(P' - P) / P' < epsilon against the optimum P': an id-ordered table of the
largest scaled value at each exact cost, updated in place one item at a
time.  Both solvers are pure and deterministic, and break ties differently:

- ``solve_exact`` takes the maximum value (within ``VALUE_TOL``), then the
  least cost, then the lexicographically smallest sorted id set.
- ``solve_approx`` takes the largest reachable scaled value, then the
  least cost.  Among plans equal in both, it leaves out the highest ids
  first: the highest-id item is in the plan only if no equally cheap plan
  of that scaled value does without it, and so on down the ids.  So with
  items i0 (value 4, cost 2), i1 (8, 3), i2 (4, 1), i3 (4, 1), budget 4
  and epsilon 0.5, ``solve_approx`` returns (i1, i2) where ``solve_exact``
  returns (i0, i2, i3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_base import _NUMBER, _each, _field, _read

VALUE_TOL = 1e-9  # relative slack when matching float value sums

TABLE_CELL_LIMIT = 10**7  # most cells a knapsack table may hold


@dataclass(frozen=True)
class KnapsackItem:
    id: str
    value: float
    cost: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.cost)):
            raise ValueError(f"item {self.id}: value and cost must be finite")
        if self.value < 0 or self.cost < 0:
            raise ValueError(f"item {self.id}: value and cost must be >= 0")
        if not float(self.cost).is_integer():
            raise ValueError(
                f"item {self.id}: cost must be a whole number, got {self.cost!r}"
            )


@dataclass(frozen=True)
class KnapsackInstance:
    items: tuple[KnapsackItem, ...]
    budget: float

    def __post_init__(self):
        ids = [it.id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("knapsack item ids must be distinct")
        if not self.budget >= 0:  # also rejects nan, which no comparison passes
            raise ValueError(f"budget must be >= 0, got {self.budget}")

    @staticmethod
    def from_dict(raw: dict) -> "KnapsackInstance":
        """``{budget_T, items: [{id, value, cost}]}``, as ``percept knapsack``
        reads it; a malformed field is a ScenarioError naming its path."""
        budget = _field(_read(raw, dict, "instance"), "budget_T", _NUMBER, "")
        items = tuple(
            KnapsackItem(
                id=_field(rec, "id", str, at),
                value=float(_field(rec, "value", _NUMBER, at)),
                cost=float(_field(rec, "cost", _NUMBER, at)),
            )
            for at, rec in _each(raw, "items", dict, "", [])
        )
        return KnapsackInstance(items=items, budget=float(budget))


@dataclass(frozen=True)
class Plan:
    selected: tuple[str, ...]
    total_value: float
    total_cost: float

    def to_dict(self) -> dict:
        return {
            "selected": list(self.selected),
            "total_value": self.total_value,
            "total_cost": self.total_cost,
        }


EMPTY_PLAN = Plan(selected=(), total_value=0.0, total_cost=0.0)


def _plan_from_ids(inst: KnapsackInstance, ids) -> Plan:
    ids = set(ids)
    chosen = [it for it in inst.items if it.id in ids]
    return Plan(
        selected=tuple(sorted(ids)),
        total_value=float(sum(it.value for it in chosen)),
        total_cost=float(sum(it.cost for it in chosen)),
    )


def _cost_grid(costs: list[int], budget: float, rows: int) -> tuple[int, int]:
    """(unit, width) of a table of ``rows`` rows over these whole costs: the
    unit is their gcd (1 if all are zero), and cell c is a plan cost of c
    units, up to the most a plan can spend within ``budget``.  A table of
    more than ``TABLE_CELL_LIMIT`` cells raises ValueError."""
    unit = math.gcd(*costs) or 1
    cap = min(sum(costs), math.floor(budget)) if math.isfinite(budget) else sum(costs)
    width = cap // unit + 1
    if rows * width > TABLE_CELL_LIMIT:
        raise ValueError(
            f"a knapsack table of {rows} x {width} cells exceeds TABLE_CELL_LIMIT "
            f"({TABLE_CELL_LIMIT})"
        )
    return unit, width


def solve_exact(inst: KnapsackInstance) -> Plan:
    """Maximum-value plan within the budget, canonically tie-broken."""
    items = sorted(
        (it for it in inst.items if it.cost <= inst.budget), key=lambda it: it.id
    )
    costs = [int(it.cost) for it in items]

    # forced choices for zero-cost items: take them iff they carry value
    forced = [it for it, w in zip(items, costs) if w == 0 and it.value > 0]
    rest = [(it, w) for it, w in zip(items, costs) if w > 0]

    # suffix table: m[i, c] = max value from rest[i:] at cost exactly c units
    n = len(rest)
    unit, width = _cost_grid(costs, inst.budget, n + 1)
    rest = [(it, w // unit) for it, w in rest]
    m = np.full((n + 1, width), -math.inf)
    m[n, 0] = 0.0
    for i in range(n - 1, -1, -1):
        it, w = rest[i]
        m[i] = m[i + 1]
        np.maximum(m[i, w:], m[i + 1, : width - w] + it.value, out=m[i, w:])

    # the optimum: maximum value, then the least cost within tolerance of it
    vmax = float(m[0].max())
    tol = VALUE_TOL * max(1.0, abs(vmax))
    target_c = int(np.flatnonzero(m[0] >= vmax - tol)[0])

    # lexicographically smallest id set among (target value, target_c) optima:
    # walking ids in ascending order, stop as soon as the remainder is zero,
    # otherwise include the item whenever a feasible completion exists
    sel = []
    dv, dc = float(m[0, target_c]), target_c
    for i, (it, w) in enumerate(rest):
        if dc == 0 and abs(dv) <= tol:
            break
        if w <= dc and m[i + 1, dc - w] >= dv - it.value - tol:
            sel.append(it.id)
            dv -= it.value
            dc -= w
    sel.extend(it.id for it in forced)
    return _plan_from_ids(inst, sel)


def _scaled_items(inst: KnapsackInstance, epsilon: float):
    """The items ``solve_approx`` can take, in id order, and their values
    scaled by K = epsilon * Vmax / N and floored; an item of zero value,
    zero scaled value or cost above the budget can never be taken."""
    items = sorted(
        (it for it in inst.items if it.cost <= inst.budget and it.value > 0),
        key=lambda it: it.id,
    )
    if not items:
        return [], []
    scale = epsilon * max(it.value for it in items) / len(items)
    scaled = [math.floor(it.value / scale) for it in items]
    return [it for it, s in zip(items, scaled) if s > 0], [s for s in scaled if s > 0]


def solve_approx(inst: KnapsackInstance, epsilon: float) -> Plan:
    """Approximate plan with relative value error strictly below ``epsilon``.

    Value-scaling scheme: values are scaled by K = epsilon * Vmax / N and
    floored, then a 0/1 dynamic program over cost recovers the plan of the
    largest scaled value within the budget, of least cost among those,
    whose true value P satisfies (P' - P)/P' < epsilon.  After item i, cell
    c holds the largest scaled value of a subset of items 0..i costing
    exactly c units of the costs' gcd g (-inf if none does), over
    N x (min(floor(budget), total cost) // g + 1) cells.  Item i takes a
    cell only on a strict gain, so on a tie the earlier items keep it.  The
    walk starts at the least cost reaching the best value and goes back
    down the ids: item i is in the plan iff it took the current cell, so
    it is left out exactly when the items before it reach the same (scaled
    value, cost).  Deterministic for fixed input; zero-value items are
    never selected.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    items, scaled = _scaled_items(inst, epsilon)
    costs = [int(it.cost) for it in items]
    unit, width = _cost_grid(costs, inst.budget, len(items))
    shifts = [c // unit for c in costs]
    best = np.full(width, -math.inf)
    best[0] = 0.0
    keep = np.zeros((len(items), width), dtype=bool)
    for i, (shift, gain) in enumerate(zip(shifts, scaled)):
        cand = best[: width - shift] + gain
        takes = keep[i, shift:]
        np.greater(cand, best[shift:], out=takes)
        np.copyto(best[shift:], cand, where=takes)
    sel = []
    at = int(np.argmax(best))
    for i in range(len(items) - 1, -1, -1):
        if keep[i, at]:
            sel.append(items[i].id)
            at -= shifts[i]
    return _plan_from_ids(inst, sel)


def plan_sweep(items, budgets) -> list[Plan]:
    """One exact plan per budget; budgets must be strictly increasing."""
    budgets = list(budgets)
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    items = tuple(items)
    return [solve_exact(KnapsackInstance(items=items, budget=b)) for b in budgets]
