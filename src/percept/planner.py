"""0/1 knapsack solvers for action selection under a time budget.

``solve_exact`` is the reference oracle: over integral costs, one suffix
table of the best value at each exact cost, read for the optimum and then
walked for the canonical plan; with fractional costs, exhaustive
enumeration of at most ``ORACLE_LIMIT`` items.  ``solve_approx`` is a
value-scaling approximation scheme whose result value P satisfies
(P' - P) / P' < epsilon against the optimum P'.  Its id-ordered 0/1 table
is updated in place, one item at a time, along one of two axes, whichever
is narrower: scaled value, cut at the Dantzig (LP relaxation) bound on the
scaled value a plan within the budget can reach, each cell holding the
least cost; or, when every cost is an exact integer, cost in units of the
costs' gcd up to the budget, each cell holding the largest scaled value.
Both give the same plan, bit for bit.  Both solvers are pure and
deterministic, and break ties differently:

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

from .errors import ExactSolverLimitError

VALUE_TOL = 1e-9  # relative slack when matching float value sums

ORACLE_LIMIT = 24  # most fractional-cost items solve_exact enumerates


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
        budget = raw.get("budget_T", raw.get("budget"))
        if budget is None:
            raise ValueError("instance needs a budget_T field")
        items = tuple(
            KnapsackItem(id=str(r["id"]), value=float(r["value"]), cost=float(r["cost"]))
            for r in raw.get("items", [])
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


def _integral_costs(costs) -> bool:
    """Whether every cost is exactly a whole number: one off by any amount,
    however small, is fractional, so no table rounds a cost."""
    return all(float(c).is_integer() for c in costs)


def _cost_cap(costs: list[int], budget: float) -> int:
    """The most a plan of these integral costs can spend within ``budget``."""
    return min(sum(costs), math.floor(budget)) if math.isfinite(budget) else sum(costs)


def solve_exact(inst: KnapsackInstance) -> Plan:
    """Maximum-value plan within the budget, canonically tie-broken.

    Requires exactly integral costs (dynamic program) or at most
    ``ORACLE_LIMIT`` items (exhaustive enumeration); anything larger raises
    :class:`ExactSolverLimitError`.
    """
    items = sorted(
        (it for it in inst.items if it.cost <= inst.budget), key=lambda it: it.id
    )
    if not items:
        return EMPTY_PLAN
    if _integral_costs(it.cost for it in items):
        return _solve_dp(inst, items)
    if len(items) <= ORACLE_LIMIT:
        return _solve_enum(inst, items)
    raise ExactSolverLimitError(
        f"{len(items)} items with fractional costs exceed the oracle limit "
        f"{ORACLE_LIMIT}"
    )


def _solve_dp(inst: KnapsackInstance, items) -> Plan:
    costs = [int(it.cost) for it in items]
    cap = _cost_cap(costs, inst.budget)

    # forced choices for zero-cost items: take them iff they carry value
    forced = [it for it, w in zip(items, costs) if w == 0 and it.value > 0]
    rest = [(it, w) for it, w in zip(items, costs) if w > 0]

    # suffix table: m[i, c] = max value from rest[i:] at cost exactly c
    n = len(rest)
    m = np.full((n + 1, cap + 1), -math.inf)
    m[n, 0] = 0.0
    for i in range(n - 1, -1, -1):
        it, w = rest[i]
        m[i] = m[i + 1]
        if w <= cap:
            np.maximum(m[i, w:], m[i + 1, : cap + 1 - w] + it.value, out=m[i, w:])

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


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Sums over all 2^n subsets, subset bitmask k uses item i iff bit i of k."""
    out = np.zeros(1)
    for v in values:
        out = np.concatenate([out, out + v])
    return out


def _solve_enum(inst: KnapsackInstance, items) -> Plan:
    n = len(items)
    values = np.array([it.value for it in items])
    costs = np.array([it.cost for it in items])
    low = min(n, 16)
    v_low, c_low = _subset_sums(values[:low]), _subset_sums(costs[:low])
    best = None  # (-value, cost, id tuple)
    for high in range(1 << (n - low)):
        hv = hc = 0.0
        for b in range(n - low):
            if high >> b & 1:
                hv += values[low + b]
                hc += costs[low + b]
        feas = c_low + hc <= inst.budget
        if not np.any(feas):
            continue
        tot = np.where(feas, v_low + hv, -np.inf)
        vmax = tot.max()
        tol = VALUE_TOL * max(1.0, abs(vmax))
        for k in np.flatnonzero(tot >= vmax - tol):
            mask = int(k) | (high << low)
            ids = tuple(items[i].id for i in range(n) if mask >> i & 1)
            key = (-float(v_low[k] + hv), float(c_low[k] + hc), ids)
            if best is None or key < best:
                best = key
    if best is None:
        return EMPTY_PLAN
    return _plan_from_ids(inst, best[2])


def _dantzig_bound(scaled: list[int], costs: list[float], budget: float) -> int:
    """Upper bound on the scaled value of any plan within ``budget``.

    The optimum of the LP relaxation (Dantzig): items by falling density
    ``scaled / cost`` (zero cost counts as infinite), whole until the budget
    breaks, then a fractional share of the break item.  Floored plus one, so
    float rounding cannot put it below the exact rational bound.
    """
    by_density = sorted(
        zip(scaled, costs), key=lambda sc: -sc[0] / sc[1] if sc[1] else -math.inf
    )
    fit = 0
    for s, c in by_density:
        if c > budget:
            return int(fit + budget * s / c) + 1
        fit += s
        budget -= c
    return fit


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


def _value_axis(scaled: list[int], costs: list[float], budget: float):
    """(width, steps, start) of the table over scaled value: cells up to
    the Dantzig bound, each the least cost reaching its scaled value, kept
    negated so that the table maximises; start at the largest value within
    the budget."""
    # cell s reads only cells below s, so cutting the table at the bound
    # changes no cell at or below it; every item fits the budget alone, so
    # none is scaled above the bound
    top = _dantzig_bound(scaled, costs, budget)
    steps = [(s, -c) for s, c in zip(scaled, costs)]  # float negation is exact
    return top + 1, steps, lambda best: int(np.flatnonzero(best >= -budget)[-1])


def _cost_axis(scaled: list[int], costs: list[float], budget: float):
    """(width, steps, start) of the table over cost, in units of the costs'
    gcd up to the budget, each cell the largest scaled value at exactly its
    cost; start at the least cost reaching the best value.  None when a
    cost is fractional."""
    if not _integral_costs(costs):
        return None
    costs = [int(c) for c in costs]
    unit = math.gcd(*costs) or 1
    width = _cost_cap(costs, budget) // unit + 1
    steps = [(c // unit, s) for c, s in zip(costs, scaled)]
    return width, steps, lambda best: int(np.argmax(best))


def _table_walk(width: int, steps, start) -> list[int]:
    """Indices of the items an id-ordered 0/1 table over one axis selects.

    ``steps`` gives each item's (shift, gain): its size on the table's axis
    and what it adds to the sum the table maximises.  After item i, cell a
    holds the largest sum of a subset of items 0..i whose shifts add up to
    exactly a (-inf if none does); item i takes a cell only on a strict
    gain, so on a tie the earlier items keep it.  The walk starts at cell
    ``start(best)`` and goes back down the ids: item i is in the plan iff
    it took the current cell, which leaves out the highest ids first.
    """
    best = np.full(width, -math.inf)
    best[0] = 0.0
    keep = np.zeros((len(steps), width), dtype=bool)
    for i, (shift, gain) in enumerate(steps):
        cand = best[: width - shift] + gain
        takes = keep[i, shift:]
        np.greater(cand, best[shift:], out=takes)
        np.copyto(best[shift:], cand, where=takes)
    sel = []
    at = start(best)
    for i in range(len(steps) - 1, -1, -1):
        if keep[i, at]:
            sel.append(i)
            at -= steps[i][0]
    return sel


def solve_approx(inst: KnapsackInstance, epsilon: float) -> Plan:
    """Approximate plan with relative value error strictly below ``epsilon``.

    Value-scaling scheme: values are scaled by K = epsilon * Vmax / N and
    floored, then a 0/1 dynamic program recovers the plan of the largest
    scaled value within the budget, of least cost among those, whose true
    value P satisfies (P' - P)/P' < epsilon.  The table runs over scaled
    value up to the Dantzig bound U on the scaled value a plan within the
    budget can reach, N x (U + 1) cells; or, when every cost is an exact
    integer and it is no wider, over cost in units of the costs' gcd g,
    N x (min(floor(budget), total cost) // g + 1) cells.  Either way the
    plan is the one the full table over all scaled sums gives: the walk
    leaves item i out exactly when the items before it reach the same
    (scaled value, cost).  Deterministic for fixed input; zero-value items
    are never selected.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    items, scaled = _scaled_items(inst, epsilon)
    if not items:
        return EMPTY_PLAN
    costs = [it.cost for it in items]
    axis = _value_axis(scaled, costs, inst.budget)
    by_cost = _cost_axis(scaled, costs, inst.budget)
    if by_cost is not None and by_cost[0] <= axis[0]:
        axis = by_cost
    return _plan_from_ids(inst, [items[i].id for i in _table_walk(*axis)])


def plan_sweep(items, budgets) -> list[Plan]:
    """One exact plan per budget; budgets must be strictly increasing."""
    budgets = list(budgets)
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    items = tuple(items)
    return [solve_exact(KnapsackInstance(items=items, budget=b)) for b in budgets]
