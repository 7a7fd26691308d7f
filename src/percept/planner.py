"""0/1 knapsack solvers for action selection under a time budget.

``solve_exact`` is the reference oracle: over integral costs, one suffix
table of the best value at each exact cost, read for the optimum and then
walked for the canonical plan; with fractional costs, exhaustive
enumeration of at most ``ORACLE_LIMIT`` items.  ``solve_approx`` is a
value-scaling approximation scheme whose result value P satisfies
(P' - P) / P' < epsilon against the optimum P'; its min-cost row over
scaled value is updated in place, one item at a time.  That row and its
``keep`` table stop at the Dantzig (LP relaxation) bound on the scaled
value a plan within the budget can reach, so memory is N x bound rather
than N x (sum of scaled values).  Both are pure and deterministic, and
break ties differently:

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


def _integral_costs(items) -> bool:
    return all(abs(it.cost - round(it.cost)) <= 1e-9 for it in items)


def solve_exact(inst: KnapsackInstance) -> Plan:
    """Maximum-value plan within the budget, canonically tie-broken.

    Requires integral costs (dynamic program) or at most ``ORACLE_LIMIT``
    items (exhaustive enumeration); anything larger raises
    :class:`ExactSolverLimitError`.
    """
    items = sorted(
        (it for it in inst.items if it.cost <= inst.budget), key=lambda it: it.id
    )
    if not items:
        return EMPTY_PLAN
    if _integral_costs(items):
        return _solve_dp(inst, items)
    if len(items) <= ORACLE_LIMIT:
        return _solve_enum(inst, items)
    raise ExactSolverLimitError(
        f"{len(items)} items with fractional costs exceed the oracle limit "
        f"{ORACLE_LIMIT}"
    )


def _solve_dp(inst: KnapsackInstance, items) -> Plan:
    costs = [int(round(it.cost)) for it in items]
    cap = sum(costs)
    if math.isfinite(inst.budget):
        cap = min(cap, int(math.floor(inst.budget + 1e-9)))

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


def solve_approx(inst: KnapsackInstance, epsilon: float) -> Plan:
    """Approximate plan with relative value error strictly below ``epsilon``.

    Value-scaling scheme: values are scaled by K = epsilon * Vmax / N and
    floored, then a min-cost dynamic program over scaled value recovers a
    plan whose true value P satisfies (P' - P)/P' < epsilon.  The table
    stops at the Dantzig bound U on the scaled value a plan within the
    budget can reach, so it holds N x (U + 1) cells; every cell up to U,
    and so the plan, is what the full table over all scaled sums would
    give.  Deterministic for fixed input; zero-value items are never
    selected.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    items = sorted(
        (it for it in inst.items if it.cost <= inst.budget and it.value > 0),
        key=lambda it: it.id,
    )
    if not items:
        return EMPTY_PLAN
    vmax = max(it.value for it in items)
    scale = epsilon * vmax / len(items)
    scaled = [int(math.floor(it.value / scale)) for it in items]
    top = _dantzig_bound(scaled, [it.cost for it in items], inst.budget)

    # cell s reads only cells below s, so cutting the table at top changes
    # no cell at or below it; every item fits the budget alone, so none is
    # scaled above top
    min_cost = np.full(top + 1, math.inf)
    min_cost[0] = 0.0
    keep = np.zeros((len(items), top + 1), dtype=bool)
    for i, (it, s) in enumerate(zip(items, scaled)):
        if s == 0:
            continue
        cand = min_cost[:-s] + it.cost
        takes = keep[i, s:]
        np.less(cand, min_cost[s:], out=takes)  # strict: prefer excluding on cost ties
        np.copyto(min_cost[s:], cand, where=takes)

    reachable = np.flatnonzero(min_cost <= inst.budget)
    best_s = int(reachable.max())
    sel = []
    s = best_s
    for i in range(len(items) - 1, -1, -1):
        if keep[i, s]:
            sel.append(items[i].id)
            s -= scaled[i]
    return _plan_from_ids(inst, sel)


def plan_sweep(items, budgets) -> list[Plan]:
    """One exact plan per budget; budgets must be strictly increasing."""
    budgets = list(budgets)
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    items = tuple(items)
    return [solve_exact(KnapsackInstance(items=items, budget=b)) for b in budgets]
