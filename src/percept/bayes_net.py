"""Dynamically instantiated Bayes net over hypothesis sets, with exact inference.

The net is kept singly connected (a polytree): every :meth:`BayesNet.link`
call that would create an undirected cycle is rejected, so propagation by
message passing is always exact.  After a change to nodes, edges or
evidence, the posteriors of each changed component are recomputed by a
deterministic two-sweep (leaves to root, then root to leaves) over its
factor tree; messages are renormalized after every hop to guard against
underflow on long chains of small likelihoods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentEvidenceError, PolytreeError, UnknownIdError
from .model_base import ConditionalTable, HypothesisSet


@dataclass
class BayesNode:
    """One instantiated node: a distribution over mutually exclusive labels."""

    id: str
    hypotheses: HypothesisSet
    model_refs: dict[str, str | None]
    prior: np.ndarray  # acts as the root prior until a parent is linked
    belief: np.ndarray
    evidence: np.ndarray | None = None  # product of attached likelihoods

    @property
    def labels(self) -> tuple[str, ...]:
        return self.hypotheses.labels


@dataclass(frozen=True)
class NetEdge:
    parent: str
    child: str
    table: str


class BayesNet:
    """Single-writer net; mutate through one owner, query beliefs freely."""

    def __init__(self):
        self.nodes: dict[str, BayesNode] = {}
        self._parents: dict[str, list[tuple[str, ConditionalTable]]] = {}
        self._children: dict[str, list[str]] = {}
        self._edges: list[NetEdge] = []
        self._cpts: dict[str, np.ndarray] = {}  # p(node | all its parents), set by link
        self._dirty: set[str] = set()  # nodes touched since the last propagate

    # -- structure -------------------------------------------------------

    def instantiate_node(
        self,
        hypotheses: HypothesisSet,
        model_refs: dict[str, str | None] | None = None,
        node_id: str | None = None,
    ) -> str:
        """Create a node with belief equal to the hypothesis priors."""
        if node_id is None:
            k = len(self.nodes) + 1
            while f"n{k}" in self.nodes:
                k += 1
            node_id = f"n{k}"
        if node_id in self.nodes:
            raise ValueError(f"node id {node_id!r} already instantiated")
        prior = np.array(hypotheses.priors, dtype=float)
        self.nodes[node_id] = BayesNode(
            id=node_id,
            hypotheses=hypotheses,
            model_refs=dict(model_refs or {}),
            prior=prior,
            belief=prior.copy(),
        )
        self._parents[node_id] = []
        self._children[node_id] = []
        self._dirty.add(node_id)
        return node_id

    def node(self, node_id: str) -> BayesNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownIdError(f"unknown net node {node_id!r}") from None

    def parents(self, node_id: str) -> tuple[tuple[str, ConditionalTable], ...]:
        self.node(node_id)
        return tuple(self._parents[node_id])

    def edges(self) -> tuple[NetEdge, ...]:
        return tuple(self._edges)

    def link(self, parent: str, child: str, table: ConditionalTable) -> NetEdge:
        """Add a parent -> child edge carrying p(child | parent).

        Rejects any edge that would leave the undirected skeleton cyclic,
        reporting the existing path between the two nodes as the witness.
        """
        pnode, cnode = self.node(parent), self.node(child)
        if table.parent_labels != pnode.labels:
            raise ValueError(
                f"cpt {table.id}: parent labels {table.parent_labels} do not match "
                f"node {parent!r} labels {pnode.labels}"
            )
        if table.child_labels != cnode.labels:
            raise ValueError(
                f"cpt {table.id}: child labels do not match node {child!r}"
            )
        witness = self._undirected_path(parent, child)
        if witness is not None:
            raise PolytreeError(
                f"linking {parent!r} -> {child!r} would create a second undirected "
                f"path; existing path: {' - '.join(witness)}"
            )
        parents = self._parents[child] + [(parent, table)]
        # fails fast on a zero-probability parent slice, leaving the net as it was
        self._cpts[child] = self._combined_cpt(child, parents)
        self._parents[child] = parents
        self._children[parent].append(child)
        edge = NetEdge(parent=parent, child=child, table=table.id)
        self._edges.append(edge)
        self._dirty.add(child)
        return edge

    def _undirected_path(self, a: str, b: str) -> list[str] | None:
        if a == b:
            return [a]
        prev = {a: None}
        frontier = [a]
        while frontier:
            nxt = []
            for u in frontier:
                neigh = [p for p, _ in self._parents[u]] + self._children[u]
                for v in sorted(neigh):
                    if v in prev:
                        continue
                    prev[v] = u
                    if v == b:
                        path = [v]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return list(reversed(path))
                    nxt.append(v)
            frontier = nxt
        return None

    # -- evidence and inference -------------------------------------------

    def attach_evidence(self, node_id: str, likelihood) -> None:
        """Record a likelihood vector over the node's labels.

        Beliefs are refreshed on the next :meth:`propagate`.
        """
        node = self.node(node_id)
        vec = np.asarray(likelihood, dtype=float)
        if vec.shape != (len(node.labels),):
            raise ValueError(
                f"likelihood length {vec.shape} does not match node {node_id!r} "
                f"with {len(node.labels)} labels"
            )
        if not np.all(np.isfinite(vec)) or np.any(vec < 0):
            raise ValueError(f"likelihood for {node_id!r} must be finite and >= 0")
        if not np.any(vec > 0):
            raise InconsistentEvidenceError(
                f"all-zero likelihood on {node_id!r} contradicts every hypothesis"
            )
        node.evidence = vec.copy() if node.evidence is None else node.evidence * vec
        self._dirty.add(node_id)

    def _combined_cpt(
        self, node_id: str, ps: list[tuple[str, ConditionalTable]]
    ) -> np.ndarray:
        """p(node | all parents p1..pn) as array of shape (card, |p1|, .., |pn|).

        With several parents the per-edge tables are combined by a normalized
        product over the child axis; with one parent this is exactly the
        edge's table.
        """
        card = len(self.nodes[node_id].labels)
        shape = [card] + [len(self.nodes[p].labels) for p, _ in ps]
        arr = np.ones(shape, dtype=float)
        for i, (_, table) in enumerate(ps):
            view = [1] * len(shape)
            view[0] = card
            view[i + 1] = table.rows.shape[0]
            arr = arr * table.rows.T.reshape(view)
        norm = arr.sum(axis=0, keepdims=True)
        if np.any(norm <= 0):
            raise InconsistentEvidenceError(
                f"node {node_id!r}: some parent configuration assigns zero "
                "probability to every label"
            )
        return arr / norm

    def _build_factors(self):
        factors = []
        for nid, node in self.nodes.items():
            ps = self._parents[nid]
            if ps:
                factors.append(((nid, *(p for p, _ in ps)), self._cpts[nid]))
            else:
                factors.append(((nid,), node.prior))
            if node.evidence is not None:
                factors.append(((nid,), node.evidence))
        return factors

    def propagate(self) -> None:
        """Recompute the exact posterior marginals of every component that
        gained a node, edge or evidence since the last call; other beliefs
        are left as they are (on a tree each message depends only on its own
        subtree, so they would come out bit for bit the same)."""
        if not self._dirty:
            return
        factors = self._build_factors()
        var_factors: dict[str, list[int]] = {nid: [] for nid in self.nodes}
        for fi, (vs, _) in enumerate(factors):
            for v in vs:
                var_factors[v].append(fi)

        messages: dict[tuple, np.ndarray] = {}

        def var_to_factor(v, fi):
            out = np.ones(len(self.nodes[v].labels))
            for other in var_factors[v]:
                if other != fi:
                    out = out * messages[("f", other, v)]
            s = out.sum()
            if s <= 0:
                raise InconsistentEvidenceError(
                    f"evidence on {v!r} has zero total probability"
                )
            return out / s

        def factor_to_var(fi, v):
            vs, arr = factors[fi]
            a = arr
            for ax, u in enumerate(vs):
                if u == v:
                    continue
                m = messages[("v", u, fi)]
                view = [1] * a.ndim
                view[ax] = len(m)
                a = a * m.reshape(view)
            target_ax = vs.index(v)
            other_axes = tuple(ax for ax in range(a.ndim) if ax != target_ax)
            out = a.sum(axis=other_axes) if other_axes else np.array(a, copy=True)
            s = out.sum()
            if s <= 0:
                raise InconsistentEvidenceError(
                    f"evidence reaching {v!r} has zero total probability"
                )
            return out / s

        seen: set[str] = set()
        for root in sorted(self._dirty):
            if root in seen:
                continue
            # BFS over the bipartite factor tree of this component
            order = [("v", root)]
            tree_parent: dict[tuple, tuple | None] = {("v", root): None}
            i = 0
            while i < len(order):
                kind, key = order[i]
                i += 1
                if kind == "v":
                    seen.add(key)
                    neigh = [("f", fi) for fi in var_factors[key]]
                else:
                    neigh = [("v", u) for u in factors[key][0]]
                for nxt in neigh:
                    if nxt not in tree_parent:
                        tree_parent[nxt] = (kind, key)
                        order.append(nxt)
            # upward sweep: leaves toward the root
            for kind, key in reversed(order[1:]):
                parent = tree_parent[(kind, key)]
                if kind == "v":
                    messages[("v", key, parent[1])] = var_to_factor(key, parent[1])
                else:
                    messages[("f", key, parent[1])] = factor_to_var(key, parent[1])
            # downward sweep: root toward the leaves
            for kind, key in order:
                parent = tree_parent[(kind, key)]
                if kind == "v":
                    for fi in var_factors[key]:
                        if parent is None or fi != parent[1]:
                            messages[("v", key, fi)] = var_to_factor(key, fi)
                else:
                    for u in factors[key][0]:
                        if parent is None or u != parent[1]:
                            messages[("f", key, u)] = factor_to_var(key, u)

        for nid, node in self.nodes.items():
            if nid not in seen:
                continue
            out = np.ones(len(node.labels))
            for fi in var_factors[nid]:
                out = out * messages[("f", fi, nid)]
            s = out.sum()
            if s <= 0:
                raise InconsistentEvidenceError(
                    f"posterior for {nid!r} has zero total probability"
                )
            node.belief = out / s
        self._dirty.clear()

    def belief(self, node_id: str) -> np.ndarray:
        """Current posterior over the node's labels."""
        return self.node(node_id).belief.copy()

    def snapshot(self) -> dict:
        """JSON-ready export of node beliefs and edges for trace tooling."""
        return {
            "nodes": [
                {
                    "id": nid,
                    "labels": list(node.labels),
                    "belief": [float(b) for b in node.belief],
                }
                for nid, node in self.nodes.items()
            ],
            "edges": [{"parent": e.parent, "child": e.child} for e in self._edges],
        }
