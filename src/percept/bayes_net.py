"""Dynamically instantiated Bayes net over hypothesis sets, with exact inference.

Each node is an instance of one model-base group, recorded on the node
when it is created (hand-built nodes may have none), together with its
rank, the node's instantiation position.  The net is kept
singly connected (a polytree): every :meth:`BayesNet.link` call that
would create an undirected cycle is rejected, so propagation by message
passing is always exact.  Factors are named by the node that
owns them: ``("cpt", n)`` is p(n | parents), or n's prior at a root, and
``("ev", n)`` is the product of n's likelihoods; the factors over a node
are taken in their owners' rank order.  After a change to nodes,
edges or evidence, the posteriors of each changed component are recomputed
by a deterministic, iterative two-sweep (leaves to root, then root to
leaves) over that component's factor tree; priors and evidence factors
send their message but receive none, since no belief reads it.  Messages
are renormalized after every hop to guard against underflow on long chains
of small likelihoods.  Each recomputed node gets a new ``stamp``; every
node of a component keeps its stamp while the component's nodes, edges
and evidence are untouched, so equal stamps mean equal beliefs and edges
throughout the component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentEvidenceError, PolytreeError, UnknownIdError
from .model_base import ConditionalTable, HypothesisSet


@dataclass
class BayesNode:
    """One instantiated node: a distribution over mutually exclusive labels.

    ``rank`` orders the factors propagation multiplies, and the controller
    keys the random streams of an action on the node by it.  ``stamp`` is
    the generation of the last :meth:`BayesNet.propagate` that recomputed
    the node's component (0 before any); ``belief`` is replaced, never
    written into, so a reference to it keeps that generation's values.
    """

    id: str
    hypotheses: HypothesisSet
    group: str | None  # the model-base group this node instantiates
    rank: int  # instantiation position: orders factors, keys random streams
    prior: np.ndarray  # acts as the root prior until a parent is linked
    belief: np.ndarray
    evidence: np.ndarray | None = None  # product of attached likelihoods
    stamp: int = 0

    @property
    def labels(self) -> tuple[str, ...]:
        return self.hypotheses.labels


@dataclass(frozen=True)
class NetEdge:
    parent: str
    child: str


class BayesNet:
    """Single-writer net; mutate through one owner, query beliefs freely."""

    def __init__(self):
        self.nodes: dict[str, BayesNode] = {}
        self._parents: dict[str, list[tuple[str, ConditionalTable]]] = {}
        self._children: dict[str, list[str]] = {}
        self._edges: list[NetEdge] = []
        self._cpts: dict[str, np.ndarray] = {}  # p(node | all its parents), set by link
        self._dirty: set[str] = set()  # nodes touched since the last propagate
        self._generation = 0  # propagate calls that recomputed anything

    # -- structure -------------------------------------------------------

    def instantiate_node(
        self,
        hypotheses: HypothesisSet,
        group: str | None = None,
        node_id: str | None = None,
    ) -> str:
        """Create a node of ``group`` with belief equal to the hypothesis priors."""
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
            group=group,
            rank=len(self.nodes),
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
        The search starts from ``parent`` and is skipped when ``child`` has no
        neighbours, so growing a chain from either end walks no component.
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
        edge = NetEdge(parent=parent, child=child)
        self._edges.append(edge)
        self._dirty.add(child)
        return edge

    def _undirected_path(self, a: str, b: str) -> list[str] | None:
        if a == b:
            return [a]
        if not (self._parents[b] or self._children[b]):  # b has no neighbour
            return None
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
        ev = vec if node.evidence is None else node.evidence * vec
        # rescale by a power of two so a long product cannot underflow to 0;
        # the evidence message ev / ev.sum() is unchanged bit for bit
        node.evidence = np.ldexp(ev, -math.frexp(max(ev.tolist()))[1])
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

    def _factor(self, key: tuple[str, str]) -> tuple[tuple[str, ...], np.ndarray]:
        """Variables and table of a node-named factor: ``("cpt", n)`` is
        p(n | parents), or n's prior at a root; ``("ev", n)`` is n's evidence."""
        kind, n = key
        if kind == "ev":
            return (n,), self.nodes[n].evidence
        ps = self._parents[n]
        if not ps:
            return (n,), self.nodes[n].prior
        return (n, *(p for p, _ in ps)), self._cpts[n]

    def _node_factors(self, n: str) -> list[tuple[str, str]]:
        """The factors over n, ordered by owner rank, cpt before ev."""
        fs = [("cpt", n), *(("cpt", c) for c in self._children[n])]
        if self.nodes[n].evidence is not None:
            fs.append(("ev", n))
        return sorted(fs, key=lambda f: (self.nodes[f[1]].rank, f[0]))

    def propagate(self) -> None:
        """Recompute the exact posterior marginals of every component that
        gained a node, edge or evidence since the last call, and stamp its
        nodes with this call's generation; other beliefs and stamps are left
        as they are (on a tree each message depends only on its own subtree,
        so they would come out bit for bit the same)."""
        if not self._dirty:
            return
        self._generation += 1
        factors: dict[str, list[tuple[str, str]]] = {}  # node -> factors over it
        messages: dict[tuple, np.ndarray] = {}  # (sender, receiver) -> message

        def var_to_factor(v, f):
            out = np.ones(len(self.nodes[v].labels))
            for g in factors[v]:
                if g != f:
                    out = out * messages[g, v]
            s = out.sum()
            if s <= 0:
                raise InconsistentEvidenceError(
                    f"evidence on {v!r} has zero total probability"
                )
            return out / s

        def factor_to_var(f, v):
            vs, a = self._factor(f)
            for ax, u in enumerate(vs):
                if u == v:
                    continue
                m = messages[u, f]
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

        for root in sorted(self._dirty):
            if root in factors:
                continue
            # BFS over the component: each node records the factor it was
            # reached through (up) and the factors below it, each with the
            # nodes it leads on to
            order, up, below = [root], {root: None}, {}
            for v in order:
                factors[v] = self._node_factors(v)
                below[v] = [
                    (f, [u for u in self._factor(f)[0] if u != v])
                    for f in factors[v]
                    if f != up[v]
                ]
                for f, rest in below[v]:
                    for u in rest:
                        up[u] = f
                        order.append(u)
            # upward sweep: leaves toward the root
            for v in reversed(order):
                for f, _ in below[v]:
                    messages[f, v] = factor_to_var(f, v)
                if up[v] is not None:
                    messages[v, up[v]] = var_to_factor(v, up[v])
            # downward sweep: root toward the leaves; a one-variable factor
            # (prior or evidence) leads nowhere and gets no message, as no
            # belief reads it
            for v in order:
                for f, rest in below[v]:
                    if rest:
                        messages[v, f] = var_to_factor(v, f)
                    for u in rest:
                        messages[f, u] = factor_to_var(f, u)

        for v, fs in factors.items():
            out = np.ones(len(self.nodes[v].labels))
            for f in fs:
                out = out * messages[f, v]
            s = out.sum()
            if s <= 0:
                raise InconsistentEvidenceError(
                    f"posterior for {v!r} has zero total probability"
                )
            node = self.nodes[v]
            node.belief = out / s
            node.stamp = self._generation
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
                    "belief": node.belief.tolist(),
                }
                for nid, node in self.nodes.items()
            ],
            "edges": [{"parent": e.parent, "child": e.child} for e in self._edges],
        }
