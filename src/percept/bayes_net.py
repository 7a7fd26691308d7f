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

Messages are kept across :meth:`BayesNet.propagate` calls, keyed
(sender, receiver), and so is each component's sweep schedule until the
component gains a node or an edge (a node's first evidence adds its
factor to the schedule in place).  On a tree a message depends only on
its sender's side, so a kept message is recomputed only when that side
holds a node touched since the last call: a new node, either end of a
new edge, or new evidence.  New evidence at r thus recomputes the
messages directed away from r and r's own evidence message, and no
message directed toward r.  Every message is the same expression of the
same inputs however it was scheduled, so beliefs are bit for bit those
of one propagate over a fresh net.
"""

from __future__ import annotations

import bisect
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


@dataclass(eq=False, slots=True)
class _Schedule:
    """One component's sweep, compiled by BFS from a touched node; kept until
    the component gains a node or an edge."""

    order: list[str]  # BFS order from the root
    up: dict[str, tuple[str, str] | None]  # factor each node was reached through
    below: dict[str, list[tuple[tuple[str, str], list[str]]]]  # factor, nodes beyond
    factors: dict[str, list[tuple[str, str]]]  # node -> factors over it, in rank order
    scope: dict[tuple[str, str], tuple[tuple[str, ...], np.ndarray]]  # cpt -> vars, table
    stale: bool = False


class BayesNet:
    """Single-writer net; mutate through one owner, query beliefs freely."""

    def __init__(self):
        self.nodes: dict[str, BayesNode] = {}
        self._parents: dict[str, list[tuple[str, ConditionalTable]]] = {}
        self._children: dict[str, list[str]] = {}
        self._edges: list[NetEdge] = []
        self._cpts: dict[str, np.ndarray] = {}  # p(node | all its parents), set by link
        self._dirty: set[str] = set()  # nodes touched since the last propagate
        self._messages: dict[tuple, np.ndarray] = {}  # (sender, receiver) -> message
        self._schedules: dict[str, _Schedule] = {}  # node -> its component's schedule
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
        self._dirty.update((parent, child))
        for n in (parent, child):
            sched = self._schedules.get(n)
            if sched is not None:
                sched.stale = True
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
        if node.evidence is None:
            sched = self._schedules.get(node_id)
            if sched is not None and not sched.stale:  # a new leaf factor
                f = ("ev", node_id)
                bisect.insort(sched.factors[node_id], f, key=self._rank_order)
                sched.below[node_id].append((f, []))
            ev = vec
        else:
            ev = node.evidence * vec
        # rescale by a power of two so a long product cannot underflow to 0;
        # the evidence message ev / ev.sum() is unchanged bit for bit
        node.evidence = np.ldexp(ev, -math.frexp(max(ev.tolist()))[1])
        self._messages.pop((("ev", node_id), node_id), None)
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
        return sorted(fs, key=self._rank_order)

    def _rank_order(self, f: tuple[str, str]) -> tuple[int, str]:
        return self.nodes[f[1]].rank, f[0]

    def _schedule(self, root: str) -> _Schedule:
        """The component's kept schedule, compiled from ``root`` by BFS if its
        structure changed since it was last compiled."""
        sched = self._schedules.get(root)
        if sched is not None and not sched.stale:
            return sched
        # each node records the factor it was reached through (up) and the
        # factors below it, each with the nodes it leads on to
        order, up, below, factors, scope = [root], {root: None}, {}, {}, {}
        for v in order:
            fs = factors[v] = self._node_factors(v)
            below[v] = []
            for f in fs:
                if f == up[v]:
                    continue
                vs, table = self._factor(f)
                if f[0] == "cpt":  # evidence changes without a structure change
                    scope[f] = vs, table
                rest = [u for u in vs if u != v]
                below[v].append((f, rest))
                for u in rest:
                    up[u] = f
                    order.append(u)
        sched = _Schedule(order, up, below, factors, scope)
        self._schedules.update(dict.fromkeys(order, sched))
        return sched

    def propagate(self) -> None:
        """Recompute the exact posterior marginals of every component that
        gained a node, edge or evidence since the last call, and stamp its
        nodes with this call's generation; other beliefs and stamps are left
        as they are.

        Messages are kept across calls.  On a tree a message depends only on
        its sender's side, so one is recomputed only if it was never
        computed or its sender side holds a node touched since the last
        call; the others would come out bit for bit the same.  A call that
        raises ``InconsistentEvidenceError`` leaves every belief, stamp and
        kept message as it was.
        """
        if not self._dirty:
            return
        messages = self._messages
        replaced: dict[tuple, np.ndarray | None] = {}  # key -> kept message before

        def send(key, out, what):
            s = out.sum()
            if s <= 0:
                raise InconsistentEvidenceError(f"{what} has zero total probability")
            replaced[key] = messages.get(key)
            messages[key] = out / s

        def var_to_factor(sched, v, f):
            out = np.ones(len(self.nodes[v].labels))
            for g in sched.factors[v]:
                if g != f:
                    out = out * messages[g, v]
            send((v, f), out, f"evidence on {v!r}")

        def factor_to_var(sched, f, v):
            vs, a = sched.scope.get(f) or self._factor(f)
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
            send((f, v), out, f"evidence reaching {v!r}")

        beliefs = []
        done = set()
        try:
            for root in sorted(self._dirty):
                sched = self._schedule(root)
                if sched in done:
                    continue
                done.add(sched)
                order, up, below = sched.order, sched.up, sched.below
                # upward sweep, leaves toward the root; touched[x] counts the
                # touched nodes on x's side of the message x sends upward
                touched = {}
                for v in reversed(order):
                    t = v in self._dirty
                    for f, rest in below[v]:
                        tf = touched[f] = sum(touched[u] for u in rest)
                        if tf or (f, v) not in messages:
                            factor_to_var(sched, f, v)
                        t += tf
                    touched[v] = t
                    if up[v] is not None and (t or (v, up[v]) not in messages):
                        var_to_factor(sched, v, up[v])
                # downward sweep, root toward the leaves: a message is stale
                # if a touched node lies outside its receiver's side; a
                # one-variable factor (prior or evidence) leads nowhere and
                # gets no message, as no belief reads it
                total = touched[order[0]]
                for v in order:
                    for f, rest in below[v]:
                        if rest and (total > touched[f] or (v, f) not in messages):
                            var_to_factor(sched, v, f)
                        for u in rest:
                            if total > touched[u] or (f, u) not in messages:
                                factor_to_var(sched, f, u)
                for v in order:
                    out = np.ones(len(self.nodes[v].labels))
                    for f in sched.factors[v]:
                        out = out * messages[f, v]
                    s = out.sum()
                    if s <= 0:
                        raise InconsistentEvidenceError(
                            f"posterior for {v!r} has zero total probability"
                        )
                    beliefs.append((self.nodes[v], out / s))
        except InconsistentEvidenceError:
            for key, old in replaced.items():
                if old is None:
                    del messages[key]
                else:
                    messages[key] = old
            raise
        self._generation += 1
        for node, belief in beliefs:
            node.belief = belief
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
