"""Net construction, polytree enforcement, and exact propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import NetSpec, build_net, enumerate_marginals, random_polytree
from percept.bayes_net import BayesNet
from percept.errors import InconsistentEvidenceError, PolytreeError, UnknownIdError
from percept.model_base import ConditionalTable, HypothesisSet, ScenarioError


def hs(*priors, labels=None):
    labels = labels or tuple(f"h{i}" for i in range(len(priors)))
    return HypothesisSet(labels=tuple(labels), priors=np.array(priors))


def table(parent_labels, child_labels, rows, tid="t"):
    return ConditionalTable(
        id=tid,
        parent_labels=tuple(parent_labels),
        child_labels=tuple(child_labels),
        rows=np.array(rows, dtype=float),
    )


class TestInstantiate:
    def test_belief_equals_priors(self):
        net = BayesNet()
        nid = net.instantiate_node(hs(0.8, 0.1, 0.1))
        assert np.allclose(net.belief(nid), [0.8, 0.1, 0.1])

    def test_single_hypothesis(self):
        net = BayesNet()
        nid = net.instantiate_node(hs(1.0))
        assert np.allclose(net.belief(nid), [1.0])

    def test_bad_priors_rejected_at_construction(self):
        with pytest.raises(ScenarioError):
            hs(0.5, 0.6)

    def test_duplicate_id_rejected(self):
        net = BayesNet()
        net.instantiate_node(hs(1.0), node_id="x")
        with pytest.raises(ValueError):
            net.instantiate_node(hs(1.0), node_id="x")


class TestLink:
    def test_chain_accepted(self):
        net = BayesNet()
        a = net.instantiate_node(hs(0.5, 0.5))
        b = net.instantiate_node(hs(0.5, 0.5))
        c = net.instantiate_node(hs(0.5, 0.5))
        t = table(net.node(a).labels, net.node(b).labels, [[0.9, 0.1], [0.1, 0.9]])
        net.link(a, b, t)
        t2 = table(net.node(b).labels, net.node(c).labels, [[0.9, 0.1], [0.1, 0.9]])
        net.link(b, c, t2)
        assert len(net.edges()) == 2

    def test_second_undirected_path_rejected_with_witness(self):
        net = BayesNet()
        a = net.instantiate_node(hs(0.5, 0.5), node_id="a")
        b = net.instantiate_node(hs(0.5, 0.5), node_id="b")
        c = net.instantiate_node(hs(0.5, 0.5), node_id="c")
        eye = [[1.0, 0.0], [0.0, 1.0]]
        net.link(a, b, table(("h0", "h1"), ("h0", "h1"), eye))
        net.link(a, c, table(("h0", "h1"), ("h0", "h1"), eye))
        with pytest.raises(PolytreeError) as err:
            net.link(b, c, table(("h0", "h1"), ("h0", "h1"), eye))
        # witness names the existing path between the two endpoints
        assert "b" in str(err.value) and "c" in str(err.value)

    def test_links_to_a_lone_node_walk_no_component(self):
        """A link with an endpoint that has no neighbours cannot close a
        cycle, so it reads the neighbours of its two endpoints only."""

        class Reads(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        labels, rows = ("h0", "h1"), [[0.9, 0.1], [0.2, 0.8]]
        net = BayesNet()
        ids = [net.instantiate_node(hs(0.5, 0.5), node_id=f"n{i}") for i in range(8)]
        for parent, child in zip(ids[1:6], ids[2:7]):
            net.link(parent, child, table(labels, labels, rows))
        net._parents, net._children = Reads(net._parents), Reads(net._children)
        for parent, child in (("n6", "n7"), ("n0", "n1")):
            read = set()
            net.link(parent, child, table(labels, labels, rows))
            assert read == {parent, child}
        with pytest.raises(PolytreeError, match="existing path: n0 - n1 - n2 - n3$"):
            net.link("n0", "n3", table(labels, labels, rows))

    def test_rejected_cpt_leaves_components_apart(self):
        net = BayesNet()
        a, b, c = (net.instantiate_node(hs(0.5, 0.5), node_id=n) for n in "abc")
        eye, swap = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]
        net.link(a, c, table(("h0", "h1"), ("h0", "h1"), eye))
        with pytest.raises(InconsistentEvidenceError):
            net.link(b, c, table(("h0", "h1"), ("h0", "h1"), swap))
        net.link(c, b, table(("h0", "h1"), ("h0", "h1"), eye))
        assert [(e.parent, e.child) for e in net.edges()] == [("a", "c"), ("c", "b")]

    def test_cycle_rejected(self):
        net = BayesNet()
        a = net.instantiate_node(hs(0.5, 0.5))
        b = net.instantiate_node(hs(0.5, 0.5))
        eye = [[1.0, 0.0], [0.0, 1.0]]
        net.link(a, b, table(net.node(a).labels, net.node(b).labels, eye))
        with pytest.raises(PolytreeError):
            net.link(b, a, table(net.node(b).labels, net.node(a).labels, eye))

    def test_dimension_mismatch(self):
        net = BayesNet()
        a = net.instantiate_node(hs(0.5, 0.5))
        b = net.instantiate_node(hs(0.3, 0.3, 0.4))
        bad = table(net.node(a).labels, ("x", "y"), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            net.link(a, b, bad)

    def test_identity_link_copies_parent_belief(self):
        net = BayesNet()
        a = net.instantiate_node(hs(0.7, 0.3))
        b = net.instantiate_node(hs(0.5, 0.5))
        eye = [[1.0, 0.0], [0.0, 1.0]]
        net.link(a, b, table(net.node(a).labels, net.node(b).labels, eye))
        net.propagate()
        assert np.allclose(net.belief(b), net.belief(a))
        assert np.allclose(net.belief(b), [0.7, 0.3])


class TestEvidence:
    def test_uniform_likelihood_changes_nothing(self):
        net = BayesNet()
        a = net.instantiate_node(hs(0.8, 0.1, 0.1))
        net.attach_evidence(a, [1.0, 1.0, 1.0])
        net.propagate()
        assert np.allclose(net.belief(a), [0.8, 0.1, 0.1])

    def test_decisive_likelihood_on_root(self):
        net = BayesNet()
        a = net.instantiate_node(hs(0.8, 0.1, 0.1))
        net.attach_evidence(a, [1.0, 0.0, 0.0])
        net.propagate()
        assert np.allclose(net.belief(a), [1.0, 0.0, 0.0])

    def test_all_zero_rejected(self):
        net = BayesNet()
        a = net.instantiate_node(hs(0.5, 0.5))
        with pytest.raises(InconsistentEvidenceError):
            net.attach_evidence(a, [0.0, 0.0])

    def test_contradictory_evidence_detected_on_propagate(self):
        net = BayesNet()
        a = net.instantiate_node(hs(0.5, 0.5))
        net.attach_evidence(a, [1.0, 0.0])
        net.attach_evidence(a, [0.0, 1.0])
        with pytest.raises(InconsistentEvidenceError):
            net.propagate()

    def test_long_evidence_product_does_not_underflow(self):
        # 0.5**1100 and 0.25**1100 are both 0.0 in float64
        net = BayesNet()
        a = net.instantiate_node(hs(0.5, 0.5))
        for _ in range(1100):
            net.attach_evidence(a, [0.5, 0.25])
        net.propagate()
        assert net.belief(a).tolist() == [1.0, 0.0]

    def test_attachment_order_does_not_matter(self):
        vecs = [np.array([0.9, 0.2, 0.4]), np.array([0.1, 0.8, 0.5])]
        beliefs = []
        for order in (vecs, vecs[::-1]):
            net = BayesNet()
            a = net.instantiate_node(hs(0.5, 0.3, 0.2))
            for v in order:
                net.attach_evidence(a, v)
            net.propagate()
            beliefs.append(net.belief(a))
        assert np.allclose(beliefs[0], beliefs[1], atol=1e-9)

    def test_unknown_node(self):
        net = BayesNet()
        with pytest.raises(UnknownIdError):
            net.belief("nope")


class TestPropagate:
    def test_single_node_no_evidence_is_prior(self):
        net = BayesNet()
        a = net.instantiate_node(hs(0.25, 0.75))
        net.propagate()
        assert np.allclose(net.belief(a), [0.25, 0.75])

    def test_three_node_chain_frozen_values(self):
        # expected marginals computed once by full-joint enumeration
        spec = NetSpec()
        spec.add_node("a", [0.6, 0.4])
        spec.add_node("b", [1 / 3] * 3)
        spec.add_node("c", [0.5, 0.5])
        spec.add_edge("a", "b", [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        spec.add_edge("b", "c", [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        spec.add_evidence("c", [0.8, 0.3])
        net = build_net(spec)
        net.propagate()
        assert np.allclose(net.belief("a"), [0.678391959799, 0.321608040201], atol=1e-9)
        assert np.allclose(
            net.belief("b"),
            [0.577889447236, 0.221105527638, 0.201005025126],
            atol=1e-9,
        )
        assert np.allclose(net.belief("c"), [0.795979899497, 0.204020100503], atol=1e-9)

    @pytest.mark.parametrize("case", range(60))
    def test_random_polytrees_match_enumeration(self, case):
        rng = np.random.default_rng(1000 + case)
        spec = random_polytree(rng)
        net = build_net(spec)
        net.propagate()
        expected = enumerate_marginals(spec)
        for nid, want in expected.items():
            assert np.allclose(net.belief(nid), want, atol=1e-9), nid

    def test_normalization_after_propagate(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = random_polytree(rng)
            net = build_net(spec)
            net.propagate()
            for nid in net.nodes:
                assert abs(net.belief(nid).sum() - 1.0) < 1e-9

    def test_evidence_permutation_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            spec = random_polytree(rng, evidence_prob=1.0)
            order = list(spec.evidence.items())
            results = []
            for perm in (order, order[::-1]):
                fresh = NetSpec()
                fresh.nodes = dict(spec.nodes)
                fresh.edges = list(spec.edges)
                net = build_net(fresh)
                for nid, vecs in perm:
                    for v in vecs:
                        net.attach_evidence(nid, np.array(v))
                net.propagate()
                results.append({nid: net.belief(nid) for nid in net.nodes})
            for nid in results[0]:
                assert np.allclose(results[0][nid], results[1][nid], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_property_polytree_oracle(seed):
    rng = np.random.default_rng(seed)
    spec = random_polytree(rng, max_nodes=6, joint_cap=2000)
    net = build_net(spec)
    net.propagate()
    expected = enumerate_marginals(spec)
    for nid, want in expected.items():
        assert np.allclose(net.belief(nid), want, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_skipped_propagates_match_one_propagate(seed):
    """After any interleaving of construction, evidence and propagate calls,
    beliefs equal those of the same net built afresh and propagated once,
    bit for bit."""
    rng = np.random.default_rng(seed)
    spec = random_polytree(rng, max_nodes=6)
    ops = []
    for k, (nid, (_, prior)) in enumerate(spec.nodes.items()):
        tail = [("evidence", nid, vec) for vec in spec.evidence.get(nid, [])]
        if k:
            tail.append(("link", *spec.edges[k - 1]))
        ops.append(("node", nid, prior))
        ops.extend(tail[i] for i in rng.permutation(len(tail)))

    _assert_stepped_matches_once(ops, lambda i: rng.random() < 0.5 or i == len(ops) - 1)


def _apply(net, op):
    kind, a, b, *rest = op
    if kind == "node":
        labels = tuple(f"{a}_{i}" for i in range(len(b)))
        net.instantiate_node(HypothesisSet(labels=labels, priors=np.array(b)), node_id=a)
    elif kind == "link":
        net.link(a, b, table(net.node(a).labels, net.node(b).labels, rest[0]))
    else:
        net.attach_evidence(a, np.array(b))


def _assert_stepped_matches_once(ops, propagate_after):
    """Apply ``ops`` to one net, propagating after op i when
    ``propagate_after(i)``; each time, every belief equals that of a fresh
    net given ops[: i + 1] and propagated once, bit for bit."""
    stepped = BayesNet()
    for i, op in enumerate(ops):
        _apply(stepped, op)
        if propagate_after(i):
            stepped.propagate()
            once = BayesNet()
            for done in ops[: i + 1]:
                _apply(once, done)
            once.propagate()
            for nid in once.nodes:
                assert np.array_equal(stepped.belief(nid), once.belief(nid)), nid


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_kept_messages_match_a_fresh_net(seed):
    """Propagating after every op, with links in random order (so a link
    joins two propagated components) and evidence landing two or three
    times on each node of propagated components, gives a fresh net's
    beliefs bit for bit."""
    rng = np.random.default_rng(seed)
    spec = random_polytree(rng, max_nodes=7)
    ops = [("node", nid, prior) for nid, (_, prior) in spec.nodes.items()]
    rest = [("link", *edge) for edge in spec.edges] + [
        ("evidence", nid, rng.uniform(0.05, 1.0, size=card))
        for nid, (card, _) in spec.nodes.items()
        for _ in range(int(rng.integers(2, 4)))
    ]
    ops.extend(rest[i] for i in rng.permutation(len(rest)))
    _assert_stepped_matches_once(ops, lambda i: True)


def test_failed_propagate_changes_nothing():
    """A propagate that raises leaves every belief, stamp and kept message
    as it was, even of a component it recomputed before the failing one."""
    rows = [[0.9, 0.1], [0.2, 0.8]]
    net = BayesNet()
    for nid in "abcd":
        net.instantiate_node(hs(0.5, 0.5, labels=(f"{nid}0", f"{nid}1")), node_id=nid)
    for parent, child in (("a", "b"), ("c", "d")):
        net.link(parent, child, table(net.node(parent).labels, net.node(child).labels, rows))
        net.attach_evidence(child, [0.7, 0.4])
    net.propagate()
    net.attach_evidence("b", [0.3, 0.6])  # a - b comes first, and is consistent
    net.attach_evidence("d", [1.0, 0.0])
    net.attach_evidence("d", [0.0, 1.0])
    beliefs = {nid: n.belief for nid, n in net.nodes.items()}
    stamps = {nid: n.stamp for nid, n in net.nodes.items()}
    messages = dict(net._messages)
    with pytest.raises(InconsistentEvidenceError):
        net.propagate()
    assert {nid: n.belief for nid, n in net.nodes.items()} == beliefs
    assert {nid: n.stamp for nid, n in net.nodes.items()} == stamps
    assert net._messages.keys() == messages.keys()
    assert all(net._messages[k] is m for k, m in messages.items())
    with pytest.raises(InconsistentEvidenceError):  # still inconsistent
        net.propagate()


@pytest.mark.parametrize("first_evidence", [False, True], ids=["again", "first"])
@pytest.mark.parametrize("r", [0, 7, 14])
def test_evidence_recomputes_no_message_toward_its_node(r, first_evidence):
    """On a propagated 15-node chain, new evidence at node r recomputes every
    message directed away from r and, toward r, only its own evidence
    message; another component keeps every message."""
    rows = [[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.05, 0.25, 0.7]]
    labels = ("x0", "x1", "x2")
    net = BayesNet()
    ids = [net.instantiate_node(hs(0.5, 0.3, 0.2, labels=labels)) for _ in range(15)]
    other = [net.instantiate_node(hs(0.5, 0.3, 0.2, labels=labels)) for _ in range(3)]
    for chain in (ids, other):
        for parent, child in zip(chain, chain[1:]):
            net.link(parent, child, table(labels, labels, rows))
    for i, nid in enumerate(ids + other):
        if not (first_evidence and i == r):
            net.attach_evidence(nid, [0.6, 0.3, 0.4])
    net.propagate()
    before = dict(net._messages)
    net.attach_evidence(ids[r], [0.2, 0.5, 0.9])
    net.propagate()
    recomputed = {k for k, m in net._messages.items() if before.get(k) is not m}

    # positions along the chain: x_i at 2i, the table into x_i at 2i - 1;
    # a prior or evidence factor is a leaf, so its message points toward r
    pos = {nid: 2 * i for i, nid in enumerate(ids)}
    pos.update({("cpt", nid): 2 * i - 1 for i, nid in enumerate(ids) if i})

    def toward_r(sender, receiver):
        if sender not in pos:
            return True
        return abs(pos[receiver] - 2 * r) < abs(pos[sender] - 2 * r)

    chain_keys = {k for k in net._messages if k[1] in pos}
    away = {k for k in chain_keys if not toward_r(*k)}
    assert recomputed == away | {(("ev", ids[r]), ids[r])}
    assert len(away) == 2 * 14  # one message per direction of each factor-node hop


def test_propagate_leaves_unchanged_components_alone():
    """Evidence on one component recomputes that component only; the other
    keeps its belief arrays, and every belief equals a fresh net's."""
    rows = [[0.9, 0.1], [0.2, 0.8]]

    def build(late_evidence):
        net = BayesNet()
        for nid, priors in (("a", (0.7, 0.3)), ("b", (0.5, 0.5)),
                            ("c", (0.4, 0.6)), ("d", (0.5, 0.5))):
            net.instantiate_node(hs(*priors, labels=(f"{nid}0", f"{nid}1")), node_id=nid)
        for parent, child in (("a", "b"), ("c", "d")):
            net.link(parent, child,
                     table(net.node(parent).labels, net.node(child).labels, rows))
        net.attach_evidence("d", [0.3, 0.9])
        if late_evidence:
            net.attach_evidence("b", [0.8, 0.1])
        return net

    net = build(late_evidence=False)
    net.propagate()
    untouched = {nid: net.node(nid).belief for nid in ("c", "d")}
    touched = {nid: net.node(nid).belief for nid in ("a", "b")}
    net.attach_evidence("b", [0.8, 0.1])
    net.propagate()
    for nid, belief in untouched.items():
        assert net.node(nid).belief is belief, nid
    for nid, belief in touched.items():
        assert net.node(nid).belief is not belief, nid
    fresh = build(late_evidence=True)
    fresh.propagate()
    for nid in fresh.nodes:
        assert np.array_equal(net.belief(nid), fresh.belief(nid)), nid


def test_propagate_restamps_exactly_the_recomputed_components():
    """Each propagate that recomputes something gives every node of each
    recomputed component one new stamp, and no other node a new one."""
    rows = [[0.9, 0.1], [0.2, 0.8]]
    net = BayesNet()
    for nid in "abcdef":
        net.instantiate_node(hs(0.5, 0.5, labels=(f"{nid}0", f"{nid}1")), node_id=nid)

    def link(parent, child):
        net.link(parent, child, table(net.node(parent).labels, net.node(child).labels, rows))

    link("a", "b")
    link("c", "d")
    assert {n.stamp for n in net.nodes.values()} == {0}
    net.propagate()
    first = {nid: n.stamp for nid, n in net.nodes.items()}
    assert len(set(first.values())) == 1 and first["a"] != 0

    def restamped():
        before = {nid: n.stamp for nid, n in net.nodes.items()}
        net.propagate()
        after = {nid: n.stamp for nid, n in net.nodes.items()}
        moved = {nid for nid in after if after[nid] != before[nid]}
        assert len({after[nid] for nid in moved}) <= 1  # one generation per call
        return moved

    assert restamped() == set()  # nothing changed
    net.attach_evidence("b", [0.8, 0.1])
    assert restamped() == {"a", "b"}
    net.attach_evidence("b", [0.8, 0.1])
    net.attach_evidence("f", [0.3, 0.6])
    assert restamped() == {"a", "b", "f"}
    link("d", "e")  # e joins c - d
    assert restamped() == {"c", "d", "e"}
    link("b", "c")  # the two chains merge
    assert restamped() == {"a", "b", "c", "d", "e"}
    net.instantiate_node(hs(0.5, 0.5, labels=("g0", "g1")), node_id="g")
    assert restamped() == {"g"}


def test_long_chain_propagates_without_recursion():
    """Evidence at the tail of a 2000-node chain reaches the head; beliefs
    match a plain-float forward-backward pass."""
    n, prior, ev = 2000, [0.3, 0.7], [0.9, 0.2]
    rows = [[0.9999, 0.0001], [0.0002, 0.9998]]
    labels = ("x0", "x1")
    net = BayesNet()
    ids = [net.instantiate_node(hs(*prior, labels=labels)) for _ in range(n)]
    for parent, child in reversed(list(zip(ids, ids[1:]))):
        net.link(parent, child, table(labels, labels, rows))
    net.attach_evidence(ids[-1], ev)
    net.propagate()

    def normalized(v):
        return [x / sum(v) for x in v]

    lam = ev
    for _ in range(n - 1):
        lam = normalized([sum(r * l for r, l in zip(row, lam)) for row in rows])
    head = normalized([p * l for p, l in zip(prior, lam)])
    pi = prior
    for _ in range(n - 1):
        pi = normalized([sum(pi[i] * rows[i][j] for i in range(2)) for j in range(2)])
    tail = normalized([p * e for p, e in zip(pi, ev)])
    assert abs(head[0] - prior[0]) > 0.05  # the evidence reached the head
    assert np.allclose(net.belief(ids[0]), head, rtol=0, atol=1e-9)
    assert np.allclose(net.belief(ids[-1]), tail, rtol=0, atol=1e-9)


def test_chain_linked_head_first_matches_tail_first():
    """Growing a 2000-node chain from its head, each link joining the whole
    chain so far, gives the net a tail-first build gives."""
    n, rows, labels = 2000, [[0.9, 0.1], [0.2, 0.8]], ("x0", "x1")

    def build(head_first):
        net = BayesNet()
        ids = [net.instantiate_node(hs(0.3, 0.7, labels=labels)) for _ in range(n)]
        pairs = list(zip(ids, ids[1:]))
        for parent, child in pairs if head_first else reversed(pairs):
            net.link(parent, child, table(labels, labels, rows))
        net.attach_evidence(ids[-1], [0.9, 0.2])
        net.propagate()
        return net

    head, tail = build(True), build(False)
    assert set(head.edges()) == set(tail.edges())
    for nid in head.nodes:
        assert np.array_equal(head.belief(nid), tail.belief(nid)), nid


def test_snapshot_round_trip():
    net = BayesNet()
    a = net.instantiate_node(hs(0.7, 0.3), node_id="a")
    b = net.instantiate_node(hs(0.5, 0.5), node_id="b")
    net.link(a, b, table(net.node(a).labels, net.node(b).labels, [[0.9, 0.1], [0.2, 0.8]]))
    net.propagate()
    snap = net.snapshot()
    assert [n["id"] for n in snap["nodes"]] == ["a", "b"]
    assert snap["edges"] == [{"parent": "a", "child": "b"}]
    for n in snap["nodes"]:
        assert abs(sum(n["belief"]) - 1.0) < 1e-9
