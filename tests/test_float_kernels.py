"""The per-completion arithmetic on Python floats against the numpy
expressions it replaced, which live here as the reference: the keyed
outcome draw, every propagation message and belief, and the valuation's
``_shift_values`` contraction must agree bit for bit."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import BRIGADE
from percept import world as world_module
from percept.bayes_net import BayesNet
from percept.controller import _ACTION_STREAM, Controller
from percept.errors import InconsistentEvidenceError, ScenarioError
from percept.model_base import ConditionalTable, HypothesisSet, OutcomeTable, load_scenario
from percept.valuation import _shift_values


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


# -- the keyed outcome draw ---------------------------------------------------


def _random_table(rng: np.random.Generator, tid: str) -> OutcomeTable:
    """A valid table with 1-4 labels per axis and some zero entries; a
    (child, parent) slice may be all zero."""
    nc, no, npar = (int(k) for k in rng.integers(1, 5, size=3))
    entries = rng.random((nc, no, npar)) * (rng.random((nc, no, npar)) < 0.7)
    for p in range(npar):
        if entries[:, :, p].sum() == 0:
            entries[0, 0, p] = 1.0
        entries[:, :, p] /= entries[:, :, p].sum()
    return OutcomeTable(
        id=tid,
        action_kind="CLASSIFICATION",
        child_labels=tuple(f"c{i}" for i in range(nc)),
        outcomes=tuple(f"o{i}" for i in range(no)),
        parent_labels=tuple(f"p{i}" for i in range(npar)),
        entries=entries,
    )


@pytest.fixture(scope="module")
def brigade():
    return load_scenario(BRIGADE)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 3])
def test_keyed_draw_matches_generator_choice(brigade, seed):
    """``_sample_outcome`` and ``_sample_null_parent`` on the controller's
    keyed generator pick what ``default_rng(<key tuple>).choice`` picks."""
    ctl = Controller(brigade, seed=seed)
    ctl.initialize()
    actions = ctl.enumerate_candidates()
    rng = np.random.default_rng(seed % 1000)
    for k in range(60):
        table = _random_table(rng, f"t{k}")
        action = actions[int(rng.integers(len(actions)))]
        step = int(rng.integers(1, 10_000))
        key = (seed, _ACTION_STREAM, step, ctl.net.node(action.target_node).rank,
               ctl._template_index[action.template_id])
        n = len(table.outcomes)
        pi = int(rng.integers(len(table.parent_labels)))
        ci = int(rng.integers(len(table.child_labels)))
        row = table.entries[ci, :, pi]
        args = table, table.child_labels[ci], table.parent_labels[pi]
        if row.sum() > 0:
            want = np.random.default_rng(key).choice(n, p=row / row.sum())
            got = world_module._sample_outcome(
                *args, ctl._keyed_rng(_ACTION_STREAM, step, action))
            assert got == table.outcomes[want]
        else:
            with pytest.raises(ScenarioError, match="has zero probability"):
                world_module._sample_outcome(*args, ctl._keyed_rng(_ACTION_STREAM, step, action))
        probs = table.entries[:, :, pi].sum(axis=0)
        want = np.random.default_rng(key).choice(n, p=probs / probs.sum())
        got = world_module._sample_null_parent(
            table, table.parent_labels[pi], ctl._keyed_rng(_ACTION_STREAM, step, action))
        assert got == table.outcomes[want]


def test_outcome_cdf_is_built_once_per_slice():
    table = _random_table(np.random.default_rng(3), "t")
    first = table.outcome_cdf(0, 0)
    assert table.outcome_cdf(0, 0) is first
    assert table.outcome_cdf(None, 0) is table.outcome_cdf(None, 0)


# -- propagation messages and beliefs ------------------------------------------


def _reference_factor_to_var(vs, table, messages, f, v) -> np.ndarray:
    a = table
    for ax, u in enumerate(vs):
        if u == v:
            continue
        m = np.array(messages[u, f])
        view = [1] * a.ndim
        view[ax] = len(m)
        a = a * m.reshape(view)
    target_ax = vs.index(v)
    other_axes = tuple(ax for ax in range(a.ndim) if ax != target_ax)
    out = a.sum(axis=other_axes) if other_axes else np.array(a, copy=True)
    return out / out.sum()


def _reference_product(n, msgs) -> np.ndarray:
    out = np.ones(n)
    for m in msgs:
        out = out * np.array(m)
    return out / out.sum()


def _distribution(draw, n, zeros=False):
    lo = 0.0 if zeros else 1e-3
    vec = draw(st.lists(st.floats(lo, 1.0), min_size=n, max_size=n))
    assume(sum(vec) > 0)
    return np.array(vec) / sum(vec)


@st.composite
def _trees(draw):
    """A random polytree of 2-5 nodes with 1-7 labels each, every non-root
    under one parent (so every factor has one or two variables), and
    evidence on some nodes."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=5))
    net = BayesNet()
    ids = []
    for i, n in enumerate(sizes):
        hs = HypothesisSet(labels=tuple(f"x{j}" for j in range(n)),
                           priors=_distribution(draw, n))
        ids.append(net.instantiate_node(hs, node_id=f"v{i}"))
    for i in range(1, len(ids)):
        p = draw(st.integers(0, i - 1))
        rows = [_distribution(draw, sizes[i], zeros=True) for _ in range(sizes[p])]
        table = ConditionalTable(id=f"c{i}", parent_labels=net.node(ids[p]).labels,
                                 child_labels=net.node(ids[i]).labels, rows=np.array(rows))
        net.link(ids[p], ids[i], table)
    for nid, n in zip(ids, sizes):
        if draw(st.booleans()):
            net.attach_evidence(nid, _distribution(draw, n, zeros=True) * 3.0)
    return net


@settings(max_examples=200, deadline=None)
@given(_trees())
def test_messages_and_beliefs_match_numpy(net):
    try:
        net.propagate()
    except InconsistentEvidenceError:
        assume(False)
    assert net._messages
    for (sender, receiver), msg in net._messages.items():
        if isinstance(sender, str):  # variable -> factor
            msgs = [net._messages[g, sender] for g in net._node_factors(sender) if g != receiver]
            want = _reference_product(len(net.node(sender).labels), msgs)
        else:
            vs, table = net._factor(sender)
            want = _reference_factor_to_var(vs, table, net._messages, sender, receiver)
        assert _hex(msg) == _hex(want), (sender, receiver)
    for nid, node in net.nodes.items():
        msgs = [net._messages[f, nid] for f in net._node_factors(nid)]
        assert _hex(node.belief) == _hex(_reference_product(len(node.labels), msgs))


# -- the valuation contraction ---------------------------------------------------


def _reference_shift_values(link, prior, values) -> np.ndarray:
    joint = link * prior  # (child, parent)
    denom = joint.sum(axis=1)
    post = np.divide(joint, denom[:, None], out=np.full(joint.shape, np.nan),
                     where=denom[:, None] > 0.0)
    return np.where(denom > 0.0, (np.abs(post - prior) * values).sum(axis=1), np.nan)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 7), st.integers(1, 7))
def test_shift_values_match_numpy(data, children, parents):
    """For a C-ordered link (a table's marginal) and a transposed one (a
    cpt's rows), with zero rows and zero values allowed."""
    link = np.array([_distribution(data.draw, parents, zeros=True) * data.draw(st.floats(0, 1))
                     for _ in range(children)])
    prior = _distribution(data.draw, parents, zeros=True)
    values = np.array(data.draw(st.lists(st.floats(0, 5), min_size=parents, max_size=parents)))
    got = _shift_values(link.tolist(), prior.tolist(), values.tolist())
    assert _hex(got) == _hex(_reference_shift_values(link, prior, values))
    transposed = np.ascontiguousarray(link.T).T
    assert _hex(got) == _hex(_reference_shift_values(transposed, prior, values))
