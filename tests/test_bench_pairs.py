"""The summary of ``tools/bench_pairs.py`` on synthetic pairs."""

import importlib.util

import pytest

from helpers import ROOT

_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools/bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"runs_per_s": "higher", "run_p50_s": "lower"}


def _run(values: dict, digests=("digest w seed=1 ab",)) -> dict:
    return {"correct": True, "attempted": 10, "failed": 0, "digests": list(digests),
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


def _pairs(parent: list[float], change: list[float], name="runs_per_s") -> list[dict]:
    return [{"pair": i, "seed": 100 + i, "first": bench_pairs.first_side(i),
             "parent": _run({name: p}), "change": _run({name: c})}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_quartiles_and_wins_follow_the_better_direction():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [14.0, 12.0, 15.0, 12.5, 16.0]
    rec = bench_pairs.summarize(_pairs(parent, change), BETTER)["runs_per_s"]
    assert rec["parent"] == {"median": 11.0, "q1": 9.5, "q3": 12.5}
    assert rec["change"]["median"] == 14.0
    assert rec["change_wins"] == 3  # a tie is no win, a loss is none either
    assert rec["pairs"] == 5
    # lower is better: the same numbers as times are won by the parent
    rec = bench_pairs.summarize(_pairs(parent, change, "run_p50_s"), BETTER)["run_p50_s"]
    assert rec["change_wins"] == 1


def test_workload_prefixed_metrics_take_their_direction():
    pairs = _pairs([1.0, 2.0], [0.5, 1.0], name="tiled-8/run_p50_s")
    assert bench_pairs.summarize(pairs, BETTER)["tiled-8/run_p50_s"]["change_wins"] == 2


@pytest.mark.parametrize(
    "change, met",
    [
        ([20.0] * 10, True),
        ([20.0] * 8 + [5.0] * 2, False),  # wins 8 of 10
        ([13.0] * 10, False),  # wins all, but by less than the parent's spread
    ],
)
def test_claim_needs_nine_of_ten_and_a_gain_past_the_parent_iqr(change, met):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    summary = bench_pairs.summarize(_pairs(parent, change), BETTER)
    claim = bench_pairs.check_claim(summary, "runs_per_s", "higher")
    assert claim["met"] is met
    assert claim["parent_iqr"] == pytest.approx(2.5)


def test_digests_must_match_in_every_pair():
    pairs = _pairs([1.0, 2.0], [1.0, 2.0])
    assert bench_pairs.digests_match(pairs)
    pairs[1]["change"]["digests"] = ["digest w seed=1 cd"]
    assert not bench_pairs.digests_match(pairs)
    assert not bench_pairs.digests_match(
        [{"parent": _run({}, ()), "change": _run({}, ())}])  # nothing compared


def test_pairs_alternate_and_seeds_parse():
    assert [bench_pairs.first_side(i) for i in range(4)] == ["parent", "change"] * 2
    assert bench_pairs.seed_list("901-904") == [901, 902, 903, 904]
    assert bench_pairs.seed_list("3,5") == [3, 5]
