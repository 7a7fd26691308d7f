"""A report shares its unchanged pieces between steps, and the writer,
which keeps text by object, still writes exactly ``json.dumps``."""

import json
import operator

import pytest

from helpers import tiled_brigade
from percept.cli import write_report
from percept.controller import Controller, replay_scenario
from percept.model_base import build_model_base


def _text(value) -> str:
    # bit-exact: repr keeps 0.0 and -0.0 apart, where == does not
    return json.dumps(value, sort_keys=True)


def test_repeated_steps_share_one_piece():
    """In ``tiled-8`` seed 7, a step's candidate list, plan and
    ``beliefs_after`` are the previous step's objects exactly when they
    repeat its text."""
    report = Controller(build_model_base(tiled_brigade(8)), seed=7).run()
    steps = report["steps"]
    repeats = 0
    for prev, step in zip(steps, steps[1:]):
        for key in ("candidates", "plan", "beliefs_after"):
            same = _text(step[key]) == _text(prev[key])
            assert (step[key] is prev[key]) == same, (step["step"], key)
            repeats += same
    assert repeats >= 3 * 30, repeats
    assert report["final_beliefs"] is steps[-1]["beliefs_after"]


def test_replayed_steps_share_their_zero_entries():
    """Over ``tiled-4`` seeds 1..30 a replay keeps one zero-valued entry per
    candidate of the run, 13,545 entries in 2,253 objects (the planned runs
    hold 3,094), and a step whose entries are all the previous step's
    reuses its list."""
    mb = build_model_base(tiled_brigade(4))
    replays = []
    for seed in range(1, 31):
        replays.append(replay_scenario(mb, Controller(mb, seed=seed).run(), seed=seed))
    entries = [e for r in replays for step in r["steps"] for e in step["candidates"]]
    assert len(entries) == 13_545
    assert all(e["value"] == 0.0 for e in entries)
    per_run = [len({e["id"] for step in r["steps"] for e in step["candidates"]}) for r in replays]
    assert len({id(e) for e in entries}) == sum(per_run) == 2_253
    for r in replays:
        for prev, step in zip(r["steps"], r["steps"][1:]):
            last, now = prev["candidates"], step["candidates"]
            same = len(last) == len(now) and all(map(operator.is_, now, last))
            assert (now is last) == same, step["step"]


_SHARED = {"v": [1.5, "x"], "w": {"k": None}}
_DEEP = [[[[[1]]]]]


@pytest.mark.parametrize(
    "doc",
    [
        # one object at several depths, inside whole and streamed pieces
        [_SHARED, [_SHARED], {"a": [[_SHARED]], "b": _SHARED}, [[[[_SHARED]]]]],
        {"x": _DEEP, "y": [_DEEP, _DEEP], "z": [[[[[[_DEEP]]]]]]},
        # equal but distinct objects whose texts differ
        [[0.0], [-0.0], {"v": 0.0}, {"v": -0.0}, [[0.0]], [[-0.0]]],
        [[1], [1.0], [True], {"v": 1}, {"v": 1.0}, {"v": True}, [[1], [1.0], [True]]],
        {"a": {"b": [1]}, "c": {"b": [1.0]}, "d": {"b": [True]}, "e": [{"b": [-0.0]}]},
    ],
    ids=["shared-object", "shared-deep-object", "signed-zeros", "one-float-true", "nested"],
)
def test_shared_and_equal_objects_match_json_dumps(doc, tmp_path):
    path = tmp_path / "report.json"
    write_report(path, doc)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
