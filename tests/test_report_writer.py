"""``write_report`` writes exactly ``json.dumps(report, indent=2,
sort_keys=True)`` and a newline, for any document, and holds far less
memory than building that text does."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import BRIGADE, tiled_brigade
from percept.cli import write_report
from percept.controller import Controller
from percept.model_base import build_model_base

# values that compare equal but print differently, or print specially
_TRICKY = [0.0, -0.0, 1, 1.0, True, 0, False, math.nan, math.inf, -math.inf, "", None]
# any code point: non-ASCII, control characters and lone surrogates included
_CHARS = st.characters(exclude_categories=())
_SCALARS = (
    st.sampled_from(_TRICKY) | st.booleans() | st.integers() | st.floats() | st.text(_CHARS)
)


def _containers(children):
    items = st.lists(children, max_size=5)
    return (
        items
        | items.map(tuple)
        | st.dictionaries(st.text(_CHARS, max_size=4), children, max_size=5)
        # a repeated item, so one fragment is written more than once
        | st.tuples(children, st.integers(1, 3)).map(lambda c: [c[0]] * c[1])
    )


_DOCUMENTS = st.recursive(_SCALARS, _containers, max_leaves=40)


def _expected(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _written(doc, tmp_path) -> str:
    path = tmp_path / "report.json"
    write_report(path, doc)
    return path.read_text(encoding="utf-8")


def _first_difference(got: str, want: str) -> str:
    """Where two texts first differ, by line, or "" when they are equal."""
    if got == want:
        return ""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"line {i + 1}: wrote {g!r}, json.dumps gives {w!r}"
    return f"{len(got_lines)} lines written, json.dumps gives {len(want_lines)}"


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_DOCUMENTS)
@example(doc=[[1], [1.0], [True], [0.0], [-0.0], [0], [False], [1], [1.0]])
@example(doc={"a": {"x": 1}, "b": {"x": 1.0}, "c": {"x": True}, "d": [{"x": -0.0}, {"x": 0.0}]})
@example(doc=[[[]], [{}], {"a": [[], {}]}, [[[[]]]], {"b": {"c": {}}}])
@example(doc={"line\nbreak": ["tab\t", "\x00", "é", " ", "\U0001f600"]})
def test_matches_json_dumps(doc, tmp_path):
    assert _first_difference(_written(doc, tmp_path), _expected(doc)) == ""


@pytest.mark.parametrize(
    "doc",
    [
        {"v": np.float64(0.1), "w": [np.float64(1e-5), 2.5], "x": {"y": np.float64(-0.0)}},
        [{"a": [1, np.float64(math.nan)]}, {"a": [1, np.float64(math.inf)]}],
        {"k": {1: "one", 2: [1, 2]}, "m": [{3: 0.5}], "n": {"nested": {4: {"d": 1}}}},
        [[{10: 1.0}, {10: 1}], {0: [1], True: {}, 2.5: "x"}, {None: None}],
    ],
    ids=["numpy-float64", "numpy-nonfinite", "int-keys", "mixed-scalar-keys"],
)
def test_foreign_values_match_json_dumps(doc, tmp_path):
    """A float subclass or a non-``str`` key is left to ``json.dumps``."""
    assert _first_difference(_written(doc, tmp_path), _expected(doc)) == ""


@pytest.fixture(scope="module")
def tiled_8_report():
    return Controller(build_model_base(tiled_brigade(8)), seed=7).run()


def test_run_reports_match_json_dumps(tiled_8_report, tmp_path):
    """Brigade seeds 1..50 and ``tiled-8`` seed 7, with the first differing
    line of any report that does not match."""
    raw = json.loads(BRIGADE.read_text(encoding="utf-8"))
    reports = {f"brigade seed {s}": Controller(build_model_base(raw), seed=s).run()
               for s in range(1, 51)}
    reports["tiled-8 seed 7"] = tiled_8_report
    failures = []
    for name, report in reports.items():
        difference = _first_difference(_written(report, tmp_path), _expected(report))
        if difference:
            failures.append(f"{name}: {difference}")
    assert not failures, "\n".join(failures)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_holds_under_half_of_json_dumps(tiled_8_report, tmp_path):
    """The ``tiled-8`` report (1.3 MB of text) is written without ever
    holding the whole text: its peak stays under half of the peak of
    building that text with ``json.dumps``."""
    path = tmp_path / "report.json"
    dumps_peak = _traced_peak(lambda: json.dumps(tiled_8_report, indent=2, sort_keys=True))
    write_peak = _traced_peak(lambda: write_report(path, tiled_8_report))
    assert path.stat().st_size == 1_327_999
    assert write_peak < dumps_peak / 2, (write_peak, dumps_peak)
