"""Command-line behavior: exit codes, artifacts, determinism."""

import json
import re
from pathlib import Path

import pytest

from helpers import BAD_KNAPSACK_INSTANCES, tiny_scenario
from percept.cli import TRACE_COLUMNS, main

BRIGADE = Path(__file__).resolve().parents[1] / "src/percept/scenarios/brigade.json"

STEP1_INSTANCE = {
    "items": [
        {"id": "refine-type", "value": 11522, "cost": 1600},
        {"id": "search", "value": 5761, "cost": 842},
        {"id": "terrain-1", "value": 1125, "cost": 820},
        {"id": "terrain-2", "value": 769, "cost": 820},
        {"id": "terrain-3", "value": 769, "cost": 820},
        {"id": "terrain-4", "value": 217, "cost": 820},
    ],
    "budget_T": 5722,
}


@pytest.fixture()
def tiny_path(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(tiny_scenario(prior=0.6, termination=0.8, units=1)))
    return p


class TestRun:
    def test_bundled_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(BRIGADE), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["winner"]["label"] == "brigade"
        assert report["winner"]["belief"] >= 0.99
        trace = (out / "trace.tsv").read_text().splitlines()
        assert trace[0].split("\t") == list(TRACE_COLUMNS)
        selected = sum(len(s["plan"]["selected"]) for s in report["steps"])
        assert len(trace) == 1 + selected
        assert "winner: brigade" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(BRIGADE), "--out", str(out1)]) == 0
        assert main(["run", "--scenario", str(BRIGADE), "--out", str(out2)]) == 0
        assert (out1 / "trace.tsv").read_bytes() == (out2 / "trace.tsv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_malformed_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"models": []}')
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    def test_budget_zero_exits_two(self, tiny_path, tmp_path):
        code = main(
            ["run", "--scenario", str(tiny_path), "--budget", "0",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("PERCEPT_SEED", "9")
        assert main(["run", "--scenario", str(BRIGADE), "--out", str(out1)]) in (0, 2)
        monkeypatch.delenv("PERCEPT_SEED")
        assert main(
            ["run", "--scenario", str(BRIGADE), "--seed", "9", "--out", str(out2)]
        ) in (0, 2)
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_unbounded_run_is_a_named_error(self, tmp_path, capsys, monkeypatch):
        # brigade seed 5 livelocks; with no wall only the step cap stops it
        monkeypatch.setattr("percept.controller.MAX_STEPS", 20)
        raw = json.loads(BRIGADE.read_text())
        del raw["control"]["max_wall"]
        path = tmp_path / "no-wall.json"
        path.write_text(json.dumps(raw))
        code = main(["run", "--scenario", str(path), "--seed", "5",
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: run exceeded 20 steps") and "control.max_wall" in err
        assert "Traceback" not in err

    def test_trace_level_two_includes_candidates(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(BRIGADE), "--out", str(out), "--trace-level", "2"])
        report = json.loads((out / "report.json").read_text())
        rows = (out / "trace.tsv").read_text().splitlines()
        total = sum(len(s["candidates"]) for s in report["steps"])
        assert len(rows) == 1 + total


class TestKnapsack:
    def write(self, tmp_path, instance):
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(instance))
        return p

    def test_exact_full_budget_selects_all(self, tmp_path, capsys):
        p = self.write(tmp_path, STEP1_INSTANCE)
        assert main(["knapsack", "--instance", str(p), "--exact"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert len(plan["selected"]) == 6
        assert plan["total_value"] == 20163

    def test_exact_tight_budget_takes_dominant(self, tmp_path, capsys):
        inst = dict(STEP1_INSTANCE, budget_T=1600)
        p = self.write(tmp_path, inst)
        assert main(["knapsack", "--instance", str(p), "--exact"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["selected"] == ["refine-type"]

    def test_empty_items(self, tmp_path, capsys):
        p = self.write(tmp_path, {"items": [], "budget_T": 5})
        assert main(["knapsack", "--instance", str(p), "--exact"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["selected"] == []

    def test_approx_respects_epsilon_flag(self, tmp_path, capsys):
        p = self.write(tmp_path, STEP1_INSTANCE)
        assert main(["knapsack", "--instance", str(p), "--epsilon", "0.1"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["total_value"] >= (1 - 0.1) * 20163

    def test_missing_instance_file(self, capsys):
        assert main(["knapsack", "--instance", "/no/such.json", "--exact"]) == 1

    @pytest.mark.parametrize("flag", ["--exact", "--epsilon=0.1"])
    @pytest.mark.parametrize(
        "budget, message",
        [
            pytest.param(float("nan"), "budget must be >= 0, got nan", id="nan0"),
            pytest.param("nan", "budget_T: expected a number, got 'nan'", id="nan1"),
        ],
    )
    def test_nan_budget_exits_one(self, tmp_path, capsys, flag, budget, message):
        p = self.write(tmp_path, dict(STEP1_INSTANCE, budget_T=budget))
        assert main(["knapsack", "--instance", str(p), flag]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_epsilon_zero_exits_one(self, tmp_path, capsys):
        p = self.write(tmp_path, STEP1_INSTANCE)
        assert main(["knapsack", "--instance", str(p), "--epsilon", "0"]) == 1
        assert "error: epsilon" in capsys.readouterr().err

    # a bad instance is a named error and exit 1 under either solver; an
    # escaped exception would fail the test rather than print a traceback
    @pytest.mark.parametrize("flag", ["--exact", "--epsilon=0.1"])
    @pytest.mark.parametrize("raw, message", BAD_KNAPSACK_INSTANCES)
    def test_bad_instance_exits_one(self, tmp_path, capsys, raw, message, flag):
        p = self.write(tmp_path, raw)
        assert main(["knapsack", "--instance", str(p), flag]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestSweep:
    def test_endpoints_and_minimum(self, tiny_path, capsys):
        code = main(
            ["sweep", "--scenario", str(tiny_path), "--budgets", "0", "100"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "minimum sufficient budget_T: 100" in out
        rows = [l.split("\t") for l in out.splitlines() if l and l[0].isdigit()]
        beliefs = [float(r[2]) for r in rows]
        assert beliefs[0] <= beliefs[-1]

    def test_empty_budget_list_is_usage_error(self, tiny_path, capsys):
        assert main(["sweep", "--scenario", str(tiny_path)]) == 2
        assert "at least one budget" in capsys.readouterr().err

    def test_budgets_must_increase(self, tiny_path):
        assert main(["sweep", "--scenario", str(tiny_path), "--budgets", "5", "5"]) == 2

    def test_no_budget_suffices(self, tiny_path, capsys):
        assert main(["sweep", "--scenario", str(tiny_path), "--budgets", "0", "1"]) == 2
        assert "no budget reached" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra, seed_env", [(["--epsilon", "2"], None), ([], "not-a-seed")]
    )
    def test_bad_override_exits_one(self, tiny_path, monkeypatch, capsys, extra, seed_env):
        if seed_env is not None:
            monkeypatch.setenv("PERCEPT_SEED", seed_env)
        args = ["sweep", "--scenario", str(tiny_path), "--budgets", "100", *extra]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_writes_summary_file(self, tiny_path, tmp_path):
        out = tmp_path / "sw"
        main(
            ["sweep", "--scenario", str(tiny_path), "--budgets", "0", "100",
             "--out", str(out)]
        )
        lines = (out / "sweep.tsv").read_text().splitlines()
        assert lines[0].startswith("budget_T")
        assert len(lines) == 3


def _w_brigade(raw):
    return next(e for e in raw["world"]["entities"] if e["id"] == "w-brigade")


def _fails_alike(tmp_path, capsys, change, message):
    """The brigade, changed by ``change``, fails ``validate`` and ``run``
    alike, with the one line ``error: <message>``."""
    raw = json.loads(BRIGADE.read_text())
    change(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["validate", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == err


def _one_hot(rows):
    return [[j == 0 for j in range(len(row))] for row in rows]


# the seven whole-number fields: (path, how to set it)
_WHOLE_FIELDS = {
    "control.budget_T": lambda r, v: r["control"].update(budget_T=v),
    "control.processors": lambda r, v: r["control"].update(processors=v),
    "control.seed": lambda r, v: r["control"].update(seed=v),
    "models[0].min_parts": lambda r, v: r["models"][0].update(min_parts=v),
    "world.cluster_params.min_count": lambda r, v: r["world"]["cluster_params"].update(min_count=v),
    "world.cluster_params.max_count": lambda r, v: r["world"]["cluster_params"].update(max_count=v),
    "actions[0].cost": lambda r, v: r["actions"][0].update(cost=v),
}


class TestValidate:
    def test_bundled_ok(self, capsys):
        assert main(["validate", "--scenario", str(BRIGADE)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"models": [], "cpts": {}, "outcome_tables": {},
                                   "actions": [], "goal_values": {}}))
        assert main(["validate", "--scenario", str(bad)]) == 1

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda r: _w_brigade(r).update(type="hovercraft"),
             "entity w-brigade: unknown type 'hovercraft'"),
            (lambda r: _w_brigade(r).pop("x"),
             "world.entities[0]: missing 'x'"),
            (lambda r: r["models"].append(
                {"id": "decoy", "isa_group": "decoys", "prior": 0.3}),
             "expected exactly one leaf group for clustering, "
             "found ['company', 'decoys']"),
            (lambda r: r["world"]["entities"].append(5),
             "world.entities[36]: expected an object, got 5"),
            (lambda r: r["world"]["terrain"].update(cells=5),
             "world.terrain.cells: expected a list, got 5"),
            (lambda r: r["world"]["terrain"]["cells"].append(5),
             "world.terrain.cells[8]: expected a list, got 5"),
        ],
        ids=["unknown-type", "missing-x", "second-leaf-group", "entity-number",
             "cells-number", "cells-row-number"],
    )
    def test_world_errors_fail_as_in_run(self, tmp_path, capsys, change, message):
        _fails_alike(tmp_path, capsys, change, message)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda r: r["world"]["cluster_params"].update(max_extent=float("nan")),
             "cluster distances must be > 0"),
            (lambda r: r["world"]["search"].update(confirm_belief=float("nan")),
             "world.search.confirm_belief nan outside [0, 1]"),
            (lambda r: r["world"]["search"].update(confirm_belief=-1),
             "world.search.confirm_belief -1.0 outside [0, 1]"),
            (lambda r: r["control"].update(max_wall=float("nan")),
             "control: max_wall is NaN"),
            (lambda r: r["control"].update(max_wall=-1),
             "control: negative max_wall -1.0"),
        ],
        ids=["max-extent-nan", "confirm-belief-nan", "confirm-belief-negative",
             "max-wall-nan", "max-wall-negative"],
    )
    def test_nan_and_out_of_range_fields_fail_as_in_run(
        self, tmp_path, capsys, change, message
    ):
        _fails_alike(tmp_path, capsys, change, message)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda r: r["control"].update(budget_T=True),
             "control.budget_T: expected a number, got True"),
            (lambda r: r["goal_values"].update(brigade=True),
             "goal_values.brigade: expected a number, got True"),
            (lambda r: r["world"].update(detect_prob=True),
             "world.detect_prob: expected a number, got True"),
            (lambda r: r["actions"][0].update(cost=True),
             "actions[0].cost: expected a number, got True"),
            (lambda r: r["world"]["entities"][0].update(x=False),
             "world.entities[0].x: expected a number, got False"),
            (lambda r: r["cpts"]["cpt_force"].update(rows=_one_hot(r["cpts"]["cpt_force"]["rows"])),
             "cpts.cpt_force.rows[0][0]: expected a number, got True"),
        ],
        ids=["budget", "goal-value", "detect-prob", "cost", "entity-x", "one-hot-cpt"],
    )
    def test_booleans_are_not_numbers(self, tmp_path, capsys, change, message):
        _fails_alike(tmp_path, capsys, change, message)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda r: r["control"].update(seed=-1), "control: negative seed -1"),
            (lambda r: r["world"]["cluster_params"].update(min_count=-5, max_count=-1),
             "cluster min_count -5 is negative"),
            (lambda r: r["world"]["cluster_params"].update(min_count=-5),
             "cluster min_count -5 is negative"),
        ],
        ids=["seed", "both-counts", "min-count"],
    )
    def test_negative_seed_and_counts(self, tmp_path, capsys, change, message):
        _fails_alike(tmp_path, capsys, change, message)

    @pytest.mark.parametrize(
        "value, message",
        [(2.5, "expected a whole number, got 2.5"),
         (float("inf"), "expected a whole number, got inf"),
         (float("nan"), "expected a whole number, got nan"),
         (True, "expected a number, got True")],
        ids=["fraction", "infinity", "nan", "boolean"],
    )
    @pytest.mark.parametrize("field", list(_WHOLE_FIELDS))
    def test_whole_number_fields(self, tmp_path, capsys, field, value, message):
        _fails_alike(tmp_path, capsys, lambda r: _WHOLE_FIELDS[field](r, value),
                     f"{field}: {message}")

    @pytest.mark.parametrize(
        "section, record, key",
        [("cpts", "cpt_force", k) for k in ("parent_labels", "child_labels", "rows")]
        + [
            ("outcome_tables", "class_company", k)
            for k in ("action_kind", "child_labels", "outcomes", "parent_labels", "entries")
        ],
    )
    def test_missing_table_key_names_its_path(self, tmp_path, capsys, section, record, key):
        raw = json.loads(BRIGADE.read_text())
        del raw[section][record][key]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {section}.{record}: missing {key!r}\n"

    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda r: r["control"].update(budget_T="5720"), "control.budget_T"),
            (lambda r: r["actions"][0].update(cost="400"), "cost"),
            (lambda r: r["models"][0].update(prior="x"), "prior"),
            (lambda r: r.update(control=None), "control"),
            (lambda r: r["actions"][0].update(applicable_to=5), "applicable_to"),
            (lambda r: r["world"].update(detect_prob=None), "world.detect_prob"),
            (lambda r: r["models"][0].update(parts=5), "parts"),
            (lambda r: r["world"]["cluster_params"].update(min_count="2"),
             "world.cluster_params.min_count"),
            (lambda r: r["world"]["terrain"].pop("width"),
             "world.terrain: missing 'width'"),
            (lambda r: r["world"].update(cluster_params=None), "world.cluster_params"),
            (lambda r: r["world"]["detection_strength"].update(true=[0.6]),
             "world.detection_strength.true"),
        ],
        ids=["budget-string", "cost-string", "prior-string", "control-null",
             "applicable-to-number", "detect-prob-null", "parts-number",
             "min-count-string", "terrain-without-width", "cluster-params-null",
             "strength-not-a-pair"],
    )
    def test_malformed_field_types_are_named_errors(self, tmp_path, capsys, change, field):
        raw = json.loads(BRIGADE.read_text())
        change(raw)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err


# -- the mutation family: every field of the bundled scenario, corrupted -------

_DELETE = object()
_MUTATIONS = {
    "delete": _DELETE, "null": None, "5": 5, "x": "x", "[]": [], "{}": {},
    "Infinity": float("inf"), "NaN": float("nan"), "true": True, "-1": -1,
}


def _field_paths(node, path=()):
    """The path of every field of a JSON document, through the first item
    of each list only."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:1])
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _json_path(path) -> str:
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


def _mutated(text, path, value):
    """The JSON document ``text`` with the field at ``path`` deleted or set
    to ``value``."""
    raw = json.loads(text)
    *parents, last = path
    holder = raw
    for key in parents:
        holder = holder[key]
    if value is _DELETE:
        del holder[last]
    else:
        holder[last] = value
    return raw


# a reader's message: "<path>: expected <kind>, got <value>" or
# "<path>: missing '<key>'"; and what numpy says of a value it cannot convert
_READER_MESSAGE = re.compile(r"(?:(\S+): )?(?:expected .*|missing '[^']*')")
_NUMPY_MESSAGE = re.compile(r"could not convert|inhomogeneous|setting an array element")


@pytest.mark.parametrize(
    "section",
    ["models", "cpts", "outcome_tables", "actions", "goal_values", "world", "control"],
)
def test_every_field_mutation_is_named_or_runs(tmp_path, capsys, section):
    """Each field of the brigade, deleted or set to null, 5, "x", [], {},
    Infinity, NaN or true, either fails ``validate`` with one named error line
    that ``run`` prints too, or passes ``validate`` and runs to exit 0 or 2."""
    text = BRIGADE.read_text()
    paths = [p for p in _field_paths(json.loads(text)) if p[0] == section]
    assert paths
    bad = tmp_path / "bad.json"
    out = str(tmp_path / "out")
    failures = []
    for path in paths:
        where = _json_path(path)
        for name, value in _MUTATIONS.items():
            case = f"{where} = {name}"
            bad.write_text(json.dumps(_mutated(text, path, value)))
            try:
                code = main(["validate", "--scenario", str(bad)])
                err = capsys.readouterr().err
                if code == 0:
                    ran = main(["run", "--scenario", str(bad), "--out", out])
                    capsys.readouterr()
                    if ran not in (0, 2):
                        failures.append(f"{case}: validate passes, run exits {ran}")
                    continue
                ran = main(["run", "--scenario", str(bad), "--out", out])
                run_err = capsys.readouterr().err
            except Exception as exc:  # an escaped exception is a failure
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            lines = err.splitlines()
            if code != 1 or len(lines) != 1 or not lines[0].startswith("error: "):
                failures.append(f"{case}: exit {code}, stderr {err!r}")
                continue
            message = lines[0][len("error: "):]
            reader = _READER_MESSAGE.fullmatch(message)
            if re.fullmatch(r"'[^']*'", message) or _NUMPY_MESSAGE.search(message):
                failures.append(f"{case}: unnamed error {message!r}")
            elif reader and reader[1] and not (
                where == reader[1] or where.startswith((reader[1] + ".", reader[1] + "["))
            ):
                failures.append(f"{case}: {message!r} names no prefix of the path")
            if (ran, run_err) != (1, err):
                failures.append(f"{case}: run exits {ran} with {run_err!r}, not {err!r}")
    assert not failures, "\n".join(failures)
