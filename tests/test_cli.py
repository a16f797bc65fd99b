import copy
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doslab.conditions
import doslab.discretize
import doslab.gains
import doslab.quantizer
from doslab import cli
from doslab.dos import DoSPattern

SCENARIOS = resources.files("doslab") / "scenarios"
SVG_TEXT = "{http://www.w3.org/2000/svg}text"
ALL_BUNDLED = [
    "batch_reactor_dual.json",
    "batch_reactor_ackfree.json",
    "batch_reactor_ack.json",
    "batch_reactor_mismatch.json",
    "batch_reactor_dual_deadbeat_observer.json",
]


def bundled(name):
    return str(SCENARIOS / name)


def load(name):
    with open(bundled(name)) as fh:
        return json.load(fh)


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def count_preparations(monkeypatch) -> dict:
    """Count plant samplings, decay-constant scans and condition reports,
    under every doslab module's binding of them; returns the live
    ``{name: calls}`` dict."""
    originals = {doslab.discretize.sample_plant: "sample_plant",
                 doslab.discretize.sample_plant_single_rate: "sample_plant",
                 doslab.gains.derive_decay_constants: "derive_decay_constants",
                 doslab.conditions.build_report: "build_report"}
    calls = {}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items()
               if n == "doslab" or n.startswith("doslab.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in originals:
                monkeypatch.setattr(module, attr,
                                    counting(value, originals[value]))
    return calls


class TestSchema:
    @pytest.mark.parametrize("name", ALL_BUNDLED)
    def test_bundled_scenarios_validate(self, name):
        cli.load_scenario(bundled(name))

    def test_unknown_key_rejected(self, tmp_path):
        doc = load("batch_reactor_dual.json")
        doc["unexpected"] = 1
        with pytest.raises(cli.ScenarioError):
            cli.load_scenario(write(tmp_path, doc))

    def test_nested_unknown_key_rejected(self, tmp_path):
        doc = load("batch_reactor_dual.json")
        doc["levels"]["n4"] = 5
        with pytest.raises(cli.ScenarioError):
            cli.load_scenario(write(tmp_path, doc))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(cli.ScenarioError):
            cli.load_scenario(str(path))


class TestRunCommand:
    @pytest.mark.parametrize("name", ALL_BUNDLED)
    def test_every_bundled_scenario_runs_to_completion(self, name, tmp_path):
        code = cli.main(["run", bundled(name), "--out",
                         str(tmp_path / "out"), "--no-plots"])
        assert code == cli.EXIT_OK
        assert list((tmp_path / "out").glob("*_trace.csv"))

    def test_dual_scenario_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", bundled("batch_reactor_dual.json"),
                         "--out", str(out), "--no-plots"])
        assert code == cli.EXIT_OK
        assert (out / "dual_trace.csv").exists()
        assert (out / "dual_report.csv").exists()
        stdout = capsys.readouterr().out
        assert "final |x|" in stdout

    def test_reproducible_traces(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        doc = load("batch_reactor_ackfree.json")
        doc["horizon_slots"] = 80
        scenario = write(tmp_path, doc)
        assert cli.main(["run", scenario, "--out", str(out_a),
                         "--no-plots"]) == cli.EXIT_OK
        assert cli.main(["run", scenario, "--out", str(out_b),
                         "--no-plots"]) == cli.EXIT_OK
        a = (out_a / "ackfree_trace.csv").read_bytes()
        b = (out_b / "ackfree_trace.csv").read_bytes()
        assert a == b

    def test_zero_initial_state(self, tmp_path):
        doc = load("batch_reactor_dual.json")
        doc["x0"] = [0.0, 0.0, 0.0, 0.0]
        doc["x0_bound"] = 0.0
        doc["horizon_slots"] = 20
        out = tmp_path / "out"
        code = cli.main(["run", write(tmp_path, doc), "--out", str(out),
                         "--no-plots"])
        assert code == cli.EXIT_OK
        trace = (out / "dual_trace.csv").read_text().splitlines()
        first_row = trace[1].split(",")
        x_cols = [i for i, h in enumerate(trace[0].split(","))
                  if h.startswith("x_")]
        assert all(float(first_row[i]) == 0.0 for i in x_cols)

    # the schema's integer type admits 2.0; it must run as 2 does
    @pytest.mark.parametrize("name, path", [
        ("batch_reactor_dual.json", ("horizon_slots",)),
        ("batch_reactor_dual.json", ("oversample",)),
        ("batch_reactor_ackfree.json", ("dos", "seed")),
        ("batch_reactor_mismatch.json", ("attack_slot",)),
    ], ids=["horizon_slots", "oversample", "dos_seed", "attack_slot"])
    def test_integral_floats_read_as_integers(self, tmp_path, name, path):
        traces = []
        for number in (int, float):
            doc = load(name)
            doc["horizon_slots"] = 12
            _set(path, number(2))(doc)
            out = tmp_path / number.__name__
            code = cli.main(["run", write(tmp_path, doc), "--out", str(out),
                             "--no-plots"])
            assert code == cli.EXIT_OK
            traces.append((out / doc["outputs"]["trace"]).read_bytes())
        assert traces[0] == traces[1]

    def test_range_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        doc = load("batch_reactor_ackfree.json")
        doc["x0_bound"] = 1e308
        code = cli.main(["run", write(tmp_path, doc),
                         "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == cli.EXIT_NUMERICAL
        assert "range must be nonnegative and finite" in capsys.readouterr().err

    def test_condition_failure_exits_3(self, tmp_path):
        doc = load("batch_reactor_dual.json")
        doc["dos"]["params"]["nu_d"] = 2  # far beyond the admissible budget
        code = cli.main(["run", write(tmp_path, doc),
                         "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == cli.EXIT_CONDITION

    def test_config_error_exits_2(self, tmp_path):
        doc = load("batch_reactor_dual.json")
        doc["x0"] = [9.0, 0.0, 0.0, 0.0]  # exceeds the declared bound
        code = cli.main(["run", write(tmp_path, doc),
                         "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == cli.EXIT_CONFIG

    def test_injected_loose_gain_exits_5(self, tmp_path):
        from .conftest import K_REF, M_REF

        doc = load("batch_reactor_dual.json")
        # the reference feedback gain is not deadbeat for this plant variant
        doc["gains"] = {"k": K_REF, "m": M_REF, "nilpotency_tol": 1e-6}
        code = cli.main(["run", write(tmp_path, doc),
                         "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == cli.EXIT_NUMERICAL

    def test_uncertified_injected_feedback_gain_exits_5(self, tmp_path,
                                                        capsys):
        doc = load("batch_reactor_ack.json")
        doc["gains"] = {"k": [[0, 0, 0, 0], [0, 0, 0, 0]]}
        code = cli.main(["check", write(tmp_path, doc),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: injected feedback gain not certified stable\n")

    @pytest.mark.parametrize("bound", [1e10, 1e12])
    @pytest.mark.parametrize("name", ["batch_reactor_dual.json",
                                      "batch_reactor_ackfree.json"])
    def test_deadbeat_check_scales_with_the_range(self, name, bound,
                                                  tmp_path):
        # the residual |C xhat| is round-off of the size of the range
        doc = load(name)
        doc["x0_bound"] = bound
        code = cli.main(["run", write(tmp_path, doc),
                         "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("name", ALL_BUNDLED)
    def test_one_preparation_per_run(self, name, tmp_path, monkeypatch):
        calls = count_preparations(monkeypatch)
        doc = load(name)
        doc["horizon_slots"] = 20
        code = cli.main(["run", write(tmp_path, doc),
                         "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == cli.EXIT_OK
        assert calls == {"sample_plant": 1, "derive_decay_constants": 1,
                         "build_report": 1}

    def test_dual_run_encodes_output_and_inputs_only(self, tmp_path,
                                                     monkeypatch):
        # E1 is zero and n1 odd, so the estimated-output quantizer would
        # always return the zero center: a successful slot encodes the
        # output once and the input at each of its eta sub-steps, each in
        # a quantize round trip
        encode, calls = doslab.quantizer.encode, []

        def counting(*args, **kwargs):
            calls.append(args)
            return encode(*args, **kwargs)

        monkeypatch.setattr(doslab.quantizer, "encode", counting)
        name = "batch_reactor_dual.json"
        out = tmp_path / "out"
        code = cli.main(["run", bundled(name), "--out", str(out),
                         "--no-plots"])
        assert code == cli.EXIT_OK
        with open(out / load(name)["outputs"]["trace"]) as fh:
            rows = list(csv.DictReader(fh))
        eta = max(int(row["k"]) for row in rows) + 1
        successes = {row["q"] for row in rows if row["outcome"] != "attacked"}
        assert len(calls) == len(successes) * (1 + eta)
        assert {row["E1"] for row in rows} == {"0"}

    def test_mismatch_demo_flags_saturation(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", bundled("batch_reactor_mismatch.json"),
                         "--out", str(out), "--no-plots"])
        assert code == cli.EXIT_OK
        assert "saturation flagged" in capsys.readouterr().out

    def test_plots_emitted(self, tmp_path):
        doc = load("batch_reactor_dual.json")
        doc["horizon_slots"] = 40
        out = tmp_path / "out"
        code = cli.main(["run", write(tmp_path, doc), "--out", str(out)])
        assert code == cli.EXIT_OK
        svgs = list(out.glob("*.svg"))
        assert len(svgs) == 3
        for svg in svgs:
            assert svg.read_text().startswith("<svg")


    @pytest.mark.parametrize("name", ["batch_reactor_dual.json",
                                      "batch_reactor_ackfree.json"])
    def test_measured_output_is_plotted_at_slot_starts(self, tmp_path,
                                                       monkeypatch, name):
        charts = {}
        monkeypatch.setattr(
            cli, "line_chart",
            lambda path, series, **kw: charts.update({Path(path).name: series}))
        doc = load(name)
        doc["horizon_slots"] = 40
        code = cli.main(["run", write(tmp_path, doc, name),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
        stem = Path(name).stem
        (xs, ys), = [(xs, ys) for label, xs, ys in charts[f"{stem}_ranges.svg"]
                     if label == "actual |y - center|"]
        assert len(ys) == 40
        np.testing.assert_array_equal(xs, np.arange(40) * doc["big_delta"])

    def test_mismatch_demo_oversamples(self, tmp_path):
        rows = {}
        for oversample in (1, 2):
            doc = load("batch_reactor_mismatch.json")
            doc["oversample"] = oversample
            out = tmp_path / str(oversample)
            code = cli.main(["run", write(tmp_path, doc), "--out", str(out),
                             "--no-plots"])
            assert code == cli.EXIT_OK
            rows[oversample] = (out / doc["outputs"]["trace"]).read_text() \
                .splitlines()
        header, *fine = rows[2]
        assert header == rows[1][0]
        slots = [line.split(",")[1] for line in fine]
        assert slots == [q for q in slots[::2] for _ in range(2)]
        assert fine[::2] == rows[1][1:]


# sha256 of the trace CSVs at oversample 2 and 3, which the bench reference
# (every bundled scenario ships oversample 1) does not cover
OVERSAMPLED_TRACES = {
    ("batch_reactor_ack.json", 2):
        "69458f9704c1d0cec782dbcc970c41d0df18bc05133707e2a74f66790b7dd308",
    ("batch_reactor_ack.json", 3):
        "a1956a464f9ceae100c33601ad30f611034928ae7124f251b4b0887cf8313ece",
    ("batch_reactor_ackfree.json", 2):
        "d1df4027c4558b65c0cb29feb144b85677025373ebe6a9153cf446bb37de5966",
    ("batch_reactor_ackfree.json", 3):
        "220ae85f79c16c9b0e4c94611ea7d420a00ce00d670864a06437d2efa86bc425",
    ("batch_reactor_dual.json", 2):
        "8e985ac3857bb7f47800d1c4a54bacc042d9d6fd81e88721ad65547bfab976cb",
    ("batch_reactor_dual.json", 3):
        "b74173a6a979842118bbbc7030b6f55753addcb95f653f7850c24c550cfe5938",
    ("batch_reactor_dual_deadbeat_observer.json", 2):
        "ca6b8d5348d68ce1cbeb747fc34666e9348a2f81f1a2ca91249275835723ce84",
    ("batch_reactor_dual_deadbeat_observer.json", 3):
        "b6cd158f08161573cbf76e379b3c2a36e4170344fec2530517ccc38f6d89142d",
    # the only engine that stops early, at the divergence cap
    ("batch_reactor_mismatch.json", 2):
        "ae30620fd67ff1ea32a9685c7f7a43f42737a5ba9a1bdb6ea08fbcfef232f788",
    ("batch_reactor_mismatch.json", 3):
        "2e4c7f821a682df6b9eea11f6f5524f5279b719a2ad74c213119cf9d37372cf0",
}


@pytest.mark.parametrize("name, oversample", sorted(OVERSAMPLED_TRACES))
def test_oversampled_trace_bytes_are_pinned(tmp_path, name, oversample):
    doc = load(name)
    doc["oversample"] = oversample
    out = tmp_path / "out"
    code = cli.main(["run", write(tmp_path, doc), "--out", str(out),
                     "--no-plots"])
    assert code == cli.EXIT_OK
    data = (out / doc["outputs"]["trace"]).read_bytes()
    assert hashlib.sha256(data).hexdigest() \
        == OVERSAMPLED_TRACES[name, oversample]


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("name, levels", [
    ("batch_reactor_dual.json", {"n": 10}),
    ("batch_reactor_ackfree.json", {"n1": 3, "n2": 100, "n3": 100}),
])
def test_level_shape_mismatch_exits_2(tmp_path, command, name, levels):
    doc = load(name)
    doc["levels"] = levels
    code = cli.main([command, write(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--no-plots"])
    assert code == cli.EXIT_CONFIG


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


MALFORMED = {
    "ragged_a": lambda doc: doc["plant"]["a"][1].pop(),
    "b_row_missing": lambda doc: doc["plant"]["b"].pop(),
    "a_not_square": lambda doc: [row.pop() for row in doc["plant"]["a"]],
    "x0_short": lambda doc: doc["x0"].pop(),
    "x0_nan": _set(("x0", 0), float("nan")),
    "c_column_missing": lambda doc: [row.pop() for row in doc["plant"]["c"]],
    "observer_gain_shape": lambda doc: doc["gains"]["m"].pop(),
    "feedback_gain_shape": _set(("gains", "k"), [[1.0, 0.0, 0.0, 0.0]]),
    "ragged_m": lambda doc: doc["gains"]["m"][1].pop(),
    "big_delta_nan": _set(("big_delta",), float("nan")),
    "x0_bound_infinite": _set(("x0_bound",), float("inf")),
    "big_delta_underflows": _set(("big_delta",), 5e-324),
    "levels_beyond_float": _set(("levels", "n2"), 1e308),
}


def run_python(*args):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def run_cli(tmp_path, *args):
    return run_python("-m", "doslab.cli", *args,
                      "--out", str(tmp_path / "out"))


@pytest.mark.parametrize("mutation", sorted(MALFORMED))
def test_malformed_scenario_exits_2_without_traceback(tmp_path, mutation):
    doc = load("batch_reactor_dual.json")
    MALFORMED[mutation](doc)
    proc = run_cli(tmp_path, "check", write(tmp_path, doc))
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error:")


# (command, outputs key, value); no key: --out names an existing file
UNWRITABLE_OUTPUTS = [
    *[(command, None, None) for command in ("check", "run", "tradeoff")],
    *[("run", "trace", value) for value in ("", "sub/t.csv")],
    *[(command, "report", value) for command in ("check", "run")
      for value in ("", "nope/r.csv")],
]


@pytest.mark.parametrize("command, key, value", UNWRITABLE_OUTPUTS)
def test_unwritable_output_exits_2_without_traceback(tmp_path, command, key,
                                                     value):
    doc = load("batch_reactor_ack.json")
    out = tmp_path / "out"
    if key is None:
        out.write_text("")
    else:
        doc["outputs"][key] = value
    proc = run_python("-m", "doslab.cli", command, write(tmp_path, doc),
                      "--out", str(out), "--no-plots")
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error:")


def test_deeply_nested_scenario_exits_2_without_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"scenario": ' + "[" * 5000 + "]" * 5000 + "}")
    proc = run_cli(tmp_path, "check", str(path))
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error:")


def test_import_leaves_jsonschema_unloaded():
    proc = run_python("-c", "import sys, doslab.cli; "
                      "sys.exit('jsonschema' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_check_runs_without_jsonschema(tmp_path):
    # a None entry makes any import of jsonschema fail
    proc = run_python(
        "-c", "import sys; sys.modules['jsonschema'] = None; "
        "from doslab import cli; "
        f"sys.exit(cli.main(['check', {bundled('batch_reactor_dual.json')!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]))")
    assert proc.returncode == cli.EXIT_OK, proc.stderr


def _subschemas(schema):
    """Every schema nested in ``schema``, itself included."""
    yield schema
    nested = list(schema.get("properties", {}).values())
    if "items" in schema:
        nested.append(schema["items"])
    for sub in nested:
        yield from _subschemas(sub)


def test_schema_uses_only_interpreted_keywords():
    used = set()
    for schema in _subschemas(cli.SCENARIO_SCHEMA):
        used |= set(schema)
        assert set(schema) <= set(cli._KEYWORDS), schema
        names = schema.get("type", "object")
        assert set([names] if isinstance(names, str) else names) \
            <= set(cli._TYPES), schema
        assert schema.get("additionalProperties", False) is False, schema
        assert isinstance(schema.get("items", {}), dict), schema
        assert all(isinstance(value, str)
                   for value in schema.get("enum", ())), schema
    # and no keyword's code outlives its last use
    assert used == set(cli._KEYWORDS)


def test_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(cli.SCENARIO_SCHEMA)


KEYWORD_CASES = {
    # gains' object keywords read an object only, and a list of types is
    # named in full
    "gains_empty": (cli.SCENARIO_SCHEMA["properties"]["gains"], {}),
    "gains_not_string_or_object": (
        cli.SCENARIO_SCHEMA["properties"]["gains"], 5),
    "extras_sorted": (cli.SCENARIO_SCHEMA["properties"]["plant"],
                      {"z": 1, "y": 2, "a": [[1.0]]}),
}


@pytest.mark.parametrize("case", sorted(KEYWORD_CASES))
def test_keyword_edge_cases_match_jsonschema(case):
    schema, value = KEYWORD_CASES[case]
    want = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(value))
    got = cli._best_violation(cli._violations(schema, value))
    assert got == (None if want is None
                   else (tuple(want.absolute_path), want.message))


@pytest.mark.parametrize("name, bound", [(name, 5e307) for name in ALL_BUNDLED]
                         + [("batch_reactor_dual.json", 1e304)])
def test_range_overflowing_the_codec_exits_5_without_traceback(tmp_path, name,
                                                               bound):
    # 2 * range * levels leaves the float range inside the codec
    doc = load(name)
    doc["x0_bound"] = bound
    proc = run_cli(tmp_path, "run", write(tmp_path, doc))
    assert proc.returncode == cli.EXIT_NUMERICAL, proc.stderr
    assert "Traceback" not in proc.stderr


SCHEMA_INVALID = {
    "matrix_entry_string": _set(("plant", "a", 0, 0), "1.0"),
    "scenario_missing": lambda doc: doc.pop("scenario"),
    "unknown_key": _set(("unexpected",), 1),
}


@pytest.mark.parametrize("mutation", sorted(SCHEMA_INVALID))
def test_schema_errors_match_jsonschema_validate(tmp_path, mutation):
    doc = load("batch_reactor_dual.json")
    SCHEMA_INVALID[mutation](doc)
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, cli.SCENARIO_SCHEMA)
    with pytest.raises(cli.ScenarioError) as got:
        cli.load_scenario(write(tmp_path, doc))
    where = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
    assert str(got.value) == (f"scenario schema violation at {where}: "
                              f"{want.value.message}")


DUAL = "batch_reactor_dual.json"
LEVELS_TRIPLE = ("dual_channel runs need an (n1, n2, n3) triple of integers "
                 "in [1, 2**53]")
DOS_FORM = ("dos must give a pattern alone, or params with an optional seed "
            "and intensity, got ")
# (scenario file, mutation, command line options, message): a value outside
# a rule of the library code that reads the field, or a section in a form
# the code that reads it does not take; the schema checks only a document's
# keys and their types
OUTSIDE_A_RULE = {
    **{f"levels_{case}": (DUAL, _set(("levels",), levels), (),
                          f"levels must give n, or n1, n2 and n3, got "
                          f"{sorted(levels)}")
       for case, levels in [("empty", {}),
                            ("triple_incomplete", {"n1": 3, "n2": 10}),
                            ("fit_neither_branch", {"n": 4, "n1": 3})]},
    "dos_empty": (DUAL, _set(("dos",), {}), (), DOS_FORM + "[]"),
    "dos_fits_neither_branch": (DUAL, _set(("dos",), {"seed": 1}), (),
                                DOS_FORM + "['seed']"),
    "dos_pattern_with_seed": (DUAL, _set(("dos",), {"pattern": [0, 1],
                                                    "seed": 1}), (),
                              DOS_FORM + "['pattern', 'seed']"),
    "gains_string": (DUAL, _set(("gains",), "keep"), (),
                     "gains must be None, 'synthesize', a GainSet or a dict "
                     "of k, m and nilpotency_tol, got 'keep'"),
    "big_delta_zero": (DUAL, _set(("big_delta",), 0), (),
                       "big_delta must be finite and positive"),
    "x0_bound_negative": (DUAL, _set(("x0_bound",), -1), (),
                          "x0_bound must be finite and nonnegative"),
    **{f"levels_{n}_zero": (DUAL, _set(("levels", n), 0), (), LEVELS_TRIPLE)
       for n in ("n1", "n2", "n3")},
    "levels_n_below_minimum": (
        "batch_reactor_ackfree.json", _set(("levels", "n"), 0), (),
        "output_ackfree runs need a single level count of integers in "
        "[1, 2**53]"),
    "dos_pattern_entry": (DUAL, _set(("dos",), {"pattern": [0, 2]}), (),
                          "pattern entries must be 0 or 1, got 2"),
    "dos_pattern_short": (DUAL, _set(("dos",), {"pattern": [0, 1, 0]}), (),
                          "pattern covers 3 slots, run needs 800"),
    "dos_missing": (DUAL, lambda doc: doc.pop("dos"), (),
                    "dual_channel runs need a pattern or dos_params (a "
                    "scenario file's dos section)"),
    **{f"dos_params_{name}": (DUAL, _set(("dos", "params", name), value), (),
                              message)
       for name, value, message in [
           ("kappa_f", -1, "chatter bounds must be nonnegative"),
           ("kappa_d", -1, "chatter bounds must be nonnegative"),
           ("nu_f", 1, "nu_f must be at least 2"),
           ("nu_d", 0, "nu_d must be an integer >= 1")]},
    "dos_seed_negative": (DUAL, _set(("dos", "seed"), -1), (),
                          "seed must be at least 0, got -1"),
    "seed_option_negative": (DUAL, None, ("--seed", "-1"),
                             "seed must be at least 0, got -1"),
    "intensity_above_1": (DUAL, _set(("dos", "intensity"), 1.5), (),
                          "intensity must lie in [0, 1], got 1.5"),
    "nilpotency_tol_zero": (
        DUAL, _set(("gains", "nilpotency_tol"), 0), (),
        "gains.nilpotency_tol must be finite and positive, got 0"),
    "control_weight_zero": (DUAL, _set(("control_weight",), 0), (),
                            "control_weight must be finite and positive"),
    "horizon_zero": (DUAL, _set(("horizon_slots",), 0), (),
                     "horizon_slots must be at least 1, got 0"),
    # refused before anything is allocated
    "horizon_past_the_row_ceiling": (
        DUAL, _set(("horizon_slots",), 1e15), (),
        "horizon_slots x n_x x oversample is 4000000000000000 trace rows, "
        "above the 4000000 row ceiling"),
    "oversample_zero": (DUAL, _set(("oversample",), 0), (),
                        "oversample must be at least 1, got 0"),
    "attack_slot_negative": (
        "batch_reactor_mismatch.json", _set(("attack_slot",), -1), (),
        "attack_slot must be at least 0, got -1"),
    "attack_slot_past_horizon": (
        "batch_reactor_mismatch.json", _set(("attack_slot",), 300), (),
        "mismatch demo needs attack_slot below horizon_slots 300, got 300"),
    "attack_slot_outside_the_demo": (
        DUAL, _set(("attack_slot",), 3), (),
        "dual_channel runs take no attack_slot: only the mismatch demo has "
        "one"),
    "dos_pattern_on_the_demo": (
        "batch_reactor_mismatch.json", _set(("dos",), {"pattern": [1] * 300}),
        (), "mismatch demo takes no pattern: its one attack is at "
            "attack_slot"),
    "dos_params_on_the_demo": (
        "batch_reactor_mismatch.json",
        _set(("dos",), {"params": {"kappa_f": 1, "nu_f": 11, "kappa_d": 1,
                                   "nu_d": 11},
                        "seed": 3, "intensity": 0.9}),
        (), "mismatch demo takes no dos_params: its one attack is at "
            "attack_slot"),
}


@pytest.mark.parametrize("command", ["check", "run", "tradeoff"])
@pytest.mark.parametrize("case", sorted(OUTSIDE_A_RULE))
def test_values_outside_a_rule_exit_2(tmp_path, capsys, case, command):
    name, mutation, options, message = OUTSIDE_A_RULE[case]
    doc = load(name)
    if mutation is not None:
        mutation(doc)
    code = cli.main([command, write(tmp_path, doc), *options,
                     "--out", str(tmp_path / "out"), "--no-plots"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


# A file's pattern is a list, and never comes with params, so these library
# rules are met through a config changed after it is built.
@pytest.mark.parametrize("command", ["check", "run", "tradeoff"])
@pytest.mark.parametrize("pattern, message", [
    (DoSPattern(5), "pattern slots must be iterable, got 5"),
    (DoSPattern((True,) * 800),
     "pattern breaks the dos_params budget at prefix q = 4"),
], ids=["slots_int", "breaks_dos_params"])
def test_library_pattern_rules_exit_2(tmp_path, capsys, monkeypatch, command,
                                      pattern, message):
    build = cli._build_config
    monkeypatch.setattr(cli, "_build_config", lambda doc, seed: (
        dataclasses.replace(build(doc, seed), pattern=pattern)))
    code = cli.main([command, bundled(DUAL), "--out", str(tmp_path / "out"),
                     "--no-plots"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


# an allocation that fails in any stage of a command is a numerical failure
@pytest.mark.parametrize("command, stage", [
    ("check", "compile_plan"), ("tradeoff", "compile_plan"),
    ("run", "compile_plan"), ("run", "run_scenario")])
def test_a_failed_allocation_exits_5(tmp_path, capsys, monkeypatch, command,
                                     stage):
    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 7.11 PiB")

    monkeypatch.setattr(cli, stage, out_of_memory)
    code = cli.main([command, bundled(DUAL), "--out", str(tmp_path / "out"),
                     "--no-plots"])
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == ("numerical failure: out of memory: "
                                       "Unable to allocate 7.11 PiB\n")


# pattern-only documents whose attacks break the unit budget of their
# horizon: the report checks the budget they meet, which fails, and a run
# that would diverge is not started
@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("name, pattern", [
    ("batch_reactor_ackfree.json", [1, 1, 1, 1, 1, 0] * 50),
    ("batch_reactor_ackfree.json", [1] * 100 + [0] * 200),
    ("batch_reactor_dual.json", ([1] * 3 + [0] * 5) * 100),
], ids=["ackfree_five_in_six", "ackfree_first_third", "dual_three_in_eight"])
def test_pattern_only_documents_fail_the_budget_they_meet(tmp_path, capsys,
                                                          name, pattern,
                                                          command):
    doc = load(name)
    doc["dos"] = {"pattern": pattern}
    code = cli.main([command, write(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--no-plots"])
    assert code == cli.EXIT_CONDITION
    assert "final |x|" not in capsys.readouterr().out


def test_odd_ackfree_levels_fail_the_report(tmp_path):
    doc = load("batch_reactor_ackfree.json")
    doc["levels"] = {"n": 99}
    code = cli.main(["run", write(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--no-plots"])
    assert code == cli.EXIT_CONDITION


# a plant that measures its whole state, with a deadbeat observer: the
# error transition is exactly zero, so the first success after an attack
# contracts the range to zero (theta_first = 0)
@pytest.mark.parametrize("command", ["check", "run", "tradeoff"])
@pytest.mark.parametrize("name", ["batch_reactor_ackfree.json",
                                  "batch_reactor_ack.json",
                                  "batch_reactor_dual.json"])
def test_zero_theta_first_keeps_the_exit_code_contract(tmp_path, capsys,
                                                       name, command):
    doc = load(name)
    doc["plant"]["c"] = np.eye(4).tolist()
    doc.pop("gains", None)
    doc["observer"] = "deadbeat"
    code = cli.main([command, write(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--no-plots"])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CONDITION,
                    cli.EXIT_SATURATION, cli.EXIT_NUMERICAL)
    if command == "check":
        assert code == cli.EXIT_OK
        assert "dos_rhs = inf\n" in capsys.readouterr().out


class TestCheckCommand:
    @pytest.mark.parametrize("name, source", [
        ("batch_reactor_dual.json", "injected (m)"),
        ("batch_reactor_ackfree.json", "injected (m)"),
        ("batch_reactor_ack.json", "synthesized"),
        ("batch_reactor_mismatch.json", "synthesized"),
        ("batch_reactor_dual_deadbeat_observer.json", "synthesized"),
    ])
    def test_gains_line_names_their_source(self, tmp_path, capsys, name,
                                           source):
        assert cli.main(["check", bundled(name),
                         "--out", str(tmp_path)]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith(f"gains: {source}\n")

    @pytest.mark.parametrize("name", ALL_BUNDLED)
    def test_one_preparation_per_check(self, name, tmp_path, monkeypatch):
        calls = count_preparations(monkeypatch)
        assert cli.main(["check", bundled(name),
                         "--out", str(tmp_path)]) == cli.EXIT_OK
        assert calls == {"sample_plant": 1, "derive_decay_constants": 1,
                         "build_report": 1}

    def test_passing_check(self, tmp_path):
        assert cli.main(["check", bundled("batch_reactor_dual.json"),
                         "--out", str(tmp_path)]) == cli.EXIT_OK

    def test_failing_check(self, tmp_path):
        doc = load("batch_reactor_dual.json")
        doc["dos"]["params"]["nu_d"] = 2
        assert cli.main(["check", write(tmp_path, doc),
                         "--out", str(tmp_path)]) == cli.EXIT_CONDITION

    def test_report_written(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["check", bundled("batch_reactor_ack.json"),
                  "--out", str(out)])
        report = (out / "ack_report.csv").read_text()  # scenario names it
        assert report.startswith("name,value")
        assert "dos_rhs" in report


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_every_chart_is_well_formed_xml(tmp_path, name):
    doc = load(name)
    doc["reference_lines"] = [{"slope": -1.0, "intercept": 0.2,
                               "label": "a<b & c"}]
    path, out = write(tmp_path, doc, name), tmp_path / "out"
    for command in ("run", "tradeoff"):
        assert cli.main([command, path, "--out", str(out)]) == cli.EXIT_OK
    charts = {svg.name: ElementTree.parse(svg) for svg in out.glob("*.svg")}
    assert len(charts) == 4
    tradeoff = charts[f"{Path(name).stem}_tradeoff.svg"]
    assert "a<b & c" in [text.text for text in tradeoff.iter(SVG_TEXT)]


class TestTradeoffCommand:
    def test_boundary_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["tradeoff", bundled("batch_reactor_dual.json"),
                         "--out", str(out), "--grid", "11"])
        assert code == cli.EXIT_OK
        csv_path = out / "batch_reactor_dual_tradeoff.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "nu_f_inv,nu_d_max_finite,nu_d_max_limit"
        assert len(lines) == 12
        # affine boundary: interior point sits on the endpoint chord
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        x0, y0 = rows[0][0], rows[0][2]
        x1, y1 = rows[-1][0], rows[-1][2]
        for x, _, y in rows:
            chord = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            assert abs(y - chord) <= 1e-12
        stdout = capsys.readouterr().out
        assert "limit line" in stdout
        assert (out / "batch_reactor_dual_tradeoff.svg").exists()

    def test_grid_too_small(self, tmp_path):
        code = cli.main(["tradeoff", bundled("batch_reactor_dual.json"),
                         "--out", str(tmp_path / "o"), "--grid", "1"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("grid, code", [
        (cli.TRADEOFF_GRID_MAX, cli.EXIT_OK),
        (cli.TRADEOFF_GRID_MAX + 1, cli.EXIT_CONFIG)])
    def test_grid_ceiling(self, tmp_path, capsys, grid, code):
        out = tmp_path / "out"
        assert cli.main(["tradeoff", bundled("batch_reactor_dual.json"),
                         "--out", str(out), "--grid", str(grid),
                         "--no-plots"]) == code
        if code == cli.EXIT_OK:
            lines = (out / "batch_reactor_dual_tradeoff.csv").read_text()
            assert lines.count("\n") == grid + 1
        else:
            assert capsys.readouterr().err == (
                f"configuration error: tradeoff needs a grid of 2 to "
                f"{cli.TRADEOFF_GRID_MAX} points, got {grid}\n")


# Values a mutation may put anywhere: other JSON types, non-finite and huge
# numbers (Python's json reads NaN, Infinity and long integers), integral
# floats, and the edges of the number line.
FUZZ_VALUES = ("x", None, True, [], {}, [1.0], {"n": 3}, 0, -1, 0.5, 2.0,
               float("nan"), float("inf"), -float("inf"), 1e308, -1e308,
               10 ** 400, 5e-324)
# The largest run size a mutated scenario may ask for: the shipped horizon
# and a few plot points per sub-step.
SIZE_BOUNDS = {name: {"horizon_slots": load(name)["horizon_slots"],
                      "oversample": 4} for name in ALL_BUNDLED}


def _json_paths(node, path=()):
    """Every path below ``node`` to a dict value or list element."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    value = parent[last]
    op = data.draw(st.sampled_from(["drop", "retype", "reshape"]))
    if op == "drop":
        del parent[last]
    elif op == "retype" or not isinstance(value, list):
        parent[last] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
    elif value and data.draw(st.booleans()):
        value.pop()
    else:
        value.append(value[-1] if value else 1.0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), name=st.sampled_from(ALL_BUNDLED),
       command=st.sampled_from(["check", "run"]), mutations=st.integers(1, 3))
def test_mutated_scenarios_keep_the_exit_code_contract(tmp_path_factory, data,
                                                       name, command,
                                                       mutations):
    doc = load(name)
    for _ in range(mutations):
        _mutate(doc, data)
    # a bound on run time and memory only: every outcome of a run of the
    # shipped size stays allowed, including one that saturates (exit 4)
    for key, bound in SIZE_BOUNDS[name].items():
        size = doc.get(key)
        if (isinstance(size, (int, float)) and not isinstance(size, bool)
                and bound < size < float("inf")):
            doc[key] = bound
    out = tmp_path_factory.mktemp("fuzz")
    code = cli.main([command, write(out, doc), "--out", str(out / "out"),
                     "--no-plots"])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CONDITION,
                    cli.EXIT_SATURATION, cli.EXIT_NUMERICAL)


ORACLE = jsonschema.Draft202012Validator(cli.SCENARIO_SCHEMA)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data(), name=st.sampled_from(ALL_BUNDLED),
       mutations=st.integers(1, 4))
def test_mutated_scenarios_get_jsonschemas_best_match(tmp_path_factory, data,
                                                      name, mutations):
    doc = load(name)
    for _ in range(mutations):
        _mutate(doc, data)
    path = write(tmp_path_factory.mktemp("oracle"), doc)
    want = jsonschema.exceptions.best_match(ORACLE.iter_errors(doc))
    if want is None:
        # NaN is not equal to itself, so compare the JSON text
        assert json.dumps(cli.load_scenario(path)) == json.dumps(doc)
        return
    where = "/".join(str(p) for p in want.absolute_path) or "<root>"
    with pytest.raises(cli.ScenarioError) as got:
        cli.load_scenario(path)
    assert str(got.value) == (f"scenario schema violation at {where}: "
                              f"{want.message}")
