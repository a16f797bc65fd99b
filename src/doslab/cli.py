"""Configuration-driven command line entry point.

``doslab run|check|tradeoff <scenario.json>`` loads a JSON scenario,
compiles its plan (sampled plant, synthesized or verified gains, decay
constants), evaluates the stability conditions, runs the requested
simulation, and emits trace CSVs, condition reports, and SVG charts.
Exit codes: 0 success, 2 configuration error, 3 condition check failed,
4 saturation or synchronization failure, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from .conditions import (
    build_report,
    report_rows,
    report_text,
    tradeoff_boundary,
)
from .controlloop import (
    Scenario,
    SimConfig,
    compile_plan,
    run_scenario,
)
from .discretize import ContinuousPlant
from .dos import DoSParams, pattern_from_bools
from .errors import (
    DeadbeatContractError,
    DoslabError,
    InferenceMismatchError,
    SaturationError,
    ScenarioError,
)
from .matrixcore import inf_norm
from .svgplot import line_chart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONDITION = 3
EXIT_SATURATION = 4
EXIT_NUMERICAL = 5

_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}
_VECTOR = {"type": "array", "minItems": 1, "items": {"type": "number"}}

SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["scenario", "plant", "big_delta", "x0", "x0_bound",
                 "levels", "horizon_slots"],
    "properties": {
        "scenario": {"enum": [s.value for s in Scenario]},
        "plant": {
            "type": "object",
            "additionalProperties": False,
            "required": ["a", "b", "c"],
            "properties": {"a": _MATRIX, "b": _MATRIX, "c": _MATRIX},
        },
        "big_delta": {"type": "number", "exclusiveMinimum": 0},
        "x0": _VECTOR,
        "x0_bound": {"type": "number", "minimum": 0},
        "levels": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["n1", "n2", "n3"],
                    "properties": {
                        "n1": {"type": "integer", "minimum": 1},
                        "n2": {"type": "integer", "minimum": 1},
                        "n3": {"type": "integer", "minimum": 1},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["n"],
                    "properties": {"n": {"type": "integer", "minimum": 1}},
                },
            ]
        },
        "dos": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["pattern"],
                    "properties": {
                        "pattern": {"type": "array",
                                    "items": {"type": "integer",
                                              "minimum": 0, "maximum": 1}},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["params"],
                    "properties": {
                        "params": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["kappa_f", "nu_f", "kappa_d", "nu_d"],
                            "properties": {
                                "kappa_f": {"type": "number", "minimum": 0},
                                "nu_f": {"type": "number", "minimum": 2},
                                "kappa_d": {"type": "number", "minimum": 0},
                                "nu_d": {"type": "integer", "minimum": 1},
                            },
                        },
                        "seed": {"type": "integer", "minimum": 0},
                        "intensity": {"type": "number",
                                      "minimum": 0, "maximum": 1},
                    },
                },
            ]
        },
        "gains": {
            "oneOf": [
                {"const": "synthesize"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "minProperties": 1,
                    "properties": {
                        "k": _MATRIX,
                        "m": _MATRIX,
                        "nilpotency_tol": {"type": "number",
                                           "exclusiveMinimum": 0},
                    },
                },
            ]
        },
        "observer": {"enum": ["kalman", "deadbeat"]},
        "control_weight": {"type": "number", "exclusiveMinimum": 0},
        "horizon_slots": {"type": "integer", "minimum": 1},
        "oversample": {"type": "integer", "minimum": 1},
        "attack_slot": {"type": "integer", "minimum": 0},
        "reference_lines": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["slope", "intercept"],
                "properties": {
                    "slope": {"type": "number"},
                    "intercept": {"type": "number"},
                    "label": {"type": "string"},
                },
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trace": {"type": "string"},
                "report": {"type": "string"},
                "plots": {"type": "boolean"},
            },
        },
    },
}

@functools.cache
def _schema_validator() -> jsonschema.Draft202012Validator:
    """Validator for :data:`SCENARIO_SCHEMA`, checked and built once."""
    jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)
    return jsonschema.Draft202012Validator(SCENARIO_SCHEMA)


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    # the error jsonschema.validate would raise, without re-checking the
    # schema on every call
    exc = jsonschema.exceptions.best_match(
        _schema_validator().iter_errors(doc))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ScenarioError(f"scenario schema violation at {where}: "
                            f"{exc.message}") from exc
    return doc


def _nonfinite_path(node, path=()):
    """Path to the first non-finite number in a JSON value, else ``None``.

    Python's json reads ``NaN`` and ``Infinity``, and the schema's number
    type admits them.
    """
    if isinstance(node, (int, float)):
        try:
            return None if math.isfinite(node) else path
        except OverflowError:  # an integer too large for a float
            return path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return None
    for key, value in items:
        found = _nonfinite_path(value, path + (key,))
        if found is not None:
            return found
    return None


def _matrix(rows, where: str, shape=None) -> np.ndarray:
    """A schema-checked list of rows as an array, refusing ragged rows and
    a shape other than ``shape`` (``None`` entries match any size)."""
    if len({len(row) for row in rows}) != 1:
        raise ScenarioError(f"{where} is ragged: row lengths "
                            f"{[len(row) for row in rows]}")
    a = np.array(rows, dtype=float)
    if shape is not None and any(want is not None and want != got
                                 for want, got in zip(shape, a.shape)):
        want = "x".join("*" if d is None else str(d) for d in shape)
        raise ScenarioError(f"{where} must be {want}, got "
                            f"{a.shape[0]}x{a.shape[1]}")
    return a


def _build_config(doc: dict, seed_override: int | None = None) -> SimConfig:
    """Config for a schema-valid scenario document.

    Every number must be finite and every matrix and vector must fit the
    plant's dimensions; a violation is a :class:`ScenarioError`.  This is
    the input boundary: the engines and the codec assume well-formed data.
    """
    bad = _nonfinite_path(doc)
    if bad is not None:
        where = "/".join(str(p) for p in bad)
        raise ScenarioError(f"number at {where} is not finite")
    scenario = Scenario(doc["scenario"])
    plant_doc = doc["plant"]
    n_x = len(plant_doc["a"])
    a = _matrix(plant_doc["a"], "plant.a", (n_x, n_x))
    b = _matrix(plant_doc["b"], "plant.b", (n_x, None))
    c = _matrix(plant_doc["c"], "plant.c", (None, n_x))
    # the schema's integer type admits integral floats such as 2.0
    oversample = int(doc.get("oversample", 1))
    if not doc["big_delta"] / n_x / oversample > 0.0:
        raise ScenarioError(f"big_delta {doc['big_delta']!r} underflows to a "
                            f"zero input or plot period")
    if len(doc["x0"]) != n_x:
        raise ScenarioError(f"x0 must have {n_x} entries, got {len(doc['x0'])}")
    gains_doc = doc.get("gains")
    if isinstance(gains_doc, dict):
        if "k" in gains_doc:
            _matrix(gains_doc["k"], "gains.k", (b.shape[1], n_x))
        if "m" in gains_doc:
            _matrix(gains_doc["m"], "gains.m", (n_x, c.shape[0]))
    plant = ContinuousPlant(a=a, b=b, c=c)
    levels_doc = doc["levels"]
    if "n" in levels_doc:
        levels = levels_doc["n"]
    else:
        levels = (levels_doc["n1"], levels_doc["n2"], levels_doc["n3"])

    pattern = None
    dos_params = None
    seed = 0
    intensity = 0.5
    dos_doc = doc.get("dos")
    if dos_doc is None:
        if scenario is not Scenario.MISMATCH_DEMO:
            raise ScenarioError("scenario needs a dos section")
    elif "pattern" in dos_doc:
        pattern = pattern_from_bools(dos_doc["pattern"])
    else:
        p = dos_doc["params"]
        dos_params = DoSParams(kappa_f=p["kappa_f"], nu_f=p["nu_f"],
                               kappa_d=p["kappa_d"], nu_d=p["nu_d"])
        seed = int(dos_doc.get("seed", 0))
        intensity = dos_doc.get("intensity", 0.5)
    if seed_override is not None:
        seed = seed_override
    attack_slot = doc.get("attack_slot")
    if attack_slot is not None:
        attack_slot = int(attack_slot)

    return SimConfig(
        plant=plant,
        big_delta=doc["big_delta"],
        x0=np.array(doc["x0"], dtype=float),
        x0_bound=doc["x0_bound"],
        scenario=scenario,
        horizon_slots=int(doc["horizon_slots"]),
        levels=levels,
        pattern=pattern,
        dos_params=dos_params,
        seed=seed,
        intensity=intensity,
        observer=doc.get("observer", "kalman"),
        control_weight=doc.get("control_weight", 1.0),
        oversample=oversample,
        attack_slot=attack_slot,
    )


def _compile(args):
    """Scenario document, config and compiled plan for a command."""
    doc = load_scenario(args.scenario)
    cfg = _build_config(doc, args.seed)
    return doc, cfg, compile_plan(cfg, doc.get("gains"))


def _report(args, doc, plan):
    """Build the condition report, write its CSV and print it."""
    report = build_report(plan.variant, plan.constants, plan.dp, plan.levels,
                          plan.params)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    name = doc.get("outputs", {}).get("report", f"{stem}_report.csv")
    with open(out_dir / name, "w") as fh:
        fh.write("name,value\n")
        for key, value in report_rows(report, plan.params):
            fh.write(f"{key},{value}\n")
    print(f"gains: {plan.gain_source}")
    print(report_text(report, plan.params), end="")
    return report


def _emit_plots(trace, out_dir: Path, stem: str):
    t = trace.t
    x_norm = np.max(np.abs(trace.x), axis=1)
    xh_norm = np.max(np.abs(trace.x_hat), axis=1)
    line_chart(
        out_dir / f"{stem}_state.svg",
        [("|x|", t, x_norm), ("|xhat|", t, xh_norm)],
        title="State and estimate (max norm)",
        xlabel="t [s]", ylabel="max norm",
    )
    range_series = [(name, t, values) for name, values in trace.ranges.items()]
    if "y_err" in trace.slots:
        # measured at each slot start
        y_err = trace.slots["y_err"]
        slot_starts = np.arange(len(y_err)) * trace.meta["dp"].big_delta
        range_series.append(("actual |y - center|", slot_starts, y_err))
    line_chart(
        out_dir / f"{stem}_ranges.svg",
        range_series,
        title="Quantization ranges",
        xlabel="t [s]", ylabel="range", ylog=True,
    )
    u_series = []
    for i in range(trace.u_applied.shape[1]):
        u_series.append((f"u_{i}", t, trace.u_applied[:, i]))
    line_chart(
        out_dir / f"{stem}_input.svg",
        u_series,
        title="Applied input (zero-order hold)",
        xlabel="t [s]", ylabel="u",
    )


def cmd_run(args) -> int:
    doc, cfg, plan = _compile(args)
    report = _report(args, doc, plan)
    if not report.passes and cfg.scenario is not Scenario.MISMATCH_DEMO:
        print("condition check failed; not running", file=sys.stderr)
        return EXIT_CONDITION
    cfg.gains = plan
    trace = run_scenario(cfg)
    out_dir = Path(args.out)
    outputs = doc.get("outputs", {})
    stem = Path(args.scenario).stem
    trace_path = out_dir / outputs.get("trace", f"{stem}_trace.csv")
    trace.to_csv(trace_path)
    print(f"trace written to {trace_path}")
    if outputs.get("plots", True) and not args.no_plots:
        _emit_plots(trace, out_dir, stem)
        print(f"plots written to {out_dir}")
    if trace.saturated.any():
        first = int(trace.q[np.argmax(trace.saturated)])
        print(f"saturation flagged from slot {first} on "
              f"(expected for the mismatch demonstration)")
    final_norm = inf_norm(trace.final_state)
    print(f"final |x| = {final_norm:.6g}")
    return EXIT_OK


def cmd_check(args) -> int:
    doc, _, plan = _compile(args)
    return EXIT_OK if _report(args, doc, plan).passes else EXIT_CONDITION


def cmd_tradeoff(args) -> int:
    doc, _, plan = _compile(args)
    if args.grid < 2:
        raise ScenarioError("tradeoff needs a grid of at least 2 points")
    grid = np.linspace(0.0, 0.5, args.grid)
    finite = tradeoff_boundary(plan.variant, plan.constants, plan.dp,
                               plan.levels, grid)
    limit = tradeoff_boundary(plan.variant, plan.constants, plan.dp, None, grid)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    csv_path = out_dir / f"{stem}_tradeoff.csv"
    with open(csv_path, "w") as fh:
        fh.write("nu_f_inv,nu_d_max_finite,nu_d_max_limit\n")
        for (x, yf), (_, yl) in zip(finite, limit):
            fh.write(f"{x:.17g},{yf:.17g},{yl:.17g}\n")
    print(f"boundary written to {csv_path}")
    for name, pts in (("finite", finite), ("limit", limit)):
        (x0, y0), (x1, y1) = pts[0], pts[-1]
        slope = (y1 - y0) / (x1 - x0)
        print(f"{name} line: 1/nu_d = {slope:.4f} * 1/nu_f + {y0:.4f}")
    for ref in doc.get("reference_lines", []):
        label = ref.get("label", "reference")
        print(f"{label}: 1/nu_d = {ref['slope']:.4f} * 1/nu_f "
              f"+ {ref['intercept']:.4f}")
    if not args.no_plots:
        series = [
            ("finite levels", [p[0] for p in finite], [p[1] for p in finite]),
            ("infinite levels", [p[0] for p in limit], [p[1] for p in limit]),
        ]
        for ref in doc.get("reference_lines", []):
            xs = [grid[0], grid[-1]]
            ys = [ref["intercept"] + ref["slope"] * x for x in xs]
            series.append((ref.get("label", "reference"), xs, ys))
        line_chart(out_dir / f"{stem}_tradeoff.svg", series,
                   title="Admissible DoS budget boundary",
                   xlabel="1/nu_f", ylabel="max 1/nu_d")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doslab",
        description="Quantized control under DoS attacks: condition checks "
                    "and deterministic closed-loop simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("run", cmd_run), ("check", cmd_check),
                       ("tradeoff", cmd_tradeoff)):
        p = sub.add_parser(name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's DoS seed")
        p.add_argument("--no-plots", action="store_true")
        if name == "tradeoff":
            p.add_argument("--grid", type=int, default=26,
                           help="number of 1/nu_f grid points in [0, 0.5]")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SaturationError, InferenceMismatchError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_SATURATION
    except (DeadbeatContractError, DoslabError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
