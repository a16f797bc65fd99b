"""Configuration-driven command line entry point.

``doslab run|check|tradeoff <scenario.json>`` loads a JSON scenario and
compiles its plan once (sampled plant, synthesized or verified gains,
decay constants and condition report); each command reads that plan.
``check`` writes and prints the report's rows, ``run`` does so and then
simulates, and ``tradeoff`` sweeps the report's theta factors against
their infinite-level limit.  A command refuses an option it does not
read (exit 2): ``--seed``, for the file's DoS seed, is ``run``'s alone,
and the file's ``outputs.plots`` and ``--no-plots`` decide whether
``run`` and ``tradeoff`` draw SVG charts.
Exit codes: 0 success, 2 configuration error, 3 condition check failed,
4 saturation or synchronization failure, 5 numerical failure (an
allocation that fails included).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .conditions import compute_thetas, report_rows, tradeoff_boundary
from .controlloop import (
    Scenario,
    SimConfig,
    compile_plan,
    run_scenario,
)
from .discretize import ContinuousPlant
from .dos import DoSParams, DoSPattern
from .errors import (
    DoslabError,
    InferenceMismatchError,
    InvalidMatrixError,
    SaturationError,
    ScenarioError,
)
from .matrixcore import inf_norm, is_finite_number
from .svgplot import line_chart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONDITION = 3
EXIT_SATURATION = 4
EXIT_NUMERICAL = 5

# tradeoff --grid takes at most this many points: a 1/nu_f step of 5e-5
TRADEOFF_GRID_MAX = 10_001

_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}
_VECTOR = {"type": "array", "minItems": 1, "items": {"type": "number"}}

# The schema states structure only: each section's keys and their types.
# Each rule on a value belongs to the library code that reads the field, so
# a library caller meets it too.  The form a section takes (which of its
# keys go together) belongs to the code that reads the section:
# _build_config for levels and dos, compile_plan for gains.
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
        "big_delta": {"type": "number"},
        "x0": _VECTOR,
        "x0_bound": {"type": "number"},
        "levels": {
            "type": "object",
            "additionalProperties": False,
            "properties": {name: {"type": "integer"}
                           for name in ("n", "n1", "n2", "n3")},
        },
        "dos": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pattern": {"type": "array", "items": {"type": "integer"}},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kappa_f", "nu_f", "kappa_d", "nu_d"],
                    "properties": {
                        "kappa_f": {"type": "number"},
                        "nu_f": {"type": "number"},
                        "kappa_d": {"type": "number"},
                        "nu_d": {"type": "integer"},
                    },
                },
                "seed": {"type": "integer"},
                "intensity": {"type": "number"},
            },
        },
        "gains": {
            "type": ["string", "object"],
            "additionalProperties": False,
            "minProperties": 1,
            "properties": {
                "k": _MATRIX,
                "m": _MATRIX,
                "nilpotency_tol": {"type": "number"},
            },
        },
        "observer": {"enum": ["kalman", "deadbeat"]},
        "control_weight": {"type": "number"},
        "horizon_slots": {"type": "integer"},
        "oversample": {"type": "integer"},
        "attack_slot": {"type": "integer"},
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

# SCENARIO_SCHEMA is read by a small interpreter of the JSON Schema
# (2020-12) keywords it uses.  Its messages, and the one violation it
# reports, are those of jsonschema 4.26's validator and ``best_match``,
# which the tests hold it to.

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: (_is_number(v) and isinstance(v, int)
                          or isinstance(v, float) and v.is_integer()),
}


def _has_type(v, names) -> bool:
    """Whether ``v`` has the type named by ``names``, a name or a list."""
    if isinstance(names, str):
        return _TYPES[names](v)
    return any(_TYPES[name](v) for name in names)


class _Violation(NamedTuple):
    path: tuple  # from the value the walk started at
    message: str
    matches_type: bool  # the value has the type its subschema names


# Each keyword check yields messages about the value itself and the
# violations of the subschemas it descends into.

def _kw_type(names, v, path, schema):
    if not _has_type(v, names):
        names = [names] if isinstance(names, str) else names
        yield f"{v!r} is not of type {', '.join(map(repr, names))}"


# The schema's enum values are strings, for which == is JSON equality (for
# numbers it is not: True == 1).

def _kw_enum(options, v, path, schema):
    if v not in options:
        yield f"{v!r} is not one of {options!r}"


def _kw_required(names, v, path, schema):
    if isinstance(v, dict):
        for name in names:
            if name not in v:
                yield f"{name!r} is a required property"


def _kw_additional_properties(allowed, v, path, schema):
    if isinstance(v, dict) and allowed is False:
        known = schema.get("properties", {})
        extra = sorted(k for k in v if k not in known)
        if extra:
            verb = "was" if len(extra) == 1 else "were"
            yield (f"Additional properties are not allowed "
                   f"({', '.join(map(repr, extra))} {verb} unexpected)")


def _kw_properties(props, v, path, schema):
    if isinstance(v, dict):
        for name, sub in props.items():
            if name in v:
                yield from _violations(sub, v[name], path + (name,))


def _kw_items(sub, v, path, schema):
    if isinstance(v, list):
        for i, item in enumerate(v):
            yield from _violations(sub, item, path + (i,))


def _kw_min_items(least, v, path, schema):
    if isinstance(v, list) and len(v) < least:
        yield f"{v!r} " + ("should be non-empty" if least == 1
                           else "is too short")


def _kw_min_properties(least, v, path, schema):
    if isinstance(v, dict) and len(v) < least:
        yield f"{v!r} " + ("should be non-empty" if least == 1
                           else "does not have enough properties")


_KEYWORDS = {
    "type": _kw_type,
    "enum": _kw_enum,
    "required": _kw_required,
    "additionalProperties": _kw_additional_properties,
    "properties": _kw_properties,
    "items": _kw_items,
    "minItems": _kw_min_items,
    "minProperties": _kw_min_properties,
}


def _matches_type(schema: dict, v) -> bool:
    return "type" in schema and _has_type(v, schema["type"])


def _violations(schema: dict, v, path=()):
    """Every violation of ``schema`` by ``v``, in schema order."""
    for keyword, arg in schema.items():
        for found in _KEYWORDS[keyword](arg, v, path, schema):
            if isinstance(found, str):
                found = _Violation(path, found, _matches_type(schema, v))
            yield found


def _best_violation(violations):
    """The path from the root and the message of the violation that
    jsonschema's ``best_match`` picks, or ``None``: the shallowest, then
    the one at the greatest path, then one on a value not of its
    subschema's type."""
    best = max(violations, default=None,
               key=lambda v: (-len(v.path), v.path, not v.matches_type))
    return None if best is None else (best.path, best.message)


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        found = _best_violation(_violations(SCENARIO_SCHEMA, doc))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # in the parser or a message's repr
        raise ScenarioError("scenario file is nested too deeply") from exc
    if found is not None:
        where = "/".join(str(p) for p in found[0]) or "<root>"
        raise ScenarioError(f"scenario schema violation at {where}: "
                            f"{found[1]}")
    return doc


def _nonfinite_path(node, path=()):
    """Path to the first non-finite number in a JSON value, else ``None``.

    Python's json reads ``NaN``, ``Infinity`` and integers past the float
    range, and the schema's number type admits them.
    """
    if _is_number(node):
        return None if is_finite_number(node) else path
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


def _matrix(rows, where: str) -> np.ndarray:
    """A schema-checked list of rows as an array, refusing ragged rows."""
    if len({len(row) for row in rows}) != 1:
        raise ScenarioError(f"{where} is ragged: row lengths "
                            f"{[len(row) for row in rows]}")
    return np.array(rows, dtype=float)


def _build_config(doc: dict, seed_override: int | None = None) -> SimConfig:
    """Config for a schema-valid scenario document.

    The scenario keys that are :class:`SimConfig` fields go in as they are,
    as the config states each field's rule and default.  This checks only
    what a JSON document alone can get wrong -- non-finite numbers, ragged
    rows, and the form of ``levels`` (``n``, or ``n1``, ``n2`` and ``n3``)
    and of ``dos`` (a pattern alone, or params with an optional seed and
    intensity) -- with a :class:`ScenarioError`; the library's
    :class:`InvalidMatrixError` becomes one too.
    """
    bad = _nonfinite_path(doc)
    if bad is not None:
        where = "/".join(str(p) for p in bad)
        raise ScenarioError(f"number at {where} is not finite")
    fields = {f.name: doc[f.name] for f in dataclasses.fields(SimConfig)
              if f.name in doc}
    fields["scenario"] = Scenario(doc["scenario"])
    gains = fields.get("gains")
    if isinstance(gains, dict):
        fields["gains"] = gains | {name: _matrix(gains[name], f"gains.{name}")
                                   for name in ("k", "m") if name in gains}
    levels = doc["levels"]
    if set(levels) == {"n"}:
        fields["levels"] = levels["n"]
    elif set(levels) == {"n1", "n2", "n3"}:
        fields["levels"] = (levels["n1"], levels["n2"], levels["n3"])
    else:
        raise ScenarioError(f"levels must give n, or n1, n2 and n3, got "
                            f"{sorted(levels)}")
    dos_doc = doc.get("dos", {})
    if set(dos_doc) == {"pattern"}:
        fields["pattern"] = DoSPattern(tuple(dos_doc["pattern"]))
    elif "params" in dos_doc and "pattern" not in dos_doc:
        fields["dos_params"] = DoSParams(**dos_doc["params"])
        fields.update((k, v) for k, v in dos_doc.items() if k != "params")
    elif "dos" in doc:
        raise ScenarioError(f"dos must give a pattern alone, or params with "
                            f"an optional seed and intensity, got "
                            f"{sorted(dos_doc)}")
    if seed_override is not None:
        fields["seed"] = seed_override
    try:
        fields["plant"] = ContinuousPlant(
            **{n: _matrix(doc["plant"][n], f"plant.{n}") for n in "abc"})
        return SimConfig(**fields)
    except InvalidMatrixError as exc:
        raise ScenarioError(str(exc)) from exc


def _compile(args, seed=None):
    """Scenario document, config and compiled plan for a command."""
    doc = load_scenario(args.scenario)
    cfg = _build_config(doc, seed)
    return doc, cfg, compile_plan(cfg)


def _report(args, doc, plan):
    """Write the plan's condition report as a CSV and print it, after the
    source of its gains."""
    rows = report_rows(plan.report, plan.params)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    name = doc.get("outputs", {}).get("report", f"{stem}_report.csv")
    with open(out_dir / name, "w") as fh:
        fh.write("name,value\n")
        for key, value in rows:
            fh.write(f"{key},{value}\n")
    entry = doc.get("gains")
    given = [n for n in ("k", "m") if isinstance(entry, dict) and n in entry]
    print(f"gains: injected ({', '.join(given)})" if given
          else "gains: synthesized")
    for key, value in rows:
        print(f"{key} = {value}")
    return plan.report


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
        slot_starts = np.arange(len(y_err)) * trace.plan.dp.big_delta
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
    doc, cfg, plan = _compile(args, args.seed)
    report = _report(args, doc, plan)
    if not report.passes and cfg.scenario is not Scenario.MISMATCH_DEMO:
        print("condition check failed; not running", file=sys.stderr)
        return EXIT_CONDITION
    trace = run_scenario(dataclasses.replace(cfg, gains=plan.gains))
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
    if not 2 <= args.grid <= TRADEOFF_GRID_MAX:
        raise ScenarioError(f"tradeoff needs a grid of 2 to "
                            f"{TRADEOFF_GRID_MAX} points, got {args.grid}")
    doc, _, plan = _compile(args)
    grid = np.linspace(0.0, 0.5, args.grid)
    thetas = plan.report.thetas
    finite = tradeoff_boundary(thetas, grid)
    limit = tradeoff_boundary(
        compute_thetas(thetas.variant, plan.report.constants, plan.dp, None),
        grid)
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
    if doc.get("outputs", {}).get("plots", True) and not args.no_plots:
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: ``parse_args``
    keeps no per-call state on it, so :func:`main` stays re-entrant."""
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
        if name == "run":
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario's DoS seed")
        if name == "tradeoff":
            p.add_argument("--grid", type=int, default=26,
                           help="number of 1/nu_f grid points in [0, 0.5]")
        if name != "check":
            p.add_argument("--no-plots", action="store_true")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:  # OSError: an output path
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SaturationError, InferenceMismatchError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_SATURATION
    except DoslabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print("numerical failure: out of memory", *exc.args, sep=": ",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
