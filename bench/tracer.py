"""In-memory span tracer for doslab's layer functions.

:meth:`Tracer.install` replaces every module-level name in doslab that is
bound to a traced layer function with a wrapper, so a call is seen at
whichever binding the caller uses: ``doslab.controlloop.encode``,
``doslab.quantizer.mat_pow``, ``doslab.cli.load_scenario`` and so on.
``LoopTrace.to_csv`` is wrapped on its class.  A span records its name,
start, end, parent span and run id; spans stay in memory until
:meth:`Tracer.write` is called.  A layer's self time is its spans' time
minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
from collections import Counter
from statistics import fmean
from time import perf_counter_ns

MODULES = ("doslab", "doslab.cli", "doslab.conditions", "doslab.controlloop",
           "doslab.discretize", "doslab.dos", "doslab.gains",
           "doslab.matrixcore", "doslab.quantizer", "doslab.svgplot")

# (defining module, function) -> span name.  Functions sharing a span name
# are one layer step: both samplers, and every gain synthesis routine.
SPANS = {
    ("doslab.cli", "main"): "cli.main",
    ("doslab.cli", "load_scenario"): "cli.load_scenario",
    ("doslab.discretize", "sample_plant"): "discretize.sample_plant",
    ("doslab.discretize", "sample_plant_single_rate"): "discretize.sample_plant",
    ("doslab.gains", "build_gain_set"): "gains.synthesis",
    ("doslab.gains", "make_gain_set"): "gains.synthesis",
    ("doslab.gains", "design_deadbeat_gain"): "gains.synthesis",
    ("doslab.gains", "design_observer_gain"): "gains.synthesis",
    ("doslab.gains", "design_deadbeat_observer"): "gains.synthesis",
    ("doslab.gains", "design_stabilizing_gain"): "gains.synthesis",
    ("doslab.gains", "derive_decay_constants"): "gains.derive_decay_constants",
    ("doslab.conditions", "build_report"): "conditions.build_report",
    ("doslab.conditions", "tradeoff_boundary"): "conditions.tradeoff_boundary",
    ("doslab.dos", "generate"): "dos.generate",
    ("doslab.quantizer", "encode"): "quantizer.encode",
    ("doslab.quantizer", "decode"): "quantizer.decode",
    ("doslab.quantizer", "derive_input_range"): "quantizer.derive_input_range",
    ("doslab.quantizer", "update_range"): "quantizer.update_range",
    ("doslab.controlloop", "run_scenario"): "controlloop.engine",
    ("doslab.matrixcore", "mat_pow"): "matrixcore.mat_pow",
    ("doslab.matrixcore", "gelfand_radius"): "matrixcore.gelfand_radius",
    ("doslab.svgplot", "line_chart"): "svgplot.line_chart",
}
# Called too often for a span each: these only count calls.
COUNTS = {("doslab.matrixcore", "inf_norm"): "matrixcore.inf_norm"}
METHODS = {("doslab.controlloop", "LoopTrace", "to_csv"): "controlloop.to_csv"}

# Every per-layer metric the traced pass reports, with its unit.
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("cli.load_scenario.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("discretize.sample_plant.calls", "count"),
    ("discretize.sample_plant.ms", "ms"),
    ("gains.synthesis.ms", "ms"),
    ("gains.derive_decay_constants.calls", "count"),
    ("gains.derive_decay_constants.ms", "ms"),
    ("gains.max_power_used", "count"),
    ("conditions.build_report.ms", "ms"),
    ("conditions.tradeoff_boundary.ms", "ms"),
    ("dos.generate.calls", "count"),
    ("dos.generate.ms", "ms"),
    ("dos.attacked_share", "ratio"),
    ("quantizer.encode.calls", "count"),
    ("quantizer.encode.us_per_call", "us"),
    ("quantizer.decode.calls", "count"),
    ("quantizer.decode.us_per_call", "us"),
    ("quantizer.derive_input_range.calls", "count"),
    ("quantizer.derive_input_range.ms", "ms"),
    ("quantizer.update_range.calls", "count"),
    ("quantizer.update_range.ms", "ms"),
    ("controlloop.engine.self_ms", "ms"),
    ("controlloop.us_per_slot", "us"),
    ("controlloop.rows", "count"),
    ("controlloop.to_csv.ms", "ms"),
    ("controlloop.trace_bytes", "bytes"),
    ("matrixcore.mat_pow.calls", "count"),
    ("matrixcore.mat_pow.ms", "ms"),
    ("matrixcore.gelfand_radius.calls", "count"),
    ("matrixcore.gelfand_radius.ms", "ms"),
    ("matrixcore.inf_norm.calls", "count"),
    ("svgplot.line_chart.calls", "count"),
    ("svgplot.line_chart.ms", "ms"),
    ("svgplot.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def _on_decay(tracer, args, result):
    tracer.max_power_used = max(tracer.max_power_used, result.max_power_used)


def _on_generate(tracer, args, result):
    tracer.values["attacked_slots"] += sum(result.slots)
    tracer.values["generated_slots"] += result.horizon


def _on_engine(tracer, args, result):
    tracer.values["slots"] += int(result.q[-1]) + 1


def _on_to_csv(tracer, args, result):
    tracer.values["rows"] += len(args[0].t)
    tracer.values["trace_bytes"] += os.path.getsize(args[1])


def _on_line_chart(tracer, args, result):
    tracer.values["svg_bytes"] += os.path.getsize(args[0])


HOOKS = {
    "gains.derive_decay_constants": _on_decay,
    "dos.generate": _on_generate,
    "controlloop.engine": _on_engine,
    "controlloop.to_csv": _on_to_csv,
    "svgplot.line_chart": _on_line_chart,
}


class Tracer:
    def __init__(self):
        # (name, start ns, end ns, parent index or -1, run id)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.values: Counter = Counter()
        self.max_power_used = 0
        self.import_ms: list[float] = []
        self.run = None
        self._stack: list[int] = []
        self._patched: list = []

    def _span(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}  # id(original) -> (original, wrapper)
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for (module, attr), name in table.items():
                fn = getattr(importlib.import_module(module), attr)
                wrappers[id(fn)] = (fn, make(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for (module, cls_name, attr), name in METHODS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._span(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "values": dict(self.values),
                "max_power_used": self.max_power_used,
                "import_ms": self.import_ms}

    def merge(self, dump: dict, run) -> None:
        """Add the spans and counts another process recorded under ``run``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in dump["spans"]:
            self.spans.append((name, start, end,
                               parent + offset if parent >= 0 else -1, run))
        self.counts.update(dump["counts"])
        self.values.update(dump["values"])
        self.max_power_used = max(self.max_power_used, dump["max_power_used"])
        self.import_ms += dump["import_ms"]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over everything traced (``trace.overhead_ratio``
        is left to the caller).  ``.ms`` is inclusive time; a call nested
        in a span of its own name is not counted twice."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, total_ns, self_ns = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total_ns[name] += end - start

        def ms(name):
            return total_ns[name] / 1e6

        def us_per_call(name):
            return total_ns[name] / 1e3 / calls[name] if calls[name] else 0.0

        values = self.values
        slots = values["slots"]
        generated = values["generated_slots"]
        out = {
            "cli.import_ms": fmean(self.import_ms) if self.import_ms else 0.0,
            "cli.load_scenario.ms": ms("cli.load_scenario"),
            "cli.main.self_ms": self_ns["cli.main"] / 1e6,
            "gains.synthesis.ms": ms("gains.synthesis"),
            "gains.max_power_used": self.max_power_used,
            "conditions.build_report.ms": ms("conditions.build_report"),
            "conditions.tradeoff_boundary.ms": ms("conditions.tradeoff_boundary"),
            "dos.attacked_share": (values["attacked_slots"] / generated
                                   if generated else 0.0),
            "quantizer.encode.us_per_call": us_per_call("quantizer.encode"),
            "quantizer.decode.us_per_call": us_per_call("quantizer.decode"),
            "controlloop.engine.self_ms": self_ns["controlloop.engine"] / 1e6,
            "controlloop.us_per_slot": (total_ns["controlloop.engine"] / 1e3
                                        / slots if slots else 0.0),
            "controlloop.rows": values["rows"],
            "controlloop.to_csv.ms": ms("controlloop.to_csv"),
            "controlloop.trace_bytes": values["trace_bytes"],
            "matrixcore.inf_norm.calls": self.counts["matrixcore.inf_norm"],
            "svgplot.bytes": values["svg_bytes"],
        }
        for name in ("discretize.sample_plant", "gains.derive_decay_constants",
                     "dos.generate", "quantizer.derive_input_range",
                     "quantizer.update_range", "matrixcore.mat_pow",
                     "matrixcore.gelfand_radius", "svgplot.line_chart"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = ms(name)
        for name in ("quantizer.encode", "quantizer.decode"):
            out[f"{name}.calls"] = calls[name]
        return out
