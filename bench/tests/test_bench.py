"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

They check that every metric prints with its unit, that a wrong output
hash, a raised exception or a bad exit code each count as a failed run,
that traced counts repeat exactly, that a held-out DoS seed passes on the
invariants alone, and that the invariants reject broken traces.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import doslab
import doslab.cli
import run
import tracer
import workloads
from workloads import Item

ROOT = workloads.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts that must repeat exactly between two traced passes of one seed.
EXACT = ("controlloop.rows", "dos.attacked_share", "gains.max_power_used",
         "controlloop.trace_bytes", "svgplot.bytes")


def bench_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def quick(workload, trace=False, reference=None):
    return run.measure(workload, seed=0, seconds=0, trace=trace, import_ms=1.0,
                       min_rounds=1, probes=1, reference=reference)


def test_benchmark_json_matches_the_metrics_printed():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == list(tracer.PER_LAYER)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) \
        == sorted(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace, names", [("0", run.END_TO_END),
                                          ("1", tracer.PER_LAYER)])
def test_every_metric_prints_with_its_unit(trace, names):
    proc = bench_cli("--workload", "output_pipeline", "--seed", "3",
                     "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(names)
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    table = "\n".join(lines[:-1])
    for name, unit in names:
        assert f" {name} " in table and f" {unit} " in table
    assert "failed_frac" in table


def test_cli_cold_traced_children_report_every_layer():
    result, detail = quick("cli_cold", trace=True)
    assert result["correct"], detail["errors"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    for name, unit in tracer.PER_LAYER:
        assert metrics[name] > 0, name
    assert metrics["svgplot.line_chart.calls"] == 5 * 3 + 1
    assert metrics["cli.import_ms"] > 10


def test_a_corrupted_reference_hash_fails_the_run():
    wl = workloads.WORKLOADS["output_pipeline"](workloads.Reference.load())
    first = wl.round(0, 0)[0]
    table = dict(wl.reference.table)
    table[workloads.trace_key(first)] = "0" * 64
    result, detail = quick("output_pipeline",
                           reference=workloads.Reference(table))
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert not result["correct"]
    assert detail["failed_frac"] == pytest.approx(1 / 3)
    assert "differs from the reference" in detail["errors"][0]


@pytest.mark.parametrize("error", [RuntimeError("injected"),
                                   doslab.SaturationError("injected")])
def test_an_injected_failure_counts_and_is_not_dropped(monkeypatch, error):
    real = doslab.cli.run_scenario

    def failing(cfg):
        if cfg.scenario is doslab.Scenario.OUTPUT_ACK_FREE:
            raise error
        return real(cfg)

    monkeypatch.setattr(doslab.cli, "run_scenario", failing)
    result, detail = quick("output_pipeline")
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert detail["failed_frac"] == pytest.approx(1 / 3)
    assert "batch_reactor_ackfree" in detail["errors"][0]


@pytest.mark.parametrize("workload", ["dual_sweep", "output_pipeline"])
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        wl = workloads.WORKLOADS[workload](workloads.Reference.load())
        trace, untraced, traced = run.traced_pass(wl, 5, import_ms=1.0)
        assert all(a.error is None for a in untraced + traced)
        metrics = trace.layer_metrics()
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith(".calls") or k in EXACT})
    assert counts[0] == counts[1]
    assert counts[0]["quantizer.encode.calls"] > 0


HELD_OUT = [
    ("dual_sweep", Item("simulate", workloads.DUAL, 1009, 0.9)),
    ("dual_sweep", Item("simulate", "batch_reactor_dual_deadbeat_observer",
                        2027, 0.6)),
    ("output_pipeline", Item("run", "batch_reactor_ack", 4099, 0.3)),
    ("output_pipeline", Item("run", "batch_reactor_ackfree", 4099, 0.3)),
    ("output_pipeline", Item("run", "batch_reactor_mismatch", 4099, None)),
    ("cli_cold", Item("run", workloads.DUAL, 777, 0.3)),
]


@pytest.mark.parametrize("workload, item", HELD_OUT,
                         ids=[f"{w}-{i.scenario}" for w, i in HELD_OUT])
def test_a_held_out_seed_passes_on_the_invariants(workload, item):
    wl = workloads.WORKLOADS[workload](workloads.Reference.load())
    assert item.seed not in workloads.DOS_SEEDS
    assert workloads.trace_key(item) not in wl.reference.table
    if wl.in_process:
        wl.setup()
    attempt = wl.attempt(item)
    assert attempt.error is None
    assert attempt.slots > 0


@pytest.fixture(scope="module")
def traces():
    out = workloads.WORK / "tests"
    found = {}
    for stem in ("batch_reactor_dual", "batch_reactor_ackfree",
                 "batch_reactor_mismatch"):
        code = doslab.cli.main(["run", str(workloads.SCENARIOS / f"{stem}.json"),
                                "--out", str(out), "--no-plots"])
        assert code == 0
        doc = workloads.scenario_doc(stem)
        found[stem] = (doc, (out / doc["outputs"]["trace"]).read_text())
    return found


def _edit(text, column, row_filter, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if row_filter(dict(zip(header, cells))):
            cells[col] = value
            lines[i] = ",".join(cells)
            break
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("stem, column, row_filter, value, message", [
    ("batch_reactor_dual", "E3", lambda r: r["k"] == "0" and r["q"] == "7",
     "1e-30", "|y| > E3"),
    ("batch_reactor_ackfree", "inferred_attack",
     lambda r: r["outcome"] != "attacked", "1", "inference"),
    ("batch_reactor_mismatch", "saturated", lambda r: r["q"] == "2", "1",
     "before the attack"),
])
def test_the_invariants_reject_a_broken_trace(traces, stem, column, row_filter,
                                              value, message):
    doc, text = traces[stem]
    assert workloads.check_trace_csv(doc, text.encode()) > 0
    with pytest.raises(workloads.CheckFailure, match=re.escape(message)):
        workloads.check_trace_csv(doc, _edit(text, column, row_filter, value))


def test_a_truncated_trace_fails(traces):
    doc, text = traces["batch_reactor_dual"]
    short = "".join(text.splitlines(keepends=True)[:101]).encode()
    with pytest.raises(workloads.CheckFailure, match="stopped after 50"):
        workloads.check_trace_csv(doc, short)


def test_without_sources_it_fails_and_prints_no_result():
    bare = workloads.WORK / "tests" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench_cli("--workload", "dual_sweep", "--seed", "0", "--seconds",
                     "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
