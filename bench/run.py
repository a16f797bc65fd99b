"""doslab benchmark.

    python3 bench/run.py --workload {cli_cold,dual_sweep,output_pipeline}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced pass.  Either way the lines before it give each
metric with its unit and sample count, and every run's outputs are checked
against ``reference.json`` and the seed-independent invariants.
``README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import select
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# Fresh interpreters per run whose set-up time is measured; the median is
# reported.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_tail", "ms"),
    ("slots_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def setup_time(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until the workload's
    set-up is done."""
    import workloads

    cmd = [sys.executable, str(BENCH / "child.py"), "setup", workload]
    start = perf_counter()
    proc = subprocess.Popen(cmd, env=workloads.child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = b""
        if select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
            line = proc.stdout.readline()
        elapsed = perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe of {workload} failed: "
                           f"{err.decode().strip()[-400:]}")
    return elapsed


def timed_pass(wl, seed: int, seconds: float, min_rounds: int, probes: int):
    """Whole rounds, untraced, until ``seconds`` have passed, with the
    set-up probes spread over the pass so that they meet the same machine
    as the runs; returns (attempts, set-up seconds)."""
    attempts, setup = [], []
    start = perf_counter()
    r = 0
    while r < min_rounds or perf_counter() - start < seconds:
        if len(setup) < probes and \
                perf_counter() - start >= seconds * len(setup) / probes:
            setup.append(setup_time(wl.name))
        attempts += [wl.attempt(item) for item in wl.round(seed, r)]
        r += 1
    while len(setup) < probes:
        setup.append(setup_time(wl.name))
    return attempts, setup


def traced_pass(wl, seed: int, import_ms: float):
    """Round 0 again, each run once untraced and then once traced, so that
    both meet the same machine.  In process, the workload's set-up is
    traced first; for cli_cold, each traced child starts through child.py.
    Returns (tracer, untraced attempts, traced attempts)."""
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    if wl.in_process:
        tracer.import_ms.append(import_ms)
        tracer.run = "setup"
        with tracer.installed():
            wl.setup()
    dump = workloads.WORK / wl.name / "spans.json"
    for i, item in enumerate(wl.round(seed, 0)):
        untraced.append(wl.attempt(item))
        tracer.run = i
        if wl.in_process:
            with tracer.installed():
                traced.append(wl.attempt(item))
        else:
            dump.unlink(missing_ok=True)
            wl.trace_dump = dump
            traced.append(wl.attempt(item))
            wl.trace_dump = None
            if dump.is_file():
                with open(dump) as fh:
                    tracer.merge(json.load(fh), i)
    tracer.write(workloads.WORK / f"{wl.name}_spans.jsonl")
    return tracer, untraced, traced


def kind(attempt) -> str:
    return f"{attempt.item.command} {attempt.item.scenario}"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            import_ms: float, min_rounds: int | None = None,
            probes: int = SETUP_PROBES, reference=None):
    """One benchmark run; returns (result line, detail)."""
    import workloads
    from tracer import PER_LAYER

    wl = workloads.WORKLOADS[workload](reference or workloads.Reference.load())
    if wl.in_process:
        wl.setup()
    rounds = wl.min_rounds if min_rounds is None else min_rounds
    attempts, setup = timed_pass(wl, seed, seconds, rounds,
                                 0 if trace else probes)
    rss_who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024

    walls = sorted(a.wall_s * 1e3 for a in attempts)
    n = len(walls)
    tail = max(n - 11, 0)  # the highest sample with ten samples beyond it
    by_kind = {}
    for a in attempts:
        by_kind.setdefault(kind(a), []).append(a.wall_s * 1e3)
    kind_ms = {k: median(v) for k, v in by_kind.items()}
    detail = {
        "workload": workload, "seed": seed, "runs": n,
        "setup_probes": len(setup),
        "run_ms_tail_percentile": 100.0 * (tail + 1) / n,
        "run_ms_p50_by_kind": kind_ms,
    }
    if trace:
        tracer, untraced, traced = traced_pass(wl, seed, import_ms)
        values = tracer.layer_metrics()
        values["trace.overhead_ratio"] = (sum(a.wall_s for a in traced)
                                          / sum(a.wall_s for a in untraced))
        attempts += untraced + traced
        detail["traced_runs"] = len(traced)
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": median(setup),
            "run_ms_p50": median(walls),
            "run_ms_tail": walls[tail],
            "slots_per_s": (sum(a.slots for a in attempts)
                            / sum(a.wall_s for a in attempts)),
            "peak_rss_mb": rss_mb,
        }
        units = dict(END_TO_END)
    failed = [a.error for a in attempts if a.error is not None]
    detail["failed_frac"] = len(failed) / len(attempts)
    detail["errors"] = failed[:10]
    result = {
        "correct": not failed,
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, detail


def print_report(result: dict, detail: dict) -> None:
    print(f"doslab bench: {detail['workload']} seed={detail['seed']}: "
          f"{detail['runs']} timed runs, {result['failed']} of "
          f"{result['attempted']} runs failed")
    samples = {"setup_s": f"{detail['setup_probes']} probes",
               "run_ms_tail": f"p{detail['run_ms_tail_percentile']:.1f} "
                              f"of {detail['runs']} runs"}
    for name, m in result["metrics"].items():
        note = samples.get(name, f"{detail['runs']} runs"
                           if name.startswith("run_ms") else "")
        print(f"  {name:38s} {m['value']:>16.6g} {m['unit']:6s} {note}")
    print(f"  {'failed_frac':38s} {detail['failed_frac']:>16.6g} ratio")
    for label, ms in sorted(detail["run_ms_p50_by_kind"].items()):
        print(f"  median {label:44s} {ms:10.2f} ms")
    for error in detail["errors"]:
        print(f"bench: failed run: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_cold", "dual_sweep", "output_pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "doslab" / "__init__.py").is_file():
        print(f"bench: no doslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Compile doslab's bytecode first, so no run pays for it.
    subprocess.run([sys.executable, "-c", "import doslab.cli"], cwd=SRC,
                   check=True)
    start = perf_counter()
    importlib.import_module("doslab.cli")
    import_ms = (perf_counter() - start) * 1e3
    result, detail = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), import_ms)
    print_report(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
