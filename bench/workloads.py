"""The three benchmark workloads and the checks on their outputs.

A workload runs in rounds.  A round is a fixed, balanced list of runs; only
the per-run DoS seeds change from round to round, drawn from ``DOS_SEEDS``
by the workload seed and the round number.  ``reference.json`` holds the
sha256 of every trace, report and trade-off CSV that any run drawn from
that pool writes, recorded on the seed commit, so every run the benchmark
makes is held to byte-identical output.  A run outside the pool (a held-out
DoS seed) has no reference and is held to the seed-independent invariants
alone; every run is held to those as well.

Horizons come from the shipped scenario files unchanged.  Runs are never
retried and a failed run is never dropped: it is counted in ``failed``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import doslab
import doslab.cli
import doslab.conditions

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "doslab" / "scenarios"
WORK = ROOT / ".bench_work"
REFERENCE_PATH = BENCH / "reference.json"

# Every per-run DoS seed comes from this pool; reference.json covers it.
DOS_SEEDS = tuple(range(16))
INTENSITIES = (0.1, 0.3, 0.6, 0.9)
# |C xhat| at every dual slot end; the engines raise above the same value.
DEADBEAT_TOL = 1e-9

DUAL = "batch_reactor_dual"
DUAL_SCENARIOS = (DUAL, "batch_reactor_dual_deadbeat_observer")
OUTPUT_SCENARIOS = ("batch_reactor_ack", "batch_reactor_ackfree",
                    "batch_reactor_mismatch")
ALL_SCENARIOS = ("batch_reactor_ack", "batch_reactor_ackfree", DUAL,
                 "batch_reactor_dual_deadbeat_observer",
                 "batch_reactor_mismatch")


class CheckFailure(Exception):
    """A run finished but its outputs are wrong."""


@dataclass(frozen=True)
class Item:
    """One run: a CLI command, or a ``simulate`` call of ``run_scenario``."""

    command: str
    scenario: str
    seed: int | None = None
    intensity: float | None = None

    @property
    def label(self) -> str:
        if self.seed is None:
            return f"{self.command} {self.scenario}"
        return (f"{self.command} {self.scenario} seed={self.seed} "
                f"intensity={self.intensity}")

    def argv(self, out: Path) -> list[str]:
        argv = [self.command, str(SCENARIOS / f"{self.scenario}.json"),
                "--out", str(out)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv


@dataclass
class Attempt:
    item: Item
    wall_s: float
    slots: int
    error: str | None


def scenario_doc(stem: str) -> dict:
    with open(SCENARIOS / f"{stem}.json") as fh:
        return json.load(fh)


def scenario_intensity(doc: dict) -> float | None:
    params = doc.get("dos", {})
    return params.get("intensity", 0.5) if "params" in params else None


def trace_key(item: Item) -> str:
    return f"trace/{item.scenario}/seed={item.seed}/intensity={item.intensity}"


class Reference:
    """sha256 table of output files; in record mode it fills itself."""

    def __init__(self, table: dict[str, str], record: bool = False):
        self.table = table
        self.record = record

    @classmethod
    def load(cls) -> "Reference":
        with open(REFERENCE_PATH) as fh:
            return cls(json.load(fh)["sha256"])

    def check(self, key: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        if self.record:
            expected = self.table.setdefault(key, digest)
        else:
            expected = self.table.get(key)
        if expected is not None and expected != digest:
            raise CheckFailure(f"{key}: sha256 {digest[:16]} differs from "
                               f"the reference {expected[:16]}")


def check_trace_csv(doc: dict, data: bytes) -> int:
    """Seed-independent invariants of a trace CSV; returns slots stepped.

    Dual runs keep the output inside its range (``|y| <= E3`` at every slot
    start; the quantization center is zero).  Ack-free runs infer every
    attack exactly; the encoder's range law is driven by the inferred
    outcomes and the decoder's by the true ones, so an exact inference is
    what keeps ``enc_equals_dec``.  Mismatch runs flag saturation only
    after ``attack_slot``.  Every run other than the mismatch demonstration
    (which stops once it has diverged) steps its whole horizon.
    """
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if not rows:
        raise CheckFailure("trace CSV has no rows")
    kind = doc["scenario"]
    if kind == "dual_channel":
        y_cols = [name for name in rows[0] if name.startswith("y_")]
        for row in rows:
            if row["saturated"] != "0":
                raise CheckFailure(f"dual run saturated at slot {row['q']}")
            if row["k"] == "0" and max(abs(float(row[c])) for c in y_cols) \
                    > float(row["E3"]):
                raise CheckFailure(f"|y| > E3 at slot {row['q']}")
    elif kind == "output_ackfree":
        for row in rows:
            if (row["inferred_attack"] == "1") != (row["outcome"] == "attacked"):
                raise CheckFailure(f"attack inference wrong at slot {row['q']}")
    elif kind == "mismatch_demo":
        for row in rows:
            if row["saturated"] != "0" and int(row["q"]) <= doc["attack_slot"]:
                raise CheckFailure(f"saturation flagged at slot {row['q']}, "
                                   f"before the attack")
    slots = int(rows[-1]["q"]) + 1
    if kind != "mismatch_demo" and slots != doc["horizon_slots"]:
        raise CheckFailure(f"run stopped after {slots} of "
                           f"{doc['horizon_slots']} slots")
    return slots


def check_dual_trace(trace, horizon: int) -> int:
    """The dual invariants on an in-memory trace; returns slots stepped."""
    slots = trace.slots
    if not (slots["y_err"] <= slots["e3"]).all():
        raise CheckFailure("y_err exceeds E3")
    worst = float(slots["deadbeat_residual"].max())
    if worst > DEADBEAT_TOL:
        raise CheckFailure(f"deadbeat residual {worst:.3e} > {DEADBEAT_TOL}")
    if trace.saturated.any():
        raise CheckFailure("dual run saturated")
    stepped = int(trace.q[-1]) + 1
    if stepped != horizon:
        raise CheckFailure(f"run stopped after {stepped} of {horizon} slots")
    return stepped


@contextlib.contextmanager
def quiet():
    """Swallow what the CLI prints; yields the captured stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        yield err


class Workload:
    name = ""
    in_process = True
    # A pass runs at least this many rounds: enough that the ten slowest
    # runs are all of the round's slowest kind, so run_ms_tail does not
    # jump between kinds of run as the number of rounds changes.
    min_rounds = 2

    def __init__(self, reference: Reference):
        self.reference = reference
        self.out = WORK / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.docs = {}

    def doc(self, stem: str) -> dict:
        if stem not in self.docs:
            self.docs[stem] = scenario_doc(stem)
        return self.docs[stem]

    def round(self, seed: int, r: int) -> list[Item]:
        raise NotImplementedError

    def pool(self) -> list[Item]:
        """Every item a round can hold."""
        raise NotImplementedError

    def setup(self) -> None:
        """What a fresh interpreter does before the first run can step."""
        raise NotImplementedError

    def execute(self, item: Item) -> tuple[float, int]:
        """Run ``item`` and check its outputs; returns (wall s, slots)."""
        raise NotImplementedError

    def attempt(self, item: Item) -> Attempt:
        start = perf_counter()
        try:
            wall, slots = self.execute(item)
        except Exception as exc:  # counted as a failed run, never dropped
            return Attempt(item, perf_counter() - start, 0,
                           f"{item.label}: {type(exc).__name__}: {exc}")
        return Attempt(item, wall, slots, None)

    # -- shared by the two workloads that drive the CLI ---------------------

    def cli_outputs(self, item: Item) -> list[Path]:
        doc = self.doc(item.scenario)
        outputs = doc.get("outputs", {})
        stem = item.scenario
        if item.command == "tradeoff":
            return [self.out / f"{stem}_tradeoff.csv"]
        report = self.out / outputs.get("report", f"{stem}_report.csv")
        if item.command == "check":
            return [report]
        return [report, self.out / outputs.get("trace", f"{stem}_trace.csv")]

    def check_cli_outputs(self, item: Item) -> int:
        paths = self.cli_outputs(item)
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            raise CheckFailure(f"missing output {', '.join(missing)}")
        if item.command == "tradeoff":
            self.reference.check(f"tradeoff/{item.scenario}",
                                 paths[0].read_bytes())
            return 0
        self.reference.check(f"report/{item.scenario}", paths[0].read_bytes())
        if item.command == "check":
            return 0
        data = paths[1].read_bytes()
        self.reference.check(trace_key(item), data)
        return check_trace_csv(self.doc(item.scenario), data)

    def cli_run_item(self, stem: str, rng: random.Random) -> Item:
        return Item("run", stem, rng.choice(DOS_SEEDS),
                    scenario_intensity(self.doc(stem)))

    def check_first(self, stem: str) -> None:
        with quiet() as err:
            code = doslab.cli.main(["check", str(SCENARIOS / f"{stem}.json"),
                                    "--out", str(self.out)])
        if code != 0:
            raise CheckFailure(f"check {stem} exited {code}: {err.getvalue()}")


@dataclass
class DualPrep:
    doc: dict
    gains: object
    report_csv: bytes

    def config(self, seed: int, intensity: float):
        doc = self.doc
        levels = doc["levels"]
        return doslab.SimConfig(
            plant=doslab.ContinuousPlant(**doc["plant"]),
            big_delta=doc["big_delta"],
            x0=doc["x0"],
            x0_bound=doc["x0_bound"],
            scenario=doslab.Scenario(doc["scenario"]),
            horizon_slots=doc["horizon_slots"],
            levels=(levels["n1"], levels["n2"], levels["n3"]),
            dos_params=doslab.DoSParams(**doc["dos"]["params"]),
            seed=seed,
            intensity=intensity,
            gains=self.gains,
            observer=doc.get("observer", "kalman"),
            oversample=doc.get("oversample", 1),
        )


def prepare_dual(stem: str) -> DualPrep:
    """Load a dual scenario and prepare its gain set and condition report.

    The same steps ``doslab run`` takes for the two shipped dual scenarios
    (synthesized deadbeat feedback; injected or deadbeat observer gain),
    through the library's public functions.
    """
    doc = doslab.cli.load_scenario(SCENARIOS / f"{stem}.json")
    gains_doc = doc.get("gains", "synthesize")
    if isinstance(gains_doc, dict) and "k" in gains_doc:
        raise ValueError(f"{stem}: injected feedback gains are not supported")
    dp = doslab.sample_plant(doslab.ContinuousPlant(**doc["plant"]),
                             doc["big_delta"])
    k = doslab.design_deadbeat_gain(dp)
    if isinstance(gains_doc, dict) and "m" in gains_doc:
        m, deadbeat_observer = gains_doc["m"], False
    elif doc.get("observer", "kalman") == "deadbeat":
        m, deadbeat_observer = doslab.design_deadbeat_observer(
            dp.a_lift, dp.c, dp.mu), True
    else:
        m, deadbeat_observer = doslab.design_observer_gain(dp.a_lift, dp.c), False
    gains = doslab.make_gain_set(dp, k, m, deadbeat_observer)
    levels = doc["levels"]
    params = doslab.DoSParams(**doc["dos"]["params"])
    report = doslab.build_report(
        doslab.ThetaVariant.DUAL, doslab.derive_decay_constants(gains, dp), dp,
        (levels["n1"], levels["n2"], levels["n3"]), params)
    rows = doslab.conditions.report_rows(report, params)
    report_csv = "name,value\n" + "".join(f"{n},{v}\n" for n, v in rows)
    return DualPrep(doc, gains, report_csv.encode())


class DualSweep(Workload):
    """Both dual scenarios, in process, across seeds and intensities."""

    name = "dual_sweep"

    def round(self, seed, r):
        rng = random.Random(f"{self.name}/{seed}/{r}")
        items = [Item("simulate", stem, rng.choice(DOS_SEEDS), intensity)
                 for stem in DUAL_SCENARIOS for intensity in INTENSITIES]
        rng.shuffle(items)
        return items

    def pool(self):
        return [Item("simulate", stem, seed, intensity)
                for stem in DUAL_SCENARIOS for intensity in INTENSITIES
                for seed in DOS_SEEDS]

    def setup(self):
        self.prepared = {stem: prepare_dual(stem) for stem in DUAL_SCENARIOS}

    def execute(self, item):
        prep = self.prepared[item.scenario]
        cfg = prep.config(item.seed, item.intensity)
        start = perf_counter()
        trace = doslab.run_scenario(cfg)
        wall = perf_counter() - start
        path = self.out / f"{item.scenario}_trace.csv"
        trace.to_csv(path)
        self.reference.check(trace_key(item), path.read_bytes())
        self.reference.check(f"report/{item.scenario}", prep.report_csv)
        return wall, check_dual_trace(trace, prep.doc["horizon_slots"])


class OutputPipeline(Workload):
    """``cli.main(["run", ...])`` in process, cycling the output schemes."""

    name = "output_pipeline"
    min_rounds = 11  # one mismatch run, the slowest, per round

    def round(self, seed, r):
        rng = random.Random(f"{self.name}/{seed}/{r}")
        return [self.cli_run_item(stem, rng) for stem in OUTPUT_SCENARIOS]

    def pool(self):
        return [Item("run", stem, seed, scenario_intensity(self.doc(stem)))
                for stem in OUTPUT_SCENARIOS for seed in DOS_SEEDS]

    def setup(self):
        self.check_first(OUTPUT_SCENARIOS[0])

    def execute(self, item):
        for path in self.cli_outputs(item):
            path.unlink(missing_ok=True)
        argv = item.argv(self.out)
        with quiet() as err:
            start = perf_counter()
            code = doslab.cli.main(argv)
            wall = perf_counter() - start
        if code != 0:
            raise CheckFailure(f"exit code {code}: {err.getvalue().strip()}")
        return wall, self.check_cli_outputs(item)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class CliCold(Workload):
    """Fresh ``python -m doslab.cli`` processes, one at a time."""

    name = "cli_cold"
    in_process = False
    min_rounds = 6  # two dual runs, the slowest, per round
    # In a traced pass, each child starts through child.py and leaves its
    # spans in this file.
    trace_dump: Path | None = None

    def round(self, seed, r):
        rng = random.Random(f"{self.name}/{seed}/{r}")
        return ([self.cli_run_item(stem, rng) for stem in ALL_SCENARIOS]
                + [Item("check", DUAL), Item("tradeoff", DUAL)])

    def pool(self):
        return ([Item("run", stem, seed, scenario_intensity(self.doc(stem)))
                 for stem in ALL_SCENARIOS for seed in DOS_SEEDS]
                + [Item("check", DUAL), Item("tradeoff", DUAL)])

    def setup(self):
        self.check_first(ALL_SCENARIOS[0])

    def execute(self, item):
        for path in self.cli_outputs(item):
            path.unlink(missing_ok=True)
        if self.trace_dump is None:
            cmd = [sys.executable, "-m", "doslab.cli"]
        else:
            cmd = [sys.executable, str(BENCH / "child.py"), "cli",
                   str(self.trace_dump), "--"]
        start = perf_counter()
        proc = subprocess.run(cmd + item.argv(self.out), env=child_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise CheckFailure(f"exit code {proc.returncode}: "
                               f"{proc.stderr.decode().strip()[-400:]}")
        return wall, self.check_cli_outputs(item)


WORKLOADS = {cls.name: cls for cls in (CliCold, DualSweep, OutputPipeline)}
