"""Child-process entry points of the benchmark.

``python3 bench/child.py setup <workload>``
    A set-up probe: in this fresh interpreter, import ``doslab.cli`` and do
    the workload's set-up, then print ``ready``.  The parent times the
    interval from spawning the process to reading that line.

``python3 bench/child.py cli <dump.json> -- <doslab arguments>``
    A traced ``python -m doslab.cli``: time the import of ``doslab.cli``,
    trace ``doslab.cli.main``, write the spans to ``<dump.json>`` and exit
    with the CLI's exit code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def setup_probe(workload: str) -> int:
    import workloads

    workloads.WORKLOADS[workload](reference=None).setup()
    print("ready", flush=True)
    return 0


def traced_cli(dump: str, argv: list[str]) -> int:
    start = perf_counter()
    import doslab.cli
    import_ms = (perf_counter() - start) * 1e3

    from tracer import Tracer

    tracer = Tracer()
    tracer.import_ms.append(import_ms)
    try:
        with tracer.installed():
            return doslab.cli.main(argv)
    finally:
        with open(dump, "w") as fh:
            json.dump(tracer.dump(), fh)


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        return setup_probe(argv[1])
    if argv[:1] == ["cli"] and argv[2:3] == ["--"]:
        return traced_cli(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
