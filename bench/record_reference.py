"""Record reference.json: the sha256 of every output file any benchmark run
can write, over the whole pool of per-run DoS seeds.

    python3 bench/record_reference.py

Run it only on a commit whose outputs are the accepted ones; the benchmark
then holds every later commit to the same bytes.  Outputs that two
workloads share (a CLI ``run`` and a ``run_scenario`` call of the same
scenario, seed and intensity) must agree, or recording stops.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = workloads.Reference({}, record=True)
    for name, cls in sorted(workloads.WORKLOADS.items()):
        wl = cls(reference)
        wl.setup()
        items = wl.pool()
        for item in items:
            attempt = wl.attempt(item)
            if attempt.error is not None:
                print(f"record_reference: {attempt.error}", file=sys.stderr)
                return 1
        print(f"{name}: {len(items)} runs recorded")
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"sha256": dict(sorted(reference.table.items()))}, fh,
                  indent=1)
        fh.write("\n")
    print(f"{len(reference.table)} hashes written to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
