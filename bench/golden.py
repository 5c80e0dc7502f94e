"""Record the results digests that run.py compares every run against.

Usage (from the repository root): python3 bench/golden.py

Runs each workload once in a child, for seeds 0-31 where the seed changes
the inputs and once where it does not, and writes the sha256 of every
step's results payload (`hypharm.report.results_bytes`) to
bench/golden.json.  Run it only at a commit whose results are known to be
right: the file pins the byte-identical results contract for later
changes.
"""

import json
import sys
import time

import run
import workloads

SEEDS = range(32)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    golden = {}
    for name in workloads.NAMES:
        seeded = workloads.build(name, 0).seeded
        golden[name] = {}
        for seed in SEEDS if seeded else [0]:
            sample = run.run_child(name, seed, "plain", time.monotonic() + run.HARD_LIMIT_S)
            stale = [p for p in sample["problems"] if "golden.json" not in p]
            if stale:
                print("\n".join(stale), file=sys.stderr)
                return 1
            digests = [workloads.results_digest(step["results"]) for step in sample["steps"]]
            golden[name][str(seed) if seeded else "*"] = digests
            print(f"{name} seed {seed if seeded else '*'}: {len(digests)} digests", flush=True)
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
