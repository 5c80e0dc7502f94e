"""Repeat the benchmark over seeds and report the spread of each metric.

Usage (from the repository root):

    python3 bench/steady.py --seeds 1-10 [--trace] [--out FILE] [--compare FILE]

Runs `bench/run.py` once per seed and workload (round robin, so slow
spells of the machine hit every workload alike) for BENCHMARK.json's
run_seconds, then prints for each end-to-end metric the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median next to the metric's bound; WIDE marks a spread above
a third of its bound.  --trace adds one traced run per workload at the
first seed.  --out writes all of it, with the machine, as JSON
(bench/baseline.json is such a file).
--compare FILE marks each median that is worse than FILE's by more than
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run
import workloads


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(name: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worse_by(metric: dict, new: float, old: float) -> float:
    change = (new - old) / old if old else 0.0
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = workloads.NAMES
    seconds = spec["run_seconds"]

    results: dict[str, list[dict]] = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            started = time.monotonic()
            result = bench(name, seed, seconds, 0)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed, "
                  f"{time.monotonic() - started:.1f} s", flush=True)
            results[name].append(result)

    baseline = json.loads(open(args.compare).read()) if args.compare else None
    report = {"machine": run.machine(), "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in names:
        failed = sum(r["failed"] for r in results[name])
        attempted = sum(r["attempted"] for r in results[name])
        entry = {"failed_frac": failed / attempted, "attempted": attempted, "end_to_end": {}}
        print(f"\n{name}: failed_frac {failed}/{attempted}")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            stats = summarize([r["metrics"][key]["value"] for r in results[name]])
            entry["end_to_end"][key] = stats
            within = stats["spread"] <= metric["bound"] / 3
            steady &= within
            line = (f"  {key:16} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                    f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                    f"(bound {metric['bound']}){'' if within else '  WIDE'}")
            if baseline and name in baseline["workloads"]:
                old = baseline["workloads"][name]["end_to_end"][key]["median"]
                change = worse_by(metric, stats["median"], old)
                line += f"  vs {old:.6g}: {'worse' if change > 0 else 'better'} by {abs(change):.4f}"
                line += "  BEYOND BOUND" if change > metric["bound"] else ""
            print(line)
        if args.trace:
            entry["per_layer"] = {k: v["value"] for k, v in bench(name, args.seeds[0], seconds, 1)["metrics"].items()}
        report["workloads"][name] = entry
    print(f"\nevery spread within a third of its bound: {steady}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
