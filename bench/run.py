"""hypharm benchmark: certified-run time, CPU and memory of CLI workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload again and again, each time in a fresh child process
(bench/child.py) that imports hypharm from src/ and calls
`hypharm.cli.main`, until the next run would end after S seconds.  A
child that only imports hypharm goes first, untimed: it fills the file
cache and writes src/'s bytecode.  Every run's output is checked
(workloads.py), and its results payload is compared byte for byte with
bench/golden.json where a digest is recorded for this seed (a '#' line
says so where none is).  The last line printed is one JSON object:

    {"correct": ..., "attempted": workload runs, "failed": workload runs, "metrics": {...}}

`correct` is false if any workload run failed.  With --trace 0 the
metrics are the end-to-end ones, medians over the untraced runs.  With
--trace 1 the runs alternate untraced and traced, and the metrics are
the per-layer ones (tracing.py), medians over the traced runs, plus the
tracing overhead: the median of traced minus untraced wall_s over
adjacent pairs of runs.  Metric names
and units come from BENCHMARK.json.  Lines before the last start with '#'
and give the machine, the sample counts and failed_frac = failed /
attempted.

This process imports neither numpy nor hypharm, so that its own memory
stays small: a child's ru_maxrss can include its parent's resident set
at the moment of the fork.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says


def machine() -> dict:
    """Where the numbers were taken."""
    try:
        sha = subprocess.run(  # the checkout's own repository only, if it is one
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    mem_total_kb = None
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_total_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "mem_total_kb": mem_total_kb,
        "hypharm_threads_set": "HYPHARM_THREADS" in os.environ,
    }


def run_child(name: str, seed: int, mode: str, deadline: float) -> dict:
    """One fresh child (mode plain or traced); rusage from os.wait4 on it."""
    result_path = OUT / f"child-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env.pop("HYPHARM_THREADS", None)  # measure the default worker count
    command = [sys.executable, str(BENCH / "child.py"), name, str(seed), mode, str(result_path)]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"peak_rss_mb": usage.ru_maxrss / 1024, "problems": []}
    if proc.returncode != 0 or not result_path.exists():
        sample["problems"].append(f"child exited with {proc.returncode}")
        return sample
    child = json.loads(result_path.read_text())
    result_path.unlink()
    sample.update(child)
    sample["problems"] += check(name, seed, child)
    return sample


def golden_digests(name: str, seed: int) -> list[str] | None:
    """The recorded results digests of the workload at this seed, if any."""
    golden = json.loads((BENCH / "golden.json").read_text()).get(name, {})
    return golden.get(str(seed) if workloads.build(name, seed).seeded else "*")


def check(name: str, seed: int, child: dict) -> list[str]:
    """Problems with one child's outputs: errors, exit codes, content, bytes."""
    if child["error"]:
        return [child["error"]]
    workload = workloads.build(name, seed)
    if len(child["steps"]) != len(workload.steps):
        return [f"{len(child['steps'])} of {len(workload.steps)} steps ran"]
    digests = golden_digests(name, seed)
    problems = []
    for index, (step, out) in enumerate(zip(workload.steps, child["steps"])):
        label = " ".join(step.argv) if step.argv else f"{step.call[0]}{step.call[1:]}"
        if out["exit"] != step.exit_code:
            problems.append(f"{label}: exit {out['exit']}, expected {step.exit_code}")
        if out["results"] is None:
            problems.append(f"{label}: no results payload")
            continue
        problems += [f"{label}: {p}" for p in step.check(out["results"])]
        if digests is not None and workloads.results_digest(out["results"]) != digests[index]:
            problems.append(f"{label}: results payload differs from bench/golden.json")
    return problems


def run(name: str, seed: int, seconds: float, traced: bool) -> dict[str, list[dict]]:
    """Samples by mode; a new workload run starts only if it should fit."""
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    subprocess.run([sys.executable, str(BENCH / "child.py"), name, str(seed), "warm-up", os.devnull],
                   cwd=ROOT, stdout=subprocess.DEVNULL, timeout=60)
    samples: dict[str, list[dict]] = {"plain": [], "traced": []}
    started = time.monotonic()
    last: dict[str, float] = {}
    mode = "plain"
    while True:
        t0 = time.monotonic()
        samples[mode].append(run_child(name, seed, mode, hard_deadline))
        last[mode] = time.monotonic() - t0
        if traced:
            mode = "traced" if mode == "plain" else "plain"
        if mode in last and time.monotonic() + last[mode] > started + seconds:
            return samples


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(samples: list[dict]) -> dict[str, float]:
    return {
        "setup_s": _median(samples, "setup_s"),
        "wall_s": _median(samples, "wall_s"),
        "cpu_s": _median(samples, "cpu_s"),
        "peak_rss_mb": _median(samples, "peak_rss_mb"),
        "certified_per_s": statistics.median(
            sum(workloads.certified_units(step["results"]) for step in s["steps"]) / s["wall_s"]
            for s in samples
        ),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    """Medians over the traced runs of (untraced, traced) run pairs."""
    traced = [t for _, t in pairs]
    layers = {key: statistics.median(s["layers"][key] for s in traced) for key in traced[0]["layers"]}
    layers["trace.wall_s"] = _median(traced, "wall_s")
    # Adjacent runs, so that the machine's drift over minutes mostly cancels.
    layers["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hypharm" / "__init__.py").is_file():
        print(f"run.py: no hypharm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    samples = run(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = samples["plain"] + samples["traced"]
    failed = sum(1 for s in attempted if s["problems"])
    good = {mode: [s for s in runs if not s["problems"]] for mode, runs in samples.items()}
    pairs = [(p, t) for p, t in zip(samples["plain"], samples["traced"])
             if not p["problems"] and not t["problems"]]
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    if golden_digests(args.workload, args.seed) is None:
        print(f"# no golden digest for seed {args.seed}: results bytes not checked")
    for s in attempted:
        for problem in s["problems"]:
            print(f"# FAILED: {problem}".replace("\n", "\n# "))
    if not good["plain"] or (args.trace and not pairs):
        print("run.py: no run of the workload succeeded", file=sys.stderr)
        return 1
    if args.trace:
        measured = per_layer(pairs)
    else:
        measured = end_to_end(good["plain"])
    if set(measured) != {m["name"] for m in wanted}:
        print(f"run.py: metrics {sorted(set(measured) ^ {m['name'] for m in wanted})} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed={args.seed}: {len(samples['plain'])} untraced + "
          f"{len(samples['traced'])} traced runs, "
          f"failed_frac = {failed}/{len(attempted)} = {failed / len(attempted):.3g}")
    for m in wanted:
        print(f"# {m['name']} = {measured[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
