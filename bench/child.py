"""One run of one workload, in a fresh process started by run.py.

Usage: child.py WORKLOAD SEED MODE RESULT_PATH

Imports hypharm from the checkout's src/, runs the workload's steps one
after another through `hypharm.cli.main` (output captured as JSON), and
writes a JSON result to RESULT_PATH: set-up time, wall and CPU time of the
steps, and each step's exit code and decoded results payload.  MODE is
`plain`, `traced` (adds the per-layer metrics and writes the spans beside
RESULT_PATH) or `warm-up` (stops after the import and writes nothing).
"""

import time

_STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_step(step, cli, lemmas, report) -> tuple[object, str | None, float]:
    """(exit code, output text, seconds) of one step."""
    buffer = io.StringIO()
    started = time.perf_counter()
    if step.argv is not None:
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(step.argv) + ["--format", "json"])
        except SystemExit as exc:  # argparse rejects a command this way
            code = exc.code
        seconds = time.perf_counter() - started
        return code, buffer.getvalue(), seconds
    name, *arguments = step.call
    sweep = getattr(lemmas, name)(*arguments)
    seconds = time.perf_counter() - started
    return 0, '{"results": ' + report.results_bytes([sweep]).decode() + "}", seconds


def main(argv: list[str]) -> int:
    workload_name, seed, mode, result_path = argv[1], int(argv[2]), argv[3], Path(argv[4])
    root = Path(__file__).resolve().parent.parent
    source = root / "src"
    sys.path.insert(0, str(source))
    import hypharm.cli as cli
    import hypharm.lemmas as lemmas
    import hypharm.report as report

    setup_s = time.perf_counter() - _STARTED
    if not Path(cli.__file__).resolve().is_relative_to(source.resolve()):
        print(f"child: hypharm imported from {cli.__file__}, not {source}", file=sys.stderr)
        return 2
    if mode == "warm-up":
        return 0

    import workloads

    workload = workloads.build(workload_name, seed)
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()  # rebinds the functions inside the modules used below

    steps, wall_s, error = [], 0.0, None
    cpu_start = _cpu_s()
    for step in workload.steps:
        try:
            code, text, seconds = _run_step(step, cli, lemmas, report)
        except Exception:
            error = traceback.format_exc()
            break
        wall_s += seconds
        steps.append({"exit": code, "text": text, "wall_s": seconds})
    cpu_s = _cpu_s() - cpu_start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "error": error,
        "steps": [],
    }
    for step in steps:
        try:
            results = json.loads(step["text"])["results"]
        except (ValueError, KeyError, TypeError):
            results = None
        result["steps"].append({"exit": step["exit"], "wall_s": step["wall_s"], "results": results})
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(result_path.parent / f"spans-{workload_name}.jsonl")
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
