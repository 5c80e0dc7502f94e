"""Every library name the benchmark reaches must still resolve.

The benchmark's tracer wraps library functions by (module, attribute) and
its child process calls a few more directly, so a deletion in the library
would only show up as a failed traced benchmark run.  These tests read the
benchmark's sources as text, changing nothing there, and resolve each name.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from hypharm.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _parse(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text())


def _assigned(tree: ast.Module, target: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return node.value
    raise AssertionError(f"no top-level assignment to {target}")


def _strings(node: ast.AST) -> list[str] | None:
    """The values of a tuple of string literals, else None."""
    if isinstance(node, ast.Tuple) and all(
        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
    ):
        return [e.value for e in node.elts]
    return None


def _module_attributes(tree: ast.Module) -> set[tuple[str, str]]:
    """Attributes read off a hypharm module bound to a local name.

    The name is bound by `import hypharm.X as Y`, `from hypharm.X import Y`
    or `Y = sys.modules["hypharm.X"]`; a from-import counts as a read.
    """
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hypharm.") and alias.asname:
                    aliases[alias.asname] = alias.name.removeprefix("hypharm.")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hypharm."):
            names |= {(node.module.removeprefix("hypharm."), a.name) for a in node.names}
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.slice, ast.Constant)
            and str(node.value.slice.value).startswith("hypharm.")
        ):
            for target in node.targets:
                aliases[target.id] = node.value.slice.value.removeprefix("hypharm.")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            names.add((aliases[node.value.id], node.attr))
    return names


def traced_names() -> set[tuple[str, str]]:
    """(module, attribute) for every WRAPPED entry, every SWEEPS name and
    every other module attribute the tracer reads."""
    tree = _parse("tracing.py")
    sweeps = ast.literal_eval(_assigned(tree, "SWEEPS"))
    wrapped = [
        strings[1:]
        for node in ast.walk(_assigned(tree, "WRAPPED"))
        if (strings := _strings(node)) is not None and len(strings) == 3
    ]
    assert len(sweeps) >= 11 and len(wrapped) >= 16, (sweeps, wrapped)
    return (
        {tuple(w) for w in wrapped}
        | {("lemmas", name) for name in sweeps}
        | _module_attributes(tree)
    )


def called_names() -> set[tuple[str, str]]:
    """Sweeps the workloads call directly, and attributes the child reads."""
    names = set()
    for node in ast.walk(_parse("workloads.py")):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "Step"
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value is None
        ):
            names.add(("lemmas", node.args[1].elts[0].value))
    return names | _module_attributes(_parse("child.py"))


def test_bench_names_are_found():
    traced, called = traced_names(), called_names()
    assert {("sums", "epsilon"), ("sums", "telescope_check"), ("sums", "solve_eta")} <= traced
    assert {("kernel", "PrimeSieve"), ("search", "window_power_sum")} <= traced
    assert ("lemmas", "sweep_telescope") in called
    assert {("cli", "main"), ("report", "results_bytes")} <= called


def test_every_name_the_bench_uses_resolves():
    missing = [
        f"hypharm.{module}.{attribute}"
        for module, attribute in sorted(traced_names() | called_names())
        if not hasattr(importlib.import_module(f"hypharm.{module}"), attribute)
    ]
    assert not missing, missing


def test_every_bench_command_line_parses(monkeypatch):
    # executed from its source text, so no bytecode is written under bench/;
    # its dataclasses look their module up in sys.modules
    path = BENCH / "workloads.py"
    workloads = types.ModuleType("workloads")
    monkeypatch.setitem(sys.modules, workloads.__name__, workloads)
    exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
    steps = [step for name in workloads.NAMES for step in workloads.build(name, 0).steps]
    argvs = [list(step.argv) for step in steps if step.argv is not None]
    assert len(argvs) >= 10, argvs
    for argv in argvs:
        build_parser().parse_args(argv + ["--format", "json"])


_TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import hypharm.cli as cli
import hypharm.lemmas as lemmas
import hypharm.report as report
import tracing

tracer = tracing.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["search", "--max-n", "30", "--format", "json"]) == 0
    verify = ["verify", "--lemma", "eta-band", "--a-max", "2", "--r-max", "1", "--format", "json"]
    assert cli.main(verify) == 1  # the quadratic band fails at a=1, r=1
lemmas.sweep_telescope(10)
print(json.dumps(tracer.layer_metrics()))
"""


def test_traced_mode_reports_every_per_layer_metric(tmp_path):
    # The benchmark's traced mode, in a fresh interpreter that imports
    # hypharm as its child does and writes no bytecode under bench/.
    probe = _TRACED_RUN.format(src=str(ROOT / "src"), bench=str(BENCH))
    env = os.environ | {"PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the child adds the trace's own wall and overhead times
    assert set(metrics) | {"trace.wall_s", "trace.overhead_s"} == {m["name"] for m in declared}
    assert metrics["search.windows"] == 30 * 31 // 2
    assert metrics["sums.eta_band_report.calls"] == 2 * 2
    assert metrics["lemmas.sweep_telescope.checked"] == 10
    assert metrics["cli.main.s"] > 0
