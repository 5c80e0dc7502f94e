"""Per-layer tracing of hypharm from outside its source.

`Tracer.install` replaces public functions of hypharm.kernel, sums,
search, lemmas, report and cli with timing wrappers, in every hypharm
namespace that bound them (so `hypharm.lemmas.solve_eta` is traced like
`hypharm.sums.solve_eta`).  Each call records a span (name, start, end,
parent, precision argument) in memory; `layer_metrics` reduces the spans
and a few result counters to the per-layer metrics, and `dump` writes the
spans out after the timed work.

What cannot be seen from here: the fill, unique and grouping phases of
`search.search` are one self time, and the bisection steps inside
`solve_eta` are not calls.  The `Enclosure` operators are not wrapped,
because the wrapper would cost more than the operation.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

# Sweeps the workloads run; each gets .s, .checked and .failures.
SWEEPS = (
    "sweep_bertrand",
    "sweep_prime_window",
    "sweep_large_prime_window",
    "sweep_lcm_bound",
    "sweep_power_sums",
    "sweep_eta_enclosures",
    "sweep_eta_band",
    "sweep_bracket_identity",
    "sweep_decompose",
    "sweep_e11_box",
    "sweep_telescope",
)

# (span name, module, attribute); the span name doubles as metric prefix.
WRAPPED = (
    ("kernel.sqrt_enclosure", "kernel", "sqrt_enclosure"),
    ("kernel.miller_rabin", "kernel", "miller_rabin"),
    ("kernel.lcm_progression", "kernel", "lcm_progression"),
    ("sums.solve_eta", "sums", "solve_eta"),
    ("sums.eta_band_report", "sums", "eta_band_report"),
    ("sums.epsilon", "sums", "epsilon"),
    ("sums.g_exact", "sums", "g_exact"),
    ("sums.telescope_check", "sums", "telescope_check"),
    ("search.search", "search", "search"),
    ("search.prefix_residues", "search", "prefix_residues"),
    ("search.select_moduli", "search", "select_moduli"),
    ("lemmas.check_bracket_identity", "lemmas", "check_bracket_identity"),
    ("lemmas.taylor_decompose", "lemmas", "taylor_decompose"),
    ("lemmas.search_necessary_identity", "lemmas", "search_necessary_identity"),
    ("report.render", "report", "render"),
    ("cli.main", "cli", "main"),
) + tuple((f"lemmas.{name}", "lemmas", name) for name in SWEEPS)

_NAME, _START, _END, _PARENT, _BITS, _ASKED = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._windows: set = set()
        self._local = threading.local()

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper for `fn`; `after(args, kwargs, result)` counts results."""
        spans, local, clock = self.spans, self._local, time.perf_counter
        params = list(inspect.signature(fn).parameters.values())
        names = [p.name for p in params]
        if "precision_bits" in names:
            bits_at = names.index("precision_bits")
            bits_default = params[bits_at].default
        else:
            bits_at = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if bits_at is None:
                bits = None
            elif len(args) > bits_at:
                bits = args[bits_at]
            else:
                bits = kwargs.get("precision_bits", bits_default)
            parent = stack[-1] if stack else -1
            inherited = spans[parent][_ASKED] if parent >= 0 else None
            span = [name, clock(), None, parent, bits, bits if inherited is None else inherited]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every hypharm namespace holding it."""
        import hypharm.cli  # noqa: F401  (imports every traced module)
        from hypharm.kernel import PrimeSieve

        modules = [m for n, m in sys.modules.items() if n == "hypharm" or n.startswith("hypharm.")]
        hooks = {"search.search": self._count_search, "report.render": self._count_render,
                 "sums.g_exact": self._count_window}
        hooks.update({f"lemmas.{name}": self._count_sweep(name) for name in SWEEPS})
        for span_name, module, attribute in WRAPPED:
            original = getattr(sys.modules[f"hypharm.{module}"], attribute)
            wrapper = self.wrap(span_name, original, hooks.get(span_name))
            for namespace in modules:
                for key in [k for k, v in vars(namespace).items() if v is original]:
                    setattr(namespace, key, wrapper)
        # Only the search's exact confirmations: g_exact also sums windows.
        search_module = sys.modules["hypharm.search"]
        search_module.window_power_sum = self.wrap("search.confirm", search_module.window_power_sum)
        PrimeSieve.__init__ = self.wrap("kernel.PrimeSieve.init", PrimeSieve.__init__)

    def _count_search(self, args, kwargs, report) -> None:
        self.counters["search.windows"] += report.interval_count
        self.counters["search.screen_pairs"] += len(report.screen_collision_pairs)
        self.counters["search.exact_pairs"] += len(report.exact_collision_pairs)

    def _count_render(self, args, kwargs, text) -> None:
        self.counters["report.output_bytes"] += len(text.encode())

    def _count_window(self, args, kwargs, result) -> None:
        self._windows.add(args[0] if args else kwargs["interval"])

    def _count_sweep(self, name: str):
        def count(args, kwargs, sweep) -> None:
            self.counters[f"lemmas.{name}.checked"] += sweep.checked
            self.counters[f"lemmas.{name}.failures"] += len(sweep.failures)

        return count

    def _span_stats(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name.

        `s` sums only the outermost span of a name, so recursion is not
        counted twice; `self_s` is a span's duration minus the part of it
        its direct children cover.
        """
        spans = self.spans
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in spans:
            if span[_PARENT] >= 0:
                children[span[_PARENT]].append((span[_START], span[_END]))
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, span in enumerate(spans):
            name, duration = span[_NAME], span[_END] - span[_START]
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += duration - _covered(children.get(index, ()))
            ancestor = span[_PARENT]
            while ancestor >= 0 and spans[ancestor][_NAME] != name:
                ancestor = spans[ancestor][_PARENT]
            if ancestor < 0:
                entry["s"] += duration
        return stats

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric, 0 for layers the workload did not call."""
        stats, counters, spans = self._span_stats(), self.counters, self.spans
        metrics: dict[str, float] = {}

        def take(prefix: str, *fields: str) -> None:
            for field in fields:
                metrics[f"{prefix}.{field}"] = stats[prefix][field]

        def escalated(name: str) -> int:
            return sum(1 for s in spans if s[_NAME] == name and s[_BITS] > s[_ASKED])

        take("search.search", "s", "self_s")
        take("search.prefix_residues", "s")
        take("search.select_moduli", "s")
        for counter in ("windows", "screen_pairs", "exact_pairs"):
            metrics[f"search.{counter}"] = counters[f"search.{counter}"]
        take("search.confirm", "calls")
        screened = counters["search.screen_pairs"]
        metrics["search.confirm_yield"] = counters["search.exact_pairs"] / screened if screened else 0

        take("sums.solve_eta", "calls", "s", "self_s")
        metrics["sums.solve_eta.escalations"] = escalated("sums.solve_eta")
        take("sums.eta_band_report", "calls", "s", "self_s")
        take("sums.epsilon", "calls", "s")
        metrics["sums.epsilon.max_bits"] = max(
            (s[_BITS] for s in spans
             if s[_NAME] == "kernel.sqrt_enclosure" and s[_PARENT] >= 0
             and spans[s[_PARENT]][_NAME] == "sums.epsilon"),
            default=0,
        )
        take("sums.g_exact", "calls", "s")
        windows = len(self._windows)
        metrics["sums.g_exact.per_window"] = stats["sums.g_exact"]["calls"] / windows if windows else 0
        take("sums.telescope_check", "calls", "s")

        take("kernel.sqrt_enclosure", "calls", "s")
        take("kernel.miller_rabin", "calls", "s")
        metrics["kernel.PrimeSieve.init_s"] = stats["kernel.PrimeSieve.init"]["s"]
        take("kernel.lcm_progression", "calls", "s")

        for name in SWEEPS:
            take(f"lemmas.{name}", "s")
            metrics[f"lemmas.{name}.checked"] = counters[f"lemmas.{name}.checked"]
            metrics[f"lemmas.{name}.failures"] = counters[f"lemmas.{name}.failures"]
        take("lemmas.check_bracket_identity", "calls", "s", "self_s")
        # Calls whose ladder ran a solve_eta above the precision asked for.
        metrics["lemmas.check_bracket_identity.escalations"] = len({
            s[_PARENT] for s in spans
            if s[_NAME] == "sums.solve_eta" and s[_PARENT] >= 0 and s[_BITS] > s[_ASKED]
            and spans[s[_PARENT]][_NAME] == "lemmas.check_bracket_identity"
        })
        take("lemmas.taylor_decompose", "calls", "s")
        take("lemmas.search_necessary_identity", "s")

        take("report.render", "s")
        metrics["report.output_bytes"] = counters["report.output_bytes"]
        take("cli.main", "s")
        metrics["cli.overhead_s"] = stats["cli.main"]["self_s"]
        metrics["trace.spans"] = len(spans)
        return metrics

    def dump(self, path) -> None:
        """Write the spans as JSON lines: id, name, start, end, parent, bits."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, s in enumerate(self.spans):
                record = [index, s[_NAME], s[_START] - origin, s[_END] - origin, s[_PARENT], s[_BITS]]
                handle.write(json.dumps(record) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
