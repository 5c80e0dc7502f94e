"""Workloads of the hypharm benchmark and the checks on their outputs.

A workload is a list of steps that one fresh child process runs one after
another (one client, closed loop).  A step is either a CLI command, given
as the argv of `hypharm.cli.main` (JSON output is appended by the child),
or a direct call of a `hypharm.lemmas` sweep whose `SweepResult` is
encoded with `hypharm.report.results_bytes`.  Either way the child hands
back the decoded `results` payload, which the checks below inspect.

Every check holds for any seed: it compares against box sizes and facts
that do not depend on which moduli or pairs the seed picks.  The seed
reaches the program only as `--seed` of the seeded workloads.

This module is imported by the parent (which must stay light) and by the
child, so it imports nothing from hypharm.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

# Boxes are sized so that one run takes a few seconds: an invocation then
# holds about ten runs, and its medians ride out bursts of a slower CPU.
SEARCH_N = 1000
ETA_A_MAX, ETA_R_MAX = 40, 20
# Known outcome of the eta-band box above: the quadratic-form upper side
# fails 152 times, first at a=1, r=1 with value 2/5 against bound 3/8.
# (The a <= 100, r <= 50 acceptance grid fails 882 times the same way.)
ETA_BAND_UPPER_FAILURES = 152
PAIRS, PAIR_MAX_TOTAL = 250, 500
BERTRAND_N = 1_000_000
PRIME_WINDOW = (50, 2000)
LARGE_PRIME_WINDOW = (20, 1000)
LCM_BOX = (20, 20, 12)
POWER_SUMS_R = 2000
E11_BOX = (300, 30)
TELESCOPE_N = 10**4


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...] | None  # CLI command, or None for a direct call
    call: tuple | None  # (sweep function name, *arguments)
    exit_code: int
    check: Callable[[list], list[str]]  # results payload -> problems found


@dataclass(frozen=True)
class Workload:
    seeded: bool  # whether --seed changes the program's inputs
    steps: tuple[Step, ...]


def results_digest(results: list) -> str:
    """sha256 of the canonical result encoding (`report.results_bytes`)."""
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canonical).hexdigest()


def certified_units(results: list) -> int:
    """Windows screened (search) or instances checked (sweeps)."""
    return sum(r["interval_count"] if "interval_count" in r else r["checked"] for r in results)


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_search(n: int) -> Callable[[list], list[str]]:
    def check(results: list) -> list[str]:
        problems: list[str] = []
        if len(results) != 1:
            return [f"expected one search record, got {len(results)}"]
        (record,) = results
        _expect(problems, record["interval_count"] == n * (n + 1) // 2,
                f"interval_count {record['interval_count']} != N(N+1)/2")
        _expect(problems, record["exact_collision_pairs"] == [],
                f"exact collisions reported: {record['exact_collision_pairs'][:3]}")
        moduli = record["moduli"]
        _expect(problems, len(set(moduli)) == 3 and all(p > n for p in moduli),
                f"bad screening moduli {moduli}")
        return problems

    return check


def _check_sweeps(*expected: tuple[str, int, int]) -> Callable[[list], list[str]]:
    """Sweep records with (claim, checked, failure_count) in this order."""

    def check(results: list) -> list[str]:
        if len(results) != len(expected):
            return [f"expected {len(expected)} sweep records, got {len(results)}"]
        problems: list[str] = []
        for record, (claim, checked, failures) in zip(results, expected):
            # CLI records carry failure_count and holds; a bare SweepResult
            # (the direct telescope call) only its failures list.
            count = record.get("failure_count", len(record["failures"]))
            got = (record["claim"], record["checked"], count)
            _expect(problems, got == (claim, checked, failures),
                    f"sweep {got} != expected {(claim, checked, failures)}")
            _expect(problems, record.get("holds", count == 0) == (failures == 0),
                    f"sweep {claim} holds={record.get('holds')} with {failures} expected failures")
        return problems

    return check


def _check_eta_band(results: list) -> list[str]:
    box = ETA_A_MAX * (ETA_R_MAX + 1)
    problems = _check_sweeps(
        ("eta-enclosure", box, 0), ("eta-band", box, ETA_BAND_UPPER_FAILURES)
    )(results)
    if problems:
        return problems
    failures = results[1]["failures"]
    first = failures[0]
    _expect(problems, (first["a"], first["r"], first["expr_exact"], first["expr_bound"])
            == (1, 1, "2/5", "3/8"), f"first band failure is {first}")
    _expect(problems, all(
        f["q_lower"] and f["q_upper"] and f["expr_lower"] and not f["expr_upper"]
        for f in failures
    ), "a band failure is not on the quadratic-form upper side")
    return problems


def _check_large_prime_window(results: list) -> list[str]:
    k_max, n_span = LARGE_PRIME_WINDOW
    problems = _check_sweeps(("large-prime-window", k_max * (n_span + 1), 1))(results)
    if not problems:
        _expect(problems, results[0]["failures"] == [{"n": 8, "k": 1}],
                f"large-prime-window failures {results[0]['failures']} != [n=8, k=1]")
    return problems


def _check_e11(results: list) -> list[str]:
    if len(results) != 1:
        return [f"expected one e11 record, got {len(results)}"]
    (record,) = results
    solutions = record["notes"]["solutions"]
    problems: list[str] = []
    _expect(problems, record["claim"] == "e11-search" and record["failure_count"] == 0,
            f"e11-search reported {record['failure_count']} failures")
    _expect(problems, record["checked"] == len(solutions) > 0,
            f"e11-search checked {record['checked']} of {len(solutions)} solutions")
    return problems


def _cli(*argv: object, exit_code: int = 0, check) -> Step:
    return Step(tuple(str(a) for a in argv), None, exit_code, check)


def build(name: str, seed: int) -> Workload:
    """The workload `name`; `seed` feeds --seed where the workload is seeded."""
    if name == "search-n1000":
        steps = tuple(
            _cli("search", "--max-n", SEARCH_N, "--exponent", exponent, "--seed", seed,
                 check=_check_search(SEARCH_N))
            for exponent in (2, 1)
        )
        return Workload(True, steps)
    if name == "eta-grid":
        step = _cli("verify", "--lemma", "eta-band", "--a-max", ETA_A_MAX,
                    "--r-max", ETA_R_MAX, "--precision-bits", 64,
                    exit_code=1, check=_check_eta_band)
        return Workload(False, (step,))
    if name == "lemma-mix":
        a_max, b_max, n_max = LCM_BOX
        coprime = sum(math.gcd(a, b) == 1 for a in range(1, a_max + 1) for b in range(1, b_max + 1))
        k_max, n_span = PRIME_WINDOW
        box = ("--pairs", PAIRS, "--max-total", PAIR_MAX_TOTAL, "--seed", seed)
        return Workload(True, (
            _cli("verify", "--lemma", "bracket-identity", *box,
                 check=_check_sweeps(("bracket-identity", PAIRS, 0))),
            _cli("verify", "--lemma", "decompose", *box,
                 check=_check_sweeps(("decompose", PAIRS, 0))),
            _cli("verify", "--lemma", "bertrand", "--n-max", BERTRAND_N,
                 check=_check_sweeps(("bertrand", BERTRAND_N, 0),
                                     ("bertrand-remark", BERTRAND_N - 1, 0))),
            _cli("verify", "--lemma", "prime-window", "--k-max", k_max, "--n-span", n_span,
                 check=_check_sweeps(("prime-window", k_max * n_span, 0))),
            _cli("verify", "--lemma", "large-prime-window", "--k-max", LARGE_PRIME_WINDOW[0],
                 "--n-span", LARGE_PRIME_WINDOW[1], exit_code=1, check=_check_large_prime_window),
            _cli("verify", "--lemma", "lcm-bound", "--a-max", a_max, "--b-max", b_max,
                 "--n-max", n_max, check=_check_sweeps(("lcm-bound", coprime * (n_max + 1), 0))),
            _cli("verify", "--lemma", "power-sums", "--r-max", POWER_SUMS_R,
                 check=_check_sweeps(("power-sums", 3 * POWER_SUMS_R, 0))),
            _cli("verify", "--lemma", "e11-search", "--a-max", E11_BOX[0], "--w-max", E11_BOX[1],
                 check=_check_e11),
            Step(None, ("sweep_telescope", TELESCOPE_N), 0,
                 _check_sweeps(("telescope", TELESCOPE_N, 0))),
        ))
    raise KeyError(name)


NAMES = ("search-n1000", "eta-grid", "lemma-mix")
