"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

All tolerances are pinned here exactly as stated; nothing is relaxed.
Two supporting claims are false as stated.  Their checks pass exactly
when the library reports the true counterexample set over the swept box,
as recomputed by an independent oracle in ``oracles``, and fail if a
counterexample is lost or invented:

* criterion 3, large-prime-window part: over k <= 20 and a span of 1000
  the only window {n, ..., n+k} with n >= (k+1)^2 and no element having a
  prime factor >= 2(k+1) is {8, 9} (k=1, n=8), since 8 = 2^3 and 9 = 3^2;
  the oracle is plain trial division;
* criterion 4, quadratic-form band part: on the grid a <= 100,
  0 <= r <= 50 the lower side of
  |(4a+2r)(1-2*eta) - 1 + (1-2*eta)^2| < (2r+1)/(4(a+r)) holds everywhere
  and the upper side fails at 882 points, all with a <= r, first at a=1,
  r=1 (value 2/5, bound 3/8); the oracle evaluates the expression exactly
  from a left-fold window sum, and that route is checked against plain
  bisection for eta at the edge of the failure region.

Everything else is certified exactly at the stated scale.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hypharm.kernel import Verdict
from hypharm.lemmas import (
    check_bracket_identity,
    check_positivity_chain,
    check_necessary_identity,
    random_disjoint_pairs,
    search_necessary_identity,
    sweep_bertrand,
    sweep_eta_band,
    sweep_large_prime_window,
    sweep_lcm_bound,
    sweep_power_sums,
    sweep_prime_window,
    sweep_telescope,
    taylor_decompose,
)
from hypharm.search import SearchConfig, search
from hypharm.sums import Interval, IntervalPair, g_exact

import oracles


def _line(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _run_cli(args, path):
    command = [sys.executable, "-m", "hypharm.cli", *args, "--format", "json", "--output", str(path)]
    return subprocess.run(command, capture_output=True, text=True)


# -- criterion 1: desk-scale search -----------------------------------------


def test_criterion_1_search_desk_scale(tmp_path):
    out = tmp_path / "search2000.json"
    t0 = time.perf_counter()
    proc = _run_cli(
        ["search", "--max-n", "2000", "--exponent", "2", "--moduli", "3", "--seed", "0"], out
    )
    wall = time.perf_counter() - t0
    document = json.loads(out.read_text())
    (result,) = document["results"]
    ok = (
        proc.returncode == 0
        and result["interval_count"] == 2_001_000
        and result["exact_collision_pairs"] == []
        and wall <= 60.0
    )
    assert _line(
        "1a",
        ok,
        f"search N=2000 exponent 2: {result['interval_count']} intervals, "
        f"{len(result['exact_collision_pairs'])} exact collisions, exit {proc.returncode}, "
        f"{wall:.1f}s (limit 60s)",
    )

    # cross-validation at N = 300 against the all-exact brute force
    report = search(SearchConfig(max_n=300, exponent=2, modulus_count=3, seed=0))
    brute_groups = oracles.exact_collision_groups(300, 2)
    screen_pairs = [
        ((p.first.a, p.first.end), (p.second.a, p.second.end))
        for p in report.screen_collision_pairs
    ]
    brute_pairs = [
        (g[i], g[j]) for g in brute_groups for i in range(len(g)) for j in range(i + 1, len(g))
    ]
    ok = report.exact_collision_pairs == [] and brute_pairs == [] and screen_pairs == brute_pairs
    assert _line(
        "1b",
        ok,
        f"N=300 cross-validation: exact brute force groups == screen groups == "
        f"{brute_pairs} (both empty)",
    )


# -- criterion 2: harmonic cross-check ---------------------------------------


def test_criterion_2_harmonic_cross_check(tmp_path):
    out = tmp_path / "search_harmonic.json"
    proc = _run_cli(
        ["search", "--max-n", "2000", "--exponent", "1", "--moduli", "3", "--seed", "0"], out
    )
    (result,) = json.loads(out.read_text())["results"]
    ok = (
        proc.returncode == 0
        and result["interval_count"] == 2_001_000
        and result["exact_collision_pairs"] == []
    )
    assert _line(
        "2",
        ok,
        f"harmonic search N=2000: {len(result['exact_collision_pairs'])} exact collisions, "
        f"exit {proc.returncode}",
    )


# -- criterion 3: lemma suites ------------------------------------------------


def test_criterion_3_bertrand():
    base = sweep_bertrand(10**6)
    remark = sweep_bertrand(10**6, remark=True)
    ok = base.holds and remark.holds
    assert _line(
        "3-bertrand",
        ok,
        f"prime in [n,2n] for n <= 1e6 ({base.checked} checked), "
        f"[n,2n-1] for 1 < n <= 1e6 ({remark.checked} checked), zero failures",
    )


def test_criterion_3_prime_window():
    result = sweep_prime_window(50, 2000)
    assert _line(
        "3-prime-window",
        result.holds,
        f"k <= 50, k < n <= k+2000: {result.checked} windows, "
        f"{len(result.failures)} failures",
    )


def test_criterion_3_large_prime_window():
    k_max, n_span = 20, 1000
    result = sweep_large_prime_window(k_max, n_span)
    oracle = oracles.large_prime_window_failures(k_max, n_span)
    # {8, 9}: trial division below 4 leaves nothing over
    smooth = [oracles.split_small_factors(x, 4) for x in (8, 9)]
    ok = (
        result.checked == k_max * (n_span + 1)
        and result.failures == oracle
        and oracle == [{"n": 8, "k": 1}]
        and smooth == [({2: 3}, 1), ({3: 2}, 1)]
    )
    assert _line(
        "3-large-prime-window",
        ok,
        f"k <= {k_max}, (k+1)^2 <= n <= (k+1)^2+{n_span}: {result.checked} windows; "
        f"the claim is false as stated: reported failures {result.failures} "
        f"{'match' if result.failures == oracle else 'DIFFER FROM'} the trial-division "
        f"oracle's {oracle}; {{8,9}} = {{2^3, 3^2}} has no prime factor >= 4",
    )


def test_criterion_3_lcm_bound():
    result = sweep_lcm_bound(20, 20, 12)
    assert _line(
        "3-lcm-bound",
        result.holds,
        f"coprime a,b <= 20, n <= 12: {result.checked} exact comparisons, "
        f"{len(result.failures)} failures",
    )


def test_criterion_3_power_sums():
    result = sweep_power_sums(2000)
    assert _line(
        "3-power-sums",
        result.holds,
        f"closed forms vs direct sums, r <= 2000, exponents 2/4/6 both parities: "
        f"{result.checked} checked, {len(result.failures)} failures",
    )


# -- criterion 4: offset machinery --------------------------------------------

GRID_A, GRID_R = 100, 50


@pytest.fixture(scope="module")
def band_grid():
    # one band sweep over the full grid serves the bracket-band and
    # quadratic-band checks; test_criterion_4_eta_enclosures solves the
    # grid again with its own loop, independently of the sweep
    return sweep_eta_band(GRID_A, GRID_R, 64)


def test_criterion_4_eta_enclosures():
    from hypharm.sums import epsilon, solve_eta

    cap = Fraction(1, 2**64)
    # bracket ends enclosed separately, at twice the precision of eta
    eps = {n: epsilon(n, 128) for n in range(1, GRID_A + GRID_R + 1)}
    bad = []
    for a in range(1, GRID_A + 1):
        for r in range(0, GRID_R + 1):
            eta = solve_eta(Interval(a, r), 64).eta
            strict = eps[a].hi < eta.lo and eta.hi < eps[a + r].lo
            if eta.width > cap or (r >= 1 and not strict):
                bad.append((a, r))
    assert _line(
        "4-enclosures",
        not bad,
        f"a <= {GRID_A}, r <= {GRID_R}: eta enclosures of width <= 2^-64, strictly inside "
        f"(epsilon(a), epsilon(a+r)) for r >= 1; {len(bad)} failures",
    )


def test_criterion_4_telescope():
    result = sweep_telescope(10**4, 64)
    assert _line(
        "4-telescope",
        result.holds,
        f"telescoping identity certified at 64 bits for n <= 1e4: "
        f"{result.checked} checked, {len(result.failures)} failures",
    )


def test_criterion_4_bracket_band(band_grid):
    bad = [f for f in band_grid.failures if not (f["q_lower"] and f["q_upper"])]
    assert _line(
        "4-bracket-band",
        not bad,
        f"1/(4(a+r)+1) < 1-2*eta < 2/(4a+1) on the full grid: {len(bad)} failures",
    )


def test_criterion_4_quadratic_band(band_grid):
    def side(flag):
        return [
            (f["a"], f["r"], f["expr_exact"], f["expr_bound"])
            for f in band_grid.failures
            if not f[flag]
        ]

    lower, upper = side("expr_lower"), side("expr_upper")
    oracle = oracles.quadratic_band_failures(GRID_A, GRID_R)
    failing = {r: [a for a, rr, _, _ in upper if rr == r] for r in range(GRID_R + 1)}
    # every failure has a <= r, and for each r the failing starts are 1..f(r)
    region_ok = all(a <= r for a, r, _, _ in upper) and all(
        starts == list(range(1, len(starts) + 1)) for starts in failing.values()
    )

    # the oracle's identity against plain bisection for eta, on both sides
    # of the edge of the failure region: a = f(r) and a = f(r) + 1
    frontier = [
        (a, r, a <= len(starts))
        for r, starts in failing.items()
        for a in (len(starts), len(starts) + 1)
        if 1 <= a <= GRID_A
    ]
    frontier_bad = []
    for a, r, fails in frontier:
        lo, hi = oracles.quadratic_band_bisection_enclosure(a, r)
        bound = Fraction(2 * r + 1, 4 * (a + r))
        on_side = bound <= lo if fails else hi < bound
        if not (lo <= oracles.quadratic_band_value(a, r) <= hi and on_side):
            frontier_bad.append((a, r))

    # by hand: G(1,1) = 1 + 1/4 = 5/4, so E = 8/(5/4) - 6 = 2/5 > 3/8 = 3/(4*2)
    first_ok = (
        oracles.window_sum_direct(1, 1) == Fraction(5, 4)
        and upper[:1] == [(1, 1, Fraction(2, 5), Fraction(3, 8))]
    )
    matches = lower == oracle["lower"] == [] and upper == oracle["upper"]
    ok = (
        band_grid.checked == GRID_A * (GRID_R + 1)
        and matches
        and region_ok
        and not frontier_bad
        and first_ok
    )
    assert _line(
        "4-quadratic-band",
        ok,
        f"|(4a+2r)(1-2*eta) - 1 + (1-2*eta)^2| < (2r+1)/(4(a+r)) on a <= {GRID_A}, "
        f"0 <= r <= {GRID_R} ({band_grid.checked} points) is false as stated: "
        f"upper side fails at {len(upper)}, lower side at {len(lower)}; exact oracle: "
        f"{len(oracle['upper'])} and {len(oracle['lower'])}, "
        f"{'same' if matches else 'DIFFERENT'} points and values; "
        f"a <= r and a prefix in a for each r: {region_ok}; first a=1, r=1: 2/5 vs 3/8: "
        f"{first_ok}; identity off bisection at {frontier_bad} of {len(frontier)} "
        f"frontier points",
    )


def test_criterion_4_quadratic_band_closed_form(band_grid):
    # for each r the upper side fails exactly at a = 1, ..., f(r), with f(r)
    # the nearest integer to 2(r+1)/3, except f(0) = 0 and f(3) = 2;
    # 2(r+1)/3 is never a half-integer, so the nearest integer is
    # floor((2(r+1) + 1)/3)
    def f(r):
        return {0: 0, 3: 2}.get(r, (2 * r + 3) // 3)

    failing = {r: [] for r in range(GRID_R + 1)}
    for failure in band_grid.failures:
        if not failure["expr_upper"]:
            failing[failure["r"]].append(failure["a"])
    bad = [r for r, starts in failing.items() if sorted(starts) != list(range(1, f(r) + 1))]
    assert _line(
        "4-quadratic-band-closed-form",
        not bad,
        f"upper-side failures at a = 1..f(r), f(r) the nearest integer to 2(r+1)/3 "
        f"(f(0) = 0, f(3) = 2), for every r <= {GRID_R}: "
        f"{len(failing) - len(bad)} of {len(failing)} rows, "
        f"{sum(map(len, failing.values()))} failures; rows that differ: {bad}",
    )


# -- criterion 5: decomposition and bracket identity ---------------------------


@pytest.fixture(scope="module")
def thousand_pairs():
    return list(random_disjoint_pairs(1000, seed=0, max_total=500))


def test_criterion_5_decomposition_identity(thousand_pairs):
    bad = 0
    for pair in thousand_pairs:
        report = taylor_decompose(pair)
        if sum(report.terms) != report.difference or not report.expansion_sums_verified:
            bad += 1
    assert _line(
        "5-decomposition",
        bad == 0,
        f"seven-term split sums to G(a1,r) - G(a2,s) exactly on 1000 seeded pairs "
        f"(a2+s <= 500): {bad} failures",
    )


def test_criterion_5_bracket_identity(thousand_pairs):
    bad = sum(
        1 for pair in thousand_pairs if check_bracket_identity(pair, 64) is not Verdict.CERTIFIED
    )
    assert _line(
        "5-bracket-identity",
        bad == 0,
        f"unconditional bracket identity certified at 64 bits on the same 1000 pairs: "
        f"{bad} failures",
    )


# -- criterion 6: Diophantine filter -------------------------------------------


def test_criterion_6_diophantine_filter():
    box_a, box_w = 300, 30
    found = search_necessary_identity(box_a, box_w)
    brute = oracles.e11_box_vectorized(box_a, box_w)
    ok_search = found == brute
    assert _line(
        "6a",
        ok_search,
        f"identity search over a <= {box_a}, extents <= {box_w}: {len(found)} solutions, "
        f"matches the exhaustive box oracle exactly",
    )

    disjoint = [
        (a1, r, a2, s) for a1, r, a2, s in found if (a1, r) != (a2, s) and a1 + r < a2
    ]
    unequal = all(
        g_exact(Interval(a1, r)) != g_exact(Interval(a2, s)) for a1, r, a2, s in disjoint
    )
    assert _line(
        "6b",
        unequal,
        f"{len(disjoint)} disjoint box solutions, exact sums differ on every one",
    )

    eligible = [
        (a1, r, a2, s)
        for a1, r, a2, s in disjoint
        if s > r and a2 >= 4 * (s + 1) ** 3
    ]
    chain_ok = True
    for a1, r, a2, s in eligible:
        report = check_positivity_chain(IntervalPair(Interval(a1, r), Interval(a2, s)))
        chain_ok = chain_ok and report.chain_certified and report.difference > 0
    # the box contains no chain-eligible quadruples (a2 tops out at 300 while
    # 4(s+1)^3 >= 32 already at s=1 rules most out; the first real ones sit
    # near a2 = 6e4), so exercise the chain on known out-of-box solutions too
    supplementary = [(14451, 0, 59575, 16), (91653, 0, 377887, 16)]
    for a1, r, a2, s in supplementary:
        pair = IntervalPair(Interval(a1, r), Interval(a2, s))
        assert check_necessary_identity(pair)
        report = check_positivity_chain(pair)
        chain_ok = chain_ok and report.chain_certified and report.difference > 0
    assert _line(
        "6c",
        chain_ok,
        f"positivity chain: {len(eligible)} eligible in-box quadruples (empty is expected), "
        f"plus {len(supplementary)} out-of-box identity solutions certified bound by bound, "
        f"sign positive",
    )


# -- criterion 7: determinism ---------------------------------------------------


def _result_payload(path):
    return json.dumps(json.loads(path.read_text())["results"], sort_keys=True)


def test_criterion_7_determinism(tmp_path):
    search_payloads = set()
    for run in range(4):
        out = tmp_path / f"det_{run}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "hypharm.cli",
                "search",
                "--max-n",
                "300",
                "--seed",
                "0",
                "--format",
                "json",
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        search_payloads.add(_result_payload(out))
    search_ok = len(search_payloads) == 1

    verify_payloads = set()
    for run in range(2):
        out = tmp_path / f"verify_{run}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "hypharm.cli",
                "verify",
                "--lemma",
                "decompose",
                "--pairs",
                "50",
                "--seed",
                "9",
                "--format",
                "json",
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        verify_payloads.add(_result_payload(out))
    verify_ok = len(verify_payloads) == 1

    eta_payloads = set()
    for tag in ("x", "y"):
        out = tmp_path / f"eta_{tag}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "hypharm.cli",
                "eta",
                "--a",
                "7",
                "--r",
                "5",
                "--precision-bits",
                "96",
                "--format",
                "json",
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        eta_payloads.add(_result_payload(out))
    eta_ok = len(eta_payloads) == 1

    assert _line(
        "7",
        search_ok and verify_ok and eta_ok,
        "byte-identical result payloads across fresh-process reruns: "
        "search x4, verify x2, eta x2",
    )
