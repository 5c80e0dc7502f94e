import collections
import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

import hypharm.cli
import hypharm.kernel
import hypharm.lemmas
import hypharm.sums
from hypharm.kernel import PrimeSieve, Verdict
from hypharm.lemmas import (
    check_bertrand,
    check_bracket_identity,
    check_eq11_equivalence,
    check_large_prime_window,
    check_lcm_bound,
    check_necessary_identity,
    check_positivity_chain,
    check_prime_window,
    centered_power_sum_closed,
    centered_power_sum_direct,
    compute_L,
    diophantine_bracket,
    greatest_prime_factor_table,
    power_sum_closed_form,
    random_disjoint_pairs,
    search_necessary_identity,
    SweepResult,
    sweep_bertrand,
    sweep_bracket_identity,
    sweep_decompose,
    sweep_e11_box,
    sweep_eta_grid,
    sweep_large_prime_window,
    sweep_lcm_bound,
    sweep_prime_window,
    taylor_decompose,
)
from hypharm.report import results_bytes
from hypharm.sums import Interval, IntervalPair, epsilon, g_exact, solve_eta

import oracles

# identity solutions with s > r, disjoint windows and a2 >= 4(s+1)^3 exist
# only far outside small boxes; these two were found by extending the
# Pell-type family of (3, 0, 7, 16) and are re-verified from scratch here
CHAIN_QUADRUPLES = [(14451, 0, 59575, 16), (91653, 0, 377887, 16)]


# -- prime-window lemmas --


def test_bertrand_examples():
    assert check_bertrand(2).witness == {"prime": 2}
    assert check_bertrand(10).witness == {"prime": 11}
    assert check_bertrand(4, remark=True).witness == {"prime": 5}
    with pytest.raises(ValueError):
        check_bertrand(1, remark=True)


def test_bertrand_sweeps():
    assert sweep_bertrand(5000).holds
    assert sweep_bertrand(5000, remark=True).holds


def test_bertrand_sweep_reports_every_window_its_primes_miss(monkeypatch):
    # hide the primes 11..23 from the sweep: then [n, 2n] holds none of the
    # remaining primes exactly for n = 8..14, and a sweep that reads a stale
    # prime (7 at n = 8) would miss those windows
    all_primes = PrimeSieve.primes
    monkeypatch.setattr(
        PrimeSieve, "primes", lambda self: (p for p in all_primes(self) if not 10 < p < 24)
    )
    given = list(PrimeSieve(201).primes())
    for remark in (False, True):
        expected = [
            {"n": n}
            for n in range(2 if remark else 1, 101)
            if not any(n <= p <= (2 * n - 1 if remark else 2 * n) for p in given)
        ]
        assert expected[:2] == [{"n": 8}, {"n": 9}]
        assert sweep_bertrand(100, remark=remark).failures == expected


def test_greatest_prime_factor_table_matches_trial_division():
    gpf = greatest_prime_factor_table(5000)
    assert len(gpf) == 5001 and gpf[:2] == [0, 0]
    for x in range(2, 5001):
        exponents, cofactor = oracles.split_small_factors(x, math.isqrt(x) + 1)
        assert gpf[x] == (cofactor if cofactor > 1 else max(exponents)), x


def test_greatest_prime_factor_table_guards_its_build_peak(monkeypatch):
    # building the table peaks near 17 B per entry, not the 8 B it keeps;
    # memory for 16 B per entry must be refused before anything is built
    limit = 100_000
    monkeypatch.setattr(hypharm.kernel, "physical_memory", lambda: 16 * (limit + 1))
    with pytest.raises(ValueError, match="prime factor table"):
        greatest_prime_factor_table(limit)


def test_prime_window_examples():
    assert check_prime_window(7, 3).witness == {"element": 7, "prime": 7}
    assert check_prime_window(5, 1).holds
    report = check_prime_window(25, 4)
    assert report.witness == {"element": 25, "prime": 5}
    with pytest.raises(ValueError):
        check_prime_window(3, 3)


def test_prime_window_sweep():
    assert sweep_prime_window(20, 500).holds


def test_large_prime_window_examples():
    assert check_large_prime_window(9, 2).witness == {"element": 11, "prime": 11}
    assert check_large_prime_window(4, 1).witness == {"element": 5, "prime": 5}
    assert check_large_prime_window(16, 3).witness == {"element": 17, "prime": 17}
    with pytest.raises(ValueError):
        check_large_prime_window(8, 3)  # below the (k+1)^2 floor


def test_large_prime_window_known_counterexample_reported_faithfully():
    # {8, 9} = {2^3, 3^2} has no prime factor >= 4 although 8 >= (1+1)^2;
    # the checker must report the falsification rather than mask it
    report = check_large_prime_window(8, 1)
    assert report.holds is False and report.witness is None
    sweep = sweep_large_prime_window(10, 300)
    assert sweep.failures == [{"n": 8, "k": 1}]


# -- lcm lower bound --


def test_lcm_bound_examples():
    report = check_lcm_bound(1, 1, 4)
    assert report.witness == {"lhs": 60, "rhs": Fraction(5)} and report.holds
    report = check_lcm_bound(3, 2, 2)
    assert report.witness == {"lhs": 105, "rhs": Fraction(105)} and report.holds
    with pytest.raises(ValueError):
        check_lcm_bound(2, 2, 1)


def test_lcm_bound_sweep():
    result = sweep_lcm_bound(12, 12, 10)
    assert result.holds and result.checked > 500


# -- power sums --


@pytest.mark.parametrize(
    "r,exponent,expected",
    [(4, 2, 5), (1, 2, 1), (2, 2, 1), (6, 4, 98), (5, 6, 16355)],
)
def test_power_sum_closed_form_examples(r, exponent, expected):
    assert power_sum_closed_form(r, exponent) == expected
    assert oracles.direct_half_power_sum(r, exponent) == expected


def test_power_sum_closed_form_rejects_unsupported_exponent():
    with pytest.raises(ValueError):
        power_sum_closed_form(4, 3)


def test_power_sums_match_direct_oracle():
    for r in range(1, 200):
        for e in (2, 4, 6):
            assert power_sum_closed_form(r, e) == oracles.direct_half_power_sum(r, e)


def test_centered_power_sums_closed_forms():
    for r in range(0, 30):
        for e in (2, 4, 6):
            assert centered_power_sum_direct(r, e) == centered_power_sum_closed(r, e)


# -- gap term --


def test_compute_L_examples():
    assert compute_L(3, 3) == 0
    assert compute_L(1, 3) == Fraction(9, 16)
    assert compute_L(0, 1) == Fraction(3, 8) and compute_L(0, 1) < Fraction(2, 4)


def test_compute_L_sign_tracks_extent_order():
    assert compute_L(2, 7) > 0 > compute_L(7, 2)


# -- necessary identity and equivalent forms --


def test_necessary_identity_basic_cases():
    assert check_necessary_identity(IntervalPair(Interval(9, 4), Interval(9, 4)))
    # equal extents force equal starts: the bracket is strictly increasing
    assert not check_necessary_identity(IntervalPair(Interval(2, 3), Interval(7, 3)))


def test_search_matches_literal_quadruple_loop():
    for box in ((1, 0), (2, 1), (30, 25), (60, 8)):
        assert search_necessary_identity(*box) == oracles.e11_quadruple_loop(*box), box


def test_solve_second_start_inverts_bracket():
    # the bracket is strictly increasing in a2, so each (a1, r, s) admits at
    # most one a2: the search must find exactly that one, in both orders
    found = search_necessary_identity(30, 25)
    for a1, r, a2, s in ((3, 0, 7, 16), (12, 3, 22, 19), (5, 1, 11, 25), (2, 0, 4, 24)):
        assert [q[2] for q in found if (q[0], q[1], q[3]) == (a1, r, s)] == [a2]
        assert (r + 1) * diophantine_bracket(a2, s) == (s + 1) * diophantine_bracket(a1, r)
        assert (a2, s, a1, r) in found


def test_search_guards_its_grouping_before_building_it(monkeypatch):
    # the grouping holds every window of the box at once, 480 B each: the
    # search runs at exactly that much memory, and one byte less must be
    # refused before any bracket is computed
    def unreachable(*args):
        raise AssertionError("the identity search started past the memory guard")

    monkeypatch.setattr(hypharm.kernel, "physical_memory", lambda: 480 * 300 * 31)
    assert len(search_necessary_identity(300, 30)) == 9336
    monkeypatch.setattr(hypharm.kernel, "physical_memory", lambda: 480 * 300 * 31 - 1)
    monkeypatch.setattr(hypharm.lemmas, "diophantine_bracket", unreachable)
    with pytest.raises(ValueError, match="identity search over 9300 windows"):
        search_necessary_identity(300, 30)


@pytest.mark.parametrize("box", [(300, 30), (30, 300)])
def test_search_peak_stays_within_its_charge(monkeypatch, box):
    # the traced peak, result list included, must lie under the charge and
    # above half of it; w > 256 gives each (a, w) tuple an int of its own
    charges = []
    monkeypatch.setattr(hypharm.lemmas, "require_memory", lambda nbytes, what: charges.append(nbytes))
    tracemalloc.start()
    try:
        search_necessary_identity(*box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (charge,) = charges
    assert charge // 2 < peak <= charge


def test_necessary_identity_solutions_are_square_roots_of_minus_one():
    # with m = r+1, n = s+1, X = 2a1+r and Y = 2a2+s the identity reads
    # m(Y^2 + 1) - n(X^2 + 1) = mn(n - m); with g = gcd(m, n), reducing it
    # mod n/g and mod m/g gives Y^2 = -1 (mod n/g) and X^2 = -1 (mod m/g),
    # and -1 has no square root modulo 4 or a prime 3 (mod 4)
    def prime_factors(k):
        factors, d = set(), 2
        while d * d <= k:
            while k % d == 0:
                factors.add(d)
                k //= d
            d += 1
        return factors | ({k} if k > 1 else set())

    found = search_necessary_identity(300, 30)
    assert len(found) == 9336 and len({(r, s) for _, r, _, s in found}) == 45
    for a1, r, a2, s in found:
        m, n = r + 1, s + 1
        g = math.gcd(m, n)
        for root, modulus in ((2 * a1 + r, m // g), (2 * a2 + s, n // g)):
            assert (root * root + 1) % modulus == 0, (a1, r, a2, s)
            assert modulus % 4 and all(q % 4 != 3 for q in prime_factors(modulus)), (a1, r, a2, s)


def test_equivalence_of_three_forms():
    box = search_necessary_identity(120, 20)
    nontrivial = [q for q in box if (q[0], q[1]) != (q[2], q[3])]
    assert nontrivial, "expected identity solutions in the box"
    for a1, r, a2, s in box:
        report = check_eq11_equivalence(IntervalPair(Interval(a1, r), Interval(a2, s)))
        assert report.equivalent and report.holds
    for pair in [
        IntervalPair(Interval(4, 2), Interval(4, 2)),
        IntervalPair(Interval(2, 3), Interval(7, 3)),
        IntervalPair(Interval(1, 0), Interval(9, 5)),
    ]:
        report = check_eq11_equivalence(pair)
        assert report.equivalent
        assert report.holds == check_necessary_identity(pair)


def test_equivalence_on_random_non_solutions():
    # the three forms must agree (almost always all-false) across the box,
    # not just on the solution set
    import random

    rng = random.Random(2024)
    for _ in range(2000):
        pair = IntervalPair(
            Interval(rng.randint(1, 300), rng.randint(0, 30)),
            Interval(rng.randint(1, 300), rng.randint(0, 30)),
        )
        report = check_eq11_equivalence(pair)
        assert report.equivalent
        assert report.holds == check_necessary_identity(pair)


# -- decomposition --


def test_decomposition_smallest_pair_against_reference_formulas():
    pair = IntervalPair(Interval(1, 0), Interval(2, 0))
    report = taylor_decompose(pair)
    assert report.difference == Fraction(3, 4)
    reference = oracles.decomposition_terms_reference(1, 0, 2, 0)
    assert list(report.terms[:6]) == reference
    assert report.terms[0] == Fraction(3, 4) and report.terms[1] == 0
    assert sum(report.terms) == report.difference


def test_decomposition_zero_extents_kill_second_term():
    report = taylor_decompose(IntervalPair(Interval(3, 0), Interval(11, 0)))
    assert report.terms[1] == 0


def test_decomposition_matches_reference_on_random_pairs():
    for pair in random_disjoint_pairs(60, seed=3, max_total=300):
        report = taylor_decompose(pair)
        reference = oracles.decomposition_terms_reference(
            pair.first.a, pair.first.r, pair.second.a, pair.second.r
        )
        assert list(report.terms[:6]) == reference
        assert sum(report.terms) == report.difference
        assert report.expansion_sums_verified


def test_decomposition_terms_match_reference_at_large_centers():
    # the chain's quadruples, also criterion 6c's out-of-box pairs, put
    # a2 up to 377,887: the squared centers there exceed 10^11
    for a1, r, a2, s in CHAIN_QUADRUPLES:
        terms, difference = hypharm.lemmas._decomposition_terms(
            IntervalPair(Interval(a1, r), Interval(a2, s))
        )
        assert list(terms[:6]) == oracles.decomposition_terms_reference(a1, r, a2, s)
        assert sum(terms) == difference == g_exact(Interval(a1, r)) - g_exact(Interval(a2, s))


@pytest.mark.parametrize(
    "quad, failures",
    [
        ((12, 3, 22, 19), ("a2 >= 4(s+1)^3",)),
        ((3, 2, 9, 2), ("s > r", "necessary-identity", "a2 >= 4(s+1)^3")),
        (CHAIN_QUADRUPLES[0], ()),
    ],
    ids=["below-the-cube", "all-three", "eligible"],
)
def test_decomposition_record_names_failed_hypotheses(quad, failures):
    # the record itself names them, before the chain adds any bound
    a1, r, a2, s = quad
    report = taylor_decompose(IntervalPair(Interval(a1, r), Interval(a2, s)))
    assert report.hypothesis_failures == failures
    assert report.bounds == {} and not report.chain_certified


def test_decomposition_rejects_overlap():
    with pytest.raises(ValueError, match="reduce it to a disjoint pair first"):
        taylor_decompose(IntervalPair(Interval(1, 4), Interval(3, 4)))
    for pair in (IntervalPair(Interval(1, 5), Interval(2, 1)), IntervalPair(Interval(3, 2), Interval(3, 4))):
        with pytest.raises(ValueError, match="one window holds the other") as caught:
            taylor_decompose(pair)
        assert "reduce it" not in str(caught.value)


def test_rewrites_hold_on_identity_solutions():
    for a1, r, a2, s in [(12, 3, 22, 19), (2, 0, 4, 24), (147, 9, 232, 25)]:
        pair = IntervalPair(Interval(a1, r), Interval(a2, s))
        report = taylor_decompose(pair)
        assert report.e11 and report.rewrites_verified is True


def test_decompose_sweep():
    assert sweep_decompose(200, seed=0, max_total=500).holds


# -- positivity chain --


def test_chain_certifies_on_eligible_quadruples():
    for a1, r, a2, s in CHAIN_QUADRUPLES:
        pair = IntervalPair(Interval(a1, r), Interval(a2, s))
        assert check_necessary_identity(pair) and s > r and a2 >= 4 * (s + 1) ** 3
        report = check_positivity_chain(pair)
        assert report.hypothesis_failures == ()
        assert report.chain_certified, report.bounds
        assert report.difference > 0
        assert g_exact(pair.first) > g_exact(pair.second)


class _Term:
    """A stand-in for chain terms: a sum of them remembers which terms it
    holds, and a comparison records its right side and holds."""

    def __init__(self, held: tuple, seen: list):
        self.held, self.seen = held, seen

    def __add__(self, other):
        return _Term(self.held + other.held, self.seen)

    def __radd__(self, other):  # sum() starts from 0
        assert other == 0
        return self

    def __gt__(self, right):
        self.seen.append((self.held, right))
        return True


def test_chain_bounds_have_the_papers_right_sides(monkeypatch):
    # each bound's right side, read off the comparison the chain makes,
    # equals the oracle's, written in powers of the centers, value by value;
    # a weakened threshold (c2^8 for c2^10, say) holds on these quadruples
    # as a verdict, but not as a value
    order = [
        ("head_terms_lower", (0, 1, 2, 3, 4)),
        ("term6_lower", (5,)),
        ("head_six_lower", (0, 1, 2, 3, 4, 5)),
        ("residual_intermediate_lower", (6,)),
        ("residual_lower", (6,)),
        ("total_positive", (0, 1, 2, 3, 4, 5, 6)),
    ]
    for a1, r, a2, s in CHAIN_QUADRUPLES:
        pair = IntervalPair(Interval(a1, r), Interval(a2, s))
        record = taylor_decompose(pair)
        seen: list = []
        terms = tuple(_Term((i,), seen) for i in range(7))
        monkeypatch.setattr(hypharm.lemmas, "taylor_decompose", lambda _: record._replace(terms=terms))
        report = check_positivity_chain(pair)
        assert [held for held, _ in seen] == [held for _, held in order]
        right = {name: value for (name, _), (_, value) in zip(order, seen)}
        expected = oracles.chain_bound_right_sides(a1, r, a2, s)
        assert right.pop("total_positive") == 0
        assert right == expected
        assert all(isinstance(value, Fraction) for value in right.values())
        margin = expected["head_six_lower"] + expected["residual_lower"]
        assert report.bounds["margin_positive"] is (margin > 0) is True


def test_chain_names_failed_hypotheses():
    report = check_positivity_chain(IntervalPair(Interval(3, 2), Interval(9, 2)))
    assert "s > r" in report.hypothesis_failures
    assert not report.bounds

    # identity solution below the cube threshold: only that hypothesis fails
    report = check_positivity_chain(IntervalPair(Interval(12, 3), Interval(22, 19)))
    assert report.hypothesis_failures == ("a2 >= 4(s+1)^3",)
    assert not report.bounds
    # the fallback exact comparison still separates the sums
    assert g_exact(Interval(12, 3)) != g_exact(Interval(22, 19))


def test_chain_rejects_an_overlapping_pair():
    # disjointness is a precondition, as in taylor_decompose: a report with
    # no terms would not sum to the difference
    with pytest.raises(ValueError, match="overlaps"):
        check_positivity_chain(IntervalPair(Interval(3, 6), Interval(5, 9)))


@pytest.mark.parametrize("verifier", ["_verify_expansion_sums", "_verify_rewrites"])
def test_decompose_sweep_records_a_failed_verification(monkeypatch, verifier):
    # (12, 3, 22, 19) solves the necessary identity, so both verifiers run
    pair = IntervalPair(Interval(12, 3), Interval(22, 19))
    monkeypatch.setattr(hypharm.lemmas, "random_disjoint_pairs", lambda *args: [pair])
    monkeypatch.setattr(hypharm.lemmas, verifier, lambda *args: False)
    result = sweep_decompose(1, seed=0)
    assert result.checked == 1
    assert result.failures == [{"pair": str(pair)}]


# -- coefficient sign facts --


# coefficient positivity facts used when regrouping the leading terms;
# each vanishes at extent 0, so the verified domain starts at r, s >= 1
def coefficient_sign_facts(r: int, s: int) -> dict[str, Fraction]:
    m, n = Fraction(r + 1), Fraction(s + 1)
    return {
        "head_regroup": n**2 + 2 * m**2 - 10 + 6 / m**2 + 1 / n**2,
        "gap_square": 3 * m**2 / 16 - Fraction(5, 8) + 7 / (16 * m**2),
        "gap_cube": m**2 / 16 - Fraction(5, 24) + 7 / (48 * m**2),
    }


def sweep_sign_facts(limit: int) -> SweepResult:
    """Record exactly where each coefficient sign fact fails on [0, limit]^2.

    Denominators are cleared (multiplied by positive squares), so the box
    is scanned in pure integer arithmetic; `coefficient_sign_facts` gives
    the same verdicts pointwise.  Both gap facts clear to the same
    polynomial 3m^4 - 10m^2 + 7 = (m^2 - 1)(3m^2 - 7), m = r + 1.
    """
    result = SweepResult("coefficient-sign-facts", {"limit": limit})
    failing = {"head_regroup": [], "gap_square": [], "gap_cube": []}
    for r in range(0, limit + 1):
        m2 = (r + 1) ** 2
        if not 3 * m2 * m2 - 10 * m2 + 7 > 0:
            failing["gap_square"].append(r)
            failing["gap_cube"].append(r)
        for s in range(0, limit + 1):
            result.checked += 1
            n2 = (s + 1) ** 2
            if not n2 * m2 * (n2 + 2 * m2 - 10) + 6 * n2 + m2 > 0:
                failing["head_regroup"].append((r, s))
    result.notes["failing"] = failing
    result.failures = [
        inst for inst in failing["head_regroup"] if inst[0] >= 1 and inst[1] >= 1
    ] + [r for r in failing["gap_square"] + failing["gap_cube"] if r >= 1]
    return result


def test_sign_facts_vanish_exactly_at_zero_extents():
    facts = coefficient_sign_facts(0, 0)
    assert facts["head_regroup"] == 0
    assert facts["gap_square"] == 0
    assert facts["gap_cube"] == 0


def test_sign_facts_positive_from_extent_one():
    sweep = sweep_sign_facts(1000)
    assert sweep.holds
    assert sweep.notes["failing"] == {
        "head_regroup": [(0, 0)],
        "gap_square": [0],
        "gap_cube": [0],
    }


def test_sign_facts_integer_sweep_agrees_with_pointwise_fractions():
    for r in (0, 1, 2, 7):
        for s in (0, 1, 5):
            facts = coefficient_sign_facts(r, s)
            integer_head = ((s + 1) ** 2) * ((r + 1) ** 2) * (
                (s + 1) ** 2 + 2 * (r + 1) ** 2 - 10
            ) + 6 * (s + 1) ** 2 + (r + 1) ** 2
            assert (facts["head_regroup"] > 0) == (integer_head > 0)


def sweep_epsilon_monotone(n_max: int, precision_bits: int) -> SweepResult:
    """Strict increase of the telescoping offset via disjoint enclosures."""
    result = SweepResult(
        "epsilon-monotone", {"n_max": n_max, "precision_bits": precision_bits}
    )
    previous = epsilon(1, precision_bits)
    for n in range(2, n_max + 1):
        current = epsilon(n, precision_bits)
        result.checked += 1
        if not previous.hi < current.lo:
            result.failures.append({"n": n})
        previous = current
    return result


def test_epsilon_monotone_sweep_full_range():
    result = sweep_epsilon_monotone(10**4, 64)
    assert result.holds and result.checked == 10**4 - 1


# -- bracket identity --


def test_bracket_identity_examples():
    assert check_bracket_identity(IntervalPair(Interval(1, 0), Interval(2, 0)), 64) is Verdict.CERTIFIED
    # degenerate same-window input: both sides are exactly zero
    assert check_bracket_identity(IntervalPair(Interval(7, 3), Interval(7, 3)), 64) is Verdict.CERTIFIED


def test_bracket_identity_catches_a_shifted_eta(monkeypatch):
    # the identity is a tautology for the true eta, so it must reject an
    # offset that is wrong by far more than its working precision
    true_solve_eta = hypharm.lemmas.solve_eta

    def shifted(interval, precision_bits):
        solution = true_solve_eta(interval, precision_bits)
        d = 1 << (solution.k - 40)  # 2^-40 in units of the mantissas
        return solution._replace(lo=solution.lo + d, hi=solution.hi + d)

    pairs = [
        IntervalPair(Interval(1, 0), Interval(2, 0)),
        IntervalPair(Interval(3, 4), Interval(40, 9)),
        IntervalPair(Interval(90, 24), Interval(300, 0)),
    ]
    for pair in pairs:
        assert check_bracket_identity(pair, 64) is Verdict.CERTIFIED
    monkeypatch.setattr(hypharm.lemmas, "solve_eta", shifted)
    for pair in pairs:
        assert check_bracket_identity(pair, 64) is Verdict.FALSIFIED


def test_eta_paths_compute_each_sum_once(monkeypatch):
    # solve_eta computes G once and returns it, and certifies the epsilon
    # bracket by signs alone; the bracket identity reuses both windows' G
    calls = collections.Counter()
    for module, name in ((hypharm.sums, "g_exact"), (hypharm.lemmas, "g_exact"),
                         (hypharm.sums, "epsilon"), (hypharm.sums, "sqrt_mantissas"),
                         (hypharm.sums, "sqrt_enclosure")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    for a, r in ((1, 0), (1, 1), (40, 20), (2**70, 3)):
        calls.clear()
        solve_eta(Interval(a, r), 64)
        assert calls == {"g_exact": 1, "sqrt_mantissas": 1}, (a, r)
    pairs = list(random_disjoint_pairs(25, seed=1))
    calls.clear()
    for pair in pairs:
        assert check_bracket_identity(pair, 64) is Verdict.CERTIFIED
    assert calls["g_exact"] == 2 * len(pairs)
    assert calls["epsilon"] == 0
    # the eta-band verify fills both of its sweeps from one solve per window
    calls.clear()
    argv = ["verify", "--lemma", "eta-band", "--a-max", "4", "--r-max", "3", "--format", "json"]
    assert hypharm.cli.main(argv) == 1  # the quadratic band fails at a=1, r=1
    assert calls == {"g_exact": 4 * 4, "sqrt_mantissas": 4 * 4}
    assert calls["sqrt_enclosure"] == 0  # the eta path never builds a root as Fractions


def test_random_pairs_need_room_for_a_disjoint_pair():
    with pytest.raises(ValueError):
        random_disjoint_pairs(2, seed=0, max_total=1)
    assert list(random_disjoint_pairs(1, seed=0, max_total=2)) == [
        IntervalPair(Interval(1, 0), Interval(2, 0))
    ]


def test_random_pairs_refuse_a_negative_seed():
    # random.Random(-3) draws the pairs of seed 3; refused at the call,
    # before a pair is read, and seed 0 still draws
    with pytest.raises(ValueError, match="^seed -3 must be >= 0$"):
        random_disjoint_pairs(2, seed=-3)
    assert len(list(random_disjoint_pairs(2, seed=0))) == 2


def test_random_pairs_cost_four_draws_each(monkeypatch):
    # every draw comes from a feasible range, so nothing is ever rejected,
    # even where almost no (r, s, a1) of the full ranges fits
    draws = []

    class CountingRandom(random.Random):
        def randint(self, a, b):
            draws.append((a, b))
            return super().randint(a, b)

    monkeypatch.setattr(hypharm.lemmas, "random", SimpleNamespace(Random=CountingRandom))
    for max_total in (2, 3, 5, 30, 148, 149, 500):
        draws.clear()
        pairs = list(random_disjoint_pairs(25, seed=max_total, max_total=max_total))
        assert len(draws) == 4 * 25
        assert all(p.disjoint and p.second.end <= max_total for p in pairs)


@pytest.mark.parametrize("max_total", [149, 200, 500])
def test_random_pairs_keep_the_rejection_stream_where_all_fit(max_total):
    for seed in range(4):
        pairs = random_disjoint_pairs(300, seed, max_total)
        assert [(p.first.a, p.first.r, p.second.a, p.second.r) for p in pairs] == (
            oracles.disjoint_pairs_by_rejection(300, seed, max_total)
        )


def test_random_pairs_are_drawn_as_they_are_read():
    # a list of 10^4 pairs peaks near 2.2 MB; the stream holds one pair at a time
    peaks = []
    for count in (10**3, 10**4):
        tracemalloc.start()
        try:
            collections.deque(random_disjoint_pairs(count, seed=0), maxlen=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 64 * 1024
    assert peaks[1] < 2 * peaks[0]


def test_bracket_identity_random_pairs():
    result = sweep_bracket_identity(100, seed=0, max_total=200)
    assert result.holds and result.checked == 100


# -- box sweep --


def test_e11_box_sweep_is_clean_and_matches_known_structure():
    box = sweep_e11_box(120, 16)
    assert box.holds
    solutions = set(box.notes["solutions"])
    # the identity is symmetric, so solutions come in mirror pairs
    assert all((a2, s, a1, r) in solutions for a1, r, a2, s in solutions)
    assert (3, 0, 7, 16) in box.notes["disjoint"]


def test_e11_box_sweep_keeps_its_own_stats():
    # of the 9,336 solutions in the 300 x 30 box, 9,300 pair a window with
    # itself, 14 are disjoint and none meets the chain's hypotheses
    box = sweep_e11_box(300, 30)
    assert set(box.stats) == {"windows", "nontrivial_solutions", "disjoint", "chain_eligible",
                              "sweep_s"}
    assert box.stats["windows"] == 300 * 31 == 9300
    assert box.stats["nontrivial_solutions"] == box.checked - 9300 == 36
    assert box.stats["disjoint"] == len(box.notes["disjoint"]) == 14
    assert box.stats["chain_eligible"] == len(box.notes["chain_eligible"]) == 0
    assert box.stats["sweep_s"] > 0


def test_e11_box_sweep_decomposes_each_disjoint_solution_once(monkeypatch):
    calls = []
    original = hypharm.lemmas.taylor_decompose

    def counted(pair):
        calls.append(pair)
        return original(pair)

    monkeypatch.setattr(hypharm.lemmas, "taylor_decompose", counted)
    box = sweep_e11_box(300, 30)
    assert box.holds
    assert len(calls) == box.stats["disjoint"] == 14
    assert [(p.first.a, p.first.r, p.second.a, p.second.r) for p in calls] == box.notes["disjoint"]


def _sweep_of_one_solution(monkeypatch, quad):
    monkeypatch.setattr(hypharm.lemmas, "search_necessary_identity", lambda *box: [quad])
    return sweep_e11_box(1, 0)


def test_e11_box_sweep_certifies_an_eligible_solution(monkeypatch):
    # the Pell image of (3, 0, 7, 16) meets every chain hypothesis
    quad = CHAIN_QUADRUPLES[0]
    box = _sweep_of_one_solution(monkeypatch, quad)
    assert box.failures == []
    assert box.notes["disjoint"] == box.notes["chain_eligible"] == [quad]
    assert box.stats["chain_eligible"] == 1


def test_e11_box_sweep_reads_equal_sums_from_the_record(monkeypatch):
    original = hypharm.lemmas.check_positivity_chain
    monkeypatch.setattr(
        hypharm.lemmas,
        "check_positivity_chain",
        lambda pair: original(pair)._replace(difference=Fraction(0)),
    )
    quad = CHAIN_QUADRUPLES[0]
    box = _sweep_of_one_solution(monkeypatch, quad)
    assert box.failures == [{"quad": quad, "reason": "equal sums"}]
    assert box.notes["disjoint"] == [quad]
    assert box.notes["chain_eligible"] == [] and box.stats["chain_eligible"] == 0


def test_e11_box_sweep_reports_a_failed_chain_bound(monkeypatch):
    original = hypharm.lemmas.check_positivity_chain

    def one_bound_fails(pair):
        report = original(pair)
        return report._replace(bounds=report.bounds | {"residual_lower": False})

    monkeypatch.setattr(hypharm.lemmas, "check_positivity_chain", one_bound_fails)
    quad = CHAIN_QUADRUPLES[0]
    box = _sweep_of_one_solution(monkeypatch, quad)
    (failure,) = box.failures
    assert failure["quad"] == quad and failure["reason"] == "chain bound failed"
    assert failure["bounds"]["residual_lower"] is False
    assert box.notes["chain_eligible"] == [quad]


@pytest.mark.parametrize(
    "a_max, r_max, bits, windows, working_bits",
    [(4, 3, 64, 16, 64 + 8 + 1), (300, 0, 8, 300, 2 * 9 + 8 + 1)],
)
def test_eta_grid_sweep_keeps_its_own_stats(a_max, r_max, bits, windows, working_bits):
    # w + 1 bits, w = max(p + 8, 2*bitlen(a+r) + 8): at low precision the
    # box's far corner sets it
    enclosures, band = sweep_eta_grid(a_max, r_max, bits)
    assert set(enclosures.stats) == {"windows", "working_bits", "sweep_s"}
    assert enclosures.stats["windows"] == windows == enclosures.checked == band.checked
    assert enclosures.stats["working_bits"] == working_bits
    assert enclosures.stats["sweep_s"] > 0


def test_eta_grid_builds_a_fraction_only_for_g_and_a_reported_row(monkeypatch):
    # every certificate of a window is an integer sign, so a window whose
    # band holds builds one Fraction, its G; a failing row also builds the
    # two it reports, expr_exact and expr_bound.  The payload is unchanged
    expected = results_bytes(list(sweep_eta_grid(4, 3, 64)))
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    true_report = hypharm.lemmas.eta_band_report
    per_window = []  # [report, Fractions built from its call to the next]

    def report(interval, precision_bits):
        if per_window:
            per_window[-1][1] = len(built)
        built.clear()
        per_window.append([true_report(interval, precision_bits), None])
        return per_window[-1][0]

    monkeypatch.setattr(hypharm.sums, "Fraction", Counted)
    monkeypatch.setattr(hypharm.lemmas, "eta_band_report", report)
    enclosures, band = sweep_eta_grid(4, 3, 64)
    per_window[-1][1] = len(built)
    assert results_bytes([enclosures, band]) == expected
    assert len(per_window) == 16 and band.failures
    for row, count in per_window:
        assert count == (1 if row.all_hold else 3), (row.interval, count)


def test_sweep_stats_stay_out_of_the_results():
    plain, timed = sweep_e11_box(40, 4), sweep_e11_box(40, 4)
    assert timed.stats
    plain.stats = {}
    assert results_bytes([plain]) == results_bytes([timed])
    assert "stats" not in results_bytes([timed]).decode()
