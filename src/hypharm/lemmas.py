"""Executable checkers for the supporting lemmas and the inequality chain.

Every checker either produces a witness that can be re-verified directly
(prime in a range, element with a large prime factor, both sides of an
lcm bound) or certifies an identity/inequality by exact rational
arithmetic.  Sweeps over parameter boxes return the failing instances
explicitly; an existential claim without a witness is a hard failure.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict, namedtuple
from fractions import Fraction

from .kernel import (
    PrimeSieve,
    Verdict,
    lcm_progression,
    factorial_valuation,
    require_memory,
)
from .sums import (
    DEFAULT_PRECISION_BITS,
    CertificateError,
    Interval,
    IntervalPair,
    eta_band_report,
    g_exact,
    solve_eta,
    telescope_check,
)


class WitnessReport(namedtuple("WitnessReport", "claim params witness holds")):
    """Outcome of one lemma instance, with a re-checkable witness (a dict, or None)."""

    __slots__ = ()


class SweepResult:
    """Outcome of an exhaustive run of one checker over a parameter box.

    The sweep fills it in as it runs; a report encodes its `_fields`.
    `stats` holds run metadata (counters and timings for the manifest),
    is not one of them, and so never reaches the results.
    """

    _fields = ("claim", "params", "checked", "failures", "notes")
    __slots__ = _fields + ("stats",)

    def __init__(self, claim: str, params: dict) -> None:
        self.claim = claim
        self.params = params
        self.checked = 0
        self.failures: list = []
        self.notes: dict = {}
        self.stats: dict = {}

    @property
    def holds(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# prime windows
# ---------------------------------------------------------------------------


def check_bertrand(n: int, remark: bool = False) -> WitnessReport:
    """Smallest prime in [n, 2n] (or [n, 2n-1] in the tightened mode)."""
    if remark and n < 2:
        raise ValueError("tightened window needs n > 1")
    if n < 1:
        raise ValueError("n must be positive")
    hi = 2 * n - 1 if remark else 2 * n
    prime = PrimeSieve(hi).smallest_prime_in(n, hi)
    return WitnessReport(
        claim="bertrand-remark" if remark else "bertrand",
        params={"n": n},
        witness=None if prime is None else {"prime": prime},
        holds=prime is not None,
    )


def sweep_bertrand(n_max: int, remark: bool = False) -> SweepResult:
    """Exhaustive prime-in-[n,2n] check for 1 <= n <= n_max (2 <= n in remark mode)."""
    primes = PrimeSieve(2 * n_max + 1).primes()
    prime = next(primes)
    result = SweepResult(
        claim="bertrand-remark" if remark else "bertrand",
        params={"n_max": n_max, "window": "[n,2n-1]" if remark else "[n,2n]"},
    )
    for n in range(2 if remark else 1, n_max + 1):
        while prime < n:
            prime = next(primes)
        result.checked += 1
        if prime > (2 * n - 1 if remark else 2 * n):
            result.failures.append({"n": n})
    return result


def greatest_prime_factor_table(limit: int) -> list[int]:
    """gpf[x] = largest prime factor of x (0 for x < 2), for 0 <= x <= limit.

    Each prime of `PrimeSieve` writes itself over its multiples, in
    ascending order, so the largest prime factor is written last.  The
    list keeps 8 bytes per entry; a limit whose build peak would not fit
    in memory raises ValueError before anything is allocated.
    """
    # Live at the peak (p = 2), per entry: the list 8 B, the [2] * (limit // 2)
    # temporary 4 B, the copy of the replaced items that extended-slice
    # assignment holds 4 B, the sieve 1 B.  Measured at limit 10^7: 17.0 B
    # traced by tracemalloc, 17.3 B by VmHWM; charged rounded up.
    require_memory(18 * (limit + 1), f"a prime factor table up to {limit}")
    gpf = [0] * (limit + 1)
    for p in PrimeSieve(max(limit, 2)).primes():
        gpf[p::p] = [p] * (limit // p)
    return gpf


def _window_witness(lo: int, count: int, threshold: int, gpf) -> dict | None:
    """First element of {lo, ..., lo+count-1} with a prime factor >= threshold.

    Largest prime factors come from the table `gpf`, or by trial division
    when it is None.
    """
    for x in range(lo, lo + count):
        p = gpf[x] if gpf is not None else max(_prime_divisors(x), default=0)
        if p >= threshold:
            return {"element": x, "prime": p}
    return None


def check_prime_window(n: int, k: int) -> WitnessReport:
    """Element of {n, ..., n+k-1} with a prime factor >= k+1, given n > k >= 1."""
    if not n > k >= 1:
        raise ValueError("needs n > k >= 1")
    witness = _window_witness(n, k, k + 1, None)
    return WitnessReport("prime-window", {"n": n, "k": k}, witness, witness is not None)


def sweep_prime_window(k_max: int, n_span: int) -> SweepResult:
    """Check every window with 1 <= k <= k_max, k < n <= k + n_span."""
    gpf = greatest_prime_factor_table(k_max + n_span + k_max)
    result = SweepResult("prime-window", {"k_max": k_max, "n_span": n_span})
    for k in range(1, k_max + 1):
        for n in range(k + 1, k + n_span + 1):
            result.checked += 1
            if _window_witness(n, k, k + 1, gpf) is None:
                result.failures.append({"n": n, "k": k})
    return result


def check_large_prime_window(n: int, k: int) -> WitnessReport:
    """Element of {n, ..., n+k} with a prime factor >= 2(k+1), given n >= (k+1)^2.

    The claim is false as stated: {8, 9} = {2^3, 3^2} (n=8, k=1) has no
    prime factor >= 4.  It is the only counterexample with k <= 20 and
    n <= (k+1)^2 + 1000.
    """
    if k < 1:
        raise ValueError("needs k >= 1")
    if n < (k + 1) ** 2:
        raise ValueError("needs n >= (k+1)^2")
    witness = _window_witness(n, k + 1, 2 * (k + 1), None)
    return WitnessReport("large-prime-window", {"n": n, "k": k}, witness, witness is not None)


def sweep_large_prime_window(k_max: int, n_span: int) -> SweepResult:
    """Check every window with 1 <= k <= k_max, (k+1)^2 <= n <= (k+1)^2 + n_span."""
    gpf = greatest_prime_factor_table((k_max + 1) ** 2 + n_span + k_max + 1)
    result = SweepResult("large-prime-window", {"k_max": k_max, "n_span": n_span})
    for k in range(1, k_max + 1):
        for n in range((k + 1) ** 2, (k + 1) ** 2 + n_span + 1):
            result.checked += 1
            if _window_witness(n, k + 1, 2 * (k + 1), gpf) is None:
                result.failures.append({"n": n, "k": k})
    return result


# ---------------------------------------------------------------------------
# lcm lower bound for arithmetic progressions
# ---------------------------------------------------------------------------


def _prime_divisors(x: int) -> list[int]:
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def check_lcm_bound(a: int, b: int, n: int) -> WitnessReport:
    """Exact comparison lcm{a, a+b, ..., a+nb} >= correction * product/(n!).

    The right side is prod_{p | b} p^(v_p(n!)) * (1/n!) * prod_{i=0..n} (a+ib),
    evaluated as an exact rational.  Requires gcd(a, b) = 1.
    """
    if math.gcd(a, b) != 1:
        raise ValueError("progression start and step must be coprime")
    if a < 1 or b < 1 or n < 0:
        raise ValueError("needs a, b >= 1 and n >= 0")
    lhs = lcm_progression(a, b, n)
    rhs = Fraction(math.prod(a + i * b for i in range(n + 1)), math.factorial(n))
    for p in _prime_divisors(b):
        rhs *= p ** factorial_valuation(n, p)
    return WitnessReport(
        claim="lcm-bound",
        params={"a": a, "b": b, "n": n},
        witness={"lhs": lhs, "rhs": rhs},
        holds=lhs >= rhs,
    )


def sweep_lcm_bound(a_max: int, b_max: int, n_max: int) -> SweepResult:
    result = SweepResult("lcm-bound", {"a_max": a_max, "b_max": b_max, "n_max": n_max})
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            if math.gcd(a, b) != 1:
                continue
            for n in range(0, n_max + 1):
                result.checked += 1
                report = check_lcm_bound(a, b, n)
                if not report.holds:
                    result.failures.append(report.params | {"witness": report.witness})
    return result


# ---------------------------------------------------------------------------
# power-sum closed forms
# ---------------------------------------------------------------------------

# Numerator polynomials in m = r+1 shared by both parities; the odd case
# divides by the constant, the even case by the constant times 2^exponent.
_POWER_SUM_FORMS = {
    2: (lambda m: m**3 - m, 6),
    4: (lambda m: 3 * m**5 - 10 * m**3 + 7 * m, 30),
    6: (lambda m: 3 * m**7 - 21 * m**5 + 49 * m**3 - 31 * m, 42),
}


def power_sum_closed_form(r: int, exponent: int) -> Fraction:
    """Closed form for the half-range power sum attached to extent r.

    Even r: sum of i^exponent for i = 1 .. r/2.
    Odd r:  sum of (2i-1)^exponent for i = 1 .. (r+1)/2.
    """
    if r < 1:
        raise ValueError("extent must be positive")
    if exponent not in _POWER_SUM_FORMS:
        raise ValueError(f"unsupported exponent {exponent}; expected one of 2, 4, 6")
    numerator, div = _POWER_SUM_FORMS[exponent]
    return Fraction(numerator(r + 1), div << exponent if r % 2 == 0 else div)


def centered_power_sum_closed(r: int, exponent: int) -> Fraction:
    """Closed form for sum of (i - r/2)^exponent, i = 0..r (both parities)."""
    if r < 0:
        raise ValueError("extent must be nonnegative")
    if exponent not in _POWER_SUM_FORMS:
        raise ValueError(f"unsupported exponent {exponent}; expected one of 2, 4, 6")
    numerator, div = _POWER_SUM_FORMS[exponent]
    return Fraction(numerator(r + 1), div << (exponent - 1))


def centered_power_sum_direct(r: int, exponent: int) -> Fraction:
    """Direct evaluation of sum of (i - r/2)^exponent, i = 0..r."""
    return sum(Fraction(2 * i - r, 2) ** exponent for i in range(r + 1))


def sweep_power_sums(r_max: int) -> SweepResult:
    """Closed form versus running direct sums for every r <= r_max and exponent 2, 4, 6."""
    result = SweepResult("power-sums", {"r_max": r_max, "exponents": list(_POWER_SUM_FORMS)})
    even_sums = {e: 0 for e in _POWER_SUM_FORMS}  # sum of i^e, i = 1..r/2
    odd_sums = {e: 0 for e in _POWER_SUM_FORMS}  # sum of (2i-1)^e, i = 1..(r+1)/2
    for r in range(1, r_max + 1):
        for e in _POWER_SUM_FORMS:
            if r % 2 == 0:
                even_sums[e] += (r // 2) ** e
                direct = even_sums[e]
            else:
                odd_sums[e] += r**e
                direct = odd_sums[e]
            result.checked += 1
            if power_sum_closed_form(r, e) != direct:
                result.failures.append({"r": r, "exponent": e, "direct": direct})
    return result


# ---------------------------------------------------------------------------
# the necessary Diophantine identity and its equivalent forms
# ---------------------------------------------------------------------------


def diophantine_bracket(a: int, w: int) -> int:
    """(2a - 1)(2a + 2w + 1) + 1, the integer bracket of a window (a, w)."""
    return (2 * a - 1) * (2 * a + 2 * w + 1) + 1


def check_necessary_identity(pair: IntervalPair) -> bool:
    """Integer identity every equal-sum pair must satisfy:
    (r+1) * bracket(a2, s) == (s+1) * bracket(a1, r)."""
    a1, r = pair.first.a, pair.first.r
    a2, s = pair.second.a, pair.second.r
    return (r + 1) * diophantine_bracket(a2, s) == (s + 1) * diophantine_bracket(a1, r)


def search_necessary_identity(a_max: int, w_max: int) -> list[tuple[int, int, int, int]]:
    """All (a1, r, a2, s) in the box [1,a_max]^2 x [0,w_max]^2 satisfying
    the necessary identity, in lexicographic order.

    Divided by (r+1)(s+1), the identity reads f(a1, r) = f(a2, s) with
    f(a, w) = bracket(a, w)/(w+1) exact, so each group of windows of equal
    f gives all its ordered pairs, each window with itself included.  A box
    whose grouping would not fit in memory raises ValueError first.
    """
    # Live at the peak, per window: its Fraction and numerator 76-80 B, its
    # dict entry 30-60 B, its one-element list 88 B, its (a, w) tuple 56 B
    # (84 B once w > 256), its trivial solution in the result 80 B.  Measured
    # up to 372 B by tracemalloc and 394 B by VmHWM; charged with headroom.
    windows = a_max * (w_max + 1)
    require_memory(480 * windows, f"the identity search over {windows} windows")
    groups = defaultdict(list)
    for a in range(1, a_max + 1):
        for w in range(w_max + 1):
            groups[Fraction(diophantine_bracket(a, w), w + 1)].append((a, w))
    return sorted(one + other for group in groups.values() for one in group for other in group)


def compute_L(r: int, s: int) -> Fraction:
    """Exact gap term L = s(s+2)/(4(s+1)) - r(r+2)/(4(r+1)).

    Also re-derives L from the alternative split
    (1/4) [ (s+1) - 1/(s+1) - (r+1) + 1/(r+1) ] and checks L < (s+1)/4;
    both facts are identities and a violation raises.
    """
    if r < 0 or s < 0:
        raise ValueError("extents must be nonnegative")
    value = Fraction(s * (s + 2), 4 * (s + 1)) - Fraction(r * (r + 2), 4 * (r + 1))
    alternative = (
        Fraction(s + 1) - Fraction(1, s + 1) - Fraction(r + 1) + Fraction(1, r + 1)
    ) / 4
    if value != alternative:
        raise AssertionError(f"gap-term split mismatch at r={r}, s={s}")
    if not value < Fraction(s + 1, 4):
        raise AssertionError(f"gap-term bound failed at r={r}, s={s}")
    return value


class EquivalenceReport(
    namedtuple(
        "EquivalenceReport",
        "pair integer_form completed_square_form shifted_reciprocal_form",
    )
):
    """Truth values of the three equivalent forms of the necessary identity."""

    __slots__ = ()

    @property
    def equivalent(self) -> bool:
        return self.integer_form == self.completed_square_form == self.shifted_reciprocal_form

    @property
    def holds(self) -> bool:
        return self.integer_form


def check_eq11_equivalence(pair: IntervalPair) -> EquivalenceReport:
    """Exact check that the integer identity, its completed-square form and
    its shifted-reciprocal form all hold or all fail together."""
    a1, r = pair.first.a, pair.first.r
    a2, s = pair.second.a, pair.second.r
    c1 = Fraction(2 * a1 + r, 2)
    c2 = Fraction(2 * a2 + s, 2)

    def completed_square(c: Fraction, w: int) -> Fraction:
        return c * c / (w + 1) - (Fraction(w + 1) - Fraction(1, w + 1)) / 4

    gap = compute_L(r, s)
    return EquivalenceReport(
        pair=pair,
        integer_form=check_necessary_identity(pair),
        completed_square_form=completed_square(c1, r) == completed_square(c2, s),
        shifted_reciprocal_form=(
            Fraction(s + 1) / (c2 * c2) == Fraction(r + 1) / (c1 * c1 + (r + 1) * gap)
        ),
    )


# ---------------------------------------------------------------------------
# the seven-term decomposition of a sum difference
# ---------------------------------------------------------------------------


class DecompositionReport(
    namedtuple(
        "DecompositionReport",
        "pair L terms difference e11 expansion_sums_verified rewrites_verified"
        " bounds hypothesis_failures",
    )
):
    """The seven difference terms of G(a1, r) - G(a2, s) and their checks.

    terms[0..5] are exact closed forms; terms[6] is the exact residual, so
    the seven always sum to the difference by construction.
    ``bounds`` is populated by the positivity chain when all of its
    hypotheses hold; otherwise ``hypothesis_failures`` names what failed.
    ``rewrites_verified`` is None when the necessary identity fails.
    """

    __slots__ = ()

    @property
    def chain_certified(self) -> bool:
        return bool(self.bounds) and all(self.bounds.values()) and not self.hypothesis_failures


def _decomposition_terms(pair: IntervalPair) -> tuple[tuple[Fraction, ...], Fraction]:
    a1, r = pair.first.a, pair.first.r
    a2, s = pair.second.a, pair.second.r
    c1 = Fraction(2 * a1 + r, 2)
    c2 = Fraction(2 * a2 + s, 2)
    m, n = r + 1, s + 1
    t1 = Fraction(m) / c1**2 - Fraction(n) / c2**2
    t2 = Fraction(m**3 - m, 4) / c1**4 - Fraction(n**3 - n, 4) / c2**4
    t3 = Fraction(m**5, 16) / c1**6 - Fraction(n**5, 16) / c2**6
    t4 = Fraction(5, 24) * (Fraction(n**3) / c2**6 - Fraction(m**3) / c1**6)
    t5 = Fraction(7, 48) * (Fraction(m) / c1**6 - Fraction(n) / c2**6)
    t6 = Fraction(1, 64) * (Fraction(m**7) / c1**8 - Fraction(n**7) / c2**8)
    difference = g_exact(pair.first) - g_exact(pair.second)
    t7 = difference - (t1 + t2 + t3 + t4 + t5 + t6)
    return (t1, t2, t3, t4, t5, t6, t7), difference


def _verify_expansion_sums(r: int, s: int) -> bool:
    return all(
        centered_power_sum_direct(w, e) == centered_power_sum_closed(w, e)
        for w in {r, s}
        for e in (2, 4, 6)
    )


def _verify_rewrites(pair: IntervalPair, terms, gap: Fraction) -> bool:
    # Under the necessary identity the leading terms collapse into forms
    # proportional to powers of the gap term; all checks are exact.
    a1, r = pair.first.a, pair.first.r
    a2, s = pair.second.a, pair.second.r
    c1sq = Fraction(2 * a1 + r, 2) ** 2
    c2sq = Fraction(2 * a2 + s, 2) ** 2
    m, n = r + 1, s + 1
    t1_rw = (m * gap / c1sq) * (Fraction(n) / c2sq)
    t12_rw = gap * (gap + Fraction(r * (r + 2), 2 * m)) * Fraction(n * n * m) / (
        c2sq**2 * c1sq
    ) + Fraction(r * (r + 2), 4 * m) * Fraction(n * n * m * m) * gap**2 / (c2sq**2 * c1sq**2)
    t123_rw = (
        Fraction(1, 16)
        * (Fraction(1, n * n) - Fraction(1, m * m))
        * Fraction(n * n * m)
        / (c2sq**2 * c1sq)
        + Fraction(n * n - m * m, 16) * Fraction(n**3 * m) * gap / (c2sq**3 * c1sq)
        + Fraction(r * (r + 2), 4 * m) * Fraction(n * n * m * m) * gap**2 / (c2sq**2 * c1sq**2)
        + Fraction(3 * m**3 * n**3, 16) * gap / (c2sq**3 * c1sq)
        + Fraction(3 * m**4 * n**3, 16) * gap**2 / (c2sq**3 * c1sq**2)
        + Fraction(m**5 * n**3, 16) * gap**3 / (c2sq**3 * c1sq**3)
    )
    return (
        terms[0] == t1_rw
        and terms[0] + terms[1] == t12_rw
        and terms[0] + terms[1] + terms[2] == t123_rw
    )


def taylor_decompose(pair: IntervalPair) -> DecompositionReport:
    """Split G(a1, r) - G(a2, s) into six closed-form terms plus a residual.

    Requires a disjoint pair in canonical order.  The closed forms arise
    from degree-8 expansion of 1/x^2 around each window's half-integer
    center; the centered power sums that justify them are re-verified
    against direct summation for the given extents.
    """
    if not pair.disjoint:
        hint = "one window holds the other" if pair.nested else "reduce it to a disjoint pair first"
        raise ValueError(f"{pair} overlaps; {hint}")
    r, s = pair.first.r, pair.second.r
    terms, difference = _decomposition_terms(pair)
    gap = compute_L(r, s)
    e11 = check_necessary_identity(pair)
    return DecompositionReport(
        pair=pair,
        L=gap,
        terms=terms,
        difference=difference,
        e11=e11,
        expansion_sums_verified=_verify_expansion_sums(r, s),
        rewrites_verified=_verify_rewrites(pair, terms, gap) if e11 else None,
        bounds={},
        hypothesis_failures=(),
    )


# ---------------------------------------------------------------------------
# the positivity chain
# ---------------------------------------------------------------------------


def _chain_hypothesis_failures(pair: IntervalPair) -> tuple[str, ...]:
    """The names of the chain's hypotheses that a disjoint pair fails."""
    a2, s = pair.second.a, pair.second.r
    hypotheses = (
        ("s > r", s > pair.first.r),
        ("necessary-identity", check_necessary_identity(pair)),
        ("a2 >= 4(s+1)^3", a2 >= 4 * (s + 1) ** 3),
    )
    return tuple(name for name, holds in hypotheses if not holds)


def check_positivity_chain(pair: IntervalPair) -> DecompositionReport:
    """Certify the sign chain ruling out equal sums, under its hypotheses.

    Disjoint windows only (ValueError otherwise).  Hypotheses: s > r, the
    necessary identity and a2 >= 4(s+1)^3.  When any fails the report names
    it and no bound is evaluated.  When all hold, every intermediate bound
    and the final positivity of the difference are certified exactly.
    """
    report = taylor_decompose(pair)
    failures = _chain_hypothesis_failures(pair)
    if failures:
        return report._replace(hypothesis_failures=failures)

    a1, r = pair.first.a, pair.first.r
    a2, s = pair.second.a, pair.second.r
    t = report.terms
    c1 = Fraction(2 * a1 + r, 2)
    c2 = Fraction(2 * a2 + s, 2)
    n = s + 1
    head5 = t[0] + t[1] + t[2] + t[3] + t[4]
    head6 = head5 + t[5]
    residual_floor = -Fraction(7, 512 * n) / c2**6 - Fraction(1, 32768 * n**3) / c2**10
    bounds = {
        "head_terms_lower": head5 > Fraction(s - r, 6) / c2**6,
        "term6_lower": t[5] > Fraction(r - s, 512) / c2**6,
        "head_six_lower": head6 > Fraction(s - r, 7) / c2**6,
        "residual_intermediate_lower": t[6]
        > -Fraction(7 * (r + 1) ** 5, 64) / c1**8 - Fraction(n**9, 256) / Fraction(a2) ** 10,
        "residual_lower": t[6] > residual_floor,
        "margin_positive": Fraction(s - r, 7) / c2**6 + residual_floor > 0,
        "total_positive": sum(t) > 0,
        "difference_positive": report.difference > 0,
    }
    return report._replace(bounds=bounds)


# ---------------------------------------------------------------------------
# the unconditional bracket identity
# ---------------------------------------------------------------------------


def check_bracket_identity(
    pair: IntervalPair, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Verdict:
    """Certify the offset-bracket identity that ties the two windows together.

    With A(window) = (4a+2w)(1-2*eta) - 1 + (1-2*eta)^2, B the integer
    brackets and G the exact sums, the identity

        (s+1)*A1 - (r+1)*A2
            = (r+1)*B2 - (s+1)*B1 + 4(r+1)(s+1)(1/G1 - 1/G2)

    holds for every pair of windows (it reduces to the conditional printed
    form exactly when G1 = G2).  It is an algebraic tautology, because
    A = 4(w+1)/G - B exactly for the true eta, so this is a consistency
    test of solve_eta: the left side is bounded from its enclosures, the
    right side is exact.  solve_eta takes eta in closed form from the same
    D = (w+1)^2 + 4(w+1)/G, so this re-checks that closed form end to end;
    the independent check of eta is plain bisection in the test oracles.
    The right side uses the G that each window's solve_eta returns, so
    each window sum is computed once.

    No interval arithmetic is needed.  A(t) = (4a+2w+t)*t - 1 increases
    for t > -(2a+w), and t = 1 - 2*eta lies in (0, 1), so A is largest at
    the low end of eta's enclosure and smallest at its high end.  The left
    side therefore lies between the exact rationals
    (s+1)*A1(eta1.hi) - (r+1)*A2(eta2.lo) and
    (s+1)*A1(eta1.lo) - (r+1)*A2(eta2.hi).  FALSIFIED means the exact
    right side is outside them; CERTIFIED means it is inside and they are
    at most 2^(4 - precision_bits) apart.  Bounds further apart raise
    CertificateError, a guard that the width argument below never reaches.

    One pass: A multiplies the width of t by at most 4a+2w+2, and eta
    enclosures of width 2^-W give the left side a width of at most
    2 * scale * 2^-W, where scale = (s+1)(4a1+2r+2) + (r+1)(4a2+2s+2).
    Working at W = p + bitlen(scale) + 2 bits keeps it below 2^-(p+1).
    """
    a1, r = pair.first.a, pair.first.r
    a2, s = pair.second.a, pair.second.r
    b1 = diophantine_bracket(a1, r)
    b2 = diophantine_bracket(a2, s)
    scale = (s + 1) * (4 * a1 + 2 * r + 2) + (r + 1) * (4 * a2 + 2 * s + 2)
    w = precision_bits + scale.bit_length() + 2
    sol1 = solve_eta(pair.first, w)
    sol2 = solve_eta(pair.second, w)
    eta1, eta2 = sol1.eta, sol2.eta
    rhs = (r + 1) * b2 - (s + 1) * b1 + 4 * (r + 1) * (s + 1) * (1 / sol1.g - 1 / sol2.g)
    low = (s + 1) * _offset_term(a1, r, eta1.hi) - (r + 1) * _offset_term(a2, s, eta2.lo)
    high = (s + 1) * _offset_term(a1, r, eta1.lo) - (r + 1) * _offset_term(a2, s, eta2.hi)
    if not low <= rhs <= high:
        return Verdict.FALSIFIED
    if high - low > Fraction(2) ** (4 - precision_bits):
        raise CertificateError(
            f"bracket identity bounds for {pair} are wider than 2^{4 - precision_bits}"
        )
    return Verdict.CERTIFIED


def _offset_term(a: int, w: int, eta: Fraction) -> Fraction:
    """A = (4a+2w)*t - 1 + t^2 at t = 1 - 2*eta, exactly."""
    t = 1 - 2 * eta
    return (4 * a + 2 * w + t) * t - 1


# ---------------------------------------------------------------------------
# sweeps used by the CLI and the acceptance suite
# ---------------------------------------------------------------------------


def random_disjoint_pairs(count: int, seed: int, max_total: int = 500):
    """Deterministic stream of disjoint pairs with a2 + s <= max_total.

    Each pair costs four draws, r <= 24, s <= 24, a1 <= 100 and then a2,
    each capped so that a disjoint pair still fits; for max_total >= 149
    no cap binds.  The smallest disjoint pair, ([1..1], [2..2]), needs
    max_total >= 2; below that, or for a seed < 0 (whose pairs would be
    those of -seed), ValueError is raised at the call.  The pairs are drawn
    one at a time as they are read, so a sweep holds one, not `count`.
    """
    if max_total < 2:
        raise ValueError(f"no disjoint pair fits under max_total={max_total}; needs >= 2")
    if seed < 0:
        raise ValueError(f"seed {seed} must be >= 0")
    return _disjoint_pairs(random.Random(seed), count, max_total)


def _disjoint_pairs(rng: random.Random, count: int, max_total: int):
    for _ in range(count):
        r = rng.randint(0, min(24, max_total - 2))
        s = rng.randint(0, min(24, max_total - 2 - r))
        a1 = rng.randint(1, min(100, max_total - r - s - 1))
        a2 = rng.randint(a1 + r + 1, max_total - s)
        yield IntervalPair(Interval(a1, r), Interval(a2, s))


def sweep_eta_grid(
    a_max: int, r_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> tuple[SweepResult, SweepResult]:
    """One eta_band_report per window of the (a, r) grid, reported as two sweeps.

    Returns the "eta-enclosure" sweep and the "eta-band" sweep (the band
    verdicts), in that order.  Each window is solved once.  solve_eta
    certifies the enclosure itself (width <= 2^-p and, for r >= 1, strictly
    inside the epsilon bracket) or raises CertificateError, so the
    enclosure sweep counts the windows and records no failure.  Its
    `stats` hold the windows, the largest working bits handed to a square
    root (`working_bits`) and the grid's time (`sweep_s`).  Only a failing
    row builds a Fraction besides its G: the two it reports.

    The quadratic-form upper side is false as stated: it first fails at
    a=1, r=1 (value 2/5, bound 3/8).  On a <= 100, 0 <= r <= 50 it fails
    at 882 of the 5,100 points, all with a <= r; for each r the failing
    starts are a = 1, ..., f(r), with f(r) the nearest integer to
    2(r+1)/3, except f(0) = 0 and f(3) = 2.  The lower side and the
    bracket band hold on that whole grid.
    """
    t0 = time.perf_counter()
    params = {"a_max": a_max, "r_max": r_max, "precision_bits": precision_bits}
    enclosures = SweepResult("eta-enclosure", dict(params))
    band = SweepResult("eta-band", dict(params))
    bits = 0
    for a in range(1, a_max + 1):
        for r in range(0, r_max + 1):
            report = eta_band_report(Interval(a, r), precision_bits)
            bits = max(bits, report.eta.k - 1)
            enclosures.checked += 1
            band.checked += 1
            if not report.all_hold:
                band.failures.append(
                    {
                        "a": a,
                        "r": r,
                        "q_lower": report.q_lower_holds,
                        "q_upper": report.q_upper_holds,
                        "expr_lower": report.expr_lower_holds,
                        "expr_upper": report.expr_upper_holds,
                        "expr_exact": report.expr_exact,
                        "expr_bound": report.expr_bound,
                    }
                )
    sweep_s = round(time.perf_counter() - t0, 6)
    enclosures.stats = {"windows": enclosures.checked, "working_bits": bits, "sweep_s": sweep_s}
    return enclosures, band


def sweep_eta_enclosures(
    a_max: int, r_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> SweepResult:
    """The "eta-enclosure" half of `sweep_eta_grid`."""
    return sweep_eta_grid(a_max, r_max, precision_bits)[0]


def sweep_eta_band(
    a_max: int, r_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> SweepResult:
    """The "eta-band" half of `sweep_eta_grid`: per-side verdicts of each failure."""
    return sweep_eta_grid(a_max, r_max, precision_bits)[1]


def sweep_telescope(n_max: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> SweepResult:
    result = SweepResult("telescope", {"n_max": n_max, "precision_bits": precision_bits})
    for n in range(1, n_max + 1):
        result.checked += 1
        if telescope_check(n, precision_bits) is not Verdict.CERTIFIED:
            result.failures.append({"n": n})
    return result


def sweep_bracket_identity(
    count: int,
    seed: int,
    max_total: int = 200,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> SweepResult:
    result = SweepResult(
        "bracket-identity",
        {"count": count, "seed": seed, "max_total": max_total, "precision_bits": precision_bits},
    )
    for pair in random_disjoint_pairs(count, seed, max_total):
        result.checked += 1
        verdict = check_bracket_identity(pair, precision_bits)
        if verdict is not Verdict.CERTIFIED:
            result.failures.append({"pair": str(pair), "verdict": verdict.value})
    return result


def sweep_decompose(count: int, seed: int, max_total: int = 500) -> SweepResult:
    """taylor_decompose on seeded pairs; a pair fails if its power sums or rewrites do not verify."""
    result = SweepResult("decompose", {"count": count, "seed": seed, "max_total": max_total})
    for pair in random_disjoint_pairs(count, seed, max_total):
        result.checked += 1
        report = taylor_decompose(pair)
        if not report.expansion_sums_verified or report.rewrites_verified is False:
            result.failures.append({"pair": str(pair)})
    return result


def sweep_e11_box(a_max: int, w_max: int) -> SweepResult:
    """Search the box for identity solutions and vet every disjoint one.

    `checked` counts every solution, the a_max*(w_max+1) trivial ones
    (each window with itself) included.  For disjoint nontrivial
    solutions the exact sums must differ; when the chain hypotheses also
    hold the difference must be certified positive through every
    intermediate bound.  `stats` count the box's windows, the nontrivial
    solutions, the disjoint and the chain-eligible ones, and time the
    sweep (`sweep_s`).
    """
    t0 = time.perf_counter()
    result = SweepResult("e11-search", {"a_max": a_max, "w_max": w_max})
    solutions = search_necessary_identity(a_max, w_max)
    result.notes["solutions"] = solutions
    disjoint, eligible = [], []
    for a1, r, a2, s in solutions:
        result.checked += 1
        if (a1, r) == (a2, s):
            continue
        pair = IntervalPair(Interval(a1, r), Interval(a2, s))
        equivalence = check_eq11_equivalence(pair)
        if not equivalence.equivalent or not equivalence.holds:
            result.failures.append({"quad": (a1, r, a2, s), "reason": "forms disagree"})
            continue
        if a1 + r >= a2:
            continue
        disjoint.append((a1, r, a2, s))
        if g_exact(pair.first) == g_exact(pair.second):
            result.failures.append({"quad": (a1, r, a2, s), "reason": "equal sums"})
            continue
        if not _chain_hypothesis_failures(pair):
            eligible.append((a1, r, a2, s))
            report = check_positivity_chain(pair)
            if not report.chain_certified:
                result.failures.append(
                    {"quad": (a1, r, a2, s), "reason": "chain bound failed", "bounds": report.bounds}
                )
    result.notes["disjoint"] = disjoint
    result.notes["chain_eligible"] = eligible
    windows = a_max * (w_max + 1)  # each window with itself is one trivial solution
    result.stats = {"windows": windows, "nontrivial_solutions": result.checked - windows}
    result.stats |= {"disjoint": len(disjoint), "chain_eligible": len(eligible)}
    result.stats["sweep_s"] = round(time.perf_counter() - t0, 6)
    return result
