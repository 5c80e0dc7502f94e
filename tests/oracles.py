"""Brute-force oracles, kept deliberately independent of the library paths.

Each oracle recomputes a quantity by the most literal route available
(multiply out factorials, fold pairwise lcms, bisect on plain Fractions,
trial-divide, enumerate full boxes) so the tests never compare an
implementation against itself.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import numpy as np


def factorial_valuation_bruteforce(n: int, p: int) -> int:
    """Multiply out n! and divide by p repeatedly."""
    value = math.factorial(n)
    count = 0
    while value % p == 0:
        value //= p
        count += 1
    return count


def lcm_fold(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def sqrt_bisect(x: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bracket sqrt(x) by bisection on y^2 - x with plain Fractions."""
    lo, hi = Fraction(0), max(Fraction(1), Fraction(x))
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid * mid <= x:
            lo = mid
        else:
            hi = mid
    return lo, hi


def eta_bisect(a: int, r: int, iterations: int = 90) -> tuple[Fraction, Fraction]:
    """Bracket the product-form offset by bisecting the quadratic directly.

    Independent route: the quadratic is evaluated with Fraction arithmetic
    (no integer rescaling) and the initial bracket is the crude (0, 1/2).
    """
    s = sum(Fraction(1, (a + i) ** 2) for i in range(r + 1))

    def q(x: Fraction) -> Fraction:
        return s * x * x - s * (2 * a + r + 1) * x + s * a * (a + r + 1) - (r + 1)

    lo, hi = Fraction(0), Fraction(1, 2)
    assert q(lo) > 0 > q(hi)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if q(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def eta_closed_form_ends(a: int, r: int, precision_bits: int) -> tuple[Fraction, Fraction]:
    """eta's enclosure by the Fraction closed form: D = (r+1)^2 + 4(r+1)/G as
    a Fraction, its root rounded down and up at w + 1 bits with `isqrt`
    (w = max(p + 8, 2*bitlen(a+r) + 8)), and ends (2a+r+1 - root)/2."""
    g = window_sum_direct(a, r)
    d = (r + 1) ** 2 + 4 * (r + 1) / g
    scale = 2 ** (max(precision_bits + 8, 2 * (a + r).bit_length() + 8) + 1)
    root_lo = Fraction(math.isqrt(math.floor(d * scale * scale)), scale)
    root_hi = root_lo if root_lo**2 == d else root_lo + Fraction(1, scale)
    return (2 * a + r + 1 - root_hi) / 2, (2 * a + r + 1 - root_lo) / 2


def disjoint_pairs_by_rejection(count: int, seed: int, max_total: int) -> list[tuple]:
    """(a1, r, a2, s) drawn from r, s <= 24, a1 <= 100, redrawn until they fit.

    The rejection loop that once generated the library's seeded pair
    stream; it loops forever below max_total = 2.
    """
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        r = rng.randint(0, 24)
        s = rng.randint(0, 24)
        a1 = rng.randint(1, 100)
        low = a1 + r + 1
        high = max_total - s
        if low > high:
            continue
        pairs.append((a1, r, rng.randint(low, high), s))
    return pairs


def direct_half_power_sum(r: int, exponent: int) -> int:
    """Literal evaluation of the parity-split power sums."""
    if r % 2 == 0:
        return sum(i**exponent for i in range(1, r // 2 + 1))
    return sum((2 * i - 1) ** exponent for i in range(1, (r + 1) // 2 + 1))


def window_sum_direct(a: int, r: int, exponent: int = 2) -> Fraction:
    """Left-fold term-by-term sum (no divide and conquer)."""
    total = Fraction(0)
    for k in range(a, a + r + 1):
        total += Fraction(1, k**exponent)
    return total


def g_mod(a: int, r: int, p: int, exponent: int = 2) -> int:
    """Window sum of 1/k^exponent, k = a..a+r, modulo p, term by term.

    Each term's inverse comes from pow(k, -exponent, p).  p must be prime
    (checked by trial division) and exceed a + r, so that every term is
    invertible; the result is then the exact sum reduced mod p.
    """
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"modulus {p} is not prime")
    if p <= a + r:
        raise ValueError(f"modulus {p} divides a term of [{a}..{a + r}]")
    return sum(pow(k, -exponent, p) for k in range(a, a + r + 1)) % p


def split_small_factors(x: int, bound: int) -> tuple[dict[int, int], int]:
    """Trial-divide x by every d in [2, bound), smallest first.

    Returns the exponents of the primes found and the cofactor left over;
    the cofactor exceeds 1 exactly when x has a prime factor >= bound.
    """
    exponents: dict[int, int] = {}
    for d in range(2, bound):
        while x % d == 0:
            exponents[d] = exponents.get(d, 0) + 1
            x //= d
    return exponents, x


def large_prime_window_failures(k_max: int, n_span: int) -> list[dict]:
    """Windows {n, ..., n+k} with no element having a prime factor >= 2(k+1).

    Scans 1 <= k <= k_max, (k+1)^2 <= n <= (k+1)^2 + n_span in the same
    order as the library sweep; an element passes when trial division by
    every d < 2(k+1) leaves a cofactor above 1.
    """
    out = []
    for k in range(1, k_max + 1):
        for n in range((k + 1) ** 2, (k + 1) ** 2 + n_span + 1):
            if all(split_small_factors(x, 2 * (k + 1))[1] == 1 for x in range(n, n + k + 1)):
                out.append({"n": n, "k": k})
    return out


def quadratic_band_value(a: int, r: int) -> Fraction:
    """E = (4a+2r)t - 1 + t^2 at t = 1 - 2*eta, exactly.

    eta solves (a - eta)(a + r + 1 - eta) = (r+1)/G(a, r).  Substituting
    eta = (1 - t)/2 gives (2a - 1 + t)(2a + 2r + 1 + t) = 4(r+1)/G, whose
    expansion is E = 4(r+1)/G - (4a^2 + 4ar - 2r).  G is the left fold
    window_sum_direct.
    """
    return 4 * Fraction(r + 1) / window_sum_direct(a, r) - (4 * a * a + 4 * a * r - 2 * r)


def quadratic_band_failures(a_max: int, r_max: int) -> dict[str, list[tuple]]:
    """Grid points where |E| < (2r+1)/(4(a+r)) fails, split by side.

    Scans 1 <= a <= a_max, 0 <= r <= r_max in the library sweep's order and
    returns {"lower": [...], "upper": [...]}, each entry (a, r, E, bound).
    """
    out: dict[str, list[tuple]] = {"lower": [], "upper": []}
    for a in range(1, a_max + 1):
        for r in range(0, r_max + 1):
            value = quadratic_band_value(a, r)
            bound = Fraction(2 * r + 1, 4 * (a + r))
            if not -value < bound:
                out["lower"].append((a, r, value, bound))
            if not value < bound:
                out["upper"].append((a, r, value, bound))
    return out


def quadratic_band_bisection_enclosure(a: int, r: int) -> tuple[Fraction, Fraction]:
    """Bracket E from the eta_bisect bracket, without the identity above.

    E(t) = (4a+2r)t - 1 + t^2 increases for t > -(2a+r), and eta in
    (0, 1/2) puts t = 1 - 2*eta in (0, 1), so eta in [lo, hi] maps to
    E in [E(1 - 2hi), E(1 - 2lo)].
    """
    lo, hi = eta_bisect(a, r)

    def e(t: Fraction) -> Fraction:
        return (4 * a + 2 * r) * t - 1 + t * t

    return e(1 - 2 * hi), e(1 - 2 * lo)


def e11_quadruple_loop(a_max: int, w_max: int) -> list[tuple[int, int, int, int]]:
    """Literal four-nested-loop enumeration of identity solutions."""
    out = []
    for a1 in range(1, a_max + 1):
        for r in range(0, w_max + 1):
            lhs_base = (2 * a1 - 1) * (2 * a1 + 2 * r + 1) + 1
            for a2 in range(1, a_max + 1):
                for s in range(0, w_max + 1):
                    if (r + 1) * ((2 * a2 - 1) * (2 * a2 + 2 * s + 1) + 1) == (s + 1) * lhs_base:
                        out.append((a1, r, a2, s))
    return out


def e11_box_vectorized(a_max: int, w_max: int) -> list[tuple[int, int, int, int]]:
    """Exhaustive box enumeration with the start axes vectorized.

    Still a full scan of all a_max^2 * (w_max+1)^2 quadruples, just fast
    enough to cover the acceptance box.
    """
    starts = np.arange(1, a_max + 1, dtype=np.int64)
    extents = np.arange(0, w_max + 1, dtype=np.int64)
    bracket = (2 * starts[:, None] - 1) * (
        2 * starts[:, None] + 2 * extents[None, :] + 1
    ) + 1  # [start, extent]
    out = []
    for r in range(w_max + 1):
        for s in range(w_max + 1):
            eq = ((s + 1) * bracket[:, r])[:, None] == ((r + 1) * bracket[:, s])[None, :]
            for i, j in zip(*np.nonzero(eq)):
                out.append((int(starts[i]), r, int(starts[j]), s))
    out.sort()
    return out


def forced_first_modulus(bits: int) -> int:
    """The smallest prime above 3 * 2^(bits - 2), which has `bits` bits.

    A search's first residues repeat by chance once a gap block holds
    about 2^(bits / 2) windows, so with this prime first and 62-bit ones
    after it, a search at a modest bound runs the screen's second pass.
    Primality by strong probable-prime tests to the first twelve prime
    bases, which decide every number below 3.3 * 10^24.
    """

    def strong_probable_prime(n: int, base: int) -> bool:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        x = pow(base, d, n)
        if x in (1, n - 1):
            return True
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    candidate = 3 << (bits - 2)
    while True:
        candidate += 1
        if all(strong_probable_prime(candidate, base) for base in bases):
            return candidate


def exact_collision_groups(n_max: int, exponent: int = 2) -> list[list[tuple[int, int]]]:
    """All-exact brute force: group every window by its exact sum.

    Returns the nontrivial groups as sorted (start, end) lists.
    """
    groups: dict[Fraction, list[tuple[int, int]]] = {}
    for a in range(1, n_max + 1):
        acc = Fraction(0)
        for end in range(a, n_max + 1):
            acc += Fraction(1, end**exponent)
            groups.setdefault(acc, []).append((a, end))
    return sorted(members for members in groups.values() if len(members) > 1)


def _trial_prime(x: int) -> bool:
    return x > 1 and all(x % d for d in range(2, math.isqrt(x) + 1))


def screen_levels(n: int, exponent: int = 2) -> list[dict]:
    """The partitioned screen's levels, end by end, with trial-division primes.

    From top = n down while top > 1: with q_1 the smallest prime in
    (top/2, top], each end b >= q_1 takes the windows [a, b] with a <= q,
    q the level's largest prime <= b, into the end block of q, and those
    with a > q into the gap windows.  The probes are the windows inside
    [1, q_1 - 1] shorter than the longest gap window; the next level has
    top = q_1 - 1.

    The rule: the threshold t is the smallest prime p with
    p > 2 * (top // p) and p above the longest gap window, and x in
    [1, top] is marked if a prime factor p >= t of x has k -> k^exponent
    mod p injective on 1..top // p, checked pair by pair at every
    exponent.  Returns one dict per level: its top, end block sizes by
    prime, the longest gap window's length, the gap and probe windows
    before the rule (`gap_total`, `probe_total`), the threshold, the
    marked integers, and the gap windows and probes that hold no marked
    integer (`gap_windows`, `probe_windows`), counted window by window.
    """
    levels = []
    top = n
    while top > 1:
        first = next(q for q in range(top // 2 + 1, top + 1) if _trial_prime(q))
        ends: dict[int, int] = {}
        gaps = longest = 0
        for b in range(first, top + 1):
            if _trial_prime(b):
                q = b
            ends[q] = ends.get(q, 0) + q
            gaps += b - q
            longest = max(longest, b - q)
        probes = sum(first - length for length in range(1, longest))
        threshold = next(
            p
            for p in range(longest + 1, top + 2)
            if p > top or (_trial_prime(p) and p > 2 * (top // p))
        )

        def usable(p: int) -> bool:
            powers = [pow(k, exponent, p) for k in range(1, top // p + 1)]
            return all(powers[i] != powers[j] for i in range(len(powers)) for j in range(i))

        marking = [p for p in range(threshold, top + 1) if _trial_prime(p) and usable(p)]
        marked = {x for x in range(1, top + 1) if any(x % p == 0 for p in marking)}
        kept = [0, 0]
        for side, (lo, hi, cap) in enumerate(((first + 1, top, longest), (1, first - 1, longest - 1))):
            for a in range(lo, hi + 1):
                # [a, b] is kept while b stays in range and meets no marked integer or prime
                b = a
                while b <= min(hi, a + cap - 1) and b not in marked and b not in ends:
                    kept[side] += 1
                    b += 1
        levels.append(
            {
                "top": top,
                "ends": ends,
                "longest_gap": longest,
                "gap_total": gaps,
                "probe_total": probes,
                "threshold": threshold,
                "marked": marked,
                "gap_windows": kept[0],
                "probe_windows": kept[1],
            }
        )
        top = first - 1
    return levels


def screen_blocks(
    n: int, exponent: int = 2, rule: bool = True
) -> list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
    """The partitioned screen's blocks for the bound n, window by window
    from `screen_levels`, as (own, probes) lists of windows (a, r).

    A window [a, b] belongs to the first level, from the top, whose first
    prime q_1 is at most b.  If it holds none of that level's primes it is
    own in the level's gap block; if it holds one, it is an end-block
    window, and like [1, 1], which has no level, it is own in no block.
    At each level above its own it is a probe of the gap block if it is
    shorter than the level's longest gap window.  With `rule`, a window
    that holds an integer the level marks is neither own nor a probe of
    that level's block.
    """
    levels = screen_levels(n, exponent)
    for level in levels:
        # marked_up_to[x] counts the marked integers up to x
        level["marked_up_to"] = list(accumulate((x in level["marked"] for x in range(n + 1))))
    blocks: dict = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            for level in levels:
                primes = list(level["ends"])
                marked_up_to = level["marked_up_to"]
                free = not rule or marked_up_to[b] == marked_up_to[a - 1]
                if b >= primes[0]:
                    if free and not any(a <= q <= b for q in primes):
                        blocks.setdefault(("gap", primes[0]), ([], []))[0].append((a, b - a))
                    break
                if free and b - a + 1 < level["longest_gap"]:
                    blocks.setdefault(("gap", primes[0]), ([], []))[1].append((a, b - a))
    return list(blocks.values())


def block_screen_counts(n: int, moduli: tuple[int, ...], exponent: int = 2) -> dict[str, int]:
    """The search's screen counters, block by block over `screen_blocks`.

    duplicate_keys: per block, the distinct residues mod moduli[0] that
    two or more of its windows share, own windows or probes.  screen_groups,
    largest_group and exact_confirmations: per block, the classes of
    windows that agree modulo every prime and hold two own windows, or one
    and a probe, and their sizes.  A window counts once in its own block
    and once more for each gap block it probes.
    """
    residues = {
        window: tuple(value.numerator * pow(value.denominator, -1, p) % p for p in moduli)
        for window, value in window_sums(n, exponent).items()
    }
    counts = dict.fromkeys(
        ("duplicate_keys", "screen_groups", "largest_group", "exact_confirmations"), 0
    )
    for own, probes in screen_blocks(n, exponent):
        first_counts = Counter(residues[window][0] for window in (*own, *probes))
        counts["duplicate_keys"] += sum(1 for count in first_counts.values() if count > 1)
        classes: dict[tuple[int, ...], list[int]] = {}
        for side, windows in enumerate((own, probes)):
            for window in windows:
                classes.setdefault(residues[window], [0, 0])[side] += 1
        for own_count, probe_count in classes.values():
            if own_count > 1 or (own_count and probe_count):
                counts["screen_groups"] += 1
                counts["largest_group"] = max(counts["largest_group"], own_count + probe_count)
                counts["exact_confirmations"] += own_count + probe_count
    return counts


def window_sums(n_max: int, exponent: int = 2) -> dict[tuple[int, int], Fraction]:
    """Exact sum of every window (a, r) inside [1, n_max].

    Each start's sums are the left fold of `window_sum_direct`, extended
    one term at a time, so all of them cost one addition each.
    """
    sums = {}
    for a in range(1, n_max + 1):
        value = Fraction(0)
        for r in range(n_max - a + 1):
            value += Fraction(1, (a + r) ** exponent)
            sums[a, r] = value
    return sums


def screen_collision_pairs(
    n_max: int, moduli: tuple[int, ...], exponent: int = 2
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every pair of windows whose sums agree modulo every prime in `moduli`.

    Each window's sum comes from the left fold `window_sums` and is
    reduced as numerator * denominator^-1 mod p: no prefix arrays, no
    numpy.  Pairs are ((a, r), (a', r')) with (a, r) < (a', r'), sorted.
    """
    by_print: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for window, value in window_sums(n_max, exponent).items():
        residues = tuple(value.numerator * pow(value.denominator, -1, p) % p for p in moduli)
        by_print.setdefault(residues, []).append(window)
    return sorted(
        (members[i], members[j])
        for members in by_print.values()
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )


def chain_bound_right_sides(a1: int, r: int, a2: int, s: int) -> dict[str, Fraction]:
    """The right side of each of the positivity chain's bounds, by name.

    Written in powers of the centers c1 = (2a1+r)/2 and c2 = (2a2+s)/2
    themselves, as the chain states them (c2^6, c2^10, c1^8), not in
    their squares; m = r+1 and n = s+1.
    """
    c1, c2 = Fraction(2 * a1 + r, 2), Fraction(2 * a2 + s, 2)
    m, n = r + 1, s + 1
    return {
        "head_terms_lower": Fraction(n - m, 6) / c2**6,
        "term6_lower": Fraction(m - n, 512) / c2**6,
        "head_six_lower": Fraction(n - m, 7) / c2**6,
        "residual_intermediate_lower": -Fraction(7 * m**5, 64) / c1**8
        - Fraction(n**9, 256) / Fraction(a2) ** 10,
        "residual_lower": -Fraction(7, 512 * n) / c2**6 - Fraction(1, 32768 * n**3) / c2**10,
    }


def decomposition_terms_reference(a1: int, r: int, a2: int, s: int) -> list[Fraction]:
    """Literal transcription of the six closed-form difference terms.

    Written against the displayed formulas, term by term, with no shared
    helpers, to cross-check the library's arrangement.
    """
    c1 = Fraction(a1) + Fraction(r, 2)
    c2 = Fraction(a2) + Fraction(s, 2)
    t1 = Fraction(r + 1) / c1**2 - Fraction(s + 1) / c2**2
    t2 = Fraction((r + 1) ** 3 - (r + 1)) / (4 * c1**4) - Fraction(
        (s + 1) ** 3 - (s + 1)
    ) / (4 * c2**4)
    t3 = Fraction((r + 1) ** 5) / (16 * c1**6) - Fraction((s + 1) ** 5) / (16 * c2**6)
    t4 = Fraction(5, 24) * (
        Fraction((s + 1) ** 3) / c2**6 - Fraction((r + 1) ** 3) / c1**6
    )
    t5 = Fraction(7, 48) * (Fraction(r + 1) / c1**6 - Fraction(s + 1) / c2**6)
    t6 = Fraction(1, 64) * (
        Fraction((r + 1) ** 7) / c1**8 - Fraction((s + 1) ** 7) / c2**8
    )
    return [t1, t2, t3, t4, t5, t6]
