"""The search's residue screen, block by block.

The windows are split by the valuation argument of Erdős and Niven.  A
prime q in (M/2, M] divides at most one term of a window inside [1, M],
so the q-adic valuation of the window's sum is -e (e the exponent) if the
window holds q and at least 0 if not: two windows that q separates never
have equal sums.  `partition` splits the windows level by level, from
M = N down, with q_1 < ... < q_k the primes in (M/2, M]:

* the end block of q_j, the windows [a, b] with a <= q_j <= b < q_{j+1}
  (q_{k+1} = M + 1), needs no screen (below);
* the gap windows, which lie above q_1 and hold none of the primes, are
  screened together, and against the probe windows: those inside
  [1, q_1 - 1] that are shorter than the longest gap window.  A probe ends
  before every gap window starts, so each of its terms is larger, and it
  can equal a gap window only if it has fewer terms;
* the windows inside [1, q_1 - 1] form the next level, M = q_1 - 1.

By Bertrand's postulate every level down to M = 2 has such a prime, and
q_1 = 2 at the last one, so the levels take every window but [1, 1].
That one needs no block: at M = 2 the prime 2 separates it from [1, 2]
and [2, 2], and at every higher level it is either separated by valuation
or a probe.

An end block needs no screen.  Take two of its windows [a, b] and
[a', b'] with equal sums and a < a'.  Then b < b', or one holds the
other.  Removing the overlap leaves the disjoint windows [a, a' - 1] and
[b + 1, b'], whose sums are equal too.  The later one lies strictly
between q_j and q_{j+1}: a gap window.  The earlier one must have fewer
terms, or size separates the pair; if it holds a prime of the level,
valuation does; if not, it is a gap window or a probe.  Either way the
gap block screens the reduced pair.  So an empty list of exact
collisions still certifies every window: an equal pair inside an end
block shows up as the disjoint pair it reduces to.

The same argument holds for more primes than those in (M/2, M].  Let a
window hold exactly one multiple kp of a prime p.  Then p^e times its
sum is k^-e mod p, and two windows holding k1*p and k2*p differ unless
k1^e = k2^e mod p.  With t(M) the smallest prime p > 2*floor(M/p) that
exceeds the longest gap window, every p >= t(M) meets at most one
integer of a gap window or probe, and k -> k^e mod p is injective on
1..floor(M/p) for e <= 2 (k1 + k2 < p); for e >= 3 a prime whose powers
are not injective there is left out.  Call an integer of [1, M] marked if
it has such a prime factor.  A gap window or probe holding a marked
integer is told apart from every other window of its block but one
holding the same multiple; those two overlap, and removing the overlap
leaves a pair told apart the same way or made of unmarked integers.  So
a gap block screens only the windows of unmarked integers.  `Level`
marks them in one byte per integer and walks the maximal runs of
unmarked integers; memory is set by the largest gap block's unmarked
windows, not by the N(N+1)/2 windows.  `Level` also counts the windows
the rule drops, from the marks by a route of its own, and the fill
checks that its gap windows and probes are the ones it wrote plus those.

Inside a gap block `BlockScreen` writes the residues modulo the first
prime of the unmarked gap windows and probes into one list, one
comprehension per run, read off the first modulus' prefix array, and
sorts it once.  Only if a residue repeats does it walk the same runs
again, keep the windows whose first residue is one of the repeated
values, and sum only those exactly; each sum's residues modulo every
prime are its fingerprint, as no prime above N divides its denominator.
Two probes are compared one level down, so the probes are searched only
for the repeated residues that a gap window holds.  Everything runs on
the standard library; `search` imports this module when it runs, so the
other subcommands do not compile it.
"""

from __future__ import annotations

import re
import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations, compress, islice
from operator import eq

from .kernel import PrimeSieve, require_memory
from .sums import Interval, IntervalPair

# Residue tuple of one window across the screening moduli.  Equal exact
# sums imply equal fingerprints (each component is the sum mod p).
Fingerprint = tuple[int, ...]

# Bytes charged per screened window of the largest gap block: its residue's
# list slot (8), its int object (36, which the allocator rounds up to 48)
# and half a slot of the sort's merge scratch (4).  Per integer up to N: the
# prefix array's entry (8), every level's marks (under 2 together) and the
# prime list (40 a prime, under 5 an integer from N = 10^4 up).
_WINDOW_BYTES = 60
_INTEGER_BYTES = 16

_UNMARKED = re.compile(rb"\x00+")
_SPAN = re.Match.span
_BIT = bytes.maketrans(b"\x00\x01", b"01")


def _bits(flags: bytes) -> int:
    """The 0/1 bytes `flags` as an int whose bit i is flags[i]."""
    return int(flags.translate(_BIT)[::-1], 2) if flags else 0


def _holding(marks: int, bars: int, size: int, longest: int) -> int:
    """How many windows of at most `longest` of `size` integers hold a bit
    of `marks` and none of `bars` (bit i flags the i-th integer)."""
    held = barred = count = 0
    for length in range(1, min(longest, size) + 1):
        held |= marks >> (length - 1)
        barred |= bars >> (length - 1)
        count += (held & ~barred & ((1 << (size - length + 1)) - 1)).bit_count()
    return count


def _windows(run: int, longest: int) -> int:
    """How many windows of at most `longest` integers a run of `run` holds."""
    k = min(run, longest)
    return k * (run + 1) - k * (k + 1) // 2


def _injective(p: int, count: int, exponent: int) -> bool:
    """Whether k -> k^exponent mod p is injective on 1..count."""
    return len({pow(k, exponent, p) for k in range(1, count + 1)}) == count


class Level:
    """The windows inside [1, top] that are not inside [1, q_1 - 1].

    `primes` holds q_1 < ... < q_k, the primes in (top/2, top].
    `longest_gap` is the most integers strictly between q_j and q_{j+1}
    (q_{k+1} = top + 1), the length of the longest gap window.
    `end_windows` counts the end blocks' windows, `gap_total` and
    `probe_total` the gap windows and probes before the rule, `dropped`
    those of them that hold a marked integer, and `gap_windows` and
    `probe_windows` the rest, the windows the block screens.

    `marks[x]` is 1 for a marked integer x of [1, top] and for the level's
    primes, which bound the gap windows.  `runs(side)` gives the maximal
    runs of unmarked integers of the gap windows (side 0, above q_1) or of
    the probes (side 1, below q_1).
    """

    def __init__(self, top: int, primes: list[int], sieved: list[int], exponent: int):
        self.top, self.primes = top, primes
        bounds = primes[1:] + [top + 1]
        gaps = [bound - q - 1 for q, bound in zip(primes, bounds)]
        self.longest_gap = longest = max(gaps)
        self.end_windows = sum(q * (bound - q) for q, bound in zip(primes, bounds))
        self.gap_total = sum(g * (g + 1) // 2 for g in gaps)
        shorter = max(longest - 1, 0)
        self.probe_total = shorter * primes[0] - shorter * (shorter + 1) // 2

        # t(top): the first sieved prime p > 2 * (top // p) above the longest gap
        first, last = bisect_right(sieved, longest), bisect_right(sieved, top)
        while first < last and sieved[first] <= 2 * (top // sieved[first]):
            first += 1
        self.marks = marks = bytearray(top + 1)
        ones = memoryview(b"\x01" * (top // sieved[first] if first < last else 0))
        for p in islice(sieved, first, last):
            if exponent <= 2 or _injective(p, top // p, exponent):
                marks[p::p] = ones[: top // p]
        for q in primes:
            marks[q] = 1

        # the windows the rule drops, counted from the marks apart from the runs
        q1 = primes[0]
        bars = bytearray(top - q1)
        for q in primes[1:]:
            bars[q - q1 - 1] = 1
        gap_dropped = _holding(_bits(marks[q1 + 1 :]), _bits(bars), top - q1, longest)
        self.dropped = gap_dropped + _holding(_bits(marks[1:q1]), 0, q1 - 1, shorter)
        self.gap_windows, self.probe_windows = (self._kept(side) for side in (0, 1))

    def _side(self, side: int) -> tuple[int, int, int]:
        """(start, end, longest): the gap windows (side 0) are taken from
        q_1 + 1..top and the probes (side 1) from 1..q_1 - 1, the integers
        start..end - 1, and hold at most `longest` integers."""
        q1, longest = self.primes[0], self.longest_gap
        if side == 0:
            return q1 + 1, self.top + 1, longest
        # probes are shorter than the longest gap window: none if that has one integer
        return 1, q1 if longest > 1 else 1, longest - 1

    def _kept(self, side: int) -> int:
        """How many windows of a side hold no marked integer, by run length."""
        start, end, longest = self._side(side)
        lengths = Counter(map(len, _UNMARKED.findall(self.marks, start, end)))
        return sum(count * _windows(run, longest) for run, count in lengths.items())

    def runs(self, side: int):
        """(longest, spans) of a side: the most integers of one of its
        windows, and its maximal runs lo..end - 1 of unmarked integers, as
        (lo, end)."""
        start, end, longest = self._side(side)
        return longest, map(_SPAN, _UNMARKED.finditer(self.marks, start, end))


def partition(n: int, exponent: int) -> list[Level]:
    """The screen's levels for the bound n, from top = n down to top = 2.

    Asks for the per-integer term of `memory_charge` before it builds its
    prime list and its levels' marks, and checks that the end blocks and
    gap windows of the levels, with [1, 1], are the n(n+1)/2 windows."""
    require_memory(_INTEGER_BYTES * (n + 1), f"the screen's arrays up to {n}")
    sieved = list(PrimeSieve(n).primes())
    levels = []
    top = n
    while top > 1:
        lo, hi = bisect_right(sieved, top // 2), bisect_right(sieved, top)
        levels.append(Level(top, sieved[lo:hi], sieved, exponent))
        top = sieved[lo] - 1
    covered = sum(level.end_windows + level.gap_total for level in levels) + 1
    windows = n * (n + 1) // 2
    assert covered == windows, f"the levels cover {covered} windows, not {windows}"
    return levels


def memory_charge(levels: list[Level], n: int) -> tuple[int, int]:
    """(windows the largest gap block screens, bytes the screen needs) for
    the bound n: `_WINDOW_BYTES` per window of that block, and
    `_INTEGER_BYTES` per integer up to n."""
    largest = max(level.gap_windows + level.probe_windows for level in levels)
    return largest, _WINDOW_BYTES * largest + _INTEGER_BYTES * (n + 1)


def _pairs(own: list[Interval], probes: list[Interval]) -> list[IntervalPair]:
    """Pairs within `own`, and of `own` with `probes`; never of two probes."""
    return [IntervalPair(first, second) for first, second in combinations(own, 2)] + [
        IntervalPair(first, second) for first in own for second in probes
    ]


class BlockScreen:
    """Both passes over the gap blocks, and what they found.

    `prefix` holds the prefix residues modulo the first of the moduli, and
    `exact_sum(interval)` gives a window's exact sum as a Fraction; the
    caller supplies both.
    """

    def __init__(self, moduli: tuple[int, ...], prefix, exact_sum):
        self.moduli, self.prefix, self.exact_sum = moduli, prefix, exact_sum
        self.fill_s = self.sort_s = self.confirm_s = 0.0
        self.duplicate_keys = 0
        self.group_sizes: list[int] = []
        self.screen_pairs: list[IntervalPair] = []
        self.exact_pairs: list[IntervalPair] = []

    def gap_block(self, level: Level) -> int:
        """Screen the level's gap windows, among themselves and against its
        probes; returns how many windows the fill wrote."""
        t0 = time.perf_counter()
        p, prefix = self.moduli[0], self.prefix
        keys: list[int] = []
        for side in (0, 1):
            longest, spans = level.runs(side)
            for lo, end in spans:
                if end - lo == 1:  # most runs are one integer: skip the comprehension
                    keys.append((prefix[lo] - prefix[lo - 1]) % p)
                    continue
                # column[i] = prefix[lo - 1 + i], so that window [lo + i, lo + j - 1]
                # sums to column[j] - column[i]
                column = prefix[lo - 1 : end].tolist()
                keys += [
                    (b - a) % p for i, a in enumerate(column, 1) for b in column[i : i + longest]
                ]
        size = len(keys)
        assert size == level.gap_windows + level.probe_windows, (
            f"the runs hold {size} windows, not {level.gap_windows + level.probe_windows}"
        )
        assert size + level.dropped == level.gap_total + level.probe_total, (
            f"{size} screened and {level.dropped} dropped windows are not the level's "
            f"{level.gap_total + level.probe_total} gap windows and probes"
        )
        t1 = time.perf_counter()
        keys.sort()
        # the values that occur more than once, each key against the next
        repeated = set(compress(keys, map(eq, keys, islice(keys, 1, None))))
        del keys
        t2 = time.perf_counter()
        self.fill_s += t1 - t0
        self.sort_s += t2 - t1
        if repeated:
            self._confirm(repeated, level)
        return size

    def _confirm(self, repeated: set[int], level: Level) -> None:
        """Group the level's windows whose first residue is repeated by full
        fingerprint, and confirm every group exactly."""
        t0 = time.perf_counter()
        self.duplicate_keys += len(repeated)
        p = self.moduli[0]
        # fingerprint -> exact sum -> (gap windows, probes) with that sum
        by_print: dict[Fingerprint, dict[Fraction, tuple[list[Interval], list[Interval]]]] = {}
        for side in (0, 1):
            longest, spans = level.runs(side)
            for lo, end in spans:
                column = self.prefix[lo - 1 : end].tolist()
                hits = [
                    Interval(lo + i, r)
                    for i, a in enumerate(column)
                    for r, b in enumerate(column[i + 1 : i + 1 + longest])
                    if (b - a) % p in repeated
                ]
                for interval in hits:
                    value = self.exact_sum(interval)
                    fingerprint = tuple(
                        value.numerator * pow(value.denominator, -1, q) % q for q in self.moduli
                    )
                    by_value = by_print.setdefault(fingerprint, {})
                    by_value.setdefault(value, ([], []))[side].append(interval)
            # two probes are compared one level down, so a probe is searched
            # only for a first residue that one of the gap windows holds
            repeated = set(fingerprint[0] for fingerprint in by_print)
            if not repeated:
                break
        for by_value in by_print.values():
            own, probes = ([w for group in by_value.values() for w in group[side]] for side in (0, 1))
            pairs = _pairs(own, probes)
            if pairs:
                self.screen_pairs += pairs
                self.group_sizes.append(len(own) + len(probes))
                for group in by_value.values():
                    self.exact_pairs += _pairs(*group)
        self.confirm_s += time.perf_counter() - t0
