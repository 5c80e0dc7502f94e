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
block shows up as the disjoint pair it reduces to.  Memory is set by the
largest gap block with its probes, not by the N(N+1)/2 windows.

Inside a gap block `BlockScreen` writes the residues modulo the first
prime of the gap windows and the probes into one column, read off the
first modulus' prefix array, and sorts it once; the fill checks that it
wrote exactly the level's count of windows.  Only if a residue repeats
does it read the same runs again, search the windows the fill wrote, by
binary search, for those whose first residue repeats, and sum only those
exactly; each sum's residues modulo every prime are its fingerprint, as
no prime above N divides its denominator.  Two probes are compared one
level down, so the probes are searched only for the repeated residues
that a gap window holds.  It calls nothing that loads numpy.ma (np.unique
does).  `search` imports this module when it runs, so the other
subcommands neither load numpy nor compile the screen.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction
from itertools import chain, combinations

from .kernel import PrimeSieve
from .sums import Interval, IntervalPair

# Residue tuple of one window across the screening moduli.  Equal exact
# sums imply equal fingerprints (each component is the sum mod p).
Fingerprint = tuple[int, ...]

# Memory charged per integer up to N besides the 8-byte prefix entries:
# the scratch of one run of windows, at most 30 bytes an integer.
_SCRATCH_BYTES = 32


def load_numpy():
    # The search uses no BLAS; this keeps OpenBLAS from starting idle
    # worker threads that burn CPU while numpy loads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy

    return numpy


class Level:
    """The windows inside [1, top] that are not inside [1, q_1 - 1].

    `primes` holds q_1 < ... < q_k, the primes in (top/2, top], and
    `bounds` the next one after each, q_{j+1}, with q_{k+1} = top + 1
    (both int64 arrays).  `longest_gap` is the most integers strictly
    between q_j and q_{j+1}, the length of the longest gap window;
    `gap_windows` counts the gap windows, and `probe_windows` the windows
    inside [1, q_1 - 1] shorter than the longest gap window.

    `gap_runs` and `probe_runs` yield the block's windows as runs,
    (a0, count, length, keep): the windows of that length starting at
    a = a0, ..., a0 + count - 1, restricted to the positions where the
    bool array `keep` is true unless it is None.
    """

    def __init__(self, top: int, primes):
        self.top, self.primes = top, primes
        self.bounds = load_numpy().append(primes[1:], top + 1)
        gaps = self.bounds - primes - 1
        self.longest_gap = int(gaps.max())
        self.gap_windows = int((gaps * (gaps + 1) // 2).sum())
        shorter = max(self.longest_gap - 1, 0)
        self.probe_windows = shorter * int(primes[0]) - shorter * (shorter + 1) // 2

    def gap_runs(self):
        """The gap windows, a run per length over the starts above q_1."""
        np = load_numpy()
        q1, top = int(self.primes[0]), self.top
        starts = np.arange(q1 + 1, top + 1)
        # room[a - q1 - 1]: how many of a, a+1, ... come before the next prime
        room = self.bounds[np.searchsorted(self.bounds, starts)] - starts
        del starts
        for length in range(1, self.longest_gap + 1):
            count = top - q1 - length + 1
            yield q1 + 1, count, length, room[:count] >= length

    def probe_runs(self):
        """The probes, a run per length, every start kept."""
        q1 = int(self.primes[0])
        for length in range(1, self.longest_gap):
            yield 1, q1 - length, length, None


def partition(n: int) -> list[Level]:
    """The screen's levels for the bound n, from top = n down to top = 2."""
    np = load_numpy()
    primes = np.fromiter(PrimeSieve(n).primes(), dtype=np.int64)
    levels = []
    top = n
    while top > 1:
        lo, hi = np.searchsorted(primes, [top // 2, top], side="right").tolist()
        levels.append(Level(top, primes[lo:hi]))
        top = int(primes[lo]) - 1
    return levels


def memory_charge(levels: list[Level], n: int) -> tuple[int, int]:
    """(windows of the largest gap block with its probes, bytes the screen
    needs) for the bound n: per window of that block, 8 bytes of the one
    sorted column of gap windows and probes and 1 byte of its repeat mask;
    and per integer up to n, the first modulus' prefix array and scratch."""
    largest = max(level.gap_windows + level.probe_windows for level in levels)
    return largest, 9 * largest + (8 + _SCRATCH_BYTES) * (n + 1)


def _pairs(own: list[Interval], probes: list[Interval]) -> list[IntervalPair]:
    """Pairs within `own`, and of `own` with `probes`; never of two probes."""
    return [IntervalPair(first, second) for first, second in combinations(own, 2)] + [
        IntervalPair(first, second) for first in own for second in probes
    ]


class BlockScreen:
    """Both passes over the gap blocks, and what they found.

    `prefix` holds the uint64 prefix residues modulo the first of the
    moduli, and `exact_sum(interval)` gives a window's exact sum as a
    Fraction; the caller supplies both.
    """

    def __init__(self, moduli: tuple[int, ...], largest_block: int, prefix, exact_sum):
        self.np = load_numpy()
        self.moduli, self.prefix, self.exact_sum = moduli, prefix, exact_sum
        self.fill_s = self.sort_s = self.confirm_s = 0.0
        # every gap block's first residues are written here, one block at a time
        self.buffer = self.np.empty(largest_block, dtype=self.np.uint64)
        self.duplicate_keys = 0
        self.group_sizes: list[int] = []
        self.screen_pairs: list[IntervalPair] = []
        self.exact_pairs: list[IntervalPair] = []

    def _kept(self, a0: int, count: int, length: int, keep):
        """(offsets, residues) of a run's kept windows: their starts less
        a0, None when `keep` is None and every start is kept, and their
        sums mod the first prime p.

        The sums are differences of prefix entries read at the kept starts
        alone, in (-p, p), as unsigned 64-bit integers (a negative one
        wrapped to 2^64 + diff), so adding p wraps exactly the negative
        ones into [0, p): the smaller of diff and diff + p is the residue.
        """
        np = self.np
        b0 = a0 + length - 1
        if keep is None:
            offsets = None
            diff = self.prefix[b0 : b0 + count] - self.prefix[a0 - 1 : a0 - 1 + count]
        else:
            offsets = np.flatnonzero(keep)
            diff = self.prefix[b0 + offsets] - self.prefix[a0 - 1 + offsets]
        return offsets, np.minimum(diff, diff + np.uint64(self.moduli[0]), out=diff)

    def _filled(self, runs, size: int):
        """The first residues of the runs' kept windows, which must number
        `size`, the level's count, in buffer[:size]."""
        t0 = time.perf_counter()
        keys = self.buffer[:size]
        filled = 0
        for run in runs:
            _, residues = self._kept(*run)
            assert filled + residues.size <= size, f"the runs hold more than {size} windows"
            keys[filled : filled + residues.size] = residues
            filled += residues.size
        assert filled == size, f"the runs hold {filled} windows, not {size}"
        self.fill_s += time.perf_counter() - t0
        return keys

    def gap_block(self, level: Level) -> None:
        """The level's gap windows, among themselves and against its probes."""
        runs = chain(level.gap_runs(), level.probe_runs())
        keys = self._filled(runs, level.gap_windows + level.probe_windows)
        t0 = time.perf_counter()
        keys.sort()
        # the values that occur more than once in the block (with repeats)
        repeated = keys[1:][keys[1:] == keys[:-1]]
        self.sort_s += time.perf_counter() - t0
        if repeated.size:
            self._confirm(repeated, level)

    def _confirm(self, repeated, level: Level) -> None:
        """Group the level's kept windows whose first residue is repeated
        by full fingerprint, and confirm every group exactly."""
        np = self.np
        t0 = time.perf_counter()
        # the distinct repeated values, still sorted
        repeats = repeated[np.append(True, repeated[1:] != repeated[:-1])]
        self.duplicate_keys += repeats.size
        # fingerprint -> exact sum -> (gap windows, probes) with that sum
        by_print: dict[Fingerprint, dict[Fraction, tuple[list[Interval], list[Interval]]]] = {}
        for side, runs in enumerate((level.gap_runs(), level.probe_runs())):
            for a0, count, length, keep in runs:
                offsets, residues = self._kept(a0, count, length, keep)
                # a hit where the repeat at a residue's sorted place equals it
                place = np.searchsorted(repeats, residues)
                hits = np.flatnonzero(repeats.take(place, mode="clip") == residues)
                if offsets is not None:
                    hits = offsets[hits]
                for a in (hits + a0).tolist():
                    interval = Interval(a, length - 1)
                    value = self.exact_sum(interval)
                    fingerprint = tuple(
                        value.numerator * pow(value.denominator, -1, p) % p for p in self.moduli
                    )
                    by_value = by_print.setdefault(fingerprint, {})
                    by_value.setdefault(value, ([], []))[side].append(interval)
            # two probes are compared one level down, so a probe is searched
            # only for a first residue that one of the gap windows holds
            repeats = np.array(sorted({fingerprint[0] for fingerprint in by_print}), dtype=np.uint64)
            if not repeats.size:
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
