"""Exhaustive screened search for equal window sums up to a bound.

Every window {a, ..., a+r} with 1 <= a <= a+r <= N is certified, but
only the gap windows and the probes that `screen.partition` sets out,
and of those only the ones made of unmarked integers, are screened, each
by its sum's residue modulo a large prime, read off one prefix array in
O(1) per window; the end blocks are certified by overlap reduction and
the other windows by valuation (see `screen`).  Only the screened windows
whose residue repeats are summed exactly, and fingerprinted by the sum's
residues modulo several large primes.  Equal exact sums force equal
fingerprints, so grouping by fingerprint and exactly confirming every
nontrivial group can never miss a collision; the big primes merely keep
false groups negligible.

The windows are screened block by block, never all at once (`screen`):
a prime q in (M/2, M] separates the windows inside [1, M] that hold it
from those that do not, and by Bertrand's postulate there is one for
every M >= 2.  The windows that hold such a prime need no screen, nor do
those holding a multiple of a prime past the level's threshold (see
`screen`), so memory is set by the largest block of unmarked windows,
not by the N(N+1)/2 windows.  The search runs on the standard library,
and the screen is compiled by the search itself, so the other
subcommands do not load it.
"""

from __future__ import annotations

import random
import time
from array import array
from collections import namedtuple
from itertools import accumulate

from .kernel import checked_make, miller_rabin, require_memory, status_kb
from .sums import window_power_sum

_MODULUS_LOW = 1 << 61
_MODULUS_HIGH = 1 << 62
# Past the first, the moduli only split the screen's rare groups, each
# adding about 61 bits to a fingerprint, and drawing them takes time
# quadratic in their count; a search takes at most this many.
_MODULUS_COUNT_MAX = 64


class SearchConfig(namedtuple("SearchConfig", "max_n exponent modulus_count seed")):
    """Search parameters; moduli are derived deterministically from the seed."""

    __slots__ = ()

    def __new__(cls, max_n: int, exponent: int = 2, modulus_count: int = 3, seed: int = 0):
        if max_n < 2:
            raise ValueError("search bound must be at least 2")
        if max_n >= _MODULUS_LOW:
            raise ValueError(f"search bound {max_n} must lie below 2^61: every modulus must exceed it")
        if exponent < 1:
            raise ValueError("exponent must be a positive integer")
        if not 1 <= modulus_count <= _MODULUS_COUNT_MAX:
            raise ValueError(f"{modulus_count} moduli: the screen takes 1 to {_MODULUS_COUNT_MAX}")
        if seed < 0:  # random.Random(-s) draws the moduli of s
            raise ValueError(f"seed {seed} must be >= 0")
        return super().__new__(cls, max_n, exponent, modulus_count, seed)

    _make = classmethod(checked_make)


class CollisionReport(
    namedtuple(
        "CollisionReport",
        "config moduli interval_count screen_collision_pairs exact_collision_pairs stats",
    )
):
    """What `search` found: the collision pairs are sorted lists of `IntervalPair`.

    Every field but ``stats`` is a result, and `cli` reports them as they
    are.  ``stats`` holds the phase timings (prefix_s: partitioning,
    choosing the moduli and building the first one's prefix array),
    partition and screen counters and the peak RSS (peak_rss_kb, VmHWM):
    run metadata for the manifest, never part of the results.
    """

    __slots__ = ()


def select_moduli(config: SearchConfig) -> tuple[int, ...]:
    """Distinct ~62-bit primes > max_n, rejection-sampled from the seed."""
    rng = random.Random(config.seed)
    chosen: list[int] = []
    while len(chosen) < config.modulus_count:
        candidate = rng.randrange(_MODULUS_LOW, _MODULUS_HIGH) | 1
        if candidate not in chosen and miller_rabin(candidate):
            chosen.append(candidate)
    return tuple(chosen)


def prefix_residues(n_max: int, p: int, exponent: int):
    """prefix[n] = sum of k^-exponent mod p for k = 1..n; prefix[0] = 0.

    Any window sum mod p is prefix[a+r] - prefix[a-1].  Each term is one
    modular power, pow(k, -exponent, p).  The entries fill an unsigned
    64-bit `array`, 8 bytes each.
    """
    if p <= n_max:
        raise ValueError(f"modulus {p} must exceed the bound {n_max}")
    if not miller_rabin(p):
        raise ValueError(f"modulus {p} is not prime")
    terms = (pow(k, -exponent, p) for k in range(1, n_max + 1))
    return array("Q", map(p.__rmod__, accumulate(terms, initial=0)))


def search(config: SearchConfig) -> CollisionReport:
    """Screen all N(N+1)/2 windows and exactly confirm every screen group.

    An empty `exact_collision_pairs` certifies all N(N+1)/2 windows,
    although only the gap blocks of `screen.partition` are compared: the
    `screen` module docstring says why, and how its two passes run.  The
    memory guard asks for `screen.memory_charge`, which counts the first
    modulus' prefix array, before any modulus is chosen.
    A gap window belongs to one block, and a probe is paired only with
    gap windows, so no pair is screened twice; pairs are reported in
    sorted window order, so output is deterministic.
    """
    from . import screen  # compiled only when a search runs

    t0 = time.perf_counter()
    n = config.max_n
    levels = screen.partition(n, config.exponent)
    largest, nbytes = screen.memory_charge(levels, n)
    require_memory(nbytes, f"the largest screen block of {largest} windows")
    moduli = select_moduli(config)
    prefix = prefix_residues(n, moduli[0], config.exponent)
    t_setup = time.perf_counter()

    def exact_sum(interval):
        return window_power_sum(interval, config.exponent)

    blocks = screen.BlockScreen(moduli, prefix, exact_sum)
    screened = [blocks.gap_block(level) for level in levels]
    blocks.screen_pairs.sort()  # by (first, second), each window by (a, r)
    blocks.exact_pairs.sort()

    return CollisionReport(
        config=config,
        moduli=moduli,
        interval_count=n * (n + 1) // 2,
        screen_collision_pairs=blocks.screen_pairs,
        exact_collision_pairs=blocks.exact_pairs,
        stats={
            "prefix_s": round(t_setup - t0, 6),
            "fill_s": round(blocks.fill_s, 6),
            "sort_s": round(blocks.sort_s, 6),
            "confirm_s": round(blocks.confirm_s, 6),
            "levels": len(levels),
            "largest_block": largest,
            "gap_windows": sum(level.gap_windows for level in levels),
            "probe_windows": sum(level.probe_windows for level in levels),
            "dropped_windows": sum(level.dropped for level in levels),
            "level_windows": [
                {
                    "top": level.top,
                    "end_windows": level.end_windows,
                    "block_windows": level.gap_total + level.probe_total,
                    "dropped_windows": level.dropped,
                    "screened_windows": count,
                }
                for level, count in zip(levels, screened)
            ],
            "duplicate_keys": blocks.duplicate_keys,
            "screen_groups": len(blocks.group_sizes),
            "largest_group": max(blocks.group_sizes, default=0),
            "exact_confirmations": sum(blocks.group_sizes),
            "peak_rss_kb": status_kb("VmHWM"),
        },
    )
