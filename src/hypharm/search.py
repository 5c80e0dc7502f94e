"""Exhaustive screened search for equal window sums up to a bound.

Every window {a, ..., a+r} with 1 <= a <= a+r <= N is fingerprinted by
its sum's residues modulo several large primes, computed from prefix
arrays in O(1) per window.  Equal exact sums force equal fingerprints,
so grouping by fingerprint and exactly confirming every nontrivial group
can never miss a collision; the big primes merely keep false groups
negligible.

The windows are screened block by block, never all at once (`screen`):
a prime q in (M/2, M] separates the windows inside [1, M] that hold it
from those that do not, and by Bertrand's postulate there is one for
every M >= 2.  The windows that hold such a prime need no screen (see
`screen`), so memory is set by the largest of the other blocks, not by
the N(N+1)/2 windows.  The screen and numpy are loaded by the search
itself, so the other subcommands neither load numpy nor compile the screen.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from itertools import accumulate

from .kernel import miller_rabin, require_memory, status_kb
from .sums import window_power_sum

_MODULUS_LOW = 1 << 61
_MODULUS_HIGH = 1 << 62


class SearchConfig(namedtuple("SearchConfig", "max_n exponent modulus_count seed")):
    """Search parameters; moduli are derived deterministically from the seed."""

    __slots__ = ()

    def __new__(cls, max_n: int, exponent: int = 2, modulus_count: int = 3, seed: int = 0):
        if max_n < 2:
            raise ValueError("search bound must be at least 2")
        if exponent < 1:
            raise ValueError("exponent must be a positive integer")
        if modulus_count < 1:
            raise ValueError("need at least one screening modulus")
        return super().__new__(cls, max_n, exponent, modulus_count, seed)


class CollisionReport(
    namedtuple(
        "CollisionReport",
        "config moduli interval_count screen_collision_pairs exact_collision_pairs stats",
    )
):
    """What `search` found: the collision pairs are sorted lists of `IntervalPair`.

    ``stats`` holds the phase timings (prefix_s: partitioning, choosing the
    moduli and building their prefix arrays), partition and screen counters
    and the peak RSS (peak_rss_kb, VmHWM): run metadata for the manifest,
    never part of the results.
    """

    __slots__ = ()


def select_moduli(config: SearchConfig) -> tuple[int, ...]:
    """Distinct ~62-bit primes > max_n, rejection-sampled from the seed."""
    rng = random.Random(config.seed)
    chosen: list[int] = []
    while len(chosen) < config.modulus_count:
        candidate = rng.randrange(_MODULUS_LOW, _MODULUS_HIGH) | 1
        if candidate > config.max_n and candidate not in chosen and miller_rabin(candidate):
            chosen.append(candidate)
    return tuple(chosen)


def prefix_residues(n_max: int, p: int, exponent: int):
    """prefix[n] = sum of k^-exponent mod p for k = 1..n; prefix[0] = 0.

    Any window sum mod p is prefix[a+r] - prefix[a-1].  Each term is one
    modular power, pow(k, -exponent, p).  The entries fill a uint64 array
    directly, 8 bytes each; take int() of them before any arithmetic.
    """
    if p <= n_max:
        raise ValueError(f"modulus {p} must exceed the bound {n_max}")
    if not miller_rabin(p):
        raise ValueError(f"modulus {p} is not prime")
    from .screen import load_numpy  # numpy loads only when a search runs

    terms = (pow(k, -exponent, p) for k in range(1, n_max + 1))
    prefix = accumulate(terms, lambda total, term: (total + term) % p, initial=0)
    return load_numpy().fromiter(prefix, dtype="uint64", count=n_max + 1)


def search(config: SearchConfig) -> CollisionReport:
    """Screen all N(N+1)/2 windows and exactly confirm every screen group.

    An empty `exact_collision_pairs` certifies all N(N+1)/2 windows,
    although only the gap blocks of `screen.partition` are compared: the
    `screen` module docstring says why, and how its two passes run.  The
    memory guard asks for `screen.memory_charge`, which counts every
    prefix array, before any modulus is chosen.  A gap window belongs to
    one block, and a probe is paired only with gap windows, so no pair is
    screened twice; pairs are reported in sorted window order, so output
    is deterministic.
    """
    from . import screen  # compiled only when a search runs

    screen.load_numpy()  # its import counts in the run's wall time, not in prefix_s
    t0 = time.perf_counter()
    n, m = config.max_n, config.modulus_count
    levels = screen.partition(n)
    largest, nbytes = screen.memory_charge(levels, n, m)
    require_memory(nbytes, f"the largest screen block of {largest} windows and {m} prefix arrays")
    moduli = select_moduli(config)
    t_setup = time.perf_counter()

    def exact_sum(interval):
        return window_power_sum(interval, config.exponent)

    blocks = screen.BlockScreen(
        moduli, largest, lambda p: prefix_residues(n, p, config.exponent), exact_sum
    )
    blocks.run(levels)
    blocks.screen_pairs.sort()  # by (first, second), each window by (a, r)
    blocks.exact_pairs.sort()

    return CollisionReport(
        config=config,
        moduli=moduli,
        interval_count=n * (n + 1) // 2,
        screen_collision_pairs=blocks.screen_pairs,
        exact_collision_pairs=blocks.exact_pairs,
        stats={
            "prefix_s": round(t_setup - t0 + blocks.prefix_s, 6),
            "fill_s": round(blocks.fill_s, 6),
            "sort_s": round(blocks.sort_s, 6),
            "confirm_s": round(blocks.confirm_s, 6),
            "levels": len(levels),
            "largest_block": largest,
            "gap_windows": sum(level.gap_windows for level in levels),
            "probe_windows": sum(level.probe_windows for level in levels),
            "duplicate_keys": blocks.duplicate_keys,
            "screen_groups": len(blocks.group_sizes),
            "largest_group": max(blocks.group_sizes, default=0),
            "exact_confirmations": sum(blocks.group_sizes),
            "peak_rss_kb": status_kb("VmHWM"),
        },
    )
