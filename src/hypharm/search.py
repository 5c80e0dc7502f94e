"""Exhaustive screened search for equal window sums up to a bound.

Every window {a, ..., a+r} with 1 <= a <= a+r <= N is fingerprinted by
its sum's residues modulo several large primes, computed from prefix
arrays in O(1) per window.  Equal exact sums force equal fingerprints,
so grouping by fingerprint and exactly confirming every nontrivial group
can never miss a collision; the big primes merely keep false groups
negligible.  The screen sorts a single residue column and fingerprints
only the windows whose first residue repeats; the other moduli's prefix
arrays are built only then.  numpy is imported by `search` itself, so the
other subcommands never load it, and the screen calls nothing that loads
numpy.ma (np.unique does).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from itertools import combinations

from .kernel import miller_rabin, require_memory, status_kb
from .sums import Interval, IntervalPair, window_power_sum

# Residue tuple of one window across the screening moduli.  Equal exact
# sums imply equal fingerprints (each component is the sum mod p).
Fingerprint = tuple[int, ...]

_MODULUS_LOW = 1 << 61
_MODULUS_HIGH = 1 << 62


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; moduli are derived deterministically from the seed."""

    max_n: int
    exponent: int = 2
    modulus_count: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_n < 2:
            raise ValueError("search bound must be at least 2")
        if self.exponent < 1:
            raise ValueError("exponent must be a positive integer")
        if self.modulus_count < 1:
            raise ValueError("need at least one screening modulus")


@dataclass
class CollisionReport:
    config: SearchConfig
    moduli: tuple[int, ...]
    interval_count: int
    screen_collision_pairs: list[IntervalPair]
    exact_collision_pairs: list[IntervalPair]
    # Phase timings (prefix_s: choosing the moduli and building their
    # prefix arrays), screen counters and the peak RSS (peak_rss_kb, VmHWM):
    # run metadata for the manifest, never part of the results.
    stats: dict = field(default_factory=dict)


def select_moduli(config: SearchConfig) -> tuple[int, ...]:
    """Distinct ~62-bit primes > max_n, rejection-sampled from the seed."""
    rng = random.Random(config.seed)
    chosen: list[int] = []
    while len(chosen) < config.modulus_count:
        candidate = rng.randrange(_MODULUS_LOW, _MODULUS_HIGH) | 1
        if candidate > config.max_n and candidate not in chosen and miller_rabin(candidate):
            chosen.append(candidate)
    return tuple(chosen)


def prefix_residues(n_max: int, p: int, exponent: int) -> list[int]:
    """prefix[n] = sum of k^-exponent mod p for k = 1..n; prefix[0] = 0.

    Any window sum mod p is prefix[a+r] - prefix[a-1].  Each term is one
    modular power, pow(k, -exponent, p).
    """
    if p <= n_max:
        raise ValueError(f"modulus {p} must exceed the bound {n_max}")
    if not miller_rabin(p):
        raise ValueError(f"modulus {p} is not prime")
    prefix = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        prefix[k] = (prefix[k - 1] + pow(k, -exponent, p)) % p
    return prefix


def _exact_groups(members: list[Interval], exponent: int) -> list[list[Interval]]:
    by_value: dict = {}
    for interval in members:
        by_value.setdefault(window_power_sum(interval, exponent), []).append(interval)
    return [group for group in by_value.values() if len(group) > 1]


def _pairs(group: list[Interval]) -> list[IntervalPair]:
    return [IntervalPair(first, second) for first, second in combinations(group, 2)]


def search(config: SearchConfig) -> CollisionReport:
    """Screen all N(N+1)/2 windows and exactly confirm every screen group.

    Pass 1 fills one int64 column with every window's residue modulo the
    first prime (one subtraction per start, then one fix-up of the negative
    entries over the whole column), sorts it in place and keeps the values
    that repeat, read off the sorted column by one equality mask.  Peak
    memory is the column's 8 bytes per window plus a 1-byte mask, beside
    the first modulus' 8-byte prefix entries.
    Only if some value repeats are the other moduli's prefix arrays built
    and does pass 2 revisit each start, fingerprint the windows whose key
    repeats over every modulus, and group them by full fingerprint.  The
    memory guard charges those prefix arrays either way.
    Each window is enumerated once, so self-pairs never arise, and pairs
    are reported in sorted window order, so output is deterministic.
    """
    # The search uses no BLAS; this keeps OpenBLAS from starting idle
    # worker threads that burn CPU while numpy loads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    t0 = time.perf_counter()
    n = config.max_n
    count = n * (n + 1) // 2
    require_memory(
        9 * count + 8 * (n + 1) * config.modulus_count,
        f"the residue column of {count} windows and {config.modulus_count} prefix arrays",
    )
    moduli = select_moduli(config)

    def prefix_array(p: int):
        return np.array(prefix_residues(n, p, config.exponent), dtype=np.int64)

    prefixes = [prefix_array(moduli[0])]
    t_prefix = time.perf_counter()

    def residues(start: int, column: int):
        # window sums mod p of {start, ..., end} for every end >= start
        prefix = prefixes[column]
        diff = prefix[start:] - prefix[start - 1]
        return np.add(diff, moduli[column], out=diff, where=diff < 0)

    key = np.empty(count, dtype=np.int64)
    row0 = 0
    for start in range(1, n + 1):
        row1 = row0 + n - start + 1
        np.subtract(prefixes[0][start:], prefixes[0][start - 1], out=key[row0:row1])
        row0 = row1
    np.add(key, moduli[0], out=key, where=key < 0)
    t_fill = time.perf_counter()
    key.sort()
    duplicates = key[1:][key[1:] == key[:-1]]
    del key
    t_sort = t_confirm = time.perf_counter()

    by_print: dict[Fingerprint, list[Interval]] = {}
    if duplicates.size:
        prefixes += [prefix_array(p) for p in moduli[1:]]
        t_confirm = time.perf_counter()
        # sorted, so a value's first copy is where it differs from the one before
        duplicates = np.append(duplicates[:1], duplicates[1:][duplicates[1:] != duplicates[:-1]])
        for start in range(1, n + 1):
            first = residues(start, 0)
            hits = np.flatnonzero(np.isin(first, duplicates))
            if not hits.size:
                continue
            columns = [first[hits]] + [residues(start, c)[hits] for c in range(1, len(moduli))]
            for i, extent in enumerate(hits.tolist()):
                fingerprint = tuple(int(column[i]) for column in columns)
                by_print.setdefault(fingerprint, []).append(Interval(start, extent))
    groups = [members for members in by_print.values() if len(members) > 1]
    screen_pairs: list[IntervalPair] = []
    exact_pairs: list[IntervalPair] = []
    for members in groups:
        screen_pairs += _pairs(members)
        for group in _exact_groups(members, config.exponent):
            exact_pairs += _pairs(group)
    screen_pairs.sort(key=lambda q: (q.first, q.second))
    exact_pairs.sort(key=lambda q: (q.first, q.second))
    t_end = time.perf_counter()

    return CollisionReport(
        config=config,
        moduli=moduli,
        interval_count=count,
        screen_collision_pairs=screen_pairs,
        exact_collision_pairs=exact_pairs,
        stats={
            "prefix_s": round(t_prefix - t0 + t_confirm - t_sort, 6),
            "fill_s": round(t_fill - t_prefix, 6),
            "sort_s": round(t_sort - t_fill, 6),
            "confirm_s": round(t_end - t_confirm, 6),
            "duplicate_keys": int(duplicates.size),
            "screen_groups": len(groups),
            "largest_group": max(map(len, groups), default=0),
            "exact_confirmations": sum(map(len, groups)),
            "peak_rss_kb": status_kb("VmHWM"),
        },
    )
