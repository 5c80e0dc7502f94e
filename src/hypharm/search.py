"""Exhaustive screened search for equal window sums up to a bound.

Every window {a, ..., a+r} with 1 <= a <= a+r <= N is fingerprinted by
its sum's residues modulo several large primes, computed from prefix
arrays in O(1) per window.  Equal exact sums force equal fingerprints,
so grouping by fingerprint and exactly confirming every nontrivial group
can never miss a collision; the big primes merely keep false groups
negligible.  The screen sorts a single residue column and fingerprints
only the windows whose first residue repeats.  numpy is imported by
`search` itself, so the other subcommands never load it.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from itertools import combinations

from .kernel import miller_rabin, require_memory
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
    # Phase timings (fill_s includes the prefix arrays) and screen
    # counters: run metadata for the manifest, never part of the results.
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

    Any window sum mod p is prefix[a+r] - prefix[a-1].  Inverses are
    batched with the running-product trick, so the whole array costs
    O(n_max) multiplications.
    """
    if p <= n_max:
        raise ValueError(f"modulus {p} must exceed the bound {n_max}")
    if not miller_rabin(p):
        raise ValueError(f"modulus {p} is not prime")
    products = [1] * (n_max + 1)
    for k in range(1, n_max + 1):
        products[k] = products[k - 1] * k % p
    running = pow(products[n_max], -1, p)
    inverses = [0] * (n_max + 1)
    for k in range(n_max, 0, -1):
        inverses[k] = running * products[k - 1] % p
        running = running * k % p
    prefix = [0] * (n_max + 1)
    acc = 0
    for k in range(1, n_max + 1):
        term = inverses[k]
        if exponent == 2:
            term = term * term % p
        elif exponent != 1:
            term = pow(term, exponent, p)
        acc = (acc + term) % p
        prefix[k] = acc
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
    first prime, sorts it in place and keeps the values that repeat; peak
    memory is the column's 8 bytes per window plus a 1-byte equality mask.
    Only if some value repeats does pass 2 revisit each start, fingerprint
    the windows whose key repeats over every modulus, and group them by
    full fingerprint.
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
    require_memory(8 * count, f"the residue column of {count} windows")
    moduli = select_moduli(config)
    prefixes = [np.array(prefix_residues(n, p, config.exponent), dtype=np.int64) for p in moduli]

    def residues(start: int, column: int, out=None):
        # window sums mod p of {start, ..., end} for every end >= start
        prefix = prefixes[column]
        diff = np.subtract(prefix[start:], prefix[start - 1], out=out)
        return np.add(diff, moduli[column], out=diff, where=diff < 0)

    key = np.empty(count, dtype=np.int64)
    row0 = 0
    for start in range(1, n + 1):
        row1 = row0 + n - start + 1
        residues(start, 0, key[row0:row1])
        row0 = row1
    t_fill = time.perf_counter()
    key.sort()
    duplicates = np.unique(key[1:][key[1:] == key[:-1]])
    del key
    t_sort = time.perf_counter()

    by_print: dict[Fingerprint, list[Interval]] = {}
    if duplicates.size:
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
            "fill_s": round(t_fill - t0, 6),
            "sort_s": round(t_sort - t_fill, 6),
            "confirm_s": round(t_end - t_sort, 6),
            "duplicate_keys": int(duplicates.size),
            "screen_groups": len(groups),
            "largest_group": max(map(len, groups), default=0),
            "exact_confirmations": sum(map(len, groups)),
        },
    )
