import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from fractions import Fraction

import pytest

import hypharm.screen as screen_module
import hypharm.search as search_module
from hypharm.kernel import miller_rabin
from hypharm.screen import BlockScreen, memory_charge, partition
from hypharm.search import (
    SearchConfig,
    prefix_residues,
    search,
    select_moduli,
)
from hypharm.sums import Interval, g_exact, window_power_sum

import oracles


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_n=1)
    with pytest.raises(ValueError):
        SearchConfig(max_n=10, exponent=0)
    with pytest.raises(ValueError):
        SearchConfig(max_n=10, modulus_count=0)
    with pytest.raises(ValueError):
        SearchConfig(max_n=10, modulus_count=65)
    # every modulus is drawn from [2^61, 2^62) and must exceed the bound
    with pytest.raises(ValueError, match=r"2\^61"):
        SearchConfig(max_n=2**61)
    assert SearchConfig(max_n=2**61 - 1).max_n == 2**61 - 1


def test_config_make_and_replace_validate_as_the_constructor():
    builds = (
        SearchConfig,
        lambda *fields: SearchConfig._make(fields),
        lambda *fields: SearchConfig(10)._replace(**dict(zip(SearchConfig._fields, fields))),
    )
    for fields in ((1, 2, 3, 0), (2**61, 2, 3, 0), (10, 0, 3, 0), (10, 2, 0, 0), (10, 2, 65, 0)):
        messages = set()
        for build in builds:
            with pytest.raises(ValueError) as error:
                build(*fields)
            messages.add(str(error.value))
        assert len(messages) == 1


def test_config_refuses_a_negative_seed():
    # random.Random(-5) draws the moduli of seed 5, which would then be
    # reported under seed -5; _make and _replace check as the constructor does
    for build in (
        lambda: SearchConfig(max_n=10, seed=-5),
        lambda: SearchConfig._make((10, 2, 3, -5)),
        lambda: SearchConfig(max_n=10)._replace(seed=-5),
    ):
        with pytest.raises(ValueError, match="^seed -5 must be >= 0$"):
            build()
    assert SearchConfig(max_n=10, seed=0).seed == 0


def test_moduli_are_seeded_distinct_primes_above_bound():
    config = SearchConfig(max_n=5000, modulus_count=4, seed=7)
    moduli = select_moduli(config)
    assert moduli == select_moduli(config)  # deterministic
    assert len(set(moduli)) == 4
    assert all(m > 5000 and miller_rabin(m) and m.bit_length() == 62 for m in moduli)
    assert moduli != select_moduli(SearchConfig(max_n=5000, modulus_count=4, seed=8))


def test_prefix_residues_examples():
    prefix = prefix_residues(10, 101, 2)
    assert prefix.typecode == "Q" and prefix.itemsize == 8 and len(prefix) == 11
    assert prefix[0] == 0
    assert prefix[2] == 77  # 1 + inverse(4) mod 101
    assert (int(prefix[2]) - int(prefix[0])) % 101 == oracles.g_mod(1, 1, 101)
    with pytest.raises(ValueError):
        prefix_residues(10, 7, 2)  # modulus below the bound


def test_prefix_differences_are_window_sums_mod_p():
    for exponent in (1, 2, 3):
        for p in (211, 1009):
            prefix = prefix_residues(200, p, exponent)
            rng = random.Random(exponent)
            for _ in range(50):
                a = rng.randint(1, 200)
                end = rng.randint(a, 200)
                expected = oracles.g_mod(a, end - a, p, exponent)
                assert (int(prefix[end]) - int(prefix[a - 1])) % p == expected


@pytest.mark.parametrize("exponent", [1, 2, 3])
def test_fingerprint_homomorphism_spot_check(exponent):
    # pass 2 fingerprints a window from its exact sum, so the sum's
    # residues must be what the prefix arrays give, at every exponent
    config = SearchConfig(max_n=500, exponent=exponent, modulus_count=3, seed=0)
    moduli = select_moduli(config)
    prefixes = [prefix_residues(500, p, exponent) for p in moduli]
    rng = random.Random(42)
    for _ in range(1000):
        a = rng.randint(1, 500)
        end = rng.randint(a, 500)
        value = window_power_sum(Interval(a, end - a), exponent)
        fp = tuple(
            (int(prefix[end]) - int(prefix[a - 1])) % p for p, prefix in zip(moduli, prefixes)
        )
        assert fp == tuple(
            value.numerator * pow(value.denominator, -1, p) % p for p in moduli
        )


def test_search_enumerates_the_full_triangle():
    report = search(SearchConfig(max_n=10, seed=0))
    assert report.interval_count == 55
    assert report.exact_collision_pairs == []


def test_search_matches_exact_bruteforce_small():
    # below 10 the largest block holds few windows, none at n = 2 and 3
    for n in [*range(2, 10), 100]:
        for exponent in (1, 2):
            report = search(SearchConfig(max_n=n, exponent=exponent, seed=0))
            brute = oracles.exact_collision_groups(n, exponent)
            assert brute == []  # no equal window sums
            assert report.exact_collision_pairs == []
            assert report.screen_collision_pairs == []


def test_search_deterministic_across_reruns():
    reference = search(SearchConfig(max_n=150, seed=0))
    for _ in range(2):
        other = search(SearchConfig(max_n=150, seed=0))
        assert other.interval_count == reference.interval_count
        assert other.moduli == reference.moduli
        assert other.screen_collision_pairs == reference.screen_collision_pairs
        assert other.exact_collision_pairs == reference.exact_collision_pairs


def _screened_together(n, exponent, rule=True):
    """Whether the partition compares two windows, from `oracles.screen_blocks`:
    windows of one block, or a gap window and one of its probes."""
    places: dict = {}
    for index, (own, probes) in enumerate(oracles.screen_blocks(n, exponent, rule)):
        for side, windows in enumerate((own, probes)):
            for window in windows:
                places.setdefault(window, []).append((index, side))

    def together(first, second):
        return any(
            index == other and not (side and other_side)
            for index, side in places.get(first, [])
            for other, other_side in places.get(second, [])
        )

    return together


def _told_apart(n, exponent):
    """Whether two windows inside [1, n] have unequal sums for a reason that
    needs no residue: the later has no more terms than the earlier, each of
    them smaller; or a prime q is in the denominator of one of the sums,
    and the q-adic valuation of their difference is the smaller of the
    two sums' valuations, so that their leading q-adic terms do not cancel.
    That covers a prime of a level, which divides one window's terms and
    not the other's, and the rule's primes, which divide both at
    multiples k1*q and k2*q with k1^e and k2^e apart mod q."""
    sums = oracles.window_sums(n, exponent)
    primes = [q for q in range(n, 1, -1) if all(q % d for d in range(2, math.isqrt(q) + 1))]

    def valuation(x, q):
        count = 0
        while x % q == 0:
            x, count = x // q, count + 1
        return count

    def told_apart(first, second):
        (a1, r1), (a2, r2) = first, second
        if a1 + r1 < a2 and r1 >= r2:
            return True
        g1, g2 = sums[first], sums[second]
        if g1 == g2:
            return False
        difference = g1 - g2
        for q in primes:
            if g1.denominator % q and g2.denominator % q:
                continue
            smaller = -max(valuation(g1.denominator, q), valuation(g2.denominator, q))
            if valuation(abs(difference.numerator), q) - valuation(difference.denominator, q) == smaller:
                return True
        return False

    return told_apart


def _dropped_pair_reason(pair, told_apart, kept):
    """Why a pair the screen does not compare has unequal sums: told apart,
    nested (one window holds the other, so its sum is larger), or
    overlapping so that removing the overlap leaves a disjoint pair with
    the same difference of sums, which `kept` holds or which is told apart."""
    (a1, r1), (a2, r2) = pair
    b1, b2 = a1 + r1, a2 + r2
    if told_apart(*pair):
        return "separated"
    if a1 == a2 or b2 <= b1:
        return "nested"
    assert a1 < a2 <= b1 < b2, pair
    reduced = ((a1, a2 - 1 - a1), (b1 + 1, b2 - b1 - 1))
    if kept(*reduced):
        return "reduced-screened"
    assert told_apart(*reduced), pair
    return "reduced-separated"


@pytest.mark.parametrize("exponent", [1, 2])
@pytest.mark.parametrize(
    "n, moduli",
    [(100, (1009,)), (130, (2003,)), (200, (4001, 4003)), (60, (61,)), (60, (211, 223))],
    ids=["p1009", "p2003", "p4001-p4003", "p61", "p211-p223"],
)
def test_partition_drops_only_valuation_separated_pairs(monkeypatch, n, moduli, exponent):
    # The screen compares only windows of one gap block, or a gap window
    # with a probe, so it reports exactly those of them that agree modulo
    # every forced prime.  Each pair it leaves out must have unequal sums
    # for a reason that needs no residue: a prime q <= N at which the
    # q-adic leading terms of the two sums do not cancel (a prime of a
    # level, or one of the rule's), or, for a window too long to probe, as
    # many terms as a later window and each of them larger.  Pairs inside
    # an end block have reasons of their own (below).  At 61, 1830
    # windows in 61 residue classes force screen groups by the pigeonhole
    # principle; at (211, 223) many pairs agree mod 211 only, and the
    # re-screen over every modulus must drop them.
    monkeypatch.setattr(search_module, "select_moduli", lambda config: moduli)
    report = search(SearchConfig(max_n=n, exponent=exponent, modulus_count=len(moduli)))
    screened = [
        ((p.first.a, p.first.r), (p.second.a, p.second.r)) for p in report.screen_collision_pairs
    ]
    expected = oracles.screen_collision_pairs(n, moduli, exponent)
    together = _screened_together(n, exponent)
    assert screened == [pair for pair in expected if together(*pair)]
    assert report.exact_collision_pairs == []
    stats = report.stats
    counts = oracles.block_screen_counts(n, moduli, exponent)
    for key in ("screen_groups", "largest_group", "exact_confirmations"):
        assert stats[key] == counts[key], key
    if len(moduli) == 1:
        assert screened and len(screened) < len(expected)
        assert stats["screen_groups"] > 0 and stats["largest_group"] >= 2
        # a gap window of the top level against a probe below its first prime
        first_prime = partition(n, exponent)[0].primes[0]
        assert any((w1[0] + w1[1] < first_prime) != (w2[0] + w2[1] < first_prime) for w1, w2 in screened)
    else:
        first_only = oracles.screen_collision_pairs(n, moduli[:1], exponent)
        assert len([pair for pair in first_only if together(*pair)]) > len(screened)
    # The end blocks are not screened, nor are the windows that hold an
    # integer the rule marks.  A dropped pair that no reason tells apart
    # must be nested, or reduce to a pair the screen reports or one told
    # apart.
    told_apart = _told_apart(n, exponent)
    reported = set(screened)
    reasons = Counter(
        _dropped_pair_reason(pair, told_apart, lambda *reduced: reduced in reported)
        for pair in set(expected).difference(screened)
    )
    if moduli == (61,):
        # every reason occurs where most pairs agree; a pair whose reduced
        # pair is told apart by a valuation is told apart itself, as the
        # overlap cancels from the difference
        assert {"separated", "nested", "reduced-screened"} <= set(reasons)


@pytest.mark.parametrize("exponent", [1, 2, 3])
@pytest.mark.parametrize("n", [60, 100])
def test_the_rule_drops_only_pairs_told_apart(n, exponent):
    # Every pair of one gap block, or of a gap window and one of its
    # probes, that the rule leaves out is told apart by a valuation, nested,
    # or reduces to a pair the blocks still compare or one told apart.  At
    # exponent 3 the prime 7 is left out where it would mark 7 and 14
    # (1^3 = 2^3 mod 7), so there a pair holding one each is compared.
    before = _screened_together(n, exponent, rule=False)
    together = _screened_together(n, exponent)
    told_apart = _told_apart(n, exponent)
    dropped = [
        pair
        for own, probes in oracles.screen_blocks(n, exponent, rule=False)
        for pair in [*combinations(sorted(own), 2), *((w, p) if w < p else (p, w) for w in own for p in probes)]
        if not together(*pair)
    ]
    assert dropped and all(before(*pair) for pair in dropped)
    reasons = Counter(_dropped_pair_reason(pair, told_apart, together) for pair in dropped)
    assert reasons["separated"] > 0, reasons


@pytest.mark.parametrize("exponent", [1, 2, 3])
def test_every_pair_the_rule_drops_has_distinct_exact_sums(exponent):
    # window by window at N = 200: a block without the rule, grouped by
    # exact sum, holds no two equal windows that the blocks with it do not
    # compare
    n = 200
    sums = oracles.window_sums(n, exponent)
    together = _screened_together(n, exponent)
    dropped = 0
    for own, probes in oracles.screen_blocks(n, exponent, rule=False):
        by_value: dict = {}
        for side, windows in enumerate((own, probes)):
            for window in windows:
                by_value.setdefault(sums[window], []).append((side, window))
        for members in by_value.values():
            for (side, first), (other_side, second) in combinations(members, 2):
                assert (side and other_side) or together(first, second), (first, second)
        dropped += sum(not together(first, second) for first, second in combinations(own, 2))
    assert dropped > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10, 27, 64, 65, 100, 200, 1000, 5000])
def test_partition_covers_every_window_once(n):
    # at every exponent up to N = 1000, where the rule keeps the oracle's
    # windows, and at exponent 2 beyond
    for exponent in (1, 2, 3) if n <= 1000 else (2,):
        _check_partition(n, exponent)


def _check_partition(n, exponent):
    levels = partition(n, exponent)
    expected_levels = oracles.screen_levels(n, exponent)
    assert len(levels) == len(expected_levels)
    for level, expected in zip(levels, expected_levels):
        assert level.primes == list(expected["ends"])
        assert level.end_windows == sum(expected["ends"].values())
        assert level.gap_total == expected["gap_total"]
        assert level.probe_total == expected["probe_total"]
        # the rule keeps the windows the oracle finds free of marked integers
        assert level.gap_windows == expected["gap_windows"]
        assert level.probe_windows == expected["probe_windows"]
        assert level.dropped == level.gap_total + level.probe_total - level.gap_windows - level.probe_windows
    ends = sum(sum(level["ends"].values()) for level in expected_levels)
    gaps = sum(level.gap_total for level in levels)
    # the 1 is [1, 1], which no level takes
    assert ends + gaps + 1 == n * (n + 1) // 2
    # 60 B per window of the largest block (its residue's slot and int and
    # the sort's scratch), and per integer 8 B of prefix array, the marks
    # and the prime list
    largest, charge = memory_charge(levels, n)
    assert largest == max(level.gap_windows + level.probe_windows for level in levels)
    assert charge == 60 * largest + 16 * (n + 1)


@pytest.mark.parametrize("exponent", [1, 2])
@pytest.mark.parametrize("moduli", [(61,), (211, 223)], ids=["p61", "p211-p223"])
def test_duplicate_keys_count_the_repeated_first_residues(monkeypatch, moduli, exponent):
    # read off each block's one sorted column of gap windows and probes,
    # the repeats must be the distinct first residues that occur more than
    # once in the block, counted here window by window
    monkeypatch.setattr(search_module, "select_moduli", lambda config: moduli)
    report = search(SearchConfig(max_n=60, exponent=exponent, modulus_count=len(moduli)))
    expected = oracles.block_screen_counts(60, moduli, exponent)["duplicate_keys"]
    assert report.stats["duplicate_keys"] == expected > 0


def test_probes_are_walked_only_for_a_first_residue_a_gap_window_holds():
    # at N = 60 the level M = 16 has q_1 = 11, gap windows in [12, 16] and
    # probes of one or two terms in [1, 10] (the rule marks 7, 11, 13 and
    # 14, and keeps both probes below).  Modulo 137 its only repeated
    # first residue is held by the probes [10, 10] and [8, 9]: 1/100 and
    # 145/5184 agree, as 14500 - 5184 = 68 * 137.  Two probes are compared
    # one level down, so pass 2 must not walk, let alone fingerprint, a
    # probe: while it runs, no column is read, by an index, an array of
    # indices or a slice's start, below q_1, where every probe ends, and no
    # window there is summed
    n, moduli = 60, (137, 211)
    level = next(level for level in partition(n, 2) if level.top == 16)
    q1 = level.primes[0]
    sums = [window_power_sum(Interval(a, b - a), 2) for a, b in ((10, 10), (8, 9))]
    residues = {value.numerator * pow(value.denominator, -1, moduli[0]) % moduli[0] for value in sums}
    assert q1 == 11 and len(residues) == 1 and sums[0] != sums[1]
    reads, confirming, summed = [], [], []

    class Column:
        def __init__(self, array):
            self.array = array

        def __getitem__(self, index):
            if confirming:
                if isinstance(index, slice):
                    reads.append(index.start)
                elif isinstance(index, int):
                    reads.append(index)
            return self.array[index]

    def exact_sum(interval):
        summed.append(interval)
        return window_power_sum(interval, 2)

    blocks = BlockScreen(moduli, Column(prefix_residues(n, moduli[0], 2)), exact_sum)
    true_confirm = blocks._confirm

    def confirm(*args):
        confirming.append(True)
        true_confirm(*args)
        confirming.clear()

    blocks._confirm = confirm
    blocks.gap_block(level)
    assert blocks.duplicate_keys == 1
    assert reads and min(reads) >= q1
    assert all(interval.a >= q1 for interval in summed)
    assert blocks.screen_pairs == blocks.exact_pairs == []


def test_confirming_prefix_arrays_are_built_only_after_a_repeat(monkeypatch):
    # pass 2 fingerprints from exact sums, so only the first modulus ever
    # gets a prefix array, whether or not a first residue repeats
    built = []
    true_prefix_residues = search_module.prefix_residues

    def counted(n_max, p, exponent):
        built.append(p)
        return true_prefix_residues(n_max, p, exponent)

    monkeypatch.setattr(search_module, "prefix_residues", counted)
    report = search(SearchConfig(max_n=60, modulus_count=3, seed=0))
    assert report.stats["duplicate_keys"] == 0
    assert built == [report.moduli[0]]

    built.clear()
    monkeypatch.setattr(search_module, "select_moduli", lambda config: (211, 223))
    report = search(SearchConfig(max_n=60, modulus_count=2))
    assert report.stats["duplicate_keys"] > 0
    assert built == [211]


def test_phase_timings_do_not_exceed_the_search(monkeypatch):
    # each prefix array is built once and counted in one phase: with every
    # build slowed down, and pass 2 running, the four phases still add up
    # to no more than the search took
    true_prefix_residues = search_module.prefix_residues

    def slow(n_max, p, exponent):
        time.sleep(0.05)
        return true_prefix_residues(n_max, p, exponent)

    monkeypatch.setattr(search_module, "prefix_residues", slow)
    monkeypatch.setattr(search_module, "select_moduli", lambda config: (211, 223))
    t0 = time.perf_counter()
    report = search(SearchConfig(max_n=60, modulus_count=2))
    elapsed = time.perf_counter() - t0
    assert report.stats["duplicate_keys"] > 0
    phases = sum(report.stats[key] for key in ("prefix_s", "fill_s", "sort_s", "confirm_s"))
    assert report.stats["prefix_s"] >= 0.05
    assert phases <= elapsed


@pytest.mark.parametrize(
    "n, first_bits, duplicate_keys",
    [(20_000, None, 0), (40_000, None, 0), (20_000, 30, 0), (40_000, 30, 2), (20_000, 24, 26)],
    ids=["20000", "40000", "20000-first-30-bit", "40000-first-30-bit", "20000-first-24-bit"],
)
def test_block_screen_peak_stays_within_its_charge(n, first_bits, duplicate_keys):
    # with the levels, the moduli and the prefix array built beforehand,
    # what the screen allocates is one block's list of residues, their
    # ints and the sort's scratch: the charge less its per-integer term
    # must hold it, and it holds more than the list's slots and the ints'
    # 36 bytes each (the allocator rounds them up to 48, which tracemalloc
    # does not count).  A 30- or 24-bit first modulus makes first residues
    # repeat (at 40,000 and 20,000), so pass 2 runs, with its exact sums and
    # its groups, inside the same charge
    config = SearchConfig(max_n=n)
    moduli = select_moduli(config)
    if first_bits:
        moduli = (oracles.forced_first_modulus(first_bits), *moduli[1:])
    prefix = prefix_residues(n, moduli[0], config.exponent)
    levels = partition(n, config.exponent)
    largest, charge = memory_charge(levels, n)

    def exact_sum(interval):
        return window_power_sum(interval, config.exponent)

    tracemalloc.start()
    try:
        blocks = BlockScreen(moduli, prefix, exact_sum)
        for level in levels:
            blocks.gap_block(level)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks.duplicate_keys == duplicate_keys
    assert (8 + 36) * largest < peak <= charge - 16 * (n + 1)


class _CountingSet(set):
    """A set that counts its membership tests in `lookups`."""

    lookups = 0

    def __contains__(self, value):
        _CountingSet.lookups += 1
        return super().__contains__(value)


def test_pass_two_searches_only_the_windows_the_fill_wrote(monkeypatch):
    # pass 2 walks the fill's runs, whose windows are the screened ones
    # alone; it looks each one's first residue up once among the repeated
    # values, so no more lookups than screened windows, and a probe only
    # when a gap window holds a repeated residue
    n = 20_000
    first = oracles.forced_first_modulus(24)
    moduli = (first, *select_moduli(SearchConfig(max_n=n))[1:])
    monkeypatch.setattr(search_module, "select_moduli", lambda config: moduli)
    monkeypatch.setattr(screen_module, "set", _CountingSet, raising=False)
    _CountingSet.lookups = 0
    report = search(SearchConfig(max_n=n))
    assert report.stats["duplicate_keys"] == 26
    assert 0 < _CountingSet.lookups <= report.stats["gap_windows"] + report.stats["probe_windows"]


def test_fill_reads_the_prefix_column_only_at_kept_starts():
    # the fill reads a run's prefix entries once, one more than the run
    # holds integers, so no more than two per gap window or probe it
    # writes, and none for a marked integer's windows
    n = 2000
    moduli = select_moduli(SearchConfig(max_n=n))
    prefix = prefix_residues(n, moduli[0], 2)
    read = []

    class Column:
        def __getitem__(self, index):
            entries = prefix[index]
            read.append(len(entries) if isinstance(index, slice) else 1)
            return entries

    for level in partition(n, 2):
        windows = level.gap_windows + level.probe_windows
        read.clear()
        assert BlockScreen(moduli, Column(), None).gap_block(level) == windows
        assert (windows == 0) == (sum(read) == 0) and sum(read) <= 2 * windows, level.top


@pytest.mark.parametrize("miscount", [1, -1], ids=["one-more", "one-fewer"])
def test_fill_refuses_a_level_count_its_runs_do_not_hold(miscount):
    # a partition bug must show as a traceback: the fill checks that the
    # level's runs hold exactly its count of screened windows
    n = 200
    level = partition(n, 2)[0]
    level.gap_windows += miscount
    moduli = select_moduli(SearchConfig(max_n=n))
    blocks = BlockScreen(
        moduli, prefix_residues(n, moduli[0], 2), lambda interval: window_power_sum(interval, 2)
    )
    with pytest.raises(AssertionError, match="the runs hold"):
        blocks.gap_block(level)


@pytest.mark.parametrize("miscount", [1, -1], ids=["one-more", "one-fewer"])
def test_fill_refuses_a_level_whose_dropped_count_is_off(miscount):
    # the windows the fill writes and those the rule drops, counted from
    # the marks apart from the runs, must make up the level's gap windows
    # and probes
    n = 200
    level = partition(n, 2)[0]
    level.dropped += miscount
    moduli = select_moduli(SearchConfig(max_n=n))
    blocks = BlockScreen(
        moduli, prefix_residues(n, moduli[0], 2), lambda interval: window_power_sum(interval, 2)
    )
    with pytest.raises(AssertionError, match="dropped"):
        blocks.gap_block(level)


def test_search_runs_without_numpy():
    # with numpy blocked, any import of it raises ImportError: the whole
    # `hypharm search` runs on the standard library
    probe = (
        "import sys; sys.modules['numpy'] = None; from hypharm.cli import main; "
        "code = main(['search', '--max-n', '1000', '--format', 'json']); "
        "loaded = [name for name, module in sys.modules.items() "
        "if name.split('.')[0] == 'numpy' and module is not None]; "
        "print(code, loaded, file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "0 []"


def test_confirm_exact_examples():
    # the search confirms a screen group by comparing exact window sums
    assert window_power_sum(Interval(1, 0), 2) == 1
    assert window_power_sum(Interval(1, 0), 2) != window_power_sum(Interval(2, 0), 2)
    assert window_power_sum(Interval(3, 2), 1) == Fraction(47, 60)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc and more than one CPU, where a thread pool would start workers",
)
def test_search_runs_on_one_thread():
    # the search starts no thread: no pool, and no library that starts a
    # worker per CPU on import, as numpy's OpenBLAS did
    probe = (
        "import os; from hypharm.search import SearchConfig, search; "
        "search(SearchConfig(max_n=50)); print(len(os.listdir('/proc/self/task')))"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_search_supports_exploratory_exponents():
    report = search(SearchConfig(max_n=30, exponent=3, seed=0))
    assert report.interval_count == 465 and report.exact_collision_pairs == []


def test_single_modulus_screen_still_confirms_exactly():
    # with one small-ish prime the screen may group unequal sums, but the
    # exact confirmation step must reject all of them
    report = search(SearchConfig(max_n=60, modulus_count=1, seed=3))
    assert report.exact_collision_pairs == []


def test_screen_collisions_from_a_tiny_modulus_are_all_rejected_exactly():
    # force genuine screen collisions: 1830 windows cannot have distinct
    # single residues mod 61, so grouping must kick in, and every group
    # must then fail exact confirmation
    n, p = 60, 61
    prefix = prefix_residues(n, p, 2)
    by_print = {}
    for a in range(1, n + 1):
        for end in range(a, n + 1):
            residue = (int(prefix[end]) - int(prefix[a - 1])) % p
            by_print.setdefault(residue, []).append(Interval(a, end - a))
    groups = [members for members in by_print.values() if len(members) > 1]
    assert groups, "pigeonhole guarantees screen collisions here"
    for members in groups:
        values = {g_exact(interval) for interval in members}
        assert len(values) == len(members)  # no exact equality hides inside
