import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypharm.kernel
from hypharm.kernel import (
    Enclosure,
    PrimeSieve,
    decode_dyadic,
    encode_dyadic,
    factorial_valuation,
    lcm_progression,
    miller_rabin,
    p_adic_valuation,
    sqrt_enclosure,
    sqrt_mantissas,
    status_kb,
)

import oracles


# -- valuations --


def test_valuation_examples():
    assert p_adic_valuation(8, 2) == 3
    assert p_adic_valuation(10, 3) == 0
    assert factorial_valuation(10, 2) == 8  # == oracle on 10!


def test_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        p_adic_valuation(0, 2)
    with pytest.raises(ValueError):
        p_adic_valuation(10, 4)
    with pytest.raises(ValueError):
        factorial_valuation(10, 9)


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 5, 7, 13, 97]))
def test_valuation_divides_property(n, p):
    v = p_adic_valuation(n, p)
    assert n % p**v == 0
    assert n % p ** (v + 1) != 0


def test_factorial_valuation_matches_bruteforce_up_to_500():
    for p in (2, 3):
        for n in range(0, 501):
            assert factorial_valuation(n, p) == oracles.factorial_valuation_bruteforce(n, p)
    for p in (7, 97):
        for n in range(0, 501, 7):
            assert factorial_valuation(n, p) == oracles.factorial_valuation_bruteforce(n, p)


def test_factorial_valuation_is_legendre_cascade():
    for n, p in ((500, 3), (499, 5), (81, 3)):
        expected = sum(n // p**i for i in range(1, 1 + math.ceil(math.log(n, p))))
        assert factorial_valuation(n, p) == expected


# -- lcm of progressions --


def test_lcm_progression_examples():
    assert lcm_progression(1, 1, 4) == 60
    assert lcm_progression(3, 2, 2) == 105
    assert lcm_progression(7, 1, 0) == 7


def test_lcm_progression_matches_fold_and_divisibility():
    for a in range(1, 21):
        for b in range(1, 21):
            for n in (0, 1, 5, 12):
                elements = [a + i * b for i in range(n + 1)]
                value = lcm_progression(a, b, n)
                assert value == oracles.lcm_fold(elements)
                assert all(value % e == 0 for e in elements)
                # and it divides any common multiple, e.g. the plain product
                assert math.prod(elements) % value == 0


def test_lcm_progression_rejects_bad_input():
    with pytest.raises(ValueError):
        lcm_progression(0, 1, 3)
    with pytest.raises(ValueError):
        lcm_progression(1, 0, 3)


# -- square-root enclosures --


def test_sqrt_enclosure_perfect_square_is_degenerate():
    enc = sqrt_enclosure(4, 64)
    assert enc.lo == enc.hi == 2
    enc = sqrt_enclosure(Fraction(9, 16), 32)
    assert enc.lo == enc.hi == Fraction(3, 4)


def test_sqrt_enclosure_of_two_matches_bisection_oracle():
    enc = sqrt_enclosure(2, 20)
    lo, hi = oracles.sqrt_bisect(Fraction(2), Fraction(1, 2**20))
    assert enc.width <= Fraction(1, 2**20)
    assert enc.lo <= hi and lo <= enc.hi  # both brackets contain sqrt(2)
    assert float(enc.lo) == pytest.approx(1.41421356, abs=1e-6)


def test_sqrt_enclosure_defining_property():
    enc = sqrt_enclosure(5, 64)
    assert enc.lo**2 < 5 < enc.hi**2


def test_sqrt_enclosure_rejects_negative():
    with pytest.raises(ValueError):
        sqrt_enclosure(-1, 16)


@given(
    st.fractions(min_value=0, max_value=10**6),
    st.integers(min_value=4, max_value=96),
)
@settings(max_examples=200)
def test_sqrt_enclosure_contract(x, bits):
    enc = sqrt_enclosure(x, bits)
    assert enc.lo**2 <= x <= enc.hi**2
    assert enc.width <= Fraction(1, 2**bits)


@given(
    st.integers(min_value=0, max_value=10**30),
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=1, max_value=96),
)
@settings(max_examples=200)
def test_sqrt_mantissas_contract(num, den, e):
    lo, hi = sqrt_mantissas(num, den, e)
    assert lo * lo * den <= num * 4**e <= hi * hi * den
    assert hi - lo == (lo * lo * den != num * 4**e)  # one unit, or an exact square
    assert sqrt_enclosure(Fraction(num, den), e) == Enclosure(Fraction(lo, 2**e), Fraction(hi, 2**e))


def test_sqrt_enclosure_narrows_monotonically():
    previous = sqrt_enclosure(7, 8)
    for bits in (16, 32, 64, 128):
        current = sqrt_enclosure(7, bits)
        assert previous.lo <= current.lo and current.hi <= previous.hi
        previous = current


# -- dyadics and enclosures --


def test_dyadic_encoding_round_trip():
    for x in (Fraction(5, 8), Fraction(-3, 4), Fraction(7), Fraction(0)):
        assert decode_dyadic(encode_dyadic(x)) == x
    with pytest.raises(ValueError):
        encode_dyadic(Fraction(1, 3))


def test_enclosure_validation():
    with pytest.raises(ValueError):
        Enclosure(Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(ValueError):
        Enclosure(Fraction(1, 2), Fraction(1, 4))


def test_enclosure_make_and_replace_validate_as_the_constructor():
    unit = Enclosure(Fraction(0), Fraction(1))
    builds = (
        Enclosure,
        lambda *ends: Enclosure._make(ends),
        lambda lo, hi: unit._replace(lo=lo, hi=hi),
    )
    for ends in ((Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4))):
        messages = set()
        for build in builds:
            with pytest.raises(ValueError) as error:
                build(*ends)
            messages.add(str(error.value))
        assert len(messages) == 1


# -- primes --


def test_sieve_agrees_with_miller_rabin():
    sieve = PrimeSieve(40_000)
    for n in range(2, 40_001):
        assert sieve.is_prime(n) == miller_rabin(n)
    assert list(sieve.primes()) == [n for n in range(40_001) if miller_rabin(n)]
    # every query window ending at 10,020, including the empty tails past 10,009
    for lo in range(9_990, 10_021):
        expected = next((n for n in range(lo, 10_021) if miller_rabin(n)), None)
        assert sieve.smallest_prime_in(lo, 10_020) == expected


def test_sieve_segmented_range():
    sieve = PrimeSieve(10**6)
    assert [p for p in sieve.primes() if 10 <= p <= 30] == [11, 13, 17, 19, 23, 29]
    assert max(sieve.primes()) == 999_983
    assert sieve.smallest_prime_in(24, 28) is None
    assert sieve.smallest_prime_in(24, 29) == 29


def test_sieve_rejects_out_of_range_query():
    sieve = PrimeSieve(100)
    with pytest.raises(ValueError):
        sieve.is_prime(101)
    with pytest.raises(ValueError):
        sieve.smallest_prime_in(90, 101)


def test_sieve_guard_charges_its_build_peak(monkeypatch):
    # the p = 2 zero run is live beside the table, so building it peaks at
    # 1.5 B per integer; memory for 1.25 B per integer must be refused
    limit = 100_000
    monkeypatch.setattr(hypharm.kernel, "physical_memory", lambda: 5 * (limit + 1) // 4)
    with pytest.raises(ValueError, match="prime table"):
        PrimeSieve(limit)


def test_status_kb_reads_proc_or_gives_zero(monkeypatch):
    # resident pages are mapped pages, so the resident peak is at most the
    # mapped peak
    if os.path.exists("/proc/self/status"):
        assert 0 < status_kb("VmHWM") <= status_kb("VmPeak")
    assert status_kb("NoSuchField") == 0

    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/status")

    monkeypatch.setattr(hypharm.kernel, "open", no_proc, raising=False)
    assert status_kb("VmHWM") == status_kb("VmSize") == 0


def test_miller_rabin_known_values():
    assert miller_rabin(2) and miller_rabin(3)
    assert not miller_rabin(1) and not miller_rabin(0)
    assert miller_rabin((1 << 61) - 1)  # Mersenne prime
    assert not miller_rabin((1 << 61) - 3)
    # strong pseudoprime to several bases, caught by the full witness set
    assert not miller_rabin(3215031751)

