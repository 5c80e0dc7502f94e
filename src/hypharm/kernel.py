"""Numeric substrate: dyadic enclosures, certified square roots, primes, valuations.

All values are immutable after construction.  An enclosure is a pair of
dyadic endpoints (integer times a power of two) that the certificates in
`sums` and `lemmas` compare exactly; nothing here does interval arithmetic.

Primes up to a bound come from one dense byte table, `PrimeSieve`, which
every prime lemma reads; larger word-size integers go to `miller_rabin`.
`require_memory` refuses, before allocation, any table that would not fit
in physical memory or under the process's address-space limit.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import os
import resource
import sys
from collections import namedtuple
from fractions import Fraction


class Verdict(enum.Enum):
    """Outcome of a certified check; one that cannot be certified raises
    `sums.CertificateError` instead."""

    CERTIFIED = "certified"
    FALSIFIED = "falsified"


# ---------------------------------------------------------------------------
# dyadic rationals and enclosures
# ---------------------------------------------------------------------------


def is_dyadic(x: Fraction) -> bool:
    """True if x is an integer multiple of a power of two."""
    d = x.denominator
    return d & (d - 1) == 0


def unlimited_digits(func):
    """func, run with the int/str conversion limit of CPython 3.10.7+
    (4,300 digits by default) lifted and then restored: reports are
    lossless at any size, while parsing user input keeps the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return func

    @functools.wraps(func)
    def lifted(*args, **kwargs):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return func(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(limit)

    return lifted


@unlimited_digits
def encode_dyadic(x: Fraction) -> str:
    """Render a dyadic rational as 'm*2^e'."""
    if not is_dyadic(x):
        raise ValueError(f"not dyadic: {x}")
    e = x.denominator.bit_length() - 1
    return f"{x.numerator}*2^{-e}"


@unlimited_digits
def decode_dyadic(text: str) -> Fraction:
    m_str, e_str = text.split("*2^")
    m, e = int(m_str), int(e_str)
    return Fraction(m) * Fraction(2) ** e


def checked_make(cls, fields):
    """A named tuple's `_make` that builds through `cls.__new__`, so that
    `_make` and `_replace` check what the constructor checks."""
    return cls(*fields)


class Enclosure(namedtuple("Enclosure", "lo hi")):
    """Interval [lo, hi] around a real value, with dyadic Fraction endpoints.

    Construction validates the endpoints and their order; what encloses
    what is proved by the caller, by exact evaluation at lo and hi.
    """

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if not (is_dyadic(lo) and is_dyadic(hi)):
            raise ValueError("enclosure endpoints must be dyadic")
        if lo > hi:
            raise ValueError(f"inverted enclosure [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    _make = classmethod(checked_make)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def sqrt_mantissas(num: int, den: int, e: int) -> tuple[int, int]:
    """Integers lo <= hi <= lo + 1 with lo^2 <= 4^e * num/den <= hi^2, for num >= 0 < den.

    So lo/2^e and hi/2^e enclose sqrt(num/den), and hi == lo exactly when
    num/den is the square of lo/2^e.  One isqrt; no rational arithmetic.
    """
    lo = math.isqrt((num << (2 * e)) // den)
    return lo, lo + (lo * lo * den != num << (2 * e))


def sqrt_enclosure(x, precision_bits: int) -> Enclosure:
    """Enclosure [lo, hi] with lo^2 <= x <= hi^2 and hi - lo <= 2^-precision_bits.

    The `Enclosure` view of `sqrt_mantissas`; exact squares come back degenerate.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    if precision_bits < 1:
        raise ValueError("precision_bits must be positive")
    lo, hi = sqrt_mantissas(x.numerator, x.denominator, precision_bits)
    return Enclosure(Fraction(lo, 1 << precision_bits), Fraction(hi, 1 << precision_bits))


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_VALID_BELOW = 3_317_044_064_679_887_385_961_981


def miller_rabin(n: int) -> bool:
    """Deterministic primality test for word-sized integers (n < 3.3e24)."""
    if n >= _MR_VALID_BELOW:
        raise ValueError("miller_rabin is only deterministic below 3.3e24")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def status_kb(field: str) -> int:
    """kB value of a /proc/self/status field (VmSize, VmHWM), or 0 without /proc."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def require_memory(nbytes: int, what: str) -> None:
    """Raise ValueError if `what`, costing `nbytes`, would not fit in memory.

    The cap is the smaller of physical memory and what is left under the
    process's soft address-space limit (RLIMIT_AS, less the VmSize already
    mapped), when one is set; the message names the one that binds, and
    names a cost of 2^64 bytes or more by the power of two below it.
    Callers ask before they allocate, so an oversized table is refused
    with a message instead of ending in a MemoryError or an out-of-memory
    kill.
    """
    memory, source = physical_memory(), "of physical memory"
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    headroom = memory if soft == resource.RLIM_INFINITY else soft - 1024 * status_kb("VmSize")
    if headroom < memory:
        memory, source = headroom, "left under the address-space limit (RLIMIT_AS)"
    if nbytes > memory:
        needs = nbytes if nbytes < 1 << 64 else f"at least 2^{nbytes.bit_length() - 1}"
        raise ValueError(f"{what} needs {needs} bytes, more than the {memory} bytes {source}")


def _sieve_table(limit: int) -> bytearray:
    """Byte table t with t[i] = 1 iff i is prime, for 0 <= i <= limit."""
    table = bytearray([1]) * (limit + 1)
    table[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if table[p]:
            start = p * p
            table[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return table


class PrimeSieve:
    """Prime membership for 0 <= n <= limit, from one dense byte table.

    The table keeps one byte per integer.  Building it peaks at 1.5 bytes
    per integer, because the zero run that strikes out the multiples of 2
    is live beside it, and that peak is what `require_memory` is asked
    for: a limit that would not fit raises ValueError before anything is
    allocated, and so does every query above `limit`.
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("sieve limit must be at least 2")
        require_memory(limit + 1 + len(range(4, limit + 1, 2)), f"a prime table up to {limit}")
        self.limit = limit
        self._table = _sieve_table(limit)

    def _check(self, n: int) -> None:
        if n > self.limit:
            raise ValueError(f"query {n} beyond sieve limit {self.limit}")

    def is_prime(self, p: int) -> bool:
        self._check(p)
        return p >= 2 and bool(self._table[p])

    def primes(self):
        """Iterator over the primes <= limit, in ascending order."""
        return itertools.compress(range(self.limit + 1), self._table)

    def smallest_prime_in(self, lo: int, hi: int) -> int | None:
        """Smallest prime in [lo, hi], or None if the range holds none."""
        self._check(hi)
        found = self._table.find(1, max(lo, 0), hi + 1)
        return None if found < 0 else found


# ---------------------------------------------------------------------------
# valuations and progression lcm
# ---------------------------------------------------------------------------


def _require_prime(p: int) -> None:
    if not miller_rabin(p):
        raise ValueError(f"{p} is not prime")


def p_adic_valuation(n: int, p: int) -> int:
    """Largest e with p^e dividing n."""
    if n < 1:
        raise ValueError("valuation needs n >= 1")
    _require_prime(p)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def factorial_valuation(n: int, p: int) -> int:
    """Exponent of p in n!, by the floor-division cascade."""
    if n < 0:
        raise ValueError("factorial_valuation needs n >= 0")
    _require_prime(p)
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def lcm_progression(a: int, b: int, n: int) -> int:
    """Exact lcm of the arithmetic progression {a, a+b, ..., a+nb}."""
    if a < 1 or b < 1:
        raise ValueError("progression needs a >= 1 and b >= 1")
    if n < 0:
        raise ValueError("progression needs n >= 0")
    return math.lcm(*(a + i * b for i in range(n + 1)))
