"""Numeric substrate: dyadic enclosures, certified square roots, primes, valuations.

All values are immutable after construction.  An enclosure is a pair of
dyadic endpoints (integer times a power of two) that the certificates in
`sums` and `lemmas` compare exactly; nothing here does interval arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)


class Verdict(enum.Enum):
    """Outcome of a certified check."""

    CERTIFIED = "certified"
    INCONCLUSIVE = "inconclusive"
    FALSIFIED = "falsified"

    def __bool__(self) -> bool:
        return self is Verdict.CERTIFIED


# ---------------------------------------------------------------------------
# dyadic rationals and enclosures
# ---------------------------------------------------------------------------


def is_dyadic(x: Fraction) -> bool:
    """True if x is an integer multiple of a power of two."""
    d = x.denominator
    return d & (d - 1) == 0


def encode_dyadic(x: Fraction) -> str:
    """Render a dyadic rational as 'm*2^e'."""
    if not is_dyadic(x):
        raise ValueError(f"not dyadic: {x}")
    e = x.denominator.bit_length() - 1
    return f"{x.numerator}*2^{-e}"


def decode_dyadic(text: str) -> Fraction:
    m_str, e_str = text.split("*2^")
    m, e = int(m_str), int(e_str)
    return Fraction(m) * Fraction(2) ** e


@dataclass(frozen=True)
class Enclosure:
    """Interval [lo, hi] around a real value, with dyadic endpoints.

    Construction validates the endpoints and their order; what encloses
    what is proved by the caller, by exact evaluation at lo and hi.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not (is_dyadic(self.lo) and is_dyadic(self.hi)):
            raise ValueError("enclosure endpoints must be dyadic")
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def sqrt_enclosure(x, precision_bits: int) -> Enclosure:
    """Enclosure [lo, hi] with lo^2 <= x <= hi^2 and hi - lo <= 2^-precision_bits.

    Exact squares with a dyadic root come back degenerate ([root, root]).
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    if precision_bits < 1:
        raise ValueError("precision_bits must be positive")
    if x == 0:
        return Enclosure(_ZERO, _ZERO)
    e = precision_bits
    m = math.isqrt((x.numerator << (2 * e)) // x.denominator)
    lo = Fraction(m, 1 << e)
    if lo * lo == x:
        return Enclosure(lo, lo)
    return Enclosure(lo, Fraction(m + 1, 1 << e))


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
    """Prime membership up to `limit`.

    The dense table is capped at 2^24 entries; queries and iteration above
    the cap run segmented off the base table, so memory stays bounded for
    desk-scale limits.
    """

    _DENSE_CAP = 1 << 24
    _SEGMENT = 1 << 18

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("sieve limit must be at least 2")
        if limit > self._DENSE_CAP * self._DENSE_CAP:
            raise ValueError("sieve limit beyond desk scale (2^48)")
        self.limit = limit
        self._dense_limit = min(limit, self._DENSE_CAP)
        self._table = _sieve_table(self._dense_limit)

    def is_prime(self, p: int) -> bool:
        if p > self.limit:
            raise ValueError(f"query {p} beyond sieve limit {self.limit}")
        if p < 2:
            return False
        if p <= self._dense_limit:
            return bool(self._table[p])
        root = math.isqrt(p)
        return all(p % q for q in self.primes(root + 1))

    def primes(self, stop: int | None = None):
        """Yield primes < stop (default: all primes <= limit)."""
        stop = self.limit + 1 if stop is None else min(stop, self.limit + 1)
        table = self._table
        for n in range(2, min(stop, self._dense_limit + 1)):
            if table[n]:
                yield n
        lo = self._dense_limit + 1
        while lo < stop:
            hi = min(lo + self._SEGMENT, stop)
            yield from self.primes_in_range(lo, hi - 1)
            lo = hi

    def primes_in_range(self, lo: int, hi: int) -> list[int]:
        """Primes in [lo, hi], computed segmented off the base table."""
        if hi < lo:
            return []
        if math.isqrt(hi) > self._dense_limit:
            raise ValueError("range end beyond segmented reach of base table")
        lo = max(lo, 2)
        seg = bytearray([1]) * (hi - lo + 1)
        for p in range(2, math.isqrt(hi) + 1):
            if not self._table[p]:
                continue
            start = max(p * p, (lo + p - 1) // p * p)
            seg[start - lo :: p] = bytearray(len(range(start, hi + 1, p)))
        return [lo + i for i, flag in enumerate(seg) if flag]

    def smallest_prime_in(self, lo: int, hi: int) -> int | None:
        for n in range(max(lo, 2), hi + 1):
            if self.is_prime(n):
                return n
        return None


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
