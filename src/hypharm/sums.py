"""Exact and modular window sums plus the certified offset machinery.

A window {a, ..., a+r} of consecutive integers has the exact sum
G(a, r) = sum of 1/(a+i)^2.  Two irrational offsets drive the certified
reasoning about these sums:

* epsilon(n): the unique x in (0, 1/2) with 1/(n-x) - 1/(n+1-x) = 1/n^2,
  so the reciprocal-square terms telescope exactly;
* eta of a window: the offset in (epsilon(a), epsilon(a+r)) at which the
  whole window sum collapses to the product form
  (r+1) / ((a+r+1-eta) * (a-eta)).

Both are roots of quadratics with exact rational coefficients, so each is
enclosed by one outward-rounded square root at a working precision
computed from its inputs; no operation here ever trusts floating point.
eta's enclosure is certified by the quadratic's exact signs at its ends,
and where the answer is a rational comparison (the eta bands), it is
decided exactly instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import Enclosure, Verdict, miller_rabin, sqrt_enclosure

DEFAULT_PRECISION_BITS = 64
MAX_PRECISION_BITS = 1024


@dataclass(frozen=True, order=True)
class Interval:
    """Window of consecutive integers {a, ..., a+r}: start a, extent r."""

    a: int
    r: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError("window start must be >= 1")
        if self.r < 0:
            raise ValueError("window extent must be >= 0")

    @property
    def end(self) -> int:
        return self.a + self.r

    @property
    def length(self) -> int:
        return self.r + 1

    def __str__(self) -> str:
        return f"[{self.a}..{self.end}]"


@dataclass(frozen=True)
class IntervalPair:
    """Two windows in canonical orientation (first <= second by start)."""

    first: Interval
    second: Interval

    def __post_init__(self) -> None:
        if (self.first.a, self.first.r) > (self.second.a, self.second.r):
            swap = self.first
            object.__setattr__(self, "first", self.second)
            object.__setattr__(self, "second", swap)

    @property
    def disjoint(self) -> bool:
        return self.first.end < self.second.a

    @property
    def overlapping(self) -> bool:
        return not self.disjoint

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


# ---------------------------------------------------------------------------
# exact and modular window sums
# ---------------------------------------------------------------------------


def _power_sum_range(lo: int, hi: int, exponent: int) -> Fraction:
    # Balanced splitting keeps intermediate denominators near their final
    # size instead of quadratic blowup from a left fold.
    if hi - lo < 16:
        return sum(Fraction(1, k**exponent) for k in range(lo, hi + 1))
    mid = (lo + hi) // 2
    return _power_sum_range(lo, mid, exponent) + _power_sum_range(mid + 1, hi, exponent)


def window_power_sum(interval: Interval, exponent: int) -> Fraction:
    """Exact reduced value of sum of 1/k^exponent over the window."""
    if exponent < 1:
        raise ValueError("exponent must be a positive integer")
    return _power_sum_range(interval.a, interval.end, exponent)


def g_exact(interval: Interval) -> Fraction:
    """Exact reduced value of G(a, r) = sum of 1/(a+i)^2, i = 0..r."""
    return window_power_sum(interval, 2)


def g_mod(interval: Interval, p: int, exponent: int = 2) -> int:
    """Residue of the window sum mod p after clearing denominators.

    Requires p prime and p > a + r so every term is invertible; then the
    result agrees with the exact sum reduced mod p.
    """
    if not miller_rabin(p):
        raise ValueError(f"modulus {p} is not prime")
    if p <= interval.end:
        raise ValueError(f"modulus {p} divides a term of {interval}")
    return sum(pow(k, -exponent, p) for k in range(interval.a, interval.end + 1)) % p


# ---------------------------------------------------------------------------
# the telescoping offset epsilon
# ---------------------------------------------------------------------------


def epsilon(n: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Certified enclosure of (2n + 1 - sqrt(4n^2 + 1)) / 2, inside (0, 1/2).

    This is the unique offset x in (0, 1/2) with
    1/(n-x) - 1/(n+1-x) = 1/n^2.
    """
    if n < 1:
        raise ValueError("offset index must be >= 1")
    if precision_bits < 1:
        raise ValueError("precision_bits must be positive")
    # Enough working bits that the (0, 1/2) guarantee is provable outright.
    w = max(precision_bits, (4 * n + 1).bit_length() + 2)
    root = sqrt_enclosure(4 * n * n + 1, w)
    enc = Enclosure((2 * n + 1 - root.hi) / 2, (2 * n + 1 - root.lo) / 2)
    if not (enc.lo > 0 and enc.hi < Fraction(1, 2)):
        raise AssertionError(f"offset enclosure escaped (0, 1/2) at n={n}")
    return enc


def telescope_check(n: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> Verdict:
    """Certify 1/(n - x) - 1/(n + 1 - x) = 1/n^2 for x = epsilon(n).

    Both sides are evaluated in enclosure arithmetic at precision_bits;
    CERTIFIED means the residual enclosure contains 0 with width
    <= 2^(4 - precision_bits).  One pass always reaches that width: x has
    width <= 2^-(p+1) and lies in (0, 1/2), so 1/(n - x) adds at most
    4 * 2^-p (2 from x, 2 from rounding), 1/(n + 1 - x) at most 2.25 * 2^-p
    and 1/n^2 at most 2^-p, for a residual width below 8 * 2^-p.
    INCONCLUSIVE is kept for a width that ever exceeds the tolerance.
    """
    if n < 1:
        raise ValueError("telescope index must be >= 1")
    w = precision_bits
    eps = epsilon(n, w)
    left = (n - eps).reciprocal(w) - (n + 1 - eps).reciprocal(w)
    residual = left - Enclosure.from_fraction(Fraction(1, n * n), w)
    if not residual.contains_zero():
        return Verdict.FALSIFIED
    if residual.width <= Fraction(2) ** (4 - precision_bits):
        return Verdict.CERTIFIED
    return Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# the product-form offset eta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaSolution:
    """Certified root of the product-form quadratic for one window.

    ``quadratic`` holds the exact coefficients (c2, c1, c0) of
    c2*x^2 + c1*x + c0, whose smaller root, inside the epsilon bracket, is
    eta.  The enclosure comes from the closed form; its endpoints are
    dyadic points at which the quadratic was evaluated exactly with
    opposite signs (or a degenerate point where it vanishes).
    """

    interval: Interval
    eta: Enclosure
    quadratic: tuple[Fraction, Fraction, Fraction]
    epsilon_low: Enclosure
    epsilon_high: Enclosure
    strict_inside: bool

    def quadratic_at(self, x: Fraction) -> Fraction:
        c2, c1, c0 = self.quadratic
        return c2 * x * x + c1 * x + c0


def _product_form_quadratic(interval: Interval) -> tuple[Fraction, Fraction, Fraction]:
    # S*x^2 - S*(2a+r+1)*x + S*a*(a+r+1) - (r+1) = 0, S the exact window sum;
    # obtained by clearing (r+1) = S * (a+r+1-x) * (a-x).
    a, r = interval.a, interval.r
    s = g_exact(interval)
    return (s, -s * (2 * a + r + 1), s * a * (a + r + 1) - (r + 1))


def _discriminant(interval: Interval, g: Fraction) -> Fraction:
    # D = (r+1)^2 + 4(r+1)/G: the product-form quadratic's discriminant
    # divided by G^2, so its roots are (2a+r+1 -+ sqrt(D)) / 2.
    n = interval.r + 1
    return n * n + 4 * n / g


def solve_eta(interval: Interval, precision_bits: int = DEFAULT_PRECISION_BITS) -> EtaSolution:
    """Certified enclosure of the offset eta of a window.

    eta is the root of the product-form quadratic lying inside
    (epsilon(a), epsilon(a+r)); it satisfies
    G(a, r) = (r+1) / ((a+r+1-eta) * (a-eta)).  It is the smaller root,
    eta = (2a+r+1 - sqrt(D)) / 2 with D = (r+1)^2 + 4(r+1)/G(a, r), so one
    outward-rounded square root at w + 1 bits gives an enclosure of width
    <= 2^-(w+2), with w = max(p + 8, 2*bitlen(a+r) + 8).

    The enclosure is certified without trusting the square root: the
    quadratic, evaluated exactly, is positive at its lower end and
    negative at its upper end (zero at both for a degenerate point).  For
    r >= 1 it is also certified strictly inside the epsilon bracket via
    disjoint endpoint enclosures at w bits; the bracket is about
    r/(8a(a+r)) wide and eta lies well inside it.  A failure of either
    check raises ArithmeticError.
    """
    a, r = interval.a, interval.r
    quadratic = _product_form_quadratic(interval)
    s = quadratic[0]
    u, v = s.numerator, s.denominator
    # Integer coefficients of v * quadratic, for exact sign evaluation.
    ai = u
    bi = -u * (2 * a + r + 1)
    ci = u * a * (a + r + 1) - (r + 1) * v

    def sign_at(x: Fraction) -> int:
        num, den = x.numerator, x.denominator  # den = 2^k
        value = ai * num * num + bi * num * den + ci * den * den
        return (value > 0) - (value < 0)

    w = max(precision_bits + 8, 2 * (a + r).bit_length() + 8)
    root = sqrt_enclosure(_discriminant(interval, s), w + 1)
    eta = Enclosure((2 * a + r + 1 - root.hi) / 2, (2 * a + r + 1 - root.lo) / 2)
    if (sign_at(eta.lo), sign_at(eta.hi)) != ((1, -1) if eta.width else (0, 0)):
        raise ArithmeticError(
            f"the product-form quadratic does not change sign across {eta} for {interval}"
        )
    eps_low = epsilon(a, w)
    eps_high = eps_low if r == 0 else epsilon(a + r, w)
    strict = r >= 1 and eps_low.hi < eta.lo and eta.hi < eps_high.lo
    if r >= 1 and not strict:
        raise ArithmeticError(
            f"could not certify eta strictly inside the bracket for {interval} at {w} bits"
        )
    return EtaSolution(interval, eta, quadratic, eps_low, eps_high, strict)


@dataclass(frozen=True)
class EtaBandReport:
    """Certified band facts for one window's offset eta.

    ``q_*`` cover 1/(4(a+r)+1) < 1 - 2*eta < 2/(4a+1).  ``expr_*`` cover
    the quadratic-form band |(4a+2r)*t - 1 + t^2| < (2r+1)/(4(a+r)) with
    t = 1 - 2*eta; its upper half is known to fail for small starts, and
    the verdicts report that faithfully.
    """

    interval: Interval
    eta: EtaSolution
    q_lower: Fraction
    q_upper: Fraction
    q_lower_holds: bool
    q_upper_holds: bool
    expr_bound: Fraction
    expr_exact: Fraction
    expr_lower_holds: bool
    expr_upper_holds: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.q_lower_holds
            and self.q_upper_holds
            and self.expr_lower_holds
            and self.expr_upper_holds
        )


def eta_band_report(
    interval: Interval, precision_bits: int = DEFAULT_PRECISION_BITS
) -> EtaBandReport:
    """Certify the eta bracket band and the quadratic-form band for a window.

    All four comparisons are exact rational ones.  eta is the smaller root
    of its quadratic, so t = 1 - 2*eta = sqrt(D) - (2a+r) with
    D = (r+1)^2 + 4(r+1)/G(a, r).  Hence q < t <=> (2a+r+q)^2 < D for any
    q > -(2a+r), and (4a+2r)*t - 1 + t^2 = D - (2a+r)^2 - 1 exactly.  The
    enclosure from solve_eta at precision_bits is reported alongside, and
    its G is the one the comparisons use.
    """
    a, r = interval.a, interval.r
    solution = solve_eta(interval, precision_bits)
    disc = _discriminant(interval, solution.quadratic[0])
    q_lower = Fraction(1, 4 * (a + r) + 1)
    q_upper = Fraction(2, 4 * a + 1)
    expr_bound = Fraction(2 * r + 1, 4 * (a + r))
    expr_exact = disc - (2 * a + r) ** 2 - 1
    return EtaBandReport(
        interval,
        solution,
        q_lower,
        q_upper,
        (2 * a + r + q_lower) ** 2 < disc,
        disc < (2 * a + r + q_upper) ** 2,
        expr_bound,
        expr_exact,
        -expr_exact < expr_bound,
        expr_exact < expr_bound,
    )


# ---------------------------------------------------------------------------
# overlap reduction
# ---------------------------------------------------------------------------


def reduce_overlap(pair: IntervalPair) -> IntervalPair:
    """Rewrite an overlapping pair as a disjoint pair with the same sum gap.

    For first = (a1, r), second = (a2, s) with a1 < a2 <= a1 + r, the
    shared terms {a2, ..., a1+r} cancel from the difference, leaving
    G(a1, a2-a1-1) - G(a1+r+1, a2+s-a1-r-1) = G(a1, r) - G(a2, s)
    exactly, as an unconditional rearrangement.
    """
    a1, r = pair.first.a, pair.first.r
    a2, s = pair.second.a, pair.second.r
    if not (a1 < a2 <= a1 + r):
        raise ValueError(f"{pair} does not overlap with distinct starts")
    tail_extent = a2 + s - a1 - r - 1
    if tail_extent < 0:
        raise ValueError(f"second window of {pair} ends inside the first")
    return IntervalPair(
        Interval(a1, a2 - a1 - 1),
        Interval(a1 + r + 1, tail_extent),
    )
