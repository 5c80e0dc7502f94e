"""Exact window sums plus the certified offset machinery.

A window {a, ..., a+r} of consecutive integers has the exact sum
G(a, r) = sum of 1/(a+i)^2.  Two irrational offsets drive the certified
reasoning about these sums:

* epsilon(n): the unique x in (0, 1/2) with 1/(n-x) - 1/(n+1-x) = 1/n^2,
  so the reciprocal-square terms telescope exactly;
* eta of a window: the offset in (epsilon(a), epsilon(a+r)) at which the
  whole window sum collapses to the product form
  (r+1) / ((a+r+1-eta) * (a-eta)).

Both are the smaller roots of quadratics with exact rational
coefficients, so each is enclosed by one outward-rounded square root at a
working precision computed from its inputs.  An enclosure is certified by
the exact integer signs of its quadratic at its two dyadic ends
(`_sign_change`): solve_eta does so for eta, and that test is the whole of
telescope_check for epsilon.  Where the answer is a rational comparison
(the eta bands), it is decided exactly instead.  No floating point and no
interval arithmetic is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import Enclosure, Verdict, sqrt_enclosure

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
# exact window sums
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


# ---------------------------------------------------------------------------
# sign certificates
# ---------------------------------------------------------------------------


def _sign_change(coeffs: tuple[int, int, int], enclosure: Enclosure) -> bool:
    """True if c2*x^2 + c1*x + c0 is > 0 at enclosure.lo and < 0 at enclosure.hi.

    At x = num/den the quadratic has the sign of the integer
    c2*num^2 + c1*num*den + c0*den^2, which is evaluated exactly.  A
    degenerate enclosure must be an exact root instead: zero at both ends.
    """
    c2, c1, c0 = coeffs
    signs = []
    for x in (enclosure.lo, enclosure.hi):
        num, den = x.numerator, x.denominator
        value = c2 * num * num + c1 * num * den + c0 * den * den
        signs.append((value > 0) - (value < 0))
    return signs == ([1, -1] if enclosure.width else [0, 0])


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

    For x < n the identity says (n - x)(n + 1 - x) = n^2, that is
    q(x) = x^2 - (2n+1)x + n = 0, and epsilon(n) is the smaller root of q
    (the larger one exceeds 2n).  q is positive left of that root and
    negative between the roots, so the exact integer signs (+, -) of q at
    the two dyadic ends of epsilon(n, precision_bits) prove that the
    enclosure holds the root.  4n^2 + 1 lies strictly between (2n)^2 and
    (2n+1)^2, so the root is irrational and neither sign is ever zero.

    CERTIFIED means those signs plus a width <= 2^-precision_bits; a sign
    failure is FALSIFIED.  epsilon's width is at most 2^-(p+1), so
    INCONCLUSIVE is only a guard for a width above the tolerance.
    """
    if n < 1:
        raise ValueError("telescope index must be >= 1")
    eps = epsilon(n, precision_bits)
    if not _sign_change((1, -(2 * n + 1), n), eps):
        return Verdict.FALSIFIED
    if eps.width <= Fraction(1, 1 << precision_bits):
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
    coeffs = (u, -u * (2 * a + r + 1), u * a * (a + r + 1) - (r + 1) * v)
    w = max(precision_bits + 8, 2 * (a + r).bit_length() + 8)
    root = sqrt_enclosure(_discriminant(interval, s), w + 1)
    eta = Enclosure((2 * a + r + 1 - root.hi) / 2, (2 * a + r + 1 - root.lo) / 2)
    if not _sign_change(coeffs, eta):
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
