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
coefficients, so each is enclosed by one integer square root at a working
precision computed from its inputs.  Every certificate is the exact sign
of a quadratic at a dyadic point m/2^k, evaluated on the integers m and k
(`_sign`): signs at an enclosure's two ends prove it holds the root (the
whole of telescope_check), and two more put eta inside its epsilon
bracket.  The eta bands compare sqrt(D), D = Du/u, with rationals; each
verdict is decided exactly by cross-multiplying against the integer Du.
No floating point and no interval arithmetic is used.
A certificate that cannot be established raises `CertificateError`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .kernel import Enclosure, Verdict, require_memory, sqrt_enclosure, sqrt_mantissas

DEFAULT_PRECISION_BITS = 64
MAX_PRECISION_BITS = 1024
# A window sum whose unreduced fraction is smaller than this is summed
# without asking `require_memory`.
_SMALL_SUM_BYTES = 1 << 20


class CertificateError(ArithmeticError):
    """A certificate could not be established; correct code never raises it.

    Every check ends in one of three outcomes:

    * a `Verdict.FALSIFIED` verdict, or a sweep failure, is a result: the
      report lists it and the exit code is 1;
    * `CertificateError` means nothing was proved either way: no report,
      exit 1 and one stderr line, `hypharm <subcommand>: <message>`;
    * an `AssertionError` from `compute_L` or `epsilon`, or any other
      exception, is a bug and shows a traceback.
    """


class Interval(namedtuple("Interval", "a r")):
    """Window of consecutive integers {a, ..., a+r}: start a, extent r; ordered by (a, r)."""

    __slots__ = ()

    def __new__(cls, a: int, r: int):
        if a < 1:
            raise ValueError("window start must be >= 1")
        if r < 0:
            raise ValueError("window extent must be >= 0")
        return super().__new__(cls, a, r)

    @property
    def end(self) -> int:
        return self.a + self.r

    @property
    def length(self) -> int:
        return self.r + 1

    def __str__(self) -> str:
        return f"[{self.a}..{self.end}]"


class IntervalPair(namedtuple("IntervalPair", "first second")):
    """Two windows in canonical orientation (first <= second by start)."""

    __slots__ = ()

    def __new__(cls, first: Interval, second: Interval):
        if first > second:
            first, second = second, first
        return super().__new__(cls, first, second)

    @property
    def disjoint(self) -> bool:
        return self.first.end < self.second.a

    @property
    def overlapping(self) -> bool:
        return not self.disjoint

    @property
    def nested(self) -> bool:
        """One window holds the other, so no overlap reduction applies."""
        return self.first.a == self.second.a or self.second.end <= self.first.end

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


# ---------------------------------------------------------------------------
# exact window sums
# ---------------------------------------------------------------------------


def _power_sum_range(lo: int, hi: int, exponent: int) -> tuple[int, int]:
    # Unreduced (num, den) of the sum: balanced splitting keeps products
    # even-sized, and the caller's one reduction is the sum's only gcd.
    if hi - lo < 16:
        num, den = 0, 1
        for k in range(lo, hi + 1):
            power = k**exponent
            num, den = num * power + den, den * power
        return num, den
    mid = (lo + hi) // 2
    num1, den1 = _power_sum_range(lo, mid, exponent)
    num2, den2 = _power_sum_range(mid + 1, hi, exponent)
    return num1 * den2 + num2 * den1, den1 * den2


def window_power_sum(interval: Interval, exponent: int) -> Fraction:
    """Exact reduced value of sum of 1/k^exponent over the window.

    The unreduced numerator and denominator hold about
    exponent * (r+1) * bit_length(a+r) bits each.  A window whose fraction
    would not fit in memory raises ValueError before anything is summed.
    """
    if exponent < 1:
        raise ValueError("exponent must be a positive integer")
    nbytes = exponent * interval.length * interval.end.bit_length() // 4
    if nbytes > _SMALL_SUM_BYTES:
        terms = interval.length.bit_length() - 1
        require_memory(nbytes, f"the unreduced sum of a window of at least 2^{terms} terms")
    return Fraction(*_power_sum_range(interval.a, interval.end, exponent))


def g_exact(interval: Interval) -> Fraction:
    """Exact reduced value of G(a, r) = sum of 1/(a+i)^2, i = 0..r."""
    return window_power_sum(interval, 2)


# ---------------------------------------------------------------------------
# sign certificates
# ---------------------------------------------------------------------------


def _sign(coeffs: tuple[int, int, int], m: int, k: int) -> int:
    """Sign of c2*x^2 + c1*x + c0 at x = m/2^k: that of c2*m^2 + c1*m*2^k + c0*4^k."""
    c2, c1, c0 = coeffs
    value = c2 * m * m + ((c1 * m) << k) + (c0 << (2 * k))
    return (value > 0) - (value < 0)


def _sign_change(coeffs: tuple[int, int, int], lo: tuple[int, int], hi: tuple[int, int]) -> bool:
    """True if c2*x^2 + c1*x + c0 is > 0 at lo and < 0 at hi, each an (m, k) for m/2^k.

    A degenerate enclosure must be an exact root instead: zero at both ends.
    """
    signs = [_sign(coeffs, *lo), _sign(coeffs, *hi)]
    return signs == ([1, -1] if lo[0] << hi[1] != hi[0] << lo[1] else [0, 0])


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
    failure is FALSIFIED.  epsilon's width is at most 2^-(p+1), so the
    CertificateError for a width above the tolerance is only a guard.
    """
    if n < 1:
        raise ValueError("telescope index must be >= 1")
    eps = epsilon(n, precision_bits)
    ends = [(x.numerator, x.denominator.bit_length() - 1) for x in (eps.lo, eps.hi)]
    if not _sign_change((1, -(2 * n + 1), n), *ends):
        return Verdict.FALSIFIED
    if eps.width > Fraction(1, 1 << precision_bits):
        raise CertificateError(f"epsilon({n}) enclosure {eps} is wider than 2^-{precision_bits}")
    return Verdict.CERTIFIED


# ---------------------------------------------------------------------------
# the product-form offset eta
# ---------------------------------------------------------------------------


class EtaSolution(namedtuple("EtaSolution", "interval eta g")):
    """Certified root of the product-form quadratic for one window.

    ``eta`` is an `Enclosure`, ``g`` the exact window sum G(a, r) as a
    Fraction, the quadratic's only input.  The enclosure's dyadic ends are
    points at which the quadratic was evaluated exactly with opposite signs
    (or a degenerate point where it vanishes).  solve_eta certifies width
    <= 2^-p and, for r >= 1, epsilon(a) < eta < epsilon(a+r).
    """

    __slots__ = ()


def eta_working_bits(interval: Interval, precision_bits: int) -> int:
    """Bits of solve_eta's square root: w + 1, w = max(p + 8, 2*bitlen(a+r) + 8)."""
    return max(precision_bits + 8, 2 * interval.end.bit_length() + 8) + 1


def solve_eta(interval: Interval, precision_bits: int = DEFAULT_PRECISION_BITS) -> EtaSolution:
    """Certified enclosure of the offset eta of a window.

    eta is the smaller root of G*x^2 - G*(2a+r+1)*x + G*a*(a+r+1) - (r+1),
    the cleared form of G = (r+1) / ((a+r+1-eta) * (a-eta)); G = G(a, r)
    is computed once and returned.  eta = (2a+r+1 - sqrt(D)) / 2 with
    D = (r+1)^2 + 4(r+1)/G = Du/u, where G = u/v, Du = (r+1)^2*u + 4(r+1)*v.
    One integer square root of D at w + 1 bits gives eta's ends as integer
    mantissas over 2^(w+2), with w = max(p + 8, 2*bitlen(a+r) + 8).  It is
    certified without trusting the square root: the quadratic, evaluated
    exactly at those ends, is positive at the lower and negative at the
    upper one (zero at both if degenerate).  A width above 2^-precision_bits
    raises CertificateError as well; since w >= p + 8 that is only a guard.

    For r >= 1 two more exact signs put eta strictly inside
    (epsilon(a), epsilon(a+r)).  q_n(x) = x^2 - (2n+1)x + n is negative
    exactly between its roots epsilon(n) and 2n+1 - epsilon(n), so
    q_a(eta.lo) < 0 proves eta.lo > epsilon(a).  The root's lower end is
    >= 0, so eta.hi <= (2a+r+1)/2 < 2(a+r), below q_(a+r)'s larger root;
    so q_(a+r)(eta.hi) > 0 proves eta.hi < epsilon(a+r).  The bracket is
    about r/(8a(a+r)) wide and eta lies well inside it.  A failure of any
    sign raises CertificateError, an ArithmeticError.
    """
    a, r, b = interval.a, interval.r, interval.end
    g = g_exact(interval)
    u, v = g.numerator, g.denominator
    n, s = r + 1, 2 * a + r + 1
    # Integer coefficients of v * quadratic, for exact sign evaluation.
    coeffs = (u, -u * s, u * a * (b + 1) - n * v)
    bits = eta_working_bits(interval, precision_bits)
    root_lo, root_hi = sqrt_mantissas(n * n * u + 4 * n * v, u, bits)
    # eta = (s - sqrt(D)) / 2: its ends are lo/2^k and hi/2^k
    k, lo, hi = bits + 1, (s << bits) - root_hi, (s << bits) - root_lo
    eta = Enclosure(Fraction(lo, 1 << k), Fraction(hi, 1 << k))
    if not _sign_change(coeffs, (lo, k), (hi, k)):
        raise CertificateError(
            f"the product-form quadratic does not change sign across {eta} for {interval}"
        )
    if r >= 1 and not _sign((1, -2 * a - 1, a), lo, k) < 0 < _sign((1, -2 * b - 1, b), hi, k):
        raise CertificateError(f"could not certify eta strictly inside the bracket for {interval}")
    if (hi - lo) << precision_bits > 1 << k:
        raise CertificateError(
            f"eta enclosure {eta} for {interval} is wider than 2^-{precision_bits}"
        )
    return EtaSolution(interval, eta, g)


class EtaBandReport(
    namedtuple(
        "EtaBandReport",
        "interval eta q_lower q_upper q_lower_holds q_upper_holds"
        " expr_bound expr_exact expr_lower_holds expr_upper_holds",
    )
):
    """Certified band facts for one window's offset eta (an `EtaSolution`).

    ``q_*`` cover 1/(4(a+r)+1) < 1 - 2*eta < 2/(4a+1).  ``expr_*`` cover
    the quadratic-form band |(4a+2r)*t - 1 + t^2| < (2r+1)/(4(a+r)) with
    t = 1 - 2*eta; its upper half is known to fail for small starts, and
    the verdicts report that faithfully.  The bounds and ``expr_exact``
    are Fractions, the ``*_holds`` verdicts bools.
    """

    __slots__ = ()

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

    All four comparisons are exact integer ones.  eta is the smaller root
    of its quadratic, so t = 1 - 2*eta = sqrt(D) - c with c = 2a+r and
    D = Du/u as in solve_eta.  Hence q < t <=> (c+q)^2 < D for any q > -c,
    and (4a+2r)*t - 1 + t^2 = D - c^2 - 1 = E/u with E = Du - (c^2+1)*u;
    each verdict is such an inequality cross-multiplied by u and the
    bounds' denominators.  The enclosure from solve_eta at precision_bits
    is reported alongside, and its G is the one the comparisons use.
    """
    a, r, c = interval.a, interval.r, 2 * interval.a + interval.r
    solution = solve_eta(interval, precision_bits)
    u, v, n = solution.g.numerator, solution.g.denominator, r + 1
    du = n * n * u + 4 * n * v
    e = du - (c * c + 1) * u
    ql, qu, bound_den = 4 * (a + r) + 1, 4 * a + 1, 4 * (a + r)
    return EtaBandReport(
        interval,
        solution,
        Fraction(1, ql),
        Fraction(2, qu),
        (c * ql + 1) ** 2 * u < du * ql * ql,
        du * qu * qu < (c * qu + 2) ** 2 * u,
        Fraction(2 * r + 1, bound_den),
        Fraction(e, u),
        -e * bound_den < (2 * r + 1) * u,
        e * bound_den < (2 * r + 1) * u,
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
    if pair.disjoint:
        raise ValueError(f"{pair} is already disjoint")
    if pair.nested:
        raise ValueError(f"{pair} overlaps; one window holds the other")
    a1, r = pair.first.a, pair.first.r
    a2, s = pair.second.a, pair.second.r
    return IntervalPair(
        Interval(a1, a2 - a1 - 1),
        Interval(a1 + r + 1, a2 + s - a1 - r - 1),
    )
