import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypharm.sums
from hypharm.kernel import Enclosure, PrimeSieve, Verdict
from hypharm.sums import (
    CertificateError,
    Interval,
    IntervalPair,
    epsilon,
    eta_band_report,
    g_exact,
    reduce_overlap,
    solve_eta,
    telescope_check,
    window_power_sum,
)

import oracles


# -- interval types --


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(0, 1)
    with pytest.raises(ValueError):
        Interval(1, -1)
    assert Interval(3, 4).end == 7 and Interval(3, 4).length == 5


def test_interval_make_and_replace_validate_as_the_constructor():
    builds = (
        Interval,
        lambda *fields: Interval._make(fields),
        lambda a, r: Interval(1, 0)._replace(a=a, r=r),
    )
    for fields in ((0, 1), (1, -1), (0, -1)):
        messages = set()
        for build in builds:
            with pytest.raises(ValueError) as error:
                build(*fields)
            messages.add(str(error.value))
        assert len(messages) == 1


def test_pair_canonical_orientation_and_disjoint_flag():
    pair = IntervalPair(Interval(5, 1), Interval(2, 0))
    assert pair.first == Interval(2, 0) and pair.second == Interval(5, 1)
    assert pair.disjoint
    assert IntervalPair(Interval(2, 3), Interval(4, 1)).overlapping
    assert IntervalPair(Interval(2, 3), Interval(6, 1)).disjoint
    assert IntervalPair(Interval(1, 0), Interval(1, 0)).first == Interval(1, 0)


def test_pair_make_and_replace_keep_the_canonical_orientation():
    pair = IntervalPair(Interval(2, 0), Interval(5, 1))
    assert IntervalPair._make((Interval(5, 1), Interval(2, 0))) == pair
    assert pair._replace(first=Interval(7, 0)) == (Interval(5, 1), Interval(7, 0))
    assert pair._replace(second=Interval(1, 3)) == (Interval(1, 3), Interval(2, 0))


# -- exact sums --


def test_g_exact_examples():
    assert g_exact(Interval(1, 0)) == 1
    assert g_exact(Interval(1, 1)) == Fraction(5, 4)
    assert g_exact(Interval(2, 1)) == Fraction(13, 36)


def test_g_exact_recurrence_full_grid():
    # exact recurrence over the whole 200x200 grid; the incremental
    # accumulator is the oracle for the divide-and-conquer summation
    for a in range(1, 201):
        running = Fraction(0)
        for r in range(0, 201):
            running += Fraction(1, (a + r) ** 2)
            assert g_exact(Interval(a, r)) == running


def test_window_power_sum_matches_left_fold():
    for a, r, e in ((1, 7, 1), (3, 12, 2), (9, 4, 3)):
        assert window_power_sum(Interval(a, r), e) == oracles.window_sum_direct(a, r, e)
    with pytest.raises(ValueError):
        window_power_sum(Interval(1, 1), 0)


def test_window_power_sum_asks_the_memory_guard_only_for_large_windows(monkeypatch):
    asked = []

    def refuse(nbytes, what):
        asked.append(nbytes)
        raise ValueError(what)

    monkeypatch.setattr(hypharm.sums, "require_memory", refuse)
    g_exact(Interval(1, 20_000))  # an unreduced fraction of about 75 kB
    assert asked == []
    with pytest.raises(ValueError, match=r"at least 2\^19 terms"):
        window_power_sum(Interval(10**6, 10**6), 3)  # about 15 MB
    assert asked == [3 * (10**6 + 1) * (2 * 10**6).bit_length() // 4]


# -- modular sums --


def test_g_mod_examples():
    # the modular oracle that the search's prefix residues are checked against
    assert oracles.g_mod(1, 1, 101) == 77
    assert oracles.g_mod(1, 0, 13) == 1
    with pytest.raises(ValueError):
        oracles.g_mod(3, 1, 3)
    with pytest.raises(ValueError):
        oracles.g_mod(1, 1, 15)  # composite modulus


def test_g_mod_cross_checks_exact_reduction():
    sieve = PrimeSieve(10_000)
    rng = random.Random(0)
    primes = [p for p in sieve.primes() if p >= 300]
    for _ in range(500):
        a = rng.randint(1, 120)
        r = rng.randint(0, 120)
        p = rng.choice([q for q in primes if q > a + r])
        value = g_exact(Interval(a, r))
        assert oracles.g_mod(a, r, p) == value.numerator * pow(value.denominator, -1, p) % p


# -- telescoping offsets --


def test_epsilon_first_value():
    enc = epsilon(1, 64)
    # defining surd: enclosure endpoints bracket (3 - sqrt(5)) / 2 exactly
    assert (3 - 2 * enc.hi) ** 2 < 5 < (3 - 2 * enc.lo) ** 2
    assert float(enc.lo) == pytest.approx(0.381966, abs=1e-6)


def test_epsilon_stays_inside_open_half_unit():
    for n in (1, 2, 17, 1000, 10**6):
        enc = epsilon(n, 64)
        assert 0 < enc.lo and enc.hi < Fraction(1, 2)


def test_epsilon_strictly_increasing_certified():
    previous = epsilon(1, 64)
    for n in range(2, 1001):
        current = epsilon(n, 64)
        assert previous.hi < current.lo
        previous = current


def test_epsilon_width_honors_precision():
    for bits in (16, 64, 128):
        assert epsilon(123, bits).width <= Fraction(1, 2**bits)


def test_telescope_examples():
    assert telescope_check(1, 64) is Verdict.CERTIFIED
    assert telescope_check(10**4, 64) is Verdict.CERTIFIED
    # one pass: the residual width stays below 8 * 2^-p < 2^(4-p) at any p
    for bits in range(1, 9):
        assert telescope_check(2, bits) is Verdict.CERTIFIED


def test_telescope_sweep_small():
    assert all(telescope_check(n, 64) is Verdict.CERTIFIED for n in range(1, 301))


def test_telescope_rejects_epsilon_shifted_one_step(monkeypatch):
    # an enclosure moved by its own width starts where the true one ends,
    # just past the root; the sign certificate must reject every such
    # enclosure, however close it is
    true_epsilon = hypharm.sums.epsilon

    def shifted(n, precision_bits):
        enc = true_epsilon(n, precision_bits)
        return Enclosure(enc.lo + enc.width, enc.hi + enc.width)

    monkeypatch.setattr(hypharm.sums, "epsilon", shifted)
    for n in range(1, 2001):
        assert telescope_check(n, 64) is Verdict.FALSIFIED, n


def test_telescope_rejects_an_enclosure_wider_than_the_tolerance(monkeypatch):
    # widened by its own width on each side, the enclosure still holds the
    # root, so its signs pass, but it is too wide to certify anything
    true_epsilon = hypharm.sums.epsilon

    def widened(n, precision_bits):
        enc = true_epsilon(n, precision_bits)
        return Enclosure(enc.lo - enc.width, enc.hi + enc.width)

    monkeypatch.setattr(hypharm.sums, "epsilon", widened)
    for n in (1, 2, 100):
        with pytest.raises(CertificateError, match="wider than"):
            telescope_check(n, 64)


# -- the product-form offset --


def product_form_at(sol, x):
    # G*x^2 - G*(2a+r+1)*x + G*a*(a+r+1) - (r+1), evaluated exactly from sol.g
    a, r, g = sol.interval.a, sol.interval.r, sol.g
    return g * x * x - g * (2 * a + r + 1) * x + g * a * (a + r + 1) - (r + 1)


def test_solve_eta_degenerate_extent_equals_epsilon():
    # r = 0 forces the offset to coincide with epsilon(a)
    for a in (1, 5, 40):
        sol = solve_eta(Interval(a, 0), 64)
        eps = epsilon(a, 96)
        assert not (sol.eta.hi < eps.lo or eps.hi < sol.eta.lo)


def test_solve_eta_is_certified_inside_bracket():
    sol = solve_eta(Interval(1, 1), 64)
    # independent 400-bit enclosures of the bracket ends
    assert epsilon(1, 400).hi < sol.eta.lo
    assert sol.eta.hi < epsilon(2, 400).lo
    assert sol.eta.width <= Fraction(1, 2**64)
    assert sol.g == g_exact(Interval(1, 1))


@pytest.mark.parametrize("a", [1, 7, 10**12, 10**18, 2**70])
@pytest.mark.parametrize("r", [1, 24])
def test_solve_eta_strict_in_one_pass_for_large_starts(a, r):
    # the bracket is only about r/(8a^2) wide at large starts, far below
    # 2^-64; the closed form must land strictly inside it at any precision.
    # 400 bits resolve the bracket ends independently even at a = 2^70.
    eps_low, eps_high = epsilon(a, 400), epsilon(a + r, 400)
    for bits in (1, 3, 64, 1024):
        sol = solve_eta(Interval(a, r), bits)
        assert eps_low.hi < sol.eta.lo
        assert sol.eta.hi < eps_high.lo
        assert sol.eta.width <= Fraction(1, 2**bits)
        assert sol.g == g_exact(Interval(a, r))
        assert product_form_at(sol, sol.eta.lo) > 0 > product_form_at(sol, sol.eta.hi)


def test_solve_eta_quadratic_sign_contract():
    for a, r in ((1, 1), (2, 5), (17, 3), (40, 0)):
        sol = solve_eta(Interval(a, r), 64)
        assert sol.g == g_exact(Interval(a, r))
        assert product_form_at(sol, sol.eta.lo) > 0 > product_form_at(sol, sol.eta.hi)


def test_solve_eta_matches_plain_fraction_bisection():
    for a, r in ((1, 1), (3, 4), (10, 2), (1, 0), (7, 0), (2, 24), (40, 20), (100, 50),
                 (10**6, 3), (2**70, 1)):
        sol = solve_eta(Interval(a, r), 64)
        lo, hi = oracles.eta_bisect(a, r)
        assert sol.eta.lo <= hi and lo <= sol.eta.hi


def test_solve_eta_certifies_product_form():
    # S * (a+r+1-eta) * (a-eta) must enclose r+1; both factors are positive
    # and decrease in eta, so the product's bounds sit at eta's two ends
    for a, r in ((1, 3), (6, 6), (25, 10)):
        sol = solve_eta(Interval(a, r), 64)
        s = g_exact(Interval(a, r))

        def scaled(x):
            return s * (a + r + 1 - x) * (a - x)

        assert scaled(sol.eta.hi) <= r + 1 <= scaled(sol.eta.lo)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=12))
@settings(max_examples=40, deadline=None)
def test_solve_eta_width_and_bracket_property(a, r):
    sol = solve_eta(Interval(a, r), 64)
    assert sol.eta.width <= Fraction(1, 2**64)
    eps_low, eps_high = epsilon(a, 400), epsilon(a + r, 400)
    if r == 0:
        # eta is epsilon(a) itself, so the two enclosures must overlap
        assert not (sol.eta.hi < eps_low.lo or eps_low.hi < sol.eta.lo)
    else:
        assert eps_low.hi < sol.eta.lo and sol.eta.hi < eps_high.lo


@pytest.mark.parametrize("scale", [2, Fraction(1, 2)], ids=["doubled", "halved"])
def test_solve_eta_rejects_a_root_outside_the_bracket(monkeypatch, scale):
    # a wrong window sum moves the root of its own quadratic, so the sign
    # change still holds; doubling G pushes eta past epsilon(a+r) and
    # halving it pulls eta below epsilon(a), and one bracket sign each
    # must catch that
    true_g = hypharm.sums.g_exact
    monkeypatch.setattr(hypharm.sums, "g_exact", lambda interval: scale * true_g(interval))
    for a, r in ((1, 1), (5, 3), (40, 20)):
        with pytest.raises(CertificateError, match="strictly inside"):
            solve_eta(Interval(a, r), 64)


@pytest.mark.parametrize("moved", ["root_lo", "root_hi"])
def test_solve_eta_checks_each_bracket_side_at_its_own_end(monkeypatch, moved):
    # moving one end of the square root by 1/2 moves the opposite end of
    # eta by 1/4, out of its epsilon bracket, while the root stays inside
    # the enclosure; the end that did not move still lies inside the
    # bracket, so only a sign taken at the moved end catches it
    true_sqrt = hypharm.sums.sqrt_mantissas

    def one_end_out(num, den, e):
        lo, hi = true_sqrt(num, den, e)
        half = 1 << (e - 1)
        return (lo - half, hi) if moved == "root_lo" else (lo, hi + half)

    monkeypatch.setattr(hypharm.sums, "sqrt_mantissas", one_end_out)
    for a, r in ((1, 1), (5, 3), (40, 20)):
        with pytest.raises(CertificateError, match="strictly inside"):
            solve_eta(Interval(a, r), 64)


def test_solve_eta_rejects_an_enclosure_that_misses_the_root(monkeypatch):
    # a square root moved by one unit in the last place (its own width)
    # moves eta's enclosure off the root, so the product-form quadratic has
    # one sign across it
    true_sqrt = hypharm.sums.sqrt_mantissas

    def shifted(num, den, e):
        lo, hi = true_sqrt(num, den, e)
        return lo + 1, hi + 1

    monkeypatch.setattr(hypharm.sums, "sqrt_mantissas", shifted)
    for a, r in ((1, 1), (5, 3), (40, 20), (3, 0)):
        with pytest.raises(CertificateError, match="does not change sign"):
            solve_eta(Interval(a, r), 64)


def test_solve_eta_refuses_an_inverted_enclosure(monkeypatch):
    # negating the square root's upper end moves eta's lower end to the
    # quadratic's larger root or past it, where the quadratic is positive
    # too: both signs then read as a sign change, and for r = 0 no bracket
    # sign is taken, so only the order of the integer ends catches it
    true_sqrt = hypharm.sums.sqrt_mantissas

    def negated(num, den, e):
        lo, hi = true_sqrt(num, den, e)
        return lo, -hi

    monkeypatch.setattr(hypharm.sums, "sqrt_mantissas", negated)
    for a in (1, 3, 40):
        with pytest.raises(CertificateError, match="does not change sign"):
            solve_eta(Interval(a, 0), 64)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=256),
)
def test_solve_eta_ends_equal_the_fraction_closed_form(a, r, p):
    eta = solve_eta(Interval(a, r), p).eta
    assert (eta.lo, eta.hi) == oracles.eta_closed_form_ends(a, r, p)


@pytest.mark.parametrize("a, r", [(1, 0), (10**6, 3), (2**70, 1)])
def test_solve_eta_ends_equal_the_fraction_closed_form_at_1024_bits(a, r):
    eta = solve_eta(Interval(a, r), 1024).eta
    assert (eta.lo, eta.hi) == oracles.eta_closed_form_ends(a, r, 1024)


# -- band reports --


def test_band_report_on_known_good_window():
    report = eta_band_report(Interval(2, 1), 64)
    assert report.all_hold
    assert report.q_lower == Fraction(1, 13) and report.q_upper == Fraction(2, 9)


def test_band_report_faithfully_flags_the_failing_upper_side():
    # smallest counterexample of the quadratic-form upper band
    report = eta_band_report(Interval(1, 1), 64)
    assert report.q_lower_holds and report.q_upper_holds and report.expr_lower_holds
    assert report.expr_upper_holds is False
    assert report.expr_exact == Fraction(2, 5) and report.expr_bound == Fraction(3, 8)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=0, max_value=60))
def test_band_report_fractions_match_their_closed_forms(a, r):
    # the bounds and expr_exact are built from the integers the report keeps;
    # each verdict agrees with the plain Fraction comparison of its band
    report = eta_band_report(Interval(a, r))
    g = g_exact(Interval(a, r))
    c = 2 * a + r
    assert report.eta.g == g
    assert report.q_lower == Fraction(1, 4 * (a + r) + 1)
    assert report.q_upper == Fraction(2, 4 * a + 1)
    assert report.expr_bound == Fraction(2 * r + 1, 4 * (a + r))
    # E/u = D - c^2 - 1, D = (r+1)^2 + 4(r+1)/G
    assert report.expr_exact == Fraction(report.e, g.numerator)
    assert report.expr_exact == (r + 1) ** 2 + 4 * (r + 1) / g - c * c - 1
    assert report.expr_lower_holds == (-report.expr_bound < report.expr_exact)
    assert report.expr_upper_holds == (report.expr_exact < report.expr_bound)


def test_band_expr_exact_matches_enclosure_route():
    # the exact rational form of the banded expression must fall inside
    # the enclosure computed from the offset, and the exact q-band
    # verdicts must agree with the plain bisection bracket for eta
    for a, r in ((1, 1), (2, 2), (9, 4), (33, 0)):
        report = eta_band_report(Interval(a, r), 64)

        def expr(x):  # increasing in t = 1 - 2x > 0, so decreasing in x
            t = 1 - 2 * x
            return (4 * a + 2 * r) * t - 1 + t * t

        eta = report.eta.eta
        assert expr(eta.hi) <= report.expr_exact <= expr(eta.lo)

        lo, hi = oracles.eta_bisect(a, r)
        t_lo, t_hi = 1 - 2 * hi, 1 - 2 * lo
        below, above = report.q_lower < t_lo, report.q_lower >= t_hi
        assert below != above and report.q_lower_holds == below
        below, above = t_hi < report.q_upper, t_lo >= report.q_upper
        assert below != above and report.q_upper_holds == below


# -- overlap reduction --


def test_reduce_overlap_examples():
    pair = reduce_overlap(IntervalPair(Interval(2, 3), Interval(4, 5)))
    assert pair == IntervalPair(Interval(2, 1), Interval(6, 3))
    assert g_exact(Interval(2, 3)) - g_exact(Interval(4, 5)) == g_exact(
        Interval(2, 1)
    ) - g_exact(Interval(6, 3))

    pair = reduce_overlap(IntervalPair(Interval(1, 1), Interval(2, 1)))
    assert pair == IntervalPair(Interval(1, 0), Interval(3, 0))
    assert pair.disjoint


def test_reduce_overlap_rejects_disjoint_and_contained():
    with pytest.raises(ValueError):
        reduce_overlap(IntervalPair(Interval(1, 0), Interval(5, 0)))
    for contained in (IntervalPair(Interval(1, 10), Interval(3, 1)), IntervalPair(Interval(3, 2), Interval(3, 4))):
        # one window holds the other: no reduction makes them disjoint
        with pytest.raises(ValueError, match="one window holds the other"):
            reduce_overlap(contained)


def test_reduce_overlap_preserves_difference_on_random_pairs():
    rng = random.Random(1)
    count = 0
    while count < 1000:
        a1 = rng.randint(1, 60)
        r = rng.randint(1, 40)
        a2 = rng.randint(a1 + 1, a1 + r)
        s = rng.randint(max(0, a1 + r + 1 - a2), 40)  # keep the tail extent nonnegative
        pair = IntervalPair(Interval(a1, r), Interval(a2, s))
        reduced = reduce_overlap(pair)
        assert reduced.disjoint
        lhs = g_exact(pair.first) - g_exact(pair.second)
        rhs = g_exact(reduced.first) - g_exact(reduced.second)
        assert lhs == rhs
        count += 1
