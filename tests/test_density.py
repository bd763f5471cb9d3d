import itertools
import math
import random
from fractions import Fraction

import pytest

from diagbench.density import (
    DEFAULT_FIGURE2_SCHEDULE,
    EXPONENTIAL_CAP,
    EXPONENTIAL_SCHEDULE,
    GRID_CAP,
    POLYNOMIAL_SCHEDULE,
    WORK_CAP,
    PhiFormula,
    correction_factor,
    decimal_str,
    default_schedule,
    distinct_fraction_count,
    figure2_data,
    grid_6_4,
    phi_eval,
    rho_finite,
    rho_limit,
    totient_sieve,
    totient_sums,
)
from diagbench.errors import BadSchedule, CapExceeded, DomainError

from helpers import kernel_work, totient_oracle


# --- totients and the correction factor ---------------------------------


def test_sieve_against_direct_gcd_count():
    table = totient_sieve(500)
    assert table[1:10] == [1, 1, 2, 2, 4, 2, 6, 4, 6]
    for k in range(1, 501):
        assert table[k] == totient_oracle(k)


def test_sieve_total_tracks_the_asymptotic_density():
    n = 10**6
    total = sum(totient_sieve(n)[1:])
    expected = 3 * n * n / math.pi**2
    assert abs(total - expected) / expected < 1e-3


def test_sieve_caps():
    with pytest.raises(CapExceeded):
        totient_sieve(0)
    with pytest.raises(CapExceeded):
        totient_sieve(10**7 + 1)


# --- the summatory-totient kernel -------------------------------------------


def test_kernel_matches_the_sieve_prefix_sums():
    totals = list(itertools.accumulate(totient_sieve(2000)))  # sum(totient_sieve(n)[1:])
    assert totient_sums(range(1, 2001)) == {n: totals[n] for n in range(1, 2001)}
    for n in range(1, 2001):
        assert totient_sums((n,)) == {n: totals[n]}


def test_kernel_around_its_small_sieve_bound():
    # The kernel sieves up to icbrt(top)**2 and recurses above it; check the
    # requested n just below, at and just above that bound for several tops.
    totals = list(itertools.accumulate(totient_sieve(10**5)))
    for root in (2, 3, 10, 21, 46):
        bound = root**2
        top = root**3
        ns = [bound - 1, bound, bound + 1, top - 1, top, top + 1]
        assert totient_sums(ns) == {n: totals[n] for n in ns}
        for n in ns:
            assert totient_sums((n,))[n] == totals[n]


def test_kernel_against_the_gcd_oracle_near_1e5():
    rng = random.Random(20231)
    for n in [rng.randint(10**5 - 50, 10**5 + 50) for _ in range(3)]:
        assert totient_sums((n,))[n] - totient_sums((n - 1,))[n - 1] == totient_oracle(n)


def test_kernel_matches_the_published_totient_sums():
    # OEIS A064018: Phi(10^k).
    published = {
        10**4: 30397486,
        10**5: 3039650754,
        10**6: 303963552392,
        10**7: 30396356427242,
    }
    assert totient_sums(published) == published


def test_kernel_caps_match_the_sieve():
    assert totient_sums(()) == {}
    for bad in (0, 10**7 + 1):
        with pytest.raises(CapExceeded, match=f"sieve bound {bad} outside 1..10000000"):
            totient_sums((5, bad))
    with pytest.raises(CapExceeded, match="sieve bound 10000001 outside"):
        distinct_fraction_count(10**7 + 1)
    with pytest.raises(CapExceeded, match="sieve bound 10000001 outside"):
        phi_eval(PhiFormula.RAT_EXACT, 10**7 + 1)


def test_kernel_refuses_a_schedule_one_unit_over_its_work_cap(monkeypatch):
    from diagbench import density

    # Pairs (n - 1, n) above the sieve of the top point, 10**5, which ends at
    # 46**2 = 2116, and two points that the sieve holds, one at its end.
    ns = (1000, 2116, 20000, 20001, 54320, 54321, 99998, 99999, 10**5)
    work = kernel_work(ns)
    assert work == 27**2 * 2 + 37**2 * 2 + 46**2 * 3
    monkeypatch.setattr(density, "WORK_CAP", work - 1)
    with pytest.raises(CapExceeded, match=f"^summatory-totient work {work} above cap {work - 1}$"):
        totient_sums(ns)
    monkeypatch.setattr(density, "WORK_CAP", work)
    totals = totient_sums(ns)
    for n in (20001, 54321, 99999, 10**5):
        assert totals[n] - totals[n - 1] == totient_oracle(n)
    prefix = list(itertools.accumulate(totient_sieve(10**5)))
    assert totals == {n: prefix[n] for n in ns}


def test_kernel_work_cap_reaches_library_callers():
    # 14,000 points in 9e6..1e7 would run for minutes.
    rng = random.Random(20240)
    schedule = sorted(rng.sample(range(9 * 10**6, 10**7 + 1), 14000))
    work = kernel_work(schedule)
    assert work > 100 * WORK_CAP
    message = f"^summatory-totient work {work} above cap {WORK_CAP}$"
    with pytest.raises(CapExceeded, match=message):
        totient_sums(schedule)
    with pytest.raises(CapExceeded, match=message):
        figure2_data(schedule)
    with pytest.raises(CapExceeded, match=message):
        rho_limit(PhiFormula.NAT, PhiFormula.RAT_EXACT, schedule)
    # The sieve bound is checked first, point by point.
    with pytest.raises(CapExceeded, match="sieve bound 10000001 outside 1..10000000"):
        totient_sums((*schedule, 10**7 + 1))


def test_distinct_fraction_count():
    assert distinct_fraction_count(2) == 1
    assert distinct_fraction_count(4) == 5
    assert distinct_fraction_count(9) == 27
    with pytest.raises(DomainError):
        distinct_fraction_count(1)


def test_correction_factor_values():
    assert correction_factor(2) == 1
    assert correction_factor(9) == Fraction(3, 4)
    f1000 = correction_factor(1000)
    assert Fraction(60, 100) < f1000 < Fraction(64, 100)


# --- counting formulas ---------------------------------------------------


def test_formula_golden_values():
    assert phi_eval(PhiFormula.NAT, 7) == 7
    assert phi_eval(PhiFormula.EVEN, 7) == Fraction(7, 2)
    assert phi_eval(PhiFormula.INT, 10) == 21
    assert phi_eval(PhiFormula.RAT_PAPER, 5) == 64
    assert phi_eval(PhiFormula.RAT_EXACT, 5) == 91
    assert phi_eval(PhiFormula.RAT_EXACT, 1) == 1
    assert phi_eval(PhiFormula.REAL, 5) == 320
    assert phi_eval(PhiFormula.COMPLEX, 3) == 2304
    with pytest.raises(DomainError):
        phi_eval(PhiFormula.NAT, 0)
    for formula in ("nat", ["nat"]):  # a value and an unhashable are no formula
        with pytest.raises(DomainError, match="unknown formula"):
            phi_eval(formula, 5)


def test_constant_discount_stays_close_to_the_exact_count():
    for n in (500, 1000, 5000, 10**4, 10**5):
        r = rho_finite(PhiFormula.RAT_PAPER, PhiFormula.RAT_EXACT, n)
        assert Fraction(10, 11) < r < Fraction(11, 10)


def test_finite_ratios():
    assert rho_finite(PhiFormula.EVEN, PhiFormula.NAT, 9) == Fraction(1, 2)
    assert rho_finite(PhiFormula.NAT, PhiFormula.INT, 10) == Fraction(10, 21)
    assert rho_finite(PhiFormula.NAT, PhiFormula.REAL, 5) == Fraction(1, 64)


def test_ratio_series_takes_every_exact_count_from_one_kernel_call(monkeypatch):
    from diagbench import density

    calls = []
    kernel = density.totient_sums
    monkeypatch.setattr(density, "totient_sums", lambda ns: calls.append(ns) or kernel(ns))
    schedule = tuple(range(1, 301))
    counts, count = {}, 0
    for n in schedule:
        count += totient_oracle(n) if n >= 2 else 0
        counts[n] = Fraction(2 * n * count + 1)
    for a, b, want in (
        (PhiFormula.RAT_EXACT, PhiFormula.COMPLEX,
         lambda n: counts[n] / (n * n * 2 ** (2 * n + 2))),
        (PhiFormula.NAT, PhiFormula.RAT_EXACT, lambda n: n / counts[n]),
    ):
        calls.clear()
        est = rho_limit(a, b, schedule)
        assert len(calls) == 1
        assert est.samples == tuple((n, want(n)) for n in schedule)


def test_a_formula_over_itself_runs_the_kernel_once(monkeypatch):
    from diagbench import density

    calls = []
    kernel = density.totient_sums
    monkeypatch.setattr(density, "totient_sums", lambda ns: calls.append(ns) or kernel(ns))
    for f in PhiFormula:
        calls.clear()
        schedule = default_schedule(f, f)
        est = rho_limit(f, f, schedule)
        assert len(calls) == (f is PhiFormula.RAT_EXACT)
        assert est.samples == tuple((n, Fraction(1)) for n in schedule)
        assert (est.classification.kind, est.classification.limit) == ("converges", 1)


def test_default_schedules():
    assert default_schedule(PhiFormula.EVEN, PhiFormula.NAT) == POLYNOMIAL_SCHEDULE
    assert default_schedule(PhiFormula.NAT, PhiFormula.REAL) == EXPONENTIAL_SCHEDULE
    assert default_schedule(PhiFormula.COMPLEX, PhiFormula.NAT) == EXPONENTIAL_SCHEDULE


CLASSIFICATION_CASES = (
    (PhiFormula.EVEN, PhiFormula.NAT, "converges", Fraction(1, 2)),
    (PhiFormula.NAT, PhiFormula.INT, "converges", Fraction(1, 2)),
    (PhiFormula.NAT, PhiFormula.RAT_PAPER, "tends-to-zero", Fraction(0)),
    (PhiFormula.NAT, PhiFormula.RAT_EXACT, "tends-to-zero", Fraction(0)),
    (PhiFormula.NAT, PhiFormula.REAL, "tends-to-zero", Fraction(0)),
    (PhiFormula.RAT_EXACT, PhiFormula.REAL, "tends-to-zero", Fraction(0)),
    (PhiFormula.REAL, PhiFormula.COMPLEX, "tends-to-zero", Fraction(0)),
)


@pytest.mark.parametrize("a,b,kind,limit", CLASSIFICATION_CASES)
def test_ratio_classification(a, b, kind, limit):
    est = rho_limit(a, b, default_schedule(a, b))
    assert est.pair == (a.value, b.value)
    assert est.classification.kind == kind
    assert est.classification.limit == limit
    assert len(est.samples) == 4
    assert all(v > 0 for _, v in est.samples)


def test_ratio_between_pointwise_ordered_formulas_stays_in_unit_interval():
    for a, b in (
        (PhiFormula.EVEN, PhiFormula.NAT),
        (PhiFormula.NAT, PhiFormula.INT),
        (PhiFormula.NAT, PhiFormula.REAL),
    ):
        est = rho_limit(a, b, default_schedule(a, b))
        assert all(0 < v <= 1 for _, v in est.samples)


def test_diverging_ratio_is_inconclusive():
    est = rho_limit(PhiFormula.REAL, PhiFormula.NAT, EXPONENTIAL_SCHEDULE)
    assert est.classification.kind == "inconclusive"
    assert est.classification.limit is None
    assert est.classification.tolerance is None


def test_schedule_validation():
    good = PhiFormula.EVEN, PhiFormula.NAT
    with pytest.raises(BadSchedule):
        rho_limit(*good, (10, 20, 30))
    with pytest.raises(BadSchedule):
        rho_limit(*good, (10, 10, 20, 30))
    with pytest.raises(BadSchedule):
        rho_limit(*good, (0, 1, 2, 3))
    with pytest.raises(BadSchedule):
        rho_limit(*good, (1, 2, 3.5, 4))


EXPONENTIAL_PAIRS = [
    (a, b) for a in PhiFormula for b in PhiFormula
    if {a, b} & {PhiFormula.REAL, PhiFormula.COMPLEX}
]


def test_exponential_sample_points_are_capped():
    for a, b in EXPONENTIAL_PAIRS:
        assert rho_limit(a, b, (1, 2, 3, EXPONENTIAL_CAP)).samples[-1][0] == EXPONENTIAL_CAP
        with pytest.raises(CapExceeded, match=f"sample point 7001 above cap 7000 for {a.value}/"):
            rho_limit(a, b, (1, 2, 3, EXPONENTIAL_CAP + 1))
    # Pairs without an exponential factor take larger points.
    assert rho_limit(PhiFormula.EVEN, PhiFormula.NAT, (1, 2, 3, 10**9)).samples[-1][1] == Fraction(1, 2)


# --- the fraction grid ----------------------------------------------------


def test_grid_bold_count_matches_the_sieve():
    g = grid_6_4(9)
    assert g.bold_count == 27
    assert len(g.cells) == 81
    for n in (2, 6, 30, 100):
        assert grid_6_4(n).bold_count == distinct_fraction_count(n)
    # The a < b cells with gcd(a, b) = 1 in column b number phi(b).
    assert grid_6_4(GRID_CAP).bold_count == sum(map(totient_oracle, range(2, GRID_CAP + 1)))


def test_grid_cell_flags():
    g = grid_6_4(6)
    flags = {(a, b): (in_unit, lowest) for a, b, in_unit, lowest in g.cells}
    assert flags[(2, 4)] == (True, False)
    assert flags[(3, 4)] == (True, True)
    assert flags[(5, 2)] == (False, True)
    assert flags[(4, 4)] == (True, False)
    assert flags[(1, 1)] == (True, True)


def test_grid_caps():
    assert grid_6_4(2).bold_count == 1
    with pytest.raises(CapExceeded):
        grid_6_4(1)
    with pytest.raises(CapExceeded):
        grid_6_4(101)


# --- correction-factor series ---------------------------------------------


def test_figure_series_hits_the_small_case():
    pts = dict(figure2_data((4, 9, 100)))
    assert pts[9] == Fraction(3, 4)
    assert pts[4] == Fraction(5, 6)


def test_figure_series_decreases_toward_the_density_limit():
    pts = figure2_data(DEFAULT_FIGURE2_SCHEDULE)
    values = [v for _, v in pts]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert abs(float(values[-1]) - 6 / math.pi**2) < 1e-3


def test_figure_series_validation():
    with pytest.raises(DomainError):
        figure2_data(())
    with pytest.raises(DomainError):
        figure2_data((1, 5))
    with pytest.raises(CapExceeded, match="sieve bound 10000001 outside 1..10000000"):
        figure2_data((2, 10**7 + 1))


def test_figure_series_matches_the_sieve_totals():
    totals = list(itertools.accumulate(totient_sieve(5000)))
    schedule = (2, 3, 17, 100, 999, 1000, 4096, 5000)
    assert figure2_data(schedule) == [
        (n, Fraction(totals[n] - 1, (n * n - n) // 2)) for n in schedule
    ]


def test_decimal_rendering():
    assert decimal_str(Fraction(3, 4)) == "0.750000"
    assert decimal_str(Fraction(-3, 4)) == "-0.750000"
    assert decimal_str(Fraction(7, 3)) == "2.333333"
    # Ties at the sixth place round half to even.
    assert decimal_str(Fraction(125, 10**7)) == "0.000012"
    assert decimal_str(Fraction(135, 10**7)) == "0.000014"
    assert decimal_str(Fraction(-125, 10**7)) == "-0.000012"
