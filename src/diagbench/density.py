"""Interim-count formulas, their finite ratios, and the fraction-grid discount.

Seven closed-form counting formulas are compared pairwise by the exact ratio
rho(n) = A(n)/B(n) over a sample schedule; the sequence of ratios is then
classified as converging, tending to zero, or inconclusive under fixed
thresholds.  One summatory-totient kernel, Phi(n) = phi(1) + ... + phi(n),
supplies the exact count of lowest-terms fractions used by the rat-exact
formula, the correction factor f and its figure series; it sieves only up to
about n^(2/3) and recurses over the quotients n // d above that.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction

from .errors import BadSchedule, CapExceeded, DomainError
from .record import Record

SIEVE_CAP = 10**7
# totient_sums' work, counted as icbrt(n)**2 per distinct point above its sieve.
# At this cap 108 points spaced 217 apart below 10**7 take 3.0-3.8 s and 21 MB
# as a CLI child on 2 CPUs, with --b nat or --b rat-exact (one kernel call).
WORK_CAP = 5 * 10**6
# The n-by-n grid holds n**2 cells; `density grid --n 100` takes about 0.09 s.
GRID_CAP = 100
CONVERGE_TOL = Fraction(1, 100)
ZERO_FLOOR = Fraction(1, 10**6)

# Sample points used throughout: a slow geometric ramp for polynomial-rate
# pairs and a short doubling ramp for pairs with an exponential factor, whose
# values overflow any reasonable budget past n = 40.
POLYNOMIAL_SCHEDULE = (10, 100, 1000, 10000)
EXPONENTIAL_SCHEDULE = (5, 10, 20, 40)
# Largest sample point of a pair with an exponential factor.  complex(n) has
# about 0.602 n digits, and every exact ratio up to here stays below Python's
# 4300-digit limit for printing an int.
EXPONENTIAL_CAP = 7000
DEFAULT_FIGURE2_SCHEDULE = (100, 316, 1000, 3162, 10000, 31623, 100000)


def _check_sieve_bound(n: int) -> None:
    if n < 1 or n > SIEVE_CAP:
        raise CapExceeded(f"sieve bound {n} outside 1..{SIEVE_CAP}")


def totient_sieve(n: int):
    """phi(0..n) table; index 0 is a placeholder."""
    _check_sieve_bound(n)
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # untouched so far, hence prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def _icbrt(n: int) -> int:
    """Largest r with r**3 <= n, for n >= 1 (Newton's method from above)."""
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            return r
        r = s


def totient_sums(ns) -> dict:
    """{n: Phi(n)} for each n in ns, where Phi(n) = phi(1) + ... + phi(n).

    One sieve up to about top^(2/3), for the largest requested n, gives Phi
    below that bound by prefix sums.  Above it, grouping the n(n+1)/2 pairs
    1 <= a <= b <= n by d = gcd(a, b) gives
    Phi(n) = n(n+1)/2 - sum over d >= 2 of Phi(n // d), summed over blocks of
    d that share one quotient and memoized, for O(n^(2/3)) work per distinct n
    above the sieve: the memo shares little between points.  A schedule whose
    summed work passes WORK_CAP is refused before the sieve.
    """
    ns = tuple(ns)
    for n in ns:
        _check_sieve_bound(n)
    bound = _icbrt(max(ns, default=1)) ** 2
    work = sum(_icbrt(n) ** 2 for n in set(ns) if n > bound)
    if work > WORK_CAP:
        raise CapExceeded(f"summatory-totient work {work} above cap {WORK_CAP}")
    small = list(itertools.accumulate(totient_sieve(bound)))
    limit = len(small)
    memo = {}

    def phi_sum(n):
        if n < limit:
            return small[n]
        total = memo.get(n)
        if total is None:
            total = n * (n + 1) // 2
            d = 2
            while d <= n:
                q = n // d
                last = n // q
                total -= (last - d + 1) * (small[q] if q < limit else phi_sum(q))
                d = last + 1
            memo[n] = total
        return total

    return {n: phi_sum(n) for n in ns}


def distinct_fraction_count(n: int) -> int:
    """Count of lowest-terms fractions a/b with 1 <= a < b <= n."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return totient_sums((n,))[n] - 1


def correction_factor(n: int) -> Fraction:
    """Distinct fractions as a share of all (n^2 - n)/2 pairs a < b."""
    return Fraction(distinct_fraction_count(n), (n * n - n) // 2)


class PhiFormula(Enum):
    NAT = "nat"
    EVEN = "even"
    INT = "int"
    RAT_PAPER = "rat-paper"
    RAT_EXACT = "rat-exact"
    REAL = "real"
    COMPLEX = "complex"


# Closed forms of the count formulas; rat-exact's counts come from totient_sums.
_CLOSED_FORMS = {
    PhiFormula.NAT: Fraction,
    PhiFormula.EVEN: lambda n: Fraction(n, 2),
    PhiFormula.INT: lambda n: Fraction(2 * n + 1),
    # (n^2 - n)/2 candidate fractions, discounted by the constant 63/100,
    # mirrored to negatives (2n per unit line) plus one for zero
    PhiFormula.RAT_PAPER: lambda n: 2 * n * (Fraction((n * n - n) // 2) * Fraction(63, 100)) + 1,
    PhiFormula.REAL: lambda n: Fraction(n * 2 ** (n + 1)),
    PhiFormula.COMPLEX: lambda n: Fraction(n * n * 2 ** (2 * n + 2)),
}


def phi_eval(formula: PhiFormula, n: int) -> Fraction:
    """Count of set members reached by step n, per the formula's closed form."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return _phi_series(formula, (n,))[0]


def _phi_series(formula: PhiFormula, schedule) -> list:
    """The formula's count at each point of a schedule of naturals >= 1.

    rat-exact takes every count, Phi(n) - 1 lowest-terms fractions below 1,
    from one summatory-totient call over the whole schedule.
    """
    if formula is PhiFormula.RAT_EXACT:
        totals = totient_sums(schedule)
        return [Fraction(2 * n * (totals[n] - 1) + 1) for n in schedule]
    if not isinstance(formula, PhiFormula):  # an unhashable would raise TypeError in a lookup
        raise DomainError(f"unknown formula {formula!r}")
    return list(map(_CLOSED_FORMS[formula], schedule))


def rho_finite(a: PhiFormula, b: PhiFormula, n: int) -> Fraction:
    return phi_eval(a, n) / phi_eval(b, n)  # every formula is positive at n >= 1


class Classification(Record):
    __slots__ = _fields = ("kind", "limit", "tolerance")

    def __init__(self, kind: str, limit: Fraction | None, tolerance: Fraction | None):
        super().__init__(kind, limit, tolerance)  # kind: converges | tends-to-zero | inconclusive


class DensityEstimate(Record):
    __slots__ = _fields = ("pair", "samples", "classification")

    def __init__(self, pair: tuple, samples: tuple, classification: Classification):
        super().__init__(pair, samples, classification)  # samples: of (n, Fraction)


def _is_exponential(a: PhiFormula, b: PhiFormula) -> bool:
    fast = (PhiFormula.REAL, PhiFormula.COMPLEX)
    return a in fast or b in fast


def default_schedule(a: PhiFormula, b: PhiFormula):
    return EXPONENTIAL_SCHEDULE if _is_exponential(a, b) else POLYNOMIAL_SCHEDULE


def _classify(values) -> Classification:
    # The zero test must run first: a sequence sliding toward 0 also sits
    # within tolerance of the constant 0 and would otherwise read as
    # "converges" prematurely.
    decreasing = all(x > y for x, y in zip(values, values[1:]))
    if decreasing and values[-1] < ZERO_FLOOR:
        return Classification("tends-to-zero", Fraction(0), ZERO_FLOOR)
    c = Fraction(round(values[-1] / CONVERGE_TOL)) * CONVERGE_TOL
    tail = values[-3:]
    near = all(abs(v - c) <= CONVERGE_TOL for v in tail)
    settled = all(abs(x - y) <= CONVERGE_TOL for x in tail for y in tail)
    if near and settled:
        return Classification("converges", c, CONVERGE_TOL)
    return Classification("inconclusive", None, None)


def rho_limit(a: PhiFormula, b: PhiFormula, schedule) -> DensityEstimate:
    schedule = tuple(schedule)
    if len(schedule) < 4:
        raise BadSchedule("need at least 4 sample points")
    if any(not isinstance(n, int) or n < 1 for n in schedule):
        raise BadSchedule("sample points must be naturals >= 1")
    if any(x >= y for x, y in zip(schedule, schedule[1:])):
        raise BadSchedule("sample points must be strictly increasing")
    if _is_exponential(a, b) and schedule[-1] > EXPONENTIAL_CAP:
        raise CapExceeded(
            f"sample point {schedule[-1]} above cap {EXPONENTIAL_CAP} for {a.value}/{b.value}"
        )
    # Every formula is positive at n >= 1, so no denominator is 0.
    nums = _phi_series(a, schedule)
    dens = nums if b is a else _phi_series(b, schedule)
    samples = tuple((n, x / y) for n, x, y in zip(schedule, nums, dens))
    values = [v for _, v in samples]
    return DensityEstimate(
        pair=(a.value, b.value),
        samples=samples,
        classification=_classify(values),
    )


class FractionGrid(Record):
    __slots__ = _fields = ("n", "cells", "bold_count")

    def __init__(self, n: int, cells: tuple, bold_count: int):
        super().__init__(n, cells, bold_count)  # cells: of (a, b, in_unit, lowest_terms)


def grid_6_4(n: int) -> FractionGrid:
    """The n-by-n fraction grid a/b with unit-interval and lowest-terms flags.

    A cell is counted (bold) when a < b and gcd(a, b) = 1; the count equals
    distinct_fraction_count(n).
    """
    if n < 2 or n > GRID_CAP:
        raise CapExceeded(f"grid size {n} outside 2..{GRID_CAP}")
    cells = []
    bold = 0
    for b in range(1, n + 1):
        for a in range(1, n + 1):
            lowest = math.gcd(a, b) == 1
            cells.append((a, b, a <= b, lowest))
            if a < b and lowest:
                bold += 1
    return FractionGrid(n=n, cells=tuple(cells), bold_count=bold)


def figure2_data(schedule):
    """Exact correction factor f(n) at each scheduled n, via one kernel call."""
    schedule = tuple(schedule)
    if not schedule:
        raise DomainError("schedule must be nonempty")
    if any(not isinstance(n, int) or n < 2 for n in schedule):
        raise DomainError("sample points must be naturals >= 2")
    totals = totient_sums(schedule)
    return [(n, Fraction(totals[n] - 1, (n * n - n) // 2)) for n in schedule]


def decimal_str(value: Fraction) -> str:
    """Six-place fixed-point rendering with round-half-even; presentation only."""
    scaled = round(Fraction(value) * 10**6)  # round() on Fraction is half-even
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(7, "0")
    return f"{sign}{digits[:-6]}.{digits[-6:]}"
