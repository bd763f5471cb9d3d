"""Exact binomial identities and enumeration of finite subsets of the naturals.

Everything is arbitrary-precision: coefficients are ints (figure1's row built
by the ratio law C(n, p+1) = C(n, p)(n-p)/(p+1)), ratios fractions.Fraction.
Finite p-subsets are ordered colexicographically, which gives a closed-form
rank/unrank bijection with the naturals for each p; unrank steps down between
neighbouring binomials instead of searching for each digit.  A stage-based
dovetailing sweep enumerates all finite subsets without repeats: it keeps one
current p-subset per cardinality, with the index of it to grow next
(Algorithm T's pointer), and steps each to its colex successor once per
stage, so it never unranks.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import (
    BoundTooSmall,
    CapExceeded,
    ClosedFormMismatch,
    DomainError,
    NonIntegerLabel,
    OddN,
    OutOfRange,
)
from .record import Record

# The first K subsets hold about (2K)^1.5 / 6 elements.  The CLI renders them as
# the sweep yields and holds only its output text, so at this cap, as --output
# children on 2 CPUs, JSON takes 1.6-2.8 s and 176 MB and CSV 1.0-1.6 s and 75 MB,
# within the 10 s and 256 MB that tests/test_acceptance.py allows either format.
DOVETAIL_CAP = 10**5
FIGURE1_CAP = 2**10
# Ranks at or above this do not print under Python's default limit of 4300
# digits for an int.  A constant, so PYTHONINTMAXSTRDIGITS does not move it.
RANK_CAP = 10**4300
# unrank's cardinality and rank size; unrank(1500, 2**2048 - 1) takes a few ms.
UNRANK_P_CAP = 1500
UNRANK_BITS_CAP = 2048
# Longest step-down walk in unrank before it bisects instead.
_WALK_STEPS = 32


class FiniteSubset(Record):
    """A finite subset of the naturals, stored as a strictly increasing tuple."""

    __slots__ = _fields = ("elements",)

    def __init__(self, elements: tuple = ()):
        elems = tuple(elements)
        for e in elems:
            if type(e) is not int or e < 0:  # exact ints: no bool
                raise DomainError(f"element {e!r} is not a natural number")
        if any(map(operator.ge, elems, elems[1:])):
            raise DomainError("elements must be strictly increasing")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def _of(cls, elems: tuple):
        # Trusted: only for a tuple that this module made strictly increasing naturals.
        s = object.__new__(cls)
        object.__setattr__(s, "elements", elems)
        return s

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        inner = ",".join(str(e) for e in self.elements)
        return "{" + inner + "}"


class CofiniteSubset(Record):
    """An infinite subset of the naturals, stored as its finite complement."""

    __slots__ = _fields = ("missing",)

    def __init__(self, missing: FiniteSubset):
        super().__init__(missing)

    def __contains__(self, k):
        return k not in self.missing

    def __repr__(self):
        return f"N\\{self.missing!r}"


def binomial(n: int, p: int) -> int:
    if n < 0 or p < 0 or p > n:
        raise OutOfRange(f"C({n}, {p}) needs 0 <= p <= n")
    return math.comb(n, p)


def ratio_q(n: int, d: int) -> Fraction:
    """Consecutive-coefficient ratio C(n, n/2+d+1) / C(n, n/2+d) at offset d."""
    if n < 2 or n % 2 != 0:
        raise DomainError(f"n must be even and positive, got {n}")
    if d < 0 or d > n // 2 - 1:
        raise DomainError(f"offset {d} outside 0..{n // 2 - 1}")
    return Fraction(n - 2 * d, n + 2 * (d + 1))


def verify_ratio_law(n: int, p: int) -> bool:
    """Check C(n,p+1)(p+1) = C(n,p)(n-p) with exact integers."""
    if n < 1 or p < 0 or p >= n:
        raise OutOfRange(f"need 0 <= p < n, got n={n} p={p}")
    return binomial(n, p + 1) * (p + 1) == binomial(n, p) * (n - p)


# Closed-form ratio rows, in table order.  Small offsets d = 0..7 use the
# generic (1 - 2d/n) / (1 + (2d+2)/n) shape; proportional offsets d = n/m are
# the simplified forms a / (b + c/n); offsets d = n/2 - k collapse to
# k / (n - k + 1).
_PROPORTIONAL_ROWS = (
    ("n/10", 10, 2, 3, 5),
    ("n/9", 9, 7, 11, 18),
    ("n/8", 8, 3, 5, 8),
    ("n/7", 7, 5, 9, 14),
    ("n/6", 6, 2, 4, 6),
    ("n/5", 5, 3, 7, 10),
    ("n/4", 4, 1, 3, 4),
    ("n/3", 3, 1, 5, 6),
)

TABLE1_LABELS = tuple(
    [str(k) for k in range(8)]
    + [row[0] for row in _PROPORTIONAL_ROWS]
    + [f"n/2-{k}" for k in range(8, 0, -1)]
)


def _table_row(label: str, n: int):
    if label not in TABLE1_LABELS:
        raise DomainError(f"unknown ratio-table label {label!r}")
    if label.startswith("n/2-"):
        k = int(label[4:])
        return n // 2 - k, Fraction(k, n - (k - 1))
    for name, m, a, b, c in _PROPORTIONAL_ROWS:
        if label == name:
            if n % m != 0:
                raise NonIntegerLabel(f"label {label} is not an integer for n={n}")
            return n // m, Fraction(a, 1) / (b + Fraction(c, n))
    d = int(label)
    return d, (1 - Fraction(2 * d, n)) / (1 + Fraction(2 * d + 2, n))


def table1_values(n: int, labels=None):
    """Evaluate the 24 closed-form ratio rows at even n.

    Returns (label, d, q) triples; each q is cross-checked against ratio_q at
    the same integer offset.  Fractional labels like n/7 raise NonIntegerLabel
    unless n is divisible; pass an explicit label subset to evaluate only the
    rows that are integral for this n.
    """
    if n < 20 or n % 2 != 0:
        raise DomainError(f"table needs even n >= 20, got {n}")
    if labels is None:
        labels = TABLE1_LABELS
    out = []
    for label in labels:
        d, q = _table_row(label, n)
        if q != ratio_q(n, d):
            raise ClosedFormMismatch(f"closed form for {label} disagrees at n={n}")
        out.append((label, d, q))
    return out


def figure1_data(n: int):
    """Coefficient and ratio series for one even n: (p, C(n,p)) and (d, q)."""
    if n % 2 != 0:
        raise OddN(f"n must be even, got {n}")
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if n > FIGURE1_CAP:
        raise CapExceeded(f"n {n} above cap {FIGURE1_CAP}")
    # C(n, p + 1) = C(n, p) (n - p) / (p + 1) up to the middle, then the mirror.
    half = [1]
    for p in range(n // 2):
        half.append(half[-1] * (n - p) // (p + 1))
    coeffs = list(enumerate(half + half[-2::-1]))
    ratios = [(d, ratio_q(n, d)) for d in range(n // 2)]
    return coeffs, ratios


def rank(s: FiniteSubset) -> int:
    """Colexicographic rank: sum of C(c_i, i) over the i th smallest element.

    A rank at or above RANK_CAP is refused, before the sum if its top term is.
    """
    elems = s.elements
    p = len(elems)
    # For 1 <= p <= c, log2 C(c, p) >= p log2(c/p) > p (bit_length(c) - 1 - bit_length(p)).
    # Past both checks each term is below the rank < C(c_p + 1, p), so the sum is cheap.
    if not p or (p * (elems[-1].bit_length() - 1 - p.bit_length()) < RANK_CAP.bit_length()
                 and math.comb(elems[-1], p) < RANK_CAP):
        r = sum(math.comb(c, i) for i, c in enumerate(elems, start=1))
        if r < RANK_CAP:
            return r
    raise CapExceeded(f"rank of {p} elements at or above cap 10**4300")


def _largest_c(i: int, r: int, hi: int | None = None) -> int:
    # Largest c with C(c, i) <= r, below hi if given (C(hi, i) > r must hold);
    # C(i-1, i) = 0 so the search always succeeds.
    lo = i - 1
    if hi is None:
        hi = i
        while math.comb(hi, i) <= r:
            lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid, i) <= r:
            lo = mid
        else:
            hi = mid
    return lo


def unrank(p: int, r: int) -> FiniteSubset:
    """Inverse of rank for cardinality p: greedy on the combinatorial number system.

    The top element is found by search; each lower element c_i is reached by
    walking down from the one above it, C(c - 1, i) = C(c, i) (c - i) / c,
    which needs no fresh binomial.  A walk longer than _WALK_STEPS falls back
    to bisection below its current point.
    """
    if p < 0 or r < 0:
        raise OutOfRange("cardinality and rank must be nonnegative")
    if p > UNRANK_P_CAP:
        raise CapExceeded(f"cardinality {p} above cap {UNRANK_P_CAP}")
    if r.bit_length() > UNRANK_BITS_CAP:
        raise CapExceeded(f"rank of {r.bit_length()} bits above cap {UNRANK_BITS_CAP}")
    if p == 0:
        if r != 0:
            raise OutOfRange("the empty set is the only 0-subset")
        return FiniteSubset()
    c = _largest_c(p, r)
    value = math.comb(c, p)
    rem = r - value
    elems = [c]
    for i in range(p - 1, 0, -1):
        # From C(c, i + 1) to C(c - 1, i), the largest candidate below the last element.
        value = value * (i + 1) // c
        c -= 1
        steps = 0
        while value > rem:
            if steps == _WALK_STEPS:
                c = _largest_c(i, rem, c)
                value = math.comb(c, i)
                break
            value = value * (c - i) // c
            c -= 1
            steps += 1
        rem -= value
        elems.append(c)
    return FiniteSubset._of(tuple(reversed(elems)))


def extend_subsets(level, bound: int):
    """Extend each p-subset by one element above its maximum, below bound."""
    out = []
    for s in level:
        top = s.elements[-1] if s.elements else -1
        if top >= bound:
            raise BoundTooSmall(f"subset {s!r} already has an element >= {bound}")
        for i in range(top + 1, bound):
            out.append(FiniteSubset._of(s.elements + (i,)))
    return out


def dovetail_enumerate(count: int):
    """First `count` finite subsets in stage order, as a list.

    Stage t emits the rank-(t-p) p-subset for p = 1..t, after stage 0 emits
    the empty set; every finite subset appears exactly once.

    >>> [s.elements for s in dovetail_enumerate(7)]
    [(), (0,), (1,), (0, 1), (2,), (0, 2), (0, 1, 2)]
    """
    return list(dovetail_iter(count))


def dovetail_iter(count: int):
    """dovetail_enumerate(count) as an iterator; count is checked at the call."""
    if count < 0:
        raise DomainError("count must be nonnegative")
    if count > DOVETAIL_CAP:
        raise CapExceeded(f"count {count} above cap {DOVETAIL_CAP}")
    return itertools.islice(_stages(), count)


def _stages():
    # Every finite subset in stage order.  For each p the rank grows by one per
    # stage, so one current p-subset is kept and stepped to its colexicographic
    # successor, with the index to grow next kept beside it as in Algorithm T
    # (Knuth, TAOCP 4A, 7.2.1.3).
    of = FiniteSubset._of
    yield of(())
    current = []  # current[p - 1] is the p-subset emitted in the last stage
    grow = []  # grow[p - 1] is the index of it that grows next, or -1 to scan for it
    for t in itertools.count(1):
        for p, c in enumerate(current):
            # The lowest element that can grow without meeting the next one (the
            # top one always can) grows by one.  After c[i] grows, c[:i] is 0..i-1,
            # so c[i - 1] grows next; only after c[0] grows is the run scanned.
            i = grow[p]
            if i < 0:
                i = 0
                while i < p and c[i] + 1 == c[i + 1]:
                    i += 1
                c[:i] = range(i)
            c[i] += 1
            grow[p] = i - 1
            yield of(tuple(c))
        current.append(list(range(t)))
        grow.append(t - 1)
        yield of(tuple(current[-1]))


def encode_subset(s: FiniteSubset) -> int:
    # One base-2 parse, linear in the code's length where a sum of shifts is quadratic.
    digits = bytearray(b"0" * (s.elements[-1] + 1 if s.elements else 1))
    for e in s.elements:
        digits[-1 - e] = 49  # "1", bit e
    return int(digits, 2)


def decode_subset(m: int) -> FiniteSubset:
    if m < 0:
        raise DomainError("code must be nonnegative")
    bits = bin(m)[:1:-1]  # bit i of m is bits[i]
    return FiniteSubset._of(tuple(itertools.compress(itertools.count(), map("1".__eq__, bits))))


def complement(s: FiniteSubset) -> CofiniteSubset:
    return CofiniteSubset(missing=s)


def complement_inv(c: CofiniteSubset) -> FiniteSubset:
    return c.missing
