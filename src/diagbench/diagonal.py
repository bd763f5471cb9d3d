"""Finite string universes, rule-described arrays, and diagonal scans.

An array is either an explicit list of equal-length digit strings or one of
six named rule families.  Family strings are indexed from 1; string n agrees
with the family's closed-form antidiagonal on positions 1..n-1 and differs
from it at position n, which is what the membership scan measures.  One table,
`_rule`, gives each family its antidiagonal and its tail digit past position n
(None for a seeded random tail); every family view derives from that pair.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from fractions import Fraction
from operator import ne

from . import rng
from .eps import EventuallyPeriodicString
from .errors import (
    BadRadix,
    CapExceeded,
    DepthCapExceeded,
    DomainError,
    NotAFamily,
    NotAFamilyOrOutOfRange,
    PolicyRadixMismatch,
    RowTooShort,
)
from .record import Record

# Longest string per radix, each within 10 s and 1 GB: as children on 2 CPUs,
# binary 23 takes 4.7 s and 0.72 GB, decimal 7 under 3 s and 0.70 GB (binary 24: 9.3 s, 1.4 GB).
UNIVERSE_CAP = {2: 23, 10: 7}
SCAN_CAP = 10**6
# An explicit array holds at most SCAN_CAP rows and this many cells.  At both
# caps its CLI CSV dump takes about 2 s and 0.3 GB on a 2-vCPU VM.
EXPLICIT_CELL_CAP = 10**7


class FlipPolicy(Enum):
    BINARY = "binary"
    DECIMAL = "decimal"


def flip_digit(digit: int, policy: FlipPolicy) -> int:
    """BINARY swaps 0 and 1; DECIMAL maps every digit to 5, and 5 to 4.

    The decimal rule never produces 0 or 9, so flipped expansions cannot
    collide with a dual representation ending in recurring 9s.
    """
    if policy is FlipPolicy.BINARY:
        if digit not in (0, 1):
            raise PolicyRadixMismatch(f"binary flip applied to digit {digit}")
        return 1 - digit
    if not 0 <= digit <= 9:
        raise PolicyRadixMismatch(f"decimal flip applied to digit {digit}")
    return 4 if digit == 5 else 5


class Family(Enum):
    LOWER_TRI_22 = "lower-tri-22"
    UPPER_TRI_23 = "upper-tri-23"
    ALT_24 = "alt-24"
    ALT_25 = "alt-25"
    RANDOM_BELOW_26 = "random-below-26"
    DECIMAL_29 = "decimal-29"


def _is_digits(text: str) -> bool:
    """Nonempty and ASCII 0-9 only; str.isdigit alone also admits e.g. "٣" and "²"."""
    return text.isascii() and text.isdigit()


def _reject_decimal_options(antidiag_digits, randomize_subdiagonal) -> None:
    """Only the decimal family takes a digit stream or a random tail."""
    if antidiag_digits is not None:
        raise DomainError("only the decimal family takes a digit stream")
    if randomize_subdiagonal:
        raise DomainError("only the decimal family can randomize its tail")


class ArraySpec(Record):
    """Either an explicit finite array or a named rule family.

    Use the `explicit` and `family` constructors; the raw initializer does not
    validate.
    """

    # No __slots__: the cached radix lives in the instance __dict__.
    _fields = ("rows", "kind", "seed", "antidiag_digits", "randomize_subdiagonal")

    def __init__(self, rows: tuple | None = None, kind: Family | None = None, seed: int = 0,
                 antidiag_digits: EventuallyPeriodicString | None = None,
                 randomize_subdiagonal: bool = False):
        super().__init__(rows, kind, seed, antidiag_digits, randomize_subdiagonal)

    @classmethod
    def explicit(cls, rows) -> "ArraySpec":
        held, cells, width = [], 0, None
        for r in rows:  # each row is checked, caps first, before it is held
            cells += len(r)
            if len(held) == SCAN_CAP:
                raise CapExceeded(f"explicit array longer than {SCAN_CAP} rows")
            if cells > EXPLICIT_CELL_CAP:
                raise CapExceeded(f"explicit array larger than {EXPLICIT_CELL_CAP} cells")
            if len(r) != width:  # the first row sets the width
                if held or not r:
                    raise DomainError("explicit rows must all have equal length" if held
                                      else "explicit rows must be nonempty")
                width = len(r)
            if not _is_digits(r):
                raise DomainError(f"row {r!r} contains a non-digit")
            held.append(r)
        if not held:
            raise DomainError("explicit array needs at least one row")
        return cls(rows=tuple(held))

    @classmethod
    def family(
        cls,
        kind: Family,
        seed: int = 0,
        antidiag_digits: EventuallyPeriodicString | None = None,
        randomize_subdiagonal: bool = False,
    ) -> "ArraySpec":
        if kind is Family.DECIMAL_29:
            if antidiag_digits is None:
                raise DomainError("decimal family needs its antidiagonal digit stream")
            if antidiag_digits.radix != 10:
                raise BadRadix("antidiagonal digit stream must be decimal")
            digits = antidiag_digits.preperiod + antidiag_digits.period
            if any(d == 0 for d in digits):
                raise DomainError("antidiagonal digit stream must use digits 1..9")
        else:
            _reject_decimal_options(antidiag_digits, randomize_subdiagonal)
        return cls(
            kind=kind,
            seed=seed,
            antidiag_digits=antidiag_digits,
            randomize_subdiagonal=randomize_subdiagonal,
        )

    @property
    def is_family(self) -> bool:
        return self.kind is not None

    @functools.cached_property
    def radix(self) -> int:
        # Cached on the instance: an explicit array is scanned once, not per use.
        if self.is_family:
            return _rule(self)[0].radix
        # Every row is ASCII digits, so deleting 0 and 1 leaves only non-binary ones.
        return 10 if any(r.encode().translate(None, b"01") for r in self.rows) else 2


class DiagonalReport(Record):  # holds a dict, and so unhashable
    __slots__ = _fields = ("antidiagonal", "cover", "scan_depth", "found_at", "first_difference")

    def __init__(self, antidiagonal: EventuallyPeriodicString | str, cover: Fraction,
                 scan_depth: int, found_at: int | None, first_difference: dict = None):
        super().__init__(antidiagonal, cover, scan_depth, found_at,
                         {} if first_difference is None else first_difference)


def enumerate_universe(n: int, radix: int) -> list:
    """All radix**n digit strings of length n, lexicographically ordered."""
    if radix not in UNIVERSE_CAP:
        raise BadRadix(f"radix must be 2 or 10, got {radix}")
    if n < 1 or n > UNIVERSE_CAP[radix]:
        raise CapExceeded(f"length {n} outside 1..{UNIVERSE_CAP[radix]} for radix {radix}")
    digits = "0123456789"[:radix]
    return ["".join(t) for t in itertools.product(digits, repeat=n)]


def antidiagonal_finite(rows, flip: FlipPolicy) -> str:
    """Flip the diagonal of the first len(rows) columns of an explicit array."""
    n = len(rows)
    if n < 1:
        raise DomainError("need at least one row")
    out = []
    for i, r in enumerate(rows):
        if len(r) < n:
            raise RowTooShort(f"row {i + 1} has length {len(r)} < {n}")
        out.append(str(flip_digit(int(r[i]), flip)))
    return "".join(out)


def diagonal_cover(n: int) -> Fraction:
    """Rows covered by a length-n antidiagonal over the 2**n universe: n / 2**n."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return Fraction(n, 2**n)


_RULES = {
    Family.LOWER_TRI_22: (EventuallyPeriodicString.constant(2, 1), 0),
    Family.UPPER_TRI_23: (EventuallyPeriodicString.constant(2, 0), 1),
    Family.ALT_24: (EventuallyPeriodicString(2, (), (1, 0)), 0),
    Family.ALT_25: (EventuallyPeriodicString(2, (), (0, 1)), 1),
    Family.RANDOM_BELOW_26: (EventuallyPeriodicString.constant(2, 1), None),
}


def _rule(spec: ArraySpec):
    """(antidiagonal, tail digit) of a family; a None tail is seeded random."""
    if spec.kind is Family.DECIMAL_29:
        return spec.antidiag_digits, None if spec.randomize_subdiagonal else 0
    return _RULES[spec.kind]


def _diagonal_digit(anti: EventuallyPeriodicString, n: int) -> int:
    # Decimal streams use digits 1..9, so 0 always differs from them.
    return 1 - anti.digit_at(n) if anti.radix == 2 else 0


def antidiagonal_rule(spec: ArraySpec) -> EventuallyPeriodicString:
    """Closed-form antidiagonal of a rule family."""
    if not spec.is_family:
        raise NotAFamily("explicit arrays have no closed-form antidiagonal")
    return _rule(spec)[0]


def row_digit(spec: ArraySpec, n: int, j: int) -> int:
    """Digit j (1-based) of string n; constant time for every family."""
    if n < 1 or j < 1:
        raise NotAFamilyOrOutOfRange("row and position indices are 1-based")
    if not spec.is_family:
        if n > len(spec.rows) or j > len(spec.rows[0]):
            raise NotAFamilyOrOutOfRange(f"cell ({n}, {j}) outside the explicit array")
        return int(spec.rows[n - 1][j - 1])
    anti, tail = _rule(spec)
    if j < n:
        return anti.digit_at(j)
    if j == n:
        return _diagonal_digit(anti, n)
    return rng.cell_value(spec.seed, n, j) % spec.radix if tail is None else tail


def row(spec: ArraySpec, n: int, prefix_len: int) -> str:
    """First prefix_len digits of string n."""
    if n < 1 or prefix_len < 1:
        raise NotAFamilyOrOutOfRange("row index and prefix length must be at least 1")
    if prefix_len > SCAN_CAP:
        raise DepthCapExceeded(f"prefix length {prefix_len} above cap {SCAN_CAP}")
    if not spec.is_family:
        if n > len(spec.rows):
            raise NotAFamilyOrOutOfRange(f"row {n} outside the explicit array")
        if prefix_len > len(spec.rows[0]):
            raise NotAFamilyOrOutOfRange("prefix longer than the explicit rows")
        return spec.rows[n - 1][:prefix_len]
    anti, tail = _rule(spec)
    if prefix_len < n:
        return anti.prefix(prefix_len)
    if tail is None:
        rest = rng.row_digits(spec.seed, n, range(n + 1, prefix_len + 1), spec.radix)
    else:
        rest = str(tail) * (prefix_len - n)
    return anti.prefix(n - 1) + str(_diagonal_digit(anti, n)) + rest


def membership_scan(spec, candidate, depth: int, prefix_len: int | None = None) -> DiagonalReport:
    """Scan strings 1..depth for the candidate; None scans for the array's
    own antidiagonal.

    found_at is the first string that agrees with the candidate on the whole
    comparison window (and, for deterministic families, as an exact infinite
    sequence); otherwise first_difference records the first disagreeing
    position of every scanned string.
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    if depth > SCAN_CAP:
        raise DepthCapExceeded(f"depth {depth} above cap {SCAN_CAP}")
    if prefix_len is not None and prefix_len > SCAN_CAP:
        raise DepthCapExceeded(f"prefix length {prefix_len} above cap {SCAN_CAP}")
    if spec.is_family:
        return _scan_family(spec, candidate, depth, prefix_len)
    return _scan_explicit(spec, candidate, depth)


def _scan_family(spec, candidate, depth, prefix_len):
    if prefix_len is None:
        prefix_len = depth
    if prefix_len < depth:
        raise DomainError("prefix length must be at least the scan depth")
    anti, tail = _rule(spec)
    if candidate is None:
        candidate = anti
    if not isinstance(candidate, EventuallyPeriodicString):
        raise DomainError("family scans need an eventually periodic candidate")
    if candidate.radix != spec.radix:
        raise DomainError("candidate radix does not match the array")
    # String n agrees with the antidiagonal on 1..n-1 and differs from it at n.
    # So if the candidate first leaves the antidiagonal at m, string n first
    # differs from the candidate at n below m and at m above it, and only
    # string m needs a digit comparison, from position m on.
    m = candidate.first_difference(anti)
    below = depth if m is None else min(m - 1, depth)
    diffs = {n: n for n in range(1, below + 1)}
    found = None
    if below < depth:
        if tail is None:  # a random tail has no finite description: the window only
            end = prefix_len
        else:  # past both preperiods one candidate period decides the sequences
            end = max(m, len(candidate.preperiod)) + len(candidate.period)
        for j in range(m, end + 1):
            if candidate.digit_at(j) != row_digit(spec, m, j):
                diffs[m] = j
                diffs.update(dict.fromkeys(range(m + 1, depth + 1), m))
                break
        else:
            found = m
    return DiagonalReport(
        antidiagonal=anti,
        cover=Fraction(1),
        scan_depth=depth,
        found_at=found,
        first_difference=diffs,
    )


def _scan_explicit(spec, candidate, depth):
    width = len(spec.rows[0])
    square = min(len(spec.rows), width)
    policy = FlipPolicy.BINARY if spec.radix == 2 else FlipPolicy.DECIMAL
    anti = antidiagonal_finite(spec.rows[:square], policy)
    if candidate is None:
        if square < width:
            raise DomainError(f"explicit array of {square} rows of length {width} "
                              "has no full antidiagonal; give a candidate")
        candidate = anti
    if isinstance(candidate, EventuallyPeriodicString):
        if candidate.radix != spec.radix:
            raise DomainError("candidate radix does not match the array")
        target = candidate.prefix(width)
    else:
        target = str(candidate)
        if len(target) != width:
            raise DomainError(f"candidate length {len(target)} != row length {width}")
        if not _is_digits(target):
            raise DomainError("candidate must be a digit string")
    rows = spec.rows[:depth]
    diffs = {}
    found = None
    for n, r in enumerate(rows, start=1):
        # the first mismatch, found at C level and without reading past it
        j = next(itertools.compress(itertools.count(1), map(ne, r, target)), None)
        if j is None:
            found = n
            break
        diffs[n] = j
    return DiagonalReport(
        antidiagonal=anti,
        cover=Fraction(len(anti), len(spec.rows)),
        scan_depth=len(rows),
        found_at=found,
        first_difference=diffs,
    )
