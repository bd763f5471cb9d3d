"""Exact arithmetic on eventually periodic digit sequences.

An eventually periodic string is an infinite digit sequence consisting of a
finite preperiod followed by a finite period repeated forever.  Instances are
kept in canonical form, so structural equality coincides with equality of the
underlying infinite sequences.
"""

from __future__ import annotations

import math
import re

from .errors import BadRadix, DomainError
from .record import Record

_LITERAL = re.compile(r"^([0-9]*)\(([0-9]+)\)$")
# Byte tables between ASCII digit characters and digit values 0-9.
_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_TEXTS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _canonical(preperiod: tuple[int, ...], period: tuple[int, ...]):
    # Reduce the period to its primitive root.
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period[:d] * (n // d) == period:
            period = period[:d]
            break
    # Absorb preperiod digits that merely repeat the period boundary: count
    # them backwards, then rotate the period right once by that many.
    n = len(period)
    k = 0
    while k < len(preperiod) and preperiod[-1 - k] == period[(-1 - k) % n]:
        k += 1
    r = n - k % n
    return preperiod[: len(preperiod) - k], period[r:] + period[:r]


def _text(digits: tuple[int, ...]) -> str:
    return bytes(digits).translate(_TEXTS).decode()


class EventuallyPeriodicString(Record):
    """Canonical preperiod + period representation of an infinite string.

    >>> s = EventuallyPeriodicString(2, (1,), (1, 0, 1, 0))
    >>> s.render()
    '1(10)'
    >>> [s.digit_at(i) for i in range(1, 7)]
    [1, 1, 0, 1, 0, 1]
    """

    __slots__ = _fields = ("radix", "preperiod", "period")

    def __init__(self, radix, preperiod, period):
        if radix not in (2, 10):
            raise BadRadix(f"radix must be 2 or 10, got {radix}")
        preperiod = tuple(preperiod)
        period = tuple(period)
        if not period:
            raise DomainError("period must be nonempty")
        for digit in preperiod + period:
            if type(digit) is not int:  # exact ints: no bool, no float
                raise DomainError(f"digit {digit!r} is not an int")
            if not 0 <= digit < radix:
                raise DomainError(f"digit {digit} out of range for radix {radix}")
        super().__init__(radix, *_canonical(preperiod, period))

    @classmethod
    def constant(cls, radix: int, digit: int) -> "EventuallyPeriodicString":
        return cls(radix, (), (digit,))

    @classmethod
    def parse(cls, text: str, radix: int) -> "EventuallyPeriodicString":
        """Parse the "PRE(PERIOD)" literal form, e.g. "0(1)" or "(10)"."""
        m = _LITERAL.match(text.strip())
        if m is None:
            raise DomainError(f"not an eventually periodic literal: {text!r}")
        pre, per = (g.encode().translate(_VALUES) for g in m.groups())
        # The match admits ASCII 0-9 only, so only a binary bound is left to
        # check; a bad radix or digit, or a subclass, takes the constructor.
        if cls is not EventuallyPeriodicString or radix not in (2, 10) or (
                radix == 2 and (pre + per).translate(None, b"\0\1")):
            return cls(radix, tuple(pre), tuple(per))
        s = object.__new__(cls)  # set as the constructor sets it, past its digit loop
        Record.__init__(s, radix, *_canonical(tuple(pre), tuple(per)))
        return s

    def render(self) -> str:
        return f"{_text(self.preperiod)}({_text(self.period)})"

    def digit_at(self, i: int) -> int:
        """Digit at 1-based position i; total for every i >= 1."""
        if i < 1:
            raise DomainError("positions are 1-based")
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        return self.period[(i - len(self.preperiod) - 1) % len(self.period)]

    def prefix(self, length: int) -> str:
        pre, per = _text(self.preperiod), _text(self.period)
        repeats = max(0, length - len(pre)) // len(per) + 1
        return (pre + per * repeats)[: max(0, length)]

    def first_difference(self, other: "EventuallyPeriodicString"):
        """1-based position of the first disagreement, or None if equal.

        Past both preperiods the two sequences have periods p and q, and two
        such sequences that agree on p + q - gcd(p, q) digits agree
        everywhere (Fine and Wilf, 1965), so the comparison window is finite.
        """
        p, q = len(self.period), len(other.period)
        window = max(len(self.preperiod), len(other.preperiod)) + p + q - math.gcd(p, q)
        # The two ASCII prefixes as big-endian ints: their XOR's top set byte
        # is the first byte where they differ.
        diff = (int.from_bytes(self.prefix(window).encode(), "big")
                ^ int.from_bytes(other.prefix(window).encode(), "big"))
        return window - (diff.bit_length() - 1) // 8 if diff else None

    def __repr__(self):
        return f"EventuallyPeriodicString({self.radix}, {self.render()!r})"
