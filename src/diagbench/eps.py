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

_LITERAL = re.compile(r"^([0-9]*)\(([0-9]+)\)$")


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


class EventuallyPeriodicString:
    """Canonical preperiod + period representation of an infinite string.

    >>> s = EventuallyPeriodicString(2, (1,), (1, 0, 1, 0))
    >>> s.render()
    '1(10)'
    >>> [s.digit_at(i) for i in range(1, 7)]
    [1, 1, 0, 1, 0, 1]
    """

    __slots__ = ("radix", "preperiod", "period")

    def __init__(self, radix, preperiod, period):
        if radix not in (2, 10):
            raise BadRadix(f"radix must be 2 or 10, got {radix}")
        preperiod = tuple(preperiod)
        period = tuple(period)
        if not period:
            raise DomainError("period must be nonempty")
        for digit in preperiod + period:
            if not 0 <= digit < radix:
                raise DomainError(f"digit {digit} out of range for radix {radix}")
        pre, per = _canonical(preperiod, period)
        self.radix = radix
        self.preperiod = pre
        self.period = per

    @classmethod
    def constant(cls, radix: int, digit: int) -> "EventuallyPeriodicString":
        return cls(radix, (), (digit,))

    @classmethod
    def parse(cls, text: str, radix: int) -> "EventuallyPeriodicString":
        """Parse the "PRE(PERIOD)" literal form, e.g. "0(1)" or "(10)"."""
        m = _LITERAL.match(text.strip())
        if m is None:
            raise DomainError(f"not an eventually periodic literal: {text!r}")
        pre = tuple(int(c) for c in m.group(1))
        per = tuple(int(c) for c in m.group(2))
        return cls(radix, pre, per)

    def render(self) -> str:
        pre = "".join(str(d) for d in self.preperiod)
        per = "".join(str(d) for d in self.period)
        return f"{pre}({per})"

    def digit_at(self, i: int) -> int:
        """Digit at 1-based position i; total for every i >= 1."""
        if i < 1:
            raise DomainError("positions are 1-based")
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        return self.period[(i - len(self.preperiod) - 1) % len(self.period)]

    def prefix(self, length: int) -> str:
        pre = "".join(map(str, self.preperiod))
        per = "".join(map(str, self.period))
        repeats = max(0, length - len(pre)) // len(per) + 1
        return (pre + per * repeats)[: max(0, length)]

    def first_difference(self, other: "EventuallyPeriodicString"):
        """1-based position of the first disagreement, or None if equal.

        Two eventually periodic sequences that agree past both preperiods for
        a full common period cycle agree everywhere, so the comparison window
        is finite.
        """
        window = max(len(self.preperiod), len(other.preperiod)) + math.lcm(
            len(self.period), len(other.period)
        )
        for i in range(1, window + 1):
            if self.digit_at(i) != other.digit_at(i):
                return i
        return None

    def __eq__(self, other):
        if not isinstance(other, EventuallyPeriodicString):
            return NotImplemented
        return (
            self.radix == other.radix
            and self.preperiod == other.preperiod
            and self.period == other.period
        )

    def __hash__(self):
        return hash((self.radix, self.preperiod, self.period))

    def __repr__(self):
        return f"EventuallyPeriodicString({self.radix}, {self.render()!r})"
