"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for every error this package raises on bad input."""


class DomainError(WorkbenchError):
    """An argument is outside the operation's stated domain."""


class BadRadix(DomainError):
    """Radix other than 2 or 10."""


class CapExceeded(DomainError):
    """A size argument is above the configured desk-scale cap."""


class DepthCapExceeded(CapExceeded):
    """Scan depth above the cap."""


class RowTooShort(DomainError):
    """A row is too short to contribute a diagonal digit."""


class PolicyRadixMismatch(DomainError):
    """Flip policy does not match the digits it is applied to."""


class NotAFamily(DomainError):
    """A rule-family operation was given an explicit array."""


class NotAFamilyOrOutOfRange(DomainError):
    """Row request outside the array, or family arguments out of range."""


class OutOfRange(DomainError):
    """Index outside the valid range."""


class NonIntegerLabel(DomainError):
    """A symbolic d-label does not evaluate to an integer for this n."""


class OddN(DomainError):
    """Operation requires an even n."""


class BoundTooSmall(DomainError):
    """Extension bound does not dominate the input subsets."""


class BadSchedule(DomainError):
    """Sample schedule is too short or not strictly increasing."""


class DivisionByZero(DomainError):
    """Denominator formula evaluated to zero."""


class ClosedFormMismatch(WorkbenchError):
    """A closed-form table row disagrees with the exact coefficient quotient."""


class ChainSyntaxError(WorkbenchError):
    """Chain text does not match the grammar; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


class ChainSemanticsError(WorkbenchError):
    """Chain parses but violates a structural rule."""
