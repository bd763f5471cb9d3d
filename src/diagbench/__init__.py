"""Exact-arithmetic workbench for diagonal constructions over digit strings,
finite-subset enumeration, count-formula density ratios, and inference-chain
classification.  All numeric results are integers or fractions.Fraction;
floating point appears nowhere in the computations.
"""

from .errors import WorkbenchError

__version__ = "0.1.0"

__all__ = ["EventuallyPeriodicString", "WorkbenchError", "__version__"]


def __getattr__(name):  # PEP 562: eps loads on first use, not with the package
    if name == "EventuallyPeriodicString":
        from .eps import EventuallyPeriodicString
        return EventuallyPeriodicString
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
