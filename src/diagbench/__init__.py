"""Exact-arithmetic workbench for diagonal constructions over digit strings,
finite-subset enumeration, count-formula density ratios, and inference-chain
classification.  All numeric results are integers or fractions.Fraction;
floating point appears nowhere in the computations.
"""

__version__ = "0.1.0"
