"""Deterministic cell-addressed randomness.

Array families with random regions need a digit for cell (row, col) that is
reproducible bit for bit on any platform, without generating the cells in any
particular order.  Python's stdlib generators are stream-oriented, so this
module derives each cell independently with the SplitMix64 finalizer (the
published constants of Steele, Lea and Flood's generator).  cell_value makes
five mix64 calls per cell; row_digits makes one, reading the seed-and-row hash
and a shared table of column hashes.  Its modulo step has a bias of about
6/2**64 per digit, which is irrelevant here.
"""

import functools

_MASK = (1 << 64) - 1
_DIGITS = "0123456789"


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _row_hash(seed: int, row: int) -> int:
    return mix64(mix64((seed & _MASK) ^ 0xA0761D6478BD642F) ^ mix64(row))


def cell_value(seed: int, row: int, col: int) -> int:
    """64-bit value for one array cell, a pure function of (seed, row, col)."""
    return mix64(_row_hash(seed, row) ^ mix64(col))


@functools.lru_cache(maxsize=1)  # one width's table, shared by the rows of a dump
def _column_hashes(width: int) -> list:
    return list(map(mix64, range(width)))


def row_digits(seed: int, row: int, cols: range, radix: int) -> str:
    """cell_value(seed, row, col) % radix for each col of a step-1 range of
    columns >= 0, as one digit string; radix is at most 10.

    The seed and row are hashed once per row and each column once per width
    (cols.stop), which leaves one mix64 call per cell.
    """
    h = _row_hash(seed, row)
    return "".join([_DIGITS[mix64(h ^ c) % radix] for c in _column_hashes(cols.stop)[cols.start:]])
