"""Deterministic cell-addressed randomness.

Array families with random regions need a digit for cell (row, col) that is
reproducible bit for bit on any platform, without generating the cells in any
particular order.  Python's stdlib generators are stream-oriented, so this
module derives each cell independently with the SplitMix64 finalizer (the
published constants of Steele, Lea and Flood's generator).  The modulo step in
cell_digit has a bias of about 6/2**64 per digit, which is irrelevant here.
"""

_MASK = (1 << 64) - 1


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


def row_digits(seed: int, row: int, cols, radix: int) -> str:
    """cell_value(seed, row, col) % radix for each col, as one digit string.

    The seed and row are hashed once for the whole row, which leaves two
    mix64 calls per cell instead of five.
    """
    h = _row_hash(seed, row)
    return "".join(str(mix64(h ^ mix64(col)) % radix) for col in cols)


def cell_bit(seed: int, row: int, col: int) -> int:
    return cell_value(seed, row, col) & 1


def cell_digit(seed: int, row: int, col: int) -> int:
    return cell_value(seed, row, col) % 10
