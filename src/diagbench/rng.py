"""Deterministic cell-addressed randomness.

Array families with random regions need a digit for cell (row, col) that is
reproducible bit for bit on any platform, without generating the cells in any
particular order.  Python's stdlib generators are stream-oriented, so this
module derives each cell independently with the SplitMix64 finalizer (the
published constants of Steele, Lea and Flood's generator).  cell_value makes
five mix64 calls per cell.  row_digits hashes the seed and row once, then
runs mix64 on a block of columns at once, one 128-bit lane per column of one
int (SIMD within a register), over a cached table of column hashes packed the
same way.  Lanes pass only through little-endian bytes, so no digit depends on
the host's byte order.  The modulo step has a bias of about 6/2**64 per digit,
which is irrelevant here.
"""

import functools

_MASK = (1 << 64) - 1
_GAMMA, _M1, _M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# A lane holds a 64-bit value; its product with a 64-bit constant stays below
# 2**128, so it never reaches the next lane.  An int of _BLOCK lanes is 16 KB.
_LANE, _BLOCK = 16, 1024  # bytes, lanes
_ONES = int.from_bytes((b"\1" + bytes(_LANE - 1)) * _BLOCK, "little")
_LOW64, _LOW61 = _ONES * _MASK, _ONES * (_MASK >> 3)
_DIGIT_TEXTS = bytes.maketrans(bytes(range(10)), b"0123456789")
# v // 10 == v * _TENTH >> 67 for every v < 2**64: the multiply and shift that
# compilers emit for an unsigned 64-bit division by 10.
_TENTH = 0xCCCCCCCCCCCCCCCD


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective hash."""
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def _row_hash(seed: int, row: int) -> int:
    return mix64(mix64((seed & _MASK) ^ 0xA0761D6478BD642F) ^ mix64(row))


def cell_value(seed: int, row: int, col: int) -> int:
    """64-bit value for one array cell, a pure function of (seed, row, col)."""
    return mix64(_row_hash(seed, row) ^ mix64(col))


def _mix_lanes(x: int, ones: int) -> int:
    """mix64 of the low 64 bits of each lane of x, one lane per 1 in ones.
    Each step is masked before it can carry into the next lane; the high half
    of each result lane is left dirty."""
    x = (x + ones * _GAMMA) & _LOW64
    x = ((x ^ (x >> 30)) & _LOW64) * _M1 & _LOW64
    x = ((x ^ (x >> 27)) & _LOW64) * _M2 & _LOW64
    return x ^ (x >> 31)


@functools.lru_cache(maxsize=1)  # one width's table, shared by the rows of a dump
def _column_lanes(width: int) -> memoryview:
    """mix64(col) for col < width, one little-endian lane each, in whole blocks."""
    counts = int.from_bytes(b"".join(i.to_bytes(_LANE, "little") for i in range(_BLOCK)), "little")
    table = bytearray()  # grown in place, never held twice
    for a in range(0, width, _BLOCK):
        table += (_mix_lanes(counts + a * _ONES, _ONES) & _LOW64).to_bytes(_LANE * _BLOCK, "little")
    return memoryview(table).toreadonly()  # cached, so no caller may change it


def row_digits(seed: int, row: int, cols: range, radix: int) -> str:
    """cell_value(seed, row, col) % radix for each col of a step-1 range of
    columns >= 0, as one digit string; radix is 2 or 10.

    The seed and row are hashed once per row and each column once per width
    (cols.stop); each block of columns is then one _mix_lanes call, whose
    lanes are reduced to v & 1 or v - 10 * (v // 10) before their low bytes
    are read.
    """
    if radix not in (2, 10):
        raise ValueError(f"radix must be 2 or 10, got {radix}")
    h = _row_hash(seed, row)
    table = _column_lanes(cols.stop)
    out = []
    for a in range(cols.start, cols.stop, _BLOCK):
        k = min(_BLOCK, cols.stop - a)
        ones = _ONES >> 8 * _LANE * (_BLOCK - k)
        x = int.from_bytes(table[_LANE * a:_LANE * (a + k)], "little")
        v = _mix_lanes(x ^ h * ones, ones)
        if radix == 2:
            v &= ones
        else:
            v &= _LOW64
            v -= (v * _TENTH >> 67 & _LOW61) * 10
        out.append(v.to_bytes(_LANE * k, "little")[::_LANE].translate(_DIGIT_TEXTS))
    return b"".join(out).decode()
