import random

import pytest

from diagbench.rng import _BLOCK, cell_value, row_digits

# Reference values of the cell hash.  Every random tail is built from it, so a
# change to any of these changes the output of every seeded family.
GOLDEN = {
    (0, 1, 2): 0xE468BBFBE5877AF0,
    (12345, 7, 8): 0x4F6EA7C644BB0410,
    (-1, 1, 10**6): 0x344638D92A8C4E53,
    (2**70 + 3, 999, 1000): 0xBC71E91C35E22021,
}


def test_cell_values_are_pinned():
    for (seed, row, col), value in GOLDEN.items():
        assert cell_value(seed, row, col) == value
        # one random cell is a one-column row: the same pinned digits
        assert row_digits(seed, row, range(col, col + 1), 2) == str(value & 1)
        assert row_digits(seed, row, range(col, col + 1), 10) == str(value % 10)


@pytest.mark.parametrize("seed", [0, 7, -3, 2**64 - 1, 2**70 + 3])
def test_row_digits_match_the_cell_functions(seed):
    # Packed lanes, blocks of columns and the cached table of each width all
    # meet here, each against one cell_value per cell: row n's tail past its
    # diagonal, empty and one-column ranges, starts 0 and 1, width 1, ranges
    # across block boundaries and seeded ranges of up to 2,000 columns.
    rng = random.Random(seed)
    ranges = [range(n + 1, n + 60) for n in range(1, 30)]
    ranges += [range(0, 0), range(1, 1), range(0, 1), range(1, 2), range(5, 6), range(0, 2000),
               range(1, 2000), range(_BLOCK - 1, _BLOCK + 2), range(0, 2 * _BLOCK + 1)]
    ranges += [range(*sorted(rng.sample(range(2001), 2))) for _ in range(20)]
    for radix in (2, 10):
        for row, cols in enumerate(ranges, start=1):
            assert row_digits(seed, row, cols, radix) == "".join(
                str(cell_value(seed, row, c) % radix) for c in cols)


def test_row_digits_refuse_another_radix():
    with pytest.raises(ValueError, match="^radix must be 2 or 10, got 3$"):
        row_digits(0, 1, range(3), 3)
