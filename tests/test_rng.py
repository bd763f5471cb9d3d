import pytest

from diagbench.rng import cell_value, row_digits

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


@pytest.mark.parametrize("seed", [0, 7, -3, 2**70 + 3])
def test_row_digits_match_the_cell_functions(seed):
    for row in range(1, 30):
        cols = range(row + 1, row + 60)
        for radix in (2, 10):
            assert row_digits(seed, row, cols, radix) == "".join(
                str(cell_value(seed, row, c) % radix) for c in cols)
