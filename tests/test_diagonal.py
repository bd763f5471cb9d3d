import itertools
import operator
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagbench.diagonal import (
    EXPLICIT_CELL_CAP,
    SCAN_CAP,
    ArraySpec,
    DiagonalReport,
    Family,
    FlipPolicy,
    _is_digits,
    _Runs,
    _rule,
    antidiagonal_finite,
    antidiagonal_rule,
    diagonal_cover,
    enumerate_universe,
    flip_digit,
    membership_scan,
    row,
    row_digit,
)
from diagbench.eps import EventuallyPeriodicString as EPS
from diagbench.errors import (
    BadRadix,
    CapExceeded,
    DepthCapExceeded,
    DomainError,
    NotAFamily,
    NotAFamilyOrOutOfRange,
    PolicyRadixMismatch,
    RowTooShort,
)

from helpers import B4_ROWS, has_random_tail, naive_scan, random_row, stripped_radix

STREAM3 = EPS.constant(10, 3)


def spec_for(kind, seed=0, randomize=False):
    if kind is Family.DECIMAL_29:
        return ArraySpec.family(kind, seed=seed, antidiag_digits=STREAM3,
                                randomize_subdiagonal=randomize)
    return ArraySpec.family(kind, seed=seed)


# --- universes ---------------------------------------------------------


def test_universe_of_length_4_bit_strings():
    u = enumerate_universe(4, 2)
    assert len(u) == 16
    assert u == sorted(u)
    assert set(u) == set(B4_ROWS)


def test_universe_caps():
    assert len(enumerate_universe(1, 10)) == 10
    with pytest.raises(CapExceeded):
        enumerate_universe(24, 2)
    with pytest.raises(CapExceeded):
        enumerate_universe(8, 10)
    with pytest.raises(CapExceeded):
        enumerate_universe(0, 2)
    with pytest.raises(BadRadix):
        enumerate_universe(3, 3)


# --- finite antidiagonals ----------------------------------------------


def test_flip_digit_policies():
    assert flip_digit(0, FlipPolicy.BINARY) == 1
    assert flip_digit(1, FlipPolicy.BINARY) == 0
    with pytest.raises(PolicyRadixMismatch):
        flip_digit(5, FlipPolicy.BINARY)
    for d in range(10):
        f = flip_digit(d, FlipPolicy.DECIMAL)
        assert f != d
        assert f in (4, 5)
    with pytest.raises(PolicyRadixMismatch):
        flip_digit(11, FlipPolicy.DECIMAL)


def test_antidiagonal_of_the_printed_array():
    assert antidiagonal_finite(B4_ROWS[:4], FlipPolicy.BINARY) == "1111"


def test_antidiagonal_requires_square_prefix():
    with pytest.raises(RowTooShort, match="^row 1 has length 2 < 3$"):
        antidiagonal_finite(["01", "10", "11"], FlipPolicy.BINARY)
    with pytest.raises(RowTooShort, match="^row 2 has length 2 < 4$"):
        antidiagonal_finite(["0101", "10", "111", "1"], FlipPolicy.BINARY)
    with pytest.raises(PolicyRadixMismatch, match="^binary flip applied to digit 5$"):
        antidiagonal_finite(["55", "55"], FlipPolicy.BINARY)
    assert antidiagonal_finite(["\u0663"], FlipPolicy.DECIMAL) == "5"  # int reads it as 3
    with pytest.raises(DomainError):
        antidiagonal_finite([], FlipPolicy.BINARY)


def test_antidiagonal_differs_from_every_row():
    rng = random.Random(20260818)
    sizes = [rng.randint(1, 64) for _ in range(25)] + [512]
    for n in sizes:
        rows = ["".join(rng.choice("01") for _ in range(n)) for _ in range(n)]
        anti = antidiagonal_finite(rows, FlipPolicy.BINARY)
        for i, r in enumerate(rows):
            assert anti[i] != r[i]
            assert anti != r


def flip_loop(rows, flip):
    """antidiagonal_finite one row at a time: a length check, int and flip_digit."""
    out = []
    for i, r in enumerate(rows):
        if len(r) < len(rows):
            raise RowTooShort(f"row {i + 1} has length {len(r)} < {len(rows)}")
        out.append(str(flip_digit(int(r[i]), flip)))
    return "".join(out)


def outcome(call, *args):
    """A call's result, or its error's class and message."""
    try:
        return call(*args)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


def test_antidiagonal_matches_the_flip_digit_loop():
    # Seeded binary and decimal arrays, square and wider than tall.
    rng = random.Random(1891)
    for _ in range(300):
        digits = rng.choice(("01", "0123456789"))
        flip = rng.choice(list(FlipPolicy)) if digits == "01" else FlipPolicy.DECIMAL
        n = rng.randint(1, 60)
        width = n + rng.choice((0, rng.randint(1, 40)))
        rows = ["".join(rng.choice(digits) for _ in range(width)) for _ in range(n)]
        assert antidiagonal_finite(rows, flip) == flip_loop(rows, flip)
        assert antidiagonal_finite(tuple(rows), flip) == flip_loop(rows, flip)


@pytest.mark.parametrize("rows", [
    ["0101", "10", "111", "1"],  # the first short row is named
    ["01010", "1010", "101", "0"],
    ["01", "12"],  # "2" on the diagonal: binary refuses it
    ["02", "10"],  # and off the diagonal it is never read
    ["0\u0663", "\u06631"],  # a non-ASCII digit goes through int
    ["\u00b21", "11"],  # a character int refuses
    ["1 ", " 1"],
    [(0, 1), (1, 1)],  # rows that are not strings
    [b"01", b"10"],
])
def test_antidiagonal_errors_match_the_flip_digit_loop(rows):
    for flip in FlipPolicy:
        assert outcome(antidiagonal_finite, rows, flip) == outcome(flip_loop, rows, flip)


def test_decimal_antidiagonal_avoids_dual_representations():
    rng = random.Random(7)
    rows = ["".join(rng.choice("0123456789") for _ in range(30)) for _ in range(30)]
    anti = antidiagonal_finite(rows, FlipPolicy.DECIMAL)
    assert set(anti) <= {"4", "5"}
    for i, r in enumerate(rows):
        assert anti[i] != r[i]


def test_diagonal_cover_values_and_trend():
    assert diagonal_cover(1) == Fraction(1, 2)
    assert diagonal_cover(4) == Fraction(1, 4)
    assert diagonal_cover(20) == Fraction(5, 262144)
    prev = diagonal_cover(1)
    for n in range(2, 40):
        cur = diagonal_cover(n)
        assert cur <= prev
        prev = cur
    assert diagonal_cover(15) < Fraction(1, 1000)
    with pytest.raises(DomainError):
        diagonal_cover(0)


# --- rule families, transposed view ------------------------------------


def test_rule_antidiagonals():
    assert antidiagonal_rule(spec_for(Family.LOWER_TRI_22)) == EPS.constant(2, 1)
    assert antidiagonal_rule(spec_for(Family.UPPER_TRI_23)) == EPS.constant(2, 0)
    assert antidiagonal_rule(spec_for(Family.ALT_24)) == EPS(2, (), (1, 0))
    assert antidiagonal_rule(spec_for(Family.ALT_25)) == EPS(2, (), (0, 1))
    assert antidiagonal_rule(spec_for(Family.RANDOM_BELOW_26)) == EPS.constant(2, 1)
    assert antidiagonal_rule(spec_for(Family.DECIMAL_29)) == STREAM3
    with pytest.raises(NotAFamily):
        antidiagonal_rule(ArraySpec.explicit(B4_ROWS))


def column(spec, position, count):
    """Digit at position across strings 1..count, read one cell at a time."""
    return "".join(str(row_digit(spec, n, position)) for n in range(1, count + 1))


def test_string_and_position_views():
    t22 = spec_for(Family.LOWER_TRI_22)
    assert row(t22, 3, 10) == "1100000000"
    assert column(t22, 3, 10) == "0001111111"
    t23 = spec_for(Family.UPPER_TRI_23)
    assert column(t23, 2, 5) == "11000"
    assert row(t23, 4, 6) == "000111"
    t29 = spec_for(Family.DECIMAL_29)
    assert row(t29, 5, 8) == "33330000"
    assert column(t29, 2, 6) == "003333"
    assert row(t22, 5, 3) == "111"  # a window shorter than n holds antidiagonal digits only
    b4 = ArraySpec.explicit(B4_ROWS)
    assert row(b4, 6, 3) == "110"
    assert column(b4, 2, 16) == "".join(r[1] for r in B4_ROWS)


ALT_24_LINES = (
    "0111111111",
    "0100000000",
    "0001111111",
    "0001000000",
    "0000011111",
    "0000010000",
    "0000000111",
    "0000000100",
    "0000000001",
)


def test_alternating_family_position_lines():
    t24 = spec_for(Family.ALT_24)
    for j, line in enumerate(ALT_24_LINES, start=1):
        assert column(t24, j, 10) == line


def test_complement_family_mirrors_the_alternating_one():
    t24 = spec_for(Family.ALT_24)
    t25 = spec_for(Family.ALT_25)
    flip = str.maketrans("01", "10")
    for j in range(1, 12):
        assert column(t25, j, 12) == column(t24, j, 12).translate(flip)
    for n in range(1, 12):
        assert row(t25, n, 12) == row(t24, n, 12).translate(flip)


def test_random_family_structure():
    specs = [spec_for(Family.RANDOM_BELOW_26, seed=s) for s in (0, 1, 99)]
    for sp in specs:
        for n in range(1, 12):
            for j in range(1, 12):
                d = row_digit(sp, n, j)
                if j < n:
                    assert d == 1
                elif j == n:
                    assert d == 0
                else:
                    assert d in (0, 1)
    # the closed-form antidiagonal never depends on the seed
    antis = {antidiagonal_rule(sp) for sp in specs}
    assert antis == {EPS.constant(2, 1)}


def test_randomized_tail_leaves_the_leading_digits_alone():
    base = spec_for(Family.DECIMAL_29)
    for seed in (0, 5):
        rnd = spec_for(Family.DECIMAL_29, seed=seed, randomize=True)
        for n in range(1, 10):
            for j in range(1, n + 1):
                assert row_digit(rnd, n, j) == row_digit(base, n, j)
        assert antidiagonal_rule(rnd) == STREAM3


RANDOM_TAILS = [(Family.RANDOM_BELOW_26, False), (Family.DECIMAL_29, True)]


def random_tail_dump(sp, width):
    """The digits past the diagonal of strings 1..24 and around the width."""
    ns = [*range(1, 25), width - 1, width, width + 1]
    return [(n, row(sp, n, width)[n:]) for n in ns if n >= 1]


@pytest.mark.parametrize("kind,randomize", RANDOM_TAILS)
def test_random_tails_match_the_cell_oracle(kind, randomize):
    # Interleaved widths: each change of width builds the column table again.
    for seed in (0, 11):
        sp = spec_for(kind, seed=seed, randomize=randomize)
        for width in (300, 17, 300, 1, 1000):
            for n, tail in random_tail_dump(sp, width):
                assert tail == random_row(seed, n, width, sp.radix)


@pytest.mark.parametrize("kind,randomize", RANDOM_TAILS)
def test_random_tails_stay_exact_when_threads_race_for_the_column_table(kind, randomize):
    sp = spec_for(kind, seed=4, randomize=randomize)
    widths = (300, 17, 1000, 1, 64, 300, 513, 2) * 4
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over often, inside table builds too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            dumps = list(pool.map(lambda w: random_tail_dump(sp, w), widths, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    for width, dump in zip(widths, dumps):
        assert dump == [(n, random_row(4, n, width, sp.radix)) for n, _ in dump]


def test_view_index_errors():
    b4 = ArraySpec.explicit(B4_ROWS)
    with pytest.raises(NotAFamilyOrOutOfRange):
        row(b4, 17, 4)
    with pytest.raises(NotAFamilyOrOutOfRange):
        row(b4, 1, 5)
    with pytest.raises(NotAFamilyOrOutOfRange):
        row_digit(spec_for(Family.ALT_24), 0, 1)
    with pytest.raises(NotAFamilyOrOutOfRange):
        row(spec_for(Family.ALT_24), 0, 3)
    for n, j in ((17, 1), (1, 5)):
        with pytest.raises(NotAFamilyOrOutOfRange, match="outside the explicit array"):
            row_digit(b4, n, j)
    for kind in Family:
        with pytest.raises(DepthCapExceeded):
            row(spec_for(kind, randomize=True), 1, 10**6 + 1)


def test_family_spec_validation():
    with pytest.raises(DomainError):
        ArraySpec.family(Family.DECIMAL_29)  # no digit stream
    with pytest.raises(BadRadix):
        ArraySpec.family(Family.DECIMAL_29, antidiag_digits=EPS.constant(2, 1))
    with pytest.raises(DomainError):
        ArraySpec.family(Family.DECIMAL_29, antidiag_digits=EPS.constant(10, 0))
    with pytest.raises(DomainError):
        ArraySpec.family(Family.ALT_24, antidiag_digits=STREAM3)
    with pytest.raises(DomainError):
        ArraySpec.family(Family.ALT_24, randomize_subdiagonal=True)
    with pytest.raises(DomainError):
        ArraySpec.explicit([])
    with pytest.raises(DomainError, match="rows must be nonempty"):
        ArraySpec.explicit([""])
    with pytest.raises(DomainError):
        ArraySpec.explicit(["01", "011"])
    with pytest.raises(DomainError):
        ArraySpec.explicit(["0a"])


@pytest.mark.parametrize("text", ["\u0663", "\u0663\u0663", "\u00b2", "1\u00b9", "\uff11\uff10",
                                  "", " 1", "1 ", "12\n", "1a"])
def test_digit_strings_are_ascii_digits_only(text):
    # Non-ASCII digits (Arabic-Indic, superscript, fullwidth) and whitespace.
    assert not _is_digits(text)
    assert _is_digits("0123456789" * 150) and _is_digits("0")
    if text:
        with pytest.raises(DomainError, match="contains a non-digit"):
            ArraySpec.explicit([text])
        with pytest.raises(DomainError, match="^candidate must be a digit string$"):
            membership_scan(ArraySpec.explicit(["1" * len(text)]), text, depth=1)


def test_explicit_arrays_are_capped_as_their_rows_arrive():
    at_both_caps = ArraySpec.explicit(itertools.repeat("0123456789", SCAN_CAP))
    assert len(at_both_caps.rows) == SCAN_CAP and SCAN_CAP * 10 == EXPLICIT_CELL_CAP
    # Each cap refuses the first row past it, and no row after that is read.
    rows = itertools.repeat("1", SCAN_CAP + 5)
    with pytest.raises(CapExceeded, match=f"^explicit array longer than {SCAN_CAP} rows$"):
        ArraySpec.explicit(rows)
    assert operator.length_hint(rows) == 4
    rows = itertools.repeat("0" * 11, SCAN_CAP)
    message = f"^explicit array larger than {EXPLICIT_CELL_CAP} cells$"
    with pytest.raises(CapExceeded, match=message):
        ArraySpec.explicit(rows)
    assert operator.length_hint(rows) == SCAN_CAP - (EXPLICIT_CELL_CAP // 11 + 1)
    with pytest.raises(CapExceeded, match=message):
        ArraySpec.explicit(["0" * (EXPLICIT_CELL_CAP + 1)])


@pytest.mark.parametrize("bad, message", [
    ("123", "^explicit rows must all have equal length$"),
    ("1a", "^row '1a' contains a non-digit$"),
])
def test_a_bad_row_is_refused_before_the_next_is_read(bad, message):
    # A bad row ahead of more rows than SCAN_CAP is refused as it arrives,
    # not after the row cap would have read the rest.
    rows = iter(["12", bad] + ["12"] * SCAN_CAP)
    with pytest.raises(DomainError, match=message):
        ArraySpec.explicit(rows)
    assert operator.length_hint(rows) == SCAN_CAP


@pytest.mark.parametrize("rows, message", [
    (["12", "1a", "123", ""], "row '1a' contains a non-digit"),
    (["12", "123", "1a"], "explicit rows must all have equal length"),
    (["1a3", "12"], "row '1a3' contains a non-digit"),
    (["12", "1a3"], "explicit rows must all have equal length"),
    (["12", "\u06634", "1"], "row '\u06634' contains a non-digit"),
    (["", "1a"], "explicit rows must be nonempty"),
])
def test_explicit_refuses_the_first_fault_of_several(rows, message):
    with pytest.raises(DomainError) as caught:
        ArraySpec.explicit(rows)
    assert type(caught.value) is DomainError and str(caught.value) == message


def test_explicit_radix_follows_the_digits():
    assert ArraySpec.explicit(B4_ROWS).radix == 2
    assert ArraySpec.explicit(["0101", "1102"]).radix == 10
    assert ArraySpec.explicit(["9"]).radix == 10
    assert spec_for(Family.DECIMAL_29).radix == 10
    assert spec_for(Family.ALT_24).radix == 2


@pytest.mark.parametrize("kind", list(Family))
def test_family_radix_is_its_antidiagonal_radix(kind):
    # The field repeats what the family's rule says; this catches the two drifting.
    for randomize in (False, True) if kind is Family.DECIMAL_29 else (False,):
        spec = spec_for(kind, seed=5, randomize=randomize)
        assert spec.radix == antidiagonal_rule(spec).radix


def test_radix_survives_pickling():
    specs = [spec_for(kind) for kind in Family]
    specs += [ArraySpec.explicit(B4_ROWS), ArraySpec.explicit(["0101", "1102"])]
    for spec in specs:
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and back.radix == spec.radix and not hasattr(back, "__dict__")


def equal_rows(digits):
    return st.integers(1, 12).flatmap(lambda width: st.lists(
        st.text(digits, min_size=width, max_size=width), min_size=1, max_size=12))


def last_cell_set(rows_and_digit):
    rows, digit = rows_and_digit
    return rows[:-1] + [rows[-1][:-1] + digit]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(
    equal_rows("01"),
    equal_rows("0123456789"),
    # binary but for one digit, in the last cell of the last row
    st.tuples(equal_rows("01"), st.sampled_from("23456789")).map(last_cell_set),
))
def test_explicit_radix_matches_the_stripped_rows(rows):
    assert ArraySpec.explicit(rows).radix == stripped_radix(rows)


# --- membership scans --------------------------------------------------


def test_explicit_scan_finds_the_antidiagonal_late():
    b4 = ArraySpec.explicit(B4_ROWS)
    report = membership_scan(b4, "1111", depth=16)
    assert membership_scan(b4, None, depth=16) == report
    assert report.found_at == 16
    assert report.antidiagonal == "1111"
    assert report.cover == Fraction(1, 4)
    assert sorted(report.first_difference) == list(range(1, 16))
    want = {}
    for n, r in enumerate(B4_ROWS[:15], start=1):
        mismatches = [j for j in range(4) if r[j] != "1111"[j]]
        want[n] = mismatches[0] + 1
    assert_behaves_as_its_dict(report.first_difference, want)


def test_explicit_scan_accepts_periodic_candidates():
    b4 = ArraySpec.explicit(B4_ROWS)
    report = membership_scan(b4, EPS.constant(2, 0), depth=16)
    assert report.found_at == 1


def test_upper_triangular_contains_the_all_ones_string():
    report = membership_scan(spec_for(Family.UPPER_TRI_23), EPS.constant(2, 1), depth=50)
    assert report.found_at == 1
    assert report.first_difference == {}


def perturbed(anti, at=7):
    """Copy of an antidiagonal with one digit changed at the given position."""
    pre = [anti.digit_at(i) for i in range(1, at + 1)]
    pre[at - 1] = (pre[at - 1] + 1) % anti.radix
    if anti.radix == 10 and pre[at - 1] == 0:
        pre[at - 1] = 1
    per = tuple(anti.digit_at(i) for i in range(at + 1, at + 1 + len(anti.period)))
    return EPS(anti.radix, tuple(pre), per)


DETERMINISTIC = (
    Family.LOWER_TRI_22,
    Family.UPPER_TRI_23,
    Family.ALT_24,
    Family.ALT_25,
    Family.DECIMAL_29,
)


@pytest.mark.parametrize("kind", list(Family))
def test_scan_matches_direct_digit_walk(kind):
    depth = 200
    sp = spec_for(kind, seed=11)
    anti = antidiagonal_rule(sp)
    candidates = [anti, perturbed(anti)]
    string7 = tuple(row_digit(sp, 7, j) for j in range(1, 8))
    if kind in DETERMINISTIC:
        candidates.append(EPS(sp.radix, string7, (row_digit(sp, 7, 8),)))
    else:
        # same leading digits as string 7, all-zero guess for the random tail
        candidates.append(EPS(2, string7, (0,)))
    window = depth if has_random_tail(sp) else depth + 16
    for cand in candidates:
        report = membership_scan(sp, cand, depth=depth)
        found, diffs = naive_scan(
            lambda n, j: row_digit(sp, n, j), cand.digit_at, depth, window
        )
        assert report.found_at == found
        assert report.first_difference == diffs


@pytest.mark.parametrize(
    "kind,randomize", [(k, False) for k in Family] + [(Family.DECIMAL_29, True)]
)
def test_closed_form_scan_matches_the_naive_scan_at_depth_2000(kind, randomize):
    depth, window = 2000, 2048
    sp = spec_for(kind, seed=3, randomize=randomize)

    def string(m, length):
        return tuple(row_digit(sp, m, j) for j in range(1, length + 1))

    for m in (1, 2, 9, 64):
        # String m up to its diagonal digit, then its first tail digit forever:
        # string m itself when the tail is constant.
        exact = EPS(sp.radix, string(m, m), (row_digit(sp, m, m + 1),))
        # String m on the whole window, then a different digit five places on.
        late = string(m, window + 4) + ((row_digit(sp, m, window + 5) + 1) % sp.radix,)
        past_window = EPS(sp.radix, late, (1,))
        for cand in (exact, past_window):
            report = membership_scan(sp, cand, depth, window)
            # Deterministic strings are compared as infinite sequences,
            # random tails on the window only.
            oracle_window = window if has_random_tail(sp) else window + 16
            found, diffs = naive_scan(
                lambda n, j: row_digit(sp, n, j), cand.digit_at, depth, oracle_window
            )
            assert (report.found_at, report.first_difference) == (found, diffs)
        if has_random_tail(sp):  # report is the past-window candidate's
            assert report.found_at == m
        else:
            assert report.found_at is None and report.first_difference[m] == window + 5


def test_scan_of_the_antidiagonal_never_finds_it():
    for kind in Family:
        sp = spec_for(kind)
        report = membership_scan(sp, antidiagonal_rule(sp), depth=300)
        assert membership_scan(sp, None, depth=300) == report
        assert report.found_at is None
        assert report.scan_depth == 300
        assert report.cover == 1
        assert all(report.first_difference[n] == n for n in range(1, 301))


def dict_scan(spec, candidate, depth, prefix_len):
    """(found_at, first_difference) of a family scan with the map built as a dict:
    n -> n below the candidate's departure m from the antidiagonal, then m -> j
    and n -> m past it, or n -> n up to m - 1 alone if string m matches."""
    anti, tail = _rule(spec)
    m = candidate.first_difference(anti)
    below = depth if m is None else min(m - 1, depth)
    diffs = {n: n for n in range(1, below + 1)}
    if below == depth:
        return None, diffs
    end = prefix_len if tail is None else max(m, len(candidate.preperiod)) + len(candidate.period)
    for j in range(m, end + 1):
        if candidate.digit_at(j) != row_digit(spec, m, j):
            diffs[m] = j
            diffs.update(zip(range(m + 1, depth + 1), itertools.repeat(m)))
            return None, diffs
    return m, diffs


def answer(mapping, key):
    try:
        return mapping[key]
    except KeyError:
        return KeyError


def assert_behaves_as_its_dict(m, want):
    """A scan's first differences m, a runs map, reads as the dict want in every way."""
    assert type(m) is _Runs
    assert m == want and want == m and not m != want and not want != m
    assert m != {**want, 0: 0} and want != {**m, len(m) + 1: 1}
    assert (len(m), list(m)) == (len(want), list(want))
    assert all(n in m for n in want) and m.get(1) == want.get(1)
    assert m.get(0) is None and m.get(len(want) + 1, "none") == "none"
    for view, want_view in ((m.keys(), want.keys()), (m.values(), want.values()),
                            (m.items(), want.items())):
        assert len(view) == len(want_view)
        assert list(view) == list(want_view) == list(view)  # a view iterates again
    assert m.items() == want.items() and m.keys() == want.keys()
    for key in (0, len(want) + 1, "1"):
        assert key not in m
        with pytest.raises(KeyError):
            m[key]
    for key in (1, True, 1.0, 1.5, len(want), len(want) + 1):
        assert answer(m, key) == answer(want, key)
    assert repr(m) == repr(want) and dict(m) == want
    # The runs, from which the CLI renders the map, rebuild its items in order.
    assert [(n, n if v is None else v[i] if type(v) is list else v)
            for keys, v in m.runs() for i, n in enumerate(keys)] == list(want.items())
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(m, protocol)) == want


@pytest.mark.parametrize(
    "kind,randomize", [(k, False) for k in Family] + [(Family.DECIMAL_29, True)]
)
def test_a_family_scan_map_behaves_as_its_dict(kind, randomize):
    depth, rng = 40, random.Random(f"{kind.value}{randomize}")
    sp = spec_for(kind, seed=5, randomize=randomize)
    anti, radix = antidiagonal_rule(sp), sp.radix

    def string(m, length):
        return tuple(row_digit(sp, m, j) for j in range(1, length + 1))

    candidates = [anti, *(perturbed(anti, at) for at in (1, 17, depth + 9))]
    for m in (1, 17, depth):  # string m exactly, then string m on 70 digits
        candidates += [EPS(radix, string(m, m), (row_digit(sp, m, m + 1),)),
                       EPS(radix, string(m, 70), (1,))]
    for _ in range(4):  # the antidiagonal for a while, then random digits
        lead = tuple(anti.digit_at(j) for j in range(1, rng.randint(1, depth + 4)))
        tail = tuple(rng.randrange(radix) for _ in range(rng.randint(0, 3)))
        candidates.append(EPS(radix, lead + tail, (rng.randrange(radix),)))
    hits = set()
    for cand, window in itertools.product(candidates, (None, 64)):
        report = membership_scan(sp, cand, depth, window)
        found, want = dict_scan(sp, cand, depth, depth if window is None else window)
        assert report.found_at == found
        hits.add(found)
        assert_behaves_as_its_dict(report.first_difference, want)
        assert report == DiagonalReport(anti, Fraction(1), depth, found, want)
    assert {None, 1} < hits  # misses, and hits at string 1 (an empty map) and later


def test_an_explicit_scan_map_behaves_as_its_dict():
    # b4.txt hit at row 16, missed on every row of its first 15, and hit at row 1
    # (an empty map); then seeded random arrays, each against the naive scan.
    b4 = ArraySpec.explicit(B4_ROWS)
    scans = [(b4, "1111", 16), (ArraySpec.explicit(B4_ROWS[:15]), "1111", 15), (b4, "0000", 16)]
    rng = random.Random(37)
    for _ in range(60):
        digits, width = rng.choice(("01", "0123456789")), rng.randint(1, 8)
        rows = ["".join(rng.choices(digits, k=width)) for _ in range(rng.randint(1, 50))]
        candidate = rng.choice([*rows, "".join(rng.choices(digits, k=width))])
        scans.append((ArraySpec.explicit(rows), candidate, rng.randint(1, len(rows))))
    hits = set()
    for spec, candidate, depth in scans:
        report = membership_scan(spec, candidate, depth)
        found, want = naive_scan(lambda n, j: spec.rows[n - 1][j - 1],
                                 lambda j: candidate[j - 1], depth, len(candidate))
        assert report.found_at == found
        hits.add(found)
        assert_behaves_as_its_dict(report.first_difference, want)
    assert {None, 1, 16} < hits


def test_randomized_tail_does_not_change_scan_results():
    reports = []
    for seed in (0, 1, 2):
        sp = spec_for(Family.DECIMAL_29, seed=seed, randomize=True)
        reports.append(membership_scan(sp, STREAM3, depth=100))
    assert all(r.found_at is None for r in reports)
    assert reports[0].first_difference == reports[1].first_difference
    assert reports[1].first_difference == reports[2].first_difference


def test_scan_argument_errors():
    sp = spec_for(Family.LOWER_TRI_22)
    with pytest.raises(DomainError):
        membership_scan(sp, EPS.constant(2, 1), depth=0)
    with pytest.raises(DepthCapExceeded):
        membership_scan(sp, EPS.constant(2, 1), depth=10**6 + 1)
    with pytest.raises(DepthCapExceeded):
        membership_scan(sp, EPS.constant(2, 1), depth=1, prefix_len=10**6 + 1)
    with pytest.raises(DomainError):
        membership_scan(sp, EPS.constant(2, 1), depth=10, prefix_len=9)
    with pytest.raises(DomainError):
        membership_scan(sp, "111", depth=3)
    with pytest.raises(DomainError):
        membership_scan(sp, EPS.constant(10, 1), depth=3)
    b4 = ArraySpec.explicit(B4_ROWS)
    with pytest.raises(DomainError):
        membership_scan(b4, "11111", depth=4)
    with pytest.raises(DomainError):
        membership_scan(b4, "1x11", depth=4)
    with pytest.raises(DomainError, match="candidate must be a digit string"):
        membership_scan(b4, "1\u0661\u00b91", depth=4)  # Arabic-Indic 1, superscript 1
    with pytest.raises(DomainError, match="candidate radix does not match"):
        membership_scan(b4, STREAM3, depth=4)
    wide = ArraySpec.explicit(["0110", "1011"])
    with pytest.raises(DomainError, match="2 rows of length 4 has no full antidiagonal"):
        membership_scan(wide, None, depth=2)
    assert membership_scan(wide, "1011", depth=2).found_at == 2
