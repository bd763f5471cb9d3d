import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diagbench import subsets
from diagbench.errors import (
    BoundTooSmall,
    CapExceeded,
    ClosedFormMismatch,
    DomainError,
    NonIntegerLabel,
    OddN,
    OutOfRange,
)
from diagbench.subsets import (
    DOVETAIL_CAP,
    FIGURE1_CAP,
    RANK_CAP,
    TABLE1_LABELS,
    UNRANK_BITS_CAP,
    UNRANK_P_CAP,
    CofiniteSubset,
    FiniteSubset,
    binomial,
    complement,
    complement_inv,
    decode_subset,
    dovetail_enumerate,
    dovetail_iter,
    encode_subset,
    extend_subsets,
    figure1_data,
    rank,
    ratio_q,
    table1_values,
    unrank,
    verify_ratio_law,
)

from helpers import (
    bytewise_bits,
    colex_rank,
    greedy_unrank,
    pascal_row,
    scan_dovetail,
    shift_sum,
)


# --- binomials and ratios ----------------------------------------------


def test_binomial_against_additive_triangle():
    for n in range(0, 30):
        expected = pascal_row(n)
        assert [binomial(n, p) for p in range(n + 1)] == expected
    assert binomial(40, 20) == 137846528820
    assert binomial(100, 50) == 100891344545564193334812497256
    with pytest.raises(OutOfRange):
        binomial(5, 6)
    with pytest.raises(OutOfRange):
        binomial(5, -1)
    with pytest.raises(OutOfRange):
        binomial(-1, 0)


def test_ratio_golden_values():
    assert ratio_q(40, 0) == Fraction(20, 21)
    assert ratio_q(40, 19) == Fraction(1, 40)
    assert ratio_q(40, 10) == Fraction(10, 31)
    assert ratio_q(2, 0) == Fraction(1, 2)


def test_ratio_matches_the_coefficient_quotient():
    for n in (2, 10, 40, 200):
        for d in range(n // 2):
            p = n // 2 + d
            assert binomial(n, p + 1) * (n + 2 * (d + 1)) == binomial(n, p) * (n - 2 * d)
            assert Fraction(binomial(n, p + 1), binomial(n, p)) == ratio_q(n, d)


def test_ratio_domain():
    with pytest.raises(DomainError):
        ratio_q(39, 0)
    with pytest.raises(DomainError):
        ratio_q(40, 20)
    with pytest.raises(DomainError):
        ratio_q(40, -1)


def test_verify_ratio_law():
    assert verify_ratio_law(40, 20)
    assert verify_ratio_law(2, 0)
    assert verify_ratio_law(10, 9)
    with pytest.raises(OutOfRange):
        verify_ratio_law(10, 10)


# --- ratio table and figure --------------------------------------------


def test_table_has_24_rows_when_all_labels_divide():
    rows = table1_values(2520)
    assert len(rows) == 24
    assert [r[0] for r in rows] == list(TABLE1_LABELS)
    by_label = {label: (d, q) for label, d, q in rows}
    assert by_label["0"] == (0, Fraction(2520, 2522))
    assert by_label["n/4"] == (630, Fraction(1, 3 + Fraction(4, 2520)))
    assert by_label["n/2-1"] == (1259, Fraction(1, 2520))
    # offsets increase down the table
    ds = [d for _, d, _ in rows]
    assert ds == sorted(ds)


def test_table_single_labels_at_n_40():
    assert table1_values(40, ["n/2-1"]) == [("n/2-1", 19, Fraction(1, 40))]
    assert table1_values(40, ["n/4"]) == [("n/4", 10, Fraction(10, 31))]
    assert table1_values(40, ["3"]) == [("3", 3, Fraction(34, 48))]


def test_table_label_and_domain_errors():
    with pytest.raises(NonIntegerLabel):
        table1_values(40)  # n/9 and n/7 do not divide 40
    with pytest.raises(DomainError):
        table1_values(41)
    with pytest.raises(DomainError):
        table1_values(18)
    with pytest.raises(DomainError):
        table1_values(2520, ["n/11"])
    # Only the 24 listed labels: no other offset, and no other spelling of one.
    for label in ("n/2-9", "n/2-03", "n/2-\u0663", "n/2-\u00b2"):  # Arabic-Indic 3, superscript 2
        with pytest.raises(DomainError, match="unknown ratio-table label"):
            table1_values(2520, [label])


def test_table_reports_a_closed_form_mismatch(monkeypatch):
    from diagbench import subsets

    monkeypatch.setattr(subsets, "ratio_q", lambda n, d: ratio_q(n, d) + 1)
    with pytest.raises(ClosedFormMismatch, match="closed form for n/4 disagrees at n=40"):
        table1_values(40, ["n/4"])


def test_figure_series_shape():
    coeffs, ratios = figure1_data(40)
    assert len(coeffs) == 41 and len(ratios) == 20
    values = [c for _, c in coeffs]
    assert values == values[::-1]
    assert max(values) == values[20] == 137846528820
    assert values[:21] == sorted(values[:21])
    qs = [q for _, q in ratios]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    assert qs[0] == Fraction(20, 21) and qs[-1] == Fraction(1, 40)
    assert all(0 < q < 1 for q in qs)


def test_figure_series_at_the_cap_match_pascal_addition():
    coeffs, ratios = figure1_data(FIGURE1_CAP)
    row = pascal_row(FIGURE1_CAP)
    assert coeffs == list(enumerate(row))
    half = FIGURE1_CAP // 2
    assert ratios == [(d, Fraction(row[half + d + 1], row[half + d])) for d in range(half)]


@given(st.integers(min_value=1, max_value=FIGURE1_CAP // 2))
@example(1)
@example(FIGURE1_CAP // 2)
def test_figure_coefficients_match_math_comb(half):
    n = 2 * half
    coeffs, _ = figure1_data(n)
    assert coeffs == [(p, math.comb(n, p)) for p in range(n + 1)]


def test_figure_small_and_error_cases():
    coeffs, ratios = figure1_data(2)
    assert [c for _, c in coeffs] == [1, 2, 1]
    assert ratios == [(0, Fraction(1, 2))]
    with pytest.raises(OddN):
        figure1_data(7)
    with pytest.raises(CapExceeded):
        figure1_data(1026)
    with pytest.raises(DomainError):
        figure1_data(0)


# --- subset containers --------------------------------------------------


def test_subset_container_basics():
    s = FiniteSubset((0, 1, 3))
    assert len(s) == 3
    assert list(s) == [0, 1, 3]
    assert 3 in s and 2 not in s
    assert repr(s) == "{0,1,3}"
    assert repr(FiniteSubset()) == "{}"
    with pytest.raises(DomainError):
        FiniteSubset((1, 1))
    with pytest.raises(DomainError):
        FiniteSubset((3, 2))
    with pytest.raises(DomainError):
        FiniteSubset((-1,))


def test_complement_membership_and_involution():
    s = FiniteSubset((0, 2))
    c = complement(s)
    assert isinstance(c, CofiniteSubset)
    assert 1 in c and 5 in c
    assert 0 not in c and 2 not in c
    assert complement_inv(c) == s
    rng = random.Random(99)
    for _ in range(50):
        elems = tuple(sorted(rng.sample(range(64), rng.randint(0, 8))))
        t = FiniteSubset(elems)
        assert complement_inv(complement(t)) == t


# --- rank / unrank ------------------------------------------------------


def test_rank_golden_values():
    assert rank(FiniteSubset()) == 0
    assert rank(FiniteSubset((0, 1, 2))) == 0
    assert rank(FiniteSubset((1, 3))) == 4
    assert rank(FiniteSubset((2,))) == 2
    assert unrank(3, 1) == FiniteSubset((0, 1, 3))
    assert unrank(1, 7) == FiniteSubset((7,))
    assert unrank(0, 0) == FiniteSubset()


def test_rank_is_dense_per_cardinality():
    # ranks of all 3-subsets of {0..9} are exactly 0..C(10,3)-1
    subs = [
        FiniteSubset((a, b, c))
        for a in range(10)
        for b in range(a + 1, 10)
        for c in range(b + 1, 10)
    ]
    assert sorted(rank(s) for s in subs) == list(range(binomial(10, 3)))


def test_rank_is_the_plain_sum_below_its_cap_and_refused_from_it(monkeypatch):
    # At the cap itself, the edges where the top term is the whole rank ...
    assert rank(FiniteSubset((RANK_CAP - 1,))) == RANK_CAP - 1
    with pytest.raises(CapExceeded, match=r"rank of 1 elements at or above cap 10\*\*4300"):
        rank(FiniteSubset((RANK_CAP,)))
    # ... then at a small cap, where the plain sum is cheap: ranks either side
    # of it, which only the sum decides, and random subsets whose top terms
    # fall far on either side of it.
    cap = 10**40
    monkeypatch.setattr(subsets, "RANK_CAP", cap)
    rng = random.Random(4300)
    subs = [greedy_unrank(p, cap + d) for p in range(1, 30) for d in (-1, 0)]
    subs += [greedy_unrank(rng.randint(1, 30), rng.randrange(cap // 2, 2 * cap))
             for _ in range(100)]
    for _ in range(300):
        p = rng.randint(1, 60)
        subs.append(tuple(sorted(rng.sample(range(1 << rng.randint(p.bit_length(), 24)), p))))
    below = 0
    for elems in subs:
        plain = colex_rank(elems)
        if plain < cap:
            assert rank(FiniteSubset(elems)) == plain
            below += 1
        else:
            with pytest.raises(CapExceeded, match=f"rank of {len(elems)} elements at or above"):
                rank(FiniteSubset(elems))
    assert 0 < below < len(subs)


def _longest_jump(x, term):
    # The largest gap g from the element x that rank jumps, by its size rule
    # g * bit_length(x + g) < bit_length(term), where term = C(x, i - 1).
    g = 0
    while (g + 1) * (x + g + 1).bit_length() < term.bit_length():
        g += 1
    return g


def test_rank_walk_matches_the_term_sum():
    # Gaps either side of the jump's size rule, each after a leading run
    # 0..k-1 of zero terms and 1, 8 or 60 nonzero terms, then once more after
    # the term that the gap reached.
    subs = [(c,) for c in (0, 1, 2, 32, 10**6, 2**200)]
    for k in range(6):
        run = tuple(range(k))
        for start, m in ((k, 1), (k + 3, 8), (k + 900, 60), (2**64, 8)):
            prefix = run + tuple(range(start, start + m))
            x = prefix[-1]
            edge = _longest_jump(x, math.comb(x, len(prefix)))
            for g in {1, 2, edge - 1, edge, edge + 1, edge + 2, 5 * edge + 7} - {0, -1}:
                subs.append(prefix + (x + g,))
                after = _longest_jump(x + g, math.comb(x + g, len(prefix) + 1))
                subs += [prefix + (x + g, x + g + h) for h in {after, after + 1} - {0}]
    rng = random.Random(31)
    for _ in range(300):
        p = rng.randint(1, 80)
        gaps = [rng.choice((0, 1, rng.randrange(64), rng.randrange(4000)))
                for _ in range(p)]
        subs.append(tuple(itertools.accumulate(g + 1 for g in gaps)))
    p = UNRANK_P_CAP
    subs += [tuple(range(3, 3 + p)), tuple(sorted(rng.sample(range(40 * p), p)))]
    subs += [unrank(rng.randint(1, p), rng.getrandbits(UNRANK_BITS_CAP)).elements
             for _ in range(8)]
    for elems in subs:
        assert rank(FiniteSubset(elems)) == colex_rank(elems), elems


def test_rank_computes_a_binomial_only_after_a_zero_term_or_a_long_gap(monkeypatch):
    combs, fresh, real_comb, real_factorial = [], [], math.comb, math.factorial

    def comb(n, k):
        combs.append((n, k))
        return real_comb(n, k)

    def factorial(n):
        fresh.append(n)
        return real_factorial(n)

    monkeypatch.setattr(subsets.math, "comb", comb)
    monkeypatch.setattr(subsets.math, "factorial", factorial)
    a = 2**40
    # One math.comb for the top term's cap check, then one fresh term (one
    # math.factorial) for each term that the jump does not reach.
    for elems, want_fresh in (
        ((0, 1, 2, 9), 4),  # zero terms C(0, 1), C(1, 2), C(2, 3), then C(9, 4)
        ((5, 38), 2),  # C(5, 1) has 3 bits, fewer than the jump's 33 * 6
        ((a, a + 1, a + 2), 2),  # C(a + 1, 2) has 80 bits: a gap of 1 (41 bits) jumps
        ((a, a + 1, a + 3), 3),  # and a gap of 2 (82 bits) does not
        (tuple(range(4, 1504)), 2),  # C(4, 1) and C(5, 2), then each term jumps
        (tuple(range(0, 300 * 30000, 30000)), 300),  # every gap too wide to jump
    ):
        want = colex_rank(elems)
        combs.clear()
        fresh.clear()
        assert rank(FiniteSubset(elems)) == want
        assert len(combs) == 1 and len(fresh) == want_fresh


def test_unrank_errors():
    with pytest.raises(OutOfRange):
        unrank(0, 1)
    with pytest.raises(OutOfRange):
        unrank(-1, 0)
    with pytest.raises(OutOfRange):
        unrank(2, -1)


def test_unrank_caps():
    assert len(unrank(UNRANK_P_CAP, 0)) == UNRANK_P_CAP
    widest = (1 << UNRANK_BITS_CAP) - 1
    assert rank(unrank(3, widest)) == widest
    with pytest.raises(CapExceeded, match="cardinality 1501 above cap 1500"):
        unrank(UNRANK_P_CAP + 1, 0)
    with pytest.raises(CapExceeded, match="rank of 2049 bits above cap 2048"):
        unrank(3, widest + 1)


def test_unrank_matches_the_greedy_oracle_on_small_cardinalities():
    for p in range(9):
        for r in range(3000 if p else 1):
            assert unrank(p, r).elements == greedy_unrank(p, r)


def test_unrank_matches_the_greedy_oracle_on_large_ranks():
    rng = random.Random(2026)
    pairs = [(rng.randint(1, 300), rng.getrandbits(rng.randint(1, UNRANK_BITS_CAP)))
             for _ in range(40)]
    widest = (1 << UNRANK_BITS_CAP) - 1
    # At p = 2 and 3 the walks below the top element are far too long to step,
    # so these pairs finish only through the bisection fallback.
    pairs += [(p, widest) for p in (1, 2, 3)]
    pairs += [(UNRANK_P_CAP, 0), (UNRANK_P_CAP, widest)]
    for p, r in pairs:
        assert unrank(p, r).elements == greedy_unrank(p, r)


@given(p=st.integers(min_value=1, max_value=5), r=st.integers(min_value=0, max_value=10**4))
def test_unrank_then_rank_round_trip(p, r):
    s = unrank(p, r)
    assert len(s) == p
    assert rank(s) == r


@given(st.frozensets(st.integers(min_value=0, max_value=40), max_size=6))
def test_rank_then_unrank_round_trip(elems):
    s = FiniteSubset(tuple(sorted(elems)))
    assert unrank(len(s), rank(s)) == s


# --- level-wise extension ----------------------------------------------


def test_extend_golden_cases():
    assert extend_subsets([FiniteSubset()], 2) == [FiniteSubset((0,)), FiniteSubset((1,))]
    assert extend_subsets([FiniteSubset((0,)), FiniteSubset((1,))], 3) == [
        FiniteSubset((0, 1)),
        FiniteSubset((0, 2)),
        FiniteSubset((1, 2)),
    ]
    assert extend_subsets([FiniteSubset((0, 1))], 4) == [
        FiniteSubset((0, 1, 2)),
        FiniteSubset((0, 1, 3)),
    ]


def test_extend_counts_follow_binomials():
    for bound in (3, 6, 9):
        level = [FiniteSubset()]
        for p in range(1, bound + 1):
            level = extend_subsets(level, bound)
            assert len(level) == binomial(bound, p)
            assert len(set(level)) == len(level)


def test_extend_bound_check():
    with pytest.raises(BoundTooSmall):
        extend_subsets([FiniteSubset((5,))], 5)


# --- dovetailing sweep ---------------------------------------------------


def test_dovetail_prefix():
    first = dovetail_enumerate(10)
    assert first == [
        FiniteSubset(),
        FiniteSubset((0,)),
        FiniteSubset((1,)),
        FiniteSubset((0, 1)),
        FiniteSubset((2,)),
        FiniteSubset((0, 2)),
        FiniteSubset((0, 1, 2)),
        FiniteSubset((3,)),
        FiniteSubset((1, 2)),
        FiniteSubset((0, 1, 3)),
    ]


def test_dovetail_has_no_repeats_and_reaches_small_sets():
    seen = dovetail_enumerate(10**4)
    assert len(set(seen)) == len(seen)
    prefix = dovetail_enumerate(40)
    for m in range(8):
        assert decode_subset(m) in prefix


def test_dovetail_limits():
    assert dovetail_enumerate(0) == []
    assert list(dovetail_iter(0)) == []
    # The iterator's count is checked at the call, before anything is taken.
    for count, error in ((-1, DomainError), (DOVETAIL_CAP + 1, CapExceeded)):
        with pytest.raises(error):
            dovetail_enumerate(count)
        with pytest.raises(error):
            dovetail_iter(count)


def test_dovetail_steps_through_colex_ranks_stage_by_stage():
    seen = dovetail_enumerate(20000)
    assert len(set(seen)) == len(seen)
    assert seen[0] == FiniteSubset()
    # Index k >= 1 is stage t, cardinality p, with k = t(t-1)/2 + p.
    t, p = 1, 1
    for s in seen[1:]:
        elems = s.elements
        assert len(elems) == p and all(a < b for a, b in zip(elems, elems[1:]))
        assert colex_rank(elems) == t - p
        t, p = (t + 1, 1) if p == t else (t, p + 1)


def test_dovetail_matches_a_scan_only_successor():
    # 20,000 items reach stage 200: every kind of step, the top growing, the
    # kept index growing and a scan after the lowest element grew, occurs.
    for n in (0, 1, 2, 3, 20000):
        assert [s.elements for s in dovetail_enumerate(n)] == scan_dovetail(n)
        assert list(dovetail_iter(n)) == scan_dovetail(n)


def test_trusted_construction_matches_the_public_constructor():
    rng = random.Random(17)
    made = [unrank(rng.randint(1, 60), rng.getrandbits(rng.randint(0, 200))) for _ in range(300)]
    made += [decode_subset(rng.getrandbits(rng.randint(0, 300))) for _ in range(300)]
    level = [FiniteSubset(tuple(sorted(rng.sample(range(40), rng.randint(0, 8)))))
             for _ in range(30)]
    made += extend_subsets(level, 50)
    made += dovetail_enumerate(300)
    for s in made:
        twin = FiniteSubset(s.elements)
        assert s == twin and hash(s) == hash(twin) and repr(s) == repr(twin)
        assert type(s) is FiniteSubset and type(s.elements) is tuple
        back = pickle.loads(pickle.dumps(s))
        assert back == s and back.elements == s.elements
        with pytest.raises(AttributeError, match="cannot assign to field 'elements'"):
            s.elements = ()


# --- bitmask coding ------------------------------------------------------


def test_encode_decode_goldens():
    assert encode_subset(FiniteSubset((0, 2))) == 5
    assert decode_subset(6) == FiniteSubset((1, 2))
    assert encode_subset(FiniteSubset()) == 0
    assert decode_subset(0) == FiniteSubset()
    with pytest.raises(DomainError):
        decode_subset(-1)


def test_decode_matches_a_bytewise_oracle():
    rng = random.Random(13)
    codes = [0, 1, 2**64, 2**64 - 1]
    codes += [rng.getrandbits(rng.randrange(1, 3000)) for _ in range(200)]
    for m in codes:
        assert decode_subset(m).elements == bytewise_bits(m)


def test_encode_matches_a_shift_sum_oracle():
    rng = random.Random(17)
    codes = [0, 2**64]
    codes += [rng.getrandbits(rng.randrange(1, 3000)) for _ in range(200)]
    for m in codes:
        elements = bytewise_bits(m)
        assert encode_subset(FiniteSubset(elements)) == shift_sum(elements) == m


def test_encode_decode_inverse_sample():
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randrange(2**16)
        assert encode_subset(decode_subset(m)) == m
