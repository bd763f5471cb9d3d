import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagbench.eps import EventuallyPeriodicString as EPS
from diagbench.errors import BadRadix, DomainError

from helpers import rotating_canonical


def test_period_reduced_to_primitive_root():
    assert EPS(2, (), (1, 0, 1, 0)) == EPS(2, (), (1, 0))
    assert EPS(10, (), (7, 7, 7)) == EPS(10, (), (7,))


def test_preperiod_boundary_absorbed():
    # 0(10) spells 0101... which is (01)
    assert EPS(2, (0,), (1, 0)) == EPS(2, (), (0, 1))
    assert EPS(2, (1,), (1,)) == EPS(2, (), (1,))
    assert EPS(10, (3, 3), (3,)) == EPS(10, (), (3,))


@given(
    pre=st.lists(st.integers(0, 2), max_size=40),
    per=st.lists(st.integers(0, 2), min_size=1, max_size=12),
    repeats=st.integers(0, 3),
)
def test_canonical_form_matches_the_rotating_oracle(pre, per, repeats):
    # The preperiod often ends in copies of the period, so long runs are absorbed.
    pre = tuple(pre) + tuple(per) * repeats
    s = EPS(10, pre, tuple(per))
    assert (s.preperiod, s.period) == rotating_canonical(pre, tuple(per))


def test_digit_at_is_one_based():
    s = EPS(10, (3, 1), (4, 5))
    assert [s.digit_at(i) for i in range(1, 7)] == [3, 1, 4, 5, 4, 5]
    with pytest.raises(DomainError):
        s.digit_at(0)


def test_prefix():
    assert EPS(2, (1, 1), (0,)).prefix(6) == "110000"
    assert EPS(2, (), (1, 0)).prefix(5) == "10101"


def test_parse_and_render():
    assert EPS.parse("10(01)", 2) == EPS(2, (1, 0), (0, 1))
    assert EPS.parse("(1)", 2) == EPS.constant(2, 1)
    assert EPS.parse(" (3) ", 10).render() == "(3)"
    # canonical form shows through render
    assert EPS(2, (1,), (1,)).render() == "(1)"


def test_constructor_and_parse_rejections():
    with pytest.raises(DomainError):
        EPS.parse("101", 2)  # no period marker
    with pytest.raises(DomainError):
        EPS.parse("1()", 2)  # empty period
    with pytest.raises(DomainError):
        EPS.parse("1(2)", 2)  # digit outside the radix
    with pytest.raises(BadRadix):
        EPS(3, (), (1,))
    with pytest.raises(DomainError):
        EPS(2, (), ())


def test_first_difference():
    ones = EPS(2, (), (1,))
    assert ones.first_difference(EPS(2, (1, 1, 1), (0,))) == 4
    assert ones.first_difference(EPS(2, (1,), (1,))) is None
    assert EPS(2, (), (1, 0)).first_difference(EPS(2, (), (0, 1))) == 1


digits = st.integers(min_value=0, max_value=1)


@given(
    pre_a=st.lists(digits, max_size=4),
    per_a=st.lists(digits, min_size=1, max_size=4),
    pre_b=st.lists(digits, max_size=4),
    per_b=st.lists(digits, min_size=1, max_size=4),
)
def test_equality_iff_same_digit_sequence(pre_a, per_a, pre_b, per_b):
    a = EPS(2, tuple(pre_a), tuple(per_a))
    b = EPS(2, tuple(pre_b), tuple(per_b))
    # preperiods <= 4 and periods <= 4, so agreement through 4 + lcm(1..4)
    # pins the whole sequence
    window = 4 + 12
    same = all(a.digit_at(i) == b.digit_at(i) for i in range(1, window + 1))
    assert (a == b) == same
    if same:
        assert hash(a) == hash(b)
        assert a.first_difference(b) is None
    else:
        fd = a.first_difference(b)
        assert fd is not None
        assert a.digit_at(fd) != b.digit_at(fd)
        assert all(a.digit_at(i) == b.digit_at(i) for i in range(1, fd))
