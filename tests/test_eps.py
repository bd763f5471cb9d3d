import copy
import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagbench.eps import EventuallyPeriodicString as EPS
from diagbench.errors import BadRadix, DomainError

from helpers import lcm_first_difference, parse_literal, rotating_canonical, spelled_prefix


def test_period_reduced_to_primitive_root():
    assert EPS(2, (), (1, 0, 1, 0)) == EPS(2, (), (1, 0))
    assert EPS(10, (), (7, 7, 7)) == EPS(10, (), (7,))


def test_canonical_form_is_frozen_and_survives_copying():
    s = EPS(2, (1,), (1, 0, 1, 0))
    with pytest.raises(AttributeError):
        s.period = (0,)
    assert s.period == (1, 0) and repr(s) == "EventuallyPeriodicString(2, '1(10)')"
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and hash(twin) == hash(s) and twin.preperiod == (1,)
    assert s != (2, (1,), (1, 0))


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


def test_primitive_root_matches_the_linear_search():
    # rotating_canonical tries every length 1..n.  Lengths 1, primes, prime
    # powers and highly composite ones, each as a random period, as repeats of
    # a binary root for every proper divisor (a root may repeat itself), and
    # as those repeats with the last digit changed.
    rng = random.Random(1965)
    periods = []
    for n in (1, 2, 3, 7, 97, 1009, 4, 8, 27, 243, 1024, 12, 60, 360, 720, 5040):
        periods.append(tuple(rng.randrange(10) for _ in range(n)))
        for d in range(1, n):
            if n % d == 0:
                per = tuple(rng.randrange(2) for _ in range(d)) * (n // d)
                periods += [per, per[:-1] + (per[-1] + 2,)]
    for per in periods:
        pre = tuple(rng.randrange(10) for _ in range(rng.randrange(3))) + per[-2:]
        s = EPS(10, pre, per)
        assert (s.preperiod, s.period) == rotating_canonical(pre, per)


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


def test_digits_must_be_exact_ints():
    # bool and float digits used to pass the range check: (True,) rendered
    # as "True(0)" and its prefix(3) was "Tru".
    for pre, per, bad in (((True,), (0,), "True"), ((), (1, 1.0), "1.0"),
                          ((1, "1"), (0,), "'1'"), ((0, False, 2.5), (1,), "False")):
        with pytest.raises(DomainError, match=f"^digit {bad} is not an int$"):
            EPS(10, pre, per)
    with pytest.raises(DomainError, match="^digit 2 out of range for radix 2$"):
        EPS(2, (1, 2, True), (0,))  # the first bad digit is named
    with pytest.raises(DomainError, match="^digit -1 out of range for radix 10$"):
        EPS(10, (), (-1,))


@pytest.mark.parametrize("radix", [2, 10])
def test_a_long_literal_survives_parse_render_and_prefix(radix):
    rng = random.Random(10**5 + radix)
    pre = [rng.randrange(radix) for _ in range(70_000)]
    per = [rng.randrange(radix) for _ in range(30_000)]
    pre[-1] = (per[-1] + 1) % radix  # nothing to absorb: the literal is canonical
    text = "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")"
    s = EPS.parse(text, radix)
    assert (s.preperiod, s.period) == parse_literal(text)
    assert s.render() == text
    for length in (0, 1, 69_999, 70_000, 100_000, 160_001):
        assert s.prefix(length) == spelled_prefix(s.preperiod, s.period, length)


def _literal(pre, per):
    return "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")"


def test_parse_matches_the_constructor():
    # parse checks a literal whole and skips the constructor's digit loop; the
    # record must be the one the constructor builds, canonical form included.
    rng = random.Random(2024)
    cases = []
    for radix in (2, 10):
        for _ in range(400):
            per = [rng.randrange(radix) for _ in range(rng.randint(1, 6))] * rng.randint(1, 3)
            pre = [rng.randrange(radix) for _ in range(rng.randint(0, 12))]
            pre += (per * 2)[rng.randint(0, 2 * len(per)):]  # often absorbed into the period
            cases.append((radix, pre, per))
    p = [rng.randrange(10) for _ in range(64000)]
    cases += [(10, p, p), (2, [1] * 10, [0, 1] * 5), (10, [], [0]), (2, [0, 0], [1])]
    canonicalized = 0
    for radix, pre, per in cases:
        s = EPS.parse(_literal(pre, per), radix)
        want = EPS(radix, tuple(pre), tuple(per))
        assert s == want and hash(s) == hash(want) and repr(s) == repr(want)
        assert type(s) is EPS and type(s.preperiod) is tuple and type(s.period) is tuple
        assert set(map(type, s.preperiod + s.period)) == {int}
        canonicalized += (s.preperiod, s.period) != (tuple(pre), tuple(per))
    assert canonicalized > len(cases) // 2
    assert EPS.parse(_literal(p, p), 10).render() == "(" + "".join(map(str, p)) + ")"


@pytest.mark.parametrize("text, radix, error, message", [
    ("101", 2, DomainError, "not an eventually periodic literal: '101'"),
    ("1()", 2, DomainError, "not an eventually periodic literal: '1()'"),
    ("(\u0663)", 10, DomainError, "not an eventually periodic literal: '(\u0663)'"),
    ("1(2)", 2, DomainError, "digit 2 out of range for radix 2"),
    (" 0129(01) ", 2, DomainError, "digit 2 out of range for radix 2"),  # the first bad digit
    ("01(013)", 2, DomainError, "digit 3 out of range for radix 2"),
    ("3(1)", 2.0, DomainError, "digit 3 out of range for radix 2.0"),
    ("(1)", 3, BadRadix, "radix must be 2 or 10, got 3"),
    ("9(1)", 3, BadRadix, "radix must be 2 or 10, got 3"),
    ("1(0)", True, BadRadix, "radix must be 2 or 10, got True"),
    ("(1)", None, BadRadix, "radix must be 2 or 10, got None"),
])
def test_parse_keeps_the_constructor_errors(text, radix, error, message):
    with pytest.raises(error) as caught:
        EPS.parse(text, radix)
    assert type(caught.value) is error and str(caught.value) == message


def test_a_subclass_parses_through_its_own_constructor():
    calls = []

    class Logged(EPS):
        __slots__ = ()

        def __init__(self, radix, preperiod, period):
            calls.append((radix, preperiod, period))
            super().__init__(radix, preperiod, period)

    for radix in (2, 10):
        s = Logged.parse("0(10)", radix)
        assert type(s) is Logged and calls[-1] == (radix, (0,), (1, 0))
        assert s == Logged(radix, (), (0, 1)) and s.render() == "(01)"


def test_first_difference():
    ones = EPS(2, (), (1,))
    assert ones.first_difference(EPS(2, (1, 1, 1), (0,))) == 4
    assert ones.first_difference(EPS(2, (1,), (1,))) is None
    assert EPS(2, (), (1, 0)).first_difference(EPS(2, (), (0, 1))) == 1


def _extremal_word(p, q):
    """A word of length p + q - gcd(p, q) - 1 with periods p and q but not gcd.

    Positions i and i + p, and i and i + q, are joined; at this length exactly
    gcd + 1 classes remain (Fine and Wilf), and each gets its own digit.
    """
    n = p + q - math.gcd(p, q) - 1
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for i in range(n):
        for d in (p, q):
            if i + d < n:
                root[find(i + d)] = find(i)
    labels = {}
    return tuple(labels.setdefault(find(i), len(labels)) for i in range(n))


def test_first_difference_window_is_tight():
    # Two periodic sequences that agree on p + q - gcd - 1 digits and differ
    # at the next one: the shortest window that may be compared.
    for p in range(1, 25):
        for q in range(p + 1, 25):
            if q % p == 0 or math.gcd(p, q) > 9:
                continue
            word = _extremal_word(p, q)
            for pre in ((), (3, 1, 4)):
                a, b = EPS(10, pre, word[:p]), EPS(10, pre, word[:q])
                expected = len(pre) + p + q - math.gcd(p, q)
                assert a.first_difference(b) == b.first_difference(a) == expected
                assert lcm_first_difference(a, b) == expected
                assert a.first_difference(EPS(10, pre + word[:p], word[:p] * 2)) is None


def test_first_difference_matches_the_digit_loop():
    rng = random.Random(1965)
    for _ in range(5000):
        radix = rng.choice((2, 10))
        high = rng.choice((2, radix))  # binary-valued digits make near misses common

        def draw(lo, hi):
            return tuple(rng.randrange(high) for _ in range(rng.randint(lo, hi)))

        a = EPS(radix, draw(0, 6), draw(1, 9))
        b = EPS(radix, draw(0, 6), draw(1, 9))
        same = EPS(radix, a.preperiod + a.period, a.period * rng.randint(1, 3))
        assert a.first_difference(b) == lcm_first_difference(a, b)
        assert a.first_difference(same) is None


@pytest.mark.parametrize("radix", [2, 10])
def test_first_difference_over_a_window_of_100000_digits(radix):
    # A hit scan compares a long literal with the antidiagonal in one pass:
    # the first mismatch at 1, in the middle, at the window's last digit, and nowhere.
    n = 10**5
    rng = random.Random(n + radix)
    pre = [rng.randrange(radix) for _ in range(n - 1)]
    pre[-1] = 0  # not absorbed into a period of (1,): the window is n digits
    a = EPS(radix, pre, (1,))

    def flipped(i):
        return pre[:i] + [(pre[i] + 1) % radix] + pre[i + 1:]

    cases = ((EPS(radix, flipped(0), (1,)), 1),
             (EPS(radix, flipped(n // 2), (1,)), n // 2 + 1),
             (EPS(radix, pre, (0,)), n),  # the last 0 of pre joins the period
             (EPS(radix, pre + [1, 1], (1, 1)), None))
    for b, expected in cases:
        assert a.first_difference(b) == b.first_difference(a) == expected
        assert lcm_first_difference(a, b) == expected


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
