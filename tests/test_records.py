"""What callers observe of the ten record classes.

repr text, field-wise equality between instances of one class only, hashing,
frozen fields, keyword construction and defaults, copying, and FiniteSubset's
validation; none of that depends on how the classes are implemented.  One test
also checks that every record class declares its fields as __slots__.
"""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

from diagbench.chains import (
    ChainAST,
    ChainPattern,
    Connective,
    Terminal,
    TerminalKind,
    Verdict,
)
from diagbench.density import Classification, DensityEstimate, FractionGrid
from diagbench.diagonal import ArraySpec, DiagonalReport, Family
from diagbench.eps import EventuallyPeriodicString as EPS
from diagbench.errors import DomainError
from diagbench.subsets import CofiniteSubset, FiniteSubset

TERMINAL = (TerminalKind.CONTRADICTION, Connective.IFF, "R")
TERMINAL_REPR = (
    "Terminal(kind=<TerminalKind.CONTRADICTION: 'contradiction'>, "
    "connective=<Connective.IFF: '<=>'>, atom='R')"
)
CLASSIFICATION = ("converges", Fraction(1, 2), Fraction(1, 100))
CLASSIFICATION_REPR = (
    "Classification(kind='converges', limit=Fraction(1, 2), tolerance=Fraction(1, 100))"
)

# (class, positional field values, keyword names in field order, repr text)
CASES = [
    (Terminal, TERMINAL, ("kind", "connective", "atom"), TERMINAL_REPR),
    (
        ChainAST,
        ("P", ((Connective.IFF, "Q1"),), Terminal(*TERMINAL), {"k": 1}),
        ("target", "links", "terminal", "annotations"),
        "ChainAST(target='P', links=((<Connective.IFF: '<=>'>, 'Q1'),), "
        f"terminal={TERMINAL_REPR}, annotations={{'k': 1}})",
    ),
    (
        Verdict,
        (ChainPattern.VALID_31, 1, ("Q1",), (), True, "why"),
        ("pattern", "iff_prefix_len", "independent", "inconceivable", "valid", "rationale"),
        "Verdict(pattern=<ChainPattern.VALID_31: 'VALID_31'>, iff_prefix_len=1, "
        "independent=('Q1',), inconceivable=(), valid=True, rationale='why')",
    ),
    (Classification, CLASSIFICATION, ("kind", "limit", "tolerance"), CLASSIFICATION_REPR),
    (
        DensityEstimate,
        (("a", "b"), ((10, Fraction(1, 3)),), Classification(*CLASSIFICATION)),
        ("pair", "samples", "classification"),
        "DensityEstimate(pair=('a', 'b'), samples=((10, Fraction(1, 3)),), "
        f"classification={CLASSIFICATION_REPR})",
    ),
    (
        FractionGrid,
        (2, ((1, 1, True, True),), 0),
        ("n", "cells", "bold_count"),
        "FractionGrid(n=2, cells=((1, 1, True, True),), bold_count=0)",
    ),
    (
        ArraySpec,
        (None, Family.DECIMAL_29, 3, EPS.constant(10, 3), True, 10),
        ("rows", "kind", "seed", "antidiag_digits", "randomize_subdiagonal", "radix"),
        "ArraySpec(rows=None, kind=<Family.DECIMAL_29: 'decimal-29'>, seed=3, "
        "antidiag_digits=EventuallyPeriodicString(10, '(3)'), randomize_subdiagonal=True, "
        "radix=10)",
    ),
    (
        DiagonalReport,
        (EPS.constant(2, 1), Fraction(1, 2), 3, None, {1: 1}),
        ("antidiagonal", "cover", "scan_depth", "found_at", "first_difference"),
        "DiagonalReport(antidiagonal=EventuallyPeriodicString(2, '(1)'), "
        "cover=Fraction(1, 2), scan_depth=3, found_at=None, first_difference={1: 1})",
    ),
    (FiniteSubset, ((1, 2, 5),), ("elements",), "{1,2,5}"),
    (CofiniteSubset, (FiniteSubset((0, 3)),), ("missing",), "N\\{0,3}"),
]
IDS = [case[0].__name__ for case in CASES]
# ChainAST and DiagonalReport each hold a dict: neither can be hashed.
UNHASHABLE = (ChainAST, DiagonalReport)


@pytest.mark.parametrize("cls, values, names, text", CASES, ids=IDS)
def test_repr_text(cls, values, names, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, names, text", CASES, ids=IDS)
def test_equality_is_field_wise_within_one_class(cls, values, names, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a == copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a))

    class Other(cls):
        pass

    # Same field values, another class: never equal, in either order.
    for other in (Other(*values), tuple(values), values[0] if len(values) == 1 else None):
        assert a != other and other != a
        assert not a == other


@pytest.mark.parametrize("cls, values, names, text", CASES, ids=IDS)
def test_fields_differ_means_unequal(cls, values, names, text):
    a = cls(*values)
    for i, name in enumerate(names):
        if name == "elements":
            changed = (1, 2, 6)
        elif name == "missing":
            changed = FiniteSubset((0, 4))
        else:
            changed = ("changed",)
        b = cls(*values[:i], changed, *values[i + 1:])
        assert getattr(b, name) == changed
        assert a != b


@pytest.mark.parametrize("cls, values, names, text", CASES, ids=IDS)
def test_hash(cls, values, names, text):
    a, b = cls(*values), cls(*values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, values, names, text", CASES, ids=IDS)
def test_frozen_fields(cls, values, names, text):
    a = cls(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == value
    with pytest.raises(AttributeError):
        a.unknown_field = 1


@pytest.mark.parametrize("cls, values, names, text", CASES, ids=IDS)
def test_keyword_construction(cls, values, names, text):
    by_name = dict(zip(names, values))
    a = cls(**dict(reversed(by_name.items())))
    assert a == cls(*values)
    assert repr(a) == text
    for name, value in by_name.items():
        assert getattr(a, name) == value
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    with pytest.raises(TypeError):
        cls(**by_name, not_a_field=1)


def test_defaults():
    assert Terminal(TerminalKind.TARGET, Connective.IMPLIES).atom is None
    with pytest.raises(TypeError):
        Terminal(TerminalKind.TARGET)
    terminal = Terminal(*TERMINAL)
    x, y = (ChainAST("P", (), terminal) for _ in range(2))
    assert x.annotations == {} and x.annotations is not y.annotations
    x.annotations["k"] = 1
    assert y.annotations == {} and ChainAST("P", (), terminal).annotations == {}
    r, s = (DiagonalReport("01", Fraction(1), 1, None) for _ in range(2))
    assert r.first_difference == {} and r.first_difference is not s.first_difference
    assert repr(ArraySpec()) == (
        "ArraySpec(rows=None, kind=None, seed=0, antidiag_digits=None, "
        "randomize_subdiagonal=False, radix=2)"
    )
    assert FiniteSubset().elements == () and repr(FiniteSubset()) == "{}"
    with pytest.raises(TypeError):
        CofiniteSubset()
    for cls in (Verdict, Classification, DensityEstimate, FractionGrid):
        with pytest.raises(TypeError):
            cls()


def test_properties_and_classmethods():
    ast = ChainAST("P", ((Connective.IFF, "Q1"), (Connective.IMPLIES, "Q2")),
                   Terminal(*TERMINAL))
    assert ast.start == "~P" and ast.statements == ("Q1", "Q2")
    spec = ArraySpec.family(Family.ALT_24, seed=3)
    assert spec == ArraySpec(kind=Family.ALT_24, seed=3, radix=2)
    assert spec.is_family and spec.radix == 2
    # The radix is a field: equality, hash and repr include it.
    other = ArraySpec(kind=Family.ALT_24, seed=3, radix=10)
    assert spec != other and hash(spec) != hash(other)
    assert repr(spec).endswith(", radix=2)")
    explicit = ArraySpec.explicit(["01", "19"])
    assert explicit.rows == ("01", "19") and explicit.radix == 10
    assert explicit == ArraySpec(rows=("01", "19"), radix=10)
    assert not explicit.is_family


def test_every_record_class_has_slots_and_no_instance_dict():
    import diagbench
    import diagbench.record

    modules = [importlib.import_module(f"diagbench.{info.name}")
               for info in pkgutil.iter_modules(diagbench.__path__) if info.name != "__main__"]
    found = {cls for module in modules for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, diagbench.record.Record)}
    cases = CASES + [(EPS, (2, (), (1,)), ("radix", "preperiod", "period"), None)]
    assert found == {case[0] for case in cases} | {diagbench.record.Record}
    # Each class's slots hold exactly its fields, so no instance grows a __dict__.
    for cls, values, names, text in cases:
        assert "__slots__" in vars(cls) and cls.__slots__ == cls._fields == names
        assert not hasattr(cls(*values), "__dict__")


def test_finite_subset_validation():
    s = FiniteSubset([0, 3, 7])
    assert s.elements == (0, 3, 7) and type(s.elements) is tuple
    assert len(s) == 3 and list(s) == [0, 3, 7] and 3 in s and 4 not in s
    assert FiniteSubset(iter((1, 2))) == FiniteSubset((1, 2))
    assert FiniteSubset(elements=range(3)).elements == (0, 1, 2)
    for bad, message in [
        ((1, -1), "element -1 is not a natural number"),
        ((-1, 2), "element -1 is not a natural number"),
        ((2, 1, -1), "element -1 is not a natural number"),
        ((1, "a"), "element 'a' is not a natural number"),
        ((2.0,), "element 2.0 is not a natural number"),
        ((False, True), "element False is not a natural number"),
        ((True,), "element True is not a natural number"),
        ((2, 1), "elements must be strictly increasing"),
        ((1, 1), "elements must be strictly increasing"),
    ]:
        with pytest.raises(DomainError) as err:
            FiniteSubset(bad)
        assert str(err.value) == message
    c = CofiniteSubset(missing=FiniteSubset((0, 3)))
    assert 0 not in c and 1 in c and c.missing == FiniteSubset((0, 3))
