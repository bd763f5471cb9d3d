import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagbench.chains import (
    CDA_TEXT,
    PRESET_TEXTS,
    ChainAST,
    ChainPattern,
    Connective,
    Terminal,
    TerminalKind,
    classify,
    cda_preset,
    detect_inconceivable,
    entailment_closure,
    normalize,
    parse_chain,
    preset,
    render,
    verdict,
)
from diagbench.errors import ChainSemanticsError, ChainSyntaxError, DomainError

from helpers import random_chain_text, reachable_by_paths


# --- parsing -------------------------------------------------------------


def test_parse_the_diagonal_chain():
    ast = parse_chain(CDA_TEXT)
    assert ast.target == "P"
    assert ast.start == "~P"
    assert ast.statements == ("Q1", "Q2", "Q3", "Q4")
    assert ast.links == (
        (Connective.IFF, "Q1"),
        (Connective.IFF, "Q2"),
        (Connective.IFF, "Q3"),
        (Connective.IMPLIES, "Q4"),
    )
    assert ast.terminal == Terminal(TerminalKind.TARGET, Connective.IFF)


def test_parse_terminal_forms():
    assert parse_chain("~P => CONTRA").terminal == Terminal(
        TerminalKind.CONTRADICTION, Connective.IMPLIES
    )
    assert parse_chain("~P => Q1 => R & ~R").terminal == Terminal(
        TerminalKind.CONTRADICTION, Connective.IMPLIES, "R"
    )
    assert parse_chain("~P => Q1 => P & ~P").terminal == Terminal(
        TerminalKind.TARGET_CONJ_NEG, Connective.IMPLIES
    )
    assert parse_chain("~P=>Q1<=>P").links == ((Connective.IMPLIES, "Q1"),)


def test_syntax_error_positions():
    with pytest.raises(ChainSyntaxError) as e:
        parse_chain("garbage")
    assert e.value.position == 8
    assert "position 8" in str(e.value)

    with pytest.raises(ChainSyntaxError) as e:
        parse_chain("~P => Q1 => P!")
    assert e.value.position == 14

    with pytest.raises(ChainSyntaxError) as e:
        parse_chain("~P")
    assert e.value.position == 3

    with pytest.raises(ChainSyntaxError) as e:
        parse_chain("~P =>")
    assert e.value.position == 6

    with pytest.raises(ChainSyntaxError) as e:
        parse_chain("CONTRA => P")
    assert e.value.position == 1

    with pytest.raises(ChainSyntaxError) as e:
        parse_chain("~P => CONTRA => Q1")
    assert e.value.position == 14

    with pytest.raises(ChainSyntaxError) as e:
        parse_chain("~P ~ Q1 => CONTRA")
    assert e.value.position == 4


def test_semantic_errors():
    with pytest.raises(ChainSemanticsError):
        parse_chain("P => Q1 => P")  # assumption not negated
    with pytest.raises(ChainSemanticsError):
        parse_chain("~P => Q1 => Q1 => CONTRA")  # duplicate statement
    with pytest.raises(ChainSemanticsError):
        parse_chain("~P => P => Q1 => CONTRA")  # target reused mid-chain
    with pytest.raises(ChainSemanticsError):
        parse_chain("~P => Q1 => R & ~S")  # mismatched pair
    with pytest.raises(ChainSemanticsError):
        parse_chain("~P => Q1 => Q2")  # dangling end


def test_render_and_normalize_round_trip():
    rng = random.Random(20260818)
    for _ in range(200):
        text = random_chain_text(rng)
        assert render(parse_chain(text)) == normalize(text)
    assert render(parse_chain("  ~P   =>Q1 <=>  P  ")) == "~P => Q1 <=> P"
    assert normalize("~P=>Q1=>CONTRA") == "~P => Q1 => CONTRA"


# --- classification -------------------------------------------------------


PRESET_PATTERNS = {
    "cda": ChainPattern.FLAWED_38,
    "valid-contra": ChainPattern.VALID_31,
    "valid-target": ChainPattern.VALID_34,
    "biconditional-contra": ChainPattern.FLAWED_37,
    "biconditional-target": ChainPattern.FLAWED_38,
    "halfway-contra": ChainPattern.HALFWAY_39,
    "halfway-target": ChainPattern.HALFWAY_310,
}


def test_preset_patterns():
    assert set(PRESET_PATTERNS) == set(PRESET_TEXTS)
    for name, expected in PRESET_PATTERNS.items():
        assert classify(preset(name)) is expected


def test_terminal_equivalence_folds_into_the_last_link():
    assert classify(parse_chain("~P => Q1 <=> P")) is ChainPattern.VALID_34
    assert classify(parse_chain("~P <=> Q1 <=> P")) is ChainPattern.FLAWED_38
    assert classify(parse_chain("~P <=> Q1 => Q2 <=> P")) is ChainPattern.FLAWED_38
    assert classify(parse_chain("~P <=> Q1 <=> Q2 <=> P")) is ChainPattern.FLAWED_38


def test_linkless_chains():
    assert classify(parse_chain("~P => CONTRA")) is ChainPattern.VALID_31
    assert classify(parse_chain("~P => P")) is ChainPattern.VALID_34
    assert classify(parse_chain("~P <=> CONTRA")) is ChainPattern.FLAWED_37
    assert classify(parse_chain("~P <=> P")) is ChainPattern.FLAWED_38


def test_unrecognized_connective_order():
    assert classify(parse_chain("~P => Q1 <=> Q2 => CONTRA")) is ChainPattern.OTHER
    assert classify(parse_chain("~P <=> Q1 => Q2 <=> Q3 => CONTRA")) is ChainPattern.OTHER


# --- entailment closure ----------------------------------------------------


def test_closure_of_a_one_way_chain():
    closure = entailment_closure(parse_chain("~P => Q1 => Q2 => CONTRA"))
    assert closure["~P"] == {"Q1", "Q2"}
    assert closure["Q1"] == {"Q2"}
    assert closure["Q2"] == set()
    assert closure["P"] == set()


def test_closure_of_the_diagonal_chain():
    closure = entailment_closure(parse_chain(CDA_TEXT))
    assert closure["Q1"] == {"~P", "Q1", "Q2", "Q3", "Q4", "P"}
    assert closure["Q4"] == {"Q4", "P"}
    assert closure["P"] == {"Q4", "P"}


def test_closure_with_a_target_pair_terminal():
    closure = entailment_closure(parse_chain("~P => Q1 => P & ~P"))
    assert closure["Q1"] == {"P", "~P", "Q1"}
    assert closure["~P"] == {"Q1", "P", "~P"}
    assert closure["P"] == set()


def test_inconceivable_statements():
    assert detect_inconceivable(parse_chain(CDA_TEXT)) == ["Q1", "Q2", "Q3"]
    assert detect_inconceivable(preset("biconditional-target")) == ["Q1", "Q2"]
    assert detect_inconceivable(preset("valid-contra")) == []
    assert detect_inconceivable(preset("halfway-contra")) == []
    assert detect_inconceivable(parse_chain("~P => Q1 => P & ~P")) == ["Q1"]


def test_closure_matches_a_path_walk_on_random_chains():
    rng = random.Random(7)
    for _ in range(200):
        ast = parse_chain(random_chain_text(rng))
        # rebuild the edge relation exactly as documented
        nodes = [ast.start, *ast.statements, ast.target]
        edges = {node: set() for node in nodes}
        prev = ast.start
        for conn, s in ast.links:
            edges[prev].add(s)
            if conn is Connective.IFF:
                edges[s].add(prev)
            prev = s
        if ast.terminal.kind is TerminalKind.TARGET:
            edges[prev].add(ast.target)
            if ast.terminal.connective is Connective.IFF:
                edges[ast.target].add(prev)
        elif ast.terminal.kind is TerminalKind.TARGET_CONJ_NEG:
            edges[prev].add(ast.target)
            edges[prev].add(ast.start)
        closure = entailment_closure(ast)
        for node in nodes:
            assert closure[node] == reachable_by_paths(edges, node)
        expected = [
            s
            for s in ast.statements
            if ast.target in closure[s] and ast.start in closure[s]
        ]
        assert detect_inconceivable(ast) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from(["=>", "<=>"]), min_size=1, max_size=12),
    st.sampled_from(["CONTRA", "P", "R & ~R", "P & ~P"]),
)
def test_detect_inconceivable_agrees_with_the_verdict(connectives, terminal):
    parts = ["~P"]
    for i, conn in enumerate(connectives[:-1], start=1):
        parts += [conn, f"Q{i}"]
    ast = parse_chain(" ".join([*parts, connectives[-1], terminal]))
    assert detect_inconceivable(ast) == list(verdict(ast).inconceivable)


def test_strengthening_links_never_shrinks_the_inconceivable_set():
    rng = random.Random(31)
    for _ in range(100):
        text = random_chain_text(rng)
        before = set(detect_inconceivable(parse_chain(text)))
        tokens = text.split(" ")
        spots = [i for i, t in enumerate(tokens) if t == "=>"]
        if not spots:
            continue
        i = rng.choice(spots)
        tokens[i] = "<=>"
        after = set(detect_inconceivable(parse_chain(" ".join(tokens))))
        assert before <= after


# --- verdicts ---------------------------------------------------------------


def test_diagonal_chain_verdict():
    v = verdict(cda_preset())
    assert v.pattern is ChainPattern.FLAWED_38
    assert v.iff_prefix_len == 3
    assert v.independent == ("Q4",)
    assert v.inconceivable == ("Q1", "Q2", "Q3")
    assert not v.valid
    assert "FLAWED_38" in v.rationale


def test_halfway_chain_verdict():
    v = verdict(parse_chain("~P <=> Q1 <=> Q2 => Q3 => CONTRA"))
    assert v.pattern is ChainPattern.HALFWAY_39
    assert v.iff_prefix_len == 2
    assert v.independent == ("Q3",)
    assert v.inconceivable == ()
    assert v.valid
    assert "Q3" in v.rationale


def test_valid_chain_verdicts():
    for name in ("valid-contra", "valid-target"):
        v = verdict(preset(name))
        assert v.valid
        assert v.iff_prefix_len == 0
        assert v.inconceivable == ()
        assert v.independent == ("Q1", "Q2")


def test_prefix_counts_the_original_links():
    v = verdict(parse_chain("~P <=> Q1 => Q2 <=> P"))
    assert v.pattern is ChainPattern.FLAWED_38
    assert v.iff_prefix_len == 1


def test_preset_lookup():
    ast = cda_preset()
    assert ast.annotations
    assert set(ast.annotations) == {"P", "~P", "Q1", "Q2", "Q3", "Q4"}
    assert not preset("valid-contra").annotations
    with pytest.raises(DomainError):
        preset("classic")
