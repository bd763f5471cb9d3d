import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagbench import chains
from diagbench.chains import (
    CDA_TEXT,
    CHAIN_CAP,
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
    parse_chain,
    preset,
    render,
    verdict,
)
from diagbench.cli import main
from diagbench.errors import CapExceeded, ChainSemanticsError, ChainSyntaxError, DomainError

from helpers import (
    bfs_closure,
    bfs_reach,
    chain_edges,
    normalize_chain,
    random_chain_text,
    reachable_by_paths,
    shaped_chain_text,
)


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
        # Every space of the canonical text dropped, kept or widened at random.
        text = re.sub(" ", lambda _: rng.choice(("", " ", " \t ")), random_chain_text(rng))
        assert render(parse_chain(text)) == normalize_chain(text)
    assert render(parse_chain("  ~P   =>Q1 <=>  P  ")) == "~P => Q1 <=> P"
    assert normalize_chain("~P=>Q1=>CONTRA") == "~P => Q1 => CONTRA"


def _long_chain(conns, terminal):
    parts = ["~P"]
    for i, conn in enumerate(conns[:-1], start=1):
        parts += [conn, f"Q{i}"]
    return " ".join([*parts, conns[-1], terminal])


def test_a_chain_over_the_cap_starts_no_verdict(monkeypatch, capsys):
    def refuse(ast):
        raise AssertionError("verdict started on an over-cap chain")

    monkeypatch.setattr(chains, "verdict", refuse)
    text = _long_chain(["=>"] * (CHAIN_CAP + 2), "CONTRA")
    with pytest.raises(CapExceeded):
        parse_chain(text)
    assert main(["chains", "analyze", "--expr", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: CapExceeded: ")
    assert captured.err.count("\n") == 1


def test_a_chain_at_the_cap_parses_and_tokenizing_stops_past_it():
    text = _long_chain(["=>"] * (CHAIN_CAP + 1), "R & ~R")  # the most tokens
    assert len(parse_chain(text).links) == CHAIN_CAP
    with pytest.raises(CapExceeded):  # trailing junk past the token bound
        parse_chain(text + " x" * 8)
    with pytest.raises(ChainSyntaxError):  # the same junk within it
        parse_chain("~P => Q1 => CONTRA" + " x" * 8)


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
        edges = chain_edges(ast)
        closure = entailment_closure(ast)
        for node in edges:
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


def _oracle_verdict(ast):
    """(independent, inconceivable) from the breadth-first closure."""
    closure = bfs_closure(ast)
    neg, target = ast.start, ast.target
    independent = tuple(
        s for s in ast.statements if not (s in closure[neg] and neg in closure[s])
    )
    inconceivable = tuple(
        s for s in ast.statements if target in closure[s] and neg in closure[s]
    )
    return closure, independent, inconceivable


@pytest.mark.parametrize(
    "make, count",
    [(lambda rng: random_chain_text(rng, 12), 20000), (shaped_chain_text, 3000)],
    ids=["mixed", "shaped"],
)
def test_reach_pass_matches_the_bfs_oracle(make, count):
    rng = random.Random(20261018)
    for _ in range(count):
        ast = parse_chain(make(rng))
        closure, independent, inconceivable = _oracle_verdict(ast)
        assert entailment_closure(ast) == closure
        assert detect_inconceivable(ast) == list(inconceivable)
        v = verdict(ast)
        assert (v.independent, v.inconceivable) == (independent, inconceivable)


@pytest.mark.parametrize("seed, terminal", [(1, ("<=>", "P")), (2, ("=>", "R & ~R"))])
def test_verdict_near_the_cap_matches_a_sampled_bfs(seed, terminal):
    # A search from one node is linear, where the path walk recurses once per
    # node, so only a sample of nodes is checked.
    rng = random.Random(seed)
    conns = ["<=>"] * 3000
    while len(conns) < CHAIN_CAP - 1:  # runs of each connective, long and short
        conns += [rng.choice(["=>", "<=>"])] * rng.choice([1, 2, 7, 500, 5000])
    conn, end = terminal
    ast = parse_chain(_long_chain([*conns[: CHAIN_CAP - 1], conn], end))
    v = verdict(ast)
    assert detect_inconceivable(ast) == list(v.inconceivable)
    independent, inconceivable = set(v.independent), set(v.inconceivable)
    edges = chain_edges(ast)
    stmts = ast.statements
    start_reach = bfs_reach(edges, ast.start)
    for i in [0, 2999, 3000, len(stmts) - 1, *rng.sample(range(len(stmts)), 12)]:
        s = stmts[i]
        reach = bfs_reach(edges, s)
        assert (s in independent) == (not (s in start_reach and ast.start in reach))
        assert (s in inconceivable) == (ast.start in reach and ast.target in reach)


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


# --- parse outcomes, pinned ------------------------------------------------

# Digest of every parse outcome below, recorded before the parser was last
# rewritten; change it only with a deliberate change to the grammar or to an
# error's class, message or position.
PARSE_GOLDEN_SHA256 = "2cad7f0a46be9bdb38613f9817477f023787f08786eabfce0c577068037bf81d"

_SOUP_TOKENS = (
    "~", "~", "=>", "=>", "<=>", "<=>", "&", "P", "P", "Q1", "Q2", "R", "CONTRA",
    "x_9", "!", "=", "9",
)
_SPACES = ("", " ", " ", "  ", "\t")


def _soup(rng):
    """A random token sequence, joined with random spacing."""
    toks = [rng.choice(_SOUP_TOKENS) for _ in range(rng.randint(0, 12))]
    return "".join(rng.choice(_SPACES) + t for t in toks) + rng.choice(_SPACES)


def _mutant(rng, text):
    """A grammar-valid chain with one token inserted, dropped or replaced."""
    toks = text.split(" ")
    i = rng.randrange(len(toks) + 1)
    op = rng.randrange(3)
    if op and i < len(toks):
        del toks[i]
    if op != 1:
        toks.insert(i, rng.choice(_SOUP_TOKENS))
    return rng.choice(_SPACES).join(toks)


def _outcome(text):
    """The AST's fields, or the error's class, message and position."""
    try:
        ast = parse_chain(text)
    except (ChainSyntaxError, ChainSemanticsError, CapExceeded) as e:
        return f"{type(e).__name__}|{e}|{getattr(e, 'position', None)}"
    t = ast.terminal
    links = [(c.value, s) for c, s in ast.links]
    return f"{ast.target}|{links}|{t.kind.value}|{t.connective.value}|{t.atom}"


def test_parse_outcomes_match_the_golden_digest(monkeypatch):
    rng = random.Random(20261019)
    texts = [_soup(rng) for _ in range(24000)]
    texts += [random_chain_text(rng, 12) for _ in range(4000)]
    texts += [shaped_chain_text(rng) for _ in range(2000)]
    texts += [_mutant(rng, random_chain_text(rng, 6)) for _ in range(10000)]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(f"{text}\0{_outcome(text)}\0".encode())
    # a low cap, to pin where the length check falls among the others
    monkeypatch.setattr(chains, "CHAIN_CAP", 3)
    for text in texts[24000:]:
        digest.update(f"{text}\0{_outcome(text)}\0".encode())
    assert digest.hexdigest() == PARSE_GOLDEN_SHA256
