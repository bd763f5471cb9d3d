"""Inference-chain DSL: parse, classify, and judge contradiction arguments.

A chain starts from a negated assumption and walks through named statements
via `=>` (one-way) or `<=>` (two-way) links into a terminal: the bare target
atom, a contradiction pair `R & ~R`, or the literal keyword CONTRA.  Analysis
is purely structural; statement names are opaque.

    ~P <=> Q1 <=> Q2 => CONTRA

Classification looks only at the link connectives (a trailing `stmt <=> target`
terminal is first absorbed into the last link, since such a statement is
structurally identical to the target).  The entailment closure treats `=>` as
one directed edge and `<=>` as two.

Parsing is one grammar match; a line it rejects is walked token by token to
report the first error and its position.  A chain is a path, so a verdict
reads its statement sets from the leading run of `<=>` links (see _sets), and
the closure is one pass over contiguous slices of the chain (see _reach).
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import islice

from .errors import CapExceeded, ChainSemanticsError, ChainSyntaxError, DomainError
from .record import Record

# Statements per chain.  Parsing and the verdict are linear in chain length:
# `chains analyze --script` on one chain at the cap takes about 0.4 s and
# 69 MB as a CLI child on a 2-vCPU VM, within a budget of 5 s and 256 MB.
CHAIN_CAP = 10**5

# Tokens in a chain of CHAIN_CAP statements with the longest terminal,
# `R & ~R`; tokenizing stops past it, so an over-long line costs no more.
_TOKEN_CAP = 2 * CHAIN_CAP + 7
_TOO_LONG = f"chain longer than {CHAIN_CAP} statements"


class Connective(Enum):
    IMPLIES = "=>"
    IFF = "<=>"


class TerminalKind(Enum):
    CONTRADICTION = "contradiction"  # R & ~R, or the CONTRA keyword
    TARGET = "target"  # the bare target atom
    TARGET_CONJ_NEG = "target-conj-neg"  # target & ~target


class Terminal(Record):
    __slots__ = _fields = ("kind", "connective", "atom")

    # Chain records skip Record's field loop: `analyze --script` builds three per chain.
    def __init__(self, kind: TerminalKind, connective: Connective, atom: str | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "connective", connective)
        object.__setattr__(self, "atom", atom)


class ChainAST(Record):
    __slots__ = _fields = ("target", "links", "terminal", "annotations")

    def __init__(self, target: str, links: tuple, terminal: Terminal, annotations: dict = None):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "links", links)  # (Connective, statement name) pairs
        object.__setattr__(self, "terminal", terminal)
        object.__setattr__(self, "annotations", {} if annotations is None else annotations)

    @property
    def start(self) -> str:
        return "~" + self.target

    @property
    def statements(self) -> tuple:
        return tuple(s for _, s in self.links)


class ChainPattern(Enum):
    VALID_31 = "VALID_31"
    VALID_34 = "VALID_34"
    FLAWED_37 = "FLAWED_37"
    FLAWED_38 = "FLAWED_38"
    HALFWAY_39 = "HALFWAY_39"
    HALFWAY_310 = "HALFWAY_310"
    OTHER = "OTHER"


class Verdict(Record):
    __slots__ = _fields = ("pattern", "iff_prefix_len", "independent", "inconceivable",
                           "valid", "rationale")

    def __init__(self, pattern: ChainPattern, iff_prefix_len: int, independent: tuple,
                 inconceivable: tuple, valid: bool, rationale: str):
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "iff_prefix_len", iff_prefix_len)
        object.__setattr__(self, "independent", independent)
        object.__setattr__(self, "inconceivable", inconceivable)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "rationale", rationale)


# A token, or else the first character that starts none (group 2).
_TOKEN = re.compile(r"\s*(?:(<=>|=>|~|&|[A-Za-z_][A-Za-z0-9_]*)|(\S))")
_CONNECTIVES = {c.value: c for c in Connective}


def _expect(tokens, i, what, ok):
    """The text of tokens[i] if ok accepts it, else a syntax error there."""
    tok, pos = tokens[i]
    if tok is None or not ok(tok):
        found = "end of chain" if tok is None else repr(tok)
        raise ChainSyntaxError(f"expected {what}, found {found}", pos)
    return tok


# The whole grammar, `~ NAME (CONN NAME)+ (& ~ NAME)?`; group 2 holds the links
# and the terminal's connective and name.  Each name is matched whole (a lookahead
# capture, then its backreference), so no shorter prefix of it is ever retried.
_NAME = r"(?=([A-Za-z_][A-Za-z0-9_]*))\{}"
_CHAIN = re.compile(
    r"\s*~\s*" + _NAME.format(1) + r"((?:\s*<?=>\s*" + _NAME.format(3) + r")+)"
    r"(?:\s*&\s*~\s*" + _NAME.format(4) + r")?\s*"
)
_MARKS = {"<": Connective.IFF, ">": Connective.IMPLIES}


def _match(text: str):
    """The AST of a chain with no error, from one grammar match; else None."""
    # Each connective holds one "=>", and a chain has one more than it has links.
    m = text.count("=>") <= CHAIN_CAP + 1 and _CHAIN.fullmatch(text)
    if not m:
        return None
    target, body, _, other = m.groups()
    toks = body.replace("<=>", " < ").replace("=>", " > ").split()
    names, last = toks[1:-2:2], toks[-1]
    if len({target, "CONTRA", *names}) != len(names) + 2:
        return None  # a name repeated, or CONTRA before the terminal
    if other is not None and (other != last or last == "CONTRA"):
        return None  # a mismatched pair, or CONTRA & ~CONTRA
    if last == target:
        kind = TerminalKind.TARGET if other is None else TerminalKind.TARGET_CONJ_NEG
        other = None  # the terminal names no atom of its own
    elif other or last == "CONTRA":
        kind = TerminalKind.CONTRADICTION
    else:
        return None  # a dangling end
    # through a list, so that the kept tuple is allocated at its exact size
    links = tuple([*zip(map(_MARKS.__getitem__, toks[:-2:2]), names)])
    return ChainAST(target, links, Terminal(kind, _MARKS[toks[-2]], other))


def parse_chain(text: str) -> ChainAST:
    return _match(text) or _walk(text)


def _walk(text: str) -> ChainAST:
    """Parse token by token, raising the first error with its position."""
    tokens = []
    for m in islice(_TOKEN.finditer(text), _TOKEN_CAP + 1):
        tok, bad = m.group(1, 2)
        if bad:
            raise ChainSyntaxError(f"unexpected character {bad!r}", m.start(2) + 1)
        tokens.append((tok, m.start(1) + 1))
    if len(tokens) > _TOKEN_CAP:
        raise CapExceeded(_TOO_LONG)
    tokens.append((None, len(text) + 1))  # end of chain
    atom = str.isidentifier  # true of the tokenizer's names, false of its symbols

    tok = tokens[0][0]
    negated = tok == "~"
    if negated:
        tok = _expect(tokens, 1, "the assumption's atom", atom)
    else:
        what = "an assumption literal" if tok else "a negated assumption"
        _expect(tokens, 0, what, atom)
    i = 1 + negated  # the first connective
    if tok == "CONTRA":
        raise ChainSyntaxError("CONTRA is reserved for the terminal", tokens[i - 1][1])
    # The negation requirement is checked after the walk so that structurally
    # broken input is still reported as a syntax error with a position.
    target = tok

    links = []
    seen = {target}
    while True:
        conn = _CONNECTIVES[_expect(tokens, i, "=> or <=>", _CONNECTIVES.__contains__)]
        tok = _expect(tokens, i + 1, "a statement or terminal", atom)
        i += 2
        if tok == "CONTRA":
            terminal = Terminal(TerminalKind.CONTRADICTION, conn)
            break
        nxt = tokens[i][0]
        if nxt in _CONNECTIVES:
            if len(links) == CHAIN_CAP:
                raise CapExceeded(_TOO_LONG)
            if tok in seen:
                raise ChainSemanticsError(f"statement {tok} appears twice")
            seen.add(tok)
            links.append((conn, tok))
            continue
        if nxt is None:
            if tok != target:
                raise ChainSemanticsError(
                    f"chain ends at {tok}, which is neither the target nor a contradiction"
                )
            terminal = Terminal(TerminalKind.TARGET, conn)
            break
        # past a name, only the & of a pair remains
        _expect(tokens, i, f"=> or <=> after {tok}", "&".__eq__)
        _expect(tokens, i + 1, "~", "~".__eq__)
        other = _expect(tokens, i + 2, "the negated half of the pair", atom)
        i += 3
        if other != tok:
            raise ChainSemanticsError(
                f"contradiction pair must negate its own statement, got {tok} & ~{other}"
            )
        if tok == target:
            terminal = Terminal(TerminalKind.TARGET_CONJ_NEG, conn)
        else:
            terminal = Terminal(TerminalKind.CONTRADICTION, conn, tok)
        break

    leftover, pos = tokens[i]
    if leftover is not None:
        raise ChainSyntaxError(f"unexpected {leftover!r} after the terminal", pos)
    if not negated:
        raise ChainSemanticsError("the starting literal must negate the target")
    return ChainAST(target=target, links=tuple(links), terminal=terminal)


def render(ast: ChainAST) -> str:
    parts = ["~" + ast.target]
    for conn, s in ast.links:
        parts.append(conn.value)
        parts.append(s)
    parts.append(ast.terminal.connective.value)
    kind = ast.terminal.kind
    if kind is TerminalKind.TARGET:
        parts.append(ast.target)
    elif kind is TerminalKind.TARGET_CONJ_NEG:
        parts.append(f"{ast.target} & ~{ast.target}")
    elif ast.terminal.atom is None:
        parts.append("CONTRA")
    else:
        parts.append(f"{ast.terminal.atom} & ~{ast.terminal.atom}")
    return " ".join(parts)


def _iff_prefix(conns: list) -> int:
    """How many leading connectives are `<=>`."""
    return conns.index(Connective.IMPLIES) if Connective.IMPLIES in conns else len(conns)


def classify(ast: ChainAST) -> ChainPattern:
    conns = [c for c, _ in ast.links]
    last = ast.terminal.connective
    even = ast.terminal.kind is TerminalKind.TARGET
    # A statement linked to the target by <=> is structurally the target, so
    # fold such terminals into the preceding link before matching.
    while even and last is Connective.IFF and conns:
        last = conns.pop()
    conns = conns or [last]  # a linkless chain is judged by its one connective
    k = _iff_prefix(conns)
    if Connective.IFF in conns[k:]:
        return ChainPattern.OTHER
    if k == 0:
        return ChainPattern.VALID_34 if even else ChainPattern.VALID_31
    if k == len(conns):
        return ChainPattern.FLAWED_38 if even else ChainPattern.FLAWED_37
    return ChainPattern.HALFWAY_310 if even else ChainPattern.HALFWAY_39


def _reach(ast: ChainAST) -> list:
    """Each node's closure as a slice (lo, hi) of [start, *statements, target].

    Every node reaches each later node up to the forward end.  Node j has a
    back edge to j - 1 when link j (or a `<=> target` terminal) is `<=>`; a
    run of them from j stops at low, which never decreases along the chain.
    A node without a back edge steps forward first, so its slice starts at
    the low of j + 1: j itself if j + 1 steps back, else j + 1.
    """
    n = len(ast.links)
    term = ast.terminal
    if term.kind is TerminalKind.TARGET_CONJ_NEG:
        # the last statement steps back to the start, so every node before
        # the target reaches every node, and the target reaches none
        return [(0, n + 2)] * (n + 1) + [(n + 1, n + 1)]
    target = term.kind is TerminalKind.TARGET
    back = [False, *(c is Connective.IFF for c, _ in ast.links)]
    back.append(target and term.connective is Connective.IFF)
    end = n + 2 if target else n + 1  # a plain contradiction adds no edges
    spans = []
    low = 0
    for j in range(n + 2):
        if back[j]:
            spans.append((low, end))
            continue
        low = j
        if j + 1 < end:
            spans.append((j if back[j + 1] else j + 1, end))
        else:
            spans.append((j, j))
    return spans


def entailment_closure(ast: ChainAST) -> dict:
    """Transitive reachability (paths of length >= 1) over the chain's edges.

    The output holds one frozenset per node, so it is quadratic in chain
    length; verdict and detect_inconceivable never build it (see _sets).
    """
    nodes = [ast.start, *ast.statements, ast.target]
    return {node: frozenset(nodes[lo:hi]) for node, (lo, hi) in zip(nodes, _reach(ast))}


def _sets(ast: ChainAST) -> tuple:
    """(iff prefix k, independent, inconceivable).  Only the first k statements
    reach back to the start, and all reach a bare target; a `target & ~target`
    terminal links the last statement to the start, tying every one to both."""
    k = _iff_prefix([c for c, _ in ast.links])
    statements, kind = ast.statements, ast.terminal.kind
    if kind is TerminalKind.TARGET_CONJ_NEG:
        return k, (), statements
    return k, statements[k:], statements[:k] if kind is TerminalKind.TARGET else ()


def detect_inconceivable(ast: ChainAST) -> list:
    """Statements that entail both the target and its negation."""
    return list(_sets(ast)[2])


def _rationale(pattern, independent, inconceivable):
    name = pattern.value
    if pattern in (ChainPattern.VALID_31, ChainPattern.VALID_34):
        return (
            f"{name}: every link is a one-way implication, so the assumption is "
            "refuted without forcing any statement to be equivalent to it"
        )
    if pattern in (ChainPattern.FLAWED_37, ChainPattern.FLAWED_38):
        listed = ", ".join(inconceivable) if inconceivable else "none"
        return (
            f"{name}: every load-bearing link is biconditional, so each statement "
            f"entails both the target and its negation (inconceivable: {listed})"
        )
    if pattern in (ChainPattern.HALFWAY_39, ChainPattern.HALFWAY_310):
        listed = ", ".join(independent) if independent else "none"
        if independent:
            return (
                f"{name}: one-way links follow the biconditional prefix, leaving "
                f"statements not tied to the assumption ({listed}); that suffices"
            )
        return f"{name}: no statement is independent of the assumption"
    return f"{name}: the connective sequence matches no recognized template"


def verdict(ast: ChainAST) -> Verdict:
    pattern = classify(ast)
    prefix, independent, inconceivable = _sets(ast)
    halfway = pattern in (ChainPattern.HALFWAY_39, ChainPattern.HALFWAY_310)
    valid = pattern in (ChainPattern.VALID_31, ChainPattern.VALID_34) or (
        halfway and bool(independent)
    )
    return Verdict(
        pattern=pattern,
        iff_prefix_len=prefix,
        independent=independent,
        inconceivable=inconceivable,
        valid=valid,
        rationale=_rationale(pattern, independent, inconceivable),
    )


CDA_TEXT = "~P <=> Q1 <=> Q2 <=> Q3 => Q4 <=> P"

# Own-words glosses of the classical diagonal argument's steps.
_CDA_NOTES = {
    "P": "the set of all infinite binary strings is uncountable",
    "~P": "assume instead that the set is countable",
    "Q1": "the strings can be laid out as a sequential list",
    "Q2": "the list forms a square digit array, one string per position",
    "Q3": "flipping the array's diagonal yields a string differing from every listed string",
    "Q4": "the list fails to contain every string",
}

PRESET_TEXTS = {
    "cda": CDA_TEXT,
    "valid-contra": "~P => Q1 => Q2 => CONTRA",
    "valid-target": "~P => Q1 => Q2 => P",
    "biconditional-contra": "~P <=> Q1 <=> Q2 => CONTRA",
    "biconditional-target": "~P <=> Q1 <=> Q2 => P",
    "halfway-contra": "~P <=> Q1 => Q2 => CONTRA",
    "halfway-target": "~P <=> Q1 => Q2 => P",
}


def cda_preset() -> ChainAST:
    ast = parse_chain(CDA_TEXT)
    return ChainAST(ast.target, ast.links, ast.terminal, dict(_CDA_NOTES))


def preset(name: str) -> ChainAST:
    if name == "cda":
        return cda_preset()
    if name not in PRESET_TEXTS:
        known = ", ".join(sorted(PRESET_TEXTS))
        raise DomainError(f"unknown preset {name!r} (known: {known})")
    return parse_chain(PRESET_TEXTS[name])
