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
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .errors import ChainSemanticsError, ChainSyntaxError, DomainError


class Connective(Enum):
    IMPLIES = "=>"
    IFF = "<=>"


class TerminalKind(Enum):
    CONTRADICTION = "contradiction"  # R & ~R, or the CONTRA keyword
    TARGET = "target"  # the bare target atom
    TARGET_CONJ_NEG = "target-conj-neg"  # target & ~target


@dataclass(frozen=True)
class Terminal:
    kind: TerminalKind
    connective: Connective
    atom: str | None = None


@dataclass(frozen=True)
class ChainAST:
    target: str
    links: tuple  # of (Connective, statement name)
    terminal: Terminal
    annotations: dict = field(default_factory=dict)

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


@dataclass(frozen=True)
class Verdict:
    pattern: ChainPattern
    iff_prefix_len: int
    independent: tuple
    inconceivable: tuple
    valid: bool
    rationale: str


_TOKEN = re.compile(r"\s*(<=>|=>|~|&|[A-Za-z_][A-Za-z0-9_]*)")
_ATOM = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ChainSyntaxError(f"unexpected character {text[bad]!r}", bad + 1)
        tokens.append((m.group(1), m.start(1) + 1))
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.end_pos = length + 1
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx][0] if self.idx < len(self.tokens) else None

    def take(self, what="token"):
        if self.idx >= len(self.tokens):
            raise ChainSyntaxError(f"expected {what}, found end of chain", self.end_pos)
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def take_atom(self, what="statement name"):
        tok, pos = self.take(what)
        if not _ATOM.match(tok):
            raise ChainSyntaxError(f"expected {what}, found {tok!r}", pos)
        return tok, pos


def parse_chain(text: str) -> ChainAST:
    cur = _Cursor(_tokenize(text), len(text))

    tok, pos = cur.take("a negated assumption")
    negated = tok == "~"
    if negated:
        tok, pos = cur.take_atom("the assumption's atom")
    elif not _ATOM.match(tok):
        raise ChainSyntaxError(f"expected an assumption literal, found {tok!r}", pos)
    if tok == "CONTRA":
        raise ChainSyntaxError("CONTRA is reserved for the terminal", pos)
    # The negation requirement is checked after the walk so that structurally
    # broken input is still reported as a syntax error with a position.
    target = tok

    links = []
    seen = {target}
    while True:
        conn_tok, conn_pos = cur.take("=> or <=>")
        if conn_tok not in ("=>", "<=>"):
            raise ChainSyntaxError(f"expected => or <=>, found {conn_tok!r}", conn_pos)
        conn = Connective.IFF if conn_tok == "<=>" else Connective.IMPLIES

        tok, pos = cur.take_atom("a statement or terminal")
        if tok == "CONTRA":
            terminal = Terminal(TerminalKind.CONTRADICTION, conn)
            break
        nxt = cur.peek()
        if nxt in ("=>", "<=>"):
            if tok in seen:
                raise ChainSemanticsError(f"statement {tok} appears twice")
            seen.add(tok)
            links.append((conn, tok))
            continue
        if nxt == "&":
            cur.take()
            tilde, tpos = cur.take("~")
            if tilde != "~":
                raise ChainSyntaxError(f"expected ~, found {tilde!r}", tpos)
            other, _ = cur.take_atom("the negated half of the pair")
            if other != tok:
                raise ChainSemanticsError(
                    f"contradiction pair must negate its own statement, got {tok} & ~{other}"
                )
            kind = (
                TerminalKind.TARGET_CONJ_NEG
                if tok == target
                else TerminalKind.CONTRADICTION
            )
            terminal = Terminal(kind, conn, None if tok == target else tok)
            break
        if nxt is None:
            if tok != target:
                raise ChainSemanticsError(
                    f"chain ends at {tok}, which is neither the target nor a contradiction"
                )
            terminal = Terminal(TerminalKind.TARGET, conn)
            break
        raise ChainSyntaxError(
            f"expected => or <=> after {tok}, found {nxt!r}", cur.tokens[cur.idx][1]
        )

    leftover = cur.peek()
    if leftover is not None:
        raise ChainSyntaxError(
            f"unexpected {leftover!r} after the terminal", cur.tokens[cur.idx][1]
        )
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


def normalize(text: str) -> str:
    """Whitespace-canonical form of a chain, without parsing it."""
    joined = " ".join(tok for tok, _ in _tokenize(text))
    return joined.replace("~ ", "~")


def classify(ast: ChainAST) -> ChainPattern:
    links = list(ast.links)
    terminal = ast.terminal
    # A statement linked to the target by <=> is structurally the target, so
    # fold such terminals into the preceding link before matching.
    while (
        terminal.kind is TerminalKind.TARGET
        and terminal.connective is Connective.IFF
        and links
    ):
        conn, _ = links.pop()
        terminal = Terminal(TerminalKind.TARGET, conn)
    conns = [c for c, _ in links]
    even = terminal.kind is TerminalKind.TARGET
    if not conns:
        if terminal.connective is Connective.IFF:
            return ChainPattern.FLAWED_38 if even else ChainPattern.FLAWED_37
        return ChainPattern.VALID_34 if even else ChainPattern.VALID_31
    if all(c is Connective.IMPLIES for c in conns):
        return ChainPattern.VALID_34 if even else ChainPattern.VALID_31
    if all(c is Connective.IFF for c in conns):
        return ChainPattern.FLAWED_38 if even else ChainPattern.FLAWED_37
    k = 0
    while k < len(conns) and conns[k] is Connective.IFF:
        k += 1
    if k >= 1 and all(c is Connective.IMPLIES for c in conns[k:]):
        return ChainPattern.HALFWAY_310 if even else ChainPattern.HALFWAY_39
    return ChainPattern.OTHER


def entailment_closure(ast: ChainAST) -> dict:
    """Transitive reachability (paths of length >= 1) over the chain's edges."""
    neg = ast.start
    nodes = [neg, *ast.statements, ast.target]
    edges = {node: set() for node in nodes}
    prev = neg
    for conn, s in ast.links:
        edges[prev].add(s)
        if conn is Connective.IFF:
            edges[s].add(prev)
        prev = s
    term = ast.terminal
    if term.kind is TerminalKind.TARGET:
        edges[prev].add(ast.target)
        if term.connective is Connective.IFF:
            edges[ast.target].add(prev)
    elif term.kind is TerminalKind.TARGET_CONJ_NEG:
        edges[prev].add(ast.target)
        edges[prev].add(neg)
    # a plain contradiction terminal adds no edges: R and ~R are not chain nodes
    closure = {}
    for node in nodes:
        seen = set()
        queue = deque(edges[node])
        while queue:
            x = queue.popleft()
            if x in seen:
                continue
            seen.add(x)
            queue.extend(edges[x])
        closure[node] = frozenset(seen)
    return closure


def _inconceivable(ast: ChainAST, closure: dict) -> tuple:
    return tuple(
        s
        for s in ast.statements
        if ast.target in closure[s] and ast.start in closure[s]
    )


def detect_inconceivable(ast: ChainAST) -> list:
    """Statements that entail both the target and its negation."""
    return list(_inconceivable(ast, entailment_closure(ast)))


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
    closure = entailment_closure(ast)
    neg = ast.start
    prefix = 0
    for conn, _ in ast.links:
        if conn is not Connective.IFF:
            break
        prefix += 1
    independent = tuple(
        s
        for s in ast.statements
        if not (s in closure[neg] and neg in closure[s])
    )
    inconceivable = _inconceivable(ast, closure)
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
