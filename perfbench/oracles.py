"""Independent oracles for the benchmark's correctness checks.

Nothing here imports diagbench.  Each function restates one published rule
(a family's digits, a summatory totient, the colex order, a chain's verdict)
in the most direct form that is still fast enough at benchmark sizes, so a
result that agrees with it was not merely copied from the program.
"""

from __future__ import annotations

import math
from fractions import Fraction

# OEIS A064018: sum of phi(k) for k <= 10^e.
A064018 = {
    10**4: 30397486,
    10**5: 3039650754,
    10**6: 303963552392,
    10**7: 30396356427242,
}


# ------------------------------------------------------------------ density

class TotientSums:
    """Phi(n) = sum of phi(k) for k <= n, from Phi(n) = n(n+1)/2 - sum_{d>=2} Phi(n // d).

    The memo is shared across calls, so a schedule of nearby bounds costs
    little more than its largest bound.
    """

    def __init__(self):
        self._memo = {0: 0, 1: 1}

    def __call__(self, n: int) -> int:
        memo = self._memo
        if n in memo:
            return memo[n]
        total = n * (n + 1) // 2
        d = 2
        while d <= n:
            q = n // d
            last = n // q
            total -= (last - d + 1) * self(q)
            d = last + 1
        memo[n] = total
        return total

    def self_check(self):
        """Raise if the recursion disagrees with the published A064018 values."""
        for n, want in A064018.items():
            if self(n) != want:
                raise AssertionError(f"totient sum oracle gives {self(n)} at {n}, want {want}")


def count_formula(name: str, n: int, phi_sum) -> Fraction:
    """Closed-form member counts by step n (the density module's seven formulas)."""
    if name == "nat":
        return Fraction(n)
    if name == "even":
        return Fraction(n, 2)
    if name == "int":
        return Fraction(2 * n + 1)
    if name == "rat-paper":
        return 2 * n * Fraction((n * n - n) // 2) * Fraction(63, 100) + 1
    if name == "rat-exact":
        distinct = phi_sum(n) - 1 if n >= 2 else 0
        return Fraction(2 * n * distinct + 1)
    if name == "real":
        return Fraction(n * 2 ** (n + 1))
    if name == "complex":
        return Fraction(n * n * 2 ** (2 * n + 2))
    raise ValueError(name)


def frac_text(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def decimal6(x: Fraction) -> str:
    """Six fixed decimal places, ties to even."""
    scaled = round(Fraction(x) * 10**6)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(7, "0")
    return f"{sign}{digits[:-6]}.{digits[-6:]}"


def trend(values) -> dict:
    """Verdict on a ratio sequence: tends to zero, converges within 1/100, or neither."""
    tol = Fraction(1, 100)
    floor = Fraction(1, 10**6)
    if all(x > y for x, y in zip(values, values[1:])) and values[-1] < floor:
        return {"kind": "tends-to-zero", "limit": "0/1", "tolerance": frac_text(floor)}
    centre = Fraction(round(values[-1] * 100), 100)
    tail = values[-3:]
    if all(abs(v - centre) <= tol for v in tail) and max(tail) - min(tail) <= tol:
        return {"kind": "converges", "limit": frac_text(centre), "tolerance": frac_text(tol)}
    return {"kind": "inconclusive", "limit": None, "tolerance": None}


def rho_payload(a: str, b: str, schedule, phi_sum) -> dict:
    values = [count_formula(a, n, phi_sum) / count_formula(b, n, phi_sum) for n in schedule]
    return {
        "pair": [a, b],
        "samples": [
            {"n": n, "rho": frac_text(v), "decimal": decimal6(v)}
            for n, v in zip(schedule, values)
        ],
        "classification": trend(values),
    }


def lowest_terms_share(n: int, phi_sum) -> Fraction:
    """Lowest-terms fractions a/b with 1 <= a < b <= n, over all such pairs."""
    return Fraction(phi_sum(n) - 1, n * (n - 1) // 2)


def euclid(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def grid_cells(n: int):
    """(a, b, a <= b, gcd == 1) for b = 1..n, then a = 1..n."""
    return [(a, b, a <= b, euclid(a, b) == 1) for b in range(1, n + 1) for a in range(1, n + 1)]


# ------------------------------------------------------------------ subsets

def colex_successor(c: list) -> None:
    """Step an increasing list to the next subset of its size in colex order."""
    i = 0
    while i + 1 < len(c) and c[i] + 1 == c[i + 1]:
        i += 1
    c[i] += 1
    c[:i] = range(i)


def dovetail(count: int) -> list:
    """Stage t lists the rank-(t - p) p-subset for p = 1..t, after the empty set.

    Each cardinality's subset advances by one colex step per stage, so no
    rank is ever inverted.
    """
    out = [()] if count else []
    current = {}
    t = 1
    while len(out) < count:
        for p in range(1, t + 1):
            if p == t:
                current[p] = list(range(p))
            else:
                colex_successor(current[p])
            out.append(tuple(current[p]))
            if len(out) == count:
                break
        t += 1
    return out


def pascal_row(n: int) -> list:
    row = [1]
    for _ in range(n):
        row = [x + y for x, y in zip([0] + row, row + [0])]
    return row


def binomial_ratio(n: int, d: int) -> Fraction:
    """C(n, n/2 + d + 1) / C(n, n/2 + d), from the coefficients themselves."""
    return Fraction(math.comb(n, n // 2 + d + 1), math.comb(n, n // 2 + d))


def table1_offsets(n: int):
    """(label, d) for the 24 rows of Table 1 at an n divisible by 2520."""
    rows = [(str(k), k) for k in range(8)]
    rows += [(f"n/{m}", n // m) for m in range(10, 2, -1)]
    rows += [(f"n/2-{k}", n // 2 - k) for k in range(8, 0, -1)]
    return rows


def colex_rank(elements) -> int:
    return sum(math.comb(c, i) for i, c in enumerate(elements, start=1))


# ----------------------------------------------------------------- diagonal

BINARY_FAMILIES = ("lower-tri-22", "upper-tri-23", "alt-24", "alt-25", "random-below-26")


class FamilyModel:
    """Digits of a rule family, written out from the family definitions.

    String n agrees with the antidiagonal on 1..n-1, holds the diagonal digit
    at n, and continues with a constant or random tail.
    """

    def __init__(self, family: str, stream=None, random_tail=False):
        self.family = family
        self.stream = stream  # (preperiod, period) digit tuples for decimal-29
        self.random_tail = random_tail or family == "random-below-26"
        self.radix = 10 if family == "decimal-29" else 2

    def anti(self, j: int) -> int:
        f = self.family
        if f in ("lower-tri-22", "random-below-26"):
            return 1
        if f == "upper-tri-23":
            return 0
        if f == "alt-24":
            return j % 2
        if f == "alt-25":
            return 1 - j % 2
        pre, per = self.stream
        return pre[j - 1] if j <= len(pre) else per[(j - len(pre) - 1) % len(per)]

    def diag(self, n: int) -> int:
        return 0 if self.family == "decimal-29" else 1 - self.anti(n)

    def tail(self) -> int | None:
        """The constant digit after the diagonal, or None for a random tail."""
        if self.random_tail:
            return None
        return {"upper-tri-23": 1, "alt-25": 1}.get(self.family, 0)

    def digit(self, n: int, j: int) -> int | None:
        if j < n:
            return self.anti(j)
        if j == n:
            return self.diag(n)
        return self.tail()

    def anti_prefix(self, length: int) -> str:
        return "".join(str(self.anti(j)) for j in range(1, length + 1))

    def anti_text(self) -> str:
        """The antidiagonal as a canonical PRE(PERIOD) literal."""
        if self.family == "decimal-29":
            return canonical_literal(*self.stream)
        return canonical_literal((), (self.anti(1), self.anti(2)))

    def row_literal(self, n: int) -> str:
        """String n of a deterministic family as a PRE(PERIOD) literal."""
        head = self.anti_prefix(n - 1) + str(self.diag(n))
        return f"{head}({self.tail()})"


def canonical_literal(pre, per) -> str:
    """Shortest PRE(PERIOD) spelling of pre + per repeated forever."""
    seq = list(pre) + list(per) * 3
    start = len(pre)
    for p in range(1, len(per) + 1):
        if all(seq[i] == seq[i + p] for i in range(start, len(seq) - p)):
            break
    s = start
    while s > 0 and seq[s - 1] == seq[s - 1 + p]:
        s -= 1
    return "".join(map(str, seq[:s])) + "(" + "".join(map(str, seq[s:s + p])) + ")"


def literal_digits(text: str):
    """1-based digit accessor for a PRE(PERIOD) literal."""
    pre, per = text[:-1].split("(")
    pre = [int(c) for c in pre]
    per = [int(c) for c in per]
    return lambda j: pre[j - 1] if j <= len(pre) else per[(j - len(pre) - 1) % len(per)]


def family_scan(model: FamilyModel, candidate: str | None, depth: int) -> dict:
    """Expected JSON report of a family scan over strings 1..depth.

    The candidate (default: the antidiagonal) is walked digit by digit against
    the antidiagonal to find m, their first disagreement.  String n < m then
    first differs at n, its flipped diagonal; string n > m first differs at m;
    string m is walked directly.  Sampled rows are walked in full to check
    that argument against the model.
    """
    cand = literal_digits(candidate) if candidate else model.anti
    window = (len(candidate) if candidate else 0) + 12
    m = next((j for j in range(1, window + 1) if cand(j) != model.anti(j)), None)
    diffs, found = {}, None
    for n in range(1, depth + 1):
        if n != m:
            diffs[str(n)] = n if m is None or n < m else m
            continue
        d = walk_row(model, cand, n, window + n)
        if d is None:
            found = n
            break
        diffs[str(n)] = d
    sampled = [n for n in (*range(1, 41), *range(97, 3000, 491)) if n <= len(diffs)]
    for n in sampled:
        if walk_row(model, cand, n, window + n) != diffs[str(n)]:
            raise AssertionError(f"the {model.family} model breaks the scan argument at row {n}")
    return {
        "antidiagonal": model.anti_text(),
        "cover": "1/1",
        "scan_depth": depth,
        "found_at": found,
        "first_difference": diffs,
    }


def walk_row(model: FamilyModel, cand, n: int, window: int):
    """First position where string n and the candidate differ within the window."""
    for j in range(1, window + 1):
        if model.digit(n, j) != cand(j):
            return j
    return None


def flip(digit: str, radix: int) -> str:
    if radix == 2:
        return "1" if digit == "0" else "0"
    return "4" if digit == "5" else "5"


def explicit_scan(rows, candidate: str | None, depth: int) -> dict:
    """Expected JSON report of a scan over an explicit square array."""
    radix = 2 if all(set(r) <= {"0", "1"} for r in rows) else 10
    anti = "".join(flip(rows[i][i], radix) for i in range(len(rows)))
    target = candidate if candidate is not None else anti
    diffs, found = {}, None
    for n, r in enumerate(rows[:depth], start=1):
        j = next((k for k in range(len(r)) if r[k] != target[k]), None)
        if j is None:
            found = n
            break
        diffs[str(n)] = j + 1
    return {
        "antidiagonal": anti,
        "cover": "1/1",
        "scan_depth": min(depth, len(rows)),
        "found_at": found,
        "first_difference": diffs,
    }


def family_rows_fault(model: FamilyModel, rows, depth: int) -> str | None:
    """Check digit rows against the family: antidiagonal prefix, diagonal digit, tail."""
    if len(rows) != depth:
        return f"{len(rows)} rows, want {depth}"
    prefix = model.anti_prefix(depth)
    tail = model.tail()
    allowed = set("0123456789"[: model.radix])
    for n, r in enumerate(rows, start=1):
        if len(r) != depth or r[: n - 1] != prefix[: n - 1] or r[n - 1] != str(model.diag(n)):
            return f"row {n} breaks the antidiagonal or diagonal digit"
        rest = r[n:]
        if tail is None:
            if not set(rest) <= allowed:
                return f"row {n} has a tail digit outside radix {model.radix}"
        elif rest != str(tail) * len(rest):
            return f"row {n} has the wrong tail"
    return None


# ------------------------------------------------------------------- chains

def parse_chain_text(text: str):
    """(links, terminal) of a chain: links are (connective, name) pairs.

    terminal is (connective, kind, atom) with kind "contra", "target",
    "pair" (R & ~R) or "self-pair" (target & ~target).
    """
    toks = text.split()
    target = toks[0][1:]
    links = []
    i = 1
    while True:
        conn, atom = toks[i], toks[i + 1]
        rest = toks[i + 2:]
        if atom == "CONTRA":
            return target, links, (conn, "contra", None)
        if rest[:1] == ["&"]:
            return target, links, (conn, "self-pair" if atom == target else "pair", atom)
        if not rest:
            return target, links, (conn, "target", None)
        links.append((conn, atom))
        i += 2


def chain_verdict(text: str) -> dict:
    """Pattern and entailment verdict of a chain, per the connective-sequence rule."""
    target, links, (tconn, kind, _) = parse_chain_text(text)
    neg = "~" + target
    conns = [c for c, _ in links]
    last = tconn
    # A trailing `stmt <=> target` makes stmt the target, so fold it away.
    while kind == "target" and last == "<=>" and conns:
        last = conns.pop()
    if not conns:
        shape = "VALID" if last == "=>" else "FLAWED"
    elif all(c == "=>" for c in conns):
        shape = "VALID"
    elif all(c == "<=>" for c in conns):
        shape = "FLAWED"
    else:
        k = 0
        while conns[k] == "<=>":
            k += 1
        shape = "HALFWAY" if k and all(c == "=>" for c in conns[k:]) else "OTHER"
    even = kind == "target"
    pattern = {
        "VALID": "VALID_34" if even else "VALID_31",
        "FLAWED": "FLAWED_38" if even else "FLAWED_37",
        "HALFWAY": "HALFWAY_310" if even else "HALFWAY_39",
        "OTHER": "OTHER",
    }[shape]

    edges = {}
    def edge(a, b):
        edges.setdefault(a, []).append(b)

    prev = neg
    for conn, s in links:
        edge(prev, s)
        if conn == "<=>":
            edge(s, prev)
        prev = s
    if kind == "target":
        edge(prev, target)
        if tconn == "<=>":
            edge(target, prev)
    elif kind == "self-pair":
        edge(prev, target)
        edge(prev, neg)

    reach_neg = reachable(edges, neg)
    names = [s for _, s in links]
    independent = [s for s in names if not (s in reach_neg and neg in reachable(edges, s))]
    inconceivable = [
        s for s in names if target in reachable(edges, s) and neg in reachable(edges, s)
    ]
    prefix = 0
    while prefix < len(links) and links[prefix][0] == "<=>":
        prefix += 1
    return {
        "chain": text,
        "pattern": pattern,
        "iff_prefix_len": prefix,
        "independent": independent,
        "inconceivable": inconceivable,
        "valid": shape == "VALID" or (shape == "HALFWAY" and bool(independent)),
    }


def reachable(edges, start) -> set:
    """Nodes at the end of some walk of length >= 1 from start."""
    seen = set()
    stack = list(edges.get(start, ()))
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(edges.get(x, ()))
    return seen
