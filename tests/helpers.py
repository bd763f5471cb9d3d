"""Independent oracles shared by the test modules.

Everything here is deliberately naive: direct digit walks, trial-gcd
totients, Pascal addition, a colex rank summed term by term and an unrank
that bisects for every element, recursive path enumeration, a breadth-first
closure over an explicit edge map, a chain's spacing fixed by two regex
substitutions, a canonical form that rotates the period one digit at a time,
a first difference found digit by digit over an lcm window, a bitmask's
bits read byte by byte and summed back one shift at a time, a dovetail whose
colex successor scans for the element to grow at every step, the
summatory-totient kernel's work counted from float cube roots corrected by
stepping, a random tail drawn one pinned cell hash at a time, and an array's
radix by stripping each row.  The point is that none of it shares code with
the package, apart from `random_row`'s one call per cell to the pinned
`rng.cell_value`; `has_random_tail`, a test's question about a spec and no
oracle, reads the package's family rule table.
"""

import math
import re
from collections import deque

from diagbench import diagonal
from diagbench.chains import Connective, TerminalKind
from diagbench.rng import cell_value

# The worked 16-string binary example, in its printed order (strings read
# down the columns of the 4-line display).
B4_ROWS = (
    "0000", "1000", "0100", "0010", "0001", "1100", "1010", "1001",
    "0110", "0101", "0011", "1110", "1101", "1011", "0111", "1111",
)


def pascal_row(n):
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


def colex_rank(elements):
    """Colexicographic rank of a strictly increasing tuple: sum of C(c_i, i)."""
    return sum(math.comb(c, i) for i, c in enumerate(elements, start=1))


def scan_dovetail(count):
    """The first `count` subsets in stage order, as element tuples.

    Each stage steps every p-subset to its colex successor by scanning its
    lowest run of consecutive elements afresh, with no pointer kept.
    """
    out, current, t = [()], [], 0
    while len(out) < count:
        t += 1
        for p, c in enumerate(current):
            c = list(c)
            i = 0
            while i < p and c[i] + 1 == c[i + 1]:
                i += 1
            c[i] += 1
            c[:i] = range(i)
            current[p] = tuple(c)
        current.append(tuple(range(t)))
        out += current
    return out[:count]


def greedy_unrank(p, r):
    """Inverse of colex_rank for cardinality p, one bisection per element."""
    elems = []
    for i in range(p, 0, -1):
        lo, hi = i - 1, i  # C(i - 1, i) = 0 <= r
        while math.comb(hi, i) <= r:
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if math.comb(mid, i) <= r:
                lo = mid
            else:
                hi = mid
        r -= math.comb(lo, i)
        elems.append(lo)
    return tuple(reversed(elems))


def rotating_canonical(preperiod, period):
    """Primitive period, then the preperiod's trailing digits absorbed one by one."""
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period[:d] * (n // d) == period:
            period = period[:d]
            break
    pre = list(preperiod)
    per = list(period)
    while pre and pre[-1] == per[-1]:
        per.insert(0, per.pop())
        pre.pop()
    return tuple(pre), tuple(per)


def lcm_first_difference(a, b):
    """First disagreement of two eventually periodic strings, one digit at a time.

    Past both preperiods the pair repeats with the lcm of the two periods, so
    the walk stops there.
    """
    window = max(len(a.preperiod), len(b.preperiod)) + math.lcm(len(a.period), len(b.period))
    for i in range(1, window + 1):
        if a.digit_at(i) != b.digit_at(i):
            return i
    return None


def bytewise_bits(m):
    """Positions of the set bits of m >= 0, read from its little-endian bytes."""
    data = m.to_bytes((m.bit_length() + 7) // 8, "little")
    return tuple(8 * k + i for k, byte in enumerate(data) for i in range(8) if byte >> i & 1)


def shift_sum(elements):
    """The bitmask of a set of naturals, one shifted bit added per element."""
    return sum(1 << e for e in elements)


def totient_oracle(k):
    return sum(1 for a in range(1, k + 1) if math.gcd(a, k) == 1)


def kernel_work(ns):
    """The summatory-totient kernel's work: icbrt(n)**2 for each distinct n
    above its sieve, which reaches icbrt(max(ns))**2."""
    def icbrt(n):
        r = round(n ** (1 / 3))
        while r**3 > n:
            r -= 1
        while (r + 1) ** 3 <= n:
            r += 1
        return r

    bound = icbrt(max(ns)) ** 2
    return sum(icbrt(n) ** 2 for n in set(ns) if n > bound)


def random_row(seed, n, width, radix):
    """Digits n+1..width of string n of a random-tail family, one cell at a time."""
    return "".join(str(cell_value(seed, n, j) % radix) for j in range(n + 1, width + 1))


def stripped_radix(rows):
    """An explicit array's radix: 10 if some row keeps a digit once 0s and 1s
    are stripped from both of its ends, else 2."""
    return 10 if any(r.strip("01") for r in rows) else 2


def has_random_tail(spec):
    """Whether a family's digits past the diagonal are seeded random draws."""
    return spec.is_family and diagonal._rule(spec)[1] is None


def naive_scan(row_digit, candidate_digit, depth, window):
    """Direct digit-walk membership scan.

    row_digit(n, j) and candidate_digit(j) are 1-based accessors; returns
    (found_at, first_difference) like the package's report fields.
    """
    diffs = {}
    for n in range(1, depth + 1):
        hit = None
        for j in range(1, window + 1):
            if row_digit(n, j) != candidate_digit(j):
                hit = j
                break
        if hit is None:
            return n, diffs
        diffs[n] = hit
    return None, diffs


def reachable_by_paths(edges, start):
    """Nodes reachable from start along simple paths of length >= 1."""
    found = set()

    def walk(node, visited):
        for nxt in edges.get(node, ()):
            found.add(nxt)
            if nxt not in visited:
                walk(nxt, visited | {nxt})

    walk(start, frozenset({start}))
    return found


def chain_edges(ast):
    """The entailment edges of a parsed chain: one per =>, two per <=>."""
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
    # a plain contradiction terminal adds no edges: R and ~R are not chain nodes
    return edges


def bfs_reach(edges, start):
    """Nodes reachable from start along paths of length >= 1, breadth first."""
    seen = set()
    queue = deque(edges[start])
    while queue:
        x = queue.popleft()
        if x not in seen:
            seen.add(x)
            queue.extend(edges[x])
    return seen


def bfs_closure(ast):
    """Every node's reach, one search per node: quadratic, for small chains."""
    edges = chain_edges(ast)
    return {node: frozenset(bfs_reach(edges, node)) for node in edges}


def random_chain_text(rng, max_links=10):
    """A grammar-valid chain with random connectives and terminal."""
    n = rng.randint(0, max_links)
    parts = ["~P"]
    for i in range(1, n + 1):
        parts.append(rng.choice(["=>", "<=>"]))
        parts.append(f"Q{i}")
    parts.append(rng.choice(["=>", "<=>"]))
    parts.append(rng.choice(["CONTRA", "P", "R & ~R", "P & ~P"]))
    return " ".join(parts)


def normalize_chain(text):
    """A chain's text with one space around each connective and none after ~."""
    text = re.sub(r"\s*(<=>|=>|&)\s*", r" \1 ", text)
    return " ".join(re.sub(r"~\s*", "~", text).split())


def shaped_chain_text(rng, max_links=40):
    """A chain whose connective shape is drawn first: all =>, all <=>, a <=>
    prefix then =>, or mixed, so long runs of each occur."""
    n = rng.randint(0, max_links)
    shape = rng.choice(("implies", "iff", "halfway", "mixed"))
    if shape == "implies":
        conns = ["=>"] * (n + 1)
    elif shape == "iff":
        conns = ["<=>"] * (n + 1)
    elif shape == "halfway":
        k = rng.randint(1, n + 1)
        conns = ["<=>"] * k + ["=>"] * (n + 1 - k)
    else:
        conns = [rng.choice(["=>", "<=>"]) for _ in range(n + 1)]
    parts = ["~P"]
    for i, conn in enumerate(conns[:-1], start=1):
        parts += [conn, f"Q{i}"]
    parts += [conns[-1], rng.choice(["CONTRA", "P", "R & ~R", "P & ~P"])]
    return " ".join(parts)
