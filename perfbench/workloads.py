"""The four workloads: seeded inputs, CLI argument lists, library calls, checks.

Every operation is built from the workload's seed alone.  An operation may
have a CLI form (`argv`, run as `python -m diagbench ARGV`), a library form
(`lib`, called in the benchmark's own process), or both; each form carries its
own check against the oracles in `oracles.py`.  A check returns None when the
output is right and a one-line reason otherwise.

Library calls look functions up through their module (`diagonal.row`, not a
name bound at import) so that the traced pass can wrap module attributes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles as o
from diagbench import chains, density, diagonal, subsets
from diagbench.eps import EventuallyPeriodicString
from diagbench.errors import WorkbenchError

WORKLOADS = ("diagonal-scan", "subsets-enum", "density-totient", "cli-small")

# The fixed figure2 schedule: every half decade from 10^2 to 10^5.
FIGURE2_RAMP = tuple(round(10 ** (e / 2)) for e in range(4, 11))


@dataclass(frozen=True)
class Sizes:
    scan_depth: int
    hit_rows: tuple  # range of the seeded row a candidate scan hits
    csv_depth: int  # deterministic family
    csv_random_depth: int  # random tails
    explicit_side: int
    dovetail: int
    figure1: int
    table1_multiples: tuple  # n = 2520 * k for k in this range
    roundtrips: int
    rho_tops: tuple  # last sample of the two rat-exact schedules
    figure2_lib_top: int
    grid: int
    chains: int
    chain_links: int


FULL = Sizes(
    scan_depth=100_000,
    hit_rows=(40_000, 60_000),
    csv_depth=500,
    csv_random_depth=300,
    explicit_side=1500,
    dovetail=12_000,
    figure1=1024,
    table1_multiples=(1, 40),
    roundtrips=40,
    rho_tops=(1_000_000, 2_000_000),
    figure2_lib_top=1_000_000,
    grid=100,
    chains=2000,
    chain_links=40,
)

SMOKE = Sizes(
    scan_depth=400,
    hit_rows=(100, 200),
    csv_depth=30,
    csv_random_depth=20,
    explicit_side=40,
    dovetail=300,
    figure1=64,
    table1_multiples=(1, 3),
    roundtrips=4,
    rho_tops=(20_000, 30_000),
    figure2_lib_top=20_000,
    grid=12,
    chains=30,
    chain_links=12,
)


@dataclass
class Op:
    """One operation of a workload; see the module docstring."""

    name: str
    argv: list | None = None
    check: Callable | None = None  # payload text -> reason | None
    lib: Callable | None = None
    lib_check: Callable | None = None  # library result -> reason | None
    output: Path | None = None  # the --output file that argv names
    expect_error: bool = False  # the right answer is exit 2 with one error: line


def mismatch(got, want, what="output"):
    return None if got == want else f"{what} disagrees with the oracle"


def json_check(expected):
    def check(text):
        return mismatch(json.loads(text), expected)
    return check


def text_check(expected):
    def check(text):
        return mismatch(text, expected)
    return check


def csv_text(header, rows):
    lines = [",".join(map(str, header))]
    lines += [",".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def csv_body(text, header):
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        return None
    return [line.split(",") for line in lines[1:-1]]


def report_payload(rep):
    """A DiagonalReport in the CLI's JSON shape, for comparison with the oracle."""
    anti = rep.antidiagonal
    return {
        "antidiagonal": anti if isinstance(anti, str) else anti.render(),
        "cover": o.frac_text(rep.cover),
        "scan_depth": rep.scan_depth,
        "found_at": rep.found_at,
        "first_difference": {str(n): p for n, p in rep.first_difference.items()},
    }


def raises_workbench_error(call):
    """Library form of a fault operation: the right answer is a WorkbenchError."""
    def lib():
        try:
            call()
        except WorkbenchError as exc:
            return exc
        return None
    return lib


def expect_raised(result):
    return None if result is not None else "accepted input it should reject"


# ----------------------------------------------------------------- diagonal

class Families:
    """Shared family inputs of one workload: the decimal stream and tail seed."""

    def __init__(self, rng):
        pre = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        self.stream = (pre, per)
        self.stream_text = "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")"
        self.tail_seed = rng.randrange(2**32)

    def argv(self, family, randomize=False):
        args = ["diagonal", "--family", family]
        if family == "decimal-29":
            args += ["--antidiag", self.stream_text]
        if family == "random-below-26" or randomize:
            args += ["--seed", str(self.tail_seed)]
        if randomize:
            args.append("--randomize-subdiagonal")
        return args

    def spec(self, family, randomize=False):
        stream = None
        if family == "decimal-29":
            stream = EventuallyPeriodicString.parse(self.stream_text, 10)
        return diagonal.ArraySpec.family(
            diagonal.Family(family),
            seed=self.tail_seed if family == "random-below-26" or randomize else 0,
            antidiag_digits=stream,
            randomize_subdiagonal=randomize,
        )

    def model(self, family, randomize=False):
        return o.FamilyModel(family, self.stream, randomize)


def family_scan_op(fams, family, depth, randomize=False, hit=None):
    """JSON scan for the antidiagonal, or for string `hit` written as a literal."""
    model = fams.model(family, randomize)
    literal = model.row_literal(hit) if hit else None
    expected = o.family_scan(model, literal, depth)
    argv = fams.argv(family, randomize) + ["--depth", str(depth)]
    if literal:
        argv += ["--candidate", literal]

    def lib():
        spec = fams.spec(family, randomize)
        if literal:
            cand = EventuallyPeriodicString.parse(literal, spec.radix)
        else:
            cand = diagonal.antidiagonal_rule(spec)
        return diagonal.membership_scan(spec, cand, depth)

    tag = f"hit-{family}" if hit else f"scan-{family}" + ("-random" if randomize else "")
    return Op(tag, argv, json_check(expected), lib,
              lambda rep: mismatch(report_payload(rep), expected))


def family_rows_op(fams, family, depth, randomize=False):
    """CSV dump of strings 1..depth, checked by the family's structure."""
    model = fams.model(family, randomize)
    argv = fams.argv(family, randomize) + ["--depth", str(depth), "--format", "csv"]

    def check(text):
        body = csv_body(text, "n,digits")
        if body is None or [r[0] for r in body] != [str(n) for n in range(1, len(body) + 1)]:
            return "malformed CSV"
        return o.family_rows_fault(model, [r[1] for r in body], depth)

    def lib():
        spec = fams.spec(family, randomize)
        diagonal.membership_scan(spec, diagonal.antidiagonal_rule(spec), depth)
        return [diagonal.row(spec, n, depth) for n in range(1, depth + 1)]

    tag = f"rows-{family}" + ("-random" if randomize else "")
    return Op(tag, argv, check, lib,
              lambda rows: o.family_rows_fault(model, rows, depth))


def explicit_ops(rng, path, rows, label):
    """Antidiagonal scan, scan for a seeded row, and CSV dump of an explicit array."""
    side = len(rows)
    hit = rng.randint(1, side)

    def scan(candidate, depth):
        spec = diagonal.ArraySpec.explicit(rows)
        if candidate is None:
            policy = diagonal.FlipPolicy.BINARY if spec.radix == 2 else diagonal.FlipPolicy.DECIMAL
            candidate = diagonal.antidiagonal_finite(rows, policy)
        return diagonal.membership_scan(spec, candidate, depth)

    ops = []
    for tag, candidate in ((f"explicit-{label}", None), (f"explicit-hit-{label}", rows[hit - 1])):
        expected = o.explicit_scan(rows, candidate, side)
        argv = ["diagonal", "--explicit", str(path), "--depth", str(side)]
        if candidate is not None:
            argv += ["--candidate", candidate]
        ops.append(Op(tag, argv, json_check(expected),
                      lambda c=candidate: scan(c, side),
                      lambda rep, e=expected: mismatch(report_payload(rep), e)))
    def dump():
        scan(None, 100)  # the CLI scans at its default depth before dumping rows
        return list(enumerate(rows, start=1))

    numbered = list(enumerate(rows, start=1))
    ops.append(Op(f"explicit-rows-{label}",
                  ["diagonal", "--explicit", str(path), "--format", "csv"],
                  text_check(csv_text(("n", "digits"), numbered)), dump,
                  lambda got: mismatch(got, numbered)))
    return ops


def write_rows(path, rows):
    path.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def diagonal_scan(rng, sz, tmp):
    fams = Families(rng)
    ops = [family_scan_op(fams, f, sz.scan_depth) for f in o.BINARY_FAMILIES + ("decimal-29",)]
    ops.append(family_scan_op(fams, "decimal-29", sz.scan_depth, randomize=True))
    for family in ("lower-tri-22", "alt-25", "decimal-29"):
        ops.append(family_scan_op(fams, family, sz.scan_depth, hit=rng.randint(*sz.hit_rows)))
    ops.append(family_rows_op(fams, "alt-24", sz.csv_depth))
    ops.append(family_rows_op(fams, "random-below-26", sz.csv_random_depth))
    ops.append(family_rows_op(fams, "decimal-29", sz.csv_random_depth, randomize=True))
    n = sz.explicit_side
    binary = [format(rng.getrandbits(n), f"0{n}b") for _ in range(n)]
    decimal = [str(rng.randrange(10 ** (n - 1), 10**n)) for _ in range(n)]
    ops += explicit_ops(rng, write_rows(tmp / "binary.txt", binary), binary, "binary")
    ops += explicit_ops(rng, write_rows(tmp / "decimal.txt", decimal), decimal, "decimal")
    return ops


# ------------------------------------------------------------------ subsets

def dovetail_ops(count, formats=("csv", "json")):
    want = o.dovetail(count)
    csv_want = csv_text(("index", "elements"),
                        ((i, " ".join(map(str, s))) for i, s in enumerate(want)))
    json_want = {"count": count, "subsets": [list(s) for s in want]}

    def lib_check(subs):
        return mismatch([tuple(s) for s in subs], want)

    checks = {"csv": text_check(csv_want), "json": json_check(json_want)}
    return [
        Op(f"dovetail-{count}-{fmt}",
           ["subsets", "dovetail", "--count", str(count), "--format", fmt], checks[fmt],
           lambda: subsets.dovetail_enumerate(count), lib_check)
        for fmt in formats
    ]


def figure1_ops(n, formats=("csv", "json")):
    coeffs = list(enumerate(o.pascal_row(n)))
    ratios = [(d, o.binomial_ratio(n, d)) for d in range(n // 2)]
    want = {
        "csv": text_check(csv_text(
            ("series", "k", "num", "den"),
            [("coeff", p, c, 1) for p, c in coeffs]
            + [("ratio", d, q.numerator, q.denominator) for d, q in ratios])),
        "json": json_check({
            "n": n,
            "coefficients": [{"p": p, "value": c} for p, c in coeffs],
            "ratios": [{"d": d, "q": o.frac_text(q)} for d, q in ratios],
        }),
    }
    return [
        Op(f"figure1-{fmt}", ["subsets", "figure1", "--n", str(n), "--format", fmt], want[fmt],
           lambda: subsets.figure1_data(n),
           lambda got: mismatch((list(got[0]), list(got[1])), (coeffs, ratios)))
        for fmt in formats
    ]


def table1_op(n, fmt):
    rows = [(label, d, o.binomial_ratio(n, d)) for label, d in o.table1_offsets(n)]
    if fmt == "json":
        check = json_check({"n": n, "rows": [
            {"label": label, "d": d, "q": o.frac_text(q)} for label, d, q in rows]})
    else:
        check = text_check(csv_text(
            ("label", "d", "q_num", "q_den", "matches"),
            [(label, d, q.numerator, q.denominator, "true") for label, d, q in rows]))
    return Op(f"table1-{n}-{fmt}", ["subsets", "table1", "--n", str(n), "--format", fmt], check,
              lambda: subsets.table1_values(n),
              lambda got: mismatch([tuple(r) for r in got], rows))


def unrank_fault(p, r, elements):
    if len(elements) != p or any(a >= b for a, b in zip(elements, elements[1:])):
        return f"unrank({p}, {r}) is not a strictly increasing {p}-subset"
    return mismatch(o.colex_rank(elements), r, "rank of the unranked subset")


def unrank_op(p, r):
    def check(text):
        got = json.loads(text)
        if (got["p"], got["r"]) != (p, r):
            return "echoed p or r differs"
        return unrank_fault(p, r, got["elements"])

    return Op(f"unrank-{p}", ["subsets", "unrank", "--p", str(p), "--r", str(r)],
              check, lambda: subsets.unrank(p, r),
              lambda s: unrank_fault(p, r, list(s)))


def rank_op(elements):
    want = o.colex_rank(elements)
    return Op("rank", ["subsets", "rank", "--elements", ",".join(map(str, elements))],
              json_check({"elements": elements, "rank": want}),
              lambda: subsets.rank(subsets.FiniteSubset(tuple(elements))),
              lambda got: mismatch(got, want))


def roundtrip_op(pairs):
    """Library-only unrank then rank over large cardinalities and ranks."""
    def lib():
        subs = [subsets.unrank(p, r) for p, r in pairs]
        return [(s, subsets.rank(s)) for s in subs]

    def lib_check(results):
        for (p, r), (s, back) in zip(pairs, results):
            fault = unrank_fault(p, r, list(s)) or mismatch(back, r, "rank(unrank)")
            if fault:
                return fault
        return None

    return Op("rank-unrank-roundtrips", lib=lib, lib_check=lib_check)


def subsets_enum(rng, sz, tmp):
    ops = dovetail_ops(sz.dovetail) + figure1_ops(sz.figure1)
    for fmt in ("json", "csv", "json"):
        ops.append(table1_op(2520 * rng.randint(*sz.table1_multiples), fmt))
    ops.append(unrank_op(rng.randint(100, 200), rng.getrandbits(300)))
    ops.append(rank_op(sorted(rng.sample(range(10**6), 50))))
    pairs = [(rng.randint(50, 300), rng.getrandbits(400)) for _ in range(sz.roundtrips)]
    ops.append(roundtrip_op(pairs))
    return ops


# ------------------------------------------------------------------ density

def rho_op(phi_sum, a, b, schedule=None, fmt="json"):
    # The documented defaults: a doubling ramp when real or complex is involved.
    exponential = {a, b} & {"real", "complex"}
    sched = schedule or ((5, 10, 20, 40) if exponential else (10, 100, 1000, 10000))
    want = o.rho_payload(a, b, sched, phi_sum)
    if fmt == "json":
        check = json_check(want)
    else:
        check = text_check(csv_text(
            ("n", "rho_num", "rho_den", "rho_decimal"),
            [(s["n"], *s["rho"].split("/"), s["decimal"]) for s in want["samples"]]))
    argv = ["density", "rho", "--a", a, "--b", b, "--format", fmt]
    if schedule:
        argv += ["--schedule", ",".join(map(str, schedule))]

    def lib():
        fa, fb = density.PhiFormula(a), density.PhiFormula(b)
        return density.rho_limit(fa, fb, schedule or density.default_schedule(fa, fb))

    def lib_check(est):
        got = [(n, o.frac_text(v)) for n, v in est.samples]
        c = est.classification
        got_cls = {
            "kind": c.kind,
            "limit": None if c.limit is None else o.frac_text(c.limit),
            "tolerance": None if c.tolerance is None else o.frac_text(c.tolerance),
        }
        return mismatch((got, got_cls), (
            [(s["n"], s["rho"]) for s in want["samples"]], want["classification"]))

    return Op(f"rho-{a}-{b}-{fmt}", argv, check, lib, lib_check)


def figure2_samples(phi_sum, schedule):
    return [(n, o.lowest_terms_share(n, phi_sum)) for n in schedule]


def figure2_op(phi_sum, top, fmt):
    want = figure2_samples(phi_sum, [n for n in FIGURE2_RAMP if n <= top])
    if fmt == "json":
        check = json_check({"samples": [
            {"n": n, "f": o.frac_text(f), "decimal": o.decimal6(f)} for n, f in want]})
    else:
        check = text_check(csv_text(
            ("n", "f_num", "f_den", "f_decimal"),
            [(n, f.numerator, f.denominator, o.decimal6(f)) for n, f in want]))
    schedule = [n for n, _ in want]
    return Op(f"figure2-{top}-{fmt}",
              ["density", "figure2", "--max", str(top), "--format", fmt], check,
              lambda: density.figure2_data(schedule),
              lambda got: mismatch(list(got), want))


def figure2_lib_op(phi_sum, schedule):
    """Library-only figure2 past the CLI's fixed ramp."""
    want = figure2_samples(phi_sum, schedule)
    return Op("figure2-lib", lib=lambda: density.figure2_data(schedule),
              lib_check=lambda got: mismatch(list(got), want))


def grid_op(phi_sum, n, fmt):
    cells = o.grid_cells(n)
    bold = phi_sum(n) - 1
    if sum(a < b and low for a, b, _, low in cells) != bold:
        raise AssertionError("grid oracle disagrees with the totient sum")
    if fmt == "json":
        check = json_check({"n": n, "bold_count": bold, "cells": [
            {"a": a, "b": b, "in_unit": u, "lowest_terms": low} for a, b, u, low in cells]})
    else:
        flag = {True: "true", False: "false"}
        check = text_check(csv_text(
            ("a", "b", "in_unit", "lowest_terms"),
            [(a, b, flag[u], flag[low]) for a, b, u, low in cells]))
    return Op(f"grid-{n}-{fmt}", ["density", "grid", "--n", str(n), "--format", fmt], check,
              lambda: density.grid_6_4(n),
              lambda g: mismatch((g.n, g.bold_count, list(g.cells)), (n, bold, cells)))


def density_totient(rng, sz, tmp):
    phi_sum = o.TotientSums()
    phi_sum.self_check()
    top1, top2 = sz.rho_tops
    ops = [
        rho_op(phi_sum, "rat-exact", "nat",
               (10, 1000, rng.randint(top1 // 5, top1 * 3 // 10), top1)),
        rho_op(phi_sum, "rat-exact", "rat-paper",
               (10, rng.randint(top2 // 2000, top2 // 400),
                rng.randint(top2 // 200, top2 // 20), top2),
               fmt="csv"),
        figure2_op(phi_sum, FIGURE2_RAMP[-1], "json"),
        figure2_op(phi_sum, FIGURE2_RAMP[-1], "csv"),
        grid_op(phi_sum, sz.grid, "json"),
        grid_op(phi_sum, sz.grid, "csv"),
        rho_op(phi_sum, "real", "complex"),
        rho_op(phi_sum, "complex", "nat"),
    ]
    top = sz.figure2_lib_top
    ops.append(figure2_lib_op(phi_sum, (top // 100, rng.randint(top // 10, top // 2), top)))
    return ops


# ------------------------------------------------------------------- chains

TERMINALS = ("CONTRA", "P", "R & ~R", "P & ~P")


def random_chain(rng, max_links):
    """A grammar-valid chain; the connective shape is drawn first, so every pattern occurs."""
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
        conns = [rng.choice(("=>", "<=>")) for _ in range(n + 1)]
    parts = ["~P"]
    for i, conn in enumerate(conns[:-1], start=1):
        parts += [conn, f"Q{i}"]
    parts += [conns[-1], rng.choice(TERMINALS)]
    return " ".join(parts)


def verdict_fault(got, text):
    want = o.chain_verdict(text)
    if {k: got.get(k) for k in want} != want:
        return f"verdict on {text!r} disagrees with the oracle"
    if not got.get("rationale", "").startswith(want["pattern"] + ":"):
        return f"rationale on {text!r} does not name the pattern"
    return None


def analyze(ast):
    return ast, chains.verdict(ast)


def verdict_payload(result):
    """An (ast, verdict) library result in the CLI's JSON shape."""
    ast, v = result
    return {
        "chain": chains.render(ast),
        "pattern": v.pattern.value,
        "iff_prefix_len": v.iff_prefix_len,
        "independent": list(v.independent),
        "inconceivable": list(v.inconceivable),
        "valid": v.valid,
        "rationale": v.rationale,
    }


def script_op(rng, tmp, count, max_links):
    texts = [random_chain(rng, max_links) for _ in range(count)]
    # Irregular spacing on some lines: the report must still render them canonically.
    lines = [t.replace(" ", "  ") if rng.random() < 0.2 else t for t in texts]
    path = tmp / "chains.txt"
    header = "# seeded chains, one per line\n\n"
    path.write_text(header + "\n".join(lines) + "\n", encoding="utf-8")

    def check(text):
        got = json.loads(text)
        if len(got) != len(texts):
            return f"{len(got)} verdicts for {len(texts)} chains"
        for item, t in zip(got, texts):
            fault = verdict_fault(item, t) or ("annotations" in item and "unexpected annotations")
            if fault:
                return fault
        return None

    def lib_check(results):
        for result, t in zip(results, texts):
            fault = verdict_fault(verdict_payload(result), t)
            if fault:
                return fault
        return None

    return Op("chains-script", ["chains", "analyze", "--script", str(path)], check,
              lambda: [analyze(chains.parse_chain(line)) for line in lines], lib_check)


def expr_op(text):
    return Op("chains-expr", ["chains", "analyze", "--expr", text],
              lambda out: verdict_fault(json.loads(out), text),
              lambda: analyze(chains.parse_chain(text)),
              lambda result: verdict_fault(verdict_payload(result), text))


def preset_op(name):
    def check(out):
        got = json.loads(out)
        if name == "cda" and not isinstance(got.get("annotations"), dict):
            return "cda preset lost its annotations"
        return verdict_fault(got, got["chain"])

    def lib_check(result):
        got = verdict_payload(result)
        return verdict_fault(got, got["chain"])

    return Op(f"preset-{name}", ["chains", "preset", name], check,
              lambda: analyze(chains.preset(name)), lib_check)


# ---------------------------------------------------------------- cli-small

def with_output(op, path):
    """The same operation writing to --output; its bytes must equal the stdout run's."""
    return Op(op.name + "-to-file", op.argv + ["--output", str(path)], op.check,
              output=path)


def cli_small(rng, sz, tmp):
    fams = Families(rng)
    phi_sum = o.TotientSums()
    scan = family_scan_op(fams, rng.choice(o.BINARY_FAMILIES), 100)
    dove = dovetail_ops(20, ("csv",))[0]
    grid = grid_op(phi_sum, rng.randint(2, 12), "json")
    side = 16
    small = [format(rng.getrandbits(side), f"0{side}b") for _ in range(side)]
    explicit = explicit_ops(rng, write_rows(tmp / "small.txt", small), small, "small")[1]
    nonascii = write_rows(tmp / "nonascii.txt", ["٣٣"])
    missing = tmp / "missing" / "out.csv"
    return [
        scan,
        with_output(scan, tmp / "scan.json"),
        family_scan_op(fams, "decimal-29", 100, hit=rng.randint(2, 100)),
        family_rows_op(fams, "random-below-26", 100),
        explicit,
        rank_op(sorted(rng.sample(range(1000), 10))),
        unrank_op(rng.randint(1, 8), rng.randrange(10**6)),
        dove,
        with_output(dove, tmp / "dovetail.csv"),
        figure1_ops(40, ("csv",))[0],
        table1_op(2520, "json"),
        rho_op(phi_sum, "even", "nat"),
        rho_op(phi_sum, "rat-paper", "rat-exact", fmt="csv"),
        figure2_op(phi_sum, rng.choice(FIGURE2_RAMP[1:-1]), "csv"),
        grid,
        with_output(grid, tmp / "grid.json"),
        expr_op(random_chain(rng, 6)),
        preset_op("cda"),
        preset_op(rng.choice(sorted(set(chains.PRESET_TEXTS) - {"cda"}))),
        script_op(rng, tmp, sz.chains, sz.chain_links),
        # Known faults: both should exit 2 with one error: line.
        Op("output-missing-dir", ["subsets", "figure1", "--output", str(missing)],
           output=missing, expect_error=True),
        Op("explicit-nonascii-digits",
           ["diagonal", "--explicit", str(nonascii), "--candidate", "33"], expect_error=True,
           lib=raises_workbench_error(lambda: diagonal.membership_scan(
               diagonal.ArraySpec.explicit(["٣٣"]), "33", 100)),
           lib_check=expect_raised),
    ]


WORKLOAD_BY_NAME = {
    "diagonal-scan": diagonal_scan,
    "subsets-enum": subsets_enum,
    "density-totient": density_totient,
    "cli-small": cli_small,
}


def build(name, seed, smoke, tmp):
    """The workload's operations for this seed, with any input files written under tmp."""
    rng = random.Random(f"{name}/{seed}")
    return WORKLOAD_BY_NAME[name](rng, SMOKE if smoke else FULL, tmp)
