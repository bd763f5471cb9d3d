"""Command-line front end over the diagonal, subsets, density, and chains modules.

Output is byte-deterministic for a fixed argument list (including --seed).
Each _cmd_* handler returns data, a JSON payload or under --format csv a
(header, rows) pair, which main encodes once, by render's _json_chunks or
_csv_chunks; a record list that grows with the input (subsets, array rows,
grid cells, verdicts) comes as an iterator, each record dropped once its text
is made.  Exit codes: 0 success, 2 usage or domain error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys

from .errors import CapExceeded, DomainError, WorkbenchError
from .render import _IntTuples, _csv_chunks, _join_ints, _json_chunks, _write_output

# Literal choice names, so that building the parser imports no kernel module.
_FAMILIES = ("lower-tri-22", "upper-tri-23", "alt-24", "alt-25", "random-below-26", "decimal-29")
_FORMULAS = ("nat", "even", "int", "rat-paper", "rat-exact", "real", "complex")
_PRESETS = ("biconditional-contra", "biconditional-target", "cda", "halfway-contra",
            "halfway-target", "valid-contra", "valid-target")

# Cells in a family --format csv dump (depth x width).  At this cap the
# random-tail worst case still fits the acceptance budget.
CSV_CELL_CAP = 10**6

# Chains in one `analyze --script` file, whose statements in all stay within
# chains.CHAIN_CAP.  At both caps the CLI child takes about 0.5 s and 27 MB on
# a 2-vCPU VM, within a budget of 5 s and 40 MB.
SCRIPT_CAP = 2 * 10**4

# Characters in one --explicit or --script file, as read.  A file at both
# explicit-array caps, 10**6 rows of 10 digits, is 1.1 * 10**7 characters.
FILE_CAP = 12 * 10**6


# ---------------------------------------------------------------- diagonal

def _lines(path):
    """The stripped, non-blank lines of a file of at most FILE_CAP characters,
    read at once; lines of only whitespace fold away, so they hold nothing."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read(FILE_CAP + 1)
    if len(text) > FILE_CAP:
        raise CapExceeded(f"file longer than {FILE_CAP} characters")
    return filter(None, map(str.strip, re.sub(r"\n\s*(?=\n)", "", text).split("\n")))


def _cmd_diagonal(args):
    from . import diagonal, eps
    anti = None
    if args.antidiag is not None:
        anti = eps.EventuallyPeriodicString.parse(args.antidiag, 10)
    if args.explicit:
        diagonal._reject_decimal_options(anti, args.randomize_subdiagonal)
        spec = diagonal.ArraySpec.explicit(_lines(args.explicit))
    else:
        spec = diagonal.ArraySpec.family(
            diagonal.Family(args.family),
            seed=args.seed,
            antidiag_digits=anti,
            randomize_subdiagonal=args.randomize_subdiagonal,
        )
    width = args.prefix if args.prefix is not None else args.depth
    family_csv = args.format == "csv" and spec.is_family
    if family_csv and args.depth > 0 and args.depth * width > CSV_CELL_CAP:
        raise CapExceeded(
            f"csv dump of {args.depth} x {width} cells above cap {CSV_CELL_CAP}"
        )
    candidate = args.candidate
    if candidate is not None and "(" in candidate:
        candidate = eps.EventuallyPeriodicString.parse(candidate, spec.radix)
    report = diagonal.membership_scan(spec, candidate, args.depth, args.prefix)
    if args.format == "csv":
        rows = ((n, diagonal.row(spec, n, width)) for n in range(1, args.depth + 1))
        return ("n", "digits"), rows if spec.is_family else enumerate(spec.rows, start=1)
    anti = report.antidiagonal
    return {
        "antidiagonal": (
            anti.render() if isinstance(anti, eps.EventuallyPeriodicString) else anti
        ),
        "cover": report.cover,
        "scan_depth": report.scan_depth,
        "found_at": report.found_at,
        "first_difference": report.first_difference,  # int keys become "n"
    }


# ----------------------------------------------------------------- subsets

def _parse_elements(text):
    if not text.strip():
        return ()
    parts = [part.strip() for part in text.split(",")]
    for part in parts:
        # int() would also take "١", "1_0" and "+3".
        if not (part.isascii() and part.isdigit()):
            raise DomainError(f"element {part!r} is not written in the digits 0-9")
    return tuple(map(int, parts))


def _cmd_rank(args):
    from . import subsets
    s = subsets.FiniteSubset(_parse_elements(args.elements))
    return {"elements": s.elements, "rank": subsets.rank(s)}


def _cmd_unrank(args):
    from . import subsets
    s = subsets.unrank(args.p, args.r)
    return {"p": args.p, "r": args.r, "elements": s.elements}


def _cmd_dovetail(args):
    from . import subsets
    # An iterator, rendered as the sweep yields: no list of subsets is held.
    subs = subsets.dovetail_iter(args.count)
    if args.format == "json":
        return {"count": args.count, "subsets": _IntTuples(tuple, subs)}
    return ("index", "elements"), enumerate(_join_ints(" ", s) for s in subs)


def _cmd_figure1(args):
    from . import subsets
    coeffs, ratios = subsets.figure1_data(args.n)
    if args.format == "json":
        return {
            "n": args.n,
            "coefficients": [{"p": p, "value": c} for p, c in coeffs],
            "ratios": [{"d": d, "q": q} for d, q in ratios],
        }
    rows = [("coeff", p, c, 1) for p, c in coeffs]
    rows += [("ratio", d, q) for d, q in ratios]
    return ("series", "k", "num", "den"), rows


def _cmd_table1(args):
    from . import subsets
    labels = None
    if args.labels is not None:
        labels = [part.strip() for part in args.labels.split(",")]
    values = subsets.table1_values(args.n, labels)
    if args.format == "json":
        return {
            "n": args.n,
            "rows": [{"label": label, "d": d, "q": q} for label, d, q in values],
        }
    # table1_values raises on a mismatch, so every row it returns matches.
    rows = [(label, d, q, True) for label, d, q in values]
    return ("label", "d", "q_num", "q_den", "matches"), rows


# ----------------------------------------------------------------- density

def _series(fmt, name, samples):
    """(n, value, decimal) of each sample: JSON objects, or a CSV header and rows."""
    from . import density
    if fmt == "csv":
        header = ("n", f"{name}_num", f"{name}_den", f"{name}_decimal")
        return header, [(n, v, density.decimal_str(v)) for n, v in samples]
    return [{"n": n, name: v, "decimal": density.decimal_str(v)} for n, v in samples]


def _cmd_rho(args):
    from . import density
    a = density.PhiFormula(args.a)
    b = density.PhiFormula(args.b)
    if args.schedule is not None:
        schedule = _parse_elements(args.schedule)
    else:
        schedule = density.default_schedule(a, b)
    est = density.rho_limit(a, b, schedule)
    series = _series(args.format, "rho", est.samples)
    if args.format == "csv":
        return series
    c = est.classification
    return {
        "pair": est.pair,
        "samples": series,
        "classification": {"kind": c.kind, "limit": c.limit, "tolerance": c.tolerance},
    }


def _cmd_figure2(args):
    from . import density
    schedule = [n for n in density.DEFAULT_FIGURE2_SCHEDULE if n <= args.max]
    series = _series(args.format, "f", density.figure2_data(schedule))
    return series if args.format == "csv" else {"samples": series}


def _cmd_grid(args):
    from . import density
    grid = density.grid_6_4(args.n)
    if args.format == "json":
        return {
            "n": grid.n,
            "bold_count": grid.bold_count,
            "cells": ({"a": a, "b": b, "in_unit": unit, "lowest_terms": low}
                      for a, b, unit, low in grid.cells),
        }
    return ("a", "b", "in_unit", "lowest_terms"), grid.cells


# ------------------------------------------------------------------ chains

def _verdict_payload(ast):
    from . import chains
    v = chains.verdict(ast)
    payload = {
        "chain": chains.render(ast),
        "pattern": v.pattern.value,
        "iff_prefix_len": v.iff_prefix_len,
        "independent": v.independent,
        "inconceivable": v.inconceivable,
        "valid": v.valid,
        "rationale": v.rationale,
    }
    if ast.annotations:
        payload["annotations"] = dict(ast.annotations)
    return payload


def _cmd_analyze(args):
    from . import chains
    if args.expr is not None:
        return _verdict_payload(chains.parse_chain(args.expr))
    # Both caps are checked before any chain is parsed: a chain has one more
    # connective than statements, and each holds one "=>".
    lines = []
    statements = 0
    for line in _lines(args.script):
        if line.startswith("#"):
            continue
        if len(lines) == SCRIPT_CAP:
            raise CapExceeded(f"script longer than {SCRIPT_CAP} chains")
        statements += line.count("=>") - 1
        if statements > chains.CHAIN_CAP:
            raise CapExceeded(f"script of more than {chains.CHAIN_CAP} statements")
        lines.append(line)
    return (_verdict_payload(chains.parse_chain(line)) for line in lines)


def _cmd_preset(args):
    from . import chains
    return _verdict_payload(chains.preset(args.name))


# ------------------------------------------------------------------- wiring

# The command tree.  A name maps to (help, leaves) for a group, or to (help,
# handler, formats, *arguments) for a leaf.  An argument is (name, add_argument's
# keywords), or a tuple of those of which a call must give one.
_TREE = {
    "diagonal": ("scan an array for a candidate string", _cmd_diagonal, ("json", "csv"),
                 (("--family", dict(choices=_FAMILIES)),
                  ("--explicit", dict(metavar="FILE", help="file of digit rows"))),
                 ("--depth", dict(type=int, default=100, help="rows to scan")),
                 ("--prefix", dict(type=int, help="comparison window")),
                 ("--candidate", dict(help="digits or PRE(PERIOD)")),
                 ("--seed", dict(type=int, default=0)),
                 ("--antidiag", dict(help="decimal stream PRE(PERIOD)")),
                 ("--randomize-subdiagonal", dict(action="store_true"))),
    "subsets": ("binomial tables and subset enumeration", {
        "rank": ("colex rank of a finite subset", _cmd_rank, ("json",),
                 ("--elements", dict(required=True, help="comma-separated naturals"))),
        "unrank": ("finite subset from cardinality and rank", _cmd_unrank, ("json",),
                   ("--p", dict(type=int, required=True)), ("--r", dict(type=int, required=True))),
        "dovetail": ("stage-ordered subset enumeration", _cmd_dovetail, ("csv", "json"),
                     ("--count", dict(type=int, default=20))),
        "figure1": ("coefficient and ratio series for even n", _cmd_figure1, ("csv", "json"),
                    ("--n", dict(type=int, default=40))),
        "table1": ("closed-form ratio rows at even n", _cmd_table1, ("csv", "json"),
                   ("--n", dict(type=int, required=True)),
                   ("--labels", dict(help="subset of rows, comma-separated"))),
    }),
    "density": ("count-formula ratios and the fraction grid", {
        "rho": ("ratio of two count formulas over a schedule", _cmd_rho, ("json", "csv"),
                ("--a", dict(choices=_FORMULAS, required=True)),
                ("--b", dict(choices=_FORMULAS, required=True)),
                ("--schedule", dict(help="comma-separated sample points"))),
        "figure2": ("correction factor over a geometric ramp", _cmd_figure2, ("csv", "json"),
                    ("--max", dict(type=int, default=100000))),
        "grid": ("fraction grid with lowest-terms flags", _cmd_grid, ("csv", "json"),
                 ("--n", dict(type=int, required=True))),
    }),
    "chains": ("classify contradiction chains", {
        "analyze": ("judge a chain expression or script", _cmd_analyze, ("json",),
                    (("--expr", dict(help="a single chain expression")),
                     ("--script", dict(help="file with one chain per line, # comments")))),
        "preset": ("judge a built-in chain", _cmd_preset, ("json",),
                   ("name", dict(choices=_PRESETS))),
    }),
}


class _Formatter(argparse.HelpFormatter):
    def __init__(self, prog):
        # shutil.get_terminal_size().columns - 2 by its rule, without importing shutil
        columns = 0
        with contextlib.suppress(KeyError, ValueError):
            columns = max(int(os.environ["COLUMNS"]), 0)
        if not columns:
            with contextlib.suppress(AttributeError, ValueError, OSError):
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        super().__init__(prog, width=(columns or 80) - 2)


def _build(p, children, argv, dest="command"):
    """Give p a subparser for each of children, bare but for its name and help,
    and fill the one that argv[0] names, or every one if it names none."""
    sub = p.add_subparsers(dest=dest, required=True)
    named = bool(argv) and argv[0] in children
    for name, (text, *body) in children.items():
        q = sub.add_parser(name, help=text, formatter_class=_Formatter)
        if named and name != argv[0]:
            continue
        if type(body[0]) is dict:
            _build(q, body[0], argv[1:] if named else (), "subcommand")
            continue
        func, formats, *arguments = body
        for arg in arguments:
            one_of = type(arg[0]) is tuple
            to = q.add_mutually_exclusive_group(required=True) if one_of else q
            for arg_name, options in arg if one_of else (arg,):
                to.add_argument(arg_name, **options)
        q.add_argument("--format", choices=formats, default=formats[0])
        q.add_argument("--output", help="write here instead of stdout")
        q.set_defaults(func=func)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of the branch that argv names (a command, and a group's leaf),
    or of the whole tree if it names none: its --help and usage errors read alike."""
    parser = argparse.ArgumentParser(
        prog="diagbench", formatter_class=_Formatter,
        description="exact-arithmetic workbench for diagonal scans, subset enumeration, "
        "density ratios, and inference chains")
    _build(parser, _TREE, list(argv))
    return parser


def main(argv=None) -> int:
    parser = build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)
        chunks = _csv_chunks(*result) if args.format == "csv" else _json_chunks(result)
        _write_output(args.output, chunks)
    except (WorkbenchError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0
