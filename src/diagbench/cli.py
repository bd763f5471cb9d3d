"""Command-line front end over the diagonal, subsets, density, and chains modules.

Output is byte-deterministic for a fixed argument list (including --seed):
JSON with two-space indent, rationals rendered as "p/q"; CSV with a header row,
"\n" line endings and no quoting, each row one join of its cells' _CELLS
texts.  One encoder, _json, writes every JSON byte, the same text json.dumps
gives at a two-space indent with _frac as its default.
Output is rendered whole, as a list of chunks, before its first byte is
written, so a run that fails writes nothing to stdout and creates no --output
file.  Exit codes: 0 success, 2 usage or domain error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from fractions import Fraction
from operator import itemgetter

from .errors import CapExceeded, WorkbenchError
try:  # json.encoder's C encoder, without json's decoder and scanner
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

# Literal choice names, so that building the parser imports no kernel module.
_FAMILIES = ("lower-tri-22", "upper-tri-23", "alt-24", "alt-25", "random-below-26", "decimal-29")
_FORMULAS = ("nat", "even", "int", "rat-paper", "rat-exact", "real", "complex")
_PRESETS = ("biconditional-contra", "biconditional-target", "cda", "halfway-contra",
            "halfway-target", "valid-contra", "valid-target")

# Cells in a family --format csv dump (depth x width).  At this cap the
# random-tail worst case still fits the acceptance budget.
CSV_CELL_CAP = 10**6


# Chains in one `analyze --script` file, whose statements in all stay within
# chains.CHAIN_CAP.  At both caps the CLI child takes about 0.9 s and 44 MB on
# a 2-vCPU VM, within a budget of 5 s and 256 MB.
SCRIPT_CAP = 2 * 10**4

# Characters in one --explicit or --script file, as read.  A file at both
# explicit-array caps, 10**6 rows of 10 digits, is 1.1 * 10**7 characters.
FILE_CAP = 12 * 10**6


# Each _cmd_* handler returns data: a JSON payload, or a (header, rows) pair
# under --format csv.  main encodes it once, with _json_chunks or _csv_chunks.

def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _ints(values) -> bool:
    return set(map(type, values)) == {int}


# The texts of the naturals below 512, filled on first use so that importing cli
# builds nothing.  A dict, which a negative or larger int misses; a render that
# reads it half-filled misses too, and writes the same text.
_INT_TEXTS = {}


def _join_ints(sep: str, ints) -> str:
    """sep.join(map(repr, ints)) for a tuple or list of exact ints (a bool or
    float would find its int's text)."""
    if len(ints) < 2:  # itemgetter needs a key, and returns one text bare
        return sep.join(map(repr, ints))
    if not _INT_TEXTS:
        _INT_TEXTS.update(enumerate(map(repr, range(512))))
    try:
        # The list lets the tuple be freed before the text is made, and its space
        # reused: with the tuple alone a dovetail at its cap peaks 0.9 MB higher.
        return sep.join(list(itemgetter(*ints)(_INT_TEXTS)))
    except KeyError:
        return sep.join(map(repr, ints))


# json.dumps's text for a scalar, by exact type; a Fraction goes through _frac.
_SCALARS = {
    str: encode_basestring_ascii,
    int: repr,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
    Fraction: lambda f: f'"{_frac(f)}"',
}


def _key(key) -> str:
    # json.dumps quotes the text of a non-str key (an int, a bool or None).
    return encode_basestring_ascii(key if isinstance(key, str) else _json(key))


def _json(value, indent="\n") -> str:
    r"""value as json.dumps renders it at a two-space indent with _frac as its
    default, nested at indent (a newline and the enclosing spaces).

    >>> _json({"q": [Fraction(1, 2), None, True], "first": {3: 1}})
    '{\n  "q": [\n    "1/2",\n    null,\n    true\n  ],\n  "first": {\n    "3": 1\n  }\n}'
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = set(map(type, value))
        if keys == {int} and _ints(value.values()):
            members = [f'"{k}": {v}' for k, v in value.items()]
        else:
            # _texts inlined: grids render 10**4 small dicts, and the call shows.
            name = encode_basestring_ascii if keys == {str} else _key
            members = [
                f"{name(k)}: {s(v) if (s := _SCALARS.get(type(v))) else _json(v, inner)}"
                for k, v in value.items()
            ]
        return "{" + inner + ("," + inner).join(members) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        sep = "," + inner
        if _ints(value):
            return "[" + inner + _join_ints(sep, value) + indent + "]"
        return "[" + inner + sep.join(_texts(value, inner)) + indent + "]"
    return _SCALARS[type(value)](value)


def _texts(values, indent):
    # _json of each value, as values yields it; a scalar's encoder is called
    # without a _json frame.
    return (s(v) if (s := _SCALARS.get(type(v))) else _json(v, indent) for v in values)


def _list_pieces(value, indent) -> list:
    """_json(value, indent) as a list of strings, one to each item of a list, or
    of an iterator, which renders as the list of what it yields."""
    if not hasattr(value, "__next__") and (
            not isinstance(value, (list, tuple)) or not value or _ints(value)):
        return [_json(value, indent)]
    inner = indent + "  "
    sep = "," + inner
    out = ["[" + inner]
    for text in _texts(value, inner):
        out += (text, sep)
    if len(out) == 1:  # an iterator that yielded nothing
        return ["[]"]
    out[-1] = indent + "]"
    return out


def _json_chunks(payload) -> list:
    """The JSON text of payload and a closing newline, as a list of strings.

    A top-level list, and each list or iterator value of a top-level dict, is
    split into one string per item, so no one string holds a large payload's
    text and no iterator's items are held beside their text.
    """
    if not isinstance(payload, dict) or not payload:
        return [*_list_pieces(payload, "\n"), "\n"]
    out = ["{\n  "]
    for key, value in payload.items():
        out.append(_key(key) + ": ")
        out += _list_pieces(value, "\n  ")
        out.append(",\n  ")
    out[-1] = "\n}\n"
    return out


# A CSV cell's text by exact type: _SCALARS's, but a str bare and a Fraction in
# a num and a den column.  No cell holds a comma, quote or line break: none is quoted.
_CELLS = {**_SCALARS, str: str, Fraction: lambda f: f"{f.numerator},{f.denominator}"}


def _csv_chunks(header, rows) -> list:
    """The CSV text of header and rows, one string to a line; rows may be an
    iterator, consumed as each row's line is made."""
    out = [",".join(header) + "\n"]
    for row in rows:
        out.append(",".join([_CELLS[type(cell)](cell) for cell in row]) + "\n")
    return out


# ---------------------------------------------------------------- diagonal

def _lines(path):
    """The stripped, non-blank lines of a file of at most FILE_CAP characters,
    read at once; runs of line feeds fold to one, so blank lines hold nothing."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read(FILE_CAP + 1)
    if len(text) > FILE_CAP:
        raise CapExceeded(f"file longer than {FILE_CAP} characters")
    return filter(None, map(str.strip, re.sub("\n\n+", "\n", text).split("\n")))


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
        if spec.is_family:
            rows = [
                (n, diagonal.row(spec, n, width)) for n in range(1, args.depth + 1)
            ]
        else:
            rows = list(enumerate(spec.rows, start=1))
        return ("n", "digits"), rows
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
    return tuple(int(part) for part in text.split(","))


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
        return {"count": args.count, "subsets": (s.elements for s in subs)}
    return ("index", "elements"), enumerate(_join_ints(" ", s.elements) for s in subs)


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
        schedule = tuple(int(part) for part in args.schedule.split(","))
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
            "cells": [
                {"a": a, "b": b, "in_unit": unit, "lowest_terms": low}
                for a, b, unit, low in grid.cells
            ],
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
    return [_verdict_payload(chains.parse_chain(line)) for line in lines]


def _cmd_preset(args):
    from . import chains
    return _verdict_payload(chains.preset(args.name))


# ------------------------------------------------------------------- wiring

def _add_output(p, func, *formats):
    """Add --format (default: the first of formats) and --output; run func."""
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagbench",
        description="exact-arithmetic workbench for diagonal scans, subset "
        "enumeration, density ratios, and inference chains",
    )
    top = parser.add_subparsers(dest="command", required=True)

    p = top.add_parser("diagonal", help="scan an array for a candidate string")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--family", choices=_FAMILIES)
    grp.add_argument("--explicit", metavar="FILE", help="file of digit rows")
    p.add_argument("--depth", type=int, default=100, help="rows to scan")
    p.add_argument("--prefix", type=int, default=None, help="comparison window")
    p.add_argument("--candidate", default=None, help="digits or PRE(PERIOD)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--antidiag", default=None, help="decimal stream PRE(PERIOD)")
    p.add_argument("--randomize-subdiagonal", action="store_true")
    _add_output(p, _cmd_diagonal, "json", "csv")

    sub = top.add_parser("subsets", help="binomial tables and subset enumeration")
    ss = sub.add_subparsers(dest="subcommand", required=True)

    p = ss.add_parser("rank", help="colex rank of a finite subset")
    p.add_argument("--elements", required=True, help="comma-separated naturals")
    _add_output(p, _cmd_rank, "json")

    p = ss.add_parser("unrank", help="finite subset from cardinality and rank")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_output(p, _cmd_unrank, "json")

    p = ss.add_parser("dovetail", help="stage-ordered subset enumeration")
    p.add_argument("--count", type=int, default=20)
    _add_output(p, _cmd_dovetail, "csv", "json")

    p = ss.add_parser("figure1", help="coefficient and ratio series for even n")
    p.add_argument("--n", type=int, default=40)
    _add_output(p, _cmd_figure1, "csv", "json")

    p = ss.add_parser("table1", help="closed-form ratio rows at even n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--labels", default=None, help="subset of rows, comma-separated")
    _add_output(p, _cmd_table1, "csv", "json")

    den = top.add_parser("density", help="count-formula ratios and the fraction grid")
    ds = den.add_subparsers(dest="subcommand", required=True)

    p = ds.add_parser("rho", help="ratio of two count formulas over a schedule")
    p.add_argument("--a", choices=_FORMULAS, required=True)
    p.add_argument("--b", choices=_FORMULAS, required=True)
    p.add_argument("--schedule", default=None, help="comma-separated sample points")
    _add_output(p, _cmd_rho, "json", "csv")

    p = ds.add_parser("figure2", help="correction factor over a geometric ramp")
    p.add_argument("--max", type=int, default=100000)
    _add_output(p, _cmd_figure2, "csv", "json")

    p = ds.add_parser("grid", help="fraction grid with lowest-terms flags")
    p.add_argument("--n", type=int, required=True)
    _add_output(p, _cmd_grid, "csv", "json")

    ch = top.add_parser("chains", help="classify contradiction chains")
    cs = ch.add_subparsers(dest="subcommand", required=True)

    p = cs.add_parser("analyze", help="judge a chain expression or script")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--expr", help="a single chain expression")
    grp.add_argument("--script", help="file with one chain per line, # comments")
    _add_output(p, _cmd_analyze, "json")

    p = cs.add_parser("preset", help="judge a built-in chain")
    p.add_argument("name", choices=_PRESETS)
    _add_output(p, _cmd_preset, "json")

    return parser


def _write_output(path, chunks):
    """Write the strings in chunks to path whole: through a temp file beside it
    and os.replace.

    A failed write leaves no partial file.  A path that exists but is not a
    regular file (a device or a pipe, e.g. /dev/stdout) is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the requested path, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)
        if args.format == "csv":
            chunks = _csv_chunks(*result)
        else:
            chunks = _json_chunks(result)
        if args.output:
            _write_output(args.output, chunks)
        else:
            sys.stdout.writelines(chunks)
    except (WorkbenchError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0
