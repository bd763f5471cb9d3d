"""Command-line front end over the diagonal, subsets, density, and chains modules.

Output is byte-deterministic for a fixed argument list (including --seed).
Each _cmd_* handler returns data, a JSON payload or under --format csv a
(header, rows) pair, which main encodes once, by _json_chunks or _csv_chunks;
a record list that grows with the input (subsets, array rows, grid cells,
verdicts) comes as an iterator, each record dropped once its text is made.
JSON is json.dumps's text at a two-space indent, a rational as _frac's "p/q";
CSV has a header row, "\n" line endings and no quoting, each row one join of
its cells' _CELLS texts.  Output is rendered whole, as a list of chunks, before
its first byte is written, so a run that fails writes nothing to stdout and
creates no --output file; _write then writes it in pieces of about 64 KiB, one
write call each.  A CSV chunk is one line.  One function renders JSON,
_json_chunks, and splits it by one rule: an int-to-int map (a dict of ints, or
a family scan's runs) gives one chunk per _BLOCK members of a (keys, values)
run; another dict, one per member, but a key and its value's own chunks where
the value is no scalar; an iterator, or a list or tuple not all ints, one per
item, rendered whole; anything else one chunk.  A family scan's runs and the
items of an _IntTuples iterator are ints by construction: no _ints scan.
Exit codes: 0 success, 2 usage or domain error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from fractions import Fraction
from operator import itemgetter

from .errors import CapExceeded, DomainError, WorkbenchError
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
# chains.CHAIN_CAP.  At both caps the CLI child takes about 0.5 s and 27 MB on
# a 2-vCPU VM, within a budget of 5 s and 40 MB.
SCRIPT_CAP = 2 * 10**4

# Characters in one --explicit or --script file, as read.  A file at both
# explicit-array caps, 10**6 rows of 10 digits, is 1.1 * 10**7 characters.
FILE_CAP = 12 * 10**6

_BLOCK = 4096  # members of one run of an int-to-int map per JSON chunk


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


class _IntTuples(map):
    """A map to tuples of exact ints by construction, which _json_chunks renders unscanned."""


def _key(key) -> str:
    # json.dumps quotes the text of a non-str key (an int, a bool or None).
    return encode_basestring_ascii(key if isinstance(key, str) else _SCALARS[type(key)](key))


def _json_chunks(value, indent="\n") -> list:
    r"""value as json.dumps renders it at a two-space indent with _frac as its
    default, nested at indent (a newline and the enclosing spaces), as a list of
    strings split by the module's chunk rule; a top-level one ends in a newline.

    >>> "".join(_json_chunks({"q": [Fraction(1, 2), None, True], "first": {3: 1}}))
    '{\n  "q": [\n    "1/2",\n    null,\n    true\n  ],\n  "first": {\n    "3": 1\n  }\n}\n'
    """
    inner = indent + "  "
    sep = "," + inner
    kinds = isinstance(value, dict) and set(map(type, value))  # one scan of a dict's keys
    runs = value.runs() if hasattr(value, "runs") else kinds == {int} and _ints(
        value.values()) and [(list(value), list(value.values()))]
    if runs or isinstance(value, dict):
        out = ["{" + inner]
        for keys, values in runs or ():  # an int-to-int map: a family scan's runs, a dict's one
            for lo in range(0, len(keys), _BLOCK):  # a chunk per _BLOCK members of a run
                texts = list(map(str, keys[lo:lo + _BLOCK]))  # each key's text made once
                if type(values) is int:  # a constant value goes into the join's separator
                    out += ('"' + f'": {values}{sep}"'.join(texts) + f'": {values}', sep)
                else:  # None maps n -> n: each key's text is joined to itself
                    pairs = zip(texts, texts if values is None else
                                map(str, values[lo:lo + _BLOCK]))
                    out += ('"' + (sep + '"').join(map('": '.join, pairs)), sep)
        name = encode_basestring_ascii if kinds == {str} else _key
        for key, item in () if runs else value.items():  # any other dict's members
            if s := _SCALARS.get(type(item)):  # a scalar inline: grids render 10**4 small dicts
                out += (f"{name(key)}: {s(item)}", sep)
            else:
                out.append(name(key) + ": ")
                out += _json_chunks(item, inner)  # no tuple copy of an iterator's chunks
                out.append(sep)
        out[-1] = indent + "}" if len(out) > 1 else "{}"  # "{}": an empty dict or runs
    elif isinstance(value, (list, tuple)) and _ints(value):
        out = ["[" + inner + _join_ints(sep, value) + indent + "]"]
    elif isinstance(value, (list, tuple)) or hasattr(value, "__next__"):
        out = ["[" + inner]
        typed = type(value) is _IntTuples and sep + "  "  # the separator of a tuple's ints
        for item in value:
            out += (("[" + inner + "  " + _join_ints(typed, item) + inner + "]" if item else "[]")
                    if typed else s(item) if (s := _SCALARS.get(type(item))) else
                    "".join(_json_chunks(item, inner)), sep)
        out[-1] = indent + "]" if len(out) > 1 else "[]"  # "[]": an empty list or iterator
    else:
        out = [_SCALARS[type(value)](value)]
    if indent == "\n":
        out.append("\n")
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


def _write(fh, chunks):
    """fh.writelines(chunks) for a list of strings, in pieces of about 64 KiB, one write each."""
    start = size = 0
    for end, chunk in enumerate(chunks, 1):
        size += len(chunk)
        if size >= 65536:
            fh.write("".join(chunks[start:end]))
            start, size = end, 0
    fh.write("".join(chunks[start:]))


def _write_output(path, chunks):
    """Write chunks to stdout if path is None, else whole to path, by a temp file and os.replace.

    A failed write leaves no partial file.  A path that exists but is not a
    regular file (a device or a pipe, e.g. /dev/stdout) is written in place, and
    so is "", which open refuses: realpath would make it the working directory.
    """
    if path is None:
        return _write(sys.stdout, chunks)
    if not path or os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write(fh, chunks)
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
            _write(fh, chunks)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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
