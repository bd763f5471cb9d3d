"""The CLI's renderer: its output as a list of strings (chunks), and their write.

JSON is json.dumps's text at a two-space indent, a rational as _frac's "p/q";
CSV has a header row, "\n" line endings and no quoting, each row one join of
its cells' _CELLS texts.  Output is rendered whole, as a list of chunks, before
its first byte is written, so a run that fails writes nothing to stdout and
creates no --output file; _write then writes it in pieces of about 64 KiB, one
write call each.  A CSV chunk is one line.  One function renders JSON,
_json_chunks, and splits it by one rule: a scan's runs map (diagonal._Runs)
gives one chunk per _BLOCK members of a (keys, value) run; a dict, one per
member, but a key and its value's own chunks where the value is no scalar; an
iterator, or a list or tuple not all ints, one per item, rendered whole;
anything else one chunk.  A scan's runs and the items of an _IntTuples iterator
are ints by construction: no _ints scan.  In a family scan's run, whose value is
no list, a whole hundred 100q..100q + 99 (q >= 1) is str(q).join of the run's
template for it, split at the keys' prefix.
"""

import contextlib
import os
import sys
from fractions import Fraction
from operator import itemgetter

try:  # json.encoder's C encoder, without json's decoder and scanner
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

_BLOCK = 4096  # members of one run of a scan's runs map per JSON chunk


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _ints(values) -> bool:
    return set(map(type, values)) == {int}


# The texts of the naturals below 512, filled on first use so that importing render
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


def _range_run(keys: range, value, sep: str) -> list:
    """_json_chunks's chunks of a family scan's run, keys a range of step 1 from 1 up, each
    mapped to value (to itself if None): whole hundreds by the module's rule, others singly."""
    member = ('"{0}": {0}' if value is None else f'"{{0}}": {value}').format
    pieces = -(-keys.start // 100) < keys.stop // 100 and sep.join(
        [member(f"@{d:02}") for d in range(100)]).split("@")  # a hundred split at its prefix
    out = []
    for lo in range(keys.start, keys.stop, _BLOCK):
        hi = min(lo + _BLOCK, keys.stop)
        first, last = -(-lo // 100), hi // 100  # the block's whole hundreds
        head = range(lo, min(hi, 100 * first))
        out += (sep.join([*map(member, head), *(str(q).join(pieces) for q in range(first, last)),
                          *map(member, range(max(head.stop, 100 * last), hi))]), sep)
    return out


def _json_chunks(value, indent="\n") -> list:
    r"""value as json.dumps renders it at a two-space indent with _frac as its
    default, nested at indent (a newline and the enclosing spaces), as a list of
    strings split by the module's chunk rule; a top-level one ends in a newline.

    >>> "".join(_json_chunks({"q": [Fraction(1, 2), None, True], "first": {3: 1}}))
    '{\n  "q": [\n    "1/2",\n    null,\n    true\n  ],\n  "first": {\n    "3": 1\n  }\n}\n'
    """
    inner = indent + "  "
    sep = "," + inner
    runs = hasattr(value, "runs") and value.runs()
    if runs or isinstance(value, dict):
        out = ["{" + inner]
        for keys, values in runs or ():  # a scan's runs map, int-to-int by construction
            if type(values) is not list:  # a family scan's run
                out += _range_run(keys, values, sep)
                continue
            for lo in range(0, len(keys), _BLOCK):  # a chunk per _BLOCK members of a run
                pairs = zip(keys[lo:lo + _BLOCK], values[lo:lo + _BLOCK])
                out += (sep.join(map('"%s": %s'.__mod__, pairs)), sep)
        for key, item in () if runs else value.items():  # a dict's members
            if s := _SCALARS.get(type(item)):  # a scalar inline: grids render 10**4 small dicts
                out += (f"{_key(key)}: {s(item)}", sep)
            else:
                out.append(_key(key) + ": ")
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
