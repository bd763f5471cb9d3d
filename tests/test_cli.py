import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import shutil
import stat
import subprocess
import sys
import threading
from collections.abc import ValuesView
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagbench import chains, cli, density, diagonal, render, subsets
from diagbench.cli import main

from helpers import COMMANDS

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- diagonal -------------------------------------------------------------


def test_family_scan_report(capsys):
    code, out, err = run(capsys, "diagonal", "--family", "lower-tri-22", "--depth", "5")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload == {
        "antidiagonal": "(1)",
        "cover": "1/1",
        "scan_depth": 5,
        "found_at": None,
        "first_difference": {"1": 1, "2": 2, "3": 3, "4": 4, "5": 5},
    }


def test_family_scan_finds_a_member(capsys):
    code, out, _ = run(
        capsys, "diagonal", "--family", "upper-tri-23", "--depth", "5",
        "--candidate", "(1)",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found_at"] == 1
    assert payload["first_difference"] == {}
    assert payload["antidiagonal"] == "(0)"


def test_decimal_family_scan(capsys):
    code, out, _ = run(
        capsys, "diagonal", "--family", "decimal-29", "--antidiag", "(3)",
        "--depth", "6", "--candidate", "3333(0)",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found_at"] == 5
    assert payload["first_difference"] == {"1": 1, "2": 2, "3": 3, "4": 4}


def test_family_array_csv(capsys):
    code, out, _ = run(
        capsys, "diagonal", "--family", "lower-tri-22", "--depth", "4",
        "--format", "csv",
    )
    assert code == 0
    assert out == "n,digits\n1,0000\n2,1000\n3,1100\n4,1110\n"


def test_a_csv_dump_holds_depth_family_rows_and_every_explicit_row(capsys):
    code, out, _ = run(capsys, "diagonal", "--family", "lower-tri-22", "--depth", "3",
                       "--format", "csv")
    assert code == 0 and out == "n,digits\n1,000\n2,100\n3,110\n"
    code, out, _ = run(capsys, "diagonal", "--explicit", str(DATA / "b4.txt"), "--depth", "3",
                       "--format", "csv")
    rows = (DATA / "b4.txt").read_text(encoding="utf-8").split()
    assert code == 0 and len(rows) == 16
    assert out == "n,digits\n" + "".join(f"{n},{r}\n" for n, r in enumerate(rows, 1))


def test_explicit_scan(capsys):
    code, out, _ = run(
        capsys, "diagonal", "--explicit", str(DATA / "b4.txt"), "--depth", "16",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["antidiagonal"] == "1111"
    assert payload["cover"] == "1/4"
    assert payload["found_at"] == 16
    assert len(payload["first_difference"]) == 15


# Every family and an explicit array, each format, no candidate, a hit and a
# miss literal, three depths, with and without a window.  The digest pins the
# exact bytes of every run; change it only with a deliberate output change.
GOLDEN_ARRAYS = (
    (("--family", "lower-tri-22"), "1(0)", "1111(01)"),
    (("--family", "upper-tri-23"), "0(1)", "00(10)"),
    (("--family", "alt-24"), "1(0)", "101(1)"),
    (("--family", "alt-25"), "0(1)", "010(0)"),
    (("--family", "random-below-26", "--seed", "9"), "(0)", "11(01)"),
    (("--family", "decimal-29", "--antidiag", "(3)"), "333(0)", "3(4)"),
    (("--family", "decimal-29", "--antidiag", "12(7)"), "127(0)", "12(8)"),
    (("--family", "decimal-29", "--antidiag", "(19)"), "19(0)", "1(2)"),
    (("--family", "decimal-29", "--antidiag", "(3)", "--randomize-subdiagonal",
      "--seed", "5"), "333(0)", "3(4)"),
    (("--family", "decimal-29", "--antidiag", "12(7)", "--randomize-subdiagonal",
      "--seed", "5"), "127(0)", "12(8)"),
    (("--explicit", str(DATA / "b4.txt")), "1111", "(0)"),
)
GOLDEN_SHA256 = "dfab9ed45e77974ed0dbb16c24217a9a988ea748e0f14c654163d22a886546fa"


def golden_argvs():
    for array, hit, miss in GOLDEN_ARRAYS:
        for fmt in ("json", "csv"):
            for candidate in ((), ("--candidate", hit), ("--candidate", miss)):
                for depth in ("1", "7", "20"):
                    for window in ((), ("--prefix", "24")):
                        yield ["diagonal", *array, "--format", fmt, *candidate,
                               "--depth", depth, *window]


def test_diagonal_output_matches_the_golden_digest(capsys):
    digest = hashlib.sha256()
    for argv in golden_argvs():
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        digest.update(out.encode() + b"\0")
    assert digest.hexdigest() == GOLDEN_SHA256


def test_over_cap_prefix_exits_2(capsys):
    code, out, err = run(
        capsys, "diagonal", "--family", "lower-tri-22", "--depth", "1",
        "--prefix", str(diagonal.SCAN_CAP + 1),
    )
    assert code == 2 and out == ""
    assert err == "error: DepthCapExceeded: prefix length 1000001 above cap 1000000\n"


def test_over_cap_csv_dump_exits_2_before_any_scan(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the cap must be checked before any work starts")

    monkeypatch.setattr(diagonal, "membership_scan", no_work)
    monkeypatch.setattr(diagonal, "row", no_work)
    code, out, err = run(
        capsys, "diagonal", "--family", "random-below-26", "--depth", "1001",
        "--prefix", "1000", "--format", "csv",
    )
    assert code == 2 and out == ""
    assert err == "error: CapExceeded: csv dump of 1001 x 1000 cells above cap 1000000\n"


@pytest.mark.parametrize("flags,message", [
    (("--antidiag", "(3)", "--randomize-subdiagonal", "--depth", "2"),
     "only the decimal family takes a digit stream"),
    (("--randomize-subdiagonal",), "only the decimal family can randomize its tail"),
])
def test_explicit_arrays_reject_family_only_flags(capsys, flags, message):
    code, out, err = run(capsys, "diagonal", "--explicit", str(DATA / "b4.txt"), *flags)
    assert code == 2 and out == ""
    assert err == f"error: DomainError: {message}\n"


def test_explicit_arrays_ignore_prefix_and_seed(capsys):
    argv = ("diagonal", "--explicit", str(DATA / "b4.txt"), "--depth", "16")
    assert run(capsys, *argv, "--prefix", "99", "--seed", "4") == run(capsys, *argv)


# --- subsets ----------------------------------------------------------------


def test_rank_and_unrank(capsys):
    code, out, _ = run(capsys, "subsets", "rank", "--elements", "1,3")
    assert code == 0
    assert json.loads(out) == {"elements": [1, 3], "rank": 4}

    code, out, _ = run(capsys, "subsets", "rank", "--elements", "")
    assert code == 0
    assert json.loads(out) == {"elements": [], "rank": 0}

    code, out, _ = run(capsys, "subsets", "unrank", "--p", "3", "--r", "1")
    assert code == 0
    assert json.loads(out) == {"p": 3, "r": 1, "elements": [0, 1, 3]}


@pytest.mark.parametrize("elements, part", [
    ("\u0661", "\u0661"),  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
    ("1_0", "1_0"),
    ("+3", "+3"),
    ("-1", "-1"),
    ("0,\u00b2", "\u00b2"),
    ("1,,3", ""),
    ("1, 3 ,x", "x"),
    ("1.0", "1.0"),
])
def test_rank_elements_are_ascii_digits(capsys, elements, part):
    code, out, err = run(capsys, "subsets", "rank", "--elements", elements)
    assert code == 2 and out == ""
    assert err == f"error: DomainError: element {part!r} is not written in the digits 0-9\n"


def test_rank_elements_may_carry_spaces(capsys):
    for elements in (" 1 , 3 ", "1,3", "\t1,3\n"):
        code, out, _ = run(capsys, "subsets", "rank", "--elements", elements)
        assert code == 0 and json.loads(out) == {"elements": [1, 3], "rank": 4}
    for elements in ("", "  "):
        code, out, _ = run(capsys, "subsets", "rank", "--elements", elements)
        assert code == 0 and json.loads(out) == {"elements": [], "rank": 0}


def test_dovetail_listing(capsys):
    code, out, _ = run(capsys, "subsets", "dovetail", "--count", "10")
    assert code == 0
    assert out == (
        "index,elements\n"
        "0,\n"
        "1,0\n"
        "2,1\n"
        "3,0 1\n"
        "4,2\n"
        "5,0 2\n"
        "6,0 1 2\n"
        "7,3\n"
        "8,1 2\n"
        "9,0 1 3\n"
    )
    # The CLI renders as the sweep yields; its bytes are the library list's.
    for count in range(65):
        subs = [s.elements for s in subsets.dovetail_enumerate(count)]
        payload = {"count": count, "subsets": subs}
        code, out, _ = run(capsys, "subsets", "dovetail", "--count", str(count), "--format", "json")
        assert code == 0 and out == json.dumps(payload, indent=2) + "\n"
        code, out, _ = run(capsys, "subsets", "dovetail", "--count", str(count))
        lines = [f"{i},{' '.join(map(str, s))}" for i, s in enumerate(subs)]
        assert code == 0 and out == "\n".join(["index,elements", *lines, ""])


# stdout sha256 of `subsets dovetail --count 12000` in each format, as the sweep
# and the encoder have written it since dovetail rendered as the sweep yields.
DOVETAIL_GOLDEN_SHA256 = {
    "json": "05686c6e003cbb5ff0f6818b0df3e4946b0b70697831aa62eaf9a45e4c6ec276",
    "csv": "97688e1a82d07a5d0e835b568a928cb1e7812812b3a9d3356708399151e25a2d",
}


@pytest.mark.parametrize("fmt", sorted(DOVETAIL_GOLDEN_SHA256))
def test_dovetail_output_matches_the_golden_digest(capsys, fmt):
    code, out, _ = run(capsys, "subsets", "dovetail", "--count", "12000", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DOVETAIL_GOLDEN_SHA256[fmt]


def test_unbuffered_stdout_writes_the_golden_bytes():
    # Under PYTHONUNBUFFERED, sys.stdout writes straight through to the file
    # descriptor, so each write call of the CLI is a system call of its own.
    proc = subprocess.run(
        [sys.executable, "-m", "diagbench", "subsets", "dovetail", "--count", "12000",
         "--format", "json"],
        env={**os.environ, "PYTHONUNBUFFERED": "1",
             "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DOVETAIL_GOLDEN_SHA256["json"]


class _CountingWriter(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", [
    ("subsets", "dovetail", "--count", "12000", "--format", "json"),  # 24,007 chunks
    ("density", "grid", "--n", "100"),  # 10,001 CSV lines
], ids=("dovetail", "grid"))
def test_stdout_is_written_in_pieces_of_64_kib(tmp_path, monkeypatch, argv):
    stdout = _CountingWriter()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv)) == 0
    path = tmp_path / "out"
    assert main([*argv, "--output", str(path)]) == 0
    text = stdout.getvalue()
    assert path.read_text(encoding="utf-8") == text
    assert text.isascii() and stdout.writes <= -(-len(text) // 65536) + 1


def test_dovetail_tuples_render_unscanned(monkeypatch, capsys):
    # The sweep's element tuples are ints by construction: no _ints scan meets
    # one, and each renders as json.dumps renders its list.
    scan = render._ints

    def ints(values):
        assert type(values) is not tuple, "a dovetail tuple was scanned"
        return scan(values)

    monkeypatch.setattr(render, "_ints", ints)
    code, out, _ = run(capsys, "subsets", "dovetail", "--count", "300", "--format", "json")
    subs = [s.elements for s in subsets.dovetail_enumerate(300)]
    assert code == 0 and out == json.dumps({"count": 300, "subsets": subs}, indent=2) + "\n"
    tuples = [(), (7,), (0, 511), (512, 10**20)]  # in and past the table of int texts
    chunks = render._json_chunks(render._IntTuples(tuple, tuples), "\n    ")
    assert "".join(chunks) == json.dumps(tuples, indent=2).replace("\n", "\n    ")
    assert len(chunks) == 2 * len(tuples) + 1  # an opening, then an item and a comma each


def test_table_rows(capsys):
    code, out, _ = run(
        capsys, "subsets", "table1", "--n", "40", "--labels", "n/2-1,n/4",
    )
    assert code == 0
    assert out == (
        "label,d,q_num,q_den,matches\n"
        "n/2-1,19,1,40,true\n"
        "n/4,10,10,31,true\n"
    )


def test_figure1_series(capsys):
    code, out, _ = run(capsys, "subsets", "figure1", "--n", "2")
    assert code == 0
    assert out == (
        "series,k,num,den\n"
        "coeff,0,1,1\n"
        "coeff,1,2,1\n"
        "coeff,2,1,1\n"
        "ratio,0,1,2\n"
    )


def _no_work(*args, **kwargs):
    raise AssertionError("the cap must be checked before any work starts")


@pytest.mark.parametrize("p,r,message", [
    (subsets.UNRANK_P_CAP + 1, 0, "cardinality 1501 above cap 1500"),
    (3, 1 << subsets.UNRANK_BITS_CAP, "rank of 2049 bits above cap 2048"),
])
def test_over_cap_unrank_exits_2_before_any_work(capsys, monkeypatch, p, r, message):
    monkeypatch.setattr(subsets, "_largest_c", _no_work)
    code, out, err = run(capsys, "subsets", "unrank", "--p", str(p), "--r", str(r))
    assert code == 2 and out == ""
    assert err == f"error: CapExceeded: {message}\n"


def test_an_over_cap_rank_exits_2_before_any_binomial(capsys, monkeypatch):
    # 1000 elements near 10**30: the lower bound (c/p)^p on the top term
    # already passes RANK_CAP, so no term is computed.
    monkeypatch.setattr(subsets.math, "comb", _no_work)
    elements = ",".join(str(10**30 + k) for k in range(1000))
    code, out, err = run(capsys, "subsets", "rank", "--elements", elements)
    assert code == 2 and out == ""
    assert err == "error: CapExceeded: rank of 1000 elements at or above cap 10**4300\n"


# --- density ------------------------------------------------------------------


def test_rho_classification_payload(capsys):
    code, out, _ = run(capsys, "density", "rho", "--a", "even", "--b", "nat")
    assert code == 0
    payload = json.loads(out)
    assert payload["pair"] == ["even", "nat"]
    assert [s["n"] for s in payload["samples"]] == [10, 100, 1000, 10000]
    assert all(s["rho"] == "1/2" for s in payload["samples"])
    assert all(s["decimal"] == "0.500000" for s in payload["samples"])
    assert payload["classification"] == {
        "kind": "converges",
        "limit": "1/2",
        "tolerance": "1/100",
    }


def test_rho_csv_with_explicit_schedule(capsys):
    code, out, _ = run(
        capsys, "density", "rho", "--a", "nat", "--b", "real",
        "--schedule", "5,10,20,40", "--format", "csv",
    )
    assert code == 0
    assert out == (
        "n,rho_num,rho_den,rho_decimal\n"
        "5,1,64,0.015625\n"
        "10,1,2048,0.000488\n"
        "20,1,2097152,0.000000\n"
        "40,1,2199023255552,0.000000\n"
    )


def test_grid_csv(capsys):
    code, out, _ = run(capsys, "density", "grid", "--n", "2")
    assert code == 0
    assert out == (
        "a,b,in_unit,lowest_terms\n"
        "1,1,true,true\n"
        "2,1,false,true\n"
        "1,2,true,true\n"
        "2,2,true,false\n"
    )


def test_figure2_csv(capsys):
    code, out, _ = run(capsys, "density", "figure2", "--max", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,f_num,f_den,f_decimal"
    assert [line.split(",")[0] for line in lines[1:]] == ["100", "316", "1000"]
    for line in lines[1:]:
        assert line.split(",")[3].startswith("0.6")


@pytest.mark.parametrize("part", ["1_0", "+10", "\u0661\u0660", "-1", "1.0", ""])
def test_schedule_points_are_ascii_digits(capsys, part):
    # The rule of subsets rank --elements: int() would take "1_0", "+10" and "١٠".
    code, out, err = run(capsys, "density", "rho", "--a", "even", "--b", "nat",
                         "--schedule", f"5,{part},20,40")
    assert code == 2 and out == ""
    assert err == f"error: DomainError: element {part!r} is not written in the digits 0-9\n"


def test_schedule_may_carry_spaces_and_an_empty_one_is_too_short(capsys):
    argv = ("density", "rho", "--a", "even", "--b", "nat", "--format", "csv", "--schedule")
    assert run(capsys, *argv, " 5, 10 ,20,40\t")[:2] == run(capsys, *argv, "5,10,20,40")[:2]
    for schedule in ("", "  "):
        code, out, err = run(capsys, *argv, schedule)
        assert code == 2 and out == ""
        assert err == "error: BadSchedule: need at least 4 sample points\n"


def test_exponential_pairs_print_at_the_cap_and_exit_2_above_it(capsys, monkeypatch):
    names = [f.value for f in density.PhiFormula]
    pairs = [(a, b) for a in names for b in names if {a, b} & {"real", "complex"}]
    cap = density.EXPONENTIAL_CAP
    for a, b in pairs:
        for fmt in ("json", "csv"):
            argv = ("density", "rho", "--a", a, "--b", b, "--format", fmt)
            code, out, err = run(capsys, *argv, "--schedule", f"1,2,3,{cap}")
            assert code == 0 and err == "", (a, b, fmt)
            if fmt == "json":
                assert json.loads(out)["samples"][-1]["n"] == cap
            else:
                assert out.splitlines()[-1].startswith(f"{cap},")
    monkeypatch.setattr(density, "rho_finite", _no_work)
    code, out, err = run(capsys, "density", "rho", "--a", "real", "--b", "complex",
                         "--schedule", f"1,2,3,{cap + 1}")
    assert code == 2 and out == ""
    assert err == "error: CapExceeded: sample point 7001 above cap 7000 for real/complex\n"


# --- chains -------------------------------------------------------------------


def test_preset_verdict_payload(capsys):
    code, out, _ = run(capsys, "chains", "preset", "cda")
    assert code == 0
    payload = json.loads(out)
    assert payload["chain"] == "~P <=> Q1 <=> Q2 <=> Q3 => Q4 <=> P"
    assert payload["pattern"] == "FLAWED_38"
    assert payload["iff_prefix_len"] == 3
    assert payload["independent"] == ["Q4"]
    assert payload["inconceivable"] == ["Q1", "Q2", "Q3"]
    assert payload["valid"] is False
    assert set(payload["annotations"]) == {"P", "~P", "Q1", "Q2", "Q3", "Q4"}


def test_analyze_expression(capsys):
    code, out, _ = run(
        capsys, "chains", "analyze", "--expr", "~P => Q1 => Q2 => CONTRA",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pattern"] == "VALID_31"
    assert payload["valid"] is True
    assert "annotations" not in payload


def test_analyze_script(tmp_path, capsys):
    script = tmp_path / "chains.txt"
    script.write_text(
        "# a valid refutation and a circular one\n"
        "~P => Q1 => Q2 => CONTRA\n"
        "\n"
        "~P <=> Q1 <=> P\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "chains", "analyze", "--script", str(script))
    assert code == 0
    payload = json.loads(out)
    assert [p["pattern"] for p in payload] == ["VALID_31", "FLAWED_38"]


@pytest.mark.parametrize("lines, message", [
    (["~P => CONTRA"] * (cli.SCRIPT_CAP + 1), f"script longer than {cli.SCRIPT_CAP} chains"),
    (
        [  # CHAIN_CAP + 1 statements over two chains, each within the cap
            "~P " + " ".join(f"=> Q{i}" for i in range(1, chains.CHAIN_CAP + 1)) + " => CONTRA",
            "# a comment line is not a chain",
            "~P => Q1 => CONTRA",
        ],
        f"script of more than {chains.CHAIN_CAP} statements",
    ),
], ids=["chains", "statements"])
def test_a_script_over_its_cap_starts_no_verdict(tmp_path, capsys, monkeypatch, lines, message):
    def refuse(ast):
        raise AssertionError("verdict started on an over-cap script")

    monkeypatch.setattr(chains, "verdict", refuse)
    script = tmp_path / "chains.txt"
    script.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "chains", "analyze", "--script", str(script))
    assert code == 2 and out == ""
    assert err == f"error: CapExceeded: {message}\n"


def test_a_script_failing_on_its_last_chain_writes_nothing(tmp_path, capsys, monkeypatch):
    # Verdicts are made while the output is rendered, not in the handler, so
    # the last chain fails after the others are judged and before any write.
    judged, judge = [], chains.verdict

    def counted(ast):
        judged.append(ast)
        return judge(ast)

    monkeypatch.setattr(chains, "verdict", counted)
    script = tmp_path / "chains.txt"
    script.write_text("~P => Q1 => CONTRA\n" * 3 + "~P => => CONTRA\n", encoding="utf-8")
    target = tmp_path / "verdicts.json"
    code, out, err = run(capsys, "chains", "analyze", "--script", str(script),
                         "--output", str(target))
    assert code == 2 and out == "" and len(judged) == 3
    assert len(err.splitlines()) == 1 and err.startswith("error: ChainSyntaxError: ")
    assert list(tmp_path.iterdir()) == [script]


# Every subsets, density and chains subcommand at two or three sizes, with the
# default format and with each format it accepts.  Like GOLDEN_SHA256, the
# digest pins the exact bytes; change it only with a deliberate output change.
_BOTH = ("json", "csv")
OTHER_GOLDEN_CASES = (
    (("subsets", "rank", "--elements", ""), ("json",)),
    (("subsets", "rank", "--elements", "1,3"), ("json",)),
    (("subsets", "rank", "--elements", "0,5,17,200"), ("json",)),
    (("subsets", "unrank", "--p", "0", "--r", "0"), ("json",)),
    (("subsets", "unrank", "--p", "3", "--r", "10"), ("json",)),
    (("subsets", "unrank", "--p", "40", "--r", "10" * 15), ("json",)),
    (("subsets", "dovetail", "--count", "1"), _BOTH),
    (("subsets", "dovetail", "--count", "20"), _BOTH),
    (("subsets", "dovetail", "--count", "300"), _BOTH),
    (("subsets", "figure1", "--n", "2"), _BOTH),
    (("subsets", "figure1", "--n", "40"), _BOTH),
    (("subsets", "figure1", "--n", "200"), _BOTH),
    (("subsets", "table1", "--n", "40", "--labels", "n/2-1,n/4"), _BOTH),
    (("subsets", "table1", "--n", "2520"), _BOTH),
    (("subsets", "table1", "--n", "5040", "--labels", "0,7,n/2-8"), _BOTH),
    (("density", "rho", "--a", "even", "--b", "nat"), _BOTH),
    (("density", "rho", "--a", "rat-exact", "--b", "rat-paper"), _BOTH),
    (("density", "rho", "--a", "real", "--b", "complex"), _BOTH),
    (("density", "rho", "--a", "real", "--b", "nat"), _BOTH),
    (("density", "rho", "--a", "nat", "--b", "real", "--schedule", "5,10,20,40"), _BOTH),
    (("density", "figure2", "--max", "100"), _BOTH),
    (("density", "figure2", "--max", "1000"), _BOTH),
    (("density", "figure2", "--max", "100000"), _BOTH),
    (("density", "grid", "--n", "2"), _BOTH),
    (("density", "grid", "--n", "5"), _BOTH),
    (("density", "grid", "--n", "12"), _BOTH),
    (("chains", "analyze", "--expr", "~P => Q1 => Q2 => CONTRA"), ("json",)),
    (("chains", "analyze", "--expr", "~P <=> Q1 <=> Q2 => P"), ("json",)),
    (("chains", "analyze", "--script", str(DATA / "chains.txt")), ("json",)),
    *((("chains", "preset", name), ("json",)) for name in sorted(chains.PRESET_TEXTS)),
)
OTHER_GOLDEN_SHA256 = "774a0686cf0e8ad214430cf741e8dec10bd8c5c281ac2c7f951ea9d9f05dd709"


def other_golden_argvs():
    for argv, formats in OTHER_GOLDEN_CASES:
        yield list(argv)
        for fmt in formats:
            yield [*argv, "--format", fmt]


def test_other_command_output_matches_the_golden_digest(capsys):
    digest = hashlib.sha256()
    for argv in other_golden_argvs():
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        digest.update(out.encode() + b"\0")
    assert digest.hexdigest() == OTHER_GOLDEN_SHA256


def test_no_csv_cell_of_the_golden_runs_needs_quoting():
    # _csv_chunks joins cells unquoted, which is right only while no cell holds a
    # comma, a quote or a line break, and no row is one field (an empty one
    # needs quotes).
    cell = re.compile(r'[^,"\r\n]*')
    parser = cli.build_parser()
    for argv in [*golden_argvs(), *other_golden_argvs()]:
        args = parser.parse_args(argv)
        if args.format != "csv":
            continue
        header, rows = args.func(args)
        assert len(header) > 1, argv
        for row in (header, *rows):
            fields = [f for c in row
                      for f in ((c.numerator, c.denominator) if type(c) is Fraction else (c,))]
            assert len(fields) == len(header), (argv, row)
            for f in fields:
                assert cell.fullmatch(render._CELLS[type(f)](f)), (argv, f)


# --help at every parser level, and argparse's usage errors: a bad choice for
# each named choice list and each group without a subcommand.  The digest
# covers stdout, stderr and the exit code at COLUMNS=80, so it pins argparse's
# own wording as well, which is the same from Python 3.10 to 3.12.
HELP_GOLDEN_ARGVS = (
    ("--help",),
    ("diagonal", "--help"),
    ("subsets", "--help"),
    *(("subsets", leaf, "--help") for leaf in ("rank", "unrank", "dovetail", "figure1", "table1")),
    ("density", "--help"),
    *(("density", leaf, "--help") for leaf in ("rho", "figure2", "grid")),
    ("chains", "--help"),
    *(("chains", leaf, "--help") for leaf in ("analyze", "preset")),
    ("diagonal", "--family", "no-such-family"),
    ("density", "rho", "--a", "no-such-formula", "--b", "nat"),
    ("chains", "preset", "no-such-preset"),
    (),
    ("subsets",),
    ("density",),
    ("chains",),
)
HELP_GOLDEN_SHA256 = "c8fc8724d07bc201251299b6b04f9c366efef9ede18b083ad338ad1c8f04b9a7"


def test_help_and_usage_errors_match_the_golden_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in HELP_GOLDEN_ARGVS:
        code, out, err = run(capsys, *argv)
        assert code == (0 if "--help" in argv else 2), argv
        digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == HELP_GOLDEN_SHA256


# The 15 parsers, by the argv that reaches each.  A call builds only the branch
# its argv names, so each parser is checked as a branch against the whole tree.
PARSER_GROUPS = ((), ("subsets",), ("density",), ("chains",))
PARSER_LEAVES = (
    ("diagonal",),
    *(("subsets", leaf) for leaf in ("rank", "unrank", "dovetail", "figure1", "table1")),
    *(("density", leaf) for leaf in ("rho", "figure2", "grid")),
    *(("chains", leaf) for leaf in ("analyze", "preset")),
)


def parse_exit(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("path", PARSER_GROUPS + PARSER_LEAVES,
                         ids=lambda path: " ".join(path) or "top")
def test_a_parser_built_as_a_branch_reads_as_in_the_whole_tree(capsys, path):
    usage_error = () if path in PARSER_GROUPS else ("--format", "xml")
    for argv in ([*path, "--help"], [*path, *usage_error]):
        branch = parse_exit(capsys, cli.build_parser(argv), argv)
        assert branch == parse_exit(capsys, cli.build_parser(), argv), argv
        code, out, err = branch
        assert code == (0 if "--help" in argv else 2) and "usage: diagbench" in out + err
    if path in PARSER_LEAVES:  # every other leaf is left bare, without its options
        branch = cli.build_parser(path)
        for other in set(PARSER_LEAVES) - {path}:
            assert "--output" not in parse_exit(capsys, branch, [*other, "--help"])[1], other


def test_a_branch_keeps_every_name_for_the_usage_of_its_parents(capsys):
    # Arguments left over after a leaf has parsed are refused by the top parser.
    for argv in (["diagonal", "--family", "alt-24", "extra"], ["subsets", "dovetail", "--bogus"],
                 ["chains", "preset", "cda", "extra"]):
        branch = parse_exit(capsys, cli.build_parser(argv), argv)
        assert branch == parse_exit(capsys, cli.build_parser(), argv), argv
        assert "{diagonal,subsets,density,chains}" in branch[2]


@pytest.mark.parametrize("columns", [None, "", "0", "-3", "abc", "120"])
def test_the_help_width_follows_the_terminal_size_rule(monkeypatch, columns):
    # The CLI's formatter finds this width without importing shutil.
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    with open(os.devnull, "w", encoding="utf-8") as null:  # stdout not a terminal
        monkeypatch.setattr(sys, "__stdout__", null)
        want = shutil.get_terminal_size().columns - 2
        assert cli._Formatter("diagbench")._width == want
    assert want == (118 if columns == "120" else 78)


# --- the JSON encoder -------------------------------------------------------------

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.text(),  # non-ASCII, control characters, quotes and backslashes
    st.fractions(),
)
_json_payloads = st.recursive(
    st.one_of(
        _json_scalars,
        st.lists(st.integers(), min_size=1),  # the int-only fast paths
        st.dictionaries(st.integers(), st.integers(), min_size=1),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(), st.booleans(), st.none()),
                        inner, max_size=6),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_json_payloads)
@example({"empty": [], "one": [[]]})
def test_json_chunks_equal_json_dumps(payload):
    chunks = render._json_chunks(payload)
    assert all(isinstance(chunk, str) for chunk in chunks)
    assert "".join(chunks) == json.dumps(payload, indent=2, default=render._frac) + "\n"
    nested = json.dumps(payload, indent=2, default=render._frac).replace("\n", "\n  ")
    assert "".join(render._json_chunks(payload, "\n  ")) == nested
    if isinstance(payload, dict):  # a list value given as an iterator renders as the list
        lazy = {k: iter(v) if isinstance(v, list) else v for k, v in payload.items()}
        assert "".join(render._json_chunks(lazy)) == "".join(chunks)


def family_runs(below, size, j):
    """A family scan's runs map on keys 1..size: n -> n up to below, then
    below + 1 -> j, then n -> below + 1."""
    keys = range(1, size + 1)
    return diagonal._Runs(((keys[:below], None), (keys[below:below + 1], j),
                           (keys[below + 1:], below + 1)))


def list_runs(values):
    """An explicit scan's runs map: n -> values[n - 1] on keys 1..len(values)."""
    return diagonal._Runs(((range(1, len(values) + 1), values),))


def test_int_maps_render_in_blocks_equal_to_json_dumps():
    # A list run renders a chunk per _BLOCK members; a plain int dict, as any dict.
    block = render._BLOCK
    wide = [-n for n in range(-5000, 5001)]  # 10**4 + 1 members, several blocks
    wide[5000] = 7 * 10**3999 + 1  # 4000 digits, under Python's limit for a str
    maps = [list_runs(wide), list_runs([-wide[5000]]),
            *(list_runs([k] * k) for k in (block - 1, block, block + 1, 2 * block, 2 * block + 1))]
    for first in maps:
        payload = {"first_difference": first, "n": len(first)}
        chunks = render._json_chunks(payload)
        want = json.dumps({**payload, "first_difference": dict(first)}, indent=2) + "\n"
        assert "".join(chunks) == want
        assert "".join(render._json_chunks({**payload, "first_difference": dict(first)})) == want
        assert len(render._json_chunks(first, "\n  ")) == 2 * -(-len(first) // block) + 1


def test_scan_runs_render_as_their_dict(monkeypatch):
    # A scan's map is int-to-int by construction: it takes the block path
    # unscanned, and renders as json.dumps renders the dict it equals.  These
    # payloads hold no list, so a list scanned is an explicit scan's run.
    scan = render._ints

    def ints(values):
        assert type(values) not in (diagonal._Runs, ValuesView, list), "a runs map was scanned"
        return scan(values)

    monkeypatch.setattr(render, "_ints", ints)
    block = render._BLOCK
    found_at_1 = family_runs(0, 0, None)
    one_run = family_runs(5, 5, None)
    shapes = [(0, 3, 2), (5, 9, 7), (0, 2 * block + 1, 2), *(
        (m - 1, size, m + 3) for m in (block, block + 1) for size in (m, m + 1, 2 * block))]
    rows = [format(n % 7, "03b") for n in range(2 * block + 1)]  # no row is "111"
    explicit = diagonal.membership_scan(diagonal.ArraySpec.explicit(rows), "111", len(rows))
    maps = [found_at_1, one_run, *(family_runs(*shape) for shape in shapes),
            explicit.first_difference]
    for first in maps:
        payload = {"scan_depth": len(first), "found_at": None, "first_difference": first}
        want = json.dumps({**payload, "first_difference": dict(first)}, indent=2) + "\n"
        assert "".join(render._json_chunks(payload)) == want
        chunks = render._json_chunks(first, "\n  ")
        assert "".join(chunks) == json.dumps(dict(first), indent=2).replace("\n", "\n  ")
        assert len(chunks) == 2 * sum(-(-len(keys) // block) for keys, _ in first.runs()) + 1
    assert render._json_chunks(found_at_1) == ["{}", "\n"]


def test_scan_runs_render_by_hundreds_as_their_dict():
    # A family scan's run renders each whole hundred of its keys by one join and
    # the keys around them one by one.  Its runs here start and end on both sides
    # of a hundred and of a block's edge, lie below 100, or hold one member; the
    # last run is constant, as in a miss (below 5, j 7), or absent, as in a full scan.
    block = render._BLOCK
    lengths = (0, 1, 2, 3, 99, 100, 101, 102, 199, block, block + 1, block + 2, block + 150)
    for below in (0, 1, 5, 97, 98, 99, 100, 101, 199, block - 1, block, block + 1):
        for size in (below + n for n in lengths):
            first = family_runs(below, size, below + 2 if size > below else None)
            want = json.dumps(dict(first.items()), indent=2)
            assert "".join(render._json_chunks(first)) == want + "\n", (below, size)
            nested = "".join(render._json_chunks(first, "\n    "))
            assert nested == want.replace("\n", "\n    "), (below, size)


def test_maps_with_a_bool_or_a_float_are_not_int_maps(monkeypatch):
    # The int-map runs spell each value by str, True as True where JSON has true:
    # these maps, with a bool or a float, take the generic member path.
    monkeypatch.setitem(render._SCALARS, float, repr)  # json.dumps's text for a float
    for first in ({True: 1}, {1: 2, False: 3}, {1: True}, {1: 2, 3: False},
                  {1: 1.5}, {1: 2, 3: 4.0}, {1.5: 2}):
        payload = {"first_difference": first}
        assert "".join(render._json_chunks(payload)) == json.dumps(payload, indent=2) + "\n"
        chunks = render._json_chunks(first, "\n  ")
        assert "".join(chunks) == json.dumps(first, indent=2).replace("\n", "\n  ")
        assert len(chunks) == 2 * len(first) + 1  # an opening, then a member and a comma each


def test_chunk_counts_follow_the_rule():
    # Items of a list stay whole, nested dicts or not; a dict's members split
    # to any depth, a member with a scalar value whole; an empty iterator is one "[]".
    items = [{"a": [1, "x"]}, [True, None], "s", 5, (1, 2)]
    chunks = render._json_chunks(items)
    assert len(chunks) == 2 * len(items) + 2  # an opening, item and comma each, a newline
    assert chunks[1:-2:2] == [json.dumps(item, indent=2).replace("\n", "\n  ") for item in items]
    c = {"kind": "converges", "limit": Fraction(1, 2), "tolerance": Fraction(1, 100)}
    payload = {"pair": "x/y", "classification": c, "annotations": {"P": {"Q": "R"}}}
    chunks = render._json_chunks(payload)
    # An opening; per member with a scalar value the member and a comma, per other
    # member a key, its value's chunks and a comma (the last comma is the closing);
    # a newline.
    classification = 1 + 3 * 2  # an opening and three scalar members
    annotations = 1 + (1 + (1 + 2) + 1)  # {"P": {"Q": "R"}}
    assert len(chunks) == 1 + 2 + (1 + classification + 1) + (1 + annotations + 1) + 1
    assert "".join(chunks) == json.dumps(payload, indent=2, default=render._frac) + "\n"
    assert render._json_chunks(iter(())) == ["[]", "\n"]
    assert render._json_chunks({"subsets": iter(())}) == ["{\n  ", '"subsets": ', "[]", "\n}", "\n"]
    for scalar in ([], {}, [1, 2], "x", None):
        want = json.dumps(scalar, indent=2).replace("\n", "\n  ")
        assert render._json_chunks(scalar, "\n  ") == [want]


def test_no_chunk_of_a_scan_sized_int_map_exceeds_two_blocks():
    first = list_runs(list(range(1, 10**5 + 1)))
    chunks = render._json_chunks({"first_difference": first})
    member = len(',\n    "100000": 100000')  # the longest member, with its separator
    assert max(map(len, chunks)) <= 2 * render._BLOCK * member
    payload = {"first_difference": dict(first)}
    assert "".join(chunks) == json.dumps(payload, indent=2) + "\n"
    assert "".join(render._json_chunks(payload)) == json.dumps(payload, indent=2) + "\n"


def _int_lists(monkeypatch):
    """Lists of ints at and past the ends of cli's table of int texts, and lists
    that mix in a bool or a float, which must not read the table."""
    # The CLI prints no float; json.dumps's text for one is its repr.
    monkeypatch.setitem(render._SCALARS, float, repr)
    render._join_ints(",", [0, 1])  # fills the table
    top = max(render._INT_TEXTS)
    huge = 7 * 10**3999 + 1  # 4000 digits, under Python's limit for a str
    ints = [[], [0], [top + 1], [0, top], [top, top + 1], [top + 1, 0, top],
            [-1, 0, 1], [-top, top], [huge, -huge, 0], list(range(top + 3))]
    mixed = [[0, True], [True, False], [1, 1.0], [False, 0, 2], [top, 1.5, top + 1]]
    return ints, mixed


def test_int_texts_equal_json_dumps_and_a_str_join(monkeypatch):
    ints, mixed = _int_lists(monkeypatch)
    for values in ints:
        for seq in (values, tuple(values)):
            want = json.dumps(seq, indent=2).replace("\n", "\n  ")
            assert "".join(render._json_chunks(seq, "\n  ")) == want
            assert render._join_ints(" ", seq) == " ".join(map(str, seq))
    for values in mixed:
        assert "".join(render._json_chunks(values)) == json.dumps(values, indent=2) + "\n"
        assert "".join(render._json_chunks({"v": values})) == json.dumps({"v": values}, indent=2) + "\n"


def test_threads_that_fill_the_int_table_write_the_same_bytes(monkeypatch):
    ints, mixed = _int_lists(monkeypatch)
    payload = {"ints": ints, "mixed": mixed, "more": [list(range(k)) for k in range(600)]}
    want_json = json.dumps(payload, indent=2) + "\n"
    want_cells = [" ".join(map(str, values)) for values in ints]
    monkeypatch.setattr(render, "_INT_TEXTS", {})  # unfilled: each thread may fill it
    barrier = threading.Barrier(8)

    def rendered(_):
        barrier.wait()
        return "".join(render._json_chunks(payload)), [render._join_ints(" ", v) for v in ints]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over often, inside the fill too
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(rendered, range(8), timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert results == [(want_json, want_cells)] * 8


def test_a_failure_while_rendering_writes_nothing(tmp_path, capsys, monkeypatch):
    # The rank of this subset has more digits than Python turns into a str, so
    # RANK_CAP refuses it.  Above a raised cap it fails while rendering: the
    # elements before it render fine, and none of them may reach stdout.
    argv = ("subsets", "rank", "--elements", f"0,1,{10**4299}")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: CapExceeded: ")
    monkeypatch.setattr(subsets, "RANK_CAP", 10**13000)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ValueError: ")
    target = tmp_path / "rank.json"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ValueError: ")
    # The sweep is rendered as it yields, but its count is checked before.
    for count, name in ((-1, "DomainError"), (subsets.DOVETAIL_CAP + 1, "CapExceeded")):
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, "subsets", "dovetail", "--count", str(count),
                                 "--format", fmt, "--output", str(target))
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith(f"error: {name}: ")
    assert list(tmp_path.iterdir()) == []


# --- exit codes -----------------------------------------------------------------


def test_domain_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "diagonal", "--family", "lower-tri-22", "--depth", "0")
    assert code == 2
    assert err.startswith("error: DomainError:")

    code, _, err = run(capsys, "chains", "analyze", "--expr", "garbage")
    assert code == 2
    assert "ChainSyntaxError" in err and "position 8" in err

    code, _, err = run(capsys, "diagonal", "--family", "decimal-29")
    assert code == 2
    assert "DomainError" in err

    code, _, err = run(capsys, "diagonal", "--family", "lower-tri-22",
                       "--candidate", "abc")
    assert code == 2

    code, _, err = run(capsys, "density", "rho", "--a", "even", "--b", "nat",
                       "--schedule", "1,2,3")
    assert code == 2
    assert "BadSchedule" in err

    code, _, err = run(capsys, "diagonal", "--explicit", "/no/such/file")
    assert code == 2

    wide = tmp_path / "wide.txt"
    wide.write_text("0110\n1011\n", encoding="utf-8")
    code, out, err = run(capsys, "diagonal", "--explicit", str(wide))
    assert code == 2 and out == ""
    assert err == ("error: DomainError: explicit array of 2 rows of length 4 "
                   "has no full antidiagonal; give a candidate\n")

    code, out, err = run(capsys, "subsets", "table1", "--n", "40", "--labels", "n/2-\u0663")
    assert code == 2 and out == ""
    assert err == "error: DomainError: unknown ratio-table label 'n/2-\u0663'\n"


def test_output_to_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, "subsets", "figure1", "--output", str(target))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: FileNotFoundError: [Errno 2] No such file or directory: {str(target)!r}"
    ]
    assert not target.parent.exists()


def test_an_empty_output_path_exits_2(tmp_path, capsys, monkeypatch):
    # os.path.realpath("") is the working directory: a write through it would
    # leave its temp file in the parent.  An unset "$OUT" gives this argv.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    before = sorted(work.iterdir()), sorted(tmp_path.iterdir())
    code, out, err = run(capsys, "subsets", "rank", "--elements", "1,3", "--output", "")
    assert code == 2 and out == ""
    assert err == "error: FileNotFoundError: [Errno 2] No such file or directory: ''\n"
    assert (sorted(work.iterdir()), sorted(tmp_path.iterdir())) == before


def test_failed_output_write_leaves_the_old_file_whole(tmp_path, capsys, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_text("previous\n", encoding="utf-8")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr("os.replace", refuse)
    code, out, err = run(capsys, "subsets", "figure1", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: PermissionError:") and len(err.splitlines()) == 1
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_output_replaces_an_existing_file_through_a_symlink(tmp_path, capsys):
    real = tmp_path / "real.csv"
    real.write_text("a much longer previous content\n" * 10, encoding="utf-8")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    _, out, _ = run(capsys, "subsets", "figure1", "--n", "2")
    assert main(["subsets", "figure1", "--n", "2", "--output", str(link)]) == 0
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_output_to_a_pipe_is_written_in_place(tmp_path, capsys):
    _, out, _ = run(capsys, "subsets", "figure1", "--n", "2")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["subsets", "figure1", "--n", "2", "--output", str(fifo)]) == 0
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert got.decode("utf-8") == out
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


# Arabic-Indic 33, superscript 2, and a row that a chain script would skip
@pytest.mark.parametrize("row", ["\u0663\u0663", "\u00b2", "#3"])
def test_non_ascii_digit_rows_exit_2(tmp_path, capsys, row):
    path = tmp_path / "rows.txt"
    path.write_text(row + "\n", encoding="utf-8")
    code, out, err = run(capsys, "diagonal", "--explicit", str(path), "--candidate", "33")
    assert code == 2 and out == ""
    assert err == f"error: DomainError: row {row!r} contains a non-digit\n"


def test_a_file_with_several_faults_names_its_first(tmp_path, capsys):
    path = tmp_path / "rows.txt"
    path.write_text("12\n\n1a\n123\n\u06634\n", encoding="utf-8")
    code, out, err = run(capsys, "diagonal", "--explicit", str(path))
    assert code == 2 and out == ""
    assert err == "error: DomainError: row '1a' contains a non-digit\n"


def test_an_explicit_file_is_bounded_by_its_characters(tmp_path, capsys, monkeypatch):
    path = tmp_path / "rows.txt"
    outs = set()
    # The bound counts characters as read, where "\r\n" is one "\n".
    for text in ("12345\n", "12345\r\n", "12345", "\n 12345 \n\n"):
        path.write_bytes(text.encode())
        size = len(text.replace("\r\n", "\n"))
        monkeypatch.setattr(cli, "FILE_CAP", size)
        code, out, err = run(capsys, "diagonal", "--explicit", str(path), "--candidate", "12344")
        assert code == 0 and err == ""
        outs.add(out)
        monkeypatch.setattr(cli, "FILE_CAP", size - 1)
        code, out, err = run(capsys, "diagonal", "--explicit", str(path), "--candidate", "12344")
        assert code == 2 and out == ""
        assert err == f"error: CapExceeded: file longer than {size - 1} characters\n"
    (out,) = outs
    assert json.loads(out)["first_difference"] == {"1": 5}
    # Spaces inside a line are kept: the line is refused, never split into rows.
    monkeypatch.undo()
    path.write_text("12" + " " * 10 + "34\n")
    code, out, err = run(capsys, "diagonal", "--explicit", str(path))
    assert code == 2 and out == ""
    assert err == f"error: DomainError: row {'12' + ' ' * 10 + '34'!r} contains a non-digit\n"


def test_lines_match_a_split_on_line_feeds(tmp_path):
    # Only "\n" ends a line; the other line breaks that str.splitlines knows
    # are whitespace that strip removes at a line's ends and keeps inside it.
    rng = random.Random(15)
    alphabet = ["\n", "\r", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "1", "7", "#", "a"]
    path = tmp_path / "lines.txt"
    for _ in range(2000):
        text = "".join(rng.choices(alphabet, k=rng.randrange(24)))
        path.write_text(text, encoding="utf-8", newline="")
        read = path.read_text(encoding="utf-8")  # "\r\n" and "\r" read as "\n"
        assert list(cli._lines(path)) == list(filter(None, map(str.strip, read.split("\n"))))


def test_closed_form_mismatch_exits_2(capsys, monkeypatch):
    from diagbench import subsets

    monkeypatch.setattr(subsets, "ratio_q", lambda n, d: 0)
    code, out, err = run(capsys, "subsets", "table1", "--n", "40", "--labels", "n/4")
    assert code == 2 and out == ""
    assert err == "error: ClosedFormMismatch: closed form for n/4 disagrees at n=40\n"


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "diagonal", "--bogus")[0] == 2
    assert run(capsys, "subsets")[0] == 2
    assert run(capsys, "chains", "preset", "classic")[0] == 2
    assert run(capsys, "diagonal")[0] == 2  # needs --family or --explicit


# --- generated argument lists ----------------------------------------------------

_small = st.integers(min_value=-2, max_value=30)
_junk = st.text(alphabet="0123456789(),-~&=<>PQRx ", max_size=12)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _argv(head, *flags):
    return st.tuples(*flags).map(lambda parts: [*head, *(a for p in parts for a in p)])


_literal = st.builds(
    lambda pre, per: f"{pre}({per})",
    st.text(alphabet="0123456789", max_size=4),
    st.text(alphabet="0123456789", max_size=4),
)
_diagonal_argvs = _argv(
    ["diagonal"],
    st.one_of(
        st.sampled_from([f.value for f in diagonal.Family]).map(lambda f: ["--family", f]),
        st.just(["--explicit", str(DATA / "b4.txt")]),
    ),
    _flag("--depth", _small),
    _flag("--prefix", _small),
    _flag("--candidate", st.one_of(_literal, _junk)),
    _flag("--seed", st.integers(min_value=0, max_value=2**64)),
    _flag("--antidiag", st.one_of(_literal, _junk)),
    st.sampled_from([[], ["--randomize-subdiagonal"]]),
    _flag("--format", st.sampled_from(["json", "csv"])),
)
_subsets_argvs = st.one_of(
    _argv(["subsets", "rank"], _flag("--elements", _junk)),
    _argv(
        ["subsets", "unrank"],
        _flag("--p", st.integers(min_value=-1, max_value=40)),
        _flag("--r", st.integers(min_value=-1, max_value=10**6)),
    ),
    _argv(["subsets", "dovetail"], _flag("--count", st.integers(min_value=-1, max_value=50))),
    _argv(["subsets", "figure1"], _flag("--n", st.integers(min_value=-2, max_value=40))),
    _argv(
        ["subsets", "table1"],
        _flag("--n", st.integers(min_value=-2, max_value=40)),
        _flag("--labels", st.one_of(
            st.lists(st.sampled_from(subsets.TABLE1_LABELS), max_size=4).map(",".join),
            _junk,
        )),
    ),
)
_formulas = st.sampled_from([f.value for f in density.PhiFormula])
_density_argvs = st.one_of(
    _argv(
        ["density", "rho"],
        _flag("--a", _formulas),
        _flag("--b", _formulas),
        _flag("--schedule", st.one_of(
            st.lists(st.integers(min_value=-1, max_value=40), max_size=6).map(
                lambda ns: ",".join(map(str, ns))
            ),
            _junk,
        )),
    ),
    _argv(["density", "figure2"], _flag("--max", st.integers(min_value=-1, max_value=1000))),
    _argv(["density", "grid"], _flag("--n", st.integers(min_value=-1, max_value=40))),
)
_chain_texts = st.builds(
    lambda links, end: " ".join(["~P", *(f"{c} Q{i}" for i, c in enumerate(links)), end]),
    st.lists(st.sampled_from(["=>", "<=>", "&", "~"]), max_size=6),
    st.sampled_from(["=> CONTRA", "<=> P", "=> R & ~R", "=> P & ~P", "=> Q0", ""]),
)
_chains_argvs = st.one_of(
    _argv(["chains", "analyze"], _flag("--expr", st.one_of(_chain_texts, _junk))),
    _argv(["chains", "preset"], st.one_of(
        st.sampled_from(sorted(chains.PRESET_TEXTS)).map(lambda name: [name]),
        _junk.map(lambda name: [name]),
    )),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_diagonal_argvs, _subsets_argvs, _density_argvs, _chains_argvs))
def test_generated_argvs_exit_0_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue()
        return
    assert code == 2 and out.getvalue() == ""
    *head, last = err.getvalue().splitlines()
    if head:  # argparse: a usage block, then "PROG: error: ..."
        assert head[0].startswith("usage: ")
        assert re.match(r"diagbench[a-z0-9 ]*: error: ", last)
    else:
        assert last.startswith("error: ")


# --- determinism ------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(capsys):
    for argv in COMMANDS:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


def test_output_file_matches_stdout(tmp_path, capsys):
    argv = ("density", "rho", "--a", "nat", "--b", "int")
    _, out, _ = run(capsys, *argv)
    path = tmp_path / "rho.json"
    assert main([*argv, "--output", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text(encoding="utf-8") == out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diagbench", "subsets", "rank", "--elements", "1,3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"elements": [1, 3], "rank": 4}


# Modules a CLI call should load only when it needs them: dataclasses alone
# pulls in inspect, ast, dis and tokenize, each kernel costs a compile where
# bytecode is not cached, the CLI never decodes JSON, and argparse's help
# formatter imports shutil, with bz2, lzma and fnmatch, only to find its width.
WATCHED = {"dataclasses", "inspect", "typing", "json.decoder", "shutil",
           *(f"diagbench.{name}" for name in
             ("chains", "density", "diagonal", "subsets", "eps", "rng"))}


def watched_after(code):
    """The WATCHED modules loaded, sorted, once code has run in a fresh child.

    -S keeps site's own imports out of the count.
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys\n{code}\nprint(sorted({WATCHED!r} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_stays_light():
    assert watched_after("import diagbench.cli") == "[]\n"


def test_without_the_c_json_module_the_output_is_the_same(capsys):
    # sys.modules["_json"] = None makes `from _json import ...` fail, so the CLI
    # takes json.encoder's encoder, and json.encoder its pure-Python one.
    argvs = [["chains", "analyze", "--script", str(DATA / "chains.txt")],
             next(golden_argvs())]
    expected = ""
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        expected += out
    source = ("import sys\nsys.modules['_json'] = None\n"
              "import diagbench.cli as cli\nimport diagbench.render\nimport json.encoder\n"
              "assert diagbench.render.encode_basestring_ascii is "
              "json.encoder.py_encode_basestring_ascii\n"
              f"for argv in {argvs!r}:\n    assert cli.main(argv) == 0")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", source],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode()


@pytest.mark.parametrize("argv,loaded", [
    (("diagonal", "--family", "lower-tri-22", "--depth", "3"),
     ["diagbench.diagonal", "diagbench.eps", "diagbench.rng"]),  # diagonal's own imports
    (("subsets", "rank", "--elements", "1"), ["diagbench.subsets"]),
    (("density", "grid", "--n", "2"), ["diagbench.density"]),
    (("chains", "preset", "cda"), ["diagbench.chains"]),
], ids=("diagonal", "subsets", "density", "chains"))
def test_a_call_loads_only_its_own_kernel(argv, loaded):
    argv = [*argv, "--output", os.devnull]
    code = f"import diagbench.cli\nassert diagbench.cli.main({argv!r}) == 0"
    assert watched_after(code) == f"{loaded}\n"


def test_the_parser_choice_names_match_their_kernels():
    # build_parser takes these as literals so that it imports no kernel.
    assert list(cli._FAMILIES) == [f.value for f in diagonal.Family]
    assert list(cli._FORMULAS) == [f.value for f in density.PhiFormula]
    assert list(cli._PRESETS) == sorted(chains.PRESET_TEXTS)
