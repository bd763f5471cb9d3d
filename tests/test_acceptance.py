"""Acceptance gate: one test per headline requirement, with runtime budgets.

Run with -v to get one pass/fail line per requirement.  Each test is
self-contained and checks its own wall-clock budget, so a pass means both
"the numbers are exactly right" and "at the promised scale".
"""

import concurrent.futures
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import diagbench

from diagbench.chains import (
    CHAIN_CAP,
    ChainPattern,
    cda_preset,
    classify,
    detect_inconceivable,
    entailment_closure,
    parse_chain,
    preset,
    verdict,
)
from diagbench.cli import CSV_CELL_CAP, FILE_CAP, SCRIPT_CAP, main
from diagbench.density import (
    EXPONENTIAL_CAP,
    GRID_CAP,
    WORK_CAP,
    PhiFormula,
    correction_factor,
    default_schedule,
    figure2_data,
    grid_6_4,
    rho_finite,
    rho_limit,
    totient_sieve,
)
from diagbench.diagonal import (
    EXPLICIT_CELL_CAP,
    SCAN_CAP,
    UNIVERSE_CAP,
    ArraySpec,
    Family,
    antidiagonal_rule,
    diagonal_cover,
    enumerate_universe,
    membership_scan,
    row_digit,
)
from diagbench.eps import EventuallyPeriodicString as EPS
from diagbench.subsets import (
    DOVETAIL_CAP,
    UNRANK_BITS_CAP,
    UNRANK_P_CAP,
    FiniteSubset,
    binomial,
    complement,
    complement_inv,
    decode_subset,
    dovetail_enumerate,
    encode_subset,
    extend_subsets,
    figure1_data,
    rank,
    ratio_q,
    table1_values,
    unrank,
    verify_ratio_law,
)

from helpers import (
    B4_ROWS,
    bytewise_bits,
    chain_edges,
    colex_rank,
    kernel_work,
    random_chain_text,
    random_row,
    reachable_by_paths,
)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"took {elapsed:.2f}s, budget {self.seconds}s"


def test_square_universe_reproduction():
    budget = Budget(1)
    universe = enumerate_universe(4, 2)
    assert len(universe) == 16
    assert set(universe) == set(B4_ROWS)
    report = membership_scan(ArraySpec.explicit(B4_ROWS), "1111", depth=16)
    assert report.antidiagonal == "1111"
    assert report.found_at == 16
    assert diagonal_cover(4) == Fraction(1, 4)
    budget.check()


def test_each_universe_cap_fits_the_budget():
    # As children on 2 CPUs: binary at 23 about 4.7 s and 0.72 GB, decimal at
    # 7 under 3 s and 0.70 GB.  Binary at 24 took 9.3 s and 1.4 GB.
    for radix, n in UNIVERSE_CAP.items():
        code = (f"from diagbench.diagonal import enumerate_universe as u; "
                f"assert len(u({n}, {radix})) == {radix}**{n}")
        wall, peak_mb = _child("-c", code)
        assert wall < 10, f"radix {radix}: took {wall:.2f}s, budget 10s"
        assert peak_mb < 1024, f"radix {radix}: peak RSS {peak_mb:.0f} MB, budget 1024 MB"


def test_a_literal_filling_one_argument_parses_within_budget():
    # P(P) with a 64,000-digit P fills most of one 128 KiB argv string; the
    # whole preperiod is absorbed into the period.  About 0.06 s on a 2-vCPU VM.
    rng = random.Random(64000)
    p = "".join(rng.choice("0123456789") for _ in range(64000))
    budget = Budget(1)
    s = EPS.parse(f"{p}({p})", 10)
    budget.check()
    assert s.render() == f"({p})"


def test_cover_ratio_trend():
    budget = Budget(1)
    covers = [diagonal_cover(n) for n in range(1, 61)]
    for n, c in enumerate(covers, start=1):
        assert c == Fraction(n, 2**n)
    assert all(x >= y for x, y in zip(covers, covers[1:]))
    assert covers[-1] < Fraction(1, 10**15)
    budget.check()


def test_rule_family_scans():
    budget = Budget(30)
    depth = 10**4
    stream = EPS.constant(10, 3)
    stated = {
        Family.LOWER_TRI_22: "(1)",
        Family.UPPER_TRI_23: "(0)",
        Family.ALT_24: "(10)",
        Family.ALT_25: "(01)",
        Family.RANDOM_BELOW_26: "(1)",
        Family.DECIMAL_29: "(3)",
    }
    for kind in Family:
        spec = (
            ArraySpec.family(kind, antidiag_digits=stream)
            if kind is Family.DECIMAL_29
            else ArraySpec.family(kind)
        )
        anti = antidiagonal_rule(spec)
        assert anti.render() == stated[kind]
        for n in range(1, depth + 1):
            assert row_digit(spec, n, n) != anti.digit_at(n)
        report = membership_scan(spec, anti, depth=depth)
        assert report.found_at is None
        assert all(report.first_difference[n] == n for n in range(1, depth + 1))
    seeds = [
        antidiagonal_rule(ArraySpec.family(Family.RANDOM_BELOW_26, seed=s))
        for s in range(10)
    ]
    assert len(set(seeds)) == 1
    budget.check()


def test_family_csv_reaches_the_cell_cap(tmp_path):
    # The random-tail worst case: one string whose every cell past the
    # diagonal is a seeded random draw, about 1.5 s on a 2-vCPU VM.
    budget = Budget(15)
    width = CSV_CELL_CAP
    path = tmp_path / "rows.csv"
    argv = ["diagonal", "--family", "random-below-26", "--seed", "5", "--depth", "1",
            "--prefix", str(width), "--format", "csv", "--output", str(path)]
    assert main(argv) == 0
    budget.check()
    header, line, end = path.read_text(encoding="utf-8").split("\n")
    assert (header, end) == ("n,digits", "")
    digits = line.removeprefix("1,")
    assert len(digits) == width and digits[0] == "0"
    spec = ArraySpec.family(Family.RANDOM_BELOW_26, seed=5)
    for j in (2, 3, width // 2, width):
        assert digits[j - 1] == str(row_digit(spec, 1, j))


def test_a_random_tail_read_cell_by_cell_fits_the_budget():
    # row_digit hashes its one cell on its own, so a walk along a string stays
    # linear in its length: about 0.3 s for these 10**5 cells on a 2-vCPU VM.
    budget = Budget(5)
    spec = ArraySpec.family(Family.RANDOM_BELOW_26, seed=5)
    digits = []
    for j in range(2, 10**5 + 1):
        digits.append(str(row_digit(spec, 1, j)))
        if j % 1000 == 0:  # a quadratic walk fails here, not hours later
            budget.check()
    assert "".join(digits) == random_row(5, 1, 10**5, 2)


def test_binomial_suite():
    budget = Budget(10)
    for n in range(257):
        assert sum(binomial(n, p) for p in range(n + 1)) == 2**n
    rng = random.Random(20260818)
    for _ in range(10**4):
        n = rng.randint(1, 300)
        p = rng.randint(0, n - 1)
        assert verify_ratio_law(n, p)
    for n in range(2, 257, 2):
        for d in range(n // 2):
            assert binomial(n, n // 2 + d + 1) == binomial(n, n // 2 + d) * ratio_q(n, d)
    rows = table1_values(2520)
    assert len(rows) == 24
    coeffs, ratios = figure1_data(40)
    values = [c for _, c in coeffs]
    assert max(values) == 137846528820
    assert values.index(137846528820) == 20
    assert ratios[0][1] == Fraction(20, 21)
    assert ratios[-1][1] == Fraction(1, 40)
    budget.check()


def test_enumeration_suite():
    budget = Budget(10)
    for p in range(1, 6):
        for r in range(10**4 + 1):
            s = unrank(p, r)
            assert rank(s) == r
    assert rank(unrank(0, 0)) == 0
    for b in range(1, 21):
        level = [FiniteSubset()]
        for p in range(1, min(6, b) + 1):
            level = extend_subsets(level, b)
            assert len(level) == binomial(b, p)
    seen = dovetail_enumerate(10**4)
    assert len(set(seen)) == len(seen)
    for m in range(8):
        assert decode_subset(m) in seen
    for m in range(2**16):
        assert encode_subset(decode_subset(m)) == m
    rng = random.Random(7)
    for _ in range(100):
        elems = tuple(sorted(rng.sample(range(65), rng.randint(0, 10))))
        s = FiniteSubset(elems)
        assert complement_inv(complement(s)) == s
    budget.check()


def test_a_million_bit_code_decodes_within_budget():
    # A shift of the whole code per bit, quadratic in its length, took 21 s
    # here on a 2-vCPU VM; reading the bits from bin(m) takes about 0.2 s.
    # Encoding it back as a sum of shifts, also quadratic, took 13 s; one
    # base-2 parse takes about 0.03 s.
    m = random.Random(11).getrandbits(10**6) | 1 << (10**6 - 1)
    budget = Budget(2)
    s = decode_subset(m)
    code = encode_subset(s)
    budget.check()
    assert s.elements == bytewise_bits(m) and s.elements[-1] == 10**6 - 1
    assert code == m


def test_dovetail_reaches_its_cap():
    # The sweep at its cap: about 0.6 s on a 2-vCPU VM; with the checks below,
    # the test takes about 2.4 s.
    budget = Budget(5)
    seen = dovetail_enumerate(DOVETAIL_CAP)
    budget.check()
    assert len(seen) == DOVETAIL_CAP
    for s in seen:
        assert set(map(type, s.elements)) <= {int} and s == FiniteSubset(s.elements)
    # Index k >= 1 is stage t, cardinality p, with k = t(t-1)/2 + p and rank t - p.
    k = DOVETAIL_CAP - 1
    t = 1
    while t * (t + 1) // 2 < k:
        t += 1
    p = k - t * (t - 1) // 2
    assert len(seen[-1]) == p and colex_rank(seen[-1].elements) == t - p


@pytest.mark.parametrize("fmt, head", [
    ("json", f'{{\n  "count": {DOVETAIL_CAP},\n  "subsets": [\n    [],\n    [\n      0\n    ],\n'),
    ("csv", "index,elements\n0,\n1,0\n2,1\n3,0 1\n"),
], ids=["json", "csv"])
def test_dovetail_at_its_cap_fits_the_budget(tmp_path, fmt, head):
    # The CLI child at the cap, rendering as the sweep yields: 1.6-2.8 s and
    # 176 MB (JSON) or 1.0-1.6 s and 75 MB (CSV) on 2 CPUs.  With the whole
    # subset list held before rendering, both formats took over 300 MB here.
    out = tmp_path / f"dovetail.{fmt}"
    wall, peak_mb = _cli_child("subsets", "dovetail", "--count", DOVETAIL_CAP,
                               "--format", fmt, "--output", out)
    assert wall < 10, f"took {wall:.2f}s, budget 10s"
    assert peak_mb < 256, f"peak RSS {peak_mb:.0f} MB, budget 256 MB"
    with open(out, encoding="utf-8") as fh:
        assert fh.read(len(head)) == head


def test_an_over_cap_rank_exits_2_before_its_sum(capsys):
    # Before RANK_CAP each of these summed for 24 to 165 s on a 2-vCPU VM, only
    # to fail on printing a rank of more than 4300 digits.
    for count, near in ((1500, 10**80), (6000, 10**9), (11000, 10**9)):
        elements = ",".join(str(near + 1000 * k) for k in range(count))
        budget = Budget(1)
        code = main(["subsets", "rank", "--elements", elements])
        budget.check()
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: CapExceeded: rank of {count} elements at or above cap 10**4300\n"


def test_density_suite():
    budget = Budget(20)
    expected = {
        (PhiFormula.EVEN, PhiFormula.NAT): Fraction(1, 2),
        (PhiFormula.NAT, PhiFormula.INT): Fraction(1, 2),
        (PhiFormula.NAT, PhiFormula.RAT_PAPER): Fraction(0),
        (PhiFormula.NAT, PhiFormula.REAL): Fraction(0),
        (PhiFormula.RAT_PAPER, PhiFormula.REAL): Fraction(0),
        (PhiFormula.REAL, PhiFormula.COMPLEX): Fraction(0),
    }
    for (a, b), limit in expected.items():
        est = rho_limit(a, b, default_schedule(a, b))
        kind = "converges" if limit else "tends-to-zero"
        assert est.classification.kind == kind
        assert est.classification.limit == limit
    # exhaustive lowest-terms count over the 36 pairs below 9
    direct = sum(
        1 for b in range(2, 10) for a in range(1, b) if math.gcd(a, b) == 1
    )
    assert direct == 27
    assert correction_factor(9) == Fraction(27, 36) == Fraction(3, 4)
    f1000 = correction_factor(1000)
    assert Fraction(60, 100) <= f1000 <= Fraction(64, 100)
    sieve = totient_sieve(10**5)
    assert grid_6_4(9).bold_count == 27 == sum(sieve[2:10])
    assert sieve[10**5] == 40000
    budget.check()


def test_figure2_reaches_the_sieve_cap():
    budget = Budget(2)
    top = 10**7  # SIEVE_CAP
    points = dict(figure2_data((2, top)))
    assert points[2] == 1
    # OEIS A064018: phi(1) + ... + phi(10^7) = 30396356427242
    assert points[top] == Fraction(30396356427242 - 1, (top * top - top) // 2)
    budget.check()


def test_an_over_cap_rat_exact_schedule_exits_2_before_the_kernel(capsys):
    # 14,000 points in 9e6..1e7, a 112 KB argument.  Before WORK_CAP this ran for
    # 209 s at 76 MB as a CLI child on a 2-vCPU VM, and exited 0.
    rng = random.Random(20231019)
    schedule = sorted(rng.sample(range(9 * 10**6, 10**7 + 1), 14000))
    argv = ["density", "rho", "--a", "rat-exact", "--b", "nat",
            "--schedule", ",".join(map(str, schedule))]
    budget = Budget(1)
    code = main(argv)
    budget.check()
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"error: CapExceeded: summatory-totient work {kernel_work(schedule)} "
                   f"above cap {WORK_CAP}\n")


def test_unrank_and_exponential_ratios_reach_their_caps(tmp_path):
    # unrank at both caps: a few ms on a 2-vCPU VM.
    budget = Budget(5)
    widest = (1 << UNRANK_BITS_CAP) - 1
    s = unrank(UNRANK_P_CAP, widest)
    assert len(s) == UNRANK_P_CAP and rank(s) == widest
    budget.check()
    # The longest schedule an exponential pair takes, every point printed, with
    # the costliest numerator: about 1.7 s on a 2-vCPU VM.
    budget = Budget(10)
    path = tmp_path / "rho.csv"
    argv = ["density", "rho", "--a", "rat-exact", "--b", "complex", "--format", "csv",
            "--schedule", ",".join(map(str, range(1, EXPONENTIAL_CAP + 1))),
            "--output", str(path)]
    assert main(argv) == 0
    budget.check()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == EXPONENTIAL_CAP + 1
    n, num, den, _ = lines[-1].split(",")
    top = Fraction(int(num), int(den))
    assert n == str(EXPONENTIAL_CAP)
    assert top == rho_finite(PhiFormula.RAT_EXACT, PhiFormula.COMPLEX, EXPONENTIAL_CAP)


def test_chains_suite():
    budget = Budget(5)
    ast = cda_preset()
    v = verdict(ast)
    assert v.pattern is ChainPattern.FLAWED_38
    assert v.iff_prefix_len == 3
    assert "Q3" in detect_inconceivable(ast)
    templates = {
        "valid-contra": ChainPattern.VALID_31,
        "valid-target": ChainPattern.VALID_34,
        "biconditional-contra": ChainPattern.FLAWED_37,
        "halfway-contra": ChainPattern.HALFWAY_39,
        "halfway-target": ChainPattern.HALFWAY_310,
    }
    for name, pattern in templates.items():
        assert classify(preset(name)) is pattern
    rng = random.Random(314159)
    for _ in range(200):
        chain = parse_chain(random_chain_text(rng, max_links=10))
        edges = chain_edges(chain)
        closure = entailment_closure(chain)
        for node in edges:
            assert closure[node] == reachable_by_paths(edges, node)
    budget.check()


# A spawned child shares its parent's memory image until it execs, and Linux
# keeps that image's high-water mark in the child's ru_maxrss.  So children
# start from a small launcher, not from this process with its larger peak.
_LAUNCHER = """\
import os, sys, time
start = time.monotonic()
pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.monotonic() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def _child(*args, code=0, err=None):
    """Run Python with args as a child that must exit with code, and write just
    err to stderr if err is given: (wall seconds, peak RSS MB)."""
    src = os.path.dirname(os.path.dirname(diagbench.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", _LAUNCHER, sys.executable, *map(str, args)]
    report = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    wall, maxrss, status = report.stdout.split()
    assert int(status) == code, report.stderr
    assert err is None or report.stderr == err
    return float(wall), int(maxrss) / 1024  # KiB on Linux


def _cli_child(*args, **expect):
    """Run the CLI as a child, checked as _child checks it: (wall seconds, peak RSS MB)."""
    return _child("-m", "diagbench", *args, **expect)


def test_the_costliest_rat_exact_schedules_fit_the_budget(tmp_path):
    top = 10**7  # SIEVE_CAP; the kernel sieves up to 215**2 for it
    # Points 217 apart share no quotient n // d above the sieve, so each costs
    # its full 215**2 units.  The kernel runs once for both formulas: 3.0-3.8 s
    # and 21 MB as a child on 2 CPUs.
    spread = [top - 217 * k for k in range(WORK_CAP // 215**2)][::-1]
    # The most points just above the sieve that fit, and the top: about 0.3 s.
    low = [*range(215**2 + 1, 215**2 + 3846), top]
    assert kernel_work([*low, 215**2 + 3846]) > WORK_CAP
    out = tmp_path / "rho.csv"
    for schedule, b in ((spread, "rat-exact"), (low, "nat")):
        assert kernel_work(schedule) <= WORK_CAP
        wall, peak_mb = _cli_child("density", "rho", "--a", "rat-exact", "--b", b,
                                   "--schedule", ",".join(map(str, schedule)),
                                   "--format", "csv", "--output", out)
        assert wall < 10, f"{len(schedule)} points took {wall:.2f}s, budget 10s"
        assert peak_mb < 1024, f"{len(schedule)} points: peak RSS {peak_mb:.0f} MB, budget 1024 MB"
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(schedule) + 1
    assert lines[1].startswith(f"{215**2 + 1},")
    # OEIS A064018: phi(1) + ... + phi(10^7) = 30396356427242
    n, num, den, _ = lines[-1].split(",")
    assert n == str(top)
    assert Fraction(int(num), int(den)) == Fraction(2 * top * (30396356427242 - 1) + 1, top)


def test_the_grid_at_its_cap_fits_the_budget(tmp_path):
    # GRID_CAP**2 cells: about 0.09 s and 18 MB as a child on 2 CPUs, either format.
    bold = sum(1 for b in range(2, GRID_CAP + 1) for a in range(1, b) if math.gcd(a, b) == 1)
    for fmt in ("csv", "json"):
        out = tmp_path / f"grid.{fmt}"
        wall, peak_mb = _cli_child("density", "grid", "--n", GRID_CAP, "--format", fmt,
                                   "--output", out)
        assert wall < 2, f"{fmt} took {wall:.2f}s, budget 2s"
        assert peak_mb < 64, f"{fmt} peak RSS {peak_mb:.0f} MB, budget 64 MB"
        text = out.read_text(encoding="utf-8")
        if fmt == "csv":
            cells = [row.split(",") for row in text.splitlines()[1:]]
            assert len(cells) == GRID_CAP**2
            assert sum(int(a) < int(b) and low == "true" for a, b, _, low in cells) == bold
        else:
            assert text.startswith(f'{{\n  "n": {GRID_CAP},\n  "bold_count": {bold},\n')


def test_a_chain_at_its_cap_fits_the_budget(tmp_path):
    # The CLI child on one all-<=> chain of CHAIN_CAP statements, whose
    # report lists every statement twice: about 0.4 s and 69 MB on a 2-vCPU
    # VM.  The per-node closure this verdict used to build needed about 20 s
    # and 2.3 GB at a tenth of this length.
    parts = ["~P"]
    for i in range(1, CHAIN_CAP + 1):
        parts += ["<=>", f"Q{i}"]
    script = tmp_path / "chain.txt"
    script.write_text("# one chain at the cap\n" + " ".join([*parts, "<=>", "P"]) + "\n")
    out = tmp_path / "verdict.json"
    wall, peak_mb = _cli_child("chains", "analyze", "--script", script, "--output", out)
    assert wall < 5, f"took {wall:.2f}s, budget 5s"
    assert peak_mb < 256, f"peak RSS {peak_mb:.0f} MB, budget 256 MB"
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    assert '"pattern": "FLAWED_38"' in text
    assert text.count(f'"Q{CHAIN_CAP}"') == 1  # inconceivable, and nowhere else
    assert '"independent": [],' in text


def test_a_script_at_its_caps_fits_the_budget(tmp_path):
    # SCRIPT_CAP all-<=> chains holding CHAIN_CAP statements in all, each
    # statement listed twice in its report: about 0.9 s and 44 MB on a 2-vCPU
    # VM.  With no cap on chains, 200,000 short ones took 9.9 s and 226 MB.
    per = CHAIN_CAP // SCRIPT_CAP
    chain = "~P " + " ".join(f"<=> Q{i}" for i in range(1, per + 1)) + " <=> P\n"
    script = tmp_path / "chains.txt"
    script.write_text(chain * SCRIPT_CAP)
    out = tmp_path / "verdicts.json"
    wall, peak_mb = _cli_child("chains", "analyze", "--script", script, "--output", out)
    assert wall < 5, f"took {wall:.2f}s, budget 5s"
    assert peak_mb < 256, f"peak RSS {peak_mb:.0f} MB, budget 256 MB"
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count('"pattern": "FLAWED_38"') == SCRIPT_CAP


def test_an_explicit_array_at_both_caps_fits_the_budget(tmp_path):
    # SCAN_CAP rows of 10 digits, EXPLICIT_CELL_CAP cells, dumped whole as
    # CSV: about 2 s and 285 MB on a 2-vCPU VM.
    rows = tmp_path / "rows.txt"
    rows.write_text("".join(f"{n:010d}\n" for n in range(SCAN_CAP)))
    out = tmp_path / "rows.csv"
    wall, peak_mb = _cli_child("diagonal", "--explicit", rows, "--format", "csv", "--output", out)
    assert wall < 10, f"took {wall:.2f}s, budget 10s"
    assert peak_mb < 1024, f"peak RSS {peak_mb:.0f} MB, budget 1024 MB"
    with open(out, encoding="utf-8") as fh:
        assert fh.readline() == "n,digits\n" and fh.readline() == "1,0000000000\n"
        assert sum(1 for _ in fh) == SCAN_CAP - 1


def test_an_over_cap_explicit_file_exits_2_before_it_is_read_whole(tmp_path, capsys):
    # Without the caps a file was read whole: 2*10**6 rows of 40 digits took
    # about 5 s and 700 MB as a --depth 10 CSV dump on a 2-vCPU VM.
    over_rows = tmp_path / "rows.txt"
    over_rows.write_text("1\n" * (2 * SCAN_CAP))
    over_cells = tmp_path / "cells.txt"  # 1.01 * 10**7 characters, under FILE_CAP
    over_cells.write_text((100 * "7" + "\n") * (EXPLICIT_CELL_CAP // 100 + 1))
    over_line = tmp_path / "line.txt"
    over_line.write_text("7" * (EXPLICIT_CELL_CAP + 1) + "\n")
    spaced = tmp_path / "spaced.txt"  # refused, not read as the two rows 12 and 34
    spaced.write_text("12" + " " * EXPLICIT_CELL_CAP + "34\n")
    over_file = tmp_path / "file.txt"
    over_file.write_text("7\n" * (FILE_CAP // 2) + "7")
    for path, message in (
        (over_rows, f"explicit array longer than {SCAN_CAP} rows"),
        (over_cells, f"explicit array larger than {EXPLICIT_CELL_CAP} cells"),
        (over_line, f"explicit array larger than {EXPLICIT_CELL_CAP} cells"),
        (spaced, f"explicit array larger than {EXPLICIT_CELL_CAP} cells"),
        (over_file, f"file longer than {FILE_CAP} characters"),
    ):
        for flags in ((), ("--depth", "10", "--format", "csv")):
            budget = Budget(1)
            code = main(["diagonal", "--explicit", str(path), *flags])
            budget.check()
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            assert err == f"error: CapExceeded: {message}\n"


def test_an_over_long_explicit_line_is_refused_before_it_is_held(tmp_path):
    # A 5*10**7-digit line reached 110-120 MB peak RSS on a 2-vCPU VM while it
    # was read whole, and now stops at about 38 MB, past FILE_CAP.
    path = tmp_path / "line.txt"
    path.write_text("7" * (5 * EXPLICIT_CELL_CAP) + "\n")
    code = ("import sys; from diagbench.cli import main; "
            f"sys.exit(main(['diagonal', '--explicit', {str(path)!r}]) != 2)")
    wall, peak_mb = _child("-c", code)
    assert wall < 5, f"took {wall:.2f}s, budget 5s"
    assert peak_mb < 64, f"peak RSS {peak_mb:.0f} MB, budget 64 MB"


def test_a_flooded_input_file_exits_2_before_its_lines_are_split(tmp_path):
    # Blank and "#" lines met no cap, and a script line had no bound, so the
    # cost grew with the file.  At this size, on 2 CPUs, the blank --explicit
    # lines took 3.2 s, the "#" lines 2.7 s and exit 0, and the one chain 0.5 s,
    # 130 MB and exit 0.  One bounded read refuses each in about 0.1 s and 38 MB.
    blank = tmp_path / "blank.txt"
    blank.write_text("\n" * (FILE_CAP + 1))
    comments = tmp_path / "comments.txt"
    comments.write_text("#\n" * (FILE_CAP // 2 + 1))
    chain = tmp_path / "chain.txt"  # one chain, one long statement name
    head, tail = "~P => Q", " => CONTRA\n"
    chain.write_text(head + "1" * (FILE_CAP + 1 - len(head) - len(tail)) + tail)
    err = f"error: CapExceeded: file longer than {FILE_CAP} characters\n"
    for argv in (
        ("diagonal", "--explicit", blank),
        ("chains", "analyze", "--script", comments),
        ("chains", "analyze", "--script", chain),
    ):
        wall, peak_mb = _cli_child(*argv, code=2, err=err)
        assert wall < 2, f"{argv[-1].name} took {wall:.2f}s, budget 2s"
        assert peak_mb < 64, f"{argv[-1].name} peak RSS {peak_mb:.0f} MB, budget 64 MB"


def test_a_long_name_that_fails_late_fits_the_budget(tmp_path):
    # One script line just under FILE_CAP: one long statement name, then a bad
    # last character.  The grammar match takes each name whole, so it fails
    # without retrying every shorter prefix of the name, and the walk then
    # reports the character: about 0.3 s and 50 MB as a child on 2 CPUs, where
    # a name group without the lookahead took 1.7-2.2 s.
    head, tail = "~P => Q", " => CONTRA !"
    line = head + "1" * (FILE_CAP - 2 - len(head) - len(tail)) + tail
    script = tmp_path / "chain.txt"
    script.write_text(line + "\n")
    err = f"error: ChainSyntaxError: unexpected character '!' (position {len(line)})\n"
    wall, peak_mb = _cli_child("chains", "analyze", "--script", script, code=2, err=err)
    assert wall < 2, f"took {wall:.2f}s, budget 2s"
    assert peak_mb < 64, f"peak RSS {peak_mb:.0f} MB, budget 64 MB"


def test_a_file_of_blank_lines_at_its_cap_fits_the_budget(tmp_path):
    # FILE_CAP characters, all blank lines but two rows: about 0.2 s and 39 MB
    # as a child on 2 CPUs.  A split that held one list entry per blank line
    # took 0.8 s and 130 MB.
    rows = tmp_path / "rows.txt"
    rows.write_text("\n" * (FILE_CAP - 6) + "12\n34\n")
    out = tmp_path / "report.json"
    wall, peak_mb = _cli_child("diagonal", "--explicit", rows, "--output", out)
    assert wall < 10, f"took {wall:.2f}s, budget 10s"
    assert peak_mb < 64, f"peak RSS {peak_mb:.0f} MB, budget 64 MB"
    assert '"scan_depth": 2,' in out.read_text()


def test_a_family_scan_at_the_depth_cap_fits_the_budget(tmp_path):
    # A JSON report of SCAN_CAP first differences, as a child on 2 CPUs:
    # about 1 s and 210 MB for each of these families.
    out = tmp_path / "report.json"
    for family in (("alt-24",), ("random-below-26",),
                   ("decimal-29", "--antidiag", "(3)", "--randomize-subdiagonal")):
        wall, peak_mb = _cli_child("diagonal", "--family", *family, "--seed", "7",
                                   "--depth", SCAN_CAP, "--output", out)
        assert wall < 10, f"{family[0]} took {wall:.2f}s, budget 10s"
        assert peak_mb < 1024, f"{family[0]} peak RSS {peak_mb:.0f} MB, budget 1024 MB"
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        assert f'"scan_depth": {SCAN_CAP},' in text and '"found_at": null,' in text
        assert text.endswith(f'    "{SCAN_CAP}": {SCAN_CAP}\n  }}\n}}\n')


CLI_COMMANDS = (
    ("diagonal", "--family", "random-below-26", "--depth", "50", "--prefix", "64",
     "--candidate", "1111111(0)", "--seed", "3"),
    ("diagonal", "--family", "alt-25", "--depth", "10", "--format", "csv"),
    ("subsets", "dovetail", "--count", "64"),
    ("subsets", "table1", "--n", "2520"),
    ("density", "rho", "--a", "nat", "--b", "rat-paper"),
    ("density", "grid", "--n", "12"),
    ("chains", "preset", "cda"),
)


def test_cli_determinism(tmp_path):
    def capture(tag, argv):
        path = tmp_path / f"{tag}.out"
        assert main([*argv, "--output", str(path)]) == 0
        return path.read_bytes()

    first = [capture(f"a{i}", argv) for i, argv in enumerate(CLI_COMMANDS)]
    second = [capture(f"b{i}", argv) for i, argv in enumerate(CLI_COMMANDS)]
    assert first == second
    tasks = [(i, argv) for _ in range(3) for i, argv in enumerate(CLI_COMMANDS)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        futures = {
            pool.submit(capture, f"c{k}", argv): i
            for k, (i, argv) in enumerate(tasks)
        }
        for fut, i in futures.items():
            assert fut.result() == first[i]
