"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench -q

Each test runs perfbench/run.py in a subprocess from the repository root,
except the last, which runs it where the package is absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The two known faults: a missing --output directory gives a traceback and
# exit 1, and non-ASCII digits in an explicit array are accepted.
KNOWN_FAULTS = {"output-missing-dir", "explicit-nonascii-digits", "explicit-nonascii-digits/lib"}


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def failed_ops(stderr):
    return {line.split()[1] for line in stderr.splitlines()
            if line.startswith("perfbench: ") and " failed: " in line}


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_runs_every_workload(trace, key):
    proc = run("--workload", "all", "--smoke", "--seed", "7", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert failed_ops(proc.stderr) <= KNOWN_FAULTS
    names = [w["name"] for w in SPEC["workloads"]]
    want = {f"{w}/{m['name']}": m["unit"] for w in names for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_failed_share_does_not_depend_on_the_seed():
    shares = []
    for seed in ("3", "4"):
        proc = run("--workload", "cli-small", "--smoke", "--seed", seed)
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.append((result["failed"], result["attempted"]))
    (f1, a1), (f2, a2) = shares
    assert f1 * a2 == f2 * a1


def test_same_seed_same_inputs(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads

        def inputs(seed, where):
            where.mkdir()
            ops = workloads.build("diagonal-scan", seed, True, where)
            argvs = [[a.replace(str(where), "<dir>") for a in op.argv or []] for op in ops]
            files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
            return argvs, files

        first = inputs(5, tmp_path / "a")
        assert inputs(5, tmp_path / "b") == first
        assert inputs(6, tmp_path / "c") != first
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "cli-small", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
