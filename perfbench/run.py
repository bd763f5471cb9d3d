"""diagbench benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload diagonal-scan --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src, so nothing
needs installing.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a separate traced pass.  --smoke shrinks every input and runs one
round, with every check still on.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PER_ROUND = 3
MIN_ROUNDS = 3

# On a shared 2-vCPU VM the speed drifts by a fifth to a third over minutes,
# for diagbench and for any fixed pure-Python loop alike.  So every
# end-to-end time is measured next to `probe()` and rescaled to the speed at
# which the probe takes REFERENCE_PROBE_S; runs made minutes apart then
# compare.  The raw seconds are printed on standard error.
REFERENCE_PROBE_S = 0.004
IMPORTTIME_SAMPLES = 5

END_TO_END = {"setup_s": "s", "cli_wall_s": "s", "lib_wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics.  Times come from timing spans around calls into each
# module's public functions; counts come from a separate pass that wraps
# module attributes, so counting never enters a time.
PER_LAYER = {
    "cli.import_pkg_s": "s",
    "cli.import_stdlib_s": "s",
    "cli.parse_s": "s",
    "cli.kernel_s": "s",
    "cli.render_s": "s",
    "diagonal.scan_s": "s",
    "diagonal.rows_s": "s",
    "diagonal.explicit_s": "s",
    "diagonal.rows_per_s": "1/s",
    "diagonal.row_digit_calls": "count",
    "eps.digit_at_calls": "count",
    "rng.cell_value_calls": "count",
    "subsets.dovetail_s": "s",
    "subsets.figure1_s": "s",
    "subsets.table1_s": "s",
    "subsets.unrank_calls": "count",
    "subsets.comb_calls": "count",
    "density.rho_s": "s",
    "density.figure2_s": "s",
    "density.grid_s": "s",
    "density.sieve_calls": "count",
    "density.sieve_cells": "count",
    "density.peak_alloc_mb": "MB",
    "chains.parse_s": "s",
    "chains.verdict_s": "s",
    "chains.closure_calls": "count",
    "chains.chains_per_s": "1/s",
    "trace.overhead_s": "s",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python_output(code, *flags):
    """stdout and stderr of a fresh interpreter running `code`."""
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout, proc.stderr


def probe():
    """Seconds taken by a fixed mix of integer arithmetic, dict stores and string work."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
        table[i & 1023] = str(i)
    "".join(table.values())
    return time.perf_counter() - t0


IMPORT_CODE = ("import time; t = time.perf_counter(); import diagbench.cli; "
               "print(repr(time.perf_counter() - t))")


def import_seconds():
    """`import diagbench.cli` timed inside a fresh interpreter, so its start is excluded."""
    return float(python_output(IMPORT_CODE)[0])


def import_layers(samples):
    """Median self time of diagbench's own modules and of the stdlib they pull in."""
    code = "import sys; sys.stderr.write('MARK\\n'); import diagbench.cli"
    pkg, stdlib = [], []
    for _ in range(samples):
        lines = python_output(code, "-X", "importtime")[1].split("MARK\n", 1)[1].splitlines()
        own = total = 0
        for line in lines:
            if not line.startswith("import time:"):
                continue
            self_us, cumulative_us, name = (part.strip() for part in line[12:].split("|"))
            if name.startswith("diagbench"):
                own += int(self_us)
            if name == "diagbench.cli":
                total = int(cumulative_us)
        pkg.append(own / 1e6)
        stdlib.append((total - own) / 1e6)
    return statistics.median(pkg), statistics.median(stdlib)


# ------------------------------------------------------------- CLI children

class CliResult:
    def __init__(self, code, stdout, stderr, payload):
        self.code, self.stdout, self.stderr, self.payload = code, stdout, stderr, payload

    def digest(self):
        h = hashlib.sha256(str(self.code).encode())
        for part in (self.stdout, self.stderr, self.payload or b""):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
        return h.hexdigest()


class Launcher:
    """The small process that starts CLI children; see launcher.py.

    stdout and stderr of each child go to files, so a child is timed until
    its last byte is written; os.wait4 gives that child's own peak RSS.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env())

    def run(self, argv, scratch):
        """(wall s, peak RSS MB, exit code, stdout bytes, stderr bytes) of one child."""
        out, err = scratch / "stdout", scratch / "stderr"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(reply)
        return (reply["wall_s"], reply["maxrss_kb"] / 1024, reply["code"],
                out.read_bytes(), err.read_bytes())

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()


def run_in_process(cli, argv, scratch):
    """cli.main(argv) in this process, stdout to a file; (wall s, result fields)."""
    err = io.StringIO()
    with open(scratch / "stdout", "w", encoding="utf-8", newline="") as fh:
        with contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # an uncaught error: the interpreter would exit 1
                code = 1
                print(f"Traceback: {type(exc).__name__}: {exc}", file=sys.stderr)
            wall = time.perf_counter() - t0
    return wall, code, (scratch / "stdout").read_bytes(), err.getvalue().encode()


def collect(op, code, stdout, stderr):
    payload = stdout
    if op.output is not None:
        payload = op.output.read_bytes() if op.output.exists() else None
        if payload is not None:
            op.output.unlink()
    return CliResult(code, stdout, stderr, payload)


def judge_cli(op, res):
    """None when the CLI run is right, else a one-line reason."""
    if op.expect_error:
        lines = res.stderr.decode(errors="replace").splitlines()
        if res.code == 2 and not res.stdout and len(lines) == 1 and lines[0].startswith("error:"):
            return None
        return f"exit {res.code} with {len(lines)} stderr lines; want exit 2 and one error: line"
    if res.code != 0:
        tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {res.code}: {tail}"
    if res.stderr or (op.output is not None and res.stdout) or res.payload is None:
        return "unexpected stderr, stdout or missing output file"
    try:
        return op.check(res.payload.decode())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {exc!r}"


# ------------------------------------------------------------------ ledger

class Ledger:
    """Operations attempted and failed, plus run-wide consistency of CLI bytes.

    Identical bytes get the verdict already given to them, so each distinct
    output is checked against the oracle once.  Different bytes for the same
    argv (across rounds, or stdout against --output) make the run incorrect.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self._verdicts = {}
        self._by_argv = {}
        self._reported = set()

    def record(self, name, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if name not in self._reported:
                self._reported.add(name)
                print(f"perfbench: {name} failed: {reason}", file=sys.stderr)

    def cli(self, op, res):
        digest = res.digest()
        seen = self._verdicts.get(op.name)
        if seen is None or seen[0] != digest:
            if seen is not None:
                self.inconsistent(f"{op.name} gave different bytes on a repeated run")
            seen = self._verdicts[op.name] = (digest, judge_cli(op, res))
        self.record(op.name, seen[1])
        if seen[1] is None and not op.expect_error:
            key = stdout_argv(op.argv)
            payload = hashlib.sha256(res.payload).hexdigest()
            if self._by_argv.setdefault(key, payload) != payload:
                self.inconsistent(f"{op.name}: --output bytes differ from stdout bytes")

    def inconsistent(self, message):
        self.correct = False
        print(f"perfbench: {message}", file=sys.stderr)


def stdout_argv(argv):
    """argv without its --output FILE pair: the run whose stdout must match that file."""
    if "--output" not in argv:
        return tuple(argv)
    i = argv.index("--output")
    return tuple(argv[:i] + argv[i + 2:])


class RoundClock:
    """Decides whether to start another whole round.

    At least MIN_ROUNDS rounds run (one in smoke mode); after that a round
    starts only if one more, as long as the last, still ends within the time.
    """

    def __init__(self, seconds, smoke):
        self.rounds = 0
        self.limit = 1 if smoke else None
        self.mark = time.perf_counter()
        self.end = self.mark + seconds

    def another(self):
        now = time.perf_counter()
        last, self.mark = now - self.mark, now
        if self.limit is not None:
            go = self.rounds < self.limit
        else:
            go = self.rounds < MIN_ROUNDS or now + last <= self.end
        self.rounds += go
        return go


def median_sum(samples):
    """Sum over operations of each operation's median across rounds."""
    return sum(statistics.median(v) for v in samples.values())


# ---------------------------------------------------------------- untraced

def measure(ops, seconds, smoke, scratch, ledger, launcher):
    """Whole rounds until time is up.

    A round times SETUP_PER_ROUND imports, then per operation a probe, the
    CLI child and the library call.  Alternating them spreads every kind of
    sample over the whole run.  Each round's times are rescaled by
    REFERENCE_PROBE_S over the round's median probe.  Returns the metrics and
    the same figures in raw seconds.
    """
    scaled = {"setup_s": [], "cli_wall_s": defaultdict(list), "lib_wall_s": defaultdict(list)}
    raw = {"setup_s": [], "cli_wall_s": defaultdict(list), "lib_wall_s": defaultdict(list)}
    rss, probes = defaultdict(list), []
    python_output(IMPORT_CODE)  # writes the bytecode caches, so no sample pays for compiling
    clock = RoundClock(seconds, smoke)
    while clock.another():
        imports = [import_seconds() for _ in range(SETUP_PER_ROUND)]
        walls = {"cli_wall_s": {}, "lib_wall_s": {}}
        round_probes = []
        for op in ops:
            round_probes.append(probe())
            if op.argv is not None:
                wall, peak, code, out, err = launcher.run(op.argv, scratch)
                walls["cli_wall_s"][op.name] = wall
                rss[op.name].append(peak)
                ledger.cli(op, collect(op, code, out, err))
            if op.lib is not None:
                result, walls["lib_wall_s"][op.name] = timed(op.lib)
                ledger.record(op.name + "/lib", check_result(op, result))
        speed = REFERENCE_PROBE_S / statistics.median(round_probes)
        probes += round_probes
        scaled["setup_s"] += [t * speed for t in imports]
        raw["setup_s"] += imports
        for metric, by_op in walls.items():
            for name, wall in by_op.items():
                scaled[metric][name].append(wall * speed)
                raw[metric][name].append(wall)
    figures = []
    for samples in (scaled, raw):
        figures.append({
            "setup_s": statistics.median(samples["setup_s"]),
            "cli_wall_s": median_sum(samples["cli_wall_s"]),
            "lib_wall_s": median_sum(samples["lib_wall_s"]),
        })
    metrics, raw_figures = figures
    metrics["peak_rss_mb"] = max(statistics.median(v) for v in rss.values())
    raw_figures["probe_s"] = statistics.median(probes)
    return metrics, raw_figures


class Raised:
    """The result of a library call that raised."""

    def __init__(self, exc):
        self.exc = exc


def timed(call):
    """(result, seconds) of one library call; an exception becomes a Raised result."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # judged by check_result
        result = Raised(exc)
    return result, time.perf_counter() - t0


def check_result(op, result):
    if isinstance(result, Raised):
        return f"raised {type(result.exc).__name__}: {result.exc}"
    return op.lib_check(result)


# ------------------------------------------------------------------ traced

class Spans:
    """Timing spans around calls into module functions, keyed by layer metric.

    `top` accumulates only outermost spans, so a call nested in another
    wrapped call is never counted twice in the kernel total.
    """

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.top = 0.0
        self._depth = 0

    def wrap(self, fn, key):
        def span(*args, **kwargs):
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth -= 1
                name = key(*args) if callable(key) else key
                self.seconds[name] += dt
                self.calls[name] += 1
                if self._depth == 0:
                    self.top += dt
        return span


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace attributes: targets are (owner, name, replacement)."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, new in targets:
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in saved:
            setattr(owner, name, old)


def span_targets(spans):
    from diagbench import chains, density, diagonal, subsets

    def scan_kind(spec, *_):
        return "diagonal.scan_s" if spec.is_family else "diagonal.explicit_s"

    entry = [
        (diagonal, "membership_scan", scan_kind),
        (diagonal, "row", "diagonal.rows_s"),
        (subsets, "dovetail_enumerate", "subsets.dovetail_s"),
        (subsets, "figure1_data", "subsets.figure1_s"),
        (subsets, "table1_values", "subsets.table1_s"),
        (density, "rho_limit", "density.rho_s"),
        (density, "figure2_data", "density.figure2_s"),
        (density, "grid_6_4", "density.grid_s"),
        (chains, "parse_chain", "chains.parse_s"),
        (chains, "verdict", "chains.verdict_s"),
    ]
    return [(mod, name, spans.wrap(getattr(mod, name), key)) for mod, name, key in entry]


def counting_targets(counts):
    import math as real_math

    from diagbench import chains, density, diagonal, eps, rng, subsets

    def counted(fn, name, size=None):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if size:
                counts[size] += args[0]
            return fn(*args, **kwargs)
        return wrapper

    counting_math = types.ModuleType("math")
    counting_math.__dict__.update(real_math.__dict__)
    counting_math.comb = counted(real_math.comb, "subsets.comb_calls")
    cls = eps.EventuallyPeriodicString
    return [
        (diagonal, "row_digit", counted(diagonal.row_digit, "diagonal.row_digit_calls")),
        (cls, "digit_at", counted(cls.digit_at, "eps.digit_at_calls")),
        (rng, "cell_value", counted(rng.cell_value, "rng.cell_value_calls")),
        (subsets, "unrank", counted(subsets.unrank, "subsets.unrank_calls")),
        (subsets, "math", counting_math),
        (density, "totient_sieve",
         counted(density.totient_sieve, "density.sieve_calls", "density.sieve_cells")),
        (chains, "entailment_closure",
         counted(chains.entailment_closure, "chains.closure_calls")),
    ]


def cli_phases(cli, ops, scratch, ledger, spans, phases):
    """cli.main in process for every CLI operation, split into parse, kernel and the rest.

    parse is build_parser plus parse_args, timed on its own; kernel is the
    outermost spans opened during main; render is main minus the two, that
    is rendering plus the write.
    """
    for op in ops:
        if op.argv is None:
            continue
        t0 = time.perf_counter()
        with contextlib.suppress(SystemExit), contextlib.redirect_stderr(io.StringIO()):
            cli.build_parser().parse_args(op.argv)
        parse_s = time.perf_counter() - t0
        before = spans.top
        wall, code, out, err = run_in_process(cli, op.argv, scratch)
        kernel_s = spans.top - before
        phases["cli.parse_s"][op.name].append(parse_s)
        phases["cli.kernel_s"][op.name].append(kernel_s)
        phases["cli.render_s"][op.name].append(wall - parse_s - kernel_s)
        ledger.cli(op, collect(op, code, out, err))


def lib_pass(ops, ledger=None):
    """Every library call once: {operation: seconds}, checked if a ledger is given."""
    walls = {}
    for op in ops:
        if op.lib is not None:
            result, walls[op.name] = timed(op.lib)
            if ledger is not None:
                ledger.record(op.name + "/lib", check_result(op, result))
    return walls


def trace(ops, seconds, smoke, scratch, ledger):
    """Per-layer metrics: CLI phases in process, module spans, counters, allocation."""
    import diagbench.cli as cli

    metrics = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    metrics["cli.import_pkg_s"], metrics["cli.import_stdlib_s"] = import_layers(
        1 if smoke else IMPORTTIME_SAMPLES)

    phases = {name: defaultdict(list) for name in ("cli.parse_s", "cli.kernel_s", "cli.render_s")}
    layer_rounds, traced_lib, plain_lib = [], [], []
    clock = RoundClock(seconds, smoke)
    while clock.another():
        spans = Spans()
        with patched(span_targets(spans)):
            cli_phases(cli, ops, scratch, ledger, spans, phases)
        spans = Spans()
        # Alternate which library pass runs first, so neither always follows the CLI pass.
        if clock.rounds % 2:
            plain_lib.append(sum(lib_pass(ops).values()))
        with patched(span_targets(spans)):
            traced_lib.append(sum(lib_pass(ops, ledger).values()))
        if not clock.rounds % 2:
            plain_lib.append(sum(lib_pass(ops).values()))
        layer_rounds.append(spans)

    for name, samples in phases.items():
        metrics[name] = median_sum(samples)
    for name, unit in PER_LAYER.items():
        if unit == "s" and name.split(".")[0] in ("diagonal", "subsets", "density", "chains"):
            metrics[name] = statistics.median(r.seconds[name] for r in layer_rounds)
    calls = layer_rounds[-1].calls
    if metrics["diagonal.rows_s"]:
        metrics["diagonal.rows_per_s"] = calls["diagonal.rows_s"] / metrics["diagonal.rows_s"]
    chain_s = metrics["chains.parse_s"] + metrics["chains.verdict_s"]
    if chain_s:
        metrics["chains.chains_per_s"] = calls["chains.verdict_s"] / chain_s
    metrics["trace.overhead_s"] = statistics.median(traced_lib) - statistics.median(plain_lib)

    counts = defaultdict(int)
    sieve_cells = {}
    with patched(counting_targets(counts)):
        for op in ops:
            if op.lib is not None:
                before = counts["density.sieve_cells"]
                timed(op.lib)
                sieve_cells[op.name] = counts["density.sieve_cells"] - before
    metrics.update(counts)

    # tracemalloc slows the sieve about sixteenfold, so only the operation that
    # sieves the most cells runs under it; its peak is the workload's largest.
    heaviest = max(sieve_cells, key=sieve_cells.get, default=None)
    if heaviest and sieve_cells[heaviest]:
        op = next(op for op in ops if op.name == heaviest)
        tracemalloc.start()
        try:
            timed(op.lib)
            metrics["density.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return metrics


# -------------------------------------------------------------------- main

def run_workload(name, seed, seconds, traced, smoke, launcher):
    import workloads

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ops = workloads.build(name, seed, smoke, scratch)
        ledger = Ledger()
        # Freeze the oracle data, so collections during timed calls do not scan it.
        gc.collect()
        gc.freeze()
        try:
            if traced:
                metrics, units = trace(ops, seconds, smoke, scratch, ledger), PER_LAYER
            else:
                metrics, raw = measure(ops, seconds, smoke, scratch, ledger, launcher)
                units = END_TO_END
                print(f"perfbench: {name} raw seconds: "
                      + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()), file=sys.stderr)
        finally:
            gc.unfreeze()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def print_table(name, result):
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:26} {m['value']:14.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1, help="makes every input")
    parser.add_argument("--seconds", type=int, default=25, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass instead")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    args = parser.parse_args(argv)
    if not (SRC / "diagbench" / "cli.py").is_file():
        print(f"perfbench: no {SRC / 'diagbench' / 'cli.py'}; run from the repository root",
              file=sys.stderr)
        return 2
    # On SIGTERM, unwind through the finally blocks: they stop the launcher and
    # remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Started first, while this process is still small: see launcher.py.
    launcher = None if args.trace else Launcher()
    try:
        sys.path.insert(0, str(SRC))
        import workloads

        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        if not set(names) <= set(workloads.WORKLOADS):
            parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.smoke,
                                         launcher)
            print_table(name, results[name])
    finally:
        if launcher is not None:
            launcher.close()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v
                        for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
