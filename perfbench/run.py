"""The groverlab benchmark: end-to-end CLI and simulator timings, checked outputs.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 60 --trace 0

Run from the repository root.  Each workload repeats a fixed cycle of
operations in a closed loop with one client: the next operation starts when
the previous one has ended, and only one child process runs at a time.
CLI operations are ``python3 -m groverlab.cli ...`` subprocesses timed from
spawn to exit; simulator operations are calls timed inside a worker
subprocess (see ``sim_worker.py``).  Every output is checked by ``oracle``,
which shares no code with groverlab.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and reports per-layer metrics (see
``tracer.py``).  Every metric is printed by name with its unit, the
environment is recorded, and the last line of stdout is one JSON object
with the metrics that BENCHMARK.json lists for the chosen mode.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Callable, NamedTuple

import oracle
from tracer import layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 60.0
# Import timings per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 15
MIB = 1 << 20


class Op:
    """One finished operation: its timing, its output and what the check found."""

    def __init__(self, label, wall=0.0, errors=(), rows=0, bytes_out=0, ksteps=0):
        self.label, self.wall = label, wall
        self.errors = list(errors)
        self.rows, self.bytes_out, self.ksteps = rows, bytes_out, ksteps
        self.layers = {}


class Cycle:
    """One pass over a workload's operations.

    ``wall`` is the time of the child processes that ran them and
    ``rss_mib`` the largest peak RSS among those children.  A simulator
    cycle also carries ``sim``: its small-size step count, the large
    vector's bytes and the traced step's peak allocation.
    """

    def __init__(self, ops, wall, rss_mib, amp_updates=0, sim=None):
        self.ops, self.wall, self.rss_mib = ops, wall, rss_mib
        self.amp_updates, self.sim = amp_updates, sim


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")


def spawn(argv: list[str]) -> tuple[float, int, bytes, bytes, float]:
    """Run one child to completion: (wall s, exit code, stdout, stderr, peak RSS MiB).

    The wall time runs from spawn to reaping, including reading stdout.
    """
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child-stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        chunks = []
        fd = proc.stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    proc.kill()
                    chunks.append(b"\n[timed out]")
                    break
                chunk = os.read(fd, MIB)
                if not chunk:
                    break
                chunks.append(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return wall, proc.returncode, b"".join(chunks), stderr, usage.ru_maxrss / 1024.0


class Command(NamedTuple):
    """One CLI command of a cycle.

    ``check(stdout, fmt)`` gives ``(rows, errors)``; ``ksteps(rows)`` gives
    the closed-form (n, k) evaluations the command makes, by default one per
    emitted row.
    """

    label: str
    args: list[str]
    check: Callable[[bytes, str], tuple[int, list[str]]]
    ksteps: Callable[[int], int] = lambda rows: rows


class CliWorkload:
    """Cycles of groverlab CLI commands, each output checked by the oracle."""

    def __init__(self, commands: Callable[[], list[Command]]):
        self.commands = commands
        self.verdicts = {}
        self.digests = {}

    def cycle(self, traced: bool) -> Cycle:
        ops, peak = [], 0.0
        for label, args, check, ksteps in self.commands():
            fmt = "json" if "json" in args else "csv"
            spans = OUT / f"spans-{label}.npz"
            if traced:
                argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args]
            else:
                argv = [sys.executable, "-m", "groverlab.cli", *args]
            wall, code, stdout, stderr, rss = spawn(argv)
            peak = max(peak, rss)
            digest = hashlib.sha256(stdout).hexdigest()
            self.digests.setdefault(label, set()).add(digest)
            # Identical bytes get an identical verdict, so each distinct
            # output is checked once per run.
            if (label, digest) not in self.verdicts:
                self.verdicts[label, digest] = check(stdout, fmt)
            rows, errors = self.verdicts[label, digest]
            if code != 0:
                errors = [f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}"]
            op = Op(label, wall, errors, rows, len(stdout), ksteps(rows))
            if traced and code == 0:
                op.layers = layer_totals(spans)
            ops.append(op)
        return Cycle(ops, sum(op.wall for op in ops), peak)


def cli_mix(rng: random.Random, tiny: bool) -> CliWorkload:
    """Every report command, in a mix whose median and tail sit inside one
    command's time distribution each.

    One cycle: trace --qubits 30 three times as JSON and twice as CSV,
    bound --qubits 30, table1 --max-qubits 30 and scan 3..20, the last two
    at the default --threads.  Three commands are faster than a CSV trace
    and three slower, so the median operation is a CSV trace; the JSON
    traces are the slowest, three of eight operations, so the 75th
    percentile (see ``TAIL_PCT``) falls among them.

    The seed picks --epsilon once per run and --target for every trace.
    """
    n, t_max, s_max = (10, 8, 6) if tiny else (30, 30, 20)
    epsilon_text = f"{rng.uniform(0.05, 1.0):.6f}"

    def trace(fmt):
        target = str(rng.randrange(2**n))
        return Command(
            f"trace-{fmt}",
            ["trace", "--qubits", str(n), "--epsilon", epsilon_text, "--target", target, "--format", fmt],
            lambda out, fmt: oracle.check_trace(out, fmt, n, float(epsilon_text)),
        )

    def commands():
        return [
            trace("json"),
            trace("csv"),
            Command(
                "table1-csv",
                ["table1", "--max-qubits", str(t_max)],
                lambda out, fmt: oracle.check_table1(out, fmt, 1, t_max),
                lambda rows: oracle.ksteps_table1(1, t_max),
            ),
            trace("json"),
            Command(
                "bound-csv",
                ["bound", "--qubits", str(n)],
                lambda out, fmt: oracle.check_trace(out, fmt, n, None),
            ),
            trace("csv"),
            Command(
                "scan-csv",
                ["scan", "--min-qubits", "3", "--max-qubits", str(s_max)],
                lambda out, fmt: oracle.check_scan(out, fmt, 3, s_max),
                lambda rows: oracle.ksteps_scan(3, s_max, rows),
            ),
            trace("json"),
        ]

    return CliWorkload(commands)


class SimWorkload:
    """The brute-force simulator at a cache-resident and a larger size.

    The seed picks the target index of every cycle at both sizes.
    """

    def __init__(self, rng: random.Random, tiny: bool):
        """One cycle is 27 operations: the small run, the large start, 24
        large steps and the partial traces.  The median is a step; the
        90th percentile (see ``TAIL_PCT``) lies past the partial traces,
        among the slowest steps and the small runs."""
        self.rng = rng
        # (n, steps): 2^20 amplitudes are 8 MiB and fit in the last-level
        # cache; 2^24 amplitudes are 128 MiB and do not.
        self.small, self.large = ((8, 5), (10, 4)) if tiny else ((20, 50), (24, 24))

    def cycle(self, traced: bool) -> Cycle:
        (n_s, k_s), (n_l, steps) = self.small, self.large
        y_s, y_l = self.rng.randrange(2**n_s), self.rng.randrange(2**n_l)
        argv = [sys.executable, str(BENCH / "sim_worker.py"), *map(str, (n_s, k_s, y_s, n_l, steps, y_l))]
        spans = OUT / "spans-simulate.npz"
        if traced:
            argv.append(str(spans))
        wall, code, stdout, stderr, rss = spawn(argv)
        try:
            result = json.loads(stdout.decode().splitlines()[-1]) if code == 0 else None
        except (ValueError, IndexError):
            result = None
        if result is None:
            reason = f"simulator worker failed (exit {code}): {stderr.decode(errors='replace').strip()[-300:]}"
            return Cycle([Op("simulate", wall=wall, errors=[reason])], wall, rss)
        ops = [Op(label, wall=seconds) for label, seconds in result["calls"]]
        small = next(op for op in ops if op.label == f"simulate.n{n_s}")
        small.errors += oracle.check_overlap(result["overlaps"][f"n{n_s}"])
        last_step = [op for op in ops if op.label == f"step.n{n_l}"][-1]
        last_step.errors += oracle.check_overlap(result["overlaps"][f"n{n_l}"])
        ptrace = next(op for op in ops if op.label == f"ptrace.n{n_l}")
        for ell, matrix in enumerate(result["reduced"]):
            ptrace.errors += oracle.check_reduced(matrix, n_l, y_l, steps, ell)
        if traced:
            ops[0].layers = layer_totals(spans)
        sim = {"small_k": k_s, "vector_bytes": result["vector_bytes"], "step_peak_bytes": result["step_peak_bytes"]}
        return Cycle(ops, wall, rss, amp_updates=2**n_s * k_s + 2**n_l * steps, sim=sim)


WORKLOADS = {
    "cli-mix": cli_mix,
    "simulate": SimWorkload,
}

# The percentile ``wall_s.tail`` reports.  It is fixed per workload, so the
# operation it lands on depends on the cycle's fixed mix and not on how many
# cycles fit in a run.  Each keeps at least ten samples beyond it from 5
# cycles of 8 operations (cli-mix) and 4 cycles of 27 (simulate) up; the code
# the benchmark was made on runs 5 to 7 and 6 to 8 in 60 s.
TAIL_PCT = {"cli-mix": 75.0, "simulate": 90.0}


def measure(workload, seconds: float, traced: bool, setup_runs: int):
    """Whole cycles until the next one would end past ``seconds``; at least one.

    With ``traced`` each untraced cycle is followed by a traced one.  Between
    cycles it times ``setup_runs`` imports in all (see ``time_import``),
    spread evenly over the run so they see the same host as the cycles.
    Their time is not counted in ``seconds``.  Returns the untraced cycles,
    the traced ones and the import times.
    """
    plain, spanned, setup = [], [], []
    busy = 0.0
    if setup_runs:
        time_import()  # warm-up: the first start-up reads files from disk
    while True:
        start = time.perf_counter()
        plain.append(workload.cycle(traced=False))
        if traced:
            spanned.append(workload.cycle(traced=True))
        busy += time.perf_counter() - start
        done = busy * (len(plain) + 1) / len(plain) > seconds
        due = setup_runs if done else min(setup_runs, math.ceil(setup_runs * busy / seconds))
        while len(setup) < due:
            setup.append(time_import())
        if done:
            return plain, spanned, setup


def time_import() -> float:
    """Wall time of one ``python -c "import groverlab.cli"``."""
    wall, code, _, stderr, _ = spawn([sys.executable, "-c", "import groverlab.cli"])
    if code != 0:
        raise RuntimeError(f"import groverlab.cli failed: {stderr.decode(errors='replace')}")
    return wall


IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)$")


def import_breakdown(repeats: int) -> dict[str, float]:
    """Medians of numpy, click and groverlab import times from ``-X importtime``.

    numpy and click are their packages' cumulative times; groverlab is the
    sum of the self times of its own modules.
    """
    argv = [sys.executable, "-X", "importtime", "-c", "import groverlab.cli"]
    samples = {"import.numpy_s": [], "import.click_s": [], "import.groverlab_s": []}
    for _ in range(repeats):
        _, code, _, stderr, _ = spawn(argv)
        if code != 0:
            raise RuntimeError(f"import groverlab.cli failed: {stderr.decode(errors='replace')}")
        cumulative, own = {}, 0
        for match in map(IMPORT_LINE.match, stderr.decode().splitlines()):
            if match:
                cumulative[match[3]] = int(match[2])
                if match[3] == "groverlab" or match[3].startswith("groverlab."):
                    own += int(match[1])
        samples["import.numpy_s"].append(cumulative.get("numpy", 0) / 1e6)
        samples["import.click_s"].append(cumulative.get("click", 0) / 1e6)
        samples["import.groverlab_s"].append(own / 1e6)
    return {name: statistics.median(values) for name, values in samples.items()}


def tail(ops: list[Op], pct: float) -> tuple[Op, int]:
    """The nearest-rank ``pct`` percentile operation by wall time, and how
    many samples lie beyond it."""
    ordered = sorted(ops, key=lambda op: op.wall)
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(name: str, cycles: list[Cycle], setup: list[float]) -> dict:
    ops = [op for cycle in cycles for op in cycle.ops]
    walls = [op.wall for op in ops]
    tail_op, beyond = tail(ops, TAIL_PCT[name])
    work_time = sum(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "setup_s.samples": (len(setup), "count"),
        "wall_s.p50": (statistics.median(walls), "s"),
        "wall_s.tail": (tail_op.wall, "s"),
        "wall_s.tail_pct": (TAIL_PCT[name], "%"),
        "wall_s.tail_beyond": (beyond, "count"),
        "wall_s.samples": (len(walls), "count"),
        "rows_per_s": (sum(op.rows for op in ops) / work_time, "1/s"),
        "ksteps_per_s": (sum(op.ksteps for op in ops) / work_time, "1/s"),
        "amp_updates_per_s": (sum(c.amp_updates for c in cycles) / work_time, "1/s"),
        "peak_rss_mib": (max(cycle.rss_mib for cycle in cycles), "MiB"),
        "fail_ratio": (sum(1 for op in ops if op.errors) / len(ops), "ratio"),
    }
    # The one throughput metric every workload has: its own unit of work per second.
    work = {"cli-mix": "ksteps_per_s", "simulate": "amp_updates_per_s"}[name]
    metrics["work_per_s"] = metrics[work]
    return metrics


def per_cycle(cycles: list[Cycle], value, count: bool = False) -> float:
    """Median over cycles of the per-cycle sum of ``value(op)``.

    A ``count`` takes the lower median, so it stays a count actually seen.
    """
    median = statistics.median_low if count else statistics.median
    return median(sum(value(op) for op in cycle.ops) for cycle in cycles)


def per_op(cycles: list[Cycle], label: str, value) -> float:
    """Median of ``value(op)`` over the operations labelled ``label``; 0 if none ran."""
    values = [value(op) for cycle in cycles for op in cycle.ops if op.label == label]
    return statistics.median(values) if values else 0.0


def per_layer(plain: list[Cycle], spanned: list[Cycle], imports: dict) -> dict:
    """Per-layer metrics, each the median over cycles of a per-cycle value.

    Layer self time is span time minus child span time, so work a caller
    does inline (the CLI's running-minimum and argmin loops, CSV and JSON
    emission) is self time of the caller, ``cli``.  ``cli.self_s.csv`` and
    ``cli.self_s.json`` are per trace command, so the two emitters compare
    directly; ``cli.self_s.other`` is the per-cycle total of the commands
    that are not traces (bound, table1, scan).
    """
    metrics = {name: (value, "s") for name, value in imports.items()}

    def layer(op, name, key):
        return op.layers.get(name, {}).get(key, 0)

    for fmt in ("csv", "json"):
        metrics[f"cli.self_s.{fmt}"] = (per_op(spanned, f"trace-{fmt}", lambda op: layer(op, "cli", "self_s")), "s")
    metrics["cli.self_s.other"] = (
        per_cycle(spanned, lambda op: layer(op, "cli", "self_s") * (not op.label.startswith("trace-"))),
        "s",
    )
    metrics["cli.rows"] = (per_cycle(plain, lambda op: op.rows, count=True), "count")
    metrics["cli.bytes_out"] = (per_cycle(plain, lambda op: op.bytes_out, count=True), "bytes")
    for name in ("complexity", "entanglement", "pseudopure", "search.closed_form"):
        metrics[f"{name}.self_s"] = (per_cycle(spanned, lambda op: layer(op, name, "self_s")), "s")
        metrics[f"{name}.calls"] = (per_cycle(spanned, lambda op: layer(op, name, "calls"), count=True), "count")
    metrics.update(simulator_layer(spanned))
    metrics["ksteps"] = (per_cycle(plain, lambda op: op.ksteps, count=True), "count")
    metrics["amp_updates"] = (statistics.median_low(cycle.amp_updates for cycle in plain), "count")
    overhead = statistics.median(c.wall for c in spanned) - statistics.median(c.wall for c in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def simulator_layer(spanned: list[Cycle]) -> dict:
    """Simulator figures from the traced cycles; zero where no simulator ran."""
    sims = [cycle for cycle in spanned if cycle.sim]
    if not sims:
        return {
            "search.sim.step_s.n20": (0.0, "s"),
            "search.sim.step_s.n24": (0.0, "s"),
            "search.sim.step_bytes.n24": (0, "bytes"),
            "search.sim.partial_trace_s.n24": (0.0, "s"),
            "search.sim.step_peak_mib.n24": (0.0, "MiB"),
        }
    small = [op.wall / c.sim["small_k"] for c in sims for op in c.ops if op.label.startswith("simulate.")]
    large = [op.wall for c in sims for op in c.ops if op.label.startswith("step.")]
    peak = statistics.median_low(c.sim["step_peak_bytes"] for c in sims)
    return {
        "search.sim.step_s.n20": (statistics.median(small), "s"),
        "search.sim.step_s.n24": (statistics.median(large), "s"),
        # Computed from array sizes, not measured: one read of the input and
        # one write of the result, plus one write and one read of each
        # temporary tracemalloc saw live at the step's peak.  Ignores caches.
        "search.sim.step_bytes.n24": (2 * sims[0].sim["vector_bytes"] + 2 * peak, "bytes"),
        "search.sim.partial_trace_s.n24": (
            statistics.median(op.wall for c in sims for op in c.ops if op.label.startswith("ptrace.")),
            "s",
        ),
        "search.sim.step_peak_mib.n24": (peak / MIB, "MiB"),
    }


def environment() -> dict:
    def run(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True, timeout=10, cwd=ROOT).stdout
        except (OSError, subprocess.SubprocessError):
            return ""

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "not installed"

    l3 = re.search(r"^L3 cache:\s*(.+)$", run(["lscpu"]), re.MULTILINE)
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "l3_cache": l3[1].strip() if l3 else "unknown",
        "git": run(["git", "rev-parse", "HEAD"]).strip() if (ROOT / ".git").exists() else "unknown (not a git checkout)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small problem sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "groverlab" / "cli.py").is_file():
        print(f"error: no groverlab sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload](random.Random(args.seed), args.tiny)
    if args.trace:
        imports = import_breakdown(1 if args.tiny else 3)
        plain, spanned, _ = measure(workload, args.seconds, True, setup_runs=0)
        metrics = per_layer(plain, spanned, imports)
    else:
        plain, spanned, setup = measure(workload, args.seconds, False, setup_runs=3 if args.tiny else SETUP_RUNS)
        metrics = end_to_end(args.workload, plain, setup)

    ops = [op for cycle in plain + spanned for op in cycle.ops]
    failed = [op for op in ops if op.errors]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  cycles {len(plain)}+{len(spanned)} traced")
    print("environment " + json.dumps(environment()))
    for label, digests in sorted(getattr(workload, "digests", {}).items()):
        print(f"stdout sha256 {label}: {' '.join(sorted(digests))}")
    for op in failed[:10]:
        print(f"FAILED {op.label}: {'; '.join(op.errors)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    by_label = {}
    for op in (op for cycle in plain for op in cycle.ops):
        by_label.setdefault(op.label, []).append(op.wall)
    for label, walls in by_label.items():
        print(f"operation {label}: median {statistics.median(walls)} s over {len(walls)}")

    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": {}}
    for metric in wanted:
        value, unit = metrics[metric["name"]]
        if unit != metric["unit"]:
            raise RuntimeError(f"{metric['name']} is measured in {unit}, BENCHMARK.json says {metric['unit']}")
        result["metrics"][metric["name"]] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
