"""The benchmark's own checks: tiny runs report every metric, the oracle
catches wrong output, and a tree without groverlab's sources is refused.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1"]
    argv += ["--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def groverlab(*args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "groverlab.cli", *args], cwd=ROOT, env=env, capture_output=True, check=True
    ).stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name in wanted:
        assert f"\n{name} = " in proc.stdout


def test_oracle_catches_a_wrong_digit_in_trace():
    out = groverlab("trace", "--qubits", "6", "--epsilon", "0.5")
    assert oracle.check_trace(out, "csv", 6, 0.5)[1] == []
    header, first, second, *rest = out.decode().splitlines()
    cells = second.split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    wrong = "\n".join([header, first, ",".join(cells), *rest]).encode()
    rows, errors = oracle.check_trace(wrong, "csv", 6, 0.5)
    assert rows == oracle.span(6) + 1 and any("theta_k" in e for e in errors)


def test_oracle_catches_a_wrong_bloch_component():
    out = groverlab("trace", "--qubits", "6", "--epsilon", "0.5", "--format", "json")
    records = json.loads(out)
    records[3]["s_z"] *= 1 + 1e-6
    errors = oracle.check_trace(json.dumps(records).encode(), "json", 6, 0.5)[1]
    assert any("s_z" in e for e in errors)


@pytest.mark.parametrize(
    "workload, mix",
    [
        ("simulate", [("ptrace", 3.5), ("simulate.n20", 0.2), ("start", 0.05)] + [("step", 0.14)] * 24),
        ("cli-mix", [("json", 1.4)] * 3 + [("csv", 1.0)] * 2 + [("table1", 1.2), ("bound", 0.6), ("scan", 0.5)]),
    ],
)
def test_tail_lands_on_the_same_operation_at_any_cycle_count(workload, mix):
    def cycles(count):
        # Jitter that differs from cycle to cycle but keeps the mix's order.
        return [run.Cycle([run.Op(label, wall * (1 + 0.01 * ((i * 7 + j) % 5))) for j, (label, wall) in enumerate(mix)], 0, 0) for i in range(count)]

    labels = set()
    for count in (6, 7, 12, 20):
        op, beyond = run.tail([op for cycle in cycles(count) for op in cycle.ops], run.TAIL_PCT[workload])
        labels.add(op.label)
        assert beyond >= 10
    assert len(labels) == 1


def test_oracle_catches_a_missing_row_and_a_wrong_table_fact():
    out = groverlab("bound", "--qubits", "6", "--format", "json")
    records = json.loads(out)
    assert oracle.check_trace(json.dumps(records[:-1]).encode(), "json", 6, None)[1]
    table = json.loads(groverlab("table1", "--max-qubits", "4", "--format", "json"))
    assert oracle.check_table1(json.dumps(table).encode(), "json", 1, 4)[1] == []
    table[2]["speedup"] = True
    assert oracle.check_table1(json.dumps(table).encode(), "json", 1, 4)[1]


def test_refuses_a_tree_without_groverlab(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("cli-mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
