"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failing criterion fails its test.  Stated tolerances and
runtime budgets are asserted, not just documented.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from groverlab import (
    apply_grover_step,
    bloch_vector,
    classical_queries,
    direct_pseudo_variance,
    epsilon_speedup,
    fluctuation_report,
    hs_distance,
    linear_entropy,
    make_instance,
    partial_trace_single_qubit,
    projector_deviation,
    projector_deviation_variance,
    random_traceless_hermitian,
    scan_record,
    separability_bound,
    simulate_statevector,
    table1,
    target_frame_bloch,
    von_neumann_entropy,
)
from groverlab.cli import cli


def report(criterion, message):
    print(f"ACCEPTANCE {criterion} PASS - {message}")


EXPECTED_K_OPT = [0, 1, 1, 2, 0, 0, 0, 0]
EXPECTED_N_PSEUDO = [2.0, 2.0, 5.48, 12.89, 32.0, 64.0, 128.0, 256.0]
EXPECTED_N_CLASS = [1.0, 2.25, 4.38, 8.44, 16.47, 32.48, 64.49, 128.50]


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    result = CliRunner().invoke(cli, ["table1", "--max-qubits", "8"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    lines = result.stdout.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 8
    for i, row in enumerate(rows):
        assert int(row["k_opt"]) == EXPECTED_K_OPT[i], f"k_opt mismatch at n={i + 1}"
        assert abs(float(row["n_pseudo_min"]) - EXPECTED_N_PSEUDO[i]) <= 0.005
        assert abs(float(row["n_class"]) - EXPECTED_N_CLASS[i]) <= 0.005
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    report(1, f"all 8 rows reproduced within 0.005 in {elapsed:.3f}s")


def test_criterion_2_closed_form_vs_brute_force():
    start = time.perf_counter()
    worst_overlap = 1.0
    worst_bloch = 0.0
    for n in range(1, 11):
        N = 1 << n
        targets = [N - 1] if n == 1 else [N - 1, N // 3]
        for y in targets:
            inst = make_instance(n, y)
            span = 2 * math.ceil(math.pi / (4 * inst.theta0))
            v = simulate_statevector(inst, 0)
            for k in range(span + 1):
                theta = (2 * k + 1) * inst.theta0
                exact = np.full(N, math.cos(theta) / math.sqrt(N - 1))
                exact[y] = math.sin(theta)
                overlap = float(np.dot(v, exact)) ** 2
                worst_overlap = min(worst_overlap, overlap)
                expected = bloch_vector(inst, k)
                for ell in {0, n // 2, n - 1}:
                    reduced = partial_trace_single_qubit(v, ell)
                    aligned = target_frame_bloch(reduced, inst, ell)
                    worst_bloch = max(worst_bloch, float(np.abs(aligned - expected).max()))
                v = apply_grover_step(v, inst)
    elapsed = time.perf_counter() - start
    assert worst_overlap >= 1.0 - 1e-10
    assert worst_bloch <= 1e-10
    assert elapsed < 30.0, f"sweep took {elapsed:.3f}s"
    report(
        2,
        f"overlap >= 1-{1 - worst_overlap:.2e}, bloch mismatch <= {worst_bloch:.2e} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_3_separability_bound_fixtures():
    for n in range(1, 13):
        assert separability_bound(make_instance(n, 0), 0) == 1.0
    inst3 = make_instance(3, 7)
    assert separability_bound(inst3, 1) == pytest.approx(1 / (1 + math.sqrt(3)), abs=1e-9)
    reduced = partial_trace_single_qubit(simulate_statevector(inst3, 1), 0)
    eigs = np.linalg.eigvalsh(reduced.matrix)
    via_diag = 1.0 / (1.0 + 8 * math.sqrt(max(eigs[0] * eigs[1], 0.0)))
    assert separability_bound(inst3, 1) == pytest.approx(via_diag, abs=1e-9)
    assert abs(separability_bound(make_instance(2, 0), 1) - 1.0) <= 1e-12
    report(3, "bound fixtures hold at n<=12 (k=0), n=3 (diagonalization), n=2")


def test_criterion_4_two_qubit_threshold():
    found = epsilon_speedup(make_instance(2, 0))
    assert found is not None
    _, threshold = found
    assert threshold == pytest.approx(23.0 / 27.0, abs=1e-9)
    report(4, f"two-qubit speed-up threshold {threshold!r} = 23/27 within 1e-9")


def test_criterion_5_no_speedup_under_separability():
    start = time.perf_counter()
    for row in table1(3, 20):
        assert row.n_pseudo_min >= row.n_class, f"speed-up leaked at n={row.n}"
        assert not row.speedup
    exceptions = []
    for n in range(3, 21):
        record = scan_record(n)
        assert record.entangled_throughout, f"separable step found at n={n}"
        if record.last_step_exception:
            exceptions.append(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"scan took {elapsed:.3f}s"
    report(
        5,
        f"no separable speed-up for n=3..20; entanglement required every step "
        f"(final-step exceptions: {exceptions or 'none'}) in {elapsed:.2f}s",
    )


def test_criterion_6_fluctuation_identity():
    rng = np.random.default_rng(186920)
    worst = 0.0
    for dim in (2, 4, 8):
        for _ in range(200):
            theta = random_traceless_hermitian(dim, rng)
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            epsilon = float(rng.uniform())
            closed = fluctuation_report(theta, psi, epsilon).pseudo_variance
            direct = direct_pseudo_variance(theta, psi, epsilon)
            worst = max(worst, abs(closed - direct))
    assert worst <= 1e-10
    psi4 = np.full(4, 0.5)
    report4 = fluctuation_report(projector_deviation(psi4), psi4, 0.5)
    assert report4.pseudo_variance == pytest.approx(0.234375, abs=1e-12)
    assert projector_deviation_variance(4, 0.5) == pytest.approx(0.234375, abs=1e-14)
    for N in (2, 4, 8, 16):
        for epsilon in np.linspace(0.0, 1.0, 100):
            assert projector_deviation_variance(N, float(epsilon)) >= 0.0
    report(6, f"closed form matches direct trace within {worst:.2e} over 600 triples")


def test_criterion_7_classical_query_oracle():
    for N in range(2, 1025):
        total = sum(min(t + 1, N - 1) for t in range(N))
        enumerated = Fraction(total, N)
        assert Fraction((N + 2) * (N - 1), 2 * N) == enumerated
        assert abs(classical_queries(N) - float(enumerated)) < 1e-12
    report(7, "formula equals enumerated expectation exactly for N=2..1024")


def test_criterion_8_property_suite_exemplars():
    # one representative of each standalone property family; the full
    # suites live in the other test modules and need no network or data
    inst = make_instance(6, 21)
    v = simulate_statevector(inst, 3)
    assert float(v @ v) == pytest.approx(1.0, abs=1e-12)

    reduced = partial_trace_single_qubit(v, 2)
    assert reduced.bloch[1] == 0.0
    assert reduced.lambda1 + reduced.lambda2 == pytest.approx(1.0, abs=1e-12)

    for s in np.linspace(0.0, 1.0, 33):
        assert hs_distance(float(s)) ** 2 + linear_entropy(float(s)) == pytest.approx(
            0.5, abs=1e-12
        )
    samples = [von_neumann_entropy(float(s)) for s in np.linspace(0.0, 1.0, 33)]
    assert all(b < a for a, b in zip(samples, samples[1:]))

    probs = {
        make_instance(5, y).theta0 for y in (0, 13, 31)
    }
    assert len(probs) == 1

    first = CliRunner().invoke(cli, ["bound", "--qubits", "5"])
    second = CliRunner().invoke(cli, ["bound", "--qubits", "5"])
    assert first.stdout == second.stdout and first.exit_code == 0
    report(8, "normalization, reduced-state, entropy, symmetry and CLI checks hold")
