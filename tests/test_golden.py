"""Golden CLI outputs: every command's stdout compared against committed files.

The files under ``golden/`` were produced by the CLI before the per-quantity
functions were vectorized, except ``scan_21_21.csv``, written when the scan
range grew past n = 20, and ``scan_2_4.csv``, written when it reached down to
the n = 2 final-step exception.  Most must match byte for byte.  The long
``trace`` run is compared field by field: integers, booleans, headers and
row counts exactly, floats within a few ulp, since numpy's vectorized
``sin``/``hypot``/``log2``/squaring may round a value differently from the
scalar ``math`` route by about one ulp.

Past the byte-exact files, up to n = 30, the closed forms behind those
columns are pinned bit for bit to their numpy expressions, written out
here in full.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from groverlab import (
    bloch_vector,
    make_instance,
    max_separable_epsilon,
    rotation_angle,
    schmidt_product,
    separability_bound,
    success_probability,
)
from groverlab.cli import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

BYTE_EXACT = {
    "table1_max30.csv": ["table1", "--max-qubits", "30"],
    "table1_max30.json": ["table1", "--max-qubits", "30", "--format", "json"],
    "table1_max4_no_test_query.csv": ["table1", "--max-qubits", "4", "--include-final-test-query", "false"],
    "scan_3_12.csv": ["scan", "--min-qubits", "3", "--max-qubits", "12"],
    "scan_21_21.csv": ["scan", "--min-qubits", "21", "--max-qubits", "21"],
    "scan_2_4.csv": ["scan", "--min-qubits", "2", "--max-qubits", "4"],
    "bound_12.csv": ["bound", "--qubits", "12"],
    "trace_8_eps0.05.csv": ["trace", "--qubits", "8", "--epsilon", "0.05"],
    "trace_8_eps0.05.json": ["trace", "--qubits", "8", "--epsilon", "0.05", "--format", "json"],
    "trace_2.csv": ["trace", "--qubits", "2"],
    "fluctuations_4_eps0.3.csv": ["fluctuations", "--qubits", "4", "--epsilon", "0.3"],
}

FIELD_BY_FIELD = {
    "trace_20_eps0.3.csv": ["trace", "--qubits", "20", "--epsilon", "0.3"],
}

# Both entropies are formed from 1 - s with s close to 1, so they carry
# cancellation error far above one ulp of their own value.
ABSOLUTE_ONLY = {"von_neumann_entropy": 1e-15, "linear_entropy": 1e-15}
ULPS = 4
FLOOR = 1e-18


def stdout_of(args):
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
    return result.stdout


def cells_match(column: str, want: str, got: str) -> bool:
    if want in ("true", "false"):
        return got == want
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    a, b = float(want), float(got)
    diff = abs(a - b)
    if column in ABSOLUTE_ONLY:
        return diff <= ABSOLUTE_ONLY[column]
    return diff <= ULPS * math.ulp(max(abs(a), abs(b))) or diff <= FLOOR


@pytest.mark.parametrize("name", sorted(BYTE_EXACT))
def test_byte_identical(name):
    assert stdout_of(BYTE_EXACT[name]) == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(FIELD_BY_FIELD))
def test_field_by_field(name):
    want = (GOLDEN / name).read_text(encoding="utf-8").rstrip("\n").split("\n")
    got = stdout_of(FIELD_BY_FIELD[name]).rstrip("\n").split("\n")
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0].split(",")
    mismatches = []
    for row, (want_line, got_line) in enumerate(zip(want[1:], got[1:])):
        want_cells, got_cells = want_line.split(","), got_line.split(",")
        assert len(got_cells) == len(header)
        for column, w, g in zip(header, want_cells, got_cells):
            if not cells_match(column, w, g):
                mismatches.append((row, column, w, g))
    assert mismatches == []


@pytest.mark.parametrize("n", range(1, 31))
def test_closed_forms_are_their_expressions_bit_for_bit(n):
    # every step a trace or bound prints, k = 0..completion_step
    inst = make_instance(n)
    N = inst.N
    k = np.arange(inst.completion_step + 1)
    theta = (2 * k + 1) * inst.theta0
    c2 = np.cos(theta) ** 2
    s_x = (N - 2) / (N - 1) * c2 + np.sin(2 * theta) / math.sqrt(N - 1)
    s_z = c2 / (N - 1) - np.sin(theta) ** 2
    product = N * (N - 2) / (2.0 * (N - 1) ** 2) * np.sin(2 * inst.theta0 * k) ** 2 * np.cos(theta) ** 2
    bound = 1.0 / (1.0 + N * np.sqrt(product))
    assert np.array_equal(rotation_angle(inst, k), theta)
    assert np.array_equal(bloch_vector(inst, k), np.array([s_x, np.zeros_like(s_x), s_z]))
    assert np.array_equal(schmidt_product(inst, k), product)
    assert np.array_equal(separability_bound(inst, k), bound)
    assert np.array_equal(max_separable_epsilon(inst, k), np.minimum.accumulate(bound))
    for eps in (0.3, 1.0):
        p = (1.0 + eps * (N * np.sin(theta) ** 2 - 1.0)) / N
        assert np.array_equal(success_probability(inst, k, eps), p)
