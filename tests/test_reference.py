"""What ``trace --epsilon 0.3`` prints against a 60-digit mpmath reference at n = 10, 20, 26, 30.

The reference evaluates the paper's formulas from theta0 = asin(2^(-n/2))
in mpmath and shares no code with groverlab.  The checked values are the
printed CSV columns of ``trace``, read back as floats (the shortest repr
round-trips, so they are the computed doubles).  Each sweep covers k = 0..5,
about 40 evenly spread k, completion_step - 1 and completion_step.
"""

import csv
import io
import math

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

from groverlab import make_instance
from groverlab.cli import cli

QUBITS = (10, 20, 26, 30)
EPSILON = 0.3
# Relative error allowed where the formula is well conditioned: a few ulp
# (the largest measured is 4.7e-16).
RTOL = 2e-15


def sweep(instance) -> np.ndarray:
    c = instance.completion_step
    return np.unique(np.concatenate([np.arange(6), np.linspace(0, c, 40).astype(np.int64), [c - 1, c]]))


def reference(n: int, k: int) -> dict:
    """Every per-step quantity of the search at (n, k), to 60 digits."""
    with mpmath.workdps(60):
        N = mpmath.mpf(2) ** n
        theta0 = mpmath.asin(1 / mpmath.sqrt(N))
        theta = (2 * k + 1) * theta0
        c2 = mpmath.cos(theta) ** 2
        s_x = (N - 2) / (N - 1) * c2 + mpmath.sin(2 * theta) / mpmath.sqrt(N - 1)
        s_z = c2 / (N - 1) - mpmath.sin(theta) ** 2
        product = N * (N - 2) / (2 * (N - 1) ** 2) * mpmath.sin(2 * k * theta0) ** 2 * c2
        s_sq = s_x**2 + s_z**2
        lam1, lam2 = (1 + mpmath.sqrt(s_sq)) / 2, (1 - mpmath.sqrt(s_sq)) / 2
        return {
            "theta_k": theta,
            "s_x": s_x,
            "s_z": s_z,
            "success_probability": (1 + mpmath.mpf(EPSILON) * (N * mpmath.sin(theta) ** 2 - 1)) / N,
            "lambda_product": product,
            "epsilon_bound": 1 / (1 + N * mpmath.sqrt(product)),
            "von_neumann_entropy": -sum(lam * mpmath.log(lam, 2) for lam in (lam1, lam2) if lam),
            "linear_entropy": (1 - s_sq) / 2,
        }


def printed(n: int) -> list[dict]:
    """The CSV rows of ``trace --qubits n --epsilon EPSILON``; row k is iteration k."""
    result = CliRunner().invoke(cli, ["trace", "--qubits", str(n), "--epsilon", str(EPSILON)])
    assert result.exit_code == 0, result.output
    return list(csv.DictReader(io.StringIO(result.stdout)))


@pytest.fixture(scope="module")
def table():
    """(n, k, theta_k, name -> (printed, reference)) for every n and k of the sweep."""
    table_rows = []
    for n in QUBITS:
        rows = printed(n)
        for k in sweep(make_instance(n)).tolist():
            row, ref = rows[k], reference(n, k)
            assert int(row["k"]) == k
            pairs = {name: (float(row[name]), ref[name]) for name in ref}
            table_rows.append((n, k, float(ref["theta_k"]), pairs))
    return table_rows


def cos_conditioned_rtol(theta: float) -> float:
    """Relative error allowed for a quantity that carries cos(theta_k)^2.

    theta_k itself is good to RTOL, and a relative error d of theta turns
    into 2*theta*|tan(theta)|*d in cos(theta)^2.  Near the quarter turn
    cos(theta_k) is small: at n = 30, k = 25735 it is 2.6e-5 and the factor
    is 1.2e5, so one ulp of theta_k (1.4e-16 relative) gives the 1.7e-11
    measured in lambda1*lambda2.
    """
    return RTOL * (1.0 + 2.0 * theta * abs(math.tan(theta)))


def assert_close(table, names, rtol_of) -> None:
    for n, k, theta, pairs in table:
        for name in names:
            got, ref = pairs[name]
            assert abs(got - ref) <= rtol_of(theta) * abs(ref), (name, n, k, got, float(ref))


def test_well_conditioned_quantities(table):
    assert_close(table, ["theta_k", "s_z", "success_probability"], lambda theta: RTOL)


def test_quantities_carrying_cos_theta(table):
    # s_x, lambda1*lambda2 and eps_k = 1/(1 + N sqrt(lambda1*lambda2)) all
    # contain cos(theta_k)^2 (s_x also sin(2 theta_k)), which the bound covers.
    assert_close(table, ["s_x", "lambda_product", "epsilon_bound"], cos_conditioned_rtol)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="entropies are formed from 1 - s with s near 1 and lose about 1e-7 relative at n = 30; "
    "ROADMAP item 1's entropy fix (lambda2 from the Schmidt product, log1p) removes this marker",
)
def test_entropies(table):
    # Computed from lambda1*lambda2, the entropies inherit its conditioning.
    assert_close(table, ["von_neumann_entropy", "linear_entropy"], cos_conditioned_rtol)
