"""Deterministic command-line reports in CSV or JSON.

Every command checks its arguments through the library (an invalid
argument prints one ``Error:`` line and exits with status 2), computes its
columns in one array pass, and emits them through a single writer.  Floats
are printed in the shortest form that round-trips, so identical arguments
always produce byte-identical output.
"""

import contextlib
import json
import os

import click
import numpy as np

from .complexity import speedup_entanglement_scan, table1
from .entanglement import (
    bloch_vector,
    hs_distance,
    linear_entropy,
    max_separable_epsilon,
    requires_entanglement,
    schmidt_product,
    separability_bound,
    von_neumann_entropy,
)
from .pseudopure import (
    direct_pseudo_variance,
    fluctuation_report,
    projector_deviation,
    success_probability,
)
from .search import closed_form_state, make_instance, rotation_angle

FORMAT_CHOICE = click.Choice(["csv", "json"])

# Dense-matrix verification in the fluctuations report caps the dimension.
MAX_FLUCTUATION_QUBITS = 8


class _InvalidArgument(click.ClickException):
    """One ``Error:`` line on stderr and exit status 2."""

    exit_code = 2


@contextlib.contextmanager
def _library_checks():
    """Report a library ``ValueError`` as an invalid argument."""
    try:
        yield
    except ValueError as exc:
        raise _InvalidArgument(str(exc)) from None


def _cells(values) -> list[str]:
    """A column as CSV/JSON literals: true/false, integers, shortest-repr floats."""
    values = np.asarray(values)
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    return list(map(repr, values.tolist()))


def _stack(records) -> dict:
    """One column per record field; a scalar field is repeated along the record's array fields."""
    parts = {}
    for rec in records:
        fields = vars(rec)
        rows = max((len(value) for value in fields.values() if np.ndim(value)), default=1)
        for name, value in fields.items():
            parts.setdefault(name, []).append(np.broadcast_to(value, rows))
    return {name: np.concatenate(column) for name, column in parts.items()}


def _emit(columns: dict, fmt: str, output: str | None) -> None:
    """Write equal-length columns as CSV rows or a JSON list of records.

    The JSON text is laid out exactly as ``json.dumps(records, indent=2)``
    would lay out the (never empty) records; every emitted float is finite.
    """
    rows = zip(*map(_cells, columns.values()))
    if fmt == "csv":
        text = "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"
    else:
        keys = [f"    {json.dumps(name)}: " for name in columns]
        records = ["  {\n" + ",\n".join(map(str.__add__, keys, row)) + "\n  }" for row in rows]
        text = "[\n" + ",\n".join(records) + "\n]\n"
    if output is None:
        click.get_text_stream("stdout").write(text)
        return
    target = os.path.realpath(output)
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            # A FIFO or a device node is written to, never replaced.
            with open(target, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            return
        # A sibling of the resolved path renamed onto it: a failed write never
        # leaves a partial output, and a symlink keeps pointing at its target.
        partial = f"{target}.{os.getpid()}.partial"
        try:
            with open(partial, "x", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(partial, target)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(partial)
    except OSError as exc:
        raise _InvalidArgument(f"cannot write {output}: {exc.strerror or exc}") from None


def _bound_columns(instance, k: np.ndarray) -> dict:
    return {
        "lambda_product": schmidt_product(instance, k),
        "epsilon_bound": separability_bound(instance, k),
        "epsilon_bound_cummin": max_separable_epsilon(instance, k),
    }


@click.group()
def cli() -> None:
    """Quantum-search entanglement and query-complexity reports."""


@cli.command("table1")
@click.option("--min-qubits", type=int, default=1, show_default=True, help="Smallest qubit count.")
@click.option("--max-qubits", type=int, required=True, help="Largest qubit count.")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="csv", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="Write to file instead of stdout.")
@click.option(
    "--include-final-test-query",
    type=bool,
    default=True,
    show_default=True,
    help="Count the one outcome-testing function evaluation per repetition.",
)
def cmd_table1(min_qubits, max_qubits, fmt, output, include_final_test_query) -> None:
    """Best separability-constrained query counts versus classical search."""
    with _library_checks():
        rows = table1(min_qubits, max_qubits, include_final_test_query)
    _emit(_stack(rows), fmt, output)


@cli.command("trace")
@click.option("--qubits", type=int, required=True, help="Qubit count n.")
@click.option("--target", type=int, default=None, help="Target index; defaults to 2^n - 1.")
@click.option("--epsilon", type=float, default=1.0, show_default=True, help="Purity parameter.")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="csv", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_trace(qubits, target, epsilon, fmt, output) -> None:
    """Per-iteration entanglement diagnostics of the search at purity eps.

    All emitted quantities are independent of the target index; --target is
    validated and accepted to make that symmetry easy to exercise.
    """
    with _library_checks():
        instance = make_instance(qubits, target)
        k = np.arange(instance.completion_step + 1)
        p = success_probability(instance, k, epsilon)
    s_x, s_y, s_z = bloch_vector(instance, k)
    s_norm = np.minimum(np.hypot(s_x, s_z), 1.0)
    bounds = _bound_columns(instance, k)
    columns = {
        "k": k,
        "theta_k": rotation_angle(instance, k),
        "s_x": s_x,
        "s_y": s_y,
        "s_z": s_z,
        "s_norm": s_norm,
        "von_neumann_entropy": von_neumann_entropy(s_norm),
        "linear_entropy": linear_entropy(s_norm),
        "hs_distance": hs_distance(s_norm),
        **bounds,
        "success_probability": p,
        "entangled": requires_entanglement(epsilon, bounds["epsilon_bound"]),
    }
    _emit(columns, fmt, output)


@cli.command("bound")
@click.option("--qubits", type=int, required=True, help="Qubit count n.")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="csv", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_bound(qubits, fmt, output) -> None:
    """Separability bound per iteration with its running minimum."""
    with _library_checks():
        instance = make_instance(qubits)
    k = np.arange(instance.completion_step + 1)
    _emit({"k": k, "theta_k": rotation_angle(instance, k), **_bound_columns(instance, k)}, fmt, output)


@cli.command("scan")
@click.option("--min-qubits", type=int, required=True, help="Smallest qubit count (> 2).")
@click.option("--max-qubits", type=int, required=True, help="Largest qubit count (<= 20).")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="csv", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_scan(min_qubits, max_qubits, fmt, output) -> None:
    """Speed-up purity threshold versus per-step separability bounds.

    Emits one row per (n, iteration) pair; a summary verdict goes to
    standard error so the payload stays machine-readable.
    """
    with _library_checks():
        scans = speedup_entanglement_scan(min_qubits, max_qubits)
    _emit(_stack(scans), fmt, output)
    holds = all(rec.entangled_throughout for rec in scans)
    exceptions = [rec.n for rec in scans if rec.last_step_exception]
    if holds:
        detail = f"final-step exceptions at n = {exceptions}" if exceptions else "no final-step exceptions"
        message = (
            f"scan {min_qubits}..{max_qubits}: speed-up requires entanglement after "
            f"every iteration up to k_opt for every n ({detail})"
        )
    else:
        bad = [rec.n for rec in scans if not rec.entangled_throughout]
        message = f"scan {min_qubits}..{max_qubits}: conclusion violated at n = {bad}"
    click.echo(message, err=True)


@cli.command("fluctuations")
@click.option("--qubits", type=int, required=True, help=f"Qubit count n (<= {MAX_FLUCTUATION_QUBITS}).")
@click.option("--epsilon", type=float, default=1.0, show_default=True, help="Purity parameter.")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="csv", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_fluctuations(qubits, epsilon, fmt, output) -> None:
    """Ensemble-variance identity for the projector-deviation observable.

    Uses Theta = |psi><psi| - I/N with psi the uniform superposition; the
    numbers depend only on N and eps.  Reports the closed-form ensemble
    variance next to the direct dense-matrix value.
    """
    if qubits > MAX_FLUCTUATION_QUBITS:
        raise _InvalidArgument(f"qubit count must be at most {MAX_FLUCTUATION_QUBITS}, got {qubits}")
    with _library_checks():
        instance = make_instance(qubits)
        psi = closed_form_state(instance, 0).statevector()
        theta_op = projector_deviation(psi)
        report = fluctuation_report(theta_op, psi, epsilon)
    direct = direct_pseudo_variance(theta_op, psi, epsilon)
    columns = {
        "n": [instance.n],
        "N": [instance.N],
        **_stack([report]),
        "direct_variance": [direct],
        "abs_difference": [abs(report.pseudo_variance - direct)],
    }
    _emit(columns, fmt, output)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
