"""Deterministic command-line reports in CSV or JSON.

Each command is a function that checks its arguments through the library
and returns its columns, computed in one array pass; ``scan`` also returns
a verdict line.  One wrapper, ``_report``, registers every command: it alone
adds ``--format`` and ``--output``, turns a library ``ValueError`` into one
``Error:`` line and exit status 2, and emits the columns through a single
writer.  Floats are printed in the shortest form that round-trips, so
identical arguments give byte-identical output on one CPU and numpy build
(see the README).
"""

import contextlib
import functools
import json
import os
import re

import click
import numpy as np
import orjson

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
from .search import _bounded_int, closed_form_state, make_instance, rotation_angle

FORMAT_OPTION = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
OUTPUT_OPTION = click.option(
    "--output", type=click.Path(dir_okay=False), default=None, help="Write to file instead of stdout."
)

# Dense-matrix verification in the fluctuations report caps the dimension.
MAX_FLUCTUATION_QUBITS = 8

# An orjson exponent of one digit, which repr pads to two (2.5e-7 -> 2.5e-07).
_ONE_DIGIT_EXPONENT = re.compile(r"e-(?=\d\b)")


class _InvalidArgument(click.ClickException):
    """One ``Error:`` line on stderr and exit status 2."""

    exit_code = 2


def _cells(values) -> list[str]:
    """A column as CSV/JSON literals: true/false, integers, shortest-repr floats.

    Every cell is ``repr``'s text.  orjson writes the same shortest digits,
    and the same text for integers and for floats in ``repr``'s fixed-point
    range, zero or ``1e-4 <= |x| < 1e16``.  Below ``1e-5`` it differs only
    in an unpadded exponent (``2.5e-7``), which is padded; every other
    float, NaN and infinities included, is formatted by ``repr``.
    """
    values = np.asarray(values)
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    if not values.size:
        return []
    text = orjson.dumps(values.tolist()).decode()[1:-1]
    if values.dtype.kind != "f":
        return text.split(",")
    cells = _ONE_DIGIT_EXPONENT.sub("e-0", text).split(",")
    size = np.abs(values)
    other = np.flatnonzero(~((size < 1e-5) | (size >= 1e-4) & (size < 1e16)))
    for i, cell in zip(other.tolist(), map(repr, values[other].tolist())):
        cells[i] = cell
    return cells


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

    CSV joins per row, which is faster for its one-character separators.
    JSON is one join of the cells interleaved with each column's fixed
    separator, laid out exactly as ``json.dumps(records, indent=2)`` would
    lay out the (never empty) records; every emitted float is finite.
    """
    cells = list(map(_cells, columns.values()))
    if fmt == "csv":
        text = "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"
    else:
        keys = [f"    {json.dumps(name)}: " for name in columns]
        separators = ["\n  },\n  {\n" + keys[0], *(",\n" + key for key in keys[1:])]
        width = 2 * len(cells)
        parts = [""] * (width * len(cells[0]) + 2)
        for j, (separator, column) in enumerate(zip(separators, cells)):
            parts[1 + 2 * j : -1 : width] = [separator] * len(column)
            parts[2 + 2 * j : -1 : width] = column
        parts[0], parts[1], parts[-1] = "[\n  {\n", keys[0], "\n  }\n]\n"
        text = "".join(parts)
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
            fh = open(partial, "x", encoding="utf-8", newline="")
        except OSError as exc:
            raise _InvalidArgument(f"cannot create {partial}: {exc.strerror or exc}") from None
        # Only a partial file that this run created is removed.
        try:
            with fh:
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


def _report(name: str):
    """Register a function that returns its columns as the command ``name``.

    The command takes the function's options, then --format and --output.
    A ``ValueError`` from the function is an invalid argument.  The function
    may return ``(columns, verdict)``; the verdict goes to stderr once the
    columns are written, so a failed --output gives one ``Error:`` line only.
    """

    def register(body):
        @functools.wraps(body)
        def run(fmt, output, **arguments) -> None:
            try:
                report = body(**arguments)
            except ValueError as exc:
                raise _InvalidArgument(str(exc)) from None
            columns, verdict = report if isinstance(report, tuple) else (report, None)
            _emit(columns, fmt, output)
            if verdict is not None:
                click.echo(verdict, err=True)

        return OUTPUT_OPTION(FORMAT_OPTION(cli.command(name)(run)))

    return register


@_report("table1")
@click.option("--min-qubits", type=int, default=1, show_default=True, help="Smallest qubit count.")
@click.option("--max-qubits", type=int, required=True, help="Largest qubit count.")
@click.option(
    "--include-final-test-query",
    type=bool,
    default=True,
    show_default=True,
    help="Count the one outcome-testing function evaluation per repetition.",
)
def cmd_table1(min_qubits, max_qubits, include_final_test_query) -> dict:
    """Best separability-constrained query counts versus classical search."""
    return _stack(table1(min_qubits, max_qubits, include_final_test_query))


@_report("trace")
@click.option("--qubits", type=int, required=True, help="Qubit count n.")
@click.option("--target", type=int, default=None, help="Target index; defaults to 2^n - 1.")
@click.option("--epsilon", type=float, default=1.0, show_default=True, help="Purity parameter.")
def cmd_trace(qubits, target, epsilon) -> dict:
    """Per-iteration entanglement diagnostics of the search at purity eps.

    All emitted quantities are independent of the target index; --target is
    validated and accepted to make that symmetry easy to exercise.
    """
    instance = make_instance(qubits, target)
    k = np.arange(instance.completion_step + 1)
    p = success_probability(instance, k, epsilon)
    s_x, s_y, s_z = bloch_vector(instance, k)
    s_norm = np.minimum(np.hypot(s_x, s_z), 1.0)
    bounds = _bound_columns(instance, k)
    return {
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


@_report("bound")
@click.option("--qubits", type=int, required=True, help="Qubit count n.")
def cmd_bound(qubits) -> dict:
    """Separability bound per iteration with its running minimum."""
    instance = make_instance(qubits)
    k = np.arange(instance.completion_step + 1)
    return {"k": k, "theta_k": rotation_angle(instance, k), **_bound_columns(instance, k)}


@_report("scan")
@click.option("--min-qubits", type=int, required=True, help="Smallest qubit count (>= 2).")
@click.option("--max-qubits", type=int, required=True, help="Largest qubit count (<= 30).")
def cmd_scan(min_qubits, max_qubits) -> tuple[dict, str]:
    """Speed-up purity threshold versus per-step separability bounds.

    Emits one row per (n, iteration) pair; a summary verdict goes to
    standard error so the payload stays machine-readable.
    """
    scans = speedup_entanglement_scan(min_qubits, max_qubits)
    bad = [rec.n for rec in scans if not rec.entangled_throughout]
    exceptions = [rec.n for rec in scans if rec.last_step_exception]
    detail = f"final-step exceptions at n = {exceptions}" if exceptions else "no final-step exceptions"
    verdict = (
        f"conclusion violated at n = {bad}"
        if bad
        else f"speed-up requires entanglement after every iteration up to k_opt for every n ({detail})"
    )
    return _stack(scans), f"scan {min_qubits}..{max_qubits}: {verdict}"


@_report("fluctuations")
@click.option("--qubits", type=int, required=True, help=f"Qubit count n (<= {MAX_FLUCTUATION_QUBITS}).")
@click.option("--epsilon", type=float, default=1.0, show_default=True, help="Purity parameter.")
def cmd_fluctuations(qubits, epsilon) -> dict:
    """Ensemble-variance identity for the projector-deviation observable.

    Uses Theta = |psi><psi| - I/N with psi the uniform superposition; the
    numbers depend only on N and eps.  Reports the closed-form ensemble
    variance next to the direct dense-matrix value.
    """
    instance = make_instance(_bounded_int(qubits, 1, MAX_FLUCTUATION_QUBITS, "qubit count"))
    psi = closed_form_state(instance, 0)
    theta_op = projector_deviation(psi)
    report = fluctuation_report(theta_op, psi, epsilon)
    direct = direct_pseudo_variance(theta_op, psi, epsilon)
    return {
        "n": [instance.n],
        "N": [instance.N],
        **_stack([report]),
        "direct_variance": [direct],
        "abs_difference": [abs(report.pseudo_variance - direct)],
    }


if __name__ == "__main__":
    cli()
