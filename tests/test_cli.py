import json
import math
import os
import threading

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, strategies as st

from groverlab import separability_bound, make_instance, table1
from groverlab.cli import _cells, cli

TABLE_HEADER = "n,N,k_opt,n_pseudo_min,n_class,epsilon_used,speedup"
TRACE_HEADER = (
    "k,theta_k,s_x,s_y,s_z,s_norm,von_neumann_entropy,linear_entropy,hs_distance,"
    "lambda_product,epsilon_bound,epsilon_bound_cummin,success_probability,entangled"
)
BOUND_HEADER = "k,theta_k,lambda_product,epsilon_bound,epsilon_bound_cummin"
SCAN_HEADER = (
    "n,k_opt,k,epsilon_bound,epsilon_speedup,entangled_at_k,"
    "entangled_throughout,last_step_exception"
)
FLUCT_HEADER = (
    "n,N,epsilon,pure_expectation,pure_variance,trace_theta_sq_over_N,"
    "pseudo_variance,direct_variance,abs_difference"
)


def run(*args):
    result = CliRunner().invoke(cli, list(args))
    return result


def ok(*args):
    """Run a command that must succeed, so its stdout is worth parsing."""
    result = run(*args)
    assert result.exit_code == 0, result.output
    return result


def assert_one_line_error(result):
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("Error: ")
    assert result.stderr.count("\n") == 1


def csv_rows(result):
    lines = result.stdout.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestCellsAreRepr:
    """Every float cell is ``repr``'s text, whichever writer produced it.

    ``_cells`` takes orjson's text where it matches ``repr``'s layout and
    ``repr`` elsewhere; a new orjson that writes any cell differently fails here.
    """

    @staticmethod
    def assert_repr(values):
        values = np.asarray(values)
        assert _cells(values) == [repr(x) for x in values.tolist()]

    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=0, max_value=40),
            elements=st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                # The layout boundaries at 1e-5, 1e-4 and 1e16.
                st.floats(min_value=-2e-4, max_value=2e-4),
                st.floats(min_value=1e15, max_value=1e17),
            ),
        )
    )
    @example(np.array([0.0, -0.0, 5e-324, -2.5e-7, np.nan, np.inf, -np.inf]))
    def test_float_arrays(self, values):
        self.assert_repr(values)

    def test_edges(self):
        edges = [1e-10, 1e-5, 1e-4, 1e16]
        values = [
            *np.nextafter(edges, 0.0),
            *edges,
            *np.nextafter(edges, np.inf),
            5e-324,
            2.0**53,
            536870912.0,
            np.finfo(np.float64).max,
        ]
        self.assert_repr(values + [-x for x in values])

    def test_integers_and_bools(self):
        self.assert_repr([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max])
        assert _cells(np.array([True, False])) == ["true", "false"]


class TestTable1Command:
    def test_csv_schema_and_shape(self):
        result = ok("table1", "--max-qubits", "8")
        assert result.exit_code == 0
        header, rows = csv_rows(result)
        assert ",".join(header) == TABLE_HEADER
        assert len(rows) == 8
        assert [row["n"] for row in rows] == [str(n) for n in range(1, 9)]

    def test_csv_values_round_trip(self):
        result = ok("table1", "--max-qubits", "6")
        _, rows = csv_rows(result)
        for row, expected in zip(rows, table1(1, 6)):
            assert int(row["n"]) == expected.n
            assert int(row["N"]) == expected.N
            assert int(row["k_opt"]) == expected.k_opt
            assert float(row["n_pseudo_min"]) == expected.n_pseudo_min
            assert float(row["n_class"]) == expected.n_class
            assert float(row["epsilon_used"]) == expected.epsilon_used
            assert row["speedup"] == ("true" if expected.speedup else "false")

    def test_json_round_trip(self):
        result = ok("table1", "--max-qubits", "1", "--format", "json")
        records = json.loads(result.stdout)
        assert len(records) == 1
        expected = table1(1, 1)[0]
        assert records[0]["n"] == 1
        assert records[0]["n_pseudo_min"] == expected.n_pseudo_min
        assert records[0]["n_class"] == 1.0
        assert records[0]["speedup"] is False

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_file(self, tmp_path, fmt):
        path = tmp_path / f"rows.{fmt}"
        result = ok("table1", "--max-qubits", "3", "--format", fmt, "--output", str(path))
        assert result.stdout == ""
        direct = ok("table1", "--max-qubits", "3", "--format", fmt)
        assert path.read_bytes() == direct.stdout_bytes

    def test_output_replaces_existing_file_whole(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("stale contents that are longer than nothing\n" * 100, encoding="utf-8")
        ok("table1", "--max-qubits", "2", "--output", str(path))
        assert path.read_text(encoding="utf-8") == ok("table1", "--max-qubits", "2").stdout
        assert [entry.name for entry in tmp_path.iterdir()] == ["rows.csv"]

    def test_output_to_missing_directory_is_an_argument_error(self, tmp_path):
        path = tmp_path / "missing" / "rows.csv"
        result = run("table1", "--max-qubits", "3", "--output", str(path))
        assert_one_line_error(result)
        assert "rows.csv" in result.stderr
        assert not path.parent.exists()
        assert list(tmp_path.iterdir()) == []

    def test_output_leaves_a_partial_file_it_did_not_create(self, tmp_path):
        path = tmp_path / "report.csv"
        stale = tmp_path.resolve() / f"report.csv.{os.getpid()}.partial"
        stale.write_text("another run's rows\n", encoding="utf-8")
        result = run("bound", "--qubits", "3", "--output", str(path))
        assert_one_line_error(result)
        assert stale.name in result.stderr
        assert stale.read_text(encoding="utf-8") == "another run's rows\n"
        assert not path.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_output_to_a_full_device_is_an_argument_error(self):
        # a device node is written in place, and every write to /dev/full fails
        result = run("table1", "--max-qubits", "3", "--output", "/dev/full")
        assert_one_line_error(result)
        assert result.stderr == "Error: cannot write /dev/full: No space left on device\n"

    def test_output_through_a_symlink_writes_its_target(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("stale\n", encoding="utf-8")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        ok("table1", "--max-qubits", "3", "--output", str(link))
        assert link.is_symlink() and link.resolve() == real
        assert real.read_text(encoding="utf-8") == ok("table1", "--max-qubits", "3").stdout
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_output_into_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "rows.fifo"
        os.mkfifo(fifo)
        received = []
        # A daemon reader: if the FIFO were replaced, its open() would never return.
        reader = threading.Thread(target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True)
        reader.start()
        ok("table1", "--max-qubits", "3", "--output", str(fifo))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [ok("table1", "--max-qubits", "3").stdout]
        assert fifo.is_fifo()

    def test_exclude_final_test_query(self):
        result = ok("table1", "--max-qubits", "2", "--include-final-test-query", "false")
        _, rows = csv_rows(result)
        assert float(rows[1]["n_pseudo_min"]) == pytest.approx(1.0, abs=1e-9)
        assert rows[1]["speedup"] == "true"

    @pytest.mark.parametrize(
        "args",
        [
            ("table1", "--max-qubits", "0"),
            ("table1", "--max-qubits", "31"),
            ("table1", "--min-qubits", "5", "--max-qubits", "3"),
            ("table1", "--max-qubits", "4", "--include-final-test-query", "maybe"),
        ],
    )
    def test_argument_errors_exit_two(self, args):
        result = run(*args)
        assert result.exit_code == 2

    def test_range_error_is_one_line(self):
        assert_one_line_error(run("table1", "--min-qubits", "5", "--max-qubits", "3"))


class TestTraceCommand:
    def test_schema_and_span(self):
        result = ok("trace", "--qubits", "3", "--epsilon", "0.5")
        header, rows = csv_rows(result)
        assert ",".join(header) == TRACE_HEADER
        inst = make_instance(3, 7)
        assert len(rows) == math.ceil(math.pi / (4 * inst.theta0)) + 1

    def test_entangled_flags_at_half_purity(self):
        _, rows = csv_rows(ok("trace", "--qubits", "3", "--epsilon", "0.5"))
        assert rows[0]["entangled"] == "false"
        assert rows[1]["entangled"] == "true"
        assert float(rows[1]["epsilon_bound"]) == pytest.approx(0.36602540378443865, abs=1e-9)

    def test_low_purity_never_entangled(self):
        _, rows = csv_rows(ok("trace", "--qubits", "3", "--epsilon", "0.2"))
        assert all(row["entangled"] == "false" for row in rows)

    def test_pure_two_qubit_completion_row(self):
        _, rows = csv_rows(ok("trace", "--qubits", "2", "--epsilon", "1.0"))
        row = rows[1]
        assert float(row["s_x"]) == pytest.approx(0.0, abs=1e-12)
        assert float(row["s_z"]) == pytest.approx(-1.0, abs=1e-12)
        assert float(row["von_neumann_entropy"]) == pytest.approx(0.0, abs=1e-12)
        assert float(row["epsilon_bound"]) == pytest.approx(1.0, abs=1e-12)
        assert row["entangled"] == "false"

    def test_output_independent_of_target(self):
        default = ok("trace", "--qubits", "4", "--epsilon", "0.3")
        other = ok("trace", "--qubits", "4", "--epsilon", "0.3", "--target", "5")
        assert default.stdout == other.stdout

    @pytest.mark.parametrize(
        "args",
        [
            ("trace", "--qubits", "0"),
            ("trace", "--qubits", "3", "--epsilon", "1.5"),
            ("trace", "--qubits", "3", "--target", "8"),
            ("trace", "--qubits", "3", "--target", "-1"),
        ],
    )
    def test_argument_errors_exit_two(self, args):
        assert_one_line_error(run(*args))


class TestBoundCommand:
    def test_schema_and_values(self):
        result = ok("bound", "--qubits", "4")
        header, rows = csv_rows(result)
        assert ",".join(header) == BOUND_HEADER
        inst = make_instance(4, 15)
        for row in rows:
            k = int(row["k"])
            assert float(row["epsilon_bound"]) == separability_bound(inst, k)
        cummins = [float(row["epsilon_bound_cummin"]) for row in rows]
        assert all(b <= a for a, b in zip(cummins, cummins[1:]))


class TestScanCommand:
    def test_schema_and_summary(self):
        result = ok("scan", "--min-qubits", "3", "--max-qubits", "5")
        header, rows = csv_rows(result)
        assert ",".join(header) == SCAN_HEADER
        assert all(row["entangled_throughout"] == "true" for row in rows)
        assert "every iteration" in result.stderr
        assert result.stderr not in result.stdout

    def test_single_qubit_count_thresholds(self):
        _, rows = csv_rows(ok("scan", "--min-qubits", "3", "--max-qubits", "3"))
        assert len(rows) == 1
        assert float(rows[0]["epsilon_speedup"]) == pytest.approx(0.5061224489795919, abs=1e-9)
        assert float(rows[0]["epsilon_bound"]) == pytest.approx(0.36602540378443865, abs=1e-9)

    def test_whole_instance_range(self):
        result = ok("scan", "--min-qubits", "3", "--max-qubits", "30")
        assert result.stderr.endswith("for every n (no final-step exceptions)\n")

    def test_two_qubit_final_step_exception(self):
        result = ok("scan", "--min-qubits", "2", "--max-qubits", "2")
        assert result.stderr.endswith("(final-step exceptions at n = [2])\n")

    def test_single_qubit_is_undefined(self):
        result = run("scan", "--min-qubits", "1", "--max-qubits", "4")
        assert_one_line_error(result)
        assert result.stderr == "Error: no speed-up purity exists at n = 1; scan is undefined\n"

    def test_failed_output_prints_no_verdict(self, tmp_path):
        # the verdict follows the rows, so an --output error is the only line
        result = run("scan", "--min-qubits", "3", "--max-qubits", "4", "--output", str(tmp_path / "missing" / "s.csv"))
        assert_one_line_error(result)
        assert "scan 3..4" not in result.stderr

    def test_json_round_trip(self):
        result = ok("scan", "--min-qubits", "3", "--max-qubits", "4", "--format", "json")
        records = json.loads(result.stdout)
        assert {record["n"] for record in records} == {3, 4}
        assert all(isinstance(record["entangled_at_k"], bool) for record in records)

    @pytest.mark.parametrize(
        "args",
        [
            ("scan", "--min-qubits", "1", "--max-qubits", "5"),
            ("scan", "--min-qubits", "3", "--max-qubits", "31"),
            ("scan", "--min-qubits", "6", "--max-qubits", "4"),
        ],
    )
    def test_argument_errors_exit_two(self, args):
        assert_one_line_error(run(*args))


class TestFluctuationsCommand:
    def test_half_purity_four_items(self):
        result = ok("fluctuations", "--qubits", "2", "--epsilon", "0.5")
        header, rows = csv_rows(result)
        assert ",".join(header) == FLUCT_HEADER
        row = rows[0]
        assert float(row["pseudo_variance"]) == pytest.approx(0.234375, abs=1e-14)
        assert float(row["abs_difference"]) < 1e-14

    def test_pure_limit_is_zero(self):
        _, rows = csv_rows(ok("fluctuations", "--qubits", "2", "--epsilon", "1.0"))
        assert float(rows[0]["pseudo_variance"]) == pytest.approx(0.0, abs=1e-14)

    def test_fully_mixed_limit(self):
        _, rows = csv_rows(ok("fluctuations", "--qubits", "2", "--epsilon", "0.0"))
        assert float(rows[0]["pseudo_variance"]) == pytest.approx(0.1875, abs=1e-14)
        assert float(rows[0]["trace_theta_sq_over_N"]) == pytest.approx(0.1875, abs=1e-14)

    def test_argument_errors_exit_two(self):
        for qubits in ("9", "0"):
            result = run("fluctuations", "--qubits", qubits)
            assert_one_line_error(result)
            assert "qubit count must be an integer in [1, 8]" in result.stderr
        assert_one_line_error(run("fluctuations", "--qubits", "2", "--epsilon", "-0.2"))


@pytest.mark.parametrize(
    "args",
    [
        ("table1", "--max-qubits", "5"),
        ("trace", "--qubits", "6", "--epsilon", "0.3"),
        ("trace", "--qubits", "20", "--epsilon", "0.3"),
        ("bound", "--qubits", "5"),
        ("scan", "--min-qubits", "3", "--max-qubits", "6"),
        ("fluctuations", "--qubits", "3", "--epsilon", "0.25"),
    ],
)
def test_json_is_laid_out_like_json_dumps_and_matches_csv(args):
    text = ok(*args, "--format", "json").stdout
    records = json.loads(text)
    assert text == json.dumps(records, indent=2) + "\n"
    header, rows = csv_rows(ok(*args))
    assert [list(record) for record in records] == [header] * len(rows)
    as_csv = [{key: json.dumps(value) for key, value in record.items()} for record in records]
    assert as_csv == rows


@pytest.mark.parametrize("command", ["table1", "trace", "bound", "scan", "fluctuations"])
def test_output_option_is_documented(command):
    text = ok(command, "--help").stdout
    assert "--format [csv|json]" in text
    assert "Write to file instead of stdout." in text


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("table1", "--max-qubits", "8", "--format", "json"),
            ("trace", "--qubits", "5", "--epsilon", "0.3"),
            ("bound", "--qubits", "6"),
            ("fluctuations", "--qubits", "3", "--epsilon", "0.25", "--format", "json"),
        ],
    )
    def test_repeat_invocations_identical(self, args):
        assert ok(*args).stdout == ok(*args).stdout
