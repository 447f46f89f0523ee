import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from groverlab import (
    classical_queries,
    epsilon_speedup,
    make_instance,
    max_separable_epsilon,
    pseudo_queries,
    separability_bound,
    speedup_entanglement_scan,
    success_probability,
    table1,
)

EPS1_N3 = 1.0 / (1.0 + math.sqrt(3.0))

# printed two-decimal table this package reproduces
GOLDEN_ROWS = [
    (1, 2, 0, 2.0, 1.0),
    (2, 4, 1, 2.0, 2.25),
    (3, 8, 1, 5.48, 4.38),
    (4, 16, 2, 12.89, 8.44),
    (5, 32, 0, 32.0, 16.47),
    (6, 64, 0, 64.0, 32.48),
    (7, 128, 0, 128.0, 64.49),
    (8, 256, 0, 256.0, 128.50),
]


def enumerated_classical_expectation(N):
    """Average queries of stepping through locations, inferring the last."""
    total = 0
    for target in range(N):
        total += target + 1 if target < N - 1 else N - 1
    return Fraction(total, N)


class TestClassicalQueries:
    @pytest.mark.parametrize("N,expected", [(2, 1.0), (4, 2.25), (8, 4.375), (np.int64(8), 4.375)])
    def test_fixed_values(self, N, expected):
        assert classical_queries(N) == pytest.approx(expected, abs=1e-15)

    def test_matches_enumeration_sample(self):
        # any integer size >= 2 is legal, not only powers of two
        for N in (2, 3, 5, 7, 16, 100, 1024):
            assert classical_queries(N) == pytest.approx(
                float(enumerated_classical_expectation(N)), abs=1e-12
            )

    def test_strictly_increasing(self):
        values = [classical_queries(N) for N in range(2, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("N", [1, 0, -4, True])
    def test_rejects_small_sizes(self, N):
        with pytest.raises(ValueError):
            classical_queries(N)


class TestPseudoQueries:
    def test_pure_two_qubit_machine(self):
        k_opt, queries = pseudo_queries(make_instance(2, 3), 1.0)
        assert k_opt == 1
        assert queries == pytest.approx(2.0, abs=1e-12)

    def test_low_purity_five_qubits_guesses(self):
        inst = make_instance(5, 0)
        bound = max_separable_epsilon(inst, inst.completion_step)
        for epsilon in (bound, bound / 2, 0.0):
            k_opt, queries = pseudo_queries(inst, epsilon)
            assert k_opt == 0
            assert queries == pytest.approx(32.0, abs=1e-9)

    def test_eight_items_at_separability_bound(self):
        k_opt, queries = pseudo_queries(make_instance(3, 7), EPS1_N3)
        assert k_opt == 1
        assert queries == pytest.approx(5.476388709484526, abs=1e-9)

    def test_zero_epsilon_allowed(self):
        k_opt, queries = pseudo_queries(make_instance(4, 0), 0.0)
        assert (k_opt, queries) == (0, pytest.approx(16.0, abs=1e-12))

    @pytest.mark.parametrize("epsilon", [-0.01, 1.01])
    def test_rejects_epsilon_outside_unit_interval(self, epsilon):
        with pytest.raises(ValueError):
            pseudo_queries(make_instance(3, 0), epsilon)

    def test_one_purity_per_k(self):
        inst = make_instance(4, 0)
        k = np.arange(inst.completion_step + 1)
        eps = np.linspace(1.0, 0.2, k.size)
        costs = [(j + 1) / success_probability(inst, j, e) for j, e in zip(k.tolist(), eps)]
        k_opt, queries = pseudo_queries(inst, eps)
        assert k_opt == costs.index(min(costs))
        assert queries == pytest.approx(min(costs), rel=1e-15)
        assert pseudo_queries(inst, np.full(k.size, 0.6)) == pseudo_queries(inst, 0.6)

    def test_purity_array_of_wrong_length(self):
        inst = make_instance(4, 0)
        expected = f"expected {inst.completion_step + 1} purities"
        for size in (inst.completion_step, inst.completion_step + 3):
            with pytest.raises(ValueError, match=re.escape(expected)):
                pseudo_queries(inst, np.full(size, 0.5))

    def test_excluding_test_query_shifts_count_only(self):
        inst = make_instance(2, 3)
        with_test = pseudo_queries(inst, 1.0)
        without = pseudo_queries(inst, 1.0, include_test_query=False)
        assert without[0] == with_test[0]
        assert without[1] == pytest.approx(with_test[1] - 1.0, abs=1e-12)

    def test_a_numpy_bool_is_a_test_query_flag(self):
        inst = make_instance(2, 3)
        assert pseudo_queries(inst, 1.0, np.bool_(False)) == pseudo_queries(inst, 1.0, False)
        assert pseudo_queries(inst, 1.0, np.bool_(True)) == pseudo_queries(inst, 1.0, True)


class TestMaxSeparableEpsilon:
    def test_four_items(self):
        assert max_separable_epsilon(make_instance(2, 0), 1) == pytest.approx(1.0, abs=1e-12)

    def test_eight_items(self):
        assert max_separable_epsilon(make_instance(3, 0), 1) == pytest.approx(EPS1_N3, abs=1e-9)

    def test_sixteen_items(self):
        assert max_separable_epsilon(make_instance(4, 0), 2) == pytest.approx(
            0.20126284519300922, abs=1e-9
        )

    def test_never_above_single_step_bound(self):
        inst = make_instance(6, 0)
        for k in range(10):
            assert max_separable_epsilon(inst, k) <= separability_bound(inst, k) + 1e-15


class TestTable:
    def test_reproduces_printed_rows(self):
        rows = table1(1, 8)
        for row, (n, N, k_opt, n_pseudo, n_class) in zip(rows, GOLDEN_ROWS):
            assert (row.n, row.N, row.k_opt) == (n, N, k_opt)
            assert abs(row.n_pseudo_min - n_pseudo) <= 0.005
            assert abs(row.n_class - n_class) <= 0.005

    def test_purity_respects_running_bound(self):
        for row in table1(1, 10):
            inst = make_instance(row.n, 0)
            assert row.epsilon_used <= max_separable_epsilon(inst, row.k_opt) + 1e-12

    def test_row_invariants(self):
        for row in table1(1, 12):
            assert row.n_pseudo_min >= 1.0
            assert row.n_class >= 1.0
            assert row.k_opt >= 0
            assert row.N == 1 << row.n

    def test_two_qubit_speedup_without_entanglement(self):
        row = table1(2, 2)[0]
        assert row.speedup
        assert row.n_pseudo_min == pytest.approx(2.0, abs=1e-9)
        assert row.n_class == pytest.approx(2.25, abs=1e-12)

    def test_no_speedup_at_three_qubits_and_above(self):
        for row in table1(3, 12):
            assert not row.speedup
            assert row.n_pseudo_min >= row.n_class

    def test_excluding_test_query(self):
        row = table1(2, 2, include_test_query=False)[0]
        assert row.n_pseudo_min == pytest.approx(1.0, abs=1e-9)
        assert row.n_class / row.n_pseudo_min == pytest.approx(2.25, abs=1e-9)

    @pytest.mark.parametrize("flag", ["false", None, 0, 1, np.array([True, False])])
    def test_rejects_a_test_query_flag_that_is_not_a_bool(self, flag):
        # "false" is truthy and used to count the test query
        message = r"^include_test_query must be a bool, got "
        with pytest.raises(ValueError, match=message):
            table1(2, 2, flag)
        with pytest.raises(ValueError, match=message):
            pseudo_queries(make_instance(2, 3), 1.0, flag)

    @pytest.mark.parametrize("span", [(0, 4), (5, 2), (1, 31), (1.5, 3), (1, 2.0), (True, 2), (1, True)])
    def test_rejects_bad_ranges(self, span):
        with pytest.raises(ValueError):
            table1(*span)

    def test_accepts_any_integer_type(self):
        assert table1(np.int64(2), np.uint8(3)) == table1(2, 3)

    def test_qubit_count_is_a_plain_int(self):
        assert type(table1(np.int64(3), np.int64(3))[0].n) is int
        assert type(speedup_entanglement_scan(np.int64(3), np.int64(3))[0].n) is int


class TestEpsilonSpeedup:
    def test_two_qubit_threshold(self):
        k_opt, threshold = epsilon_speedup(make_instance(2, 0))
        assert k_opt == 1
        assert threshold == pytest.approx(23.0 / 27.0, abs=1e-9)

    def test_three_qubit_threshold(self):
        k_opt, threshold = epsilon_speedup(make_instance(3, 0))
        assert k_opt == 1
        # solve 2/p(1, eps) = 35/8 for eps: eps = 124/245
        assert threshold == pytest.approx(124.0 / 245.0, abs=1e-9)

    def test_single_qubit_has_no_speedup(self):
        assert epsilon_speedup(make_instance(1, 0)) is None

    def test_threshold_agrees_with_bisection(self):
        # the probability is affine in purity, so the closed form must agree
        # with a bisection on the raw speed-up condition
        for n in range(2, 9):
            inst = make_instance(n, 0)
            n_class = classical_queries(inst.N)
            k_opt, threshold = epsilon_speedup(inst)

            def beats_classical(epsilon):
                return pseudo_queries(inst, epsilon)[1] < n_class

            assert not beats_classical(max(threshold - 1e-7, 0.0))
            assert beats_classical(min(threshold + 1e-7, 1.0))
            lo, hi = 0.0, 1.0
            for _ in range(50):
                mid = (lo + hi) / 2
                if beats_classical(mid):
                    hi = mid
                else:
                    lo = mid
            assert threshold == pytest.approx((lo + hi) / 2, abs=1e-9)


class TestSpeedupScan:
    def test_three_qubit_record(self):
        record = speedup_entanglement_scan(3, 3)[0]
        assert record.k_opt == 1
        assert record.epsilon_speedup == pytest.approx(0.5061224489795919, abs=1e-9)
        assert record.k.tolist() == [1]
        assert record.epsilon_bound.tolist() == [pytest.approx(EPS1_N3, abs=1e-9)]
        assert record.entangled_at_k.tolist() == [True]
        assert record.entangled_throughout
        assert not record.last_step_exception

    def test_two_qubit_record(self):
        # theta_1 = 3*asin(1/2) is exactly pi/2: the one step completes the
        # search, its bound is 1 and it escapes as the final step
        record = speedup_entanglement_scan(2, 2)[0]
        assert record.k_opt == 1
        assert record.epsilon_speedup == pytest.approx(23.0 / 27.0, abs=1e-12)
        assert record.entangled_throughout
        assert record.last_step_exception

    def test_single_qubit_is_an_invalid_argument(self):
        with pytest.raises(ValueError, match="no speed-up purity exists at n = 1"):
            speedup_entanglement_scan(1, 1)[0]

    def test_initial_state_excluded_from_scan(self):
        # the k = 0 bound is 1, never below any speed-up threshold
        record = speedup_entanglement_scan(3, 3)[0]
        assert record.k.min() >= 1

    def test_full_range_entangled_throughout(self):
        for record in speedup_entanglement_scan(3, 20):
            assert record.entangled_throughout

    @pytest.mark.parametrize("span", [(1, 5), (3, 31), (6, 4), (3.5, 5), (3, 5.0), (3, True)])
    def test_rejects_bad_ranges(self, span):
        with pytest.raises(ValueError):
            speedup_entanglement_scan(*span)


class TestSweepRange:
    """Over three windings of the rotation, both optima lie at k <= completion_step.

    Everything here is evaluated with ``math`` from the defining formulas:
    p(k) = [1 + eps*(N sin^2((2k+1)theta0) - 1)]/N, the separability bound
    1/(1 + N sqrt(P_k)) with P_k = N(N-2)/(2(N-1)^2) sin^2(2k theta0)
    cos^2((2k+1)theta0), and the break-even purity of each k.
    """

    @staticmethod
    def windings(n):
        inst = make_instance(n)
        N = inst.N
        theta0 = math.asin(1.0 / math.sqrt(N))
        ks = range(3 * inst.completion_step + 6)
        s2 = [math.sin((2 * k + 1) * theta0) ** 2 for k in ks]
        scale = N * (N - 2) / (2.0 * (N - 1) ** 2)
        bounds = [
            1.0 / (1.0 + N * math.sqrt(scale * math.sin(2 * k * theta0) ** 2 * (1.0 - s2[k])))
            for k in ks
        ]
        return inst, N, s2, list(itertools.accumulate(bounds, min))

    @staticmethod
    def first_min(values):
        best = min(range(len(values)), key=values.__getitem__)
        return best, values[best]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_least_cost_within_first_quarter_turn(self, n):
        inst, N, s2, running = self.windings(n)
        for epsilon in (1.0, 0.5, 0.1, 0.01):
            cost = [(k + 1) * N / (1.0 + epsilon * (N * s - 1.0)) for k, s in enumerate(s2)]
            k_best, least = self.first_min(cost)
            assert k_best <= inst.completion_step
            k_opt, queries = pseudo_queries(inst, epsilon)
            assert (k_opt, queries) == (k_best, pytest.approx(least, rel=1e-12))
        cost = [(k + 1) * N / (1.0 + e * (N * s - 1.0)) for k, (s, e) in enumerate(zip(s2, running))]
        k_best, least = self.first_min(cost)
        assert k_best <= inst.completion_step
        row = table1(n, n)[0]
        assert (row.k_opt, row.n_pseudo_min) == (k_best, pytest.approx(least, rel=1e-12))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_least_speedup_threshold_within_first_quarter_turn(self, n):
        inst, N, s2, _ = self.windings(n)
        n_class = (N + 2) * (N - 1) / (2.0 * N)
        thresholds = {}
        for k, s in enumerate(s2[1:], start=1):
            gain = N * s - 1.0
            if gain > 0.0 and 0.0 < (N * (k + 1) / n_class - 1.0) / gain <= 1.0:
                thresholds[k] = (N * (k + 1) / n_class - 1.0) / gain
        if not thresholds:
            assert epsilon_speedup(inst) is None
            return
        k_best = min(thresholds, key=thresholds.__getitem__)
        assert k_best <= inst.completion_step
        k_opt, threshold = epsilon_speedup(inst)
        assert (k_opt, threshold) == (k_best, pytest.approx(thresholds[k_best], rel=1e-12))


class TestScanPastTwenty:
    """Scan rows for n = 21..30 against ``math`` alone, as in :class:`TestSweepRange`."""

    @staticmethod
    def oracle(n):
        N = 2**n
        theta0 = math.asin(1.0 / math.sqrt(N))
        n_class = (N + 2) * (N - 1) / (2.0 * N)
        thresholds = {}
        # k runs to the first step whose rotation beyond the start, 2k*theta0, reaches pi/2
        for k in range(1, math.ceil(math.pi / (4.0 * theta0)) + 1):
            gain = N * math.sin((2 * k + 1) * theta0) ** 2 - 1.0
            if gain > 0.0 and 0.0 < (N * (k + 1) / n_class - 1.0) / gain <= 1.0:
                thresholds[k] = (N * (k + 1) / n_class - 1.0) / gain
        k_opt = min(thresholds, key=thresholds.__getitem__)
        scale = N * (N - 2) / (2.0 * (N - 1) ** 2)
        bounds = [
            1.0 / (1.0 + N * math.sqrt(scale * math.sin(2 * k * theta0) ** 2 * math.cos((2 * k + 1) * theta0) ** 2))
            for k in range(1, k_opt + 1)
        ]
        return k_opt, thresholds[k_opt], bounds

    @pytest.mark.parametrize("n", range(21, 31))
    def test_rows_match_oracle(self, n):
        k_opt, eps_su, bounds = self.oracle(n)
        record = speedup_entanglement_scan(n, n)[0]
        assert record.k_opt == k_opt
        assert record.k.tolist() == list(range(1, k_opt + 1))
        assert record.epsilon_speedup == pytest.approx(eps_su, rel=1e-12)
        assert record.epsilon_bound.tolist() == pytest.approx(bounds, rel=1e-12)
        assert record.entangled_at_k.tolist() == [eps_su > b + 1e-12 for b in bounds]
        assert record.entangled_throughout
        assert not record.last_step_exception
        # the margin below the threshold is about 49% of it from n = 16 on, so
        # a loss of precision shows long before it nears the 1e-12 decision guard
        margin = (record.epsilon_speedup - record.epsilon_bound[:-1]).min()
        assert margin >= 0.4 * record.epsilon_speedup


class TestAffinity:
    def test_success_probability_affine_in_epsilon(self):
        inst = make_instance(5, 0)
        for k in range(5):
            p0 = success_probability(inst, k, 0.0)
            p1 = success_probability(inst, k, 1.0)
            for epsilon in np.linspace(0.0, 1.0, 7):
                expected = (1 - epsilon) * p0 + epsilon * p1
                assert success_probability(inst, k, float(epsilon)) == pytest.approx(
                    expected, abs=1e-14
                )
