import math
import tracemalloc

import numpy as np
import pytest

from groverlab import (
    apply_grover_step,
    bloch_vector,
    epsilon_speedup,
    hs_distance,
    linear_entropy,
    make_instance,
    max_separable_epsilon,
    partial_trace_single_qubit,
    requires_entanglement,
    schmidt_product,
    separability_bound,
    simulate_statevector,
    success_probability,
    von_neumann_entropy,
)
from oracles import projected_singlet_fraction, target_frame_bloch

EPS1_N3 = 1.0 / (1.0 + math.sqrt(3.0))  # closed form at n=3, k=1


def partial_transpose_threshold(psi, low_qubits):
    """Purity at which (1-eps)/N*I + eps*|psi><psi| stops having a positive
    partial transpose on qubits 0..low_qubits-1, from the dense matrix.

    The partial transpose has eigenvalues (1-eps)/N + eps*mu, so with mu its
    smallest eigenvalue at eps = 1 the crossing is (1/N)/(1/N - mu), or 1
    when mu >= 0.
    """
    N, d = psi.size, 1 << low_qubits
    rho = np.outer(psi, psi).reshape(N // d, d, N // d, d)
    mu = np.linalg.eigvalsh(rho.transpose(0, 3, 2, 1).reshape(N, N))[0]
    return 1.0 if mu >= 0.0 else (1.0 / N) / (1.0 / N - mu)


class TestBlochVector:
    def test_initial_two_qubit_state_is_product(self):
        s = bloch_vector(make_instance(2, 3), 0)
        assert np.allclose(s, [1.0, 0.0, 0.0], atol=1e-12)

    def test_completed_two_qubit_state_points_down(self):
        s = bloch_vector(make_instance(2, 3), 1)
        assert np.allclose(s, [0.0, 0.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("N", [4, 8, 64, 1024])
    def test_unit_length_at_quarter_turn(self, N):
        # the uniform state is a product state; each qubit's Bloch vector
        # points along +x, a quarter turn from |0>
        s = bloch_vector(make_instance(N.bit_length() - 1), 0)
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("ell", [True, 1.0, -1, 3])
    def test_target_frame_needs_a_qubit_of_the_instance(self, ell):
        # ell = 5 used to flip the signs for a qubit that does not exist
        reduced = partial_trace_single_qubit(simulate_statevector(make_instance(3, 5), 1), 0)
        with pytest.raises(ValueError, match="qubit index"):
            target_frame_bloch(reduced, make_instance(3, 5), ell)

    def test_matches_partial_trace_for_all_target_bits(self):
        # target with mixed bit values exercises the frame relabeling
        inst = make_instance(4, 0b0110)
        v = simulate_statevector(inst, 0)
        for k in range(8):
            expected = bloch_vector(inst, k)
            for ell in range(4):
                reduced = partial_trace_single_qubit(v, ell)
                aligned = target_frame_bloch(reduced, inst, ell)
                assert np.allclose(aligned, expected, atol=1e-10)
            v = apply_grover_step(v, inst)

    def test_never_fully_mixed_during_search(self):
        for n in range(1, 13):
            inst = make_instance(n, 0)
            # nearest, not completion_step: at n = 2 that step is maximally mixed (|s| = 7.9e-16)
            limit = math.ceil(math.pi / (4 * inst.theta0) - 0.5)
            for k in range(limit + 1):
                assert np.linalg.norm(bloch_vector(inst, k)) > 1e-6


class TestEntropies:
    def test_von_neumann_limits(self):
        assert von_neumann_entropy(0.0) == 1.0
        assert von_neumann_entropy(1.0) == 0.0

    def test_von_neumann_intermediate(self):
        # equals the binary entropy of 0.8, evaluated independently
        h = -0.8 * math.log2(0.8) - 0.2 * math.log2(0.2)
        assert von_neumann_entropy(0.6) == pytest.approx(h, abs=1e-12)
        assert von_neumann_entropy(0.6) == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_von_neumann_stays_in_unit_interval_near_mixed(self):
        # the unclamped formula rounds to 1.0000000000000002 here
        assert von_neumann_entropy(7.252484842447126e-16) == 1.0

    def test_linear_entropy_values(self):
        assert linear_entropy(1.0) == 0.0
        assert linear_entropy(0.0) == 0.5
        assert linear_entropy(0.6) == pytest.approx(0.32, abs=1e-15)

    def test_hs_distance_values(self):
        assert hs_distance(0.0) == 0.0
        assert hs_distance(1.0) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert hs_distance(0.5) == pytest.approx(0.35355339059327373, abs=1e-15)

    @pytest.mark.parametrize("fn", [von_neumann_entropy, linear_entropy, hs_distance])
    @pytest.mark.parametrize("bad", [-1e-6, 1.0 + 1e-6, 2.0])
    def test_rejects_out_of_range(self, fn, bad):
        with pytest.raises(ValueError):
            fn(bad)

    @pytest.mark.parametrize("fn", [von_neumann_entropy, linear_entropy, hs_distance])
    def test_tolerates_round_off_slack(self, fn):
        fn(-1e-13)
        fn(1.0 + 1e-13)


class TestSchmidtProduct:
    def test_zero_at_start(self):
        for n in (1, 2, 5, 10):
            assert schmidt_product(make_instance(n, 0), 0) == 0.0

    def test_eight_item_value(self):
        assert schmidt_product(make_instance(3, 0), 1) == pytest.approx(3 / 64, abs=1e-15)

    def test_vanishes_at_exact_completion(self):
        assert schmidt_product(make_instance(2, 0), 1) == pytest.approx(0.0, abs=1e-30)

    def test_matches_traced_eigenvalue_product(self):
        for n, k in [(3, 1), (4, 2), (5, 3), (6, 5)]:
            inst = make_instance(n, (1 << n) - 1)
            reduced = partial_trace_single_qubit(simulate_statevector(inst, k), 0)
            eigs = np.linalg.eigvalsh(reduced.matrix)
            assert schmidt_product(inst, k) == pytest.approx(eigs[0] * eigs[1], abs=1e-10)


class TestSeparabilityBound:
    def test_one_at_start(self):
        for n in range(1, 13):
            assert separability_bound(make_instance(n, 0), 0) == 1.0

    def test_eight_item_bound(self):
        assert separability_bound(make_instance(3, 0), 1) == pytest.approx(EPS1_N3, abs=1e-12)

    def test_four_item_bound_stays_one(self):
        assert separability_bound(make_instance(2, 0), 1) == pytest.approx(1.0, abs=1e-12)

    def test_profile_eight_items(self):
        cum = max_separable_epsilon(make_instance(3, 0), np.arange(2))
        assert cum[0] == 1.0
        assert cum[1] == pytest.approx(EPS1_N3, abs=1e-9)

    def test_profile_four_items(self):
        cum = max_separable_epsilon(make_instance(2, 0), np.arange(2))
        assert cum.tolist() == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_profile_sixteen_items(self):
        # per-step bounds cross-checked by diagonalizing the traced matrix
        inst = make_instance(4, 15)
        bounds = separability_bound(inst, np.arange(3))
        assert bounds[1] < bounds[2]
        assert max_separable_epsilon(inst, 2) == pytest.approx(0.20126284519300922, abs=1e-9)
        for k in (1, 2):
            reduced = partial_trace_single_qubit(simulate_statevector(inst, k), 2)
            eigs = np.linalg.eigvalsh(reduced.matrix)
            via_diag = 1.0 / (1.0 + inst.N * math.sqrt(max(eigs[0] * eigs[1], 0.0)))
            assert bounds[k] == pytest.approx(via_diag, abs=1e-9)

    def test_cumulative_min_non_increasing(self):
        inst = make_instance(6, 0)
        k = np.arange(16)
        cum = max_separable_epsilon(inst, k).tolist()
        assert all(b <= a for a, b in zip(cum, cum[1:]))
        assert all(0.0 < value <= 1.0 for value in separability_bound(inst, k))

    @pytest.mark.parametrize("n", [3, 30])
    def test_chunked_running_minimum_equals_one_sweep(self, n):
        # the sweep runs in chunks of 2**16 steps and carries the minimum
        # across their edges, which gives the floats of one whole sweep
        inst = make_instance(n)
        last = 4 * 2**16 + 7
        whole = np.minimum.accumulate(separability_bound(inst, np.arange(last + 1)))
        for k in (last, [last, 12345, 0, 2**16 + 7], np.array([[2**16 - 1, 2**16], [2**17, 5]]), np.arange(0, last, 99)):
            assert np.array_equal(max_separable_epsilon(inst, k), whole[k]), k

    def test_long_sweep_holds_a_few_mib(self):
        # one sweep over 2**22 steps took 160 MiB
        tracemalloc.start()
        try:
            max_separable_epsilon(make_instance(30), 2**22 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_requires_entanglement_guard(self):
        inst = make_instance(2, 3)
        bound = separability_bound(inst, 1)  # 1 up to rounding
        assert not requires_entanglement(1.0, bound)
        assert requires_entanglement(0.5, separability_bound(make_instance(3, 0), 1))


class TestArrayArguments:
    """Each per-step quantity takes an array of k or s and works element-wise."""

    K = np.arange(40)

    @pytest.mark.parametrize(
        "fn", [bloch_vector, schmidt_product, separability_bound, max_separable_epsilon]
    )
    def test_iteration_array_matches_scalar_calls(self, fn):
        inst = make_instance(9, 100)
        one_by_one = np.stack([fn(inst, int(k)) for k in self.K], axis=-1)
        for ks in (self.K, self.K.tolist()):
            np.testing.assert_array_max_ulp(fn(inst, ks), one_by_one, maxulp=2)

    @pytest.mark.parametrize("fn", [bloch_vector, schmidt_product, separability_bound, max_separable_epsilon])
    def test_negative_iteration_in_array_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(make_instance(5), np.array([2, -1, 3]))

    def test_running_minimum(self):
        inst = make_instance(7)
        bounds = separability_bound(inst, self.K)
        expected = [min(bounds[: k + 1]) for k in self.K]
        assert max_separable_epsilon(inst, self.K).tolist() == expected

    @pytest.mark.parametrize("fn", [von_neumann_entropy, linear_entropy, hs_distance])
    def test_bloch_length_array(self, fn):
        s = np.linspace(0.0, 1.0, 17)
        np.testing.assert_array_max_ulp(fn(s), np.array([fn(float(x)) for x in s]), maxulp=2)
        with pytest.raises(ValueError):
            fn(np.array([0.2, 1.5, 0.3]))

    def test_requires_entanglement_array(self):
        bounds = np.array([0.1, 0.5, 0.5 - 1e-13, 0.9])
        assert requires_entanglement(0.5, bounds).tolist() == [True, False, False, False]

    @pytest.mark.parametrize("epsilon", [2.0, math.nan, -0.1])
    def test_requires_entanglement_rejects_bad_purity(self, epsilon):
        with pytest.raises(ValueError, match="purity"):
            requires_entanglement(epsilon, 0.5)

    @pytest.mark.parametrize("bound", [math.nan, -0.1, 1.5, "x", True])
    def test_requires_entanglement_rejects_bad_bound(self, bound):
        # a NaN bound used to read as separable, and -3.0 as entangled
        with pytest.raises(ValueError, match="^separability bound must "):
            requires_entanglement(0.5, bound)

    @pytest.mark.parametrize("x", [True, "0.5", np.array(["0.1"])], ids=["bool", "str", "str-array"])
    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: success_probability(make_instance(4), 1, x),
            lambda x: requires_entanglement(x, 0.5),
            von_neumann_entropy,
            linear_entropy,
            hs_distance,
        ],
        ids=["success_probability", "requires_entanglement", "von_neumann_entropy", "linear_entropy", "hs_distance"],
    )
    def test_purities_and_bloch_lengths_are_numbers(self, fn, x):
        # each used to be converted with dtype=float: True became 1.0 and '0.5' became 0.5
        with pytest.raises(ValueError, match="integer or float"):
            fn(x)

    def test_integer_purities_and_bloch_lengths(self):
        inst = make_instance(4)
        for x in (0, 1):
            assert success_probability(inst, 1, x) == success_probability(inst, 1, float(x))
            assert requires_entanglement(x, 0.5) == requires_entanglement(float(x), 0.5)
            for fn in (von_neumann_entropy, linear_entropy, hs_distance):
                assert fn(x) == fn(float(x))
                assert fn(np.array([x], dtype=np.uint8)) == fn(float(x))


class TestProjectedSingletFraction:
    def test_crossing_reproduces_bound(self):
        # bisect the 1/2 crossing of the projected singlet fraction using
        # eigenvalues from the traced simulated state; fully independent of
        # the closed-form bound
        for n, k in [(3, 1), (4, 1), (4, 2), (5, 2)]:
            inst = make_instance(n, (1 << n) - 1)
            reduced = partial_trace_single_qubit(simulate_statevector(inst, k), 0)
            eigs = np.linalg.eigvalsh(reduced.matrix)
            lam1, lam2 = float(eigs[1]), float(eigs[0])

            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if projected_singlet_fraction(lam1, lam2, inst.N, mid) <= 0.5:
                    lo = mid
                else:
                    hi = mid
            assert (lo + hi) / 2 == pytest.approx(separability_bound(inst, k), abs=1e-9)

    def test_monotone_in_purity(self):
        values = [projected_singlet_fraction(0.7, 0.3, 8, eps) for eps in np.linspace(0, 1, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_bad_eigenvalues(self):
        with pytest.raises(ValueError):
            projected_singlet_fraction(0.7, 0.7, 8, 0.5)
        # these sum to 1 and used to return 0.583, certifying entanglement
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            projected_singlet_fraction(1.5, -0.5, 8, 0.5)

    @pytest.mark.parametrize("epsilon", [-0.1, 1.1, math.nan])
    def test_rejects_purity_outside_unit_interval(self, epsilon):
        with pytest.raises(ValueError):
            projected_singlet_fraction(0.7, 0.3, 8, epsilon)

    @pytest.mark.parametrize("N", [2.5, True, 1])
    def test_rejects_bad_sizes(self, N):
        # these returned 0.408, 0.323 and 0.323
        with pytest.raises(ValueError, match="size"):
            projected_singlet_fraction(0.5, 0.5, N, 0.3)


class TestPartialTransposeOracle:
    """Peres criterion on simulated states, sharing no code with the closed forms."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_one_qubit_cut_reproduces_bound(self, n):
        inst = make_instance(n)
        k_opt, _ = epsilon_speedup(inst)
        for k in range(1, k_opt + 1):
            assert partial_transpose_threshold(simulate_statevector(inst, k), 1) == pytest.approx(
                separability_bound(inst, k), abs=1e-14
            )

    @pytest.mark.parametrize(
        "n,balanced,one_qubit",
        [(4, 0.18181818, 0.20126285), (6, 0.03869926, 0.04817457), (8, 0.00877670, 0.01164826)],
    )
    def test_balanced_cut_gives_a_smaller_bound(self, n, balanced, one_qubit):
        inst = make_instance(n)
        k_opt, _ = epsilon_speedup(inst)
        states = [simulate_statevector(inst, k) for k in range(1, k_opt + 1)]
        lowest_balanced = min(partial_transpose_threshold(psi, n // 2) for psi in states)
        lowest_one_qubit = min(partial_transpose_threshold(psi, 1) for psi in states)
        assert lowest_balanced == pytest.approx(balanced, abs=1e-8)
        assert lowest_one_qubit == pytest.approx(one_qubit, abs=1e-8)
        assert lowest_balanced < lowest_one_qubit


class TestConsistencyChain:
    def test_closed_forms_agree_with_simulation(self):
        for n in range(1, 11):
            inst = make_instance(n, (1 << n) - 1)
            span = 2 * math.ceil(math.pi / (4 * inst.theta0))
            v = simulate_statevector(inst, 0)
            for k in range(span + 1):
                expected = bloch_vector(inst, k)
                reduced = partial_trace_single_qubit(v, 0)
                assert np.allclose(reduced.bloch, expected, atol=1e-10)
                if n > 1:
                    eigs = np.linalg.eigvalsh(reduced.matrix)
                    assert schmidt_product(inst, k) == pytest.approx(eigs[0] * eigs[1], abs=1e-10)
                s = min(float(np.linalg.norm(expected)), 1.0)
                assert hs_distance(s) ** 2 + linear_entropy(s) == pytest.approx(0.5, abs=1e-10)
                v = apply_grover_step(v, inst)

    def test_entropy_and_eigenvalues_same_for_every_kept_qubit(self):
        inst = make_instance(5, 19)
        v = simulate_statevector(inst, 2)
        reference = None
        for ell in range(5):
            reduced = partial_trace_single_qubit(v, ell)
            values = (reduced.lambda1, reduced.lambda2, von_neumann_entropy(reduced.bloch_length))
            if reference is None:
                reference = values
            else:
                assert values == pytest.approx(reference, abs=1e-12)
