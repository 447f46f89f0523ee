import math

import mpmath
import numpy as np
import pytest

from groverlab import (
    apply_grover_step,
    closed_form_state,
    make_instance,
    max_separable_epsilon,
    partial_trace_single_qubit,
    rotation_angle,
    schmidt_product,
    simulate_statevector,
)


def pure_span(instance):
    """Iteration count that completes the rotation, rounded up."""
    return math.ceil(math.pi / (4.0 * instance.theta0))


class TestMakeInstance:
    def test_single_qubit(self):
        inst = make_instance(1, 0)
        assert inst.N == 2
        assert inst.theta0 == pytest.approx(math.pi / 4, rel=1e-15)

    def test_two_qubits(self):
        inst = make_instance(2, 3)
        assert inst.N == 4
        assert inst.y == 3
        assert inst.theta0 == pytest.approx(math.pi / 6, rel=1e-15)

    def test_three_qubits(self):
        # arcsin(1/sqrt(8)) evaluated independently
        inst = make_instance(3, 5)
        assert inst.N == 8
        assert inst.theta0 == pytest.approx(0.3613671239067078, abs=1e-15)

    def test_base_angle_satisfies_defining_relation(self):
        for n in range(1, 31):
            inst = make_instance(n, 0)
            assert math.sin(inst.theta0) == pytest.approx(1.0 / math.sqrt(inst.N), rel=1e-15)
            assert 0.0 < inst.theta0 <= math.pi / 2

    @pytest.mark.parametrize("n,y", [(0, 0), (31, 0), (-2, 0), (3, -1), (3, 8), (5, 32)])
    def test_rejects_out_of_range(self, n, y):
        with pytest.raises(ValueError):
            make_instance(n, y)

    def test_accepts_any_integer_type(self):
        inst = make_instance(np.int64(3), np.uint8(5))
        assert inst == make_instance(3, 5)
        assert type(inst.n) is int and type(inst.y) is int

    @pytest.mark.parametrize("n,y", [(True, 0), (3, False), (3.0, 0), (3, 5.0), ("3", 0)])
    def test_rejects_bools_and_non_integers(self, n, y):
        with pytest.raises(ValueError):
            make_instance(n, y)

    def test_target_defaults_to_last_index(self):
        assert make_instance(4).y == 15

    def test_completion_step(self):
        # smallest k with 2k*theta0 >= pi/2 at 50 digits; the ratio is exactly 1 at n = 1
        with mpmath.workdps(50):
            for n in range(1, 31):
                ratio = mpmath.pi / (4 * mpmath.asin(mpmath.mpf(2) ** (-mpmath.mpf(n) / 2)))
                inst = make_instance(n)
                assert inst.completion_step == int(mpmath.ceil(ratio - mpmath.mpf(10) ** -40))
            assert (2 * inst.completion_step + 1) * inst.theta0 >= math.pi / 2


class TestClosedFormState:
    def test_completes_exactly_at_four_items(self):
        state = closed_form_state(make_instance(2, 3), 1)
        assert state.target_amp == pytest.approx(1.0, abs=1e-15)
        assert state.off_target_amp == pytest.approx(0.0, abs=1e-15)

    def test_initial_single_qubit_state_is_uniform(self):
        state = closed_form_state(make_instance(1, 0), 0)
        assert state.target_amp == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert state.off_target_amp == pytest.approx(1 / math.sqrt(2), rel=1e-15)

    def test_two_iterations_on_eight_items(self):
        # sin^2(5*theta0) at N=8, evaluated by brute-force simulation
        state = closed_form_state(make_instance(3, 0), 2)
        assert state.target_amp**2 == pytest.approx(0.9453125, abs=1e-12)
        sim = simulate_statevector(make_instance(3, 0), 2)
        assert sim[0] ** 2 == pytest.approx(state.target_amp**2, abs=1e-12)

    def test_angle_of_an_iteration_array(self):
        inst = make_instance(6, 9)
        k = np.arange(12)
        assert rotation_angle(inst, k).tolist() == [rotation_angle(inst, int(j)) for j in k]
        with pytest.raises(ValueError):
            rotation_angle(inst, np.array([0, 3, -1]))

    def test_angle_recurrence(self):
        inst = make_instance(4, 9)
        for k in range(10):
            assert rotation_angle(inst, k) == pytest.approx((2 * k + 1) * inst.theta0, abs=1e-12)

    def test_amplitude_normalization_identity(self):
        for n in (1, 2, 5, 9):
            inst = make_instance(n, 0)
            for k in range(0, 3 * pure_span(inst), max(1, pure_span(inst) // 3)):
                s = closed_form_state(inst, k)
                total = (inst.N - 1) * s.off_target_amp**2 + s.target_amp**2
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_materialized_amplitudes(self):
        state = closed_form_state(make_instance(3, 5), 1)
        v = state.statevector()
        assert v.shape == (8,)
        assert v[5] == pytest.approx(state.target_amp, abs=1e-10)
        mask = np.arange(8) != 5
        assert np.allclose(v[mask], state.off_target_amp, atol=1e-10)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            closed_form_state(make_instance(2, 0), -1)


class TestIterationCounts:
    """One check serves every function that takes an iteration count."""

    @pytest.mark.parametrize("fn", [rotation_angle, closed_form_state, max_separable_epsilon, simulate_statevector])
    @pytest.mark.parametrize("k", [True, 2.0, 1.5, np.array([0.0, 1.0])])
    def test_rejects_bools_and_non_integers(self, fn, k):
        with pytest.raises(ValueError):
            fn(make_instance(3), k)

    @pytest.mark.parametrize("fn", [rotation_angle, schmidt_product, max_separable_epsilon, simulate_statevector])
    @pytest.mark.parametrize("k", [np.int64(255), np.uint8(255), np.int16(255)])
    def test_accepts_any_integer_type(self, fn, k):
        # 2k+1 and k+1 would wrap around in uint8
        np.testing.assert_array_equal(fn(make_instance(3), k), fn(make_instance(3), 255))


class TestGroverStep:
    def test_uniform_two_qubit_reaches_target(self):
        inst = make_instance(2, 3)
        v = np.full(4, 0.5)
        out = apply_grover_step(v, inst)
        assert abs(out[3]) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out[:3], 0.0, atol=1e-12)

    def test_rotates_past_the_pole(self):
        # starting exactly on the target rotates by 2*theta0 beyond pi/2
        inst = make_instance(2, 3)
        v = np.zeros(4)
        v[3] = 1.0
        out = apply_grover_step(v, inst)
        assert out[3] ** 2 == pytest.approx(math.cos(2 * inst.theta0) ** 2, abs=1e-12)
        assert out[3] ** 2 == pytest.approx(0.25, abs=1e-12)

    def test_single_qubit_probability_half(self):
        inst = make_instance(1, 0)
        out = apply_grover_step(np.full(2, 1 / math.sqrt(2)), inst)
        assert out[0] ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_preserves_norm(self):
        rng = np.random.default_rng(11)
        inst = make_instance(4, 6)
        v = rng.normal(size=16)
        v /= np.linalg.norm(v)
        out = apply_grover_step(v, inst)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalized_input(self):
        inst = make_instance(2, 0)
        with pytest.raises(ValueError, match="normalized"):
            apply_grover_step(np.array([1.0, 1.0, 0.0, 0.0]), inst)

    def test_rejects_wrong_length(self):
        inst = make_instance(3, 0)
        with pytest.raises(ValueError):
            apply_grover_step(np.full(4, 0.5), inst)


class TestSimulateStatevector:
    def test_exact_completion_vector(self):
        v = simulate_statevector(make_instance(2, 3), 1)
        assert np.allclose(v, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_initial_uniform_state(self):
        v = simulate_statevector(make_instance(1, 0), 0)
        assert np.allclose(v, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_one_iteration_on_eight_items(self):
        v = simulate_statevector(make_instance(3, 5), 1)
        assert v[5] ** 2 == pytest.approx(25 / 32, abs=1e-12)

    def test_resource_guard(self):
        inst = make_instance(25, 0)
        with pytest.raises(ValueError, match="n <= 24"):
            simulate_statevector(inst, 1)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            simulate_statevector(make_instance(2, 0), -1)

    def test_matches_closed_form_small_sweep(self):
        for n in range(1, 7):
            inst = make_instance(n, inst_target(n))
            v = simulate_statevector(inst, 0)
            for k in range(2 * pure_span(inst) + 1):
                exact = closed_form_state(inst, k).statevector()
                overlap = float(np.dot(v, exact)) ** 2
                assert overlap >= 1.0 - 1e-10
                v = apply_grover_step(v, inst)

    def test_normalization_through_long_runs(self):
        for n in range(1, 13):
            inst = make_instance(n, 0)
            v = simulate_statevector(inst, 0)
            for _ in range(4 * pure_span(inst)):
                v = apply_grover_step(v, inst)
                assert float(v @ v) == pytest.approx(1.0, abs=1e-12)


def inst_target(n):
    # an off-center target exercises indexing more than 0 or N-1
    return (1 << n) // 3


class TestPartialTrace:
    def test_product_state_after_completion(self):
        v = simulate_statevector(make_instance(2, 3), 1)
        for ell in (0, 1):
            reduced = partial_trace_single_qubit(v, ell)
            assert np.allclose(reduced.matrix, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
            assert reduced.lambda1 == pytest.approx(1.0, abs=1e-12)
            assert reduced.lambda2 == pytest.approx(0.0, abs=1e-12)

    def test_single_qubit_traces_to_itself(self):
        v = simulate_statevector(make_instance(1, 0), 0)
        reduced = partial_trace_single_qubit(v, 0)
        assert np.allclose(reduced.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_eigenvalue_product_eight_items(self):
        # cross-checked by diagonalizing the traced matrix directly
        v = simulate_statevector(make_instance(3, 7), 1)
        for ell in range(3):
            reduced = partial_trace_single_qubit(v, ell)
            eigs = np.linalg.eigvalsh(reduced.matrix)
            assert eigs[0] * eigs[1] == pytest.approx(3 / 64, abs=1e-12)
            assert reduced.lambda1 * reduced.lambda2 == pytest.approx(3 / 64, abs=1e-10)

    def test_trace_one_and_positive(self):
        inst = make_instance(5, 11)
        v = simulate_statevector(inst, 2)
        for ell in range(5):
            reduced = partial_trace_single_qubit(v, ell)
            assert np.trace(reduced.matrix) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(reduced.matrix).min() >= -1e-12
            assert reduced.lambda1 + reduced.lambda2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_qubit_index(self):
        v = simulate_statevector(make_instance(2, 0), 0)
        for ell in (-1, 2):
            with pytest.raises(ValueError):
                partial_trace_single_qubit(v, ell)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            partial_trace_single_qubit(np.ones(4), 0)


class TestScalarTargetSymmetry:
    def test_derived_scalars_independent_of_target(self):
        for n in (2, 3, 5):
            inst0 = make_instance(n, 0)
            k = pure_span(inst0) // 2 + 1
            baselines = None
            for y in (0, (1 << n) // 2, (1 << n) - 1):
                inst = make_instance(n, y)
                v = simulate_statevector(inst, k)
                reduced = partial_trace_single_qubit(v, 0)
                scalars = (
                    rotation_angle(inst, k),
                    closed_form_state(inst, k).target_amp ** 2,
                    reduced.lambda1,
                    reduced.lambda2,
                )
                if baselines is None:
                    baselines = scalars
                else:
                    assert scalars == pytest.approx(baselines, abs=1e-12)

    def test_rotation_angle_strictly_increases(self):
        inst = make_instance(6, 0)
        limit = math.ceil(math.pi / (4 * inst.theta0) - 0.5)
        angles = [rotation_angle(inst, k) for k in range(limit + 1)]
        assert all(b > a for a, b in zip(angles, angles[1:]))
