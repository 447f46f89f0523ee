import copy
import dataclasses
import math
import pickle
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from groverlab import (
    SearchInstance,
    apply_grover_step,
    bloch_vector,
    classical_queries,
    closed_form_state,
    make_instance,
    max_separable_epsilon,
    partial_trace_single_qubit,
    rotation_angle,
    schmidt_product,
    simulate_statevector,
    speedup_entanglement_scan,
    table1,
)
from oracles import grover_step, reduced_matrix

# The one message for an iteration count outside [0, 2**52 - 1].
ITERATION_COUNT_ERROR = r"^iteration count must be an integer in \[0, 4503599627370495\], got "

# Amplitudes per block that the search step's two threads claim: a vector of
# n = 21 has two blocks, n = 22 four.
BLOCK = 1 << 20


def threaded_targets(N):
    """Targets at both ends of a vector of more than one block and on both sides of its first block edge."""
    return (0, BLOCK - 1, BLOCK, N - 1)


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

    def test_a_hand_built_instance_is_a_made_one(self):
        inst = SearchInstance(n=np.int64(3), y=np.int16(5))
        assert inst == make_instance(3, 5)
        assert type(inst.n) is int and type(inst.N) is int and type(inst.y) is int

    @pytest.mark.parametrize("n", [0, 31, -1, True, 3.0, "3"])
    def test_a_hand_built_instance_rejects_its_qubit_count(self, n):
        with pytest.raises(ValueError, match=r"qubit count must be an integer in \[1, 30\]"):
            SearchInstance(n=n, y=0)

    def test_size_and_angle_are_derived_not_given(self):
        with pytest.raises(TypeError):
            SearchInstance(n=3, N=8, y=0, theta0=make_instance(3).theta0)
        assert repr(make_instance(3, 5)) == "SearchInstance(n=3, N=8, y=5, theta0=0.3613671239067078)"
        for n in range(1, 31):
            inst = make_instance(n)
            assert inst.N == 1 << n
            assert inst.theta0 == math.asin(1 / math.sqrt(inst.N))

    @pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy])
    def test_an_instance_survives_copying(self, copy_of):
        # a process pool pickles the instances it hands its workers
        for inst in (make_instance(1, 0), make_instance(17, 12345), make_instance(30)):
            twin = copy_of(inst)
            assert twin == inst and hash(twin) == hash(inst)
            assert vars(twin) == vars(inst)

    def test_a_replaced_target_is_checked_again(self):
        inst = make_instance(3, 5)
        assert dataclasses.replace(inst, y=2) == make_instance(3, 2)
        assert dataclasses.replace(inst, y=np.uint8(2)) == make_instance(3, 2)
        with pytest.raises(ValueError, match=r"target index must be an integer in \[0, 7\]"):
            dataclasses.replace(inst, y=inst.N)

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
        v = closed_form_state(make_instance(2, 3), 1)
        assert v[3] == pytest.approx(1.0, abs=1e-15)
        assert v[0] == pytest.approx(0.0, abs=1e-15)

    def test_initial_single_qubit_state_is_uniform(self):
        v = closed_form_state(make_instance(1, 0), 0)
        assert v[0] == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert v[1] == pytest.approx(1 / math.sqrt(2), rel=1e-15)

    def test_two_iterations_on_eight_items(self):
        # sin^2(5*theta0) at N=8, evaluated by brute-force simulation
        v = closed_form_state(make_instance(3, 0), 2)
        assert v[0] ** 2 == pytest.approx(0.9453125, abs=1e-12)
        sim = simulate_statevector(make_instance(3, 0), 2)
        assert sim[0] ** 2 == pytest.approx(v[0] ** 2, abs=1e-12)

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
            for k in range(0, 3 * inst.completion_step, max(1, inst.completion_step // 3)):
                v = closed_form_state(inst, k)
                total = (inst.N - 1) * v[1] ** 2 + v[0] ** 2
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_materialized_amplitudes(self):
        inst = make_instance(3, 5)
        theta = rotation_angle(inst, 1)
        v = closed_form_state(inst, 1)
        assert v.shape == (8,) and v.dtype == np.float64
        assert v[5] == pytest.approx(math.sin(theta), abs=1e-10)
        mask = np.arange(8) != 5
        assert np.allclose(v[mask], math.cos(theta) / math.sqrt(7), atol=1e-10)

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

    @pytest.mark.parametrize(
        "fn", [rotation_angle, schmidt_product, max_separable_epsilon, simulate_statevector, closed_form_state]
    )
    @pytest.mark.parametrize("k", [np.int64(255), np.uint8(255), np.int16(255)])
    def test_accepts_any_integer_type(self, fn, k):
        # 2k+1 and k+1 would wrap around in uint8
        np.testing.assert_array_equal(fn(make_instance(3), k), fn(make_instance(3), 255))

    @pytest.mark.parametrize(
        "fn", [rotation_angle, schmidt_product, max_separable_epsilon, closed_form_state, simulate_statevector]
    )
    @pytest.mark.parametrize("k", [np.uint64(2**64 - 1), np.uint64(2**63), np.int64(2**62)])
    def test_rejects_counts_that_int64_or_float64_cannot_hold(self, fn, k):
        # uint64 counts wrap in int64, and 2k+1 wraps at 2**62 (an angle of -3.3e18 rad)
        with pytest.raises(ValueError, match=ITERATION_COUNT_ERROR):
            fn(make_instance(3), k)

    @pytest.mark.parametrize("fn", [rotation_angle, bloch_vector, schmidt_product, max_separable_epsilon])
    @pytest.mark.parametrize("k", [[], np.array([]), np.array([], dtype=np.uint8)])
    def test_an_empty_array_is_no_counts(self, fn, k):
        # np.asarray([]) is float64, yet holds no count that is not an integer
        result = fn(make_instance(3), k)
        assert result.size == 0
        np.testing.assert_array_equal(result, fn(make_instance(3), np.array([], dtype=np.int64)))

    @pytest.mark.parametrize("k", [2**40, np.array([0, 2**40]), 2**24])
    def test_running_minimum_sweep_is_bounded_before_the_allocation(self, k):
        # max_separable_epsilon sweeps 0..max(k): 2**40 steps would take 8 TiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^iteration count must be an integer in \[0, 16777215\], got "):
                max_separable_epsilon(make_instance(3), k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMaterializedStates:
    """The closed form and the simulator share one check of k and of the n <= 24 guard."""

    @pytest.mark.parametrize("fn", [closed_form_state, simulate_statevector])
    def test_reject_an_array_of_counts(self, fn):
        with pytest.raises(ValueError, match=ITERATION_COUNT_ERROR):
            fn(make_instance(3), np.array([1, 2], dtype=np.uint8))

    def test_closed_form_has_the_simulator_size_guard(self):
        # n = 25..30 would allocate 256 MiB to 8 GiB
        with pytest.raises(ValueError, match="n <= 24"):
            closed_form_state(make_instance(25), 0)

    @pytest.mark.parametrize("fn", [closed_form_state, simulate_statevector])
    def test_guard_fires_before_the_allocation(self, fn):
        # at n = 25 the state alone would take 256 MiB
        inst = make_instance(25)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n <= 24"):
                fn(inst, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
        # a NaN norm compares false against any tolerance
        for v in ([1.0, 1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="normalized"):
                apply_grover_step(np.array(v), inst)

    def test_rejects_wrong_length(self):
        inst = make_instance(3, 0)
        with pytest.raises(ValueError):
            apply_grover_step(np.full(4, 0.5), inst)

    def test_overwrites_its_input_with_the_next_state(self):
        # the result is the caller's array, bit for bit the out-of-place
        # reference on a copy taken first; at n = 21 and 22 the two threads
        # read and write two and four blocks, and none outlives the call
        threads = threading.active_count()
        for n in (*range(1, 13), 21, 22):
            N = 1 << n
            for y in sorted({0, N // 3, N - 1}) if n <= 12 else threaded_targets(N):
                inst = make_instance(n, y)
                v = simulate_statevector(inst, 0)
                for _ in range(2 * inst.completion_step if n <= 12 else 2):
                    w = v.copy()
                    w[y] = -w[y]
                    assert apply_grover_step(v, inst) is v
                    assert threading.active_count() == threads
                    np.testing.assert_array_equal(v, 2.0 * w.mean() - w)

    @pytest.mark.parametrize("n", [17, 18, 19, 20, 21, 22])
    def test_matches_oracles_on_random_states(self, n):
        # two to 64 chunks of 2**16 amplitudes, in up to four blocks that two
        # threads claim.  The step adds the chunk sums in pairs, the order of
        # numpy's own pairwise sum over a power-of-two length, whichever thread
        # read them, so it gives the floats of the whole-vector mean; the
        # oracle sums exactly instead.
        N = 1 << n
        v = np.random.default_rng(n).standard_normal(N)
        v /= np.linalg.norm(v)
        for y in (0, N // 3, N // 2 + 12345, N - 1) if n <= 20 else threaded_targets(N):
            out = apply_grover_step(v.copy(), make_instance(n, y))
            w = v.copy()
            w[y] = -w[y]
            assert np.array_equal(out, 2.0 * w.mean() - w), y
            expected = grover_step(v, y)
            bound = np.finfo(float).eps * np.abs(expected).max()
            np.testing.assert_allclose(out, expected, rtol=0, atol=bound, err_msg=f"{y}")

    @pytest.mark.parametrize(
        "fault",
        [np.nan, np.inf, -np.inf, 0.5],
        ids=["nan", "inf", "-inf", "unnormalized"],
    )
    def test_rejections_in_the_last_chunk(self, fault):
        # the norm comes from the chunk sums, so a fault in the last of the two
        # chunks at n = 17, or of the two blocks at n = 21, shows whichever
        # chunk holds the target and whichever thread reads the fault
        threads = threading.active_count()
        for n in (17, 21):
            N = 1 << n
            v = np.full(N, N**-0.5)
            v[N - 5] = fault
            before = v.copy()
            for y in (0, N - 1):
                with pytest.raises(ValueError, match="normalized"):
                    apply_grover_step(v, make_instance(n, y))
                assert np.array_equal(v, before, equal_nan=True)
                assert threading.active_count() == threads

    def test_an_error_in_the_helper_thread_reaches_the_caller(self, monkeypatch):
        # at n = 21 each thread claims one of the two blocks: the calling
        # thread's first sum waits until the helper's has raised
        einsum, caller, failed = np.einsum, threading.get_ident(), threading.Event()
        caller_sums = []

        def einsum_failing_in_the_helper(*args):
            if threading.get_ident() != caller:
                failed.set()
                raise RuntimeError("in the helper")
            if not caller_sums:
                failed.wait(timeout=10)
            caller_sums.append(args)
            return einsum(*args)

        monkeypatch.setattr(np, "einsum", einsum_failing_in_the_helper)
        N = 1 << 21
        v = np.full(N, N**-0.5)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="in the helper"):
            apply_grover_step(v, make_instance(21, 0))
        assert failed.is_set()
        assert threading.active_count() == threads
        assert np.array_equal(v, np.full(N, N**-0.5))

    def test_concurrent_callers_with_a_short_switch_interval(self):
        # three callers, each with its own helper and its own copies of one
        # input: every output is still the reference, so no claim or sum is
        # lost or shared.  Each caller then runs its own chain v = step(v):
        # every chain still ends on the floats of the same chain run alone
        N = 1 << 21
        v = np.random.default_rng(21).standard_normal(N)
        v /= np.linalg.norm(v)
        targets = (0, BLOCK - 1, N - 1)
        outputs, chains = {}, {}

        def chain(inst, w):
            for _ in range(4):
                w = apply_grover_step(w, inst)
            return w

        def call(y):
            inst = make_instance(21, y)
            outputs[y] = [apply_grover_step(v.copy(), inst) for _ in range(2)]
            chains[y] = chain(inst, outputs[y][0].copy())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(y,)) for y in targets]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        for y in targets:
            w = v.copy()
            w[y] = -w[y]
            expected = 2.0 * w.mean() - w
            assert all(np.array_equal(out, expected) for out in outputs[y]), y
            assert np.array_equal(chains[y], chain(make_instance(21, y), expected.copy())), y


def read_only(v):
    v.flags.writeable = False
    return v


def strided(v):
    # the same amplitudes at every other entry of a vector that owns them
    spread = np.zeros(2 * v.size)
    spread[::2] = v
    return spread[::2]


def one_stored_entry(v):
    # the uniform state with one stored entry: owned, but not contiguous
    u = np.ndarray(v.shape, strides=(0,))
    u[0] = v.size**-0.5
    return u


class Amplitudes(np.ndarray):
    pass


def subclass(v):
    a = Amplitudes(v.shape)
    a[:] = v
    return a


def basis_state_int64(v):
    e = np.zeros(v.size, dtype=np.int64)
    e[-1] = 1
    return e


class TestRejectedStep:
    """A step that raises has written nothing: every check runs before the first write."""

    @pytest.mark.parametrize("make", [read_only, strided, one_stored_entry, subclass, basis_state_int64, list])
    def test_an_input_it_may_not_overwrite(self, make):
        # a write through a view lands in its owner, so the owner's bytes are
        # compared; a zero-stride view would take every write into one entry
        inst = make_instance(4, inst_target(4))
        x = make(closed_form_state(inst, 3))
        owner = x if getattr(x, "base", None) is None else x.base
        before = np.array(owner).tobytes()
        with pytest.raises(ValueError, match="writeable, C-contiguous float64"):
            apply_grover_step(x, inst)
        assert np.array(owner).tobytes() == before

    @pytest.mark.parametrize("y", [-1, 8, 9, 1 << 16])
    def test_a_target_outside_the_vector(self, y):
        # no step can be handed such a target: the instance refuses it.  A
        # target of -1 used to skip the flip and then write v[-1]
        with pytest.raises(ValueError, match=r"target index must be an integer in \[0, 7\]"):
            SearchInstance(n=3, y=y)


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

    def test_equals_repeated_public_steps(self):
        # the in-place loop is bit for bit k calls of apply_grover_step
        for n in range(1, 11):
            N = 1 << n
            for y in sorted({0, N // 3, N - 1}):
                inst = make_instance(n, y)
                v = np.full(N, 1.0 / math.sqrt(N))
                for k in range(2 * inst.completion_step + 2):
                    assert np.array_equal(simulate_statevector(inst, k), v), (n, y, k)
                    v = apply_grover_step(v, inst)

    @pytest.mark.parametrize("n", [17, 18, 21, 22])
    def test_equals_repeated_public_steps_across_chunks(self, n):
        # the target at the start and the end of the first 2**16-amplitude
        # chunk, in a later one (at n = 18 a middle one) and at the very end;
        # at n = 21 and 22, on both sides of the first edge between the blocks
        # that the public step's two threads claim
        N = 1 << n
        for y in (0, (1 << 16) - 1, N // 2 + 12345, N - 1) if n <= 18 else threaded_targets(N):
            inst = make_instance(n, y)
            v = np.full(N, 1.0 / math.sqrt(N))
            for k in range(6):
                assert np.array_equal(simulate_statevector(inst, k), v), (y, k)
                v = apply_grover_step(v, inst)

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
            for k in range(2 * inst.completion_step + 1):
                exact = closed_form_state(inst, k)
                overlap = float(np.dot(v, exact)) ** 2
                assert overlap >= 1.0 - 1e-10
                v = apply_grover_step(v, inst)

    def test_normalization_through_long_runs(self):
        for n in range(1, 13):
            inst = make_instance(n, 0)
            v = simulate_statevector(inst, 0)
            for _ in range(4 * inst.completion_step):
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
        # True used to trace qubit 1 and 1.0 to fail inside a shift
        for ell in (-1, 2, True, 1.0):
            with pytest.raises(ValueError, match="qubit index"):
                partial_trace_single_qubit(v, ell)

    def test_accepts_any_integer_qubit_index(self):
        v = simulate_statevector(make_instance(3, 5), 1)
        for ell in range(3):
            expected = partial_trace_single_qubit(v, ell).matrix
            np.testing.assert_array_equal(partial_trace_single_qubit(v, np.uint8(ell)).matrix, expected)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            partial_trace_single_qubit(np.ones(4), 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17, 18])
    def test_matches_oracle_on_random_states(self, n):
        # Grover states are symmetric in every qubit, random ones are not, so a
        # block or trace mix-up shows.  Qubits 0-3 take the Gram-matrix path,
        # 4 and up the row dots; at n = 17 and 18 a chunk of 2**16 amplitudes
        # per sum spans many blocks (ell < 16), exactly one (16) and half of
        # one (17).
        v = np.random.default_rng(n).standard_normal(1 << n)
        v /= np.linalg.norm(v)
        for ell in range(n):
            reduced = partial_trace_single_qubit(v, ell)
            np.testing.assert_allclose(reduced.matrix, reduced_matrix(v, ell), rtol=0, atol=1e-14, err_msg=f"{ell}")

    @pytest.mark.slow
    @pytest.mark.parametrize("k", [201, 403])
    def test_matches_oracle_on_grover_states(self, k):
        # 7.0e-15 and 9.4e-15 worst entry errors with two BLAS threads, 2.1e-14
        # and 3.8e-14 with one
        inst = make_instance(18, (1 << 18) // 3)
        v = simulate_statevector(inst, k)
        for ell in range(18):
            reduced = partial_trace_single_qubit(v, ell)
            np.testing.assert_allclose(reduced.matrix, reduced_matrix(v, ell), rtol=0, atol=1e-13, err_msg=f"{ell}")

    @pytest.mark.parametrize(
        "v, message",
        [
            (np.where(np.arange(32) == 7, np.nan, 32**-0.5), "normalized"),
            (np.where(np.arange(32) == 7, np.inf, 32**-0.5), "normalized"),
            (np.where(np.arange(32) == 7, -np.inf, 32**-0.5), "normalized"),
            (np.full(32, 0.5), "normalized"),
            (np.full(3, 3**-0.5), "power of two"),
            (np.array([]), "power of two"),
            (np.ones(1), "power of two"),
        ],
        ids=["nan", "inf", "-inf", "unnormalized", "length-3", "empty", "length-1"],
    )
    def test_rejections_name_the_fault(self, v, message):
        # qubits 0-3 and 4 take the two different paths to the sums, and the
        # norm is checked on those sums
        for ell in (0, 3, 4):
            with pytest.raises(ValueError, match=message):
                partial_trace_single_qubit(v, ell)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(16, 21))
    def test_brute_force_matches_closed_form_at_completion(self, n):
        # from one to eight 2**16-amplitude chunks per sum in the partial trace
        inst = make_instance(n, inst_target(n))
        k = inst.completion_step
        v = simulate_statevector(inst, k)
        exact = closed_form_state(inst, k)
        # an exactly rounded overlap: a single-threaded BLAS dot over 2**20
        # products is off by 1e-12 itself
        assert math.fsum(v * exact) ** 2 == pytest.approx(1.0, abs=1e-12)
        a, b = exact[inst.y], exact[inst.y ^ 1]
        half = inst.N // 2
        marked, unmarked, off = a * a + (half - 1) * b * b, half * b * b, (half - 1) * b * b + a * b
        for ell in range(n):
            diagonal = [unmarked, marked] if (inst.y >> ell) & 1 else [marked, unmarked]
            expected = [[diagonal[0], off], [off, diagonal[1]]]
            np.testing.assert_allclose(partial_trace_single_qubit(v, ell).matrix, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "v",
        [np.full(4, 0.5 + 0j), np.full((2, 2), 0.5), np.full(4, "0.5"), np.array([True, False, False, False])],
        ids=["complex", "matrix", "str", "bool"],
    )
    def test_amplitudes_are_a_real_vector(self, v):
        # a complex vector used to be cast to real with a ComplexWarning, a matrix to fail in reshape,
        # and strings and bools to be converted to floats
        with pytest.raises(ValueError, match="real 1-D"):
            partial_trace_single_qubit(v, 0)
        with pytest.raises(ValueError, match="real 1-D"):
            apply_grover_step(v, make_instance(2, 0))


class TestMemory:
    """Peak traced allocations at n = 20, where one amplitude vector is 8 MiB (16 MiB at n = 21).

    The input vectors are allocated before tracing starts, so only what each
    call allocates itself is counted.
    """

    N_QUBITS = 20
    VECTOR = 8 << 20
    SLACK = 1 << 20

    @staticmethod
    def peak_bytes(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [N_QUBITS, 21])
    def test_step_allocates_no_vector(self, n):
        # n = 21 splits the step between two threads, and tracemalloc counts
        # what either of them allocates; the second, chained step takes the
        # path of the first
        inst = make_instance(n, inst_target(n))
        v = closed_form_state(inst, 3)
        for _ in range(2):
            assert self.peak_bytes(apply_grover_step, v, inst) <= self.SLACK

    def test_simulation_holds_one_vector(self):
        inst = make_instance(self.N_QUBITS, inst_target(self.N_QUBITS))
        assert self.peak_bytes(simulate_statevector, inst, 4) <= self.VECTOR + self.SLACK

    def test_partial_trace_stays_below_one_mib(self):
        v = closed_form_state(make_instance(self.N_QUBITS, inst_target(self.N_QUBITS)), 3)
        for ell in range(self.N_QUBITS):
            assert self.peak_bytes(partial_trace_single_qubit, v, ell) <= self.SLACK, ell


class TestScalarTargetSymmetry:
    def test_derived_scalars_independent_of_target(self):
        for n in (2, 3, 5):
            inst0 = make_instance(n, 0)
            k = inst0.completion_step // 2 + 1
            baselines = None
            for y in (0, (1 << n) // 2, (1 << n) - 1):
                inst = make_instance(n, y)
                v = simulate_statevector(inst, k)
                reduced = partial_trace_single_qubit(v, 0)
                scalars = (
                    rotation_angle(inst, k),
                    closed_form_state(inst, k)[y] ** 2,
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


# Each integer input: the call, a legal value, out-of-range values, and the
# name its error message gives.
INTEGER_INPUTS = {
    "make_instance n": (make_instance, 3, (0, 31), "qubit count"),
    "make_instance y": (lambda y: make_instance(3, y), 5, (-1, 8), "target index"),
    "qubit index": (lambda ell: partial_trace_single_qubit(np.full(8, 8**-0.5), ell), 2, (-1, 3), "qubit index"),
    "classical size": (classical_queries, 8, (1, -4, 2**53 + 1, 2**600), "size"),
    "table1 n_min": (lambda n: table1(n, 4), 2, (0, 31), "n_min"),
    "table1 n_max": (lambda n: table1(2, n), 4, (1, 31), "n_max"),
    "scan n_min": (lambda n: speedup_entanglement_scan(n, 4), 3, (0, 31), "n_min"),
    "scan n_max": (lambda n: speedup_entanglement_scan(3, n), 4, (2, 31), "n_max"),
    "closed_form_state k": (
        lambda k: closed_form_state(make_instance(3), k),
        3,
        (-1, 2**52, np.uint64(2**64 - 1)),
        "iteration count",
    ),
    "simulate_statevector k": (
        lambda k: simulate_statevector(make_instance(3), k),
        3,
        (-1, 2**52, np.uint64(2**64 - 1)),
        "iteration count",
    ),
}


class TestIntegerInputs:
    @pytest.mark.parametrize("name", sorted(INTEGER_INPUTS))
    def test_accepts_numpy_integers(self, name):
        call, good, _, _ = INTEGER_INPUTS[name]
        for value in (good, np.int64(good), np.uint8(good)):
            call(value)

    @pytest.mark.parametrize("name", sorted(INTEGER_INPUTS))
    def test_rejects_bools_non_integers_and_out_of_range(self, name):
        # one message shape names the input and its closed interval
        call, good, out_of_range, what = INTEGER_INPUTS[name]
        for value in (True, False, float(good), str(good), *out_of_range):
            with pytest.raises(ValueError, match=rf"^{what} must be an integer in \[-?\d+, (\d+|inf)\], got "):
                call(value)
