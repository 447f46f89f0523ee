"""Invariant suites backed by hypothesis where randomness helps."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groverlab import (
    apply_grover_step,
    closed_form_state,
    hs_distance,
    linear_entropy,
    make_instance,
    partial_trace_single_qubit,
    direct_pseudo_variance,
    fluctuation_report,
    rotation_angle,
    simulate_statevector,
    success_probability,
    von_neumann_entropy,
)
from oracles import random_traceless_hermitian

bloch_lengths = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(s1=bloch_lengths, s2=bloch_lengths)
@example(0.0, 5e-9)
@example(0.0, 2e-7)
def test_entropy_strictly_decreasing(s1, s2):
    lo, hi = sorted((s1, s2))
    # Near s = 0 the entropy is 1 - s^2/(2 ln 2), which rounds to 1.0 up to
    # s ~ 1e-8; a gap in s^2 of 1e-14 is about 65 ulp of entropy.
    if hi - lo > 1e-9 and hi * hi - lo * lo > 1e-14:
        assert von_neumann_entropy(lo) > von_neumann_entropy(hi)


@given(s=bloch_lengths)
def test_distance_and_linear_entropy_partition_one_half(s):
    assert hs_distance(s) ** 2 + linear_entropy(s) == pytest.approx(0.5, abs=1e-12)


@given(s=bloch_lengths)
def test_entropy_bounds(s):
    assert 0.0 <= von_neumann_entropy(s) <= 1.0
    assert 0.0 <= linear_entropy(s) <= 0.5


@given(n=st.integers(min_value=1, max_value=8), k=st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_simulated_states_stay_normalized(n, k):
    v = simulate_statevector(make_instance(n, 0), k)
    assert float(v @ v) == pytest.approx(1.0, abs=1e-12)


@given(
    n=st.integers(min_value=2, max_value=7),
    k=st.integers(min_value=0, max_value=20),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_reduced_state_structure(n, k, data):
    y = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    ell = data.draw(st.integers(min_value=0, max_value=n - 1))
    reduced = partial_trace_single_qubit(simulate_statevector(make_instance(n, y), k), ell)
    assert reduced.bloch[1] == 0.0
    assert reduced.lambda1 + reduced.lambda2 == pytest.approx(1.0, abs=1e-12)
    assert reduced.lambda1 >= 0.0 and reduced.lambda2 >= 0.0
    assert reduced.bloch_length <= 1.0 + 1e-12


@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=0, max_value=200),
    epsilon=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_success_probability_range(n, k, epsilon):
    # holds for iteration counts within the search span; past the rotation
    # peak the pure success probability drops below uniform guessing
    inst = make_instance(n, 0)
    p = success_probability(inst, k % (inst.completion_step + 1), epsilon)
    assert 1.0 / inst.N - 1e-12 <= p <= 1.0 + 1e-12


@given(
    dim=st.sampled_from([2, 4, 8]),
    epsilon=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ensemble_variance_identity_random(dim, epsilon, seed):
    rng = np.random.default_rng(seed)
    theta = random_traceless_hermitian(dim, rng)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    closed = fluctuation_report(theta, psi, epsilon).pseudo_variance
    assert closed == pytest.approx(direct_pseudo_variance(theta, psi, epsilon), abs=1e-10)
    assert closed >= -1e-12


@given(
    n=st.integers(min_value=1, max_value=7),
    k=st.integers(min_value=0, max_value=25),
    targets=st.lists(st.integers(min_value=0), min_size=3, max_size=3, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_target_symmetry_of_success_probability(n, k, targets):
    values = []
    for raw in targets:
        inst = make_instance(n, raw % (1 << n))
        values.append(closed_form_state(inst, k)[inst.y] ** 2)
    assert values[0] == pytest.approx(values[1], abs=1e-12)
    assert values[0] == pytest.approx(values[2], abs=1e-12)


def test_grover_step_matches_angle_advance():
    # one application advances the rotation by exactly 2*theta0
    for n in (2, 4, 6):
        inst = make_instance(n, 1)
        for k in (0, 1, 5):
            v = closed_form_state(inst, k)
            stepped = apply_grover_step(v, inst)
            expected = closed_form_state(inst, k + 1)
            assert np.allclose(stepped, expected, atol=1e-12)
            assert rotation_angle(inst, k + 1) - rotation_angle(inst, k) == pytest.approx(
                2 * inst.theta0, abs=1e-12
            )
