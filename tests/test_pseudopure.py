import math

import numpy as np
import pytest

from groverlab import (
    closed_form_state,
    direct_pseudo_variance,
    fluctuation_report,
    make_instance,
    projector_deviation,
    rotation_angle,
    success_probability,
)
from oracles import projector_deviation_variance, random_traceless_hermitian

EPS1_N3 = 1.0 / (1.0 + math.sqrt(3.0))


def random_pure_state(dim, rng):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def ensemble_matrix(instance, k, epsilon):
    """Dense (1-eps)/N * I + eps |psi_k><psi_k| of the search state after k steps."""
    psi = closed_form_state(instance, k)
    return (1 - epsilon) / instance.N * np.eye(instance.N) + epsilon * np.outer(psi, psi)


class TestSuccessProbability:
    def test_arrays_broadcast_element_wise(self):
        inst = make_instance(6, 3)
        k = np.arange(10)
        eps = np.linspace(0.0, 1.0, 10)
        together = success_probability(inst, k, eps)
        one_by_one = [success_probability(inst, int(j), float(e)) for j, e in zip(k, eps)]
        np.testing.assert_array_max_ulp(together, np.array(one_by_one), maxulp=2)
        assert success_probability(inst, k, 0.0).tolist() == [1 / 64] * 10
        with pytest.raises(ValueError):
            success_probability(inst, k, np.array([0.5] * 9 + [1.5]))

    def test_fully_mixed_is_uniform_guessing(self):
        for n, k in [(1, 0), (3, 2), (6, 5)]:
            inst = make_instance(n, 0)
            assert success_probability(inst, k, 0.0) == pytest.approx(1.0 / inst.N, abs=1e-15)

    def test_pure_limit(self):
        inst = make_instance(4, 3)
        for k in range(6):
            s2 = math.sin(rotation_angle(inst, k)) ** 2
            assert success_probability(inst, k, 1.0) == pytest.approx(s2, abs=1e-13)

    def test_eight_item_value_at_bound(self):
        # substitute sin^2(3*theta0) = 25/32 into the mixture probability
        inst = make_instance(3, 7)
        assert success_probability(inst, 1, EPS1_N3) == pytest.approx(0.3652041712335378, abs=1e-10)

    def test_matches_density_matrix_diagonal(self):
        inst = make_instance(3, 5)
        for epsilon in (0.0, 0.3, 0.7, 1.0):
            for k in (0, 1, 2):
                rho = ensemble_matrix(inst, k, epsilon)
                assert success_probability(inst, k, epsilon) == pytest.approx(
                    float(rho[inst.y, inst.y]), abs=1e-12
                )

    @pytest.mark.parametrize("epsilon", [-0.1, 1.1])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError):
            success_probability(make_instance(2, 0), 0, epsilon)

    def test_bounded_and_monotone_in_epsilon(self):
        inst = make_instance(4, 0)
        grid = np.linspace(0.0, 1.0, 21)
        for k in range(6):
            values = [success_probability(inst, k, float(e)) for e in grid]
            assert all(1.0 / inst.N - 1e-12 <= v <= 1.0 + 1e-12 for v in values)
            if math.sin(rotation_angle(inst, k)) ** 2 > 1.0 / inst.N:
                assert all(b > a for a, b in zip(values, values[1:]))


class TestEnsemble:
    def test_density_matrix_eigenvalues(self):
        inst = make_instance(3, 2)
        for epsilon in (0.0, 0.25, 0.9):
            rho = ensemble_matrix(inst, 1, epsilon)
            eigs = np.sort(np.linalg.eigvalsh(rho))
            base = (1 - epsilon) / inst.N
            assert np.allclose(eigs[:-1], base, atol=1e-12)
            assert eigs[-1] == pytest.approx(base + epsilon, abs=1e-12)
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


class TestPseudoVariance:
    def test_pure_limit_recovers_pure_variance(self):
        rng = np.random.default_rng(3)
        theta = random_traceless_hermitian(4, rng)
        psi = random_pure_state(4, rng)
        mean = float((psi.conj() @ theta @ psi).real)
        second = float((psi.conj() @ theta @ theta @ psi).real)
        report = fluctuation_report(theta, psi, 1.0)
        assert report.pseudo_variance == pytest.approx(second - mean**2, abs=1e-12)

    def test_fully_mixed_limit(self):
        rng = np.random.default_rng(4)
        theta = random_traceless_hermitian(8, rng)
        psi = random_pure_state(8, rng)
        expected = float(np.trace(theta @ theta).real) / 8
        report = fluctuation_report(theta, psi, 0.0)
        assert report.pseudo_variance == pytest.approx(expected, abs=1e-12)

    def test_projector_deviation_case(self):
        psi = np.full(4, 0.5)
        theta = projector_deviation(psi)
        report = fluctuation_report(theta, psi, 0.5)
        assert report.pseudo_variance == pytest.approx(0.234375, abs=1e-14)
        assert direct_pseudo_variance(theta, psi, 0.5) == pytest.approx(0.234375, abs=1e-14)

    def test_identity_against_direct_computation(self):
        rng = np.random.default_rng(2024)
        for dim in (2, 4, 8):
            for _ in range(50):
                theta = random_traceless_hermitian(dim, rng)
                psi = random_pure_state(dim, rng)
                epsilon = float(rng.uniform())
                closed = fluctuation_report(theta, psi, epsilon).pseudo_variance
                direct = direct_pseudo_variance(theta, psi, epsilon)
                assert closed == pytest.approx(direct, abs=1e-10)
                assert closed >= -1e-12

    def test_rejects_traced_operator(self):
        psi = np.full(4, 0.5)
        with pytest.raises(ValueError, match="traceless"):
            fluctuation_report(np.eye(4), psi, 0.5)

    def test_rejects_non_hermitian(self):
        psi = np.full(2, 1 / math.sqrt(2))
        op = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            fluctuation_report(op, psi, 0.5)

    def test_rejects_unnormalized_state(self):
        theta = projector_deviation(np.full(4, 0.5))
        with pytest.raises(ValueError, match="normalized"):
            fluctuation_report(theta, np.ones(4), 0.5)

    @pytest.mark.parametrize("fn", [fluctuation_report, direct_pseudo_variance])
    @pytest.mark.parametrize(
        "op, psi, message",
        [
            (np.zeros((2, 3)), [1.0, 0.0], r"^observable must be a square matrix, got shape \(2, 3\)$"),
            (np.diag([1.0, -1.0, 1.0, -1.0]), [1.0, 0.0], r"^state shape \(2,\) does not match operator dimension 4$"),
        ],
        ids=["non-square", "dimension-mismatch"],
    )
    def test_rejects_mismatched_observables(self, fn, op, psi, message):
        with pytest.raises(ValueError, match=message):
            fn(op, psi, 0.5)

    @pytest.mark.parametrize("psi", [[1.0, 1.0], [[0.6, 0.8]], 0.5], ids=["unnormalized", "2-D", "0-d"])
    def test_projector_deviation_rejects_non_states(self, psi):
        with pytest.raises(ValueError, match="state vector must be"):
            projector_deviation(psi)


class TestProjectorDeviationVariance:
    def test_zero_on_pure_state(self):
        for N in (2, 4, 16):
            assert projector_deviation_variance(N, 1.0) == 0.0

    def test_fully_mixed_value(self):
        assert projector_deviation_variance(4, 0.0) == pytest.approx(0.1875, abs=1e-15)

    def test_agrees_with_general_formula(self):
        for N in (2, 4, 8):
            psi = np.full(N, 1 / math.sqrt(N))
            theta = projector_deviation(psi)
            for epsilon in np.linspace(0.0, 1.0, 9):
                special = projector_deviation_variance(N, float(epsilon))
                general = fluctuation_report(theta, psi, float(epsilon)).pseudo_variance
                assert special == pytest.approx(general, abs=1e-14)

    def test_non_negative_on_grid(self):
        for N in (2, 4, 8, 16):
            for epsilon in np.linspace(0.0, 1.0, 100):
                assert projector_deviation_variance(N, float(epsilon)) >= 0.0

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            projector_deviation_variance(1, 0.5)

    @pytest.mark.parametrize("N", [2.5, True, "4"])
    def test_rejects_non_integer_dimension(self, N):
        with pytest.raises(ValueError):
            projector_deviation_variance(N, 0.5)


class TestTracelessExpectationScaling:
    def test_limits(self):
        rng = np.random.default_rng(5)
        theta = random_traceless_hermitian(4, rng)
        psi = random_pure_state(4, rng)
        pure = float((psi.conj() @ theta @ psi).real)
        # the ensemble expectation eps * <Theta>_pure: 0 at eps = 0, pure at eps = 1
        for epsilon in (0.0, 1.0):
            report = fluctuation_report(theta, psi, epsilon)
            assert report.pure_expectation == pytest.approx(pure, abs=1e-12)

    def test_projector_deviation_expectation(self):
        psi = np.full(4, 0.5)
        theta = projector_deviation(psi)
        for epsilon in (0.1, 0.5, 0.9):
            report = fluctuation_report(theta, psi, epsilon)
            assert epsilon * report.pure_expectation == pytest.approx(epsilon * 0.75, abs=1e-13)

    def test_matches_direct_trace(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = random_traceless_hermitian(8, rng)
            psi = random_pure_state(8, rng)
            epsilon = float(rng.uniform())
            rho = (1 - epsilon) / 8 * np.eye(8) + epsilon * np.outer(psi, psi.conj())
            report = fluctuation_report(theta, psi, epsilon)
            assert epsilon * report.pure_expectation == pytest.approx(
                float(np.trace(rho @ theta).real), abs=1e-12
            )


class TestFluctuationReport:
    def test_report_satisfies_identity(self):
        rng = np.random.default_rng(9)
        theta = random_traceless_hermitian(8, rng)
        psi = random_pure_state(8, rng)
        report = fluctuation_report(theta, psi, 0.4)
        recombined = 0.4 * report.pure_variance + 0.6 * (
            report.trace_theta_sq_over_N + 0.4 * report.pure_expectation**2
        )
        assert report.pseudo_variance == pytest.approx(recombined, abs=1e-12)
        assert report.pseudo_variance >= 0.0
