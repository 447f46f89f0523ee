"""Mixed-ensemble states with a small pure admixture, and their statistics.

Models states of the form rho = (1-eps)/N * I + eps |psi><psi|, the success
probability they give the search after k iterations, and how expectation
values and fluctuations of traceless observables on such states relate to
their pure-state counterparts.
"""

from dataclasses import dataclass

import numpy as np

from .search import SearchInstance, _Angles, _check_state, _check_unit_interval

TRACE_ATOL = 1e-10


def _check_observable(theta_op, psi):
    op = np.asarray(theta_op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"observable must be a square matrix, got shape {op.shape}")
    if not np.allclose(op, op.conj().T, atol=TRACE_ATOL):
        raise ValueError("observable must be Hermitian")
    if abs(complex(np.trace(op))) > TRACE_ATOL:
        raise ValueError(f"observable must be traceless, trace = {np.trace(op)}")
    v = _check_state(psi)
    if v.shape != (op.shape[0],):
        raise ValueError(f"state shape {v.shape} does not match operator dimension {op.shape[0]}")
    return op, v


def success_probability(instance: SearchInstance, k, epsilon):
    """Probability of measuring the target after k iterations at purity eps.

    p(k) = [1 + eps*(N sin^2(theta_k) - 1)] / N, the target-diagonal entry
    of the ensemble density matrix.  Reduces to 1/N at eps = 0 and to the
    pure-state probability sin^2(theta_k) at eps = 1.  ``k`` and ``epsilon``
    may be arrays; they broadcast against each other.  sin(theta_k) comes
    from the angle kernel of :mod:`groverlab.search`.
    """
    epsilon = _check_unit_interval(epsilon, "purity parameter")
    N = instance.N
    s2 = _Angles(instance, k).sin_theta() ** 2
    return (1.0 + epsilon * (N * s2 - 1.0)) / N


def pure_expectation(theta_op, psi) -> float:
    """<psi| Theta |psi> for a Hermitian operator."""
    op = np.asarray(theta_op)
    v = np.asarray(psi)
    return float((v.conj() @ op @ v).real)


def direct_pseudo_variance(theta_op, psi, epsilon: float) -> float:
    """Variance tr(rho Theta^2) - tr(rho Theta)^2 by explicit matrices.

    Builds the ensemble density matrix densely; this is the independent
    arbiter for the closed form in :func:`fluctuation_report`.
    """
    epsilon = _check_unit_interval(epsilon, "purity parameter")
    op, v = _check_observable(theta_op, psi)
    N = op.shape[0]
    rho = (1.0 - epsilon) / N * np.eye(N, dtype=op.dtype) + epsilon * np.outer(v, v.conj())
    first = float(np.trace(rho @ op).real)
    second = float(np.trace(rho @ op @ op).real)
    return second - first**2


def projector_deviation(psi) -> np.ndarray:
    """The traceless observable |psi><psi| - I/N for a normalized psi."""
    v = _check_state(psi)
    N = v.shape[0]
    return np.outer(v, v.conj()) - np.eye(N, dtype=v.dtype) / N


@dataclass(frozen=True)
class FluctuationReport:
    """Pure versus ensemble second-moment bookkeeping for one observable."""

    epsilon: float
    pure_expectation: float
    pure_variance: float
    trace_theta_sq_over_N: float
    pseudo_variance: float


def fluctuation_report(theta_op, psi, epsilon: float) -> FluctuationReport:
    """Collect the quantities entering the ensemble-variance identity.

    On the ensemble a traceless observable has expectation eps*<Theta>_pure
    and variance eps*Var_pure + (1-eps)*(tr(Theta^2)/N + eps*<Theta>_pure^2),
    which :func:`direct_pseudo_variance` checks by explicit matrices.
    """
    epsilon = _check_unit_interval(epsilon, "purity parameter")
    op, v = _check_observable(theta_op, psi)
    op_sq = op @ op
    mean = pure_expectation(op, v)
    var_pure = pure_expectation(op_sq, v) - mean**2
    tr_sq_over_n = float(np.trace(op_sq).real) / op.shape[0]
    return FluctuationReport(
        epsilon=epsilon,
        pure_expectation=mean,
        pure_variance=var_pure,
        trace_theta_sq_over_N=tr_sq_over_n,
        pseudo_variance=epsilon * var_pure + (1.0 - epsilon) * (tr_sq_over_n + epsilon * mean**2),
    )
