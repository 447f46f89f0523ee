"""Expected query counts: classical baseline, ensemble-machine optimum,
and the relation between speed-up and entanglement.

The ensemble machine runs k search iterations and one extra function
evaluation to test the outcome, repeating until the target is confirmed,
so the expected cost of the strategy with k iterations is (k+1)/p(k).
"""

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import max_separable_epsilon, requires_entanglement, separability_bound
from .pseudopure import success_probability
from .search import MAX_INSTANCE_QUBITS, SearchInstance, _as_int, make_instance, rotation_angle

MAX_SCAN_QUBITS = 20


def classical_queries(N: int) -> float:
    """Expected function evaluations of the systematic classical search.

    Stepping through locations in a fixed order and inferring the last one
    gives expectation (N+2)(N-1)/(2N) over a uniformly placed target.  Any
    integer type is accepted (``bool`` is not).
    """
    N_int = _as_int(N)
    if N_int is None or N_int < 2:
        raise ValueError(f"search-space size must be an integer >= 2, got {N}")
    return (N_int + 2) * (N_int - 1) / (2.0 * N_int)


def k_search_limit(instance: SearchInstance) -> int:
    """Iteration range guard: past the first pi/2 crossing the expected
    cost only grows, so a margin of 2 beyond ceil(pi/(4*theta0)) suffices."""
    return instance.completion_step + 2


def pseudo_queries(instance: SearchInstance, epsilon, include_test_query: bool = True) -> tuple[int, float]:
    """Optimal iteration count and expected query count at given purities.

    Minimizes (k+1)/p(k, eps) over k in [0, k_search_limit(instance)]; ties
    go to the smaller k.  ``epsilon`` is one purity for every k or an array
    of one purity per k.  With ``include_test_query`` False the one
    outcome-testing evaluation is dropped from the count (the optimum k is
    unchanged).  eps = 0 is allowed (pure guessing at p = 1/N).
    """
    k = np.arange(k_search_limit(instance) + 1)
    q = (k + 1) / success_probability(instance, k, epsilon)
    best = int(np.argmin(q))
    return best, float(q[best]) - (0.0 if include_test_query else 1.0)


@dataclass(frozen=True)
class ComplexityRow:
    """One line of the query-count comparison at a given qubit count."""

    n: int
    N: int
    k_opt: int
    quantum_queries: float
    classical_queries: float
    epsilon_used: float
    speedup: bool


def table1_row(n: int, include_test_query: bool = True) -> ComplexityRow:
    """Best separability-constrained ensemble query count for n qubits.

    At each candidate k the purity is capped by the running separability
    bound, so the machine stays unproven-entangled through every step it
    executes.
    """
    instance = make_instance(n)
    n_class = classical_queries(instance.N)
    eps = max_separable_epsilon(instance, np.arange(k_search_limit(instance) + 1))
    k_opt, quantum = pseudo_queries(instance, eps, include_test_query)
    return ComplexityRow(
        n=n,
        N=instance.N,
        k_opt=k_opt,
        quantum_queries=quantum,
        classical_queries=n_class,
        epsilon_used=float(eps[k_opt]),
        speedup=quantum < n_class,
    )


def table1(n_min: int, n_max: int, include_test_query: bool = True) -> list[ComplexityRow]:
    """Rows for every qubit count in [n_min, n_max]."""
    if not 1 <= n_min <= n_max <= MAX_INSTANCE_QUBITS:
        raise ValueError(
            f"qubit range must satisfy 1 <= n_min <= n_max <= {MAX_INSTANCE_QUBITS}, "
            f"got [{n_min}, {n_max}]"
        )
    return [table1_row(n, include_test_query) for n in range(n_min, n_max + 1)]


def epsilon_speedup(instance: SearchInstance) -> tuple[int, float] | None:
    """Smallest purity at which the ensemble machine beats classical search.

    The success probability is affine in the purity, so for each k the
    break-even purity is in closed form; the returned pair is the k in
    [1, k_search_limit(instance)] attaining the smallest such threshold and
    that threshold.  Returns
    None when no purity <= 1 achieves a speed-up (e.g. a single qubit).
    Strictly above the threshold the machine is faster; at it, equal.
    """
    N = instance.N
    k = np.arange(1, k_search_limit(instance) + 1)
    gain = N * np.sin(rotation_angle(instance, k)) ** 2 - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        threshold = (N * (k + 1) / classical_queries(N) - 1.0) / gain
    valid = (gain > 0.0) & (threshold > 0.0) & (threshold <= 1.0)
    if not valid.any():
        return None
    best = int(np.argmin(np.where(valid, threshold, np.inf)))
    return int(k[best]), float(threshold[best])


@dataclass(frozen=True)
class SpeedupScanRecord:
    """Speed-up purity threshold versus separability bounds for one n.

    ``iterations`` holds (k, separability bound at k, entangled flag) for
    each 0 < k <= k_opt, where the flag records whether any speed-up
    achieving purity must exceed the bound at that step.
    """

    n: int
    k_opt: int
    epsilon_speedup: float
    iterations: tuple[tuple[int, float, bool], ...]
    entangled_throughout: bool
    last_step_exception: bool


def scan_record(n: int) -> SpeedupScanRecord:
    """Compare the speed-up threshold against every step's bound."""
    instance = make_instance(n)
    found = epsilon_speedup(instance)
    if found is None:
        raise RuntimeError(f"no speed-up purity exists at n = {n}; scan is undefined")
    k_opt, eps_su = found
    k = np.arange(1, k_opt + 1)
    bounds = separability_bound(instance, k)
    entangled = requires_entanglement(eps_su, bounds)
    # Only the final step may escape, and only once the rotation is past pi/2.
    past_half_turn = rotation_angle(instance, k_opt) > math.pi / 2.0
    return SpeedupScanRecord(
        n=n,
        k_opt=k_opt,
        epsilon_speedup=eps_su,
        iterations=tuple(zip(k.tolist(), bounds.tolist(), entangled.tolist())),
        entangled_throughout=bool(entangled[:-1].all() and (entangled[-1] or past_half_turn)),
        last_step_exception=bool(past_half_turn and not entangled[-1]),
    )


def speedup_entanglement_scan(n_min: int, n_max: int) -> list[SpeedupScanRecord]:
    """Scan records for every qubit count in (2, 20]."""
    if not 2 < n_min <= n_max <= MAX_SCAN_QUBITS:
        raise ValueError(
            f"scan range must satisfy 2 < n_min <= n_max <= {MAX_SCAN_QUBITS}, "
            f"got [{n_min}, {n_max}]"
        )
    return [scan_record(n) for n in range(n_min, n_max + 1)]
