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
from .search import SearchInstance, _bounded_int, _qubit_range, make_instance, rotation_angle


def classical_queries(N: int) -> float:
    """Expected function evaluations of the systematic classical search.

    Stepping through locations in a fixed order and inferring the last one
    gives expectation (N+2)(N-1)/(2N) over a uniformly placed target.  N may
    be of any integer type but ``bool``, up to 2**53, below which floats hold every integer.
    """
    N = _bounded_int(N, 2, 2**53, "size")
    return (N + 2) * (N - 1) / (2.0 * N)


def pseudo_queries(instance: SearchInstance, epsilon, include_test_query: bool = True) -> tuple[int, float]:
    """Optimal iteration count and expected query count at given purities.

    Minimizes (k+1)/p(k, eps) over k in [0, instance.completion_step]; ties
    go to the smaller k.  Past the completion step the rotation has passed
    pi/2, so p(k) falls while k+1 grows, and p peaks again only after more
    than twice as many iterations: no later k is cheaper (checked over three
    windings for n = 1..24 at fixed and running-minimum purities).
    ``epsilon`` is one purity for every k or an array of one purity per k in
    that range.  With ``include_test_query`` False the one outcome-testing
    evaluation is dropped from the count (the optimum k is unchanged); the
    flag must be a ``bool`` or ``np.bool_``.  eps = 0 is allowed (pure guessing at p = 1/N).
    """
    if not isinstance(include_test_query, (bool, np.bool_)):
        raise ValueError(f"include_test_query must be a bool, got {include_test_query!r}")
    k = np.arange(instance.completion_step + 1)
    if np.ndim(epsilon) and np.shape(epsilon) != k.shape:
        raise ValueError(f"expected {k.size} purities, one per k = 0..{k[-1]}, got {np.size(epsilon)}")
    q = (k + 1) / success_probability(instance, k, epsilon)
    best = int(np.argmin(q))
    return best, float(q[best]) - (0.0 if include_test_query else 1.0)


@dataclass(frozen=True)
class ComplexityRow:
    """One line of the query-count comparison at a given qubit count."""

    n: int
    N: int
    k_opt: int
    n_pseudo_min: float
    n_class: float
    epsilon_used: float
    speedup: bool


def table1(n_min: int, n_max: int, include_test_query: bool = True) -> list[ComplexityRow]:
    """Best separability-constrained ensemble query counts for every n in [n_min, n_max].

    At each candidate k the purity is capped by the running separability
    bound, so the machine stays unproven-entangled through every step it
    executes.
    """
    rows = []
    for n in _qubit_range(n_min, n_max):
        instance = make_instance(n)
        n_class = classical_queries(instance.N)
        eps = max_separable_epsilon(instance, np.arange(instance.completion_step + 1))
        k_opt, n_pseudo_min = pseudo_queries(instance, eps, include_test_query)
        rows.append(
            ComplexityRow(
                n=instance.n,
                N=instance.N,
                k_opt=k_opt,
                n_pseudo_min=n_pseudo_min,
                n_class=n_class,
                epsilon_used=float(eps[k_opt]),
                speedup=n_pseudo_min < n_class,
            )
        )
    return rows


def epsilon_speedup(instance: SearchInstance) -> tuple[int, float] | None:
    """Smallest purity at which the ensemble machine beats classical search.

    The success probability is affine in the purity, so for each k the
    break-even purity is in closed form; the returned pair is the k in
    [1, instance.completion_step] attaining the smallest such threshold and
    that threshold.  Returns
    None when no purity <= 1 achieves a speed-up (e.g. a single qubit).
    Strictly above the threshold the machine is faster; at it, equal.
    """
    N = instance.N
    k = np.arange(1, instance.completion_step + 1)
    gain = N * success_probability(instance, k, 1.0) - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        threshold = (N * (k + 1) / classical_queries(N) - 1.0) / gain
    valid = (gain > 0.0) & (threshold > 0.0) & (threshold <= 1.0)
    if not valid.any():
        return None
    best = int(np.argmin(np.where(valid, threshold, np.inf)))
    return int(k[best]), float(threshold[best])


@dataclass(frozen=True, eq=False)
class SpeedupScanRecord:
    """Speed-up purity threshold versus separability bounds for one n.

    The arrays ``k``, ``epsilon_bound`` and ``entangled_at_k`` hold, for
    each 0 < k <= k_opt, the step, its separability bound, and whether any
    speed-up achieving purity must exceed that bound.
    """

    n: int
    k_opt: int
    k: np.ndarray
    epsilon_bound: np.ndarray
    epsilon_speedup: float
    entangled_at_k: np.ndarray
    entangled_throughout: bool
    last_step_exception: bool


def speedup_entanglement_scan(n_min: int, n_max: int) -> list[SpeedupScanRecord]:
    """Compare the speed-up threshold against every step's bound for each n in [n_min, n_max]; n = 1 raises."""
    records = []
    for n in _qubit_range(n_min, n_max):
        instance = make_instance(n)
        if (found := epsilon_speedup(instance)) is None:
            raise ValueError(f"no speed-up purity exists at n = {n}; scan is undefined")
        k_opt, eps_su = found
        k = np.arange(1, k_opt + 1)
        bounds = separability_bound(instance, k)
        entangled = requires_entanglement(eps_su, bounds)
        # Only the final step may escape, once the rotation is within 1e-12 of pi/2 or past it:
        # theta_1 = 3*asin(1/2) at n = 2 is pi/2 up to rounding; theta_k_opt <= 0.81*pi/2 for n = 3..30.
        at_quarter_turn = rotation_angle(instance, k_opt) >= math.pi / 2.0 - 1e-12
        records.append(
            SpeedupScanRecord(
                n=instance.n,
                k_opt=k_opt,
                k=k,
                epsilon_bound=bounds,
                epsilon_speedup=eps_su,
                entangled_at_k=entangled,
                entangled_throughout=bool(entangled[:-1].all() and (entangled[-1] or at_quarter_turn)),
                last_step_exception=bool(at_quarter_turn and not entangled[-1]),
            )
        )
    return records
