"""Per-iteration entanglement diagnostics of the search states.

Closed-form Bloch vector of any single qubit, entropy and distance measures
of the reduced state, the Schmidt eigenvalue product of the one-qubit
versus rest bipartition, and the purity-parameter bound below which a
mixed-ensemble state is not proven entangled.

The closed forms assume the target frame in which the traced qubit's bit of
the target index is 1; ``tests/oracles.py`` maps a raw reduced state into
that frame for comparison.
"""

import math

import numpy as np

from .search import MAX_SIMULATOR_QUBITS, SearchInstance, _Angles, _check_iterations, _check_unit_interval

BLOCH_SLACK = 1e-12

# Entanglement verdicts tolerate this much rounding in the bound itself, so
# steps that complete the search exactly are not flagged by noise ~1e-16.
BOUND_DECISION_TOL = 1e-12

# Steps per chunk of the running-minimum sweep: 512 KiB per float array.
_SWEEP_CHUNK = 1 << 16


def bloch_vector(instance: SearchInstance, k) -> np.ndarray:
    """Closed-form Bloch vector (s_x, 0, s_z) of one qubit after k search iterations.

    Independent of which qubit is kept and of the target index, in the
    target frame.  An array of k gives an array of shape (3, *k.shape).
    The sines and cosines of theta_k come from the angle kernel of
    :mod:`groverlab.search`.
    """
    N = instance.N
    angles = _Angles(instance, k)
    c2 = angles.cos_theta() ** 2
    s_x = (N - 2) / (N - 1) * c2 + angles.sin_2theta() / math.sqrt(N - 1)
    s_z = c2 / (N - 1) - angles.sin_theta() ** 2
    return np.array([s_x, np.zeros_like(s_x), s_z])


def von_neumann_entropy(s):
    """Entropy in bits of a qubit state with Bloch length s.

    1 for the maximally mixed state (s = 0), 0 for a pure state (s = 1);
    equals the binary entropy of (1 + s)/2.
    """
    s = _check_unit_interval(s, "Bloch length", BLOCH_SLACK)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = 1.0 - 0.5 * (1 - s) * np.log2(1 - s) - 0.5 * (1 + s) * np.log2(1 + s)
    # Rounding can carry h an ulp past either end of [0, 1].
    return np.where(s < 1.0, np.clip(h, 0.0, 1.0), 0.0)[()]


def linear_entropy(s):
    """Linear entropy (1 - s^2)/2 of a qubit state with Bloch length s."""
    s = _check_unit_interval(s, "Bloch length", BLOCH_SLACK)
    return (1.0 - s * s) / 2.0


def hs_distance(s):
    """Hilbert-Schmidt distance s/sqrt(2) from the maximally mixed state.

    Satisfies d^2 = 1/2 - linear_entropy(s).
    """
    return _check_unit_interval(s, "Bloch length", BLOCH_SLACK) / math.sqrt(2.0)


def schmidt_product(instance: SearchInstance, k):
    """Eigenvalue product lambda1*lambda2 of the one-qubit reduced state.

    Closed form N(N-2)/(2(N-1)^2) * sin^2(2k*theta0) * cos^2(theta_k),
    with both factors from the angle kernel of :mod:`groverlab.search`;
    zero exactly when the state is a product state across the one-qubit
    versus rest bipartition.
    """
    N = instance.N
    angles = _Angles(instance, k)
    return N * (N - 2) / (2.0 * (N - 1) ** 2) * angles.sin_2k_theta0() ** 2 * angles.cos_theta() ** 2


def separability_bound(instance: SearchInstance, k):
    """Largest purity parameter not proven entangled after k iterations.

    Returns eps_k = 1 / (1 + N*sqrt(lambda1*lambda2)).  A mixed-ensemble
    state with purity above eps_k is certainly entangled at step k; at or
    below the bound it is not proven entangled by this criterion.
    """
    return 1.0 / (1.0 + instance.N * np.sqrt(schmidt_product(instance, k)))


def max_separable_epsilon(instance: SearchInstance, k):
    """Largest purity compatible with separability at every step 0..k.

    The running minimum of :func:`separability_bound`, swept over 0..max(k);
    the sweep is capped at 2**24 steps, the length of an n = 24 state.  It
    runs in chunks of 2**16 steps, carries the minimum from chunk to chunk
    and picks out the counts of k that fall in each chunk, so beside its
    result a call holds a few MiB however far it sweeps.  The minimum is
    exact, so the floats are those of one whole sweep.
    """
    k = _check_iterations(k)
    last = int(k.max(initial=0))
    if last >= 1 << MAX_SIMULATOR_QUBITS:
        raise ValueError(f"iteration count must be an integer in [0, {(1 << MAX_SIMULATOR_QUBITS) - 1}], got {last}")
    minima = np.empty(k.shape)
    running = np.inf
    for lo in range(0, last + 1, _SWEEP_CHUNK):
        chunk = np.minimum.accumulate(separability_bound(instance, np.arange(lo, min(lo + _SWEEP_CHUNK, last + 1))))
        np.minimum(chunk, running, out=chunk)
        running = chunk[-1]
        # a count past this chunk takes its last entry until a later chunk
        # writes the count's own
        np.copyto(minima, np.take(chunk, k - lo, mode="clip"), where=k >= lo)
    return minima[()]


def requires_entanglement(epsilon, bound):
    """Whether purity ``epsilon`` exceeds a separability bound decisively.

    Uses a 1e-12 guard so bounds that are 1 up to rounding do not flag
    exact-completion steps.
    """
    bound = _check_unit_interval(bound, "separability bound")
    return _check_unit_interval(epsilon, "purity parameter") > bound + BOUND_DECISION_TOL
