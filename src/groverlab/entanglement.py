"""Per-iteration entanglement diagnostics of the search states.

Closed-form Bloch vector of any single qubit, entropy and distance measures
of the reduced state, the Schmidt eigenvalue product of the one-qubit
versus rest bipartition, and the purity-parameter bound below which a
mixed-ensemble state is not proven entangled.

The closed forms assume the target frame in which the traced qubit's bit of
the target index is 1; :func:`target_frame_bloch` maps a raw reduced state
into that frame for comparison.
"""

import math

import numpy as np

from .search import QubitReducedState, SearchInstance, _check_epsilon, _check_iterations, rotation_angle

BLOCH_SLACK = 1e-12

# Entanglement verdicts tolerate this much rounding in the bound itself, so
# steps that complete the search exactly are not flagged by noise ~1e-16.
BOUND_DECISION_TOL = 1e-12


def _checked_bloch_length(s):
    s = np.asarray(s, dtype=float)
    if not np.all((s >= -BLOCH_SLACK) & (s <= 1.0 + BLOCH_SLACK)):
        raise ValueError(f"Bloch length must lie in [0, 1], got {s}")
    return np.clip(s, 0.0, 1.0)


def bloch_components(N: int, theta) -> np.ndarray:
    """Bloch vector (s_x, 0, s_z) of one qubit of the rotated search state.

    Valid for any rotation angle; independent of which qubit is kept and of
    the target index, in the target frame.  An array of angles gives an
    array of shape (3, *theta.shape).
    """
    c2 = np.cos(theta) ** 2
    s_x = (N - 2) / (N - 1) * c2 + np.sin(2 * theta) / math.sqrt(N - 1)
    s_z = c2 / (N - 1) - np.sin(theta) ** 2
    return np.array([s_x, np.zeros_like(s_x), s_z])


def bloch_vector(instance: SearchInstance, k) -> np.ndarray:
    """Closed-form Bloch vector after k search iterations."""
    return bloch_components(instance.N, rotation_angle(instance, k))


def target_frame_bloch(reduced: QubitReducedState, instance: SearchInstance, ell: int) -> np.ndarray:
    """Express a traced qubit's Bloch vector in the target frame.

    When bit ``ell`` of the target index is 0 the computational basis of
    that qubit is relabeled (a bit flip), which negates s_y and s_z.
    """
    s = np.array(reduced.bloch, dtype=float)
    if not (instance.y >> ell) & 1:
        s[1] = -s[1]
        s[2] = -s[2]
    return s


def von_neumann_entropy(s):
    """Entropy in bits of a qubit state with Bloch length s.

    1 for the maximally mixed state (s = 0), 0 for a pure state (s = 1);
    equals the binary entropy of (1 + s)/2.
    """
    s = _checked_bloch_length(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = 1.0 - 0.5 * (1 - s) * np.log2(1 - s) - 0.5 * (1 + s) * np.log2(1 + s)
    # Rounding can carry h an ulp past either end of [0, 1].
    return np.where(s < 1.0, np.clip(h, 0.0, 1.0), 0.0)[()]


def linear_entropy(s):
    """Linear entropy (1 - s^2)/2 of a qubit state with Bloch length s."""
    s = _checked_bloch_length(s)
    return (1.0 - s * s) / 2.0


def hs_distance(s):
    """Hilbert-Schmidt distance s/sqrt(2) from the maximally mixed state.

    Satisfies d^2 = 1/2 - linear_entropy(s).
    """
    return _checked_bloch_length(s) / math.sqrt(2.0)


def schmidt_product(instance: SearchInstance, k):
    """Eigenvalue product lambda1*lambda2 of the one-qubit reduced state.

    Closed form N(N-2)/(2(N-1)^2) * sin^2(2k*theta0) * cos^2(theta_k);
    zero exactly when the state is a product state across the one-qubit
    versus rest bipartition.
    """
    N = instance.N
    theta = rotation_angle(instance, k)
    return (
        N * (N - 2) / (2.0 * (N - 1) ** 2)
        * np.sin(2 * instance.theta0 * k) ** 2
        * np.cos(theta) ** 2
    )


def separability_bound(instance: SearchInstance, k):
    """Largest purity parameter not proven entangled after k iterations.

    Returns eps_k = 1 / (1 + N*sqrt(lambda1*lambda2)).  A mixed-ensemble
    state with purity above eps_k is certainly entangled at step k; at or
    below the bound it is not proven entangled by this criterion.
    """
    product = np.maximum(schmidt_product(instance, k), 0.0)
    return 1.0 / (1.0 + instance.N * np.sqrt(product))


def max_separable_epsilon(instance: SearchInstance, k):
    """Largest purity compatible with separability at every step 0..k.

    The running minimum of :func:`separability_bound`.
    """
    k = _check_iterations(k)
    bounds = separability_bound(instance, np.arange(k.max(initial=0) + 1))
    return np.minimum.accumulate(bounds)[k]


def requires_entanglement(epsilon, bound):
    """Whether purity ``epsilon`` exceeds a separability bound decisively.

    Uses a 1e-12 guard so bounds that are 1 up to rounding do not flag
    exact-completion steps.
    """
    return epsilon > bound + BOUND_DECISION_TOL


def projected_singlet_fraction(lambda1: float, lambda2: float, N: int, epsilon: float) -> float:
    """Singlet fraction of the ensemble state projected onto two levels.

    Builds the normalized 4x4 projection of the mixed ensemble explicitly
    in the Schmidt basis and returns its overlap with the singlet state.
    Fractions above 1/2 certify entanglement; solving the 1/2 crossing in
    epsilon reproduces :func:`separability_bound` and serves as its
    independent verification route.
    """
    if abs(lambda1 + lambda2 - 1.0) > 1e-6:
        raise ValueError("Schmidt eigenvalues must sum to 1")
    epsilon = _check_epsilon(epsilon)
    psi = np.array([0.0, math.sqrt(max(lambda1, 0.0)), -math.sqrt(max(lambda2, 0.0)), 0.0])
    rho4 = N / (4.0 + epsilon * (N - 4)) * (
        (1.0 - epsilon) / N * np.eye(4) + epsilon * np.outer(psi, psi)
    )
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return float(singlet @ rho4 @ singlet)
