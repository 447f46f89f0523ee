"""Test oracles and test aids that share no code with groverlab.

Each function validates its own inputs, so a check built on it stays
independent of the library's helpers.  Imports only ``math`` and ``numpy``;
``tests/test_oracle_independence.py`` enforces that no import names
groverlab.
"""

import math

import numpy as np


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_size(N) -> int:
    """``N`` as a plain int if it is an integer >= 2 (not ``bool``)."""
    if not _is_integer(N) or N < 2:
        raise ValueError(f"size must be an integer >= 2, got {N}")
    return int(N)


def _as_purity(epsilon) -> float:
    """``epsilon`` as a float if it lies in [0, 1] (NaN does not)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"purity parameter must lie in [0, 1], got {epsilon}")
    return float(epsilon)


def target_frame_bloch(reduced, instance, ell) -> np.ndarray:
    """Express a traced qubit's Bloch vector in the target frame.

    The closed forms assume the frame in which the traced qubit's bit of
    the target index is 1.  When bit ``ell`` of the target index is 0 the
    computational basis of that qubit is relabeled (a bit flip), which
    negates s_y and s_z.
    """
    if not _is_integer(ell) or not 0 <= ell < instance.n:
        raise ValueError(f"qubit index must be an integer in [0, {instance.n}), got {ell}")
    s = np.array(reduced.bloch, dtype=float)
    if not (instance.y >> int(ell)) & 1:
        s[1:] = -s[1:]
    return s


def projected_singlet_fraction(lambda1: float, lambda2: float, N: int, epsilon: float) -> float:
    """Singlet fraction of the ensemble state projected onto two levels.

    Builds the normalized 4x4 projection of the mixed ensemble explicitly
    in the Schmidt basis and returns its overlap with the singlet state.
    Fractions above 1/2 certify entanglement; solving the 1/2 crossing in
    epsilon reproduces the separability bound and serves as its
    independent verification route.
    """
    if not (0.0 <= lambda1 <= 1.0 and 0.0 <= lambda2 <= 1.0):
        raise ValueError(f"Schmidt eigenvalues must lie in [0, 1], got {lambda1} and {lambda2}")
    if abs(lambda1 + lambda2 - 1.0) > 1e-6:
        raise ValueError("Schmidt eigenvalues must sum to 1")
    N = _as_size(N)
    epsilon = _as_purity(epsilon)
    psi = np.array([0.0, math.sqrt(lambda1), -math.sqrt(lambda2), 0.0])
    rho4 = N / (4.0 + epsilon * (N - 4)) * (
        (1.0 - epsilon) / N * np.eye(4) + epsilon * np.outer(psi, psi)
    )
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return float(singlet @ rho4 @ singlet)


def projector_deviation_variance(N: int, epsilon: float) -> float:
    """Ensemble variance of Theta = |psi><psi| - I/N.

    This observable is traceless with zero variance on the pure state
    itself; on the ensemble the variance is
    (1-eps) * (1 - 1/N) * [1/N + eps*(1 - 1/N)], which is non-negative for
    all eps in [0, 1] and vanishes only at eps = 1.
    """
    N = _as_size(N)
    epsilon = _as_purity(epsilon)
    q = 1.0 - 1.0 / N
    return (1.0 - epsilon) * q * (1.0 / N + epsilon * q)


def reduced_matrix(v, ell) -> np.ndarray:
    """2x2 reduced density matrix of qubit ``ell`` of a real state vector.

    Qubit ``ell`` is bit ``ell`` of the basis index.  Each entry is the
    exactly rounded sum (``math.fsum``) of the rounded products of the
    amplitudes whose bit ``ell`` is 0 or 1, so its own error is about one
    ulp of the entry.
    """
    v = np.asarray(v)
    if v.ndim != 1 or v.dtype.kind not in "iuf":
        raise ValueError(f"amplitudes must be a real 1-D array, got {v.dtype} of shape {v.shape}")
    if v.size < 2 or v.size & (v.size - 1):
        raise ValueError(f"amplitude count must be a power of two, got {v.size}")
    n = v.size.bit_length() - 1
    if not _is_integer(ell) or not 0 <= ell < n:
        raise ValueError(f"qubit index must be an integer in [0, {n}), got {ell}")
    halves = v.astype(float).reshape(-1, 2, 1 << int(ell))
    x0, x1 = halves[:, 0].ravel(), halves[:, 1].ravel()
    s00, s01, s11 = math.fsum(x0 * x0), math.fsum(x0 * x1), math.fsum(x1 * x1)
    return np.array([[s00, s01], [s01, s11]])


def grover_step(v, y) -> np.ndarray:
    """One search iteration on the real amplitudes ``v`` with target ``y``: 2*mean(f) - f.

    ``f`` is ``v`` with entry ``y`` negated, and its sum is exactly rounded
    (``math.fsum``), so each output entry is within one rounding of exact.
    """
    f = np.array(v, dtype=float)
    if f.ndim != 1 or not _is_integer(y) or not 0 <= y < f.size:
        raise ValueError(f"expected a 1-D vector and an index into it, got shape {f.shape} and {y!r}")
    f[y] = -f[y]
    return 2.0 * math.fsum(f) / f.size - f


def random_traceless_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with its trace removed.

    Intended for reproducible property sweeps; pass a seeded generator.
    """
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    return h - np.trace(h).real / dim * np.eye(dim)
