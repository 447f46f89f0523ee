"""Single-target search instances and their pure-state Grover evolution.

Provides the closed-form state after k amplitude-amplification steps, a
brute-force statevector simulator used as an independent cross-check, and
the single-qubit reduced density matrix of any evolved state.

Qubit indexing convention: qubit ``ell`` is bit ``ell`` of the basis-state
integer label, least-significant bit first.  All amplitudes are real; the
implemented search operator never leaves the real span of the basis states.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

MAX_INSTANCE_QUBITS = 30
# 2**24 float64 amplitudes ~ 128 MiB; keeps desk runs under control.
MAX_SIMULATOR_QUBITS = 24

NORM_ATOL = 1e-10


@dataclass(frozen=True)
class SearchInstance:
    """A search problem: find the marked index y among N = 2**n items.

    Attributes
    ----------
    n : int
        Number of qubits.
    N : int
        Search-space size, exactly 2**n.
    y : int
        Marked (target) basis-state index, 0 <= y < N.
    theta0 : float
        Base rotation angle in radians, sin(theta0) = 1/sqrt(N).
    """

    n: int
    N: int
    y: int
    theta0: float

    @property
    def completion_step(self) -> int:
        """First k whose rotation beyond the start, 2k*theta0, reaches pi/2: ceil(pi/(4*theta0))."""
        # At n = 1, asin(1/sqrt(2)) rounds below pi/4, which puts the ratio
        # just above 1.  For 2 <= n <= 30 no ratio lies within 0.009 of an integer.
        return math.ceil(math.pi / (4.0 * self.theta0) - 1e-9)


def _as_int(value) -> int | None:
    """``value`` as a plain int if it is an integer other than a bool."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _check_iterations(k) -> np.ndarray:
    """``k`` as an int64 array if every entry is a non-negative integer of an integer dtype (not ``bool``).

    Widening to int64 keeps 2k+1 and k+1 from wrapping around in a narrow dtype.
    """
    k_arr = np.asarray(k)
    if k_arr.dtype.kind not in "iu" or np.any(k_arr < 0):
        raise ValueError(f"iteration count must be a non-negative integer, got {k}")
    return k_arr.astype(np.int64)


def _check_size(N) -> int:
    """``N`` as a plain int if it is an integer >= 2 (not ``bool``)."""
    N_int = _as_int(N)
    if N_int is None or N_int < 2:
        raise ValueError(f"size must be an integer >= 2, got {N}")
    return N_int


def _qubit_range(n_min, n_max, lowest: int, highest: int) -> range:
    """Qubit counts n_min..n_max once integers with lowest <= n_min <= n_max <= highest."""
    lo, hi = _as_int(n_min), _as_int(n_max)
    if lo is None or hi is None or not lowest <= lo <= hi <= highest:
        raise ValueError(
            f"qubit range must satisfy {lowest} <= n_min <= n_max <= {highest}, got [{n_min}, {n_max}]"
        )
    return range(lo, hi + 1)


def _check_epsilon(epsilon):
    eps = np.asarray(epsilon, dtype=float)
    if not np.all((eps >= 0.0) & (eps <= 1.0)):
        raise ValueError(f"purity parameter must lie in [0, 1], got {epsilon}")
    return eps if eps.ndim else float(eps)


def make_instance(n: int, y: int | None = None) -> SearchInstance:
    """Validate (n, y) and build a :class:`SearchInstance`.

    Any integer type is accepted (``bool`` is not); ``y`` defaults to the
    last index 2**n - 1.

    Raises
    ------
    ValueError
        If n is outside [1, 30] or y outside [0, 2**n).
    """
    n_int = _as_int(n)
    if n_int is None or not 1 <= n_int <= MAX_INSTANCE_QUBITS:
        raise ValueError(f"qubit count must be an integer in [1, {MAX_INSTANCE_QUBITS}], got {n}")
    N = 1 << n_int
    y_int = N - 1 if y is None else _as_int(y)
    if y_int is None or not 0 <= y_int < N:
        raise ValueError(f"target index must be an integer in [0, {N}), got {y}")
    return SearchInstance(n=n_int, N=N, y=y_int, theta0=math.asin(1.0 / math.sqrt(N)))


def rotation_angle(instance: SearchInstance, k):
    """Angle theta_k = (2k+1) * theta0 after k search steps.

    ``k`` is an iteration count or an array of them; the result has its shape.
    """
    return (2 * _check_iterations(k) + 1) * instance.theta0


@dataclass(frozen=True, eq=False)
class PureSearchState:
    """Closed-form pure state after k search iterations.

    The state is sin(theta_k) on the target index and a common real
    amplitude cos(theta_k)/sqrt(N-1) on every other index.
    """

    instance: SearchInstance
    off_target_amp: float
    target_amp: float

    def statevector(self) -> np.ndarray:
        """Materialize the length-N amplitude vector (target entry at y)."""
        v = np.full(self.instance.N, self.off_target_amp)
        v[self.instance.y] = self.target_amp
        return v


def closed_form_state(instance: SearchInstance, k: int) -> PureSearchState:
    """Evaluate the search state after k >= 0 iterations without simulating."""
    theta = rotation_angle(instance, k)
    return PureSearchState(
        instance=instance,
        off_target_amp=math.cos(theta) / math.sqrt(instance.N - 1),
        target_amp=math.sin(theta),
    )


def _check_normalized(amplitudes: np.ndarray) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"amplitude vector is not normalized (|norm - 1| = {abs(norm - 1.0):.3e})")
    return v


def apply_grover_step(amplitudes, instance: SearchInstance) -> np.ndarray:
    """Apply one search iteration to a normalized real amplitude vector.

    The step flips the sign of the target amplitude, reflects the result
    about the uniform superposition, and negates globally.  Equivalently,
    each application advances the rotation angle by 2*theta0.
    """
    v = _check_normalized(amplitudes)
    if v.shape != (instance.N,):
        raise ValueError(f"expected {instance.N} amplitudes, got shape {v.shape}")
    w = v.copy()
    w[instance.y] = -w[instance.y]
    # -(1 - 2|u><u|) w  with u the uniform state: every component of
    # 2<u|w>|u> equals twice the mean of w.
    return 2.0 * w.mean() - w


def simulate_statevector(instance: SearchInstance, k: int) -> np.ndarray:
    """Brute-force the state after k iterations, starting from uniform.

    Independent of :func:`closed_form_state`; the two agree to better than
    1e-10 in squared overlap (this is asserted by the test suite, not here).

    Raises
    ------
    ValueError
        If k < 0 or the instance exceeds the n <= 24 simulator guard.
    """
    _check_iterations(k)
    if instance.n > MAX_SIMULATOR_QUBITS:
        raise ValueError(
            f"statevector simulation is limited to n <= {MAX_SIMULATOR_QUBITS}, got n = {instance.n}"
        )
    v = np.full(instance.N, 1.0 / math.sqrt(instance.N))
    for _ in range(k):
        v = apply_grover_step(v, instance)
    return v


@dataclass(frozen=True, eq=False)
class QubitReducedState:
    """2x2 reduced density matrix of one qubit, with Bloch parameterization.

    Attributes
    ----------
    matrix : np.ndarray
        Real symmetric 2x2 matrix with unit trace.
    bloch : np.ndarray
        Bloch vector (s_x, s_y, s_z); s_y is identically 0 for the real
        states produced here.
    bloch_length : float
        Norm of the Bloch vector, clamped to at most 1.
    lambda1, lambda2 : float
        Eigenvalues (1 +- |s|)/2, clamped into [0, 1]; lambda1 >= lambda2.
    """

    matrix: np.ndarray
    bloch: np.ndarray
    bloch_length: float
    lambda1: float
    lambda2: float

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "QubitReducedState":
        m = np.asarray(matrix, dtype=float)
        # Real symmetric input: s_y = -2 Im(rho_01) vanishes identically.
        s = np.array([m[0, 1] + m[1, 0], 0.0, m[0, 0] - m[1, 1]])
        s_len = min(float(np.linalg.norm(s)), 1.0)
        lam1 = (1.0 + s_len) / 2.0
        lam2 = max((1.0 - s_len) / 2.0, 0.0)
        return cls(matrix=m, bloch=s, bloch_length=s_len, lambda1=lam1, lambda2=lam2)


def partial_trace_single_qubit(amplitudes, ell: int) -> QubitReducedState:
    """Trace out all qubits except qubit ``ell`` of a real pure state.

    ``amplitudes`` must be a normalized real vector whose length is a power
    of two; qubit ``ell`` is bit ``ell`` of the basis index.
    """
    v = _check_normalized(amplitudes)
    N = v.shape[0]
    n = N.bit_length() - 1
    if N != 1 << n:
        raise ValueError(f"amplitude count must be a power of two, got {N}")
    if not 0 <= ell < n:
        raise ValueError(f"qubit index must be in [0, {n}), got {ell}")
    low = 1 << ell
    high = N >> (ell + 1)
    blocks = v.reshape(high, 2, low)
    rho = np.einsum("hal,hbl->ab", blocks, blocks)
    return QubitReducedState.from_matrix(rho)
