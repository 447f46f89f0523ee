"""Single-target search instances and their pure-state Grover evolution.

Provides the closed-form state after k amplitude-amplification steps, a
brute-force statevector simulator used as an independent cross-check, and
the single-qubit reduced density matrix of any evolved state.

Qubit indexing convention: qubit ``ell`` is bit ``ell`` of the basis-state
integer label, least-significant bit first.  All amplitudes are real; the
implemented search operator never leaves the real span of the basis states.
"""

import itertools
import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

MAX_INSTANCE_QUBITS = 30
# 2**24 float64 amplitudes ~ 128 MiB; keeps desk runs under control.
MAX_SIMULATOR_QUBITS = 24
# Largest k for which float64 holds 2k+1 exactly: (2k+1)*theta0 multiplies an exact integer.
MAX_ITERATIONS = 2**52 - 1

NORM_ATOL = 1e-10

# Amplitudes per chunk of each sum in the search step and the partial trace:
# 512 KiB, which stays in cache.
_CHUNK = 1 << 16
# Amplitudes per block that a thread of the search step claims at a time:
# 16 chunks, 8 MiB.
_BLOCK = 16 * _CHUNK


@dataclass(frozen=True)
class SearchInstance:
    """A search problem: find the marked index y among N = 2**n items, built from ``n`` and ``y`` alone.

    Attributes
    ----------
    n : int
        Number of qubits, an integer in [1, 30] of any type but ``bool``.
    N : int
        Search-space size 2**n, derived.
    y : int
        Marked (target) basis-state index, 0 <= y < N; ``None`` (the
        default) means the last index N - 1.
    theta0 : float
        Base rotation angle in radians, sin(theta0) = 1/sqrt(N), derived.
    """

    n: int
    N: int = field(init=False)
    y: int | None = None
    theta0: float = field(init=False)

    def __post_init__(self):
        """Check ``n`` and ``y``, store them as plain ints and derive ``N`` and ``theta0``.

        The step and the closed forms index and rotate by these fields
        without checking them again.
        """
        n = _bounded_int(self.n, 1, MAX_INSTANCE_QUBITS, "qubit count")
        N = 1 << n
        y = N - 1 if self.y is None else _bounded_int(self.y, 0, N - 1, "target index")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "theta0", math.asin(1.0 / math.sqrt(N)))

    @property
    def completion_step(self) -> int:
        """First k whose rotation beyond the start, 2k*theta0, reaches pi/2: ceil(pi/(4*theta0))."""
        # At n = 1, asin(1/sqrt(2)) rounds below pi/4, which puts the ratio
        # just above 1.  For 2 <= n <= 30 no ratio lies within 0.009 of an integer.
        return math.ceil(math.pi / (4.0 * self.theta0) - 1e-9)


def _bounded_int(value, lo: int, hi: float, what: str) -> int:
    """``value`` as a plain int if it is an integer lo <= value <= hi of any type but ``bool``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool) or not lo <= number <= hi:
        raise ValueError(f"{what} must be an integer in [{lo}, {hi}], got {value!r}")
    return number


def _check_iterations(k) -> np.ndarray:
    """``k`` as an int64 array if every entry is an integer in [0, 2**52 - 1] of an integer dtype (not ``bool``).

    2k+1 is exact in float64 up to there; the interval is checked before the
    widening to int64, so no count wraps around or is narrowed.  An empty
    array, of any dtype, holds no counts.  An int64 array is returned as
    itself, not copied.
    """
    k_arr = np.asarray(k)
    if k_arr.size and (k_arr.dtype.kind not in "iu" or np.any((k_arr < 0) | (k_arr > MAX_ITERATIONS))):
        raise ValueError(f"iteration count must be an integer in [0, {MAX_ITERATIONS}], got {k!r}")
    return k_arr.astype(np.int64, copy=False)


def _check_statevector_request(instance: SearchInstance, k) -> int:
    """``k`` as a plain int if it is one iteration count and the n <= 24 guard admits ``instance``."""
    k = _bounded_int(k, 0, MAX_ITERATIONS, "iteration count")
    if instance.n > MAX_SIMULATOR_QUBITS:
        raise ValueError(f"materialized states need n <= {MAX_SIMULATOR_QUBITS}, got n = {instance.n}")
    return k


def _qubit_range(n_min, n_max) -> range:
    """Qubit counts n_min..n_max once integers with 1 <= n_min <= n_max <= MAX_INSTANCE_QUBITS."""
    n_min = _bounded_int(n_min, 1, MAX_INSTANCE_QUBITS, "n_min")
    return range(n_min, _bounded_int(n_max, n_min, MAX_INSTANCE_QUBITS, "n_max") + 1)


def _check_unit_interval(x, what: str, slack: float = 0.0):
    """``x`` clipped into [0, 1], as a float or float array, if it is real (not ``bool``) and within ``slack`` of [0, 1]."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be an integer or float, got {x!r}")
    arr = arr.astype(float)
    if not np.all((arr >= -slack) & (arr <= 1.0 + slack)):
        raise ValueError(f"{what} must lie in [0, 1], got {x}")
    arr = np.clip(arr, 0.0, 1.0)
    return arr if arr.ndim else float(arr)


def make_instance(n: int, y: int | None = None) -> SearchInstance:
    """``SearchInstance(n, y)``: n qubits in [1, 30], target y in [0, 2**n), by default 2**n - 1.

    Any integer type is accepted (``bool`` is not); anything else raises ``ValueError``.
    """
    return SearchInstance(n, y)


class _Angles:
    """The search angle theta_k = (2k+1) * theta0 after k steps, and its sines and cosines.

    Every closed form over k takes its trig from here: :func:`rotation_angle`,
    the Bloch vector, the Schmidt product and the success probability.
    ``k`` is checked once, when the angles are made.  Each sine or cosine
    is evaluated by numpy when its method is called, has the shape of k and
    is not kept, so a caller holds each array no longer than it uses it.
    """

    def __init__(self, instance: SearchInstance, k):
        self._k = _check_iterations(k)
        self._theta0 = instance.theta0
        self.theta = (2 * self._k + 1) * instance.theta0

    def sin_theta(self):
        return np.sin(self.theta)

    def cos_theta(self):
        return np.cos(self.theta)

    def sin_2theta(self):
        return np.sin(2 * self.theta)

    def sin_2k_theta0(self):
        """Sine of the rotation 2k * theta0 beyond the start."""
        return np.sin(2 * self._theta0 * self._k)


def rotation_angle(instance: SearchInstance, k):
    """Angle theta_k = (2k+1) * theta0 after k search steps.

    ``k`` is an iteration count or an array of them; the result has its shape.
    """
    return _Angles(instance, k).theta


def closed_form_state(instance: SearchInstance, k) -> np.ndarray:
    """Length-N amplitudes after k iterations: sin(theta_k) at the target, cos(theta_k)/sqrt(N-1) elsewhere.

    :func:`simulate_statevector` reaches the same array step by step; both
    take one iteration count and allow n <= 24.  The one angle is taken
    through scalar ``math.sin``/``math.cos``, not the numpy kernel of the
    closed forms: numpy's ``sin`` may differ from libm by an ulp on some
    CPUs, and the ``fluctuations`` golden file holds these bytes.
    """
    theta = rotation_angle(instance, _check_statevector_request(instance, k))
    v = np.full(instance.N, math.cos(theta) / math.sqrt(instance.N - 1))
    v[instance.y] = math.sin(theta)
    return v


def _check_unit_norm(norm: float) -> None:
    """Raise unless ``norm`` lies within NORM_ATOL of 1 (NaN and inf do not)."""
    deviation = abs(norm - 1.0)
    if not deviation <= NORM_ATOL:
        raise ValueError(f"state vector must be normalized (|norm - 1| = {deviation:.1e})")


def _check_state(psi) -> np.ndarray:
    """``psi`` as an array if it is a 1-D state vector of unit norm (complex entries allowed)."""
    v = np.asarray(psi)
    if v.ndim != 1:
        raise ValueError(f"state vector must be 1-D, got shape {v.shape}")
    _check_unit_norm(float(np.linalg.norm(v)))
    return v


def _real_vector(amplitudes) -> np.ndarray:
    """``amplitudes`` as a float array if it is 1-D of an integer or float dtype; the norm is left to the caller."""
    v = np.asarray(amplitudes)
    if v.ndim != 1 or v.dtype.kind not in "iuf":
        raise ValueError(f"amplitudes must be a real 1-D array, got {v.dtype} of shape {v.shape}")
    return np.asarray(v, dtype=float)


def _on_two_threads(work, length: int) -> None:
    """Call work(lo, hi) once for each block [lo, hi) of range(length), from the calling thread and one helper thread.

    The two threads claim blocks of _BLOCK in turn from one counter, so a
    thread that is held up leaves the rest to the other; a length of one
    block or less runs in the calling thread alone.  The helper is joined
    before this returns or raises, and an exception raised in it is raised
    here.
    """
    # next() on the shared count is one C call under the interpreter lock, so
    # no two claims return the same block.
    claims = itertools.count(0, _BLOCK)
    errors = []

    def drain():
        for lo in claims:
            if lo >= length:
                return
            work(lo, min(lo + _BLOCK, length))

    def helper():
        try:
            drain()
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    if length <= _BLOCK:
        drain()
        return
    thread = threading.Thread(target=helper)
    thread.start()
    try:
        drain()
    finally:
        thread.join()
    if errors:
        raise errors[0]


def _step_sums(v: np.ndarray, y: int) -> tuple[float, float]:
    """|v|^2 and the sum of v with entry y negated, from one chunked read of v.

    The blocks of v are read on two threads (see :func:`_on_two_threads`),
    and each chunk's two sums go to the chunk's own list entry.  The squares
    are summed by ``einsum``, which runs in the thread that calls it: a
    threaded BLAS dot per chunk stalls when another process holds the cores.
    Entry y is negated in a copy of its chunk.  The squares are then added
    in chunk order, and the flipped chunk sums in pairs, level by level, the
    order in which numpy's pairwise sum adds a vector of 2**n entries, so
    the flipped sum is the same float as the sum of the whole flipped vector
    whichever thread read which block.
    """
    N = v.shape[0]
    chunks = -(-N // _CHUNK)
    squares, sums = [0.0] * chunks, [0.0] * chunks

    def read(start, stop):
        for lo in range(start, stop, _CHUNK):
            chunk = v[lo : lo + _CHUNK]
            squares[lo // _CHUNK] = float(np.einsum("i,i", chunk, chunk))
            if lo <= y < lo + _CHUNK:
                chunk = chunk.copy()
                chunk[y - lo] = -chunk[y - lo]
            sums[lo // _CHUNK] = float(chunk.sum())

    _on_two_threads(read, N)
    total = 0.0
    for square in squares:
        total += square
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return total, sums[0]


def apply_grover_step(amplitudes, instance: SearchInstance) -> np.ndarray:
    """Advance a normalized real amplitude vector by one search iteration, in place.

    The step flips the sign of the target amplitude, reflects the result
    about the uniform superposition, and negates globally.  Equivalently,
    each application advances the rotation angle by 2*theta0.

    It overwrites ``amplitudes``, which must be a writeable, C-contiguous
    float64 ``numpy.ndarray``, with the next state and returns it, so it
    holds one vector; every check comes before the first write, so a
    rejected step writes nothing.  The vector is read once, in chunks of
    2**16 amplitudes, for its sum of squares (the unit-norm check) and its
    sum with the target negated, then written once.  Both passes run on two
    threads (see :func:`_on_two_threads`) over blocks of 2**20 amplitudes,
    and the sums are combined in a fixed order, so the result is the same
    floats for any split.
    """
    _real_vector(amplitudes)  # for its message on complex, string, bool and 2-D input
    v = amplitudes
    if not (type(v) is np.ndarray and v.dtype == np.float64 and v.flags.c_contiguous and v.flags.writeable):
        raise ValueError("amplitudes must be a writeable, C-contiguous float64 numpy.ndarray, which the step overwrites")
    if v.shape != (instance.N,):
        raise ValueError(f"expected {instance.N} amplitudes, got shape {v.shape}")
    squares, flipped = _step_sums(v, instance.y)
    _check_unit_norm(math.sqrt(squares))
    target = v[instance.y]
    # -(1 - 2|u><u|) f  with u the uniform state and f the input with its
    # target negated: every component of 2<u|f>|u> is twice the mean of f.
    two_mean = 2.0 * (flipped / instance.N)

    def write(lo, hi):
        np.subtract(two_mean, v[lo:hi], out=v[lo:hi])

    _on_two_threads(write, instance.N)
    v[instance.y] = two_mean + target
    return v


def simulate_statevector(instance: SearchInstance, k) -> np.ndarray:
    """Brute-force the state after k iterations, starting from uniform.

    One uniform vector is reflected in place k times, bit for bit as k calls
    of :func:`apply_grover_step`.  Independent of :func:`closed_form_state`;
    the two agree to better than 1e-10 in squared overlap (tested, not here).

    Raises
    ------
    ValueError
        If k is not one integer in [0, 2**52 - 1] (the counts for which
        2k+1 is exact in float64) or n exceeds the n <= 24 guard.
    """
    k = _check_statevector_request(instance, k)
    w = np.full(instance.N, 1.0 / math.sqrt(instance.N))
    for _ in range(k):
        w[instance.y] = -w[instance.y]
        # -(1 - 2|u><u|) w  with u the uniform state: every component of
        # 2<u|w>|u> equals twice the mean of w.
        np.subtract(2.0 * w.mean(), w, out=w)
    return w


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


def partial_trace_single_qubit(amplitudes, ell: int) -> QubitReducedState:
    """Trace out all qubits except qubit ``ell`` of a real pure state.

    ``amplitudes`` must be a normalized real vector whose length is a power
    of two; qubit ``ell`` is bit ``ell`` of the basis index.

    With x0 and x1 the amplitudes whose bit ``ell`` is 0 and 1, the reduced
    matrix holds the sums x0.x0, x0.x1 and x1.x1.  The vector is read once,
    through views, in chunks of about 2**16 amplitudes per sum, and the
    chunk totals are added up: the chunks stay in cache, and the rounding
    error grows with the chunk length plus the number of chunks rather than
    with the length of one long accumulation over N/2 terms.  The unit-norm
    check takes |v|^2 = x0.x0 + x1.x1 from the same sums.
    """
    v = _real_vector(amplitudes)
    N = v.shape[0]
    n = N.bit_length() - 1
    if N < 2 or N != 1 << n:
        raise ValueError(f"amplitude count must be a power of two, got {N}")
    ell = _bounded_int(ell, 0, n - 1, "qubit index")
    m = 1 << ell
    rows = max(_CHUNK >> ell, 1)
    if m < 16:
        # Row dots this short cost more in calls than in arithmetic.  The
        # Gram matrix of the block rows [x0 | x1] takes 2m products per
        # amplitude, and the three sums are traces of its blocks.
        pairs = v.reshape(-1, 2 * m)
        gram = np.zeros((2 * m, 2 * m))
        for h in range(0, pairs.shape[0], rows):
            chunk = pairs[h : h + rows]
            gram += chunk.T @ chunk
        s00, s01, s11 = np.trace(gram[:m, :m]), np.trace(gram[:m, m:]), np.trace(gram[m:, m:])
    else:
        # One row dot per block and half-block pair, batched over the chunk.
        blocks = v.reshape(-1, 2, m)
        s00 = s01 = s11 = 0.0
        for h in range(0, blocks.shape[0], rows):
            for lo in range(0, m, _CHUNK):
                chunk = blocks[h : h + rows, :, lo : lo + _CHUNK]
                x0, x1 = chunk[:, :1], chunk[:, 1:]
                s00 += (x0 @ x0.transpose(0, 2, 1)).sum()
                s01 += (x0 @ x1.transpose(0, 2, 1)).sum()
                s11 += (x1 @ x1.transpose(0, 2, 1)).sum()
    _check_unit_norm(math.sqrt(s00 + s11))
    # Real amplitudes: s_y = -2 Im(rho_01) vanishes identically.
    bloch = np.array([2.0 * s01, 0.0, s00 - s11])
    s_len = min(float(np.linalg.norm(bloch)), 1.0)
    return QubitReducedState(
        matrix=np.array([[s00, s01], [s01, s11]]),
        bloch=bloch,
        bloch_length=s_len,
        lambda1=(1.0 + s_len) / 2.0,
        lambda2=(1.0 - s_len) / 2.0,
    )
