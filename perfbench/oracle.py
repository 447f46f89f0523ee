"""Output checks for the benchmark that share no code with ``groverlab``.

Every expected value is recomputed here from the paper's formulas:

    theta0  = asin(2^(-n/2)),   theta_k = (2k+1) theta0
    s_x     = (N-2)/(N-1) cos^2(theta_k) + sin(2 theta_k) / sqrt(N-1)
    s_z     = cos^2(theta_k) / (N-1) - sin^2(theta_k)
    |s|     = min(hypot(s_x, s_z), 1),   d_HS = |s| / sqrt(2)
    P_k     = N(N-2) / (2(N-1)^2) * sin^2(2k theta0) * cos^2(theta_k)
    eps_k   = 1 / (1 + N sqrt(P_k))
    p(k)    = [1 + eps (N sin^2(theta_k) - 1)] / N
    n_class = (N+2)(N-1) / (2N)

Each ``check_*`` function takes one command's stdout and returns
``(rows, errors)``; an empty error list means the output passed.  The
tolerances are fixed here, before any run, and are not tuned per run.

The entropy columns of ``trace`` (``von_neumann_entropy`` and
``linear_entropy``) are not checked: both lose precision as |s| nears 1,
which is the subject of a separate correctness change.
"""

import json
import math

# |got - want| <= REL_TOL * max(|got|, |want|) + ABS_TOL for closed-form values.
REL_TOL = 1e-9
ABS_TOL = 1e-15
# Entanglement flags use the program's documented 1e-12 guard; purities
# within FLAG_SLACK of that decision line are not judged either way.
DECISION_GUARD = 1e-12
FLAG_SLACK = 1e-9
# Squared overlap of simulated and closed-form states, and entries of the
# reduced single-qubit density matrices.
OVERLAP_TOL = 1e-10
REDUCED_TOL = 1e-10
MAX_ERRORS = 5


def theta0(n: int) -> float:
    return math.asin(2.0 ** (-n / 2))


def span(n: int) -> int:
    """ceil(pi / (4 theta0)): the last iteration ``trace`` and ``bound`` emit."""
    return math.ceil(math.pi / (4.0 * theta0(n)))


def schmidt_product(n: int, k: int) -> float:
    N = 2**n
    t0 = theta0(n)
    return N * (N - 2) / (2.0 * (N - 1) ** 2) * math.sin(2 * k * t0) ** 2 * math.cos((2 * k + 1) * t0) ** 2


def bloch(n: int, k: int) -> tuple[float, float]:
    """(s_x, s_z) of one qubit of the state after k steps, in the target frame."""
    N = 2**n
    theta = (2 * k + 1) * theta0(n)
    c2 = math.cos(theta) ** 2
    return (N - 2) / (N - 1) * c2 + math.sin(2 * theta) / math.sqrt(N - 1), c2 / (N - 1) - math.sin(theta) ** 2


def epsilon_bound(n: int, k: int) -> float:
    return 1.0 / (1.0 + 2**n * math.sqrt(max(schmidt_product(n, k), 0.0)))


def success(n: int, k: int, epsilon: float) -> float:
    N = 2**n
    return (1.0 + epsilon * (N * math.sin((2 * k + 1) * theta0(n)) ** 2 - 1.0)) / N


def classical(N: int) -> float:
    return (N + 2) * (N - 1) / (2.0 * N)


def ksteps_table1(n_min: int, n_max: int) -> int:
    """(n, k) points of the table sweep: k = 0..span(n)+2 for every n."""
    return sum(span(n) + 3 for n in range(n_min, n_max + 1))


def ksteps_scan(n_min: int, n_max: int, rows: int) -> int:
    """Threshold sweep k = 1..span(n)+2 per n, plus one bound per emitted row."""
    return sum(span(n) + 2 for n in range(n_min, n_max + 1)) + rows


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want)) + ABS_TOL


def flag_ok(got: bool, epsilon: float, bound: float) -> bool:
    margin = epsilon - (bound + DECISION_GUARD)
    return abs(margin) <= FLAG_SLACK or got == (margin > 0)


class _Errors(list):
    def add(self, message: str) -> None:
        if len(self) < MAX_ERRORS:
            self.append(message)
        elif len(self) == MAX_ERRORS:
            self.append("further errors suppressed")


def parse(stdout: bytes, fmt: str) -> list[dict]:
    """Rows as dicts of floats and bools, from CSV or JSON output."""
    text = stdout.decode("utf-8")
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row {line!r} does not match header {header}")
        rows.append({key: _csv_value(cell) for key, cell in zip(header, cells)})
    return rows


def _csv_value(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    return float(cell)


def check_trace(stdout: bytes, fmt: str, n: int, epsilon: float | None) -> tuple[int, list[str]]:
    """``trace`` (``epsilon`` given) or ``bound`` (``epsilon`` None) output."""
    errors = _Errors()
    try:
        rows = parse(stdout, fmt)
    except (ValueError, KeyError) as exc:
        return 0, [f"unparsable output: {exc}"]
    if len(rows) != span(n) + 1:
        errors.add(f"{len(rows)} rows, expected {span(n) + 1}")
    running = 1.0
    for k, row in enumerate(rows):
        try:
            bound = epsilon_bound(n, k)
            running = min(running, bound)
            expected = {
                "k": k,
                "theta_k": (2 * k + 1) * theta0(n),
                "lambda_product": schmidt_product(n, k),
                "epsilon_bound": bound,
                "epsilon_bound_cummin": running,
            }
            if epsilon is not None:
                s_x, s_z = bloch(n, k)
                s_norm = min(math.hypot(s_x, s_z), 1.0)
                expected.update(s_x=s_x, s_y=0.0, s_z=s_z, s_norm=s_norm, hs_distance=s_norm / math.sqrt(2.0))
                expected["success_probability"] = success(n, k, epsilon)
                if not flag_ok(row["entangled"], epsilon, bound):
                    errors.add(f"k={k}: entangled={row['entangled']} at eps={epsilon}, bound={bound!r}")
            for column, want in expected.items():
                if not close(row[column], want):
                    errors.add(f"k={k}: {column}={row[column]!r}, expected {want!r}")
        except (KeyError, TypeError) as exc:
            errors.add(f"k={k}: malformed row ({exc!r})")
    return len(rows), errors


def table1_row(n: int) -> tuple[float, float]:
    """Best query count with purity capped by the running bound, and that cap."""
    running = 1.0
    best_q, best_eps = math.inf, 1.0
    for k in range(span(n) + 3):
        running = min(running, epsilon_bound(n, k))
        q = (k + 1) / success(n, k, running)
        if q < best_q:
            best_q, best_eps = q, running
    return best_q, best_eps


def check_table1(stdout: bytes, fmt: str, n_min: int, n_max: int) -> tuple[int, list[str]]:
    """The query-count table, with the paper's facts: a speed-up at n = 2
    and none for any n >= 3."""
    errors = _Errors()
    try:
        rows = parse(stdout, fmt)
    except (ValueError, KeyError) as exc:
        return 0, [f"unparsable output: {exc}"]
    if [row.get("n") for row in rows] != list(range(n_min, n_max + 1)):
        errors.add(f"rows cover n = {[row.get('n') for row in rows]}, expected {n_min}..{n_max}")
        return len(rows), errors
    for row in rows:
        try:
            n = int(row["n"])
            N = 2**n
            best_q, best_eps = table1_row(n)
            k = int(row["k_opt"])
            at_k = (k + 1) / success(n, k, row["epsilon_used"])
            checks = {
                "N": (row["N"], N),
                "n_class": (row["n_class"], classical(N)),
                "n_pseudo_min": (row["n_pseudo_min"], best_q),
                "n_pseudo_min at k_opt": (at_k, best_q),
                "epsilon_used": (row["epsilon_used"], best_eps),
            }
            for name, (got, want) in checks.items():
                if not close(got, want):
                    errors.add(f"n={n}: {name}={got!r}, expected {want!r}")
            if n == 2 and row["speedup"] is not True:
                errors.add("n=2: the paper's speed-up is missing")
            if n >= 3 and row["speedup"] is not False:
                errors.add(f"n={n}: speed-up reported without entanglement")
        except (KeyError, TypeError, ValueError) as exc:
            errors.add(f"malformed row {row!r} ({exc!r})")
    return len(rows), errors


def speedup_threshold(n: int) -> float:
    """Smallest purity with (k+1)/p(k) below the classical count, k >= 1."""
    N = 2**n
    n_class = classical(N)
    best = math.inf
    for k in range(1, span(n) + 3):
        gain = N * math.sin((2 * k + 1) * theta0(n)) ** 2 - 1.0
        if gain > 0.0:
            threshold = (N * (k + 1) / n_class - 1.0) / gain
            if 0.0 < threshold <= 1.0:
                best = min(best, threshold)
    return best


def check_scan(stdout: bytes, fmt: str, n_min: int, n_max: int) -> tuple[int, list[str]]:
    """One row per (n, k), k = 1..k_opt; speed-up needs entanglement."""
    errors = _Errors()
    try:
        rows = parse(stdout, fmt)
    except (ValueError, KeyError) as exc:
        return 0, [f"unparsable output: {exc}"]
    by_n: dict[int, list[dict]] = {}
    try:
        for row in rows:
            by_n.setdefault(int(row["n"]), []).append(row)
    except (KeyError, TypeError, ValueError) as exc:
        return len(rows), [f"malformed row ({exc!r})"]
    if sorted(by_n) != list(range(n_min, n_max + 1)):
        errors.add(f"rows cover n = {sorted(by_n)}, expected {n_min}..{n_max}")
    for n, group in by_n.items():
        try:
            k_opt = int(group[0]["k_opt"])
            if [int(row["k"]) for row in group] != list(range(1, k_opt + 1)):
                errors.add(f"n={n}: k column is not 1..{k_opt}")
            if not 1 <= k_opt <= span(n) + 2:
                errors.add(f"n={n}: k_opt={k_opt} outside 1..{span(n) + 2}")
            eps_su = group[0]["epsilon_speedup"]
            if not close(eps_su, speedup_threshold(n)):
                errors.add(f"n={n}: epsilon_speedup={eps_su!r}, expected {speedup_threshold(n)!r}")
            if not group[0]["entangled_throughout"]:
                errors.add(f"n={n}: a speed-up without entanglement is reported")
            for row in group:
                k = int(row["k"])
                bound = epsilon_bound(n, k)
                if not close(row["epsilon_bound"], bound):
                    errors.add(f"n={n} k={k}: epsilon_bound={row['epsilon_bound']!r}, expected {bound!r}")
                if not flag_ok(row["entangled_at_k"], eps_su, bound):
                    errors.add(f"n={n} k={k}: entangled_at_k={row['entangled_at_k']}")
        except (KeyError, TypeError, ValueError) as exc:
            errors.add(f"n={n}: malformed row ({exc!r})")
    return len(rows), errors


def closed_form_amplitudes(n: int, k: int) -> tuple[float, float]:
    """Target amplitude and the common amplitude of every other index."""
    theta = (2 * k + 1) * theta0(n)
    return math.sin(theta), math.cos(theta) / math.sqrt(2**n - 1)


def overlap_sq(vector, n: int, y: int, k: int) -> float:
    """Squared overlap of a simulated amplitude vector with the closed form."""
    a, b = closed_form_amplitudes(n, k)
    total = float(vector.sum())
    target = float(vector[y])
    return (a * target + b * (total - target)) ** 2


def check_overlap(value: float) -> list[str]:
    if abs(1.0 - value) > OVERLAP_TOL:
        return [f"squared overlap {value!r} differs from 1 by more than {OVERLAP_TOL}"]
    return []


def reduced_matrix(n: int, y: int, k: int, ell: int) -> list[list[float]]:
    """Density matrix of qubit ``ell`` of the closed-form state after k steps."""
    a, b = closed_form_amplitudes(n, k)
    half = 2 ** (n - 1)
    marked = a * a + (half - 1) * b * b
    unmarked = half * b * b
    off = (half - 1) * b * b + a * b
    if (y >> ell) & 1:
        return [[unmarked, off], [off, marked]]
    return [[marked, off], [off, unmarked]]


def check_reduced(matrix, n: int, y: int, k: int, ell: int) -> list[str]:
    want = reduced_matrix(n, y, k, ell)
    worst = max(abs(matrix[i][j] - want[i][j]) for i in range(2) for j in range(2))
    if not worst <= REDUCED_TOL:
        return [f"qubit {ell}: reduced state off by {worst!r}"]
    return []
