"""One cycle of the simulator workload, run as its own process.

    python3 perfbench/sim_worker.py SMALL_N SMALL_K SMALL_Y LARGE_N LARGE_STEPS LARGE_Y [SPANS.npz]

At SMALL_N it runs ``simulate_statevector`` to SMALL_K steps.  At LARGE_N
it starts from the uniform state, applies ``apply_grover_step``
LARGE_STEPS times and takes ``partial_trace_single_qubit`` of every qubit.
It times each call (the partial traces of all qubits together), checks
both final states against the closed form (see ``oracle``) and prints one
JSON object.  With SPANS.npz the calls are
traced and the first large step runs under ``tracemalloc``.
"""

import json
import sys
import time
import tracemalloc

import oracle
from groverlab import search
from tracer import Tracer, layer_of

FUNCTIONS = ("make_instance", "simulate_statevector", "apply_grover_step", "partial_trace_single_qubit")


def run(small, large, fns, traced: bool) -> dict:
    (n_s, k_s, y_s), (n_l, steps, y_l) = small, large
    calls = []

    def timed(label, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        calls.append([label, time.perf_counter() - start])
        return result

    instance = fns["make_instance"](n_s, y_s)
    v = timed(f"simulate.n{n_s}", fns["simulate_statevector"], instance, k_s)
    overlaps = {f"n{n_s}": oracle.overlap_sq(v, n_s, y_s, k_s)}
    del v

    instance = fns["make_instance"](n_l, y_l)
    v = timed(f"start.n{n_l}", fns["simulate_statevector"], instance, 0)
    peak_bytes = 0
    for step in range(steps):
        watch = traced and step == 0
        if watch:
            tracemalloc.start()
        v = timed(f"step.n{n_l}", fns["apply_grover_step"], v, instance)
        if watch:
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    overlaps[f"n{n_l}"] = oracle.overlap_sq(v, n_l, y_l, steps)
    # One operation: the reduced state of every qubit, as one pass would give it.
    states = timed(f"ptrace.n{n_l}", lambda: [fns["partial_trace_single_qubit"](v, ell) for ell in range(n_l)])
    reduced = [state.matrix.tolist() for state in states]
    return {
        "calls": calls,
        "overlaps": overlaps,
        "reduced": reduced,
        "vector_bytes": int(v.nbytes),
        "step_peak_bytes": peak_bytes,
    }


def main() -> int:
    small = tuple(int(a) for a in sys.argv[1:4])
    large = tuple(int(a) for a in sys.argv[4:7])
    spans_path = sys.argv[7] if len(sys.argv) > 7 else None
    fns = {name: getattr(search, name) for name in FUNCTIONS}
    if spans_path is None:
        result = run(small, large, fns, traced=False)
    else:
        tracer = Tracer()
        fns = {name: tracer.wrap(fn, layer_of(fn)) for name, fn in fns.items()}
        try:
            with tracer.span("bench"):
                result = run(small, large, fns, traced=True)
        finally:
            tracer.save(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
