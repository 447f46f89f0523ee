"""Grover-search entanglement and query-complexity laboratory.

Closed-form and simulated evolution of single-target quantum search,
per-iteration entanglement diagnostics, mixed-ensemble (pseudo-pure)
success statistics, and expected-query-count comparisons against
systematic classical search.
"""

from .complexity import (
    ComplexityRow,
    SpeedupScanRecord,
    classical_queries,
    epsilon_speedup,
    pseudo_queries,
    speedup_entanglement_scan,
    table1,
)
from .entanglement import (
    bloch_vector,
    hs_distance,
    linear_entropy,
    max_separable_epsilon,
    requires_entanglement,
    schmidt_product,
    separability_bound,
    von_neumann_entropy,
)
from .pseudopure import (
    FluctuationReport,
    direct_pseudo_variance,
    fluctuation_report,
    projector_deviation,
    success_probability,
)
from .search import (
    QubitReducedState,
    SearchInstance,
    apply_grover_step,
    closed_form_state,
    make_instance,
    partial_trace_single_qubit,
    rotation_angle,
    simulate_statevector,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexityRow",
    "FluctuationReport",
    "QubitReducedState",
    "SearchInstance",
    "SpeedupScanRecord",
    "apply_grover_step",
    "bloch_vector",
    "classical_queries",
    "closed_form_state",
    "direct_pseudo_variance",
    "epsilon_speedup",
    "fluctuation_report",
    "hs_distance",
    "linear_entropy",
    "make_instance",
    "max_separable_epsilon",
    "partial_trace_single_qubit",
    "projector_deviation",
    "pseudo_queries",
    "requires_entanglement",
    "rotation_angle",
    "schmidt_product",
    "separability_bound",
    "simulate_statevector",
    "speedup_entanglement_scan",
    "success_probability",
    "table1",
    "von_neumann_entropy",
]
