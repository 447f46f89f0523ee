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
    scan_record,
    speedup_entanglement_scan,
    table1,
    table1_row,
)
from .entanglement import (
    bloch_components,
    bloch_vector,
    hs_distance,
    linear_entropy,
    max_separable_epsilon,
    projected_singlet_fraction,
    requires_entanglement,
    schmidt_product,
    separability_bound,
    target_frame_bloch,
    von_neumann_entropy,
)
from .pseudopure import (
    FluctuationReport,
    direct_pseudo_variance,
    fluctuation_report,
    projector_deviation,
    projector_deviation_variance,
    random_traceless_hermitian,
    success_probability,
)
from .search import (
    PureSearchState,
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
    "PureSearchState",
    "QubitReducedState",
    "SearchInstance",
    "SpeedupScanRecord",
    "apply_grover_step",
    "bloch_components",
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
    "projected_singlet_fraction",
    "projector_deviation",
    "projector_deviation_variance",
    "pseudo_queries",
    "random_traceless_hermitian",
    "requires_entanglement",
    "rotation_angle",
    "scan_record",
    "schmidt_product",
    "separability_bound",
    "simulate_statevector",
    "speedup_entanglement_scan",
    "success_probability",
    "table1",
    "table1_row",
    "target_frame_bloch",
    "von_neumann_entropy",
]
