"""The public names of ``groverlab``, pinned, so a change to the surface is a deliberate one."""

import inspect

import groverlab
from groverlab import SearchInstance

PUBLIC_NAMES = [
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


def test_the_public_names():
    assert len(PUBLIC_NAMES) == 28
    assert sorted(groverlab.__all__) == PUBLIC_NAMES


def test_each_public_name_imports():
    # a star import takes every name of __all__ and fails on one the package lacks
    namespace = {}
    exec("from groverlab import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES


def test_an_instance_is_built_from_its_qubit_count_and_target():
    assert list(inspect.signature(SearchInstance).parameters) == ["n", "y"]
