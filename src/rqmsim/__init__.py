"""Desk-scale simulator of relational quantum mechanics with
cross-perspective links: multi-observer measurement scenarios on
finite-dimensional systems, per-observer ledgers of relative facts, and the
agreement, record-destruction, stable-fact, pre/post-selection and
clock-conditioning properties as runnable checks.

The public names below are loaded from their submodules on first use
(PEP 562), so importing the package imports no numpy: the command line
chooses how numpy loads (see :mod:`rqmsim.cli`).
"""

import importlib

_EXPORTS = {
    "errors": (
        "ImpossibleOutcomeError", "InvalidStateError", "MissingEventError",
        "RecordDestroyedError", "ScenarioError", "SimulationError",
        "SpaceMismatchError", "UnrelatedEventsError"),
    "qcore": (
        "CompositeSpace", "DensityMatrix", "ObservableSpec", "StateVector",
        "apply_unitary", "born_probabilities", "commutes",
        "heisenberg_transform", "partial_trace", "project", "qubits",
        "tensor_product"),
    "eventgraph": (
        "AgreementReport", "QuantumEvent", "World",
        "check_cross_perspective_link", "check_internal_consistency",
        "event_line", "event_record", "has_value", "learn",
        "measurement_unitary", "record_measurement", "relative_state",
        "relevance_prune"),
    "dynamics": (
        "DecoherenceSpec", "IdealClock", "TwoStateVector", "abl_probability",
        "aggregate_perspective", "decohere", "disturbance_profile",
        "disturbance_world_template", "history_state", "pw_conditional_state",
        "pw_probability", "stable_fact_deficit", "stable_fact_grid"),
    "scenarios": (
        "BUILTIN_SCENARIOS", "Scenario", "SummaryStats", "TrialTrace",
        "build_frauchiger_renner", "build_interference_erasure",
        "build_stern_gerlach_decoherence",
        "build_three_outcome_intersubjectivity", "build_wigner_friend",
        "frauchiger_renner_exact", "run_trials"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS or name == "config":  # ``rqmsim.qcore`` and the like
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
