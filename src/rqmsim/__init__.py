"""Desk-scale simulator of relational quantum mechanics with
cross-perspective links: multi-observer measurement scenarios on
finite-dimensional systems, per-observer ledgers of relative facts, and the
agreement, record-destruction, stable-fact, pre/post-selection and
clock-conditioning properties as runnable checks.
"""

from .errors import (
    ImpossibleOutcomeError,
    InvalidStateError,
    MissingEventError,
    RecordDestroyedError,
    ScenarioError,
    SimulationError,
    SpaceMismatchError,
    UnrelatedEventsError,
)
from .qcore import (
    CompositeSpace,
    DensityMatrix,
    ObservableSpec,
    StateVector,
    apply_unitary,
    born_probabilities,
    commutes,
    heisenberg_transform,
    partial_trace,
    project,
    qubits,
    tensor_product,
)
from .eventgraph import (
    AgreementReport,
    Ledger,
    QuantumEvent,
    World,
    check_cross_perspective_link,
    check_internal_consistency,
    event_line,
    event_record,
    has_value,
    learn,
    measurement_unitary,
    record_measurement,
    relative_state,
    relevance_prune,
)
from .dynamics import (
    DecoherenceSpec,
    IdealClock,
    TwoStateVector,
    abl_oracle_check,
    abl_probability,
    aggregate_perspective,
    decohere,
    disturbance_profile,
    disturbance_world_template,
    history_state,
    pw_conditional_state,
    pw_probability,
    stable_fact_deficit,
    stable_fact_grid,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    Scenario,
    SummaryStats,
    TrialTrace,
    build_frauchiger_renner,
    build_interference_erasure,
    build_stern_gerlach_decoherence,
    build_three_outcome_intersubjectivity,
    build_wigner_friend,
    frauchiger_renner_exact,
    run_trials,
)

__version__ = "0.1.0"
