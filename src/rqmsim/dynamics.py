"""Decoherence and quantitative diagnostics: :func:`decohere` on a
:class:`DecoherenceSpec`, planned by the rule ``Plan.decoherence`` of
:mod:`rqmsim.eventgraph`; the stable-facts deficit, record-disturbance
profiling, pre/post-selected (ABL) probabilities, conditional-on-a-clock
states, and perspective aggregation over many constituents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import ZERO_PROBABILITY
from .errors import (
    ImpossibleOutcomeError,
    InvalidStateError,
    MissingEventError,
    ScenarioError,
    SpaceMismatchError,
)
from .eventgraph import (
    World,
    measurement_unitary,  # re-exported for callers of rqmsim.dynamics
    recorded,
    relative_state,
)
from .qcore import (
    CompositeSpace,
    DensityMatrix,
    ObservableSpec,
    StateVector,
    SystemId,
    _axes_plan,
    born_probabilities,
    expm_hermitian,
    identity,
    is_unitary,
    observables_match,
    partial_trace,
    qubits,
)


# ---------------------------------------------------------------------------
# decoherence
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecoherenceSpec:
    """Basis-selective entangling of a system with fresh environment qubits.

    ``overlap`` is the inner product of the two conditional environment
    states: 0 means a perfect record (full decoherence), 1 means no record.
    """

    system: SystemId
    environment: tuple[SystemId, ...]
    basis: ObservableSpec
    overlap: float

    def __init__(self, system: SystemId, environment: Sequence[SystemId],
                 basis: ObservableSpec, overlap: float):
        if not 0.0 <= overlap <= 1.0:
            raise InvalidStateError(f"overlap {overlap} outside [0, 1]")
        if not environment:
            raise InvalidStateError("at least one environment qubit is required")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "environment", tuple(environment))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "overlap", float(overlap))


def decohere(world: World, spec: DecoherenceSpec) -> World:
    """Entangle each environment qubit with the system in ``spec.basis``.

    No event is recorded: decoherence is not an observation. Conditional
    environment states overlap by ``spec.overlap``, so one qubit multiplies
    the system's basis off-diagonals by that factor.
    """
    for op in world._planned("decoherence", spec):
        world._unitary(op)
    return world


# ---------------------------------------------------------------------------
# stable facts
# ---------------------------------------------------------------------------

def stable_fact_deficit(world: World, bob: SystemId, system: SystemId,
                        q_obs: ObservableSpec, v_obs: ObservableSpec) -> float:
    """How far ``bob``'s predictions are from a classical mixture over the
    recorded variable.

    Compares ``P(q)`` computed directly from bob's relative state against
    ``Σ_i P(q|v_i) P(v_i)``; the maximum absolute gap over outcomes ``q`` is
    the interference the record failed to suppress. Zero certifies the
    recorded variable as a stable fact for ``bob``.
    """
    if not recorded(world._ops, system, v_obs):
        raise MissingEventError(
            f"no interaction recorded {v_obs.name!r} on {system!r}")
    rho = relative_state(world, bob, (system,))
    direct = born_probabilities(rho, q_obs, (system,))
    weights = born_probabilities(rho, v_obs, (system,))
    mixture = {q: 0.0 for q in direct}
    for value, p_v in weights.items():
        if p_v <= ZERO_PROBABILITY:
            continue
        proj = v_obs.projectors[v_obs.outcome_index(value)]
        conditional = DensityMatrix(rho.space, proj @ rho.matrix @ proj / p_v)
        for q, p_q in born_probabilities(conditional, q_obs, (system,)).items():
            mixture[q] += p_v * p_q
    return max(abs(direct[q] - mixture[q]) for q in direct)


def _sweep_rows(sweep: str, xs: Sequence[float], initial: StateVector,
                steps_at, check, trials: int, master_seed: int, strict=False):
    """A sweep's rows ``(x, observed)``: the one ``check`` of the scenario
    ``<sweep> <x> (index <i>)`` on ``initial`` with the steps ``steps_at(x)``,
    run by :func:`run_trials` on the spawn keys ``(i, trial)``. A compile
    error names a step by its label and the check by its name."""
    from .scenarios import Scenario, run_trials

    rows = []
    for si, x in enumerate(xs):
        scenario = Scenario(f"{sweep} {x} (index {si})",
                            initial.space.subsystems, initial, steps_at(x),
                            (check,))
        try:
            stats = run_trials(scenario, trials, master_seed, strict=strict,
                               _spawn=(si,))
        except ScenarioError as exc:  # no trial raises one: compiling did
            where, _, message = str(exc).partition(": ")
            head, dot, rest = where.partition(".")
            labels = {f"steps[{k}]": step.label
                      for k, step in enumerate(scenario.steps)}
            labels["checks[0]"] = check.name()
            raise ScenarioError(f"{scenario.name}: {labels.get(head, head)}"
                                f"{dot}{rest}: {message}") from exc
        rows.append((float(x), stats.checks[0].observed))
    return rows


def stable_fact_grid(initial_amplitudes: Sequence[complex],
                     overlaps: Sequence[float], q_obs: ObservableSpec,
                     v_obs: ObservableSpec) -> list[tuple[float, float]]:
    """Deficit versus environment overlap for a single decohered qubit: per
    overlap, one trial at seed 0 of ``S`` and ``E`` in ``|0⟩``, a ``decohere``
    step ``env`` in the ``v_obs`` basis and a ``deficit_below`` check."""
    from .scenarios import Check, Step

    amps = np.kron(np.asarray(initial_amplitudes, dtype=complex),
                   np.array([1.0, 0.0]))
    return _sweep_rows(
        "stable-fact grid: overlap", overlaps,
        StateVector(qubits("S", "E"), amps),
        lambda c: (Step("decohere", "env", {
            "system": "S", "environment": ["E"], "basis": v_obs,
            "overlap": float(c)}),),
        Check("deficit_below", {"system": "S", "q_observable": q_obs,
                                "v_observable": v_obs, "max": 1.0,
                                "observer": "ext"}), 1, 0)


# ---------------------------------------------------------------------------
# record disturbance profiling
# ---------------------------------------------------------------------------

def disturbance_world_template() -> World:
    """Template world for :func:`disturbance_profile`: the qubits system
    ``S`` in ``|+⟩``, observer ``A``, ancilla ``M`` and learner ``B``, the
    last three in ``|0⟩``."""
    space = qubits("S", "A", "M", "B")
    amps = np.full(2, 1 / math.sqrt(2), dtype=complex)
    rest = np.zeros(8, dtype=complex)
    rest[0] = 1.0
    return World(space, StateVector(space, np.kron(amps, rest)), seed=0)


def disturbance_profile(world_template: World, record_obs: ObservableSpec,
                        probe_obs: ObservableSpec, strengths: Sequence[float],
                        trials: int, *,
                        master_seed: int = 0) -> list[tuple[float, float]]:
    """Retrieval fidelity of a record under a partial probe measurement.

    Per trial the observer ``A`` records ``record_obs`` on the system ``S``,
    the ancilla ``M`` couples to the pointer register ``A`` in the
    ``probe_obs`` basis with coupling angle ``s·π/2`` (environment-state
    overlap ``cos(s·π/2)``), and the learner ``B`` then reads the pointer.
    Fidelity is the frequency with which the read value matches the
    recorded one. Each strength is a scenario that :func:`run_trials` runs
    on the spawn keys ``(strength index, trial)``; an error in a trial
    names the strength, the trial, the step and the seed, and one from
    compiling a strength's scenario names the strength and the step.
    """
    from .scenarios import Check, Step

    if trials < 1:
        raise InvalidStateError(f"trial count {trials} must be at least 1")
    for s in strengths:
        if not 0.0 <= s <= 1.0:
            raise InvalidStateError(f"strength {s} outside [0, 1]")
    if record_obs.dim != world_template.dim("S"):
        raise SpaceMismatchError(f"record {record_obs.name!r} of dimension "
                                 f"{record_obs.dim} does not act on 'S'")
    if probe_obs.dim != world_template.dim("A"):
        raise SpaceMismatchError(
            f"probe {probe_obs.name!r} does not act on the pointer register")
    record = Step("measure", "record",
                  {"observer": "A", "system": "S", "observable": record_obs})
    read = Step("learn", "read", {"learner": "B", "source": "record"})
    return _sweep_rows(
        "disturbance profile: strength", strengths,
        StateVector(world_template.space, world_template._initial),
        lambda s: (record, Step("decohere", "probe", {
            "system": "A", "environment": "M", "basis": probe_obs,
            "overlap": math.cos(s * math.pi / 2.0)}), read),
        Check("agree", {"steps": ["record", "read"]}), trials, master_seed,
        strict=world_template.strict)


# ---------------------------------------------------------------------------
# pre- and post-selected probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TwoStateVector:
    """Forwards-evolving and backwards-evolving boundary conditions.

    ``u1`` evolves the preselected state up to the intermediate measurement,
    ``u2`` evolves its result up to the postselection. Identities if omitted.
    """

    pre: StateVector
    post: StateVector
    u1: np.ndarray = field(repr=False)
    u2: np.ndarray = field(repr=False)

    def __init__(self, pre: StateVector, post: StateVector,
                 u1: np.ndarray | None = None, u2: np.ndarray | None = None):
        if pre.space.total_dim != post.space.total_dim:
            raise SpaceMismatchError("pre and post states live on different spaces")
        d = pre.space.total_dim
        u1 = identity(d) if u1 is None else np.asarray(u1, dtype=complex)
        u2 = identity(d) if u2 is None else np.asarray(u2, dtype=complex)
        for u in (u1, u2):
            if u.shape != (d, d):
                raise SpaceMismatchError("intermediate unitary has wrong shape")
            if not is_unitary(u):
                raise InvalidStateError("intermediate operator is not unitary")
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)

    def time_reversed(self) -> "TwoStateVector":
        """Swap pre and post and invert the two leg unitaries."""
        return TwoStateVector(self.post, self.pre,
                              self.u2.conj().T, self.u1.conj().T)


def abl_probability(tsv: TwoStateVector, obs: ObservableSpec) -> dict[float, float]:
    """Intermediate-outcome distribution conditioned on both boundaries.

    ``P(v_i) = |⟨post|U2 P_i U1|pre⟩|² / Σ_j |⟨post|U2 P_j U1|pre⟩|²``.
    """
    if obs.dim != tsv.pre.space.total_dim:
        raise SpaceMismatchError(
            f"observable {obs.name!r} does not act on the boundary space")
    mid = tsv.u1 @ tsv.pre.amplitudes
    back = tsv.u2.conj().T @ tsv.post.amplitudes
    weights = {}
    for value, proj in zip(obs.eigenvalues, obs.projectors):
        amp = complex(np.vdot(back, proj @ mid))
        weights[value] = abs(amp) ** 2
    denom = sum(weights.values())
    if denom <= ZERO_PROBABILITY:
        raise ImpossibleOutcomeError(
            "postselection is impossible for every intermediate outcome")
    return {v: w / denom for v, w in weights.items()}


# ---------------------------------------------------------------------------
# relational time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealClock:
    """Finite cyclic clock: one tick of its shift Hamiltonian advances the
    reading by one, and the reading projectors resolve the identity."""

    dimension: int
    system_id: SystemId = "C"

    def __post_init__(self):
        if self.dimension < 2:
            raise InvalidStateError("a clock needs at least two readings")

    def shift_hamiltonian(self) -> np.ndarray:
        d = self.dimension
        k = np.arange(d)
        t = np.arange(d)
        fourier = np.exp(2j * math.pi * np.outer(t, k) / d) / math.sqrt(d)
        return (fourier * (2.0 * math.pi * k / d)) @ fourier.conj().T

    def shift_unitary(self, ticks: int = 1) -> np.ndarray:
        return expm_hermitian(self.shift_hamiltonian(), float(ticks))

    def time_state(self, t: int) -> np.ndarray:
        state = np.zeros(self.dimension, dtype=complex)
        state[t] = 1.0
        return state

    def time_projector(self, t: int) -> np.ndarray:
        if not 0 <= t < self.dimension:
            raise SpaceMismatchError(
                f"reading {t} outside clock range 0..{self.dimension - 1}")
        return np.outer(self.time_state(t), self.time_state(t).conj())


def history_state(clock: IdealClock, initial: StateVector,
                  hamiltonian: np.ndarray) -> StateVector:
    """Normalized constraint state ``Σ_t |t⟩ ⊗ e^{-iHt}|ψ₀⟩ / √d``."""
    if clock.system_id in initial.space.ids:
        raise SpaceMismatchError(
            f"clock id {clock.system_id!r} collides with the evolving system")
    d = clock.dimension
    step = expm_hermitian(np.asarray(hamiltonian, dtype=complex), 1.0)
    space = CompositeSpace(((clock.system_id, d),) + initial.space.subsystems)
    rest = initial.amplitudes.copy()
    amps = np.zeros(space.total_dim, dtype=complex)
    block = initial.space.total_dim
    for t in range(d):
        amps[t * block:(t + 1) * block] = rest / math.sqrt(d)
        rest = step @ rest
    return StateVector(space, amps)


def pw_conditional_state(constraint_state: StateVector, clock: IdealClock,
                         t: int) -> StateVector:
    """State of everything but the clock, conditional on reading ``t``:
    contract ``⟨t|`` on the clock factor and renormalize."""
    space = constraint_state.space
    axis = space.axis(clock.system_id)
    if space.dims[axis] != clock.dimension:
        raise SpaceMismatchError("constraint state disagrees with clock dimension")
    if not 0 <= t < clock.dimension:
        raise SpaceMismatchError(
            f"reading {t} outside clock range 0..{clock.dimension - 1}")
    branch = constraint_state.amplitudes[_axes_plan(space.dims, (axis,))[0][t]]
    norm = float(np.linalg.norm(branch))
    if norm * norm <= ZERO_PROBABILITY:
        raise ImpossibleOutcomeError(
            f"the constraint state has no support on clock reading {t}")
    rest = CompositeSpace(tuple(
        sub for i, sub in enumerate(space.subsystems) if i != axis))
    return StateVector(rest, branch / norm)


def pw_probability(constraint_state: StateVector, clock: IdealClock, t: int,
                   v_obs: ObservableSpec, system: SystemId) -> dict[float, float]:
    """Outcome distribution of ``v_obs`` on ``system`` given clock reading
    ``t``: reduce the conditional state to the system, then apply the Born
    rule."""
    conditional = pw_conditional_state(constraint_state, clock, t)
    reduced = partial_trace(conditional, (system,))
    return born_probabilities(reduced, v_obs, (system,))


# ---------------------------------------------------------------------------
# perspective aggregation
# ---------------------------------------------------------------------------

def aggregate_perspective(world: World, constituents: Sequence[SystemId],
                          obs: ObservableSpec) -> float | None:
    """Value of ``obs`` relative to a collection of constituents.

    Each constituent votes with its most recent unsuperseded record of
    ``obs``; a value wins when a strict majority of all constituents voted
    for it.
    """
    if not constituents:
        raise InvalidStateError("constituents list must be nonempty")
    if len(set(constituents)) < len(constituents):
        raise InvalidStateError(f"constituents {list(constituents)} repeat an id")
    votes: dict[float, int] = {}
    for member in constituents:
        latest = None
        for ev in world.events:
            if ev.observer == member and ev.superseded_by is None:
                latest = ev
        if latest is None:
            continue
        if observables_match(latest.obs_spec, obs):
            votes[latest.value] = votes.get(latest.value, 0) + 1
    total = len(constituents)
    for value, count in votes.items():
        if 2 * count > total:
            return value
    return None
