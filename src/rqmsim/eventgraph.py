"""Per-observer ledgers of quantum events over a global bookkeeping state.

A :class:`World` holds one trial's history: a bookkeeping state vector, the
ops it executed and an append-only event list; an observer's ledger is its
events and those its reads learned from. Measurement outcomes are
drawn by chained Born sampling: each new outcome is sampled from the state
conditioned on every projection whose record is still physically intact.
When a later interaction re-measures a pointer register in a conflicting
basis, the old record is destroyed and its projection stops conditioning the
chain, which is re-derived by replaying the interaction history. Observer-relative
states replay the same history but condition only on the events in that
observer's ledger.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import ZERO_PROBABILITY
from .errors import (
    ImpossibleOutcomeError,
    InvalidStateError,
    MissingEventError,
    RecordDestroyedError,
    SimulationError,
    SpaceMismatchError,
    UnrelatedEventsError,
)
from .qcore import (
    CompositeSpace,
    DensityMatrix,
    ObservableSpec,
    StateVector,
    SystemId,
    _axes_plan,
    apply_planned,
    commutes,
    computational_observable,
    embed_matrix,
    expm_hermitian,
    heisenberg_transform,
    identity,
    is_unitary,
    observables_match,
    partial_trace,
)

EVENT_FIELDS = ("event_id", "observer", "system", "observable", "value",
                "clock", "superseded_by")

# conflict verdicts and operators depend only on the space layout, so every
# world on one layout shares one cache, keyed by ``space.subsystems``
_CACHES: dict = {}

# a world given a memo (only ``run_trials`` gives one) keeps each numeric
# result under its outcome path: per op so far, a sampled measurement's
# outcome index or None. Past the byte cap, results are computed, not stored
_MEMO_BYTES = 16 * 2**20


@dataclass(eq=False)
class QuantumEvent:
    """One actualized fact: a variable took a value relative to an observer.

    ``superseded_by`` points at the later event whose observable conflicts
    with this one on an overlapping target (set automatically when the
    pointer record is scrambled, or by :func:`relevance_prune` for conflicts
    on the measured system itself). ``outcome`` is the trial's outcome
    index, which is not serialized: the eigenspace of a measurement, the
    pointer level of a read.
    """

    event_id: int
    observer: SystemId
    system: SystemId
    targets: tuple[SystemId, ...]
    observable: str
    value: float
    clock_reading: float | None
    pointer: SystemId
    obs_spec: ObservableSpec = field(repr=False)
    superseded_by: int | None = None
    learned_from: int | None = None
    disturbed: bool = False
    value_scale: tuple[float, ...] = field(default=(), repr=False)
    outcome: int | None = field(default=None, repr=False)


def event_record(event: QuantumEvent) -> dict:
    """Serialization contract: exactly the seven public fields, fixed order."""
    return {
        "event_id": event.event_id,
        "observer": event.observer,
        "system": event.system,
        "observable": event.observable,
        "value": event.value,
        "clock": event.clock_reading,
        "superseded_by": event.superseded_by,
    }


# the one LDJSON encoder of event records (``json.dumps`` with separators
# builds a new encoder on every call)
record_line = json.JSONEncoder(separators=(",", ":")).encode


def event_line(event: QuantumEvent) -> str:
    return record_line(event_record(event))


@dataclass(frozen=True)
class AgreementReport:
    """Outcome of a cross-perspective link check between two events."""

    event_a: int
    event_b: int
    values: tuple[float, float]
    agree: bool
    disturbed: bool


def _link(record: QuantumEvent, read: QuantumEvent) -> dict:
    """The link rule, of a link check and of a consistency check's verdict:
    a read agrees with the record it reads when both drew the same outcome
    index, and is disturbed when its own flag says so."""
    return {"agree": record.outcome == read.outcome,
            "disturbed": read.disturbed}


@dataclass(frozen=True, eq=False)
class _Op:
    """One plan entry: an interaction and everything about it that no
    outcome changes. A measurement carries the event it makes, with its
    value not yet drawn; a unitary carries none."""

    matrix: np.ndarray
    targets: tuple[SystemId, ...]  # every subsystem ``matrix`` acts on
    plan: tuple  # where ``matrix`` acts in the state, see ``apply_planned``
    hits: tuple[int, ...] = ()  # events whose record it destroys or disturbs
    event: QuantumEvent | None = None
    records: ObservableSpec | None = None  # a decoherence coupling's basis


def _check_room(pointer_dim: int, outcomes: int, name: str) -> None:
    """A pointer register holds one outcome per level."""
    if pointer_dim < outcomes:
        raise InvalidStateError(f"pointer dimension {pointer_dim} cannot "
                                f"store {outcomes} outcomes of {name!r}")


def measurement_unitary(obs: ObservableSpec, pointer_dim: int) -> np.ndarray:
    """Von Neumann coupling ``|v_i⟩|p⟩ -> |v_i⟩|p+i mod d⟩``.

    A generalized controlled-shift in the observable's eigenbasis, acting on
    (measured subsystems, pointer register). It commutes with ``obs ⊗ I``,
    so repeating a measurement never disturbs its own record.
    """
    _check_room(pointer_dim, len(obs.eigenvalues), obs.name)
    shift = np.zeros((pointer_dim, pointer_dim), dtype=complex)
    for i in range(pointer_dim):
        shift[(i + 1) % pointer_dim, i] = 1.0
    u = np.zeros((obs.dim * pointer_dim,) * 2, dtype=complex)
    power = identity(pointer_dim)
    for proj in obs.projectors:
        u += np.kron(proj, power)
        power = shift @ power
    if not is_unitary(u):
        raise InvalidStateError(
            f"measurement coupling for {obs.name!r} failed the unitarity check")
    return u


def _noncommuting(space: CompositeSpace, a: np.ndarray,
                  targets_a: tuple[SystemId, ...], b: np.ndarray,
                  targets_b: tuple[SystemId, ...]) -> bool:
    """Do ``a`` on ``targets_a`` and ``b`` on ``targets_b`` fail to commute?
    Both are embedded on the union of their targets only."""
    union = sorted(set(targets_a) | set(targets_b), key=space.axis)
    dims = [space.dim(name) for name in union]
    pos = {name: i for i, name in enumerate(union)}
    return not commutes(embed_matrix(a, [pos[t] for t in targets_a], dims),
                        embed_matrix(b, [pos[t] for t in targets_b], dims))


class Plan:
    """The structure of a history, fixed before any outcome is drawn.

    It holds each event but its value, which records later ops destroyed or
    disturbed and the subsystems ops touched; no such verdict depends on a
    value.
    Its public methods are the rules of the interactions: each checks one
    against the history so far and appends the op it becomes, which a
    :class:`World` executes. A compiled scenario plans its steps once for all
    its trials; the functions below plan each call against the world's ops.
    """

    def __init__(self, space: CompositeSpace, ops: Sequence[_Op] = ()):
        self.space = space
        self.ops: list[_Op] = []
        self.events: list[QuantumEvent] = []  # undrawn, by event id
        self.touched: set[SystemId] = set()
        self.destroyed: set[int] = set()
        self.disturbed: set[int] = set()
        self.registers: set[SystemId] = set()  # every id _claim took
        self._cache = _CACHES.setdefault(space.subsystems, {})
        for op in ops:
            self._add(op)

    def _add(self, op: _Op) -> _Op:
        self.ops.append(op)
        self.touched.update(op.targets)
        if op.event is None:
            self.disturbed.update(op.hits)
        else:
            self.destroyed.update(op.hits)
            self.events.append(op.event)
        return op

    def _cached(self, key, build):
        """Cache entry under ``key``, which holds what ``build`` reads: the
        bytes of each array, and the dimensions and targets. No observable's
        name is part of a key, so operators sharing one share no entry."""
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = build()
        return hit

    def _hits_record(self, matrix: np.ndarray, targets: tuple[SystemId, ...],
                     pointer: SystemId) -> bool:
        """Does ``matrix`` on ``targets`` fail to commute with the basis
        ``diag(0 .. d-1)`` of the register ``pointer``? A measurement that
        does destroys the record there, a unitary that does disturbs it."""
        if pointer not in targets:
            return False
        return self._cached(
            ("hit", matrix.tobytes(), targets, pointer),
            lambda: _noncommuting(
                self.space, matrix, targets,
                np.diag(np.arange(self.space.dim(pointer), dtype=float)),
                (pointer,)))

    def _claim(self, registers: tuple[SystemId, ...]) -> None:
        """Pointer and environment registers must start fresh, so an id that
        an earlier op touched, or one listed twice, is rejected."""
        if len(set(registers)) < len(registers) \
                or not self.touched.isdisjoint(registers):
            raise InvalidStateError(f"registers {list(registers)} are not fresh "
                                    "and distinct: each holds one record or "
                                    "environment")
        self.registers.update(registers)

    def unitary(self, matrix: np.ndarray, targets: tuple[SystemId, ...],
                records: ObservableSpec | None = None) -> _Op:
        """An interaction unitary, which disturbs every intact record whose
        register basis it fails to commute with; a decoherence coupling
        copies the basis ``records`` into its environment qubit."""
        plan = _axes_plan(self.space.dims, self.space.axes(targets))
        d_t = len(plan[0])  # the gather index has a row per target state
        if matrix.shape != (d_t, d_t):
            raise SpaceMismatchError(
                f"unitary shape {matrix.shape} does not match targets {targets}")
        if not self._cached(("unitary", matrix.tobytes(), targets),
                            lambda: is_unitary(matrix)):
            raise InvalidStateError("interaction operator is not unitary")
        hits = tuple(ev.event_id for ev in self.events
                     if ev.event_id not in self.destroyed
                     and ev.event_id not in self.disturbed
                     and self._hits_record(matrix, targets, ev.pointer))
        return self._add(_Op(matrix, targets, plan, hits, records=records))

    def measurement(self, observer: SystemId, targets: tuple[SystemId, ...],
                    obs: ObservableSpec, register: SystemId | None,
                    clock: float | None = None,
                    source: int | None = None) -> _Op:
        """``observer`` measures ``obs`` on ``targets`` into ``register``, by
        default its own subsystem. A read of event ``source``, named
        ``ptr(<register it reads>)``, is disturbed if that record was hit."""
        # an unknown or repeated target id is refused before anything else
        d_t = math.prod(self.space.dims[a] for a in self.space.axes(targets))
        register = observer if register is None else register
        if not targets:
            raise SpaceMismatchError("measurement needs at least one target")
        if observer in targets:
            raise InvalidStateError(f"observer {observer!r} cannot measure itself")
        if register in targets:
            raise InvalidStateError(
                f"pointer register {register!r} overlaps the measured targets")
        if obs.dim != d_t:
            raise SpaceMismatchError(
                f"observable {obs.name!r} has dimension {obs.dim}, targets span {d_t}")
        dim = self.space.dim(register)
        unitary = self._cached(
            ("munit", *(p.tobytes() for p in obs.projectors), obs.dim, dim),
            lambda: measurement_unitary(obs, dim))
        self._claim((register,))
        hits = tuple(ev.event_id for ev in self.events
                     if ev.event_id not in self.destroyed
                     and self._hits_record(obs.operator, targets, ev.pointer))
        event = QuantumEvent(
            len(self.events), observer, targets[0], targets,
            obs.name if source is None else f"ptr({targets[0]})", None,
            clock, register, obs, learned_from=source,
            disturbed=source in self.destroyed or source in self.disturbed,
            value_scale=obs.eigenvalues if source is None
            else self.events[source].value_scale)
        coupled = targets + (register,)
        return self._add(_Op(
            unitary, coupled,
            _axes_plan(self.space.dims, self.space.axes(coupled)), hits, event))

    def read(self, learner: SystemId, source: int,
             register: SystemId | None) -> _Op:
        """``learner`` reads the pointer register of event ``source``."""
        src = self.events[source]
        if learner == src.observer:
            raise InvalidStateError(f"{learner!r} cannot learn its own record")
        name, levels = f"ptr({src.pointer})", self.space.dim(src.pointer)
        # checked first: the observable of the pointer costs d**5 to build
        _check_room(self.space.dim(learner if register is None else register),
                    levels, name)
        return self.measurement(learner, (src.pointer,),
                                computational_observable(levels), register,
                                source=source)

    def consistency(self, w: SystemId, s: SystemId, f: SystemId,
                    obs: ObservableSpec, pointers: Sequence[SystemId]
                    ) -> tuple[_Op, _Op]:
        """``w`` measures ``s`` in the basis of ``f``'s latest record of it,
        then reads that record: the two ops of a consistency check."""
        prior = [ev.event_id for ev in self.events if ev.observer == f
                 and ev.targets == (s,) and observables_match(ev.obs_spec, obs)]
        if not prior:
            raise MissingEventError(
                f"{f!r} has not measured {s!r} in the {obs.name!r} basis")
        if len(pointers) != 2:
            raise InvalidStateError("the checking observer needs two registers")
        return (self.measurement(w, (s,), obs, pointers[0]),
                self.read(w, prior[-1], pointers[1]))


class World:
    """One trial's interaction history: its ops, bookkeeping state and events.

    A world is confined to a single trial execution; identical seeds and
    identical operation sequences replay to identical event values. It
    executes the ops of a :class:`Plan` in order. Worlds on one space layout
    share a cache of conflict verdicts and operators.
    """

    def __init__(self, space: CompositeSpace, initial_state: StateVector,
                 seed, *, strict: bool = False):
        if initial_state.space.subsystems != space.subsystems:
            raise SpaceMismatchError("initial state is not on the declared space")
        self.space = space
        self.strict = strict
        self.rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(seed)
        self.events: list[QuantumEvent] = []
        # the initial amplitudes are read-only, and no state is ever written
        # in place: every op returns a new array, so all start from this one
        self._initial = np.asarray(initial_state.amplitudes)
        self._state = self._initial
        self._ops: list[_Op] = []
        self._cache = _CACHES.setdefault(space.subsystems, {})
        self._memo: dict | None = None
        self._path: tuple = ()

    # -- basic accessors ----------------------------------------------------

    @property
    def bookkeeping_state(self) -> StateVector:
        return StateVector(self.space, self._state)

    def dim(self, system: SystemId) -> int:
        return self.space.dim(system)

    def ledger(self, owner: SystemId) -> tuple[int, ...]:
        """The ids of the events ``owner`` recorded and of the events those
        reads learned from, in order."""
        mine = [ev for ev in self.events if ev.observer == owner]
        learned = [ev.learned_from for ev in mine if ev.learned_from is not None]
        return tuple(sorted({ev.event_id for ev in mine}.union(learned)))

    def event(self, event_id: int) -> QuantumEvent:
        if not 0 <= event_id < len(self.events):
            raise MissingEventError(f"no event with id {event_id}")
        return self.events[event_id]

    def fork(self, seed) -> "World":
        """Fresh world on the same space and initial state, empty history."""
        return World(self.space, StateVector(self.space, self._initial), seed,
                     strict=self.strict)

    def _plan(self) -> Plan:
        """The plan of this world's history so far, to add an op to."""
        return Plan(self.space, self._ops)

    # -- tensor plumbing ----------------------------------------------------

    _cached = Plan._cached  # the same lookup, on the same per-layout cache

    def _remember(self, key, build):
        """``build()``, or what an earlier world sharing the memo stored under
        ``key``. ``build`` returns a state or a (state, probabilities) pair;
        stored states are read-only."""
        if self._memo is None:
            return build()
        hit = self._memo.get(key)
        if hit is None:
            hit = build()
            # each entry holds one state of this size, besides a few floats
            if (len(self._memo) + 1) * self._state.nbytes <= _MEMO_BYTES:
                (hit[0] if isinstance(hit, tuple) else hit).flags.writeable = False
                self._memo[key] = hit
        return hit

    def _apply_op(self, state: np.ndarray, op: _Op) -> np.ndarray:
        return apply_planned(state, op.matrix, op.plan)

    def _register_probs(self, state: np.ndarray, register: SystemId) -> list[float]:
        rows = _axes_plan(self.space.dims, (self.space.axis(register),))[0]
        return (np.abs(state[rows]) ** 2).sum(axis=1).tolist()

    def _project_register(self, state: np.ndarray, register: SystemId,
                          index: int) -> np.ndarray:
        row = _axes_plan(self.space.dims, (self.space.axis(register),))[0][index]
        branch = state[row]
        p = float(np.vdot(branch, branch).real)
        if p <= ZERO_PROBABILITY:
            raise ImpossibleOutcomeError(
                f"conditioning register {register!r} on index {index} "
                f"has probability {p}")
        out = np.zeros_like(state)
        out[row] = branch / math.sqrt(p)
        return out

    def _replay(self, kept: tuple[int, ...] | None = None) -> np.ndarray:
        """Re-derive the state: all interaction unitaries in order, projecting
        only on the sampled measurements of the events ``kept`` (default: all)
        whose record no executed measurement op destroyed, in order."""
        if kept is None:
            kept = range(len(self.events))
        destroyed = {e for op in self._ops if op.event is not None for e in op.hits}
        kept = tuple(i for i in kept if i not in destroyed)

        def replay() -> np.ndarray:
            state = self._initial
            # a sampled measurement's outcome index is its entry in the path
            for op, index in zip(self._ops, self._path):
                state = self._apply_op(state, op)
                if op.event is not None and op.event.event_id in kept:
                    state = self._project_register(state, op.event.pointer,
                                                   index)
            return state

        return self._remember((self._path, kept), replay)

    # -- interaction primitives ----------------------------------------------

    def apply_unitary(self, matrix: np.ndarray,
                      targets: Sequence[SystemId]) -> None:
        """Append an interaction unitary (no event, no sampling).

        A unitary that fails to commute with some pointer register's basis
        marks that record disturbed: later reads of it stop being guaranteed
        to reproduce the original value. Having no outcome of its own, it
        cannot re-randomize an already-sampled branch, so the record's
        projection keeps conditioning the chain.
        """
        self._unitary(self._plan().unitary(np.asarray(matrix, dtype=complex),
                                           tuple(targets)))

    def _unitary(self, op: _Op) -> None:
        self._ops.append(op)
        self._path += (None,)
        self._state = self._remember(
            self._path, lambda: self._apply_op(self._state, op))

    def _measure(self, op: _Op) -> QuantumEvent:
        """A measurement op, its outcome drawn by the chained Born rule."""
        probs = self._couple(op)
        total = 0.0
        for p in probs:
            total += p if p > ZERO_PROBABILITY else 0.0
        u = self.rng.random() * total
        index = len(probs) - 1
        acc = 0.0
        for i, p in enumerate(probs):
            if p <= ZERO_PROBABILITY:
                continue
            acc += p
            if u < acc:
                index = i
                break
        return self._settle(op, index)

    def _couple(self, op: _Op) -> list[float]:
        """A measurement up to its draw: the strict refusal, supersession of
        the records it destroys and the coupling, after a replay if it
        destroys any. Returns the pointer's level probabilities."""
        if op.event.disturbed and self.strict:
            raise RecordDestroyedError(
                f"record of event {op.event.learned_from} was destroyed "
                f"(strict mode forbids reading it)")
        self._ops.append(op)
        for event_id in op.hits:
            ev = self.events[event_id]
            if ev.superseded_by is None:
                ev.superseded_by = op.event.event_id
        self._path += (None,)
        # dropped projections change the conditioning chain: re-derive
        replayed = self._replay() if op.hits else None

        def coupled() -> tuple:
            state = replayed if op.hits else self._apply_op(self._state, op)
            return state, self._register_probs(state, op.event.pointer)

        self._state, probs = self._remember(self._path, coupled)
        return probs

    def _settle(self, op: _Op, index: int) -> QuantumEvent:
        """A coupled measurement's outcome ``index``, drawn or given: project
        the pointer on it and record the event. It draws nothing; an index of
        probability at or below ``ZERO_PROBABILITY`` raises
        :class:`ImpossibleOutcomeError` and leaves the world and the memo as
        they were."""
        path = self._path[:-1] + (index,)
        self._state = self._remember(path, lambda: self._project_register(
            self._state, op.event.pointer, index))
        self._path = path
        event = QuantumEvent(**vars(op.event))  # this trial's copy
        scale = event.value_scale
        event.value = scale[index] if index < len(scale) else float(index)
        event.outcome = index
        self.events.append(event)
        if event.learned_from is not None and not event.disturbed \
                and not _link(self.events[event.learned_from], event)["agree"]:
            raise SimulationError(
                "cross-perspective link violated on an intact record "
                f"(event {event.learned_from} -> {event.event_id})")
        return event


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def record_measurement(world: World, observer: SystemId, system,
                       obs: ObservableSpec, *, pointer: SystemId | None = None,
                       clock: float | None = None) -> QuantumEvent:
    """Measure ``obs`` on ``system`` relative to ``observer``.

    The interaction unitary entangles the measured subsystems with the
    observer's pointer register (the observer's own subsystem unless
    ``pointer`` names another register); the outcome is then sampled by the
    chained Born rule and recorded as an event of the observer.
    Relative to third parties the interaction remains the pure entangling
    unitary; their relative states show no collapse.
    """
    targets = (system,) if isinstance(system, str) else tuple(system)
    return world._measure(
        world._plan().measurement(observer, targets, obs, pointer, clock))


def relative_state(world: World, observer: SystemId,
                   targets: Sequence[SystemId]) -> DensityMatrix:
    """The state of ``targets`` relative to ``observer``.

    Re-derived by replaying the interaction history and conditioning on
    the events in the observer's ledger (participated in or learned of)
    whose record no later measurement destroyed: the history no longer
    holds those. A fresh observer with an empty ledger gets the
    unconditioned reduced state.
    """
    targets = tuple(targets)
    if not targets:
        raise SpaceMismatchError("targets must be nonempty")
    world.space.axes(targets)
    if observer in targets:
        raise SpaceMismatchError(
            f"targets of a relative state exclude the observer {observer!r}")
    state = world._replay(world.ledger(observer))
    norm = float(np.linalg.norm(state))
    if norm <= math.sqrt(ZERO_PROBABILITY):
        raise ImpossibleOutcomeError(
            f"ledger of {observer!r} conditions the history onto a null branch")
    return partial_trace(StateVector(world.space, state / norm), targets)


def learn(world: World, learner: SystemId, source_event, *,
          pointer: SystemId | None = None) -> QuantumEvent:
    """Read another observer's record by measuring their pointer register.

    On an intact record the returned value provably equals the source
    event's value (checked). If the record was destroyed or disturbed by an
    intervening interaction, the value is sampled from the disturbed state
    and the event is flagged ``disturbed``; in a strict world
    (``World(strict=True)``) the call instead raises
    :class:`RecordDestroyedError`.
    """
    src = source_event if isinstance(source_event, QuantumEvent) \
        else world.event(int(source_event))
    if src is not world.event(src.event_id):
        raise MissingEventError("source event does not belong to this world")
    return world._measure(world._plan().read(learner, src.event_id, pointer))


def check_cross_perspective_link(world: World, event_a, event_b) -> AgreementReport:
    """Compare a source record with the event that learned it; ``disturbed``
    is the read's own flag, fixed when :func:`learn` ran."""
    a = event_a if isinstance(event_a, QuantumEvent) else world.event(int(event_a))
    b = event_b if isinstance(event_b, QuantumEvent) else world.event(int(event_b))
    if b.learned_from != a.event_id:
        raise UnrelatedEventsError(
            f"event {b.event_id} did not learn from event {a.event_id}")
    return AgreementReport(a.event_id, b.event_id, (a.value, b.value),
                           **_link(a, b))


def check_internal_consistency(world: World, w: SystemId, s: SystemId,
                               f: SystemId, obs: ObservableSpec, *,
                               pointers: Sequence[SystemId]) -> bool:
    """Internal-consistency check: ``w`` measures ``s`` in the basis ``f``
    used, then reads ``f``'s pointer; returns whether the two outcomes match.

    ``pointers`` names the two fresh registers ``w`` uses, in order.
    """
    own, read = world._plan().consistency(w, s, f, obs, pointers)
    return _link(world._measure(own), world._measure(read))["agree"]


def relevance_prune(world: World, system: SystemId) -> list[int]:
    """Mark events on ``system`` superseded by later non-commuting events.

    Returns the ids newly marked; a second call returns an empty list.
    """
    world.dim(system)
    on_system = [ev for ev in world.events if system in ev.targets]
    newly: list[int] = []
    for i, earlier in enumerate(on_system):
        if earlier.superseded_by is not None:
            continue
        for later in on_system[i + 1:]:
            # both events target ``system``, so their targets overlap
            if _noncommuting(world.space, later.obs_spec.operator,
                             later.targets, earlier.obs_spec.operator,
                             earlier.targets):
                earlier.superseded_by = later.event_id
                newly.append(earlier.event_id)
                break
    return newly


def has_value(world: World, system: SystemId, obs: ObservableSpec,
              elapsed: float = 0.0,
              hamiltonian: np.ndarray | None = None) -> float | None:
    """Colloquial "has a value": the most recent unsuperseded event on
    ``system`` fixes the value of ``obs`` iff its observable matches ``obs``
    transported back through ``exp(-i H elapsed)``; otherwise ``None``.

    Matching compares projector sets (eigenvalue-ordered pairing, Frobenius
    distance), so eigenvector phases do not matter.
    """
    if elapsed < 0:
        raise InvalidStateError("elapsed time must be nonnegative")
    world.dim(system)
    candidates = [ev for ev in world.events
                  if system in ev.targets and ev.superseded_by is None]
    if not candidates:
        return None
    event = candidates[-1]
    query = obs
    if hamiltonian is not None and elapsed > 0:
        u = expm_hermitian(hamiltonian, elapsed)
        query = heisenberg_transform(obs, u, inverse=True)
    if observables_match(event.obs_spec, query):
        return event.value
    return None
