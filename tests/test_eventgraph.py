import itertools
import json

import numpy as np
import pytest

from rqmsim.dynamics import DecoherenceSpec, decohere
from rqmsim.errors import (
    InvalidStateError,
    MissingEventError,
    RecordDestroyedError,
    SpaceMismatchError,
    UnrelatedEventsError,
)
from rqmsim.eventgraph import (
    EVENT_FIELDS,
    World,
    check_cross_perspective_link,
    check_internal_consistency,
    event_line,
    event_record,
    has_value,
    learn,
    record_measurement,
    relative_state,
    relevance_prune,
)
from rqmsim.qcore import (
    CNOT,
    HADAMARD,
    CompositeSpace,
    ObservableSpec,
    PAULI_X,
    PAULI_Z,
    StateVector,
    computational_observable,
    qubits,
)

Z_OBS = ObservableSpec.from_matrix("pauli-z", PAULI_Z)
X_OBS = ObservableSpec.from_matrix("pauli-x", PAULI_X)


def make_state(names, first_factor):
    """State of qubits with the first subsystem in `first_factor`, rest |0>."""
    space = qubits(*names)
    amps = np.asarray(first_factor, dtype=complex)
    for _ in names[1:]:
        amps = np.kron(amps, np.array([1.0, 0.0], dtype=complex))
    return StateVector(space, amps)


def make_world(names, first_factor, seed=0, strict=False):
    """World of qubits with the first subsystem in `first_factor`, rest |0>."""
    state = make_state(names, first_factor)
    return World(state.space, state, seed, strict=strict)


def trial_seed(master, index):
    return np.random.SeedSequence(entropy=master, spawn_key=(index,))


PLUS = (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))


# ---------------------------------------------------------------------------
# record_measurement
# ---------------------------------------------------------------------------

def test_eigenstate_measurement_is_deterministic():
    w = make_world(("S", "A"), (1.0, 0.0))
    ev = record_measurement(w, "A", "S", Z_OBS)
    assert ev.value == 1.0
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.allclose(w.bookkeeping_state.amplitudes, expected)


def test_measurement_frequencies_match_born_weights():
    # |psi> = sqrt(1/3)|0> + sqrt(2/3)|1>: frequency of +1 within 0.01 at 1e5
    state = make_state(("S", "A"), (np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)))
    hits = 0
    n = 100_000
    for t in range(n):
        w = World(state.space, state, trial_seed(101, t))
        hits += int(record_measurement(w, "A", "S", Z_OBS).value == 1.0)
    assert abs(hits / n - 1.0 / 3.0) < 0.01


def test_unbiased_state_gives_unbiased_records():
    state = make_state(("S", "A"), PLUS)
    hits = 0
    n = 20_000
    for t in range(n):
        w = World(state.space, state, trial_seed(55, t))
        hits += int(record_measurement(w, "A", "S", Z_OBS).value == 1.0)
    sigma = 3.0 * np.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= sigma


def test_measurement_preconditions():
    w = make_world(("S", "A"), (1.0, 0.0))
    with pytest.raises(InvalidStateError):
        record_measurement(w, "S", "S", Z_OBS)  # observer measures itself
    with pytest.raises(SpaceMismatchError):
        record_measurement(w, "A", "Q", Z_OBS)  # unknown system
    with pytest.raises(SpaceMismatchError):
        record_measurement(w, "Q", "S", Z_OBS)  # unknown register
    record_measurement(w, "A", "S", Z_OBS)
    with pytest.raises(InvalidStateError):
        record_measurement(w, "A", "S", Z_OBS)  # register reuse


def test_pointer_capacity_is_enforced():
    w = make_world(("S", "A"), (1.0, 0.0))
    big = ObservableSpec.from_matrix("span4", np.diag([3.0, 2.0, 1.0, 0.0]))
    with pytest.raises(SpaceMismatchError):
        record_measurement(w, "A", "S", big)  # wrong target dimension
    space = qubits("P")
    four = ObservableSpec.from_matrix("sfour", np.diag([3.0, 2.0, 1.0, 0.0]))
    from rqmsim.qcore import CompositeSpace
    sp = CompositeSpace([("S4", 4), ("P", 2)])
    amps = np.zeros(8)
    amps[0] = 1.0
    w4 = World(sp, StateVector(sp, amps), 0)
    with pytest.raises(InvalidStateError):
        record_measurement(w4, "P", "S4", four)  # 4 outcomes, qubit pointer


def test_a_repeated_target_id_is_refused_before_any_op():
    sp = CompositeSpace([("S", 2), ("A", 4), ("B", 2)])
    amps = np.zeros(16)
    amps[0] = 1.0
    w = World(sp, StateVector(sp, amps), 0)
    with pytest.raises(SpaceMismatchError, match="repeat an id"):
        record_measurement(w, "A", ["S", "S"], computational_observable(4))
    with pytest.raises(SpaceMismatchError, match="repeat an id"):
        w.apply_unitary(CNOT, ["S", "S"])
    with pytest.raises(SpaceMismatchError, match="repeat an id"):
        relative_state(w, "B", ("S", "S"))
    # so is one in a 9-qubit world, when it is planned
    big = make_world(tuple(f"q{i}" for i in range(9)), PLUS)
    with pytest.raises(SpaceMismatchError, match="repeat an id"):
        big.apply_unitary(CNOT, ["q0", "q0"])
    assert w._ops == [] and big._ops == [] and w.events == []


def _ket(*factors):
    amps = np.ones(1, dtype=complex)
    for factor in factors:
        amps = np.kron(amps, np.asarray(factor, dtype=complex))
    return amps


KET0, KET1 = (1.0, 0.0), (0.0, 1.0)

# a register a rule claims must start in its ground state in every branch:
# the systems, their initial amplitudes, the calls before the refused one,
# the refused call and the register it claims
EXCITED_REGISTERS = {
    "measure-into-an-excited-pointer": (
        ("S", "A"), _ket(KET0, KET1), lambda w: None,
        lambda w: record_measurement(w, "A", "S", Z_OBS), "A"),
    "learn-into-an-excited-register": (
        ("S", "A", "B"), _ket(KET0, KET0, KET1),
        lambda w: record_measurement(w, "A", "S", Z_OBS),
        lambda w: learn(w, "B", 0), "B"),
    "consistency-into-an-excited-second-pointer": (
        ("S", "F", "W1", "W2"), _ket(PLUS, KET0, KET0, KET1),
        lambda w: record_measurement(w, "F", "S", Z_OBS),
        lambda w: check_internal_consistency(w, "W", "S", "F", Z_OBS,
                                             pointers=("W1", "W2")), "W2"),
    "decohere-into-an-excited-environment": (
        ("S", "E"), _ket(PLUS, KET1), lambda w: None,
        lambda w: decohere(w, DecoherenceSpec("S", ("E",), Z_OBS, 0.5)), "E"),
    # A is excited only in the branch where S is
    "measure-into-a-pointer-entangled-with-its-system": (
        ("S", "A"), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
        lambda w: None, lambda w: record_measurement(w, "A", "S", Z_OBS), "A"),
}


@pytest.mark.parametrize("name", sorted(EXCITED_REGISTERS))
def test_the_python_api_refuses_a_register_off_its_ground_state(name):
    names, amps, before, refused, register = EXCITED_REGISTERS[name]
    space = qubits(*names)
    w = World(space, StateVector(space, amps), 0)
    before(w)
    ops, events, state = list(w._ops), list(w.events), w._state
    with pytest.raises(InvalidStateError) as caught:
        refused(w)
    assert str(caught.value) == \
        f"register {register!r} must start in its ground state"
    # refused as it was planned, before any of its ops ran
    assert w._ops == ops and w.events == events and w._state is state


# ---------------------------------------------------------------------------
# learn and cross-perspective links
# ---------------------------------------------------------------------------

def test_learning_an_intact_record_reproduces_it():
    w = make_world(("S", "A", "B"), (0.0, 1.0))
    src = record_measurement(w, "A", "S", Z_OBS)
    assert src.value == -1.0
    got = learn(w, "B", src)
    assert got.value == -1.0
    assert not got.disturbed
    report = check_cross_perspective_link(w, src, got)
    assert report.agree and not report.disturbed


def test_conjugate_meddling_randomizes_the_record():
    state = make_state(("S", "A", "M", "B"), PLUS)
    agree = 0
    n = 20_000
    for t in range(n):
        w = World(state.space, state, trial_seed(77, t))
        src = record_measurement(w, "A", "S", Z_OBS)
        record_measurement(w, "med", "A", X_OBS, pointer="M")
        got = learn(w, "B", src)
        assert got.disturbed
        agree += int(got.value == src.value)
    sigma = 3.0 * np.sqrt(0.25 / n)
    assert abs(agree / n - 0.5) <= max(sigma, 0.01)


def test_learn_from_destroyed_record_errors_in_strict_mode():
    w = make_world(("S", "A", "M", "B"), PLUS, seed=3, strict=True)
    src = record_measurement(w, "A", "S", Z_OBS)
    record_measurement(w, "med", "A", X_OBS, pointer="M")
    with pytest.raises(RecordDestroyedError):
        learn(w, "B", src)


def test_learn_rejects_own_record():
    w = make_world(("S", "A"), PLUS, seed=4)
    src = record_measurement(w, "A", "S", Z_OBS)
    with pytest.raises(InvalidStateError):
        learn(w, "A", src)


def test_commuting_meddling_is_harmless():
    # a second read of the pointer in its own basis disturbs nothing
    for t in range(32):
        w = make_world(("S", "A", "M", "B"), PLUS, seed=trial_seed(13, t))
        src = record_measurement(w, "A", "S", Z_OBS)
        comp = computational_observable(2)
        record_measurement(w, "med", "A", comp, pointer="M")
        got = learn(w, "B", src)
        report = check_cross_perspective_link(w, src, got)
        assert report.agree and not report.disturbed
        assert got.value == src.value


@pytest.mark.parametrize("gate,disturbs", [(HADAMARD, True), (PAULI_Z, False)],
                         ids=["hadamard", "pauli-z"])
def test_only_a_noncommuting_unitary_disturbs_the_next_read(gate, disturbs):
    w = make_world(("S", "A", "B"), PLUS, seed=6)
    src = record_measurement(w, "A", "S", Z_OBS)
    w.apply_unitary(gate, ("A",))
    got = learn(w, "B", src)
    assert got.disturbed is disturbs
    assert check_cross_perspective_link(w, src, got).disturbed is disturbs


@pytest.mark.parametrize(
    "order", itertools.permutations(("disturb", "destroy", "read")),
    ids="-".join)
def test_a_read_is_disturbed_iff_its_record_was_hit_before_it(order):
    # a later destruction or disturbance does not reach back to the read
    w = make_world(("S", "A", "M", "B"), PLUS, seed=7)
    src = record_measurement(w, "A", "S", Z_OBS)
    for op in order:
        if op == "disturb":
            w.apply_unitary(HADAMARD, ("A",))
        elif op == "destroy":
            record_measurement(w, "med", "A", X_OBS, pointer="M")
        else:
            got = learn(w, "B", src)
    assert any(src.event_id in op.hits for op in w._ops)
    expected = order[0] != "read"
    assert got.disturbed is expected
    report = check_cross_perspective_link(w, src, got)
    assert report.disturbed is expected
    assert report.agree or expected


def test_cpl_check_rejects_unrelated_events():
    w = make_world(("S", "A", "B"), PLUS, seed=5)
    first = record_measurement(w, "A", "S", Z_OBS)
    second = record_measurement(w, "B", "S", Z_OBS)
    with pytest.raises(UnrelatedEventsError):
        check_cross_perspective_link(w, first, second)


def test_learning_chain_is_transitive():
    for t in range(2000):
        w = make_world(("S", "A", "B", "C"), PLUS, seed=trial_seed(21, t))
        first = record_measurement(w, "A", "S", Z_OBS)
        second = learn(w, "B", first)
        third = learn(w, "C", second)
        assert first.value == second.value == third.value


def test_links_hold_for_random_states_and_random_bases():
    rng = np.random.default_rng(400)
    for t in range(10_000):
        draw = rng.normal(size=2) + 1j * rng.normal(size=2)
        herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        obs = ObservableSpec.from_matrix(f"rand{t}", herm + herm.conj().T)
        w = make_world(("S", "A", "B"), draw / np.linalg.norm(draw),
                       seed=trial_seed(401, t))
        src = record_measurement(w, "A", "S", obs)
        got = learn(w, "B", src)  # raises internally on any mismatch
        assert got.value == src.value


# ---------------------------------------------------------------------------
# internally consistent descriptions
# ---------------------------------------------------------------------------

def test_internal_consistency_on_a_known_state():
    w = make_world(("S", "F", "W1", "W2"), PLUS, seed=6)
    record_measurement(w, "F", "S", Z_OBS)
    assert check_internal_consistency(w, "W", "S", "F", Z_OBS,
                                      pointers=("W1", "W2"))


def test_internal_consistency_over_random_states():
    rng = np.random.default_rng(90)
    for t in range(10_000):
        draw = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = make_world(("S", "F", "W1", "W2"), draw / np.linalg.norm(draw),
                       seed=trial_seed(91, t))
        record_measurement(w, "F", "S", Z_OBS)
        assert check_internal_consistency(w, "W", "S", "F", Z_OBS,
                                          pointers=("W1", "W2"))


def test_internal_consistency_on_a_record_made_by_a_learn():
    # B's record of A's pointer carries the pauli-z values of A's record,
    # not those of the observable V measures A in: outcomes agree, values
    # never do
    for seed in range(20):
        w = make_world(("S", "A", "B", "E", "Q"), PLUS, seed=seed)
        learn(w, "B", record_measurement(w, "A", "S", Z_OBS))
        assert check_internal_consistency(w, "V", "A", "B",
                                          computational_observable(2),
                                          pointers=("E", "Q"))


def test_internal_consistency_needs_a_prior_measurement():
    w = make_world(("S", "F", "W1", "W2"), PLUS, seed=7)
    with pytest.raises(MissingEventError):
        check_internal_consistency(w, "W", "S", "F", Z_OBS,
                                   pointers=("W1", "W2"))


# ---------------------------------------------------------------------------
# relative states
# ---------------------------------------------------------------------------

def bell_world(seed=8):
    space = qubits("S1", "S2", "A", "B")
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2.0)   # |00>
    amps[0b1100] = 1.0 / np.sqrt(2.0)  # |11>
    return World(space, StateVector(space, amps), seed)


def test_relative_state_collapses_for_the_measuring_observer():
    w = bell_world()
    ev = record_measurement(w, "A", "S1", Z_OBS)
    rho = relative_state(w, "A", ("S2",))
    expected = np.diag([1.0, 0.0]) if ev.value == 1.0 else np.diag([0.0, 1.0])
    assert np.max(np.abs(rho.matrix - expected)) < 1e-10


def test_relative_state_stays_entangled_for_a_fresh_observer():
    w = bell_world()
    record_measurement(w, "A", "S1", Z_OBS)
    rho = relative_state(w, "B", ("S1", "S2", "A"))
    assert abs(rho.purity() - 1.0) < 1e-10          # pure projector
    reduced = relative_state(w, "B", ("S2",))
    assert np.max(np.abs(reduced.matrix - np.eye(2) / 2.0)) < 1e-10


def test_outsider_sees_the_friend_system_bell_projector():
    # friend records |+> in the z basis; for a fresh outsider the pair is
    # exactly the (|00> + |11>)/sqrt(2) projector
    w = make_world(("S", "F"), PLUS, seed=29)
    ev = record_measurement(w, "F", "S", Z_OBS)
    assert ev.value in (1.0, -1.0)
    rho = relative_state(w, "out", ("S", "F"))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(rho.matrix - np.outer(bell, bell.conj()))) < 1e-10


def test_relative_state_collapses_after_learning():
    # chained-projection oracle: after B learns A's outcome, B's state of S2
    # is the projector matching that outcome
    w = bell_world()
    ev = record_measurement(w, "A", "S1", Z_OBS)
    got = learn(w, "B", ev)
    rho = relative_state(w, "B", ("S2",))
    expected = np.diag([1.0, 0.0]) if got.value == 1.0 else np.diag([0.0, 1.0])
    assert np.max(np.abs(rho.matrix - expected)) < 1e-10


def test_relative_state_skips_a_record_a_measurement_destroyed():
    # A records S, a meddler measures A in X, and A records S again into A2:
    # A's state of S follows the intact record alone. Conditioning on the
    # destroyed one as well once gave a null branch in half the seeds
    for seed in range(200):
        w = make_world(("S", "A", "M", "A2"), PLUS, seed=seed)
        record_measurement(w, "A", "S", Z_OBS)
        record_measurement(w, "M", "A", X_OBS)
        again = record_measurement(w, "A", "S", Z_OBS, pointer="A2")
        rho = relative_state(w, "A", ("S",))
        expected = np.diag([1.0, 0.0]) if again.value == 1.0 \
            else np.diag([0.0, 1.0])
        assert np.max(np.abs(rho.matrix - expected)) < 1e-10


def test_relative_state_validates_targets():
    w = bell_world()
    with pytest.raises(SpaceMismatchError):
        relative_state(w, "A", ())
    with pytest.raises(SpaceMismatchError):
        relative_state(w, "A", ("A",))
    with pytest.raises(SpaceMismatchError):
        relative_state(w, "A", ("nope",))


# ---------------------------------------------------------------------------
# relevance pruning and colloquial values
# ---------------------------------------------------------------------------

def test_prune_marks_conjugate_followup():
    w = make_world(("S", "A", "B"), PLUS, seed=9)
    first = record_measurement(w, "A", "S", Z_OBS)
    second = record_measurement(w, "B", "S", X_OBS)
    newly = relevance_prune(w, "S")
    assert newly == [first.event_id]
    assert first.superseded_by == second.event_id
    assert relevance_prune(w, "S") == []  # idempotent


def test_prune_ignores_commuting_and_disjoint_events():
    w = make_world(("S", "T", "A", "B"), PLUS, seed=10)
    record_measurement(w, "A", "S", Z_OBS)
    record_measurement(w, "B", "S", Z_OBS)
    assert relevance_prune(w, "S") == []
    w2 = make_world(("S", "T", "A", "B"), PLUS, seed=11)
    record_measurement(w2, "A", "S", Z_OBS)
    record_measurement(w2, "B", "T", X_OBS)
    assert relevance_prune(w2, "S") == []
    assert relevance_prune(w2, "T") == []


def test_has_value_for_the_recorded_observable():
    w = make_world(("S", "A"), PLUS, seed=12)
    assert has_value(w, "S", Z_OBS) is None  # nothing recorded yet
    ev = record_measurement(w, "A", "S", Z_OBS)
    assert has_value(w, "S", Z_OBS) == ev.value
    assert has_value(w, "S", X_OBS) is None


def test_has_value_transports_through_the_hamiltonian():
    # oracle: H = (pi/4) X, t = 2 gives U = -iX exactly, so the rotated
    # observable U Z U^dagger = -Z carries the record while plain Z does not
    w = make_world(("S", "A"), PLUS, seed=13)
    ev = record_measurement(w, "A", "S", Z_OBS)
    hamiltonian = (np.pi / 4.0) * PAULI_X
    theta = np.pi  # accumulated angle at t = 2 for the closed form
    u_oracle = (np.cos(theta / 2.0) * np.eye(2)
                - 1j * np.sin(theta / 2.0) * PAULI_X)
    rotated = ObservableSpec.from_matrix(
        "rotated", u_oracle @ PAULI_Z @ u_oracle.conj().T)
    assert np.max(np.abs(rotated.operator + PAULI_Z)) < 1e-12  # equals -Z
    assert has_value(w, "S", Z_OBS, elapsed=2.0,
                     hamiltonian=hamiltonian) is None
    assert has_value(w, "S", rotated, elapsed=2.0,
                     hamiltonian=hamiltonian) == ev.value


def test_has_value_transport_direction_is_forward():
    # non-degenerate Hamiltonian (U^2 not proportional to identity): only the
    # forward-rotated observable U Z U† is definite at the later time, since
    # the recorded eigenstate has evolved to U|z>
    from rqmsim.qcore import expm_hermitian

    w = make_world(("S", "A"), (1.0, 0.0), seed=30)
    ev = record_measurement(w, "A", "S", Z_OBS)
    hamiltonian = (np.pi / 8.0) * PAULI_X
    u = expm_hermitian(hamiltonian, 1.0)
    forward = ObservableSpec.from_matrix("fwd", u @ PAULI_Z @ u.conj().T)
    backward = ObservableSpec.from_matrix("bwd", u.conj().T @ PAULI_Z @ u)
    assert has_value(w, "S", forward, elapsed=1.0,
                     hamiltonian=hamiltonian) == ev.value
    assert has_value(w, "S", backward, elapsed=1.0,
                     hamiltonian=hamiltonian) is None
    assert has_value(w, "S", Z_OBS, elapsed=1.0,
                     hamiltonian=hamiltonian) is None


def test_has_value_skips_superseded_records():
    w = make_world(("S", "A", "B"), PLUS, seed=14)
    record_measurement(w, "A", "S", Z_OBS)
    second = record_measurement(w, "B", "S", X_OBS)
    relevance_prune(w, "S")
    assert has_value(w, "S", Z_OBS) is None
    assert has_value(w, "S", X_OBS) == second.value


def test_has_value_rejects_negative_elapsed():
    w = make_world(("S", "A"), PLUS, seed=15)
    with pytest.raises(InvalidStateError):
        has_value(w, "S", Z_OBS, elapsed=-1.0)


# ---------------------------------------------------------------------------
# one cache per space layout
# ---------------------------------------------------------------------------

def test_worlds_on_equal_spaces_share_one_cache_entry():
    # a layout of its own, so that the first world builds the entry
    first = make_world(("S", "A", "shared"), PLUS, seed=1)
    second = make_world(("S", "A", "shared"), PLUS, seed=2)
    assert first.space is not second.space
    first.apply_unitary(HADAMARD, ("S",))
    assert second._cache is first._cache
    entries = len(first._cache)
    second.apply_unitary(HADAMARD, ("S",))
    assert len(second._cache) == entries


def test_a_cached_name_with_another_matrix_is_rebuilt():
    # two operators on one layout never share an entry
    first = make_world(("S", "A", "renamed"), (1.0, 0.0), seed=3)
    first.apply_unitary(PAULI_X, ("S",))
    second = make_world(("S", "A", "renamed"), (1.0, 0.0), seed=4)
    second.apply_unitary(PAULI_Z, ("S",))
    # Z leaves |0> alone; the cached X would have flipped it
    assert second.bookkeeping_state.amplitudes[0] == 1.0
    assert first.bookkeeping_state.amplitudes[4] == 1.0


def test_observables_sharing_a_name_get_their_own_couplings():
    z_named = ObservableSpec.from_matrix("shared", PAULI_Z)
    x_named = ObservableSpec.from_matrix("shared", PAULI_X)
    x_values = set()
    for seed in range(40):
        # a layout of its own; S starts in |0>
        world = make_world(("S", "A", "B", "same-name"), (1.0, 0.0), seed)
        assert record_measurement(world, "A", "S", z_named).value == 1.0
        x_values.add(record_measurement(world, "B", "S", x_named).value)
    assert x_values == {1.0, -1.0}


def test_register_probabilities_sum_the_squared_amplitudes():
    rng = np.random.default_rng(18)
    for _ in range(40):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=rng.integers(1, 6)))
        space = CompositeSpace((f"q{i}", d) for i, d in enumerate(dims))
        amps = rng.normal(size=space.total_dim) \
            + 1j * rng.normal(size=space.total_dim)
        world = World(space, StateVector(space, amps / np.linalg.norm(amps)), 0)
        weights = (np.abs(world._state) ** 2).reshape(dims)
        for axis, register in enumerate(space.ids):
            others = tuple(a for a in range(len(dims)) if a != axis)
            ref = weights.sum(axis=others)
            got = world._register_probs(world._state, register)
            assert len(got) == dims[axis]
            assert np.max(np.abs(np.array(got) - ref)) <= 1e-15


# ---------------------------------------------------------------------------
# determinism, ledgers, serialization
# ---------------------------------------------------------------------------

def run_fixed_sequence(seed):
    w = make_world(("S", "A", "B"), PLUS, seed=seed)
    first = record_measurement(w, "A", "S", Z_OBS, clock=1.0)
    learn(w, "B", first)
    return [event_line(ev) for ev in w.events]


def test_replay_determinism_is_byte_identical():
    lines_a = run_fixed_sequence(np.random.SeedSequence(314))
    lines_b = run_fixed_sequence(np.random.SeedSequence(314))
    assert lines_a == lines_b
    lines_c = run_fixed_sequence(np.random.SeedSequence(315))
    assert len(lines_c) == len(lines_a)


def test_event_serialization_contract():
    w = make_world(("S", "A"), PLUS, seed=16)
    ev = record_measurement(w, "A", "S", Z_OBS, clock=2.5)
    record = event_record(ev)
    assert tuple(record.keys()) == EVENT_FIELDS
    parsed = json.loads(event_line(ev))
    assert parsed["observer"] == "A"
    assert parsed["system"] == "S"
    assert parsed["clock"] == 2.5
    assert parsed["superseded_by"] is None


def test_ledger_orders_learned_entries_by_event_id():
    w = make_world(("S", "A", "B", "C"), PLUS, seed=17)
    first = record_measurement(w, "A", "S", Z_OBS)
    record_measurement(w, "C", "S", Z_OBS, pointer="C")
    learn(w, "B", first)
    ids = w.ledger("B")
    assert list(ids) == sorted(ids)
    assert first.event_id in ids


def test_unknown_event_lookup():
    w = make_world(("S", "A"), PLUS, seed=18)
    with pytest.raises(MissingEventError):
        w.event(5)


# ---------------------------------------------------------------------------
# refusals of the public API
# ---------------------------------------------------------------------------

def _consistency_with_one_pointer():
    w = make_world(("S", "A", "W1"), PLUS)
    record_measurement(w, "A", "S", Z_OBS)
    check_internal_consistency(w, "W", "S", "A", Z_OBS, pointers=["W1"])


def _learn_from_another_world():
    ours, theirs = (make_world(("S", "A", "B"), PLUS) for _ in range(2))
    record_measurement(ours, "A", "S", Z_OBS)
    # event 0 of both worlds: the same id, not the same event
    learn(ours, "B", record_measurement(theirs, "A", "S", Z_OBS))


# each call that the public API refuses: the exception class and a fragment
# of its message
REFUSALS = {
    "initial-state-on-another-space": (
        lambda: World(qubits("S", "A"), StateVector(qubits("S"), PLUS), 0),
        SpaceMismatchError, "not on the declared space"),
    "measurement-without-targets": (
        lambda: record_measurement(make_world(("S", "A"), PLUS), "A", [],
                                   Z_OBS),
        SpaceMismatchError, "at least one target"),
    "consistency-with-one-pointer": (_consistency_with_one_pointer,
                                     InvalidStateError, "two registers"),
    "learn-from-another-world": (_learn_from_another_world, MissingEventError,
                                 "does not belong to this world"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_the_public_api_refuses_with_its_class_and_message(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error) as caught:
        call()
    assert fragment in str(caught.value)
