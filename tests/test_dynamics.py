import json
import math

import numpy as np
import pytest

from rqmsim.cli import main
from rqmsim.dynamics import (
    DecoherenceSpec,
    IdealClock,
    TwoStateVector,
    abl_probability,
    aggregate_perspective,
    decohere,
    disturbance_profile,
    disturbance_world_template,
    history_state,
    measurement_unitary,
    pw_conditional_state,
    pw_probability,
    stable_fact_deficit,
    stable_fact_grid,
)
from rqmsim.errors import (
    ImpossibleOutcomeError,
    InvalidStateError,
    MissingEventError,
    RecordDestroyedError,
    ScenarioError,
    SpaceMismatchError,
)
from rqmsim.eventgraph import World, learn, record_measurement
from rqmsim.qcore import (
    CNOT,
    CompositeSpace,
    HADAMARD,
    ObservableSpec,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    born_probabilities,
    commutes,
    computational_observable,
    identity,
    partial_trace,
    qubits,
)
from rqmsim.scenarios import (
    Scenario,
    Step,
    compile_scenario,
    matrix_payload,
    run_trials,
)
from test_scenarios import exact_abl, exact_leaves

Z_OBS = ObservableSpec.from_matrix("pauli-z", PAULI_Z)
X_OBS = ObservableSpec.from_matrix("pauli-x", PAULI_X)

KET0 = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def qubit_state(amps, name="S"):
    return StateVector(CompositeSpace([(name, 2)]),
                       np.asarray(amps, dtype=complex))


def world_with(names, first_factor, seed=0):
    space = qubits(*names)
    amps = np.asarray(first_factor, dtype=complex)
    for _ in names[1:]:
        amps = np.kron(amps, KET0)
    return World(space, StateVector(space, amps), seed)


# ---------------------------------------------------------------------------
# measurement unitaries
# ---------------------------------------------------------------------------

def test_z_measurement_coupling_is_cnot():
    assert np.allclose(measurement_unitary(Z_OBS, 2), CNOT)


def test_x_measurement_coupling_is_basis_changed_cnot():
    expected = np.kron(HADAMARD, identity(2)) @ CNOT \
        @ np.kron(HADAMARD, identity(2))
    assert np.max(np.abs(measurement_unitary(X_OBS, 2) - expected)) < 1e-12


def test_measurement_coupling_copies_amplitudes():
    alpha, beta = 0.6, 0.8
    joint = np.kron(np.array([alpha, beta]), KET0)
    out = measurement_unitary(Z_OBS, 2) @ joint
    expected = np.array([alpha, 0.0, 0.0, beta])
    assert np.allclose(out, expected)


def test_measurement_coupling_commutes_with_the_observable():
    u = measurement_unitary(X_OBS, 2)
    lifted = np.kron(PAULI_X, identity(2))
    assert commutes(u, lifted)
    # equivalent statement: U (X ⊗ I) U† = X ⊗ I
    assert np.max(np.abs(u @ lifted @ u.conj().T - lifted)) < 1e-12


def test_measurement_coupling_needs_pointer_capacity():
    three = ObservableSpec.from_matrix("trit", np.diag([2.0, 1.0, 0.0]))
    with pytest.raises(InvalidStateError):
        measurement_unitary(three, 2)


# ---------------------------------------------------------------------------
# decoherence
# ---------------------------------------------------------------------------

def test_full_decoherence_kills_off_diagonals():
    w = world_with(("S", "E1", "E2", "E3"), PLUS)
    decohere(w, DecoherenceSpec("S", ("E1", "E2", "E3"), Z_OBS, 0.0))
    rho = partial_trace(w.bookkeeping_state, ("S",)).matrix
    assert abs(rho[0, 1]) < 1e-10
    # branch structure: all four qubits perfectly correlated
    amps = w.bookkeeping_state.amplitudes
    assert abs(abs(amps[0]) - 1 / math.sqrt(2)) < 1e-10
    assert abs(abs(amps[-1]) - 1 / math.sqrt(2)) < 1e-10
    assert np.sum(np.abs(amps) > 1e-12) == 2


def test_overlap_one_is_a_noop():
    w = world_with(("S", "E1"), PLUS)
    before = w.bookkeeping_state.amplitudes.copy()
    decohere(w, DecoherenceSpec("S", ("E1",), Z_OBS, 1.0))
    assert np.max(np.abs(w.bookkeeping_state.amplitudes - before)) < 1e-12


def test_partial_overlap_scales_the_off_diagonal():
    # 2x2 partial-trace oracle: rho_01 = alpha * conj(beta) * overlap
    alpha, beta = 0.6, 0.8
    for overlap in (0.25, 0.5, 0.9):
        w = world_with(("S", "E1"), (alpha, beta))
        decohere(w, DecoherenceSpec("S", ("E1",), Z_OBS, overlap))
        rho = partial_trace(w.bookkeeping_state, ("S",)).matrix
        assert abs(rho[0, 1] - alpha * beta * overlap) < 1e-12


def test_environment_must_be_fresh():
    w = world_with(("S", "E1"), PLUS)
    decohere(w, DecoherenceSpec("S", ("E1",), Z_OBS, 0.0))
    with pytest.raises(InvalidStateError):
        decohere(w, DecoherenceSpec("S", ("E1",), Z_OBS, 0.0))


def test_environment_listed_twice_is_rejected_before_coupling():
    w = world_with(("S", "E"), PLUS)
    before = w.bookkeeping_state.amplitudes.copy()
    with pytest.raises(InvalidStateError, match="not fresh"):
        decohere(w, DecoherenceSpec("S", ("E", "E"), Z_OBS, 0.5))
    assert np.array_equal(w.bookkeeping_state.amplitudes, before)
    # nothing was claimed either: the qubit still couples once
    decohere(w, DecoherenceSpec("S", ("E",), Z_OBS, 0.5))


def test_decohered_environment_cannot_hold_a_record():
    w = world_with(("S", "E", "A"), PLUS)
    decohere(w, DecoherenceSpec("S", ("E",), Z_OBS, 0.0))
    with pytest.raises(InvalidStateError, match="not fresh"):
        record_measurement(w, "A", "S", Z_OBS, pointer="E")
    assert w.events == []


def test_a_system_cannot_be_its_own_environment():
    w = world_with(("S", "E"), PLUS)
    with pytest.raises(SpaceMismatchError, match="repeat an id"):
        decohere(w, DecoherenceSpec("S", ("S",), Z_OBS, 0.0))
    assert w._ops == []


def test_overlap_outside_unit_interval_rejected():
    with pytest.raises(InvalidStateError):
        DecoherenceSpec("S", ("E1",), Z_OBS, 1.5)


def _decohere_document(systems, environment, basis, overlap):
    """A document in which A records S in the Z basis, then A decoheres."""
    return {"format_version": 1, "name": "decohere", "systems": systems,
            "initial_state": {"kind": "product", "factors": {"S": "plus"}},
            "steps": [{"kind": "measure", "label": "record", "observer": "A",
                       "system": ["S"], "observable": "pauli-z"},
                      {"kind": "decohere", "label": "env", "system": "A",
                       "environment": environment, "basis": basis,
                       "overlap": overlap}]}


@pytest.mark.parametrize("environment", [["E1"], ["E1", "E2", "E3"]])
@pytest.mark.parametrize("overlap", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("basis", ["pauli-z", "pauli-x"])
def test_decohere_and_a_decohere_step_plan_the_same_ops(basis, overlap,
                                                        environment):
    names = ("S", "A", "E1", "E2", "E3")
    world = world_with(names, PLUS)
    record_measurement(world, "A", "S", Z_OBS)
    decohere(world, DecoherenceSpec(
        "A", environment, {"pauli-z": Z_OBS, "pauli-x": X_OBS}[basis], overlap))
    compiled = compile_scenario(Scenario.from_dict(_decohere_document(
        [[name, 2] for name in names], environment, basis, overlap)))
    api, doc = world._ops[1:], compiled.plan.ops[1:]
    assert len(api) == len(doc) == len(environment)
    for a, b in zip(api, doc):
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert (a.targets, a.hits) == (b.targets, b.hits)
        assert [p.tobytes() for p in a.records.projectors] \
            == [p.tobytes() for p in b.records.projectors]
    # an X-basis coupling of the pointer disturbs its Z record
    assert doc[0].hits == ((0,) if basis == "pauli-x" and overlap < 1 else ())


# the systems' dimensions, the environment and the basis of a refused
# decoherence of A; only a step before it can make its environment not fresh
DECOHERE_REFUSALS = {
    "one-outcome-basis": (
        2, ["E1"], {"name": "id", "matrix": matrix_payload(np.eye(2))},
        InvalidStateError),
    "qutrit-environment": (3, ["E1"], "pauli-z", SpaceMismatchError),
    "environment-not-fresh": (2, ["S"], "pauli-z", InvalidStateError),
}


@pytest.mark.parametrize("name", sorted(DECOHERE_REFUSALS))
def test_decohere_and_validate_refuse_with_one_message(name, tmp_path,
                                                       capsys):
    env_dim, environment, basis, error = DECOHERE_REFUSALS[name]
    systems = [["S", 2], ["A", 2], ["E1", env_dim]]
    space = CompositeSpace(systems)
    world = World(space, StateVector(space, np.eye(space.total_dim)[0]), 0)
    record_measurement(world, "A", "S", Z_OBS)
    obs = ObservableSpec.from_matrix("id", np.eye(2)) \
        if isinstance(basis, dict) else Z_OBS
    with pytest.raises(error) as caught:
        decohere(world, DecoherenceSpec("A", environment, obs, 0.5))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_decohere_document(systems, environment, basis,
                                                  0.5)), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: steps[1]: {caught.value}\n"


# ---------------------------------------------------------------------------
# stable facts
# ---------------------------------------------------------------------------

def test_deficit_vanishes_under_full_decoherence():
    w = world_with(("S", "E1"), PLUS)
    decohere(w, DecoherenceSpec("S", ("E1",), Z_OBS, 0.0))
    assert stable_fact_deficit(w, "bob", "S", X_OBS, Z_OBS) < 1e-10


def test_deficit_vanishes_after_a_sharp_record():
    w = world_with(("S", "A"), PLUS, seed=2)
    record_measurement(w, "A", "S", Z_OBS)
    assert stable_fact_deficit(w, "bob", "S", X_OBS, Z_OBS) < 1e-10


def test_coherent_case_has_half_a_unit_of_interference():
    # oracle: P(X=+1) = 1/2 + Re(alpha conj(beta)) * overlap, mixture = 1/2
    w = world_with(("S", "E1"), PLUS)
    decohere(w, DecoherenceSpec("S", ("E1",), Z_OBS, 1.0))
    eps = stable_fact_deficit(w, "bob", "S", X_OBS, Z_OBS)
    assert abs(eps - 0.5) < 1e-10


def test_commuting_query_sees_no_interference():
    for overlap in (0.0, 0.5, 1.0):
        w = world_with(("S", "E1"), (0.6, 0.8))
        decohere(w, DecoherenceSpec("S", ("E1",), Z_OBS, overlap))
        assert stable_fact_deficit(w, "bob", "S", Z_OBS, Z_OBS) < 1e-10


def test_deficit_requires_a_recorded_variable():
    w = world_with(("S", "E1"), PLUS)
    with pytest.raises(MissingEventError):
        stable_fact_deficit(w, "bob", "S", X_OBS, Z_OBS)


def test_deficit_grid_is_monotone():
    overlaps = np.linspace(1.0, 0.0, 10)
    rows = stable_fact_grid((1 / math.sqrt(2), 1 / math.sqrt(2)), overlaps,
                            X_OBS, Z_OBS)
    values = [eps for _, eps in rows]
    assert all(values[i + 1] <= values[i] + 1e-12
               for i in range(len(values) - 1))
    assert values[0] == pytest.approx(0.5, abs=1e-10)
    assert values[-1] < 1e-10


def _unit_pairs(rng, count):
    """``count`` random normalized qubit amplitudes ``(a, b)``."""
    amps = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def _random_qubit_observable(rng, name):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return ObservableSpec.from_matrix(name, m + m.conj().T)


def test_deficit_grid_is_the_overlap_times_the_real_coherence():
    # the decohered S keeps the coherence c·a·b̄, so X reads +1 with
    # probability 1/2 + c·Re(a·b̄) directly and 1/2 in the Z mixture
    rng = np.random.default_rng(26)
    overlaps = [0.0, 1.0, *rng.uniform(size=4)]
    for a, b in _unit_pairs(rng, 300):
        for c, deficit in stable_fact_grid((a, b), overlaps, X_OBS, Z_OBS):
            assert abs(deficit - c * abs((a * np.conj(b)).real)) <= 1e-12


def test_deficit_grid_rows_equal_a_hand_built_world():
    # each grid row, a one-trial scenario, and the same history built by
    # hand on a world of its own give the same bits, for random observables
    rng = np.random.default_rng(27)
    overlaps = [0.0, 1.0, *rng.uniform(size=4)]
    observables = [(X_OBS, Z_OBS), (Z_OBS, X_OBS)] + [
        (_random_qubit_observable(rng, "q"),
         _random_qubit_observable(rng, "v")) for _ in range(10)]
    space = qubits("S", "E")
    for q_obs, v_obs in observables:
        for amps in _unit_pairs(rng, 10):
            for c, deficit in stable_fact_grid(amps, overlaps, q_obs, v_obs):
                world = World(space, StateVector(space, np.kron(amps, KET0)),
                              seed=0)
                decohere(world, DecoherenceSpec("S", ("E",), v_obs, c))
                assert stable_fact_deficit(world, "ext", "S", q_obs, v_obs) \
                    == deficit


def test_grid_overlaps_of_any_real_type_give_the_same_rows():
    rows = stable_fact_grid(PLUS, [np.float32(0.5), 1, 0], X_OBS, Z_OBS)
    assert rows == stable_fact_grid(PLUS, [0.5, 1.0, 0.0], X_OBS, Z_OBS)
    assert all(type(c) is float for c, _ in rows)
    assert [deficit for _, deficit in rows] == pytest.approx([0.25, 0.5, 0])


# ---------------------------------------------------------------------------
# record disturbance
# ---------------------------------------------------------------------------

def test_profile_endpoints_and_monotonicity():
    template = disturbance_world_template()
    strengths = [0.0, 0.5, 1.0]
    trials = 4000
    rows = disturbance_profile(template, Z_OBS, X_OBS, strengths, trials,
                               master_seed=7)
    assert rows[0][1] == 1.0  # a probe at overlap 1: the identity, exact
    sigma = 3.0 * math.sqrt(0.25 / trials)
    assert abs(rows[-1][1] - 0.5) <= sigma
    # analytic curve (1 + cos(s*pi/2)) / 2 at the midpoint
    mid_expected = (1.0 + math.cos(0.5 * math.pi / 2.0)) / 2.0
    assert abs(rows[1][1] - mid_expected) <= 3.0 * math.sqrt(
        mid_expected * (1 - mid_expected) / trials)
    assert rows[0][1] >= rows[1][1] - sigma
    assert rows[1][1] >= rows[2][1] - sigma


def test_every_strength_runs_the_probe(monkeypatch):
    # at strength 0 the probe's overlap is cos 0 = 1: it runs as the identity
    scenarios = []

    def capture(scenario, *args, **kwargs):
        scenarios.append(scenario)
        return run_trials(scenario, *args, **kwargs)

    monkeypatch.setattr("rqmsim.scenarios.run_trials", capture)
    rows = disturbance_profile(disturbance_world_template(), Z_OBS, X_OBS,
                               [0.0, 0.5], 50, master_seed=3)
    assert [[step.label for step in scenario.steps]
            for scenario in scenarios] == [["record", "probe", "read"]] * 2
    assert scenarios[0].steps[1].args["overlap"] == 1.0
    assert rows[0][1] == 1.0


def test_profile_follows_the_closed_form_curve():
    # fidelity (1 + cos(s*pi/2)) / 2, within four binomial standard errors
    trials = 2000
    rows = disturbance_profile(disturbance_world_template(), Z_OBS, X_OBS,
                               [0.2, 0.4, 0.6, 0.8], trials, master_seed=1729)
    for s, fidelity in rows:
        expected = (1.0 + math.cos(s * math.pi / 2.0)) / 2.0
        assert abs(fidelity - expected) <= 4.0 * math.sqrt(
            expected * (1.0 - expected) / trials)


def test_exact_link_rate_of_each_strength_is_the_closed_form_curve(
        monkeypatch):
    # PAPER.md's cross-perspective link made quantitative: on the exact walk
    # of each strength's scenario, agree(record, read) has weight
    # (1 + cos(s*pi/2)) / 2
    scenarios = []

    def capture(scenario, *args, **kwargs):
        scenarios.append(scenario)
        return run_trials(scenario, *args, **kwargs)

    monkeypatch.setattr("rqmsim.scenarios.run_trials", capture)
    strengths = [k / 5 for k in range(6)]
    disturbance_profile(disturbance_world_template(), Z_OBS, X_OBS, strengths,
                        1)
    for s, scenario in zip(strengths, scenarios, strict=True):
        (agree,) = compile_scenario(scenario).accumulators
        rate = sum(w for w, world in exact_leaves(scenario)
                   if agree.reading(agree.args, world))
        assert abs(rate - (1.0 + math.cos(s * math.pi / 2.0)) / 2.0) <= 1e-12


def test_commuting_probe_never_disturbs():
    template = disturbance_world_template()
    rows = disturbance_profile(template, Z_OBS, Z_OBS, [0.0, 0.3, 0.7, 1.0],
                               500, master_seed=8)
    assert all(fidelity == 1.0 for _, fidelity in rows)


def test_profile_rejects_bad_strengths():
    template = disturbance_world_template()
    with pytest.raises(InvalidStateError):
        disturbance_profile(template, Z_OBS, X_OBS, [0.0, 1.5], 10)


def test_profile_rejects_a_trial_count_below_one():
    template = disturbance_world_template()
    with pytest.raises(InvalidStateError, match="at least 1"):
        disturbance_profile(template, Z_OBS, X_OBS, [0.0, 1.0], 0)


def test_profile_rejects_a_record_observable_that_does_not_fit_s():
    # a qutrit observable cannot measure the qubit S: found before any trial
    qutrit = ObservableSpec.from_matrix("qutrit-z", np.diag([1.0, 0.0, -1.0]))
    with pytest.raises(SpaceMismatchError) as info:
        disturbance_profile(disturbance_world_template(), qutrit, X_OBS,
                            [0.25, 1.0], 10, master_seed=9)
    assert "'qutrit-z'" in str(info.value)
    assert "dimension 3" in str(info.value)


def _qutrit_ancilla_template():
    space = CompositeSpace((("S", 2), ("A", 2), ("M", 3), ("B", 2)))
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[0] = amps[space.total_dim // 2] = 1 / math.sqrt(2.0)  # S in |+>
    return World(space, StateVector(space, amps), 0)


@pytest.mark.parametrize("template,probe,message", [
    (disturbance_world_template, ObservableSpec.from_matrix("id", np.eye(2)),
     "decoherence couplings need a two-outcome basis, 'id' has 1"),
    (_qutrit_ancilla_template, X_OBS, "environment 'M' must be a qubit"),
], ids=["one-outcome-probe", "qutrit-ancilla"])
def test_a_compile_error_names_the_strength_and_the_step(template, probe,
                                                         message):
    # strength 0 runs the probe too, at overlap 1, so the first strength is
    # refused, by its step's label rather than its index in the scenario
    with pytest.raises(ScenarioError) as info:
        disturbance_profile(template(), Z_OBS, probe, [0, 0.5], 10)
    assert str(info.value) == \
        f"disturbance profile: strength 0 (index 0): probe: {message}"


def test_profile_failure_names_strength_trial_and_seed():
    # a strict world refuses the read of a probed record: trial 0 of the
    # second strength fails, and the error keeps its class and says where
    t = disturbance_world_template()
    strict = World(t.space, StateVector(t.space, t._initial), 0, strict=True)
    with pytest.raises(RecordDestroyedError) as info:
        disturbance_profile(strict, Z_OBS, X_OBS, [0.0, 0.25], 10,
                            master_seed=9)
    message = str(info.value)
    assert "strength 0.25 (index 1)" in message
    assert "trial 0" in message
    assert "seed=9:1:0" in message


def _reference_profile(template, record_obs, probe_obs, strengths, trials,
                       master_seed):
    """The sweep as a loop of its own: one world per trial, seeded with
    spawn key (strength index, trial), each interaction planned by the
    public functions, and agreement as exact equality."""
    initial = StateVector(template.space, template._initial)
    rows = []
    for si, s in enumerate(strengths):
        memo = {}
        agreements = 0
        for t in range(trials):
            seed = np.random.SeedSequence(entropy=master_seed,
                                          spawn_key=(si, t))
            world = World(template.space, initial, seed,
                          strict=template.strict)
            world._memo = memo
            recorded = record_measurement(world, "A", "S", record_obs)
            if s > 0.0:
                decohere(world, DecoherenceSpec(
                    "A", ("M",), probe_obs, math.cos(s * math.pi / 2.0)))
            read = learn(world, "B", recorded)
            agreements += int(read.value == recorded.value)
        rows.append((float(s), agreements / trials))
    return rows


def _skewed_template():
    # S in a complex state that is not symmetric under X or Z
    space = qubits("S", "A", "M", "B")
    s = np.array([0.6, 0.48 + 0.64j])
    return World(space, StateVector(space, np.kron(s, np.eye(8)[0])), 0)


TILTED = ObservableSpec.from_matrix(
    "tilted", math.cos(0.7) * PAULI_Z
    + math.sin(0.7) * (0.6 * PAULI_X + 0.8 * PAULI_Y))


@pytest.mark.parametrize("probe", [X_OBS, Z_OBS, TILTED],
                         ids=lambda obs: obs.name)
@pytest.mark.parametrize("template", [disturbance_world_template,
                                      _skewed_template],
                         ids=["standard", "skewed"])
def test_profile_equals_a_loop_of_its_own_exactly(template, probe):
    strengths = [0, 0.2, 0.5, 0.9, 1]
    for seed in (0, 1, 2):
        assert disturbance_profile(template(), Z_OBS, probe, strengths, 300,
                                   master_seed=seed) \
            == _reference_profile(template(), Z_OBS, probe, strengths, 300,
                                  seed)


def test_a_scenario_uses_the_given_state_and_observable_objects():
    template = disturbance_world_template()
    initial = StateVector(template.space, template._initial)
    compiled = compile_scenario(Scenario(
        "objects", template.space.subsystems, initial,
        (Step("measure", "m", {"observer": "A", "system": "S",
                               "observable": TILTED}),), ()))
    assert compiled.build_initial(None).amplitudes.tobytes() \
        == initial.amplitudes.tobytes()
    assert compiled.plan.events[0].obs_spec is TILTED
    # the objects are still checked against the declared systems
    qutrit = ObservableSpec.from_matrix("qutrit-z", np.diag([1.0, 0.0, -1.0]))
    with pytest.raises(ScenarioError, match=r"^steps\[0\]\.observable: "
                                            "dimension 3 != target 2$"):
        compile_scenario(Scenario(
            "qutrit", template.space.subsystems, initial,
            (Step("measure", "m", {"observer": "A", "system": "S",
                                   "observable": qutrit}),), ()))
    with pytest.raises(ScenarioError, match="^initial_state: "):
        compile_scenario(Scenario("renamed", qubits("S", "A", "M", "C")
                                  .subsystems, initial, (), ()))


# ---------------------------------------------------------------------------
# pre/post-selected probabilities
# ---------------------------------------------------------------------------

def test_abl_plus_then_ground_pins_the_intermediate_value():
    # oracle: (1/2) / (1/2 + 0) = 1
    tsv = TwoStateVector(qubit_state(PLUS), qubit_state(KET0))
    probs = abl_probability(tsv, Z_OBS)
    assert probs[1.0] == pytest.approx(1.0, abs=1e-12)
    assert probs[-1.0] == pytest.approx(0.0, abs=1e-12)


def test_abl_consistent_eigenstate():
    tsv = TwoStateVector(qubit_state(KET0), qubit_state(KET0))
    probs = abl_probability(tsv, Z_OBS)
    assert probs[1.0] == pytest.approx(1.0, abs=1e-12)


def test_abl_distribution_normalizes():
    rng = np.random.default_rng(40)
    for _ in range(25):
        pre = rng.normal(size=2) + 1j * rng.normal(size=2)
        post = rng.normal(size=2) + 1j * rng.normal(size=2)
        tsv = TwoStateVector(qubit_state(pre / np.linalg.norm(pre)),
                             qubit_state(post / np.linalg.norm(post)))
        total = sum(abl_probability(tsv, Z_OBS).values())
        assert abs(total - 1.0) < 1e-10


def test_abl_oracle_agrees_on_the_worked_examples():
    cases = [
        TwoStateVector(qubit_state(PLUS), qubit_state(KET0)),
        TwoStateVector(qubit_state(KET0), qubit_state(KET0)),
        TwoStateVector(qubit_state(PLUS), qubit_state(PLUS)),
    ]
    for tsv in cases:
        exact, analytic = exact_abl(tsv, Z_OBS), abl_probability(tsv, Z_OBS)
        for value in analytic:
            assert abs(exact[value] - analytic[value]) <= 1e-12


def test_abl_symmetric_boundaries_are_unbiased():
    tsv = TwoStateVector(qubit_state(PLUS), qubit_state(PLUS))
    probs = abl_probability(tsv, Z_OBS)
    assert probs[1.0] == pytest.approx(0.5, abs=1e-12)


def test_abl_identity_observable_is_trivial():
    ident = ObservableSpec("one", identity(2), [1.0], [identity(2)])
    tsv = TwoStateVector(qubit_state(PLUS), qubit_state(KET0))
    probs = abl_probability(tsv, ident)
    assert probs[1.0] == pytest.approx(1.0, abs=1e-12)
    assert abs(exact_abl(tsv, ident)[1.0] - 1.0) <= 1e-12


def test_abl_time_reversal_invariance():
    rng = np.random.default_rng(70)
    for _ in range(20):
        pre = rng.normal(size=2) + 1j * rng.normal(size=2)
        post = rng.normal(size=2) + 1j * rng.normal(size=2)
        u1, _ = np.linalg.qr(rng.normal(size=(2, 2))
                             + 1j * rng.normal(size=(2, 2)))
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2))
                             + 1j * rng.normal(size=(2, 2)))
        tsv = TwoStateVector(qubit_state(pre / np.linalg.norm(pre)),
                             qubit_state(post / np.linalg.norm(post)), u1, u2)
        forward = abl_probability(tsv, Z_OBS)
        backward = abl_probability(tsv.time_reversed(), Z_OBS)
        for value in forward:
            assert abs(forward[value] - backward[value]) < 1e-10


# ---------------------------------------------------------------------------
# relational time
# ---------------------------------------------------------------------------

def test_clock_shift_advances_readings():
    clock = IdealClock(8)
    u = clock.shift_unitary()
    for t in range(8):
        shifted = u @ clock.time_state(t)
        expected = clock.time_state((t + 1) % 8)
        assert np.max(np.abs(shifted - expected)) < 1e-9


def test_clock_projectors_resolve_identity():
    clock = IdealClock(5)
    total = sum(clock.time_projector(t) for t in range(5))
    assert np.max(np.abs(total - identity(5))) < 1e-12


def test_clock_reading_projectors_transform_covariantly():
    # E(t + t') = e^{-i H t'} E(t) e^{+i H t'}
    clock = IdealClock(6)
    for ticks in (1, 2, 5):
        u = clock.shift_unitary(ticks)
        for t in range(6):
            moved = u @ clock.time_projector(t) @ u.conj().T
            expected = clock.time_projector((t + ticks) % 6)
            assert np.max(np.abs(moved - expected)) < 1e-9


def precession_setup(d=8):
    clock = IdealClock(d)
    hamiltonian = (math.pi / 4.0) * PAULI_X
    initial = qubit_state(KET0)
    constraint = history_state(clock, initial, hamiltonian)
    return clock, hamiltonian, initial, constraint


def closed_form_step(hamiltonian):
    # independent oracle: 2x2 rotation in closed form, powered by matmul
    theta = math.pi / 4.0  # |H| coefficient
    return (math.cos(theta) * identity(2)
            - 1j * math.sin(theta) * PAULI_X)


def test_conditional_states_reproduce_schroedinger_evolution():
    clock, hamiltonian, initial, constraint = precession_setup()
    u_step = closed_form_step(hamiltonian)
    expected = initial.amplitudes.copy()
    for t in range(8):
        conditional = pw_conditional_state(constraint, clock, t)
        assert np.max(np.abs(conditional.amplitudes - expected)) < 1e-9
        expected = u_step @ expected


def test_conditional_state_at_zero_is_the_initial_state():
    clock, _, initial, constraint = precession_setup()
    conditional = pw_conditional_state(constraint, clock, 0)
    assert np.max(np.abs(conditional.amplitudes - initial.amplitudes)) < 1e-12


def test_conditional_state_fails_off_support():
    clock = IdealClock(8)
    space = CompositeSpace([("C", 8), ("S", 2)])
    amps = np.zeros(16, dtype=complex)
    amps[3 * 2 + 0] = 1.0  # clock reads 3, system |0>
    frozen = StateVector(space, amps)
    with pytest.raises(ImpossibleOutcomeError):
        pw_conditional_state(frozen, clock, 5)
    with pytest.raises(SpaceMismatchError):
        pw_conditional_state(frozen, clock, 9)


def test_pw_probabilities_match_born_rule_at_every_reading():
    clock, hamiltonian, initial, constraint = precession_setup()
    u_step = closed_form_step(hamiltonian)
    psi = initial.amplitudes.copy()
    for t in range(8):
        probs = pw_probability(constraint, clock, t, Z_OBS, "S")
        direct = born_probabilities(qubit_state(psi), Z_OBS, ["S"])
        for value in direct:
            assert abs(probs[value] - direct[value]) < 1e-9
        psi = u_step @ psi


def test_clock_conditioning_is_exact_on_the_walk():
    # R reads the clock C, then Q measures S: P(S | C = t) on the exact walk
    # of the history state is pw_probability's
    clock, _, _, constraint = precession_setup()
    space = CompositeSpace([("C", 8), ("S", 2), ("R", 8), ("Q", 2)])
    amps = np.kron(constraint.amplitudes, np.eye(16)[0])  # R and Q in |0⟩
    leaves = exact_leaves(Scenario("clock", space.subsystems,
                                   StateVector(space, amps), (
        Step("measure", "clock", {"observer": "R", "system": ["C"],
                                  "observable": "computational"}),
        Step("measure", "spin", {"observer": "Q", "system": ["S"],
                                 "observable": "pauli-z"})), ()))
    assert len(leaves) == 12  # S is sharp at the four even readings
    for t in range(8):
        at_t = [(w, world.events[1].value) for w, world in leaves
                if world.events[0].value == t]
        given = sum(w for w, _ in at_t)
        for value, p in pw_probability(constraint, clock, t, Z_OBS,
                                       "S").items():
            exact = sum(w for w, v in at_t if v == value) / given
            assert abs(exact - p) <= 1e-12


def test_pw_static_hamiltonian_is_time_independent():
    clock = IdealClock(6)
    constraint = history_state(clock, qubit_state(PLUS), np.zeros((2, 2)))
    first = pw_probability(constraint, clock, 0, Z_OBS, "S")
    for t in range(1, 6):
        probs = pw_probability(constraint, clock, t, Z_OBS, "S")
        for value in first:
            assert abs(probs[value] - first[value]) < 1e-12


def test_pw_maximally_mixed_conditional_is_uniform():
    clock = IdealClock(4)
    bell = StateVector(qubits("S", "T"),
                       np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    constraint = history_state(clock, bell, np.zeros((4, 4)))
    probs = pw_probability(constraint, clock, 2, Z_OBS, "S")
    assert probs[1.0] == pytest.approx(0.5, abs=1e-12)
    assert probs[-1.0] == pytest.approx(0.5, abs=1e-12)


def test_history_state_rejects_clock_id_collision():
    clock = IdealClock(4, system_id="S")
    with pytest.raises(SpaceMismatchError):
        history_state(clock, qubit_state(KET0), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_unanimous_environment_has_a_definite_value():
    w = world_with(("S", "E1", "E2", "E3", "E4", "E5"), KET0, seed=5)
    for env in ("E1", "E2", "E3", "E4", "E5"):
        record_measurement(w, env, "S", Z_OBS, pointer=env)
    members = ("E1", "E2", "E3", "E4", "E5")
    assert aggregate_perspective(w, members, Z_OBS) == 1.0


def test_tied_votes_yield_no_value():
    # two qubits measured by two constituents each; fifth holds no record
    space = qubits("S1", "S2", "E1", "E2", "E3", "E4", "E5")
    amps = np.kron(KET0, np.array([0.0, 1.0], dtype=complex))
    for _ in range(5):
        amps = np.kron(amps, KET0)
    w = World(space, StateVector(space, amps), 6)
    record_measurement(w, "E1", "S1", Z_OBS, pointer="E1")
    record_measurement(w, "E2", "S1", Z_OBS, pointer="E2")
    record_measurement(w, "E3", "S2", Z_OBS, pointer="E3")
    record_measurement(w, "E4", "S2", Z_OBS, pointer="E4")
    members = ("E1", "E2", "E3", "E4", "E5")
    assert aggregate_perspective(w, members, Z_OBS) is None


def test_simple_majority_carries():
    # majority-count oracle: 3 of 5 record -1, 2 record +1
    space = qubits("S1", "S2", "E1", "E2", "E3", "E4", "E5")
    amps = np.kron(np.array([0.0, 1.0], dtype=complex), KET0)
    for _ in range(5):
        amps = np.kron(amps, KET0)
    w = World(space, StateVector(space, amps), 7)
    for env in ("E1", "E2", "E3"):
        record_measurement(w, env, "S1", Z_OBS, pointer=env)  # value -1
    for env in ("E4", "E5"):
        record_measurement(w, env, "S2", Z_OBS, pointer=env)  # value +1
    members = ("E1", "E2", "E3", "E4", "E5")
    assert aggregate_perspective(w, members, Z_OBS) == -1.0


def test_aggregate_rejects_a_repeated_constituent():
    # one record listed twice would be two votes of three, a majority
    w = world_with(("S", "E1", "E2"), KET0)
    record_measurement(w, "E1", "S", Z_OBS, pointer="E1")
    with pytest.raises(InvalidStateError, match="repeat an id"):
        aggregate_perspective(w, ("E1", "E1", "E2"), Z_OBS)
    assert aggregate_perspective(w, ("E1", "E2"), Z_OBS) is None


def test_aggregate_requires_constituents():
    w = world_with(("S", "E1"), KET0)
    with pytest.raises(InvalidStateError):
        aggregate_perspective(w, (), Z_OBS)


# ---------------------------------------------------------------------------
# refusals of the public API
# ---------------------------------------------------------------------------

def _qutrit_world():
    space = CompositeSpace([("S", 3), ("E", 2)])
    amps = np.zeros(6, dtype=complex)
    amps[0] = 1.0
    return World(space, StateVector(space, amps), 0)


_SHEAR = np.array([[1, 1], [0, 1]], dtype=complex)
_TWO_QUBITS = StateVector(qubits("S", "T"), np.kron(KET0, KET0))

# each call that the public API refuses: the exception class and a fragment
# of its message
REFUSALS = {
    "decoherence-without-environment": (
        lambda: DecoherenceSpec("S", (), Z_OBS, 0.0),
        InvalidStateError, "at least one environment qubit"),
    "basis-that-does-not-fit-the-system": (
        lambda: decohere(_qutrit_world(),
                         DecoherenceSpec("S", ("E",), Z_OBS, 0.0)),
        SpaceMismatchError, "does not fit system 'S'"),
    "boundaries-on-different-spaces": (
        lambda: TwoStateVector(qubit_state(KET0), _TWO_QUBITS),
        SpaceMismatchError, "different spaces"),
    "leg-unitary-of-the-wrong-shape": (
        lambda: TwoStateVector(qubit_state(KET0), qubit_state(KET0), u1=CNOT),
        SpaceMismatchError, "wrong shape"),
    "leg-operator-not-unitary": (
        lambda: TwoStateVector(qubit_state(KET0), qubit_state(KET0),
                               u2=_SHEAR),
        InvalidStateError, "not unitary"),
    "abl-observable-off-the-boundary-space": (
        lambda: abl_probability(TwoStateVector(_TWO_QUBITS, _TWO_QUBITS),
                                Z_OBS),
        SpaceMismatchError, "does not act on the boundary space"),
    "clock-with-one-reading": (lambda: IdealClock(1), InvalidStateError,
                               "at least two readings"),
    "clock-id-of-a-system": (
        lambda: history_state(IdealClock(2, "S"), qubit_state(KET0), PAULI_Z),
        SpaceMismatchError, "clock id 'S' collides"),
    "clock-of-the-wrong-dimension": (
        lambda: pw_conditional_state(
            history_state(IdealClock(3), qubit_state(KET0), PAULI_Z),
            IdealClock(2), 0),
        SpaceMismatchError, "disagrees with clock dimension"),
    "probe-off-the-pointer-register": (
        lambda: disturbance_profile(disturbance_world_template(), Z_OBS,
                                    computational_observable(3), [0.5], 1),
        SpaceMismatchError, "does not act on the pointer register"),
    # a bad grid row is refused as a profile's bad probe is, naming the
    # overlap, its index and the step
    "grid-with-a-one-outcome-basis": (
        lambda: stable_fact_grid(PLUS, [0.5], X_OBS,
                                 ObservableSpec.from_matrix("id", np.eye(2))),
        ScenarioError, "stable-fact grid: overlap 0.5 (index 0): env: "
                       "decoherence couplings need a two-outcome basis"),
    "grid-overlap-above-one": (
        lambda: stable_fact_grid(PLUS, [1.5], X_OBS, Z_OBS),
        ScenarioError, "stable-fact grid: overlap 1.5 (index 0): env: "
                       "overlap 1.5 outside [0, 1]"),
    # an error in a nested key keeps its key, after the step's label or the
    # check's name
    "grid-with-a-qutrit-basis": (
        lambda: stable_fact_grid(PLUS, [0.2], X_OBS,
                                 computational_observable(3)),
        ScenarioError, "stable-fact grid: overlap 0.2 (index 0): env.basis: "
                       "dimension 3 != target 2"),
    "grid-with-a-qutrit-query": (
        lambda: stable_fact_grid(PLUS, [0.2], computational_observable(3),
                                 Z_OBS),
        ScenarioError, "stable-fact grid: overlap 0.2 (index 0): "
                       "deficit_below(S,ext).q_observable: "
                       "dimension 3 != target 2"),
    "abl-postselection-impossible": (
        lambda: abl_probability(TwoStateVector(qubit_state(KET0),
                                               qubit_state((0.0, 1.0))),
                                Z_OBS),
        ImpossibleOutcomeError, "postselection is impossible"),
    "clock-reading-past-its-range": (
        lambda: IdealClock(4).time_projector(4), SpaceMismatchError,
        "reading 4 outside clock range 0..3"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_the_public_api_refuses_with_its_class_and_message(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error) as caught:
        call()
    assert fragment in str(caught.value)
