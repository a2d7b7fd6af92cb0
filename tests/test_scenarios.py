import copy
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqmsim import eventgraph, scenarios
from rqmsim.config import ZERO_PROBABILITY
from rqmsim.errors import (ImpossibleOutcomeError, ScenarioError,
                           SimulationError)
from rqmsim.eventgraph import (World, event_record, learn, record_measurement,
                               relative_state)
from rqmsim.qcore import (PAULI_X, PAULI_Z, CompositeSpace, ObservableSpec,
                          StateVector, computational_observable, partial_trace)
from rqmsim.scenarios import (
    _CHECK_SCHEMAS,
    _NAMED_GATES,
    _STEP_SCHEMAS,
    BUILTIN_SCENARIOS,
    Check,
    Scenario,
    Step,
    build_frauchiger_renner,
    build_interference_erasure,
    build_stern_gerlach_decoherence,
    build_three_outcome_intersubjectivity,
    build_wigner_friend,
    compile_scenario,
    frauchiger_renner_exact,
    matrix_payload,
    run_trials,
)


def check_by_kind(stats, kind, index=0):
    hits = [c for c in stats.checks if c.kind == kind]
    return hits[index]


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------

def test_builtin_scenarios_roundtrip_through_json():
    for name, builder in BUILTIN_SCENARIOS.items():
        scenario = builder()
        payload = json.loads(json.dumps(scenario.to_dict()))
        parsed = Scenario.from_dict(payload)
        assert parsed.steps == scenario.steps, name
        assert parsed.checks == scenario.checks, name
        assert parsed.systems == scenario.systems, name
        assert parsed.initial_state == scenario.initial_state, name


def test_unknown_top_level_key_is_rejected():
    payload = build_wigner_friend().to_dict()
    payload["extra"] = 1
    with pytest.raises(ScenarioError, match="extra"):
        Scenario.from_dict(payload)


def test_undeclared_system_is_named_in_the_error():
    payload = {
        "format_version": 1,
        "name": "bad",
        "systems": [["S", 2], ["A", 2]],
        "initial_state": {"kind": "product", "factors": {}},
        "steps": [{"kind": "measure", "label": "m", "observer": "A",
                   "system": ["Q"], "observable": "pauli-z", "pointer": "A"}],
        "checks": [],
    }
    with pytest.raises(ScenarioError, match=r"steps\[0\].*'Q'"):
        Scenario.from_dict(payload)


def test_bad_norm_is_rejected():
    payload = {
        "format_version": 1,
        "name": "bad",
        "systems": [["S", 2]],
        "initial_state": {"kind": "product", "factors": {"S": [0.5, 0.5]}},
        "steps": [],
        "checks": [],
    }
    with pytest.raises(ScenarioError, match="norm"):
        Scenario.from_dict(payload)


def test_checks_with_dangling_references_are_rejected():
    base = {
        "format_version": 1,
        "name": "bad",
        "systems": [["S", 2], ["A", 2]],
        "initial_state": {"kind": "product", "factors": {}},
        "steps": [{"kind": "measure", "label": "m", "observer": "A",
                   "system": ["S"], "observable": "pauli-z", "pointer": "A"}],
    }
    with pytest.raises(ScenarioError, match="unknown step"):
        Scenario.from_dict({**base, "checks": [
            {"kind": "frequency", "step": "nosuch", "value": 1.0,
             "expected": 0.5}]})
    with pytest.raises(ScenarioError, match="cannot apply"):
        Scenario.from_dict({**base, "checks": [
            {"kind": "step_true", "step": "m"}]})
    with pytest.raises(ScenarioError, match="undeclared constituent"):
        Scenario.from_dict({**base, "checks": [
            {"kind": "aggregate_defined", "constituents": ["E9"],
             "observable": "pauli-z"}]})


# one step or check of every kind; each entry is valid as it stands
EVERY_KIND = {
    "format_version": 1,
    "name": "every-kind",
    "systems": [[name, 2] for name in ("S", "A", "B", "M", "E1", "E2", "P1",
                                       "P2")],
    "initial_state": {"kind": "product", "factors": {"S": "plus"}},
    "steps": [
        {"kind": "measure", "label": "m", "observer": "A", "system": ["S"],
         "observable": "pauli-z", "pointer": "A"},
        {"kind": "learn", "label": "l", "learner": "B", "source": "m",
         "pointer": "B"},
        {"kind": "check_cpl", "label": "c", "source": "m", "learn": "l"},
        {"kind": "unitary", "label": "u", "gate": "h", "targets": ["S"]},
        {"kind": "destroy", "label": "d", "observer": "M", "system": ["A"],
         "observable": "pauli-x"},
        {"kind": "decohere", "label": "e", "system": "S",
         "environment": ["E1", "E2"], "basis": "pauli-z", "overlap": 0.5},
        {"kind": "check_icd", "label": "i", "w": "W", "s": "S", "f": "A",
         "observable": "pauli-z", "pointers": ["P1", "P2"]},
    ],
    "checks": [
        {"kind": "agree", "steps": ["m", "l"]},
        {"kind": "frequency", "step": "m", "value": 1, "expected": 0.5},
        {"kind": "joint_frequency", "steps": ["m", "l"], "values": [1, 1],
         "expected": 0.5, "z": 3},
        {"kind": "exists", "steps": ["m", "l"], "values": [1.0, 1.0]},
        {"kind": "step_true", "step": "c", "field": "agree"},
        {"kind": "superseded", "step": "m", "expect": True},
        {"kind": "event_disturbed", "step": "l", "expect": False},
        {"kind": "aggregate_defined", "constituents": ["E1", "E2"],
         "observable": "pauli-z"},
        {"kind": "aggregate_frequency", "constituents": ["E1", "E2"],
         "observable": "pauli-z", "value": 1.0, "expected": 0.5},
        {"kind": "deficit_below", "system": "S", "q_observable": "pauli-x",
         "v_observable": "pauli-z", "max": 0.1},
        {"kind": "purity", "observer": "W", "targets": ["S"], "min": 0.5},
    ],
}

DELETE = object()


def _schema_cases():
    for section, schemas in (("steps", _STEP_SCHEMAS),
                             ("checks", _CHECK_SCHEMAS)):
        for i, entry in enumerate(EVERY_KIND[section]):
            for key in schemas[entry["kind"]].required:
                yield pytest.param(section, i, key, DELETE,
                                   id=f"{entry['kind']}-without-{key}")
    shapes = [
        (0, "steps", ["m"]),                      # agree needs two steps
        (0, "steps", ["m", "l", "m"]),
        (2, "values", [1.0]),                     # zip would truncate
        (2, "steps", []),
        (3, "values", [1.0]),
        (3, "steps", "m"),
        (0, "z", True),
        (0, "expected_rate", float("inf")),
        (1, "expected", "0.5"),
        (1, "value", float("nan")),
        (1, "z", 10 ** 400),
        (2, "values", [1.0, "1"]),
        (5, "expect", "no"),
        (9, "max", None),
        (10, "min", None),                        # purity needs a bound
        (10, "max", "1"),
        (4, "step", "m"),                         # step_true on a value step
        (0, "steps", ["m", "nosuch"]),
        (7, "constituents", []),
        (7, "constituents", ["E1", "E9"]),
    ]
    for i, key, value in shapes:
        kind = EVERY_KIND["checks"][i]["kind"]
        yield pytest.param("checks", i, key, value, id=f"{kind}-{key}={value!r:.20}")
    for i, key, value in [
        (0, "system", []),
        (0, "clock", "noon"),
        (1, "source", "i"),                       # a later step
        (5, "overlap", True),
        (6, "pointers", ["P1"]),
        (6, "s", ["S"]),
    ]:
        kind = EVERY_KIND["steps"][i]["kind"]
        yield pytest.param("steps", i, key, value, id=f"{kind}-{key}={value!r:.20}")


def test_every_kind_document_covers_the_schema_table():
    assert {s["kind"] for s in EVERY_KIND["steps"]} == set(_STEP_SCHEMAS)
    assert {c["kind"] for c in EVERY_KIND["checks"]} == set(_CHECK_SCHEMAS)
    scenario = Scenario.from_dict(EVERY_KIND)
    assert Scenario.from_dict(scenario.to_dict()) == scenario


@pytest.mark.parametrize("section,index,key,value", _schema_cases())
def test_malformed_entries_name_their_path_and_key(section, index, key,
                                                   value):
    payload = copy.deepcopy(EVERY_KIND)
    entry = payload[section][index]
    if value is DELETE:
        del entry[key]
    else:
        entry[key] = value
    with pytest.raises(ScenarioError,
                       match=rf"^{section}\[{index}\]: .*\b{key}\b"):
        Scenario.from_dict(payload)


def test_optional_keys_take_their_defaults():
    payload = copy.deepcopy(EVERY_KIND)
    payload["checks"][0]["z"] = None           # null means the default
    payload["steps"][0].pop("pointer")         # defaults to the observer
    payload["checks"][10]["max"] = None
    Scenario.from_dict(payload)
    payload["steps"][4]["observer"] = "Q"      # ... which must be declared
    with pytest.raises(ScenarioError, match=r"steps\[4\].*'Q'"):
        Scenario.from_dict(payload)


def test_unknown_observable_is_rejected():
    payload = {
        "format_version": 1,
        "name": "bad",
        "systems": [["S", 2], ["A", 2]],
        "initial_state": {"kind": "product", "factors": {}},
        "steps": [{"kind": "measure", "label": "m", "observer": "A",
                   "system": ["S"], "observable": "pauli-q", "pointer": "A"}],
        "checks": [],
    }
    with pytest.raises(ScenarioError, match="pauli-q"):
        Scenario.from_dict(payload)


def test_unknown_step_kind_and_step_key_are_rejected():
    base = {
        "format_version": 1,
        "name": "bad",
        "systems": [["S", 2]],
        "initial_state": {"kind": "product", "factors": {}},
        "checks": [],
    }
    with pytest.raises(ScenarioError, match="teleport"):
        Scenario.from_dict({**base, "steps": [{"kind": "teleport"}]})
    with pytest.raises(ScenarioError, match="unknown check kind"):
        Scenario.from_dict({**base, "steps": [], "checks": [{"kind": ["x"]}]})
    with pytest.raises(ScenarioError, match="closed schema"):
        Scenario.from_dict({**base, "steps": [
            {"kind": "unitary", "gate": "x", "targets": ["S"], "speed": 3}]})


# ---------------------------------------------------------------------------
# three-outcome intersubjectivity
# ---------------------------------------------------------------------------

def test_three_outcome_eigenstate_always_plus_one():
    scenario = build_three_outcome_intersubjectivity(initial="zero")
    stats = run_trials(scenario, 400, 12)
    assert stats.all_passed
    assert stats.frequencies["m_a"] == {1.0: 400}
    assert stats.frequencies["m_b_s"] == {1.0: 400}
    assert stats.frequencies["m_b_a"] == {1.0: 400}


def test_three_outcome_agreement_on_random_states():
    stats = run_trials(build_three_outcome_intersubjectivity(), 2000, 13)
    assert stats.all_passed
    for result in stats.checks:
        if result.kind == "agree":
            assert result.observed == 1.0


def test_three_outcome_marginals_match_born_weights():
    stats = run_trials(build_three_outcome_intersubjectivity(initial="plus"),
                       4000, 14)
    assert stats.all_passed
    freq = stats.frequencies["m_a"][1.0] / 4000
    assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / 4000)


def test_meddled_three_outcome_halves_agreement():
    stats = run_trials(
        build_three_outcome_intersubjectivity(initial="plus", meddler=True),
        4000, 15)
    assert stats.all_passed
    agree = check_by_kind(stats, "agree", 1)  # m_a vs m_b_a
    assert abs(agree.observed - 0.5) <= agree.halfwidth


# ---------------------------------------------------------------------------
# wigner's friend
# ---------------------------------------------------------------------------

def test_wigner_friend_outsider_keeps_entangled_description():
    stats = run_trials(build_wigner_friend(), 400, 16)
    assert stats.all_passed
    joint = check_by_kind(stats, "purity", 0)
    assert joint.observed >= 1.0 - 1e-9


def test_wigner_friend_eigenstate_stays_product():
    stats = run_trials(build_wigner_friend(initial="zero"), 200, 17)
    assert stats.all_passed


def test_wigner_friend_learning_phase_agrees():
    stats = run_trials(build_wigner_friend(learning_phase=True), 2000, 18)
    assert stats.all_passed
    assert check_by_kind(stats, "agree").observed == 1.0


# ---------------------------------------------------------------------------
# interference erasure
# ---------------------------------------------------------------------------

def test_erasure_restores_conditional_coherence():
    stats = run_trials(build_interference_erasure(), 2000, 19)
    assert stats.all_passed
    # the conjugate query tracks the erasure outcome in every trial
    agree = [c for c in stats.checks if c.kind == "agree"
             and "erase" in c.name][0]
    assert agree.observed == 1.0


def test_erasure_marks_the_record_superseded_and_reads_disturbed():
    stats = run_trials(build_interference_erasure(), 500, 20)
    assert check_by_kind(stats, "superseded").observed == 1.0
    assert check_by_kind(stats, "event_disturbed").observed == 1.0


def test_no_erasure_means_no_visibility():
    stats = run_trials(build_interference_erasure(erase=False), 4000, 21)
    assert stats.all_passed
    for result in stats.checks:
        if result.kind == "frequency":
            assert abs(result.observed - 0.5) <= result.halfwidth


# ---------------------------------------------------------------------------
# frauchiger-renner
# ---------------------------------------------------------------------------

def test_exact_joint_ok_probability_is_one_twelfth():
    # brute-force amplitude oracle, built from explicit basis permutations
    # (independent of the package's tensor helpers)
    def idx(r, f1, s, f2):
        return ((r * 2 + f1) * 2 + s) * 2 + f2

    psi = np.zeros(16, dtype=complex)
    psi[idx(0, 0, 0, 0)] = math.sqrt(1.0 / 3.0)
    psi[idx(1, 0, 0, 0)] = math.sqrt(2.0 / 3.0)

    copied = np.zeros(16, dtype=complex)  # F1 copies R
    for r in range(2):
        for f1 in range(2):
            for s in range(2):
                for f2 in range(2):
                    copied[idx(r, (f1 + r) % 2, s, f2)] += psi[idx(r, f1, s, f2)]
    prepared = np.zeros(16, dtype=complex)  # spin rotated on the tails branch
    h = 1.0 / math.sqrt(2.0)
    for r in range(2):
        for f1 in range(2):
            for f2 in range(2):
                a0 = copied[idx(r, f1, 0, f2)]
                a1 = copied[idx(r, f1, 1, f2)]
                if f1 == 0:
                    prepared[idx(r, f1, 0, f2)] += a0
                    prepared[idx(r, f1, 1, f2)] += a1
                else:
                    prepared[idx(r, f1, 0, f2)] += h * (a0 + a1)
                    prepared[idx(r, f1, 1, f2)] += h * (a0 - a1)
    final = np.zeros(16, dtype=complex)  # F2 copies S
    for r in range(2):
        for f1 in range(2):
            for s in range(2):
                for f2 in range(2):
                    final[idx(r, f1, s, (f2 + s) % 2)] += prepared[idx(r, f1, s, f2)]

    amp = 0.0 + 0.0j
    signs = {(0, 0): 1.0, (1, 1): -1.0}
    for (r, f1), s_a in signs.items():
        for (s, f2), s_b in signs.items():
            amp += 0.5 * s_a * s_b * final[idx(r, f1, s, f2)]
    oracle = abs(amp) ** 2

    assert abs(oracle - 1.0 / 12.0) < 1e-12
    assert abs(frauchiger_renner_exact() - 1.0 / 12.0) < 1e-12
    assert abs(frauchiger_renner_exact() - oracle) < 1e-12


def test_frauchiger_renner_statistics():
    stats = run_trials(build_frauchiger_renner(), 4000, 22)
    assert stats.all_passed
    joint = check_by_kind(stats, "joint_frequency", 0)
    assert abs(joint.observed - 1.0 / 12.0) <= joint.halfwidth
    exists = check_by_kind(stats, "exists")
    assert exists.passed and exists.observed > 0


def test_frauchiger_renner_friend_records_are_destroyed():
    stats = run_trials(build_frauchiger_renner(), 300, 23)
    for result in stats.checks:
        if result.kind == "superseded":
            assert result.observed == 1.0


def test_pointer_basis_super_observers_see_no_paradox():
    stats = run_trials(build_frauchiger_renner(super_observers=False),
                       2000, 24)
    assert stats.all_passed
    for result in stats.checks:
        if result.kind == "agree":
            assert result.observed == 1.0


# ---------------------------------------------------------------------------
# stern-gerlach decoherence
# ---------------------------------------------------------------------------

def test_environment_record_dissemination():
    stats = run_trials(build_stern_gerlach_decoherence(), 1500, 25)
    assert stats.all_passed
    assert check_by_kind(stats, "aggregate_defined").observed == 1.0
    freq = check_by_kind(stats, "aggregate_frequency")
    assert abs(freq.observed - 0.5) <= freq.halfwidth


def test_weak_dissemination_leaves_no_aggregate_value():
    stats = run_trials(build_stern_gerlach_decoherence(overlap=1.0), 200, 26)
    assert stats.all_passed
    assert check_by_kind(stats, "aggregate_defined").observed == 0.0


def test_eigenstate_input_gives_deterministic_aggregate():
    stats = run_trials(build_stern_gerlach_decoherence(initial="zero"),
                       300, 27)
    assert stats.all_passed
    assert check_by_kind(stats, "aggregate_frequency").observed == 1.0


# ---------------------------------------------------------------------------
# trial runner
# ---------------------------------------------------------------------------

def test_identical_seeds_reproduce_identical_traces():
    scenario = build_three_outcome_intersubjectivity()
    traces_a, traces_b, traces_c = [], [], []
    run_trials(scenario, 3, 99, trace_callback=traces_a.append)
    run_trials(scenario, 3, 99, trace_callback=traces_b.append)
    assert [t.events for t in traces_a] == [t.events for t in traces_b]
    assert [t.outcomes for t in traces_a] == [t.outcomes for t in traces_b]
    run_trials(scenario, 3, 100, trace_callback=traces_c.append)
    assert [t.events for t in traces_a] != [t.events for t in traces_c]


def test_trace_stream_arrives_in_trial_order():
    seen = []
    run_trials(build_wigner_friend(), 5, 7,
               trace_callback=lambda tr: seen.append(tr.trial_index))
    assert seen == [0, 1, 2, 3, 4]


def test_frequency_counts_sum_to_trials():
    stats = run_trials(build_three_outcome_intersubjectivity(), 250, 28)
    for counts in stats.frequencies.values():
        assert sum(counts.values()) == 250


def test_trial_count_must_be_positive():
    with pytest.raises(ScenarioError):
        run_trials(build_wigner_friend(), 0, 1)


def test_every_builtin_completes_ten_thousand_trials_quickly():
    # CPU time, which a busy host does not stretch: BLAS runs on one thread
    for name, builder in BUILTIN_SCENARIOS.items():
        start = time.process_time()
        stats = run_trials(builder(), 10_000, 314)
        assert stats.all_passed, name
        assert time.process_time() - start < 60.0, name


# ---------------------------------------------------------------------------
# outcome-path memo
# ---------------------------------------------------------------------------

def _run_ops(world, compiled):
    """Execute the ops of ``compiled`` on ``world`` in order, as
    ``run_trials`` does. Returns None, or the label of the step whose op
    raised and the error."""
    for label, op in compiled.steps:
        try:
            if op.event is None:
                world._unitary(op)
            else:
                world._measure(op)
        except SimulationError as exc:
            return label, exc
    return None


def _drive(scenario, n, seed, memo):
    """Run the compiled ops and checks of ``scenario`` trial by trial, as
    ``run_trials`` does, giving each world ``memo()``. Returns each trial's
    event records, outcomes and final state, and the check results."""
    compiled = compile_scenario(scenario)
    trials = []
    for index in range(n):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        world = World(compiled.space, compiled.build_initial(rng), rng)
        world._memo = memo()
        assert _run_ops(world, compiled) is None
        for acc in compiled.accumulators:
            acc.per_trial(world)
        trials.append(([event_record(ev) for ev in world.events],
                       compiled.outcomes(world), world._state))
    return trials, [acc.result(n) for acc in compiled.accumulators]


def _assert_same_runs(with_memo, without_memo):
    (trials_a, checks_a), (trials_b, checks_b) = with_memo, without_memo
    assert checks_a == checks_b
    assert len(trials_a) == len(trials_b)
    for (events_a, outcomes_a, state_a), (events_b, outcomes_b, state_b) \
            in zip(trials_a, trials_b):
        assert events_a == events_b
        assert outcomes_a == outcomes_b
        assert np.array_equal(state_a, state_b)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_memo_changes_no_event_outcome_or_state(name):
    scenario = BUILTIN_SCENARIOS[name]()
    static = compile_scenario(scenario)._static_initial is not None
    for seed in (3, 41, 2024):
        # a memo serves one initial state: with a Haar factor, one per trial
        shared = {}
        memo = (lambda: shared) if static else dict
        _assert_same_runs(_drive(scenario, 300, seed, memo),
                          _drive(scenario, 300, seed, lambda: None))
        assert bool(shared) == static
    for value in shared.values():
        state = value[0] if isinstance(value, tuple) else value
        with pytest.raises(ValueError):
            state[0] = 0.0


def _kron_chain(compiled, rng):
    """The initial amplitudes as one ``np.kron`` per factor, in system
    order, with each Haar factor drawn where it stands."""
    amps = np.ones(1, dtype=complex)
    for factor, (_, dim) in zip(compiled.factors, compiled.scenario.systems):
        if isinstance(factor, str):
            draw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            factor = draw / np.linalg.norm(draw)
        amps = np.kron(amps, factor)
    return amps


@pytest.mark.parametrize("factors", [
    {"S": "haar", "P": "plus"},              # one static factor not 0/1
    {"A": "one", "S": "haar", "T": "haar"},  # two draws, axes moved
    {"A": "plus", "S": "haar", "P": "plus"},  # a factor not 0/1 before it
    {"A": [0.6, 0.8], "S": "haar", "Q": [0.6, 0.0, 0.8], "P": "minus"},
])
def test_haar_initial_state_matches_the_kron_chain_bit_for_bit(factors):
    systems = (("A", 2), ("S", 2), ("Q", 3), ("P", 2), ("T", 2))
    compiled = compile_scenario(Scenario(
        "haar-product", systems, {"kind": "product", "factors": factors},
        (), ()))
    for seed in range(20):
        built = compiled.build_initial(np.random.default_rng(seed))
        chain = _kron_chain(compiled, np.random.default_rng(seed))
        # adding 0.0 maps -0.0 to 0.0: a zero's sign is the only bit that
        # may differ, and no later sum or product of the state reads it
        assert (built.amplitudes + 0.0).tobytes() == (chain + 0.0).tobytes()


def _independent_plus_qubits(count):
    systems = [(f"S{i}", 2) for i in range(count)] \
        + [(f"A{i}", 2) for i in range(count)]
    steps = [Step("measure", f"m{i}", {"observer": f"A{i}",
                                        "system": [f"S{i}"],
                                        "observable": "pauli-z"})
             for i in range(count)]
    checks = [Check("frequency", {"step": f"m{i}", "value": 1.0,
                                  "expected": 0.5, "z": 5.0})
              for i in range(count)]
    return Scenario("independent-plus", tuple(systems),
                    {"kind": "product",
                     "factors": {f"S{i}": "plus" for i in range(count)}},
                    tuple(steps), tuple(checks))


def test_memo_stops_storing_at_its_byte_cap(monkeypatch):
    # four |+> qubits measured in turn have 45 distinct outcome-path
    # states; the lowered cap holds 12 of them
    scenario = _independent_plus_qubits(4)
    entry = 16 * 2 ** 8
    monkeypatch.setattr(eventgraph, "_MEMO_BYTES", 12 * entry)
    memo = {}
    capped = _drive(scenario, 400, 5, lambda: memo)
    assert len(memo) == 12
    assert sum((v[0] if isinstance(v, tuple) else v).nbytes
               for v in memo.values()) <= 12 * entry
    _assert_same_runs(capped, _drive(scenario, 400, 5, lambda: None))


def test_a_world_takes_no_memo():
    compiled = compile_scenario(build_wigner_friend())
    with pytest.raises(TypeError):
        World(compiled.space, compiled.build_initial(None), 0, memo={})


def _run_both_ways(scenario, n, seed):
    """``run_trials`` as it is and with every memo lookup rebuilt: for each,
    the summary and the traces, or the error line that stopped the run.
    Also the memos that the first run's worlds held."""
    def run():
        traces = []
        try:
            stats = run_trials(scenario, n, seed, trace_callback=traces.append)
        except (ScenarioError, SimulationError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return stats.render_text(), traces

    remember, memos = eventgraph.World._remember, set()

    def spy(world, key, build):
        memos.add(None if world._memo is None else id(world._memo))
        return remember(world, key, build)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eventgraph.World, "_remember", spy)
        shared = run()
        patch.setattr(eventgraph.World, "_remember",
                      lambda world, key, build: build())
        return shared, run(), memos


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS) + ["sg-wide"])
def test_run_trials_gives_the_same_results_without_its_memo(name):
    scenario = Scenario.from_dict(build_stern_gerlach_decoherence(
        environment_size=8).to_dict()) if name == "sg-wide" \
        else BUILTIN_SCENARIOS[name]()
    static = compile_scenario(scenario)._static_initial is not None
    for seed in (3, 41):
        shared, rebuilt, memos = _run_both_ways(scenario, 200, seed)
        assert shared == rebuilt
        # with one initial state, every world of the call holds one memo
        assert len(memos) == 1 and (None in memos) != static


# ---------------------------------------------------------------------------
# the compiled plan
# ---------------------------------------------------------------------------

def _compiled_trials(compiled, n, seed):
    """Each trial's event records and outcomes from driving the compiled
    ops and checks, as ``run_trials`` does."""
    trials = []
    for index in range(n):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        world = World(compiled.space, compiled.build_initial(rng), rng)
        assert _run_ops(world, compiled) is None
        for acc in compiled.accumulators:
            acc.per_trial(world)
        trials.append(([event_record(ev) for ev in world.events],
                       compiled.outcomes(world)))
    return trials


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_every_observer_has_a_relative_state_of_every_system(name):
    # a ledger may hold a record that a later measurement destroyed, which
    # the history no longer conditions on; neither may its relative state
    compiled = compile_scenario(BUILTIN_SCENARIOS[name]())
    for index in range(50):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=8, spawn_key=(index,)))
        world = World(compiled.space, compiled.build_initial(rng), rng)
        assert _run_ops(world, compiled) is None
        for observer in {ev.observer for ev in world.events}:
            for system in compiled.space.ids:
                if system != observer:
                    relative_state(world, observer, (system,))


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS) + ["every-kind"])
def test_compiled_trials_apply_no_structural_rule(name, monkeypatch):
    # the record-hit verdicts, register claims and step checks all run in
    # compile_scenario; a trial only executes the ops they planned
    scenario = Scenario.from_dict(EVERY_KIND) if name == "every-kind" \
        else BUILTIN_SCENARIOS[name]()
    compiled = compile_scenario(scenario)
    unpatched = _compiled_trials(compiled, 100, 11)

    def forbidden(*args, **kwargs):
        raise AssertionError("a trial ran a structural rule")

    # every rule the plan has, so that a later one cannot be left out
    rules = [attr for attr in vars(eventgraph.Plan) if not attr.startswith("_")]
    assert "decoherence" in rules
    for attr in ("__init__", "_hits_record", "_claim", *rules):
        monkeypatch.setattr(eventgraph.Plan, attr, forbidden)
    monkeypatch.setattr(eventgraph, "measurement_unitary", forbidden)
    assert _compiled_trials(compiled, 100, 11) == unpatched


# ---------------------------------------------------------------------------
# check readings and their folds
# ---------------------------------------------------------------------------

# a record of S that a conjugate-basis measurement destroys, a second
# observer's conjugate reading of S, and a Haar qubit T decohered halfway,
# so that T's purity and deficit differ from trial to trial
FOLDS = {
    "format_version": 1,
    "name": "folds",
    "systems": [[name, 2] for name in ("S", "A", "B", "M", "T", "E1", "E2")],
    "initial_state": {"kind": "product",
                      "factors": {"S": "plus", "T": "haar"}},
    "steps": [
        {"kind": "measure", "label": "m", "observer": "A", "system": ["S"],
         "observable": "pauli-z"},
        {"kind": "measure", "label": "x", "observer": "B", "system": ["S"],
         "observable": "pauli-x"},
        {"kind": "destroy", "label": "d", "observer": "M", "system": ["A"],
         "observable": "pauli-x"},
        {"kind": "decohere", "label": "e", "system": "T",
         "environment": ["E1", "E2"], "basis": "pauli-z", "overlap": 0.5},
    ],
}

_T_DEFICIT = {"kind": "deficit_below", "system": "T",
              "q_observable": "pauli-x", "v_observable": "pauli-z"}

# a check of FOLDS for each fold, passing and failing, and the line that
# render_text() gives for it after 200 trials at seed 5
FOLD_LINES = {
    "rate-passes": ({"kind": "frequency", "step": "m", "value": 1,
                     "expected": 0.5},
                    "check frequency(m,1): observed 0.405 expected 0.5 ±0.11"
                    "  PASS"),
    "rate-fails": ({"kind": "agree", "steps": ["m", "x"],
                    "expected_rate": 1.0},
                   "check agree(['m', 'x']): observed 0.495 expected 1  FAIL"),
    "superseded-passes": ({"kind": "superseded", "step": "m", "expect": True},
                          "check superseded(m): observed 1 expected 1  PASS"),
    "superseded-expects-the-wrong-flag": (
        {"kind": "superseded", "step": "m", "expect": False},
        "check superseded(m): observed 0 expected 1  FAIL"),
    "exists-passes": ({"kind": "exists", "steps": ["m", "x"],
                       "values": [1, 1]},
                      "check exists(['m', 'x'],[1, 1]): observed 0.19 "
                      "expected -  PASS  [38 matching trials]"),
    "exists-matches-no-trial": ({"kind": "exists", "steps": ["m"],
                                 "values": [2]},
                                "check exists(['m'],[2]): observed 0 "
                                "expected -  FAIL  [0 matching trials]"),
    # with a min, the least purity is observed; with only a max, the greatest
    "purity-between-min-and-max": (
        {"kind": "purity", "observer": "W", "targets": ["T"], "min": 0.5,
         "max": 1.0},
        "check purity(W): observed 0.531326 expected 0.5  PASS  "
        "[purity range [0.531326, 0.999945]]"),
    "purity-above-its-max": (
        {"kind": "purity", "observer": "W", "targets": ["T"], "max": 0.9},
        "check purity(W): observed 0.999945 expected 0.9  FAIL  "
        "[purity range [0.531326, 0.999945]]"),
    "deficit-passes": ({**_T_DEFICIT, "max": 1.0},
                       "check deficit_below(T): observed 0.124375 expected 1"
                       "  PASS  [worst-case deficit over trials]"),
    "deficit-above-its-max": ({**_T_DEFICIT, "max": 0.01},
                              "check deficit_below(T): observed 0.124375 "
                              "expected 0.01  FAIL  "
                              "[worst-case deficit over trials]"),
}


@pytest.mark.parametrize("name", sorted(FOLD_LINES))
def test_each_fold_renders_its_check_line(name):
    check, line = FOLD_LINES[name]
    stats = run_trials(Scenario.from_dict({**FOLDS, "checks": [check]}),
                       200, 5)
    assert [text for text in stats.render_text().splitlines()
            if text.startswith("check ")] == [line]


@pytest.mark.parametrize("name",
                         sorted(BUILTIN_SCENARIOS) + ["every-kind", "folds"])
def test_a_reading_is_a_plain_value_that_leaves_the_world_as_it_was(name):
    if name in BUILTIN_SCENARIOS:
        scenario = BUILTIN_SCENARIOS[name]()
    else:
        scenario = Scenario.from_dict(EVERY_KIND if name == "every-kind" else
                                      {**FOLDS, "checks": [
                                          check for check, _ in
                                          FOLD_LINES.values()]})
    compiled = compile_scenario(scenario)
    for index in range(20):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=4, spawn_key=(index,)))
        world = World(compiled.space, compiled.build_initial(rng), rng)
        assert _run_ops(world, compiled) is None
        events = [event_record(ev) for ev in world.events]
        state = world._state.copy()
        for acc in compiled.accumulators:
            first = acc.reading(acc.args, world)
            assert isinstance(first, (bool, np.bool_, float))
            assert acc.reading(acc.args, world) == first
            assert [event_record(ev) for ev in world.events] == events
            assert np.array_equal(world._state, state)


def test_a_step_label_makes_no_cache_entry():
    # the layout's cache keys operators by content, so documents that
    # differ only in a gate's label share every entry
    names = [f"label{i}" for i in range(8)]
    systems = tuple((name, 2) for name in names)
    sizes = []
    for i in range(20):
        steps = (Step("measure", "m", {"observer": "O", "system": [names[0]],
                                       "observable": "pauli-z",
                                       "pointer": names[1]}),
                 Step("unitary", f"gate{i}", {"gate": "h",
                                              "targets": [names[1]]}),
                 Step("learn", "read", {"learner": "L", "source": "m",
                                        "pointer": names[2]}))
        compiled = compile_scenario(Scenario(
            "labels", systems, {"kind": "product", "factors": {}}, steps, ()))
        sizes.append(len(eventgraph._CACHES[compiled.space.subsystems]))
    assert sizes == sizes[:1] * 20


def _coupling_builds(monkeypatch):
    """A list that grows by the observable's name for each measurement
    coupling built."""
    builds = []
    build = eventgraph.measurement_unitary

    def counted(obs, pointer_dim):
        builds.append(obs.name)
        return build(obs, pointer_dim)

    monkeypatch.setattr(eventgraph, "measurement_unitary", counted)
    return builds


def _one_measurement(layout, observable):
    """A document that measures ``observable`` on a layout of its own."""
    system, pointer = f"{layout}-S", f"{layout}-A"
    return {"format_version": 1, "name": layout,
            "systems": [[system, 2], [pointer, 2]],
            "initial_state": {"kind": "product", "factors": {}},
            "steps": [{"kind": "measure", "label": "m", "observer": pointer,
                       "system": [system], "observable": observable,
                       "pointer": pointer}],
            "checks": []}


def test_a_coupling_is_built_once_per_content(monkeypatch):
    # each round compiles twice, and each compile builds the inline "zed"
    # anew: a new observable with the same projectors
    doc = _one_measurement("rounds", {"name": "zed",
                                      "matrix": [[1, 0], [0, -1]]})
    builds = _coupling_builds(monkeypatch)
    for _ in range(3):
        compile_scenario(Scenario.from_dict(doc))
    assert builds == ["zed"]


def test_the_same_matrix_under_another_name_builds_no_coupling(monkeypatch):
    compile_scenario(Scenario.from_dict(
        _one_measurement("renamed", "pauli-z")))
    builds = _coupling_builds(monkeypatch)
    compile_scenario(Scenario.from_dict(_one_measurement(
        "renamed", {"name": "zed", "matrix": [[1, 0], [0, -1]]})))
    assert builds == []


_OBSERVABLES = {"pauli-z": ObservableSpec.from_matrix("pauli-z", PAULI_Z),
                "pauli-x": ObservableSpec.from_matrix("pauli-x", PAULI_X),
                "computational": computational_observable(2)}
_ARITY = {"h": 1, "x": 1, "cnot": 2, "swap": 2}


@st.composite
def _histories(draw):
    """A scenario of measure, destroy, unitary and learn steps on two to
    four qubits. Observers may be qubits or outside names, and one register
    in ten is drawn from all qubits, the rest from those no step touched.
    A register starts in its ground state in nine draws of ten; other
    qubits start in any named state."""
    names = [f"q{i}" for i in range(draw(st.integers(2, 4)))]
    fresh = list(names)
    steps, pointers = [], {}  # value-step label -> its register
    for i in range(draw(st.integers(1, 6))):
        kinds = ["measure", "destroy", "unitary"] + ["learn"] * bool(pointers)
        kind = draw(st.sampled_from(kinds))
        source = draw(st.sampled_from(sorted(pointers))) if pointers else None
        system = pointers[source] if kind == "learn" \
            else draw(st.sampled_from(names))
        spare = [name for name in fresh if name != system]
        register = draw(st.sampled_from(
            spare if spare and draw(st.integers(0, 9)) else names))
        if kind == "unitary":
            gate = draw(st.sampled_from(sorted(_ARITY)))
            touched = draw(st.permutations(names))[:_ARITY[gate]]
            args = {"gate": gate, "targets": list(touched)}
        elif kind == "learn":
            args = {"learner": draw(st.sampled_from(["L"] * 3 + names)),
                    "source": source, "pointer": register}
            touched = [system, register]
        else:
            args = {"observer": draw(st.sampled_from(["O", "P"] * 3 + names)),
                    "system": [system],
                    "observable": draw(st.sampled_from(sorted(_OBSERVABLES))),
                    "pointer": register}
            touched = [system, register]
        steps.append(Step(kind, f"s{i}", args))
        fresh = [name for name in fresh if name not in touched]
        if kind != "unitary":
            pointers[f"s{i}"] = register
    registers = set(pointers.values())
    factors = {name: draw(st.sampled_from(
        ("zero",) if name in registers and draw(st.integers(0, 9))
        else ("zero", "one", "plus", "minus"))) for name in names}
    return Scenario("random", tuple((name, 2) for name in names),
                    {"kind": "product", "factors": factors}, tuple(steps), ())


@st.composite
def _read_histories(draw):
    """A history that compiles and reads records: q0 recorded in q1, then
    reads of earlier records, measurements of q0 or a register and gates,
    each value step into a fresh register of its own. Few histories from
    :func:`_histories` that compile read a record. In half of them, as in
    three-outcome-meddled, q1 is next measured in the conjugate basis and
    then ``B`` both measures q0 as O did and reads O's destroyed record."""
    observable = st.sampled_from(sorted(_OBSERVABLES))
    first = draw(observable)
    steps = [Step("measure", "s0", {"observer": "O", "system": ["q0"],
                                    "observable": first, "pointer": "q1"})]
    states = ["zero", "one", "plus", "minus"]
    if draw(st.booleans()):
        # q0 unbiased in O's basis, so that B's outcome is O's in one half
        states = states[2:] if first != "pauli-x" else states[:2]
        steps.append(Step("destroy", "meddle", {
            "observer": "M", "system": ["q1"], "observable": "pauli-x",
            "pointer": "m"}))
        steps += draw(st.permutations([
            Step("measure", "b_s", {"observer": "B", "system": ["q0"],
                                    "observable": first, "pointer": "b1"}),
            Step("learn", "b_o", {"learner": "B", "source": "s0",
                                  "pointer": "b2"})]))
    # value-step label -> its register
    registers = {step.label: step.args["pointer"] for step in steps}
    systems = ["q0", *registers.values()]
    for i in range(1, draw(st.integers(1, 4)) + 1):
        systems.append(f"r{i}")
        kind = draw(st.sampled_from(["learn", "learn", "destroy", "unitary"]))
        touched = ["q0", *registers.values()]
        if kind == "learn":
            args = {"learner": f"L{i}", "pointer": f"r{i}",
                    "source": draw(st.sampled_from(sorted(registers)))}
        elif kind == "destroy":
            args = {"observer": f"D{i}", "pointer": f"r{i}",
                    "system": [draw(st.sampled_from(touched))],
                    "observable": draw(observable)}
        else:
            gate = draw(st.sampled_from(sorted(_ARITY)))
            args = {"gate": gate,
                    "targets": draw(st.permutations(touched))[:_ARITY[gate]]}
        steps.append(Step(kind, f"s{i}", args))
        if kind != "unitary":
            registers[f"s{i}"] = f"r{i}"
    factors = {"q0": draw(st.sampled_from(states))}
    return Scenario("reads", tuple((name, 2) for name in systems),
                    {"kind": "product", "factors": factors}, tuple(steps), ())


def _public_api_run(scenario, seed):
    """The steps of ``scenario`` through the public functions, one call at a
    time: the world, and the index and message of the error that stopped
    it, if one did."""
    initial = compile_scenario(Scenario(scenario.name, scenario.systems,
                                        scenario.initial_state, (), ()))
    world = World(initial.space, initial.build_initial(None),
                  np.random.default_rng(seed))
    made = {}
    for i, step in enumerate(scenario.steps):
        args = step.args
        try:
            if step.kind == "unitary":
                world.apply_unitary(_NAMED_GATES[args["gate"]], args["targets"])
            elif step.kind == "learn":
                made[step.label] = learn(world, args["learner"],
                                         made[args["source"]],
                                         pointer=args["pointer"])
            else:
                made[step.label] = record_measurement(
                    world, args["observer"], args["system"],
                    _OBSERVABLES[args["observable"]], pointer=args["pointer"])
        except SimulationError as exc:
            return world, (i, str(exc))
    return world, None


@settings(max_examples=150, deadline=None)
@given(st.one_of(_histories(), _read_histories()), st.integers(0, 2 ** 32 - 1))
def test_compiled_plan_and_public_api_make_the_same_history(scenario, seed):
    api, api_error = _public_api_run(scenario, seed)
    try:
        compiled = compile_scenario(scenario)
    except ScenarioError as exc:
        where = str(exc).split(":")[0]
        if where.startswith("initial_state.factors."):
            # every step planned, but a register does not start in its
            # ground state: the public API refuses the first step that
            # claims such a register
            name = where.rsplit(".", 1)[1]
            assert scenario.initial_state["factors"][name] != "zero"
            assert name in {step.args["pointer"] for step in scenario.steps
                            if step.kind != "unitary"}
            index, message = api_error
            pointer = scenario.steps[index].args["pointer"]
            assert scenario.initial_state["factors"][pointer] != "zero"
            assert message == \
                f"register {pointer!r} must start in its ground state"
            return
        # the plan rejects a step by the rule the public API raises on,
        # unless a trial failed at an earlier step
        index, message = api_error
        assert str(exc) == f"steps[{index}]: {message}" \
            or int(str(exc).split("]")[0].removeprefix("steps[")) > index
        return
    world = World(compiled.space, compiled.build_initial(None),
                  np.random.default_rng(seed))
    # a trial may stop on a check that only a trial can make
    failed = _run_ops(world, compiled)
    labels = [step.label for step in scenario.steps]
    assert api_error == (None if failed is None
                         else (labels.index(failed[0]), str(failed[1])))
    assert [event_record(ev) for ev in world.events] \
        == [event_record(ev) for ev in api.events]
    for observer in {ev.observer for ev in world.events}:
        assert world.ledger(observer) == api.ledger(observer)
    assert np.array_equal(world._state, api._state)
    # re-deriving the history reproduces the incremental state exactly
    assert np.array_equal(world._replay(), world._state)
    if not any(op.hits for op in world._ops if op.event is not None):
        assert np.array_equal(world._replay(range(len(world.events))),
                              world._state)


@settings(max_examples=40, deadline=None)
@given(st.one_of(_histories(), _read_histories()), st.integers(0, 2 ** 32 - 1))
def test_a_read_of_an_intact_record_equals_its_source(scenario, seed):
    # 20 trials as run_trials makes them, sharing one memo; a trial may
    # stop on an error that only a trial can find, but never on a link
    try:
        compiled = compile_scenario(scenario)
    except ScenarioError:
        return
    memo = {}
    for index in range(20):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(index,)))
        world = World(compiled.space, compiled.build_initial(rng), rng)
        world._memo = memo
        failed = _run_ops(world, compiled)
        if failed is not None:
            assert "cross-perspective link violated" not in str(failed[1])
        for ev in world.events:
            if ev.learned_from is not None and not ev.disturbed:
                assert ev.value == world.events[ev.learned_from].value


@settings(max_examples=40, deadline=None)
@given(st.one_of(_histories(), _read_histories()), st.integers(0, 2 ** 32 - 1))
def test_run_trials_on_a_random_history_is_the_same_without_its_memo(
        scenario, seed):
    shared, rebuilt, _ = _run_both_ways(scenario, 20, seed)
    assert shared == rebuilt


# ---------------------------------------------------------------------------
# the cross-perspective links postulate: relative states follow the ledgers
# ---------------------------------------------------------------------------

def _projected_at_the_end(world, ledger, system):
    """The state with no event projected, then the pointer register of each
    event in ``ledger`` projected onto that event's outcome index (its
    entry in the path), reduced to ``system``."""
    index = {op.event.event_id: i for op, i in zip(world._ops, world._path)
             if op.event is not None}
    dims = world.space.dims
    tensor = world._replay(()).reshape(dims).copy()
    for event_id in ledger:
        axis = world.space.axis(world.events[event_id].pointer)
        mask = np.zeros(dims[axis])
        mask[index[event_id]] = 1.0
        tensor *= mask.reshape([-1 if a == axis else 1
                                for a in range(len(dims))])
    amps = tensor.reshape(-1)
    return partial_trace(StateVector(world.space, amps / np.linalg.norm(amps)),
                         (system,)).matrix


def _assert_relative_states_follow_the_ledgers(world):
    """Every observer has a relative state of every other system. Where no
    executed op hit an observer's ledger, projecting its pointers at the
    end gives the same state. An observer ``b`` whose events read exactly
    ``a``'s events shares ``a``'s states of every system but their own."""
    hit = {event_id for op in world._ops for event_id in op.hits}
    observers = sorted({ev.observer for ev in world.events})
    intact = [o for o in observers if hit.isdisjoint(world.ledger(o))]
    states = {}
    for observer in observers:
        for system in world.space.ids:
            if system != observer:
                states[observer, system] = \
                    relative_state(world, observer, (system,)).matrix
    for observer in intact:
        for system in world.space.ids:
            if system != observer:
                oracle = _projected_at_the_end(world, world.ledger(observer),
                                               system)
                assert np.allclose(states[observer, system], oracle,
                                   rtol=0.0, atol=1e-12)
    for a in intact:
        for b in intact:
            mine = {ev.event_id for ev in world.events if ev.observer == a}
            reads = [ev.learned_from for ev in world.events
                     if ev.observer == b]
            if a == b or None in reads or set(reads) != mine:
                continue
            own = {a, b} | {ev.pointer for ev in world.events
                            if ev.observer in (a, b)}
            for system in set(world.space.ids) - own:
                assert np.allclose(states[a, system], states[b, system],
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_relative_states_of_a_builtin_follow_the_ledgers(name):
    compiled = compile_scenario(BUILTIN_SCENARIOS[name]())
    for index in range(100):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=12, spawn_key=(index,)))
        world = World(compiled.space, compiled.build_initial(rng), rng)
        assert _run_ops(world, compiled) is None
        _assert_relative_states_follow_the_ledgers(world)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_histories(), _read_histories()), st.integers(0, 2 ** 32 - 1))
def test_relative_states_of_a_history_follow_the_ledgers(scenario, seed):
    try:
        compiled = compile_scenario(scenario)
    except ScenarioError:
        return
    world = World(compiled.space, compiled.build_initial(None),
                  np.random.default_rng(seed))
    if _run_ops(world, compiled) is None:  # else the history did not run
        _assert_relative_states_follow_the_ledgers(world)


def _summary_or_error(scenario):
    """The summary of a fixed-seed run, or the class and message of the
    error that refused it."""
    try:
        return run_trials(scenario, 20, 3).render_text()
    except SimulationError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(st.one_of(_histories(), _read_histories()))
def test_a_history_round_trips_through_json(scenario):
    document = scenario.to_dict()
    try:
        parsed = Scenario.from_dict(json.loads(json.dumps(document)))
    except ScenarioError as exc:
        # the run refuses the scenario with the same message
        assert _summary_or_error(scenario) == (ScenarioError, str(exc))
        return
    assert parsed.to_dict() == document
    assert _summary_or_error(parsed) == _summary_or_error(scenario)


# ---------------------------------------------------------------------------
# exact walk of the outcome paths
# ---------------------------------------------------------------------------

def exact_leaves(scenario):
    """Every outcome path of ``scenario``, walked through the simulator with
    forced outcomes: one ``(weight, world)`` per leaf. A leaf's weight is
    the product of ``p / total`` over its measurements, with the sampler's
    ``ZERO_PROBABILITY`` cut; the forced worlds share one memo. A Haar
    factor is drawn in every trial, so no walk covers it: it is refused."""
    compiled = compile_scenario(scenario)
    if compiled._static_initial is None:
        raise ValueError(f"{scenario.name}: the initial state is drawn "
                         "in every trial")
    memo, leaves = {}, []

    def walk(path, weight):
        world = World(compiled.space, compiled._static_initial, 0)
        world._memo = memo
        forced = iter(path)
        for _, op in compiled.steps:
            if op.event is None:
                world._unitary(op)
                continue
            probs = world._couple(op)
            index = next(forced, None)
            if index is None:  # the path ends here: branch on each level
                total = sum(p for p in probs if p > ZERO_PROBABILITY)
                for i, p in enumerate(probs):
                    if p > ZERO_PROBABILITY:
                        walk(path + (i,), weight * p / total)
                return
            world._settle(op, index)
        leaves.append((weight, world))

    walk((), 1.0)
    return leaves


def abl_scenario(tsv, obs):
    """The pre- and post-selection document of ``tsv``: ``S`` starts in
    ``pre``, gate ``u1``, ``M`` measures ``obs``, gate ``u2``, then ``F``
    measures ``|post⟩⟨post|``, whose outcome index 0 is the postselection
    (its eigenvalue can read 0.9999999999999999)."""
    d = tsv.pre.space.total_dim
    space = CompositeSpace([("S", d), ("M", d), ("F", 2)])
    post = tsv.post.amplitudes
    amps = np.kron(tsv.pre.amplitudes, np.eye(2 * d)[0])  # M and F in |0⟩

    def gate(name, u):
        return Step("unitary", name, {"gate": {"name": name,
                                               "matrix": matrix_payload(u)},
                                      "targets": ["S"]})

    return Scenario("abl", space.subsystems, StateVector(space, amps), (
        gate("u1", tsv.u1),
        Step("measure", "mid", {"observer": "M", "system": ["S"],
                                "observable": obs}),
        gate("u2", tsv.u2),
        Step("measure", "fin", {"observer": "F", "system": ["S"],
                                "observable": ObservableSpec.from_matrix(
                                    "post", np.outer(post, post.conj()))})),
        ())


def exact_abl(tsv, obs) -> dict[float, float]:
    """The exact P(mid = v | fin = post) of :func:`abl_scenario`."""
    kept = [(w, world.events[0].value)
            for w, world in exact_leaves(abl_scenario(tsv, obs))
            if world.events[1].outcome == 0]
    accepted = sum(w for w, _ in kept)
    return {v: sum(w for w, mid in kept if mid == v) / accepted
            for v in obs.eigenvalues}


# the three-outcome built-ins draw their initial state in every trial, so
# no one walk covers their outcome paths
DRAWN_PER_TRIAL = ("three-outcome", "three-outcome-meddled")
STATIC_BUILTINS = sorted(set(BUILTIN_SCENARIOS) - set(DRAWN_PER_TRIAL))


def test_the_walk_refuses_the_builtins_whose_state_is_drawn_per_trial():
    for name in DRAWN_PER_TRIAL:
        with pytest.raises(ValueError, match="drawn in every trial"):
            exact_leaves(BUILTIN_SCENARIOS[name]())


@pytest.mark.parametrize("name", STATIC_BUILTINS)
def test_every_declared_rate_of_a_static_builtin_is_exact(name):
    scenario = BUILTIN_SCENARIOS[name]()
    leaves = exact_leaves(scenario)
    assert abs(sum(w for w, _ in leaves) - 1.0) <= 1e-12
    counts = [acc for acc in compile_scenario(scenario).accumulators
              if isinstance(acc, scenarios._Count)]
    assert counts
    for acc in counts:
        rate = sum(w for w, world in leaves if acc.reading(acc.args, world))
        if acc.param is None:  # ``exists``
            assert rate > 0.0, acc.check.name()
            continue
        expected = acc.args[acc.param] if isinstance(acc.param, str) \
            else acc.param
        assert abs(rate - expected) <= 1e-12, acc.check.name()


@pytest.mark.parametrize("name", STATIC_BUILTINS)
def test_every_sampled_trial_is_a_leaf_of_the_walk(name):
    n, scenario = 2000, BUILTIN_SCENARIOS[name]()
    leaves = exact_leaves(scenario)
    records = [[event_record(ev) for ev in world.events] for _, world in leaves]
    counts = [0] * len(leaves)

    def tally(trace):  # a trial that is no leaf raises here
        counts[records.index(trace.events)] += 1

    run_trials(scenario, n, 7, trace_callback=tally)
    assert sum(counts) == n
    for (weight, _), count in zip(leaves, counts):
        sigma = math.sqrt(weight * (1.0 - weight) / n)
        assert abs(count / n - weight) <= 3.0 * sigma + 1e-12, (weight, count)


def test_a_forced_outcome_of_zero_probability_is_refused():
    space = CompositeSpace([("S", 2), ("A", 2)])
    z = ObservableSpec.from_matrix("pauli-z", PAULI_Z)
    memo = {}
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    worlds = [World(space, StateVector(space, ket00), 0) for _ in range(2)]
    for world in worlds:
        world._memo = memo
        assert world._couple(
            world._plan().measurement("A", ("S",), z, None)) == [1.0, 0.0]
    before = worlds[0].rng.bit_generator.state
    assert worlds[0]._settle(worlds[0]._ops[0], 0).value == 1.0
    assert worlds[0].rng.bit_generator.state == before  # nothing was drawn
    with pytest.raises(ImpossibleOutcomeError):
        worlds[1]._settle(worlds[1]._ops[0], z.eigenvalues.index(-1.0))
    assert set(memo) == {(None,), (0,)}
    # the refused world is left coupled, so it can settle the other level
    assert worlds[1]._settle(worlds[1]._ops[0], 0).value == 1.0
