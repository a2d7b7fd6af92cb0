"""Acceptance suite: one test per top-level criterion, each printing a
pass line with the measured quantities (run pytest with -s or -rA to see
them). Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from rqmsim.dynamics import (
    IdealClock,
    TwoStateVector,
    abl_oracle_check,
    abl_probability,
    disturbance_profile,
    disturbance_world_template,
    history_state,
    pw_probability,
    stable_fact_grid,
)
from rqmsim.qcore import (
    CompositeSpace,
    ObservableSpec,
    PAULI_X,
    PAULI_Z,
    StateVector,
    born_probabilities,
    identity,
)
from rqmsim.scenarios import (
    BUILTIN_SCENARIOS,
    Scenario,
    build_frauchiger_renner,
    build_three_outcome_intersubjectivity,
    frauchiger_renner_exact,
    run_trials,
)

Z_OBS = ObservableSpec.from_matrix("pauli-z", PAULI_Z)
X_OBS = ObservableSpec.from_matrix("pauli-x", PAULI_X)


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS  ({detail})")


# A time bound is on the process's CPU time, not on the wall clock: tests load
# BLAS on one thread, so CPU time is the code's own cost, and a busy host
# does not stretch it.

@pytest.fixture(scope="module")
def three_outcome_stats():
    """The run's stats and the CPU seconds it took."""
    scenario = build_three_outcome_intersubjectivity()  # haar state per trial
    start = time.process_time()
    stats = run_trials(scenario, 10_000, master_seed=20_240)
    return stats, time.process_time() - start


def test_criterion_1_internal_consistency(three_outcome_stats):
    stats, cpu_seconds = three_outcome_stats
    icd = [c for c in stats.checks if c.kind == "agree"][0]  # m_b_s vs m_b_a
    assert icd.observed == 1.0
    assert cpu_seconds < 30.0
    _report("internal consistency",
            f"agreement {icd.observed:.4f} over {stats.trials} random-state "
            f"trials in {cpu_seconds:.1f}s of CPU")


def test_criterion_2_cross_perspective_links(three_outcome_stats):
    cpl = [c for c in three_outcome_stats[0].checks if c.kind == "agree"][1]
    assert cpl.observed == 1.0  # undisturbed: exact agreement

    meddled = run_trials(
        build_three_outcome_intersubjectivity(initial="plus", meddler=True),
        100_000, master_seed=20_241)
    agree = [c for c in meddled.checks if c.kind == "agree"][1]
    assert abs(agree.observed - 0.5) <= 0.015
    _report("cross-perspective links",
            f"undisturbed {cpl.observed:.4f}, meddled {agree.observed:.4f} "
            f"at {meddled.trials} trials")


def test_criterion_3_frauchiger_renner():
    exact = frauchiger_renner_exact()
    assert abs(exact - 1.0 / 12.0) < 1e-12

    start = time.process_time()
    stats = run_trials(build_frauchiger_renner(), 100_000, master_seed=20_242)
    cpu_seconds = time.process_time() - start
    joint = [c for c in stats.checks if c.kind == "joint_frequency"][0]
    assert abs(joint.observed - 0.0833) <= 0.003
    assert stats.all_passed
    assert cpu_seconds < 60.0
    _report("frauchiger-renner",
            f"exact {exact:.12f}, sampled {joint.observed:.5f} "
            f"in {cpu_seconds:.1f}s of CPU")


def test_criterion_4_stable_facts():
    overlaps = list(np.linspace(1.0, 0.0, 10))
    amps = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    rows = stable_fact_grid(amps, overlaps, X_OBS, Z_OBS)
    deficits = [eps for _, eps in rows]
    assert deficits[-1] < 1e-10                        # full decoherence
    assert abs(deficits[0] - 0.5) < 1e-10              # fully coherent
    assert all(deficits[i + 1] <= deficits[i] + 1e-12  # monotone on the grid
               for i in range(len(deficits) - 1))
    _report("stable facts",
            f"deficit 0.5 -> {deficits[-1]:.2e} over a {len(rows)}-point "
            "overlap grid, monotone")


def test_criterion_5_disturbance_relation():
    template = disturbance_world_template()
    strengths = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    trials = 20_000
    rows = disturbance_profile(template, Z_OBS, X_OBS, strengths, trials,
                               master_seed=20_243)
    fidelities = [f for _, f in rows]
    assert fidelities[0] == 1.0
    for a, b in zip(fidelities, fidelities[1:]):
        slack = 3.0 * math.sqrt((a * (1 - a) + b * (1 - b)) / trials + 1e-12)
        assert b <= a + slack

    endpoint = disturbance_profile(template, Z_OBS, X_OBS, [1.0], 100_000,
                                   master_seed=20_244)
    assert abs(endpoint[0][1] - 0.5) <= 0.015

    commuting = disturbance_profile(template, Z_OBS, Z_OBS,
                                    [0.0, 0.25, 0.5, 0.75, 1.0], 2000,
                                    master_seed=20_245)
    assert all(f == 1.0 for _, f in commuting)
    _report("disturbance relation",
            f"curve {fidelities} monotone, endpoint {endpoint[0][1]:.4f}, "
            "commuting probe flat at 1.0")


def test_criterion_6_abl_rule():
    rng = np.random.default_rng(20_246)
    worst = 0.0
    space = CompositeSpace([("S", 2)])
    for k in range(50):
        pre = rng.normal(size=2) + 1j * rng.normal(size=2)
        post = rng.normal(size=2) + 1j * rng.normal(size=2)
        u1, _ = np.linalg.qr(rng.normal(size=(2, 2))
                             + 1j * rng.normal(size=(2, 2)))
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2))
                             + 1j * rng.normal(size=(2, 2)))
        tsv = TwoStateVector(
            StateVector(space, pre / np.linalg.norm(pre)),
            StateVector(space, post / np.linalg.norm(post)), u1, u2)
        analytic = abl_probability(tsv, Z_OBS)

        # acceptance probability fixes the Monte Carlo resolution
        mid = tsv.u1 @ tsv.pre.amplitudes
        p_accept = 0.0
        for proj in Z_OBS.projectors:
            branch = proj @ mid
            weight = float(np.vdot(branch, branch).real)
            if weight > 1e-12:
                amp = np.vdot(tsv.post.amplitudes,
                              tsv.u2 @ (branch / math.sqrt(weight)))
                p_accept += weight * abs(amp) ** 2
        trials = int(30_000 / max(p_accept, 0.05))
        accepted = trials * p_accept
        sigma = max(math.sqrt(p * (1 - p) / accepted)
                    for p in analytic.values())
        deviation = abl_oracle_check(tsv, Z_OBS, trials, seed=777 + k)
        assert deviation <= 3.0 * sigma + 5.0 / accepted
        worst = max(worst, deviation - 3.0 * sigma)

        mirrored = abl_probability(tsv.time_reversed(), Z_OBS)
        for value in analytic:
            assert abs(analytic[value] - mirrored[value]) < 1e-10
    _report("abl rule", "50 random two-state vectors within 3 sigma of the "
                        "sampling oracle; time-reversal exact")


def test_criterion_7_page_wootters():
    clock = IdealClock(8)
    hamiltonian = (math.pi / 4.0) * PAULI_X
    space = CompositeSpace([("S", 2)])
    initial = StateVector(space, np.array([1.0, 0.0], dtype=complex))
    constraint = history_state(clock, initial, hamiltonian)
    theta = math.pi / 4.0
    step = math.cos(theta) * identity(2) - 1j * math.sin(theta) * PAULI_X
    psi = initial.amplitudes.copy()
    worst = 0.0
    for t in range(8):
        conditional = pw_probability(constraint, clock, t, Z_OBS, "S")
        direct = born_probabilities(StateVector(space, psi), Z_OBS, ["S"])
        for value in direct:
            worst = max(worst, abs(conditional[value] - direct[value]))
        psi = step @ psi
    assert worst <= 1e-9
    _report("page-wootters",
            f"conditional probabilities track the evolved state, worst "
            f"deviation {worst:.2e} over 8 readings")


def test_criterion_8_determinism_and_roundtrip():
    for name, builder in BUILTIN_SCENARIOS.items():
        scenario = builder()
        first, second = [], []
        run_trials(scenario, 3, 31_415, trace_callback=first.append)
        run_trials(scenario, 3, 31_415, trace_callback=second.append)
        lines_a = [json.dumps(ev) for tr in first for ev in tr.events]
        lines_b = [json.dumps(ev) for tr in second for ev in tr.events]
        assert lines_a == lines_b, name

        parsed = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert parsed.steps == scenario.steps, name
        assert parsed.checks == scenario.checks, name
    _report("determinism and round-trip",
            f"{len(BUILTIN_SCENARIOS)} built-ins replay byte-identically and "
            "survive serialize -> parse")
