import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqmsim import cli
from rqmsim.cli import main, parse_scenario_file
from rqmsim.errors import ScenarioError
from rqmsim.eventgraph import EVENT_FIELDS
from rqmsim.qcore import ObservableSpec
from rqmsim.scenarios import build_frauchiger_renner
from test_scenarios import EVERY_KIND

MINIMAL = json.dumps({
    "format_version": 1,
    "name": "minimal",
    "systems": [["S", 2], ["A", 2]],
    "initial_state": {"kind": "product", "factors": {"S": "zero"}},
    "steps": [{"kind": "measure", "label": "m", "observer": "A",
               "system": ["S"], "observable": "pauli-z", "pointer": "A"}],
    "checks": [{"kind": "frequency", "step": "m", "value": 1.0,
                "expected": 1.0, "z": 3.0}],
})

# two complementary measurements can never always agree: guaranteed failure
FAILING = json.dumps({
    "format_version": 1,
    "name": "impossible",
    "systems": [["S", 2], ["A", 2], ["B", 2]],
    "initial_state": {"kind": "product", "factors": {"S": "plus"}},
    "steps": [
        {"kind": "measure", "label": "mz", "observer": "A", "system": ["S"],
         "observable": "pauli-z", "pointer": "A"},
        {"kind": "measure", "label": "mx", "observer": "B", "system": ["S"],
         "observable": "pauli-x", "pointer": "B"},
    ],
    "checks": [{"kind": "agree", "steps": ["mz", "mx"],
                "expected_rate": 1.0, "z": 3.0}],
})


def test_minimal_file_parses_to_one_step():
    scenario = parse_scenario_file(MINIMAL)
    assert scenario.name == "minimal"
    assert len(scenario.steps) == 1
    assert scenario.steps[0].kind == "measure"


def test_syntax_errors_report_position():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario_file("{not json")


def test_list_shows_builtins(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("three-outcome", "frauchiger-renner", "wigner-friend",
                 "disturbance-profile", "stable-facts-grid"):
        assert name in out


def test_validate_accepts_good_file(tmp_path, capsys):
    path = tmp_path / "ok.scn"
    path.write_text(MINIMAL, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert "ok: minimal" in capsys.readouterr().out


def test_validate_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("{]", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_rejects_semantic_errors(tmp_path, capsys):
    payload = json.loads(MINIMAL)
    payload["steps"][0]["system"] = ["Q"]
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "'Q'" in capsys.readouterr().err


# MINIMAL plus a read of its record, a link check and a consistency check
LINKED = json.loads(MINIMAL)
LINKED["systems"] += [["B", 2], ["W1", 2], ["W2", 2]]
LINKED["steps"] += [
    {"kind": "learn", "label": "l", "learner": "B", "source": "m"},
    {"kind": "check_cpl", "label": "c", "source": "m", "learn": "l"},
    {"kind": "check_icd", "label": "i", "w": "W", "s": "S", "f": "A",
     "observable": "pauli-z", "pointers": ["W1", "W2"]},
]

# check entries that must be rejected before any trial runs, as checks[1]
# of LINKED
MALFORMED_CHECKS = {
    "frequency-without-expected": {"kind": "frequency", "step": "m",
                                   "value": 1.0},
    "frequency-without-step": {"kind": "frequency", "value": 1.0,
                               "expected": 1.0},
    "deficit-without-max": {"kind": "deficit_below", "system": "S",
                            "q_observable": "pauli-x",
                            "v_observable": "pauli-z"},
    "agree-with-one-step": {"kind": "agree", "steps": ["m"]},
    "joint-frequency-truncated": {"kind": "joint_frequency",
                                  "steps": ["m", "m"], "values": [1.0],
                                  "expected": 1.0},
    "boolean-z": {"kind": "frequency", "step": "m", "value": 1.0,
                  "expected": 1.0, "z": True},
    "string-expected": {"kind": "frequency", "step": "m", "value": 1.0,
                        "expected": "0.5"},
    "purity-without-bounds": {"kind": "purity", "observer": "W",
                              "targets": ["S"]},
    "step-true-unknown-field": {"kind": "step_true", "step": "c",
                                "field": "foo"},
    "step-true-link-without-field": {"kind": "step_true", "step": "c",
                                     "expected_rate": 0},
    "step-true-consistency-with-field": {"kind": "step_true", "step": "i",
                                         "field": "agree"},
    "purity-observer-is-a-list": {"kind": "purity", "observer": ["W"],
                                  "targets": ["S"], "min": 0.0},
    "deficit-observer-is-a-list": {"kind": "deficit_below", "system": "S",
                                   "q_observable": "pauli-x",
                                   "v_observable": "pauli-z", "max": 1.0,
                                   "observer": ["W"]},
    "deficit-on-an-unrecorded-system": {"kind": "deficit_below",
                                        "system": "B",
                                        "q_observable": "pauli-x",
                                        "v_observable": "pauli-z",
                                        "max": 1.0},
    "deficit-in-an-unrecorded-basis": {"kind": "deficit_below",
                                       "system": "S",
                                       "q_observable": "pauli-z",
                                       "v_observable": "pauli-x",
                                       "max": 1.0},
    # no run could pass these: a rate outside [0, 1] or a negative z
    "expected-above-one": {"kind": "frequency", "step": "m", "value": 1.0,
                           "expected": 1.5},
    "negative-joint-expected": {"kind": "joint_frequency",
                                "steps": ["m", "l"], "values": [1.0, 1.0],
                                "expected": -0.5},
    "negative-expected-rate": {"kind": "agree", "steps": ["m", "l"],
                               "expected_rate": -0.1},
    "expected-rate-above-one": {"kind": "step_true", "step": "i",
                                "expected_rate": 2},
    "negative-z": {"kind": "frequency", "step": "m", "value": 1.0,
                   "expected": 1.0, "z": -3.0},
    # an id list may not repeat an id: a purity on ["S", "S"] failed in
    # every run, and a record listed twice counted as two votes
    "purity-targets-repeat": {"kind": "purity", "observer": "W",
                              "targets": ["S", "S"], "min": 0.0},
    "aggregate-constituents-repeat": {"kind": "aggregate_defined",
                                      "constituents": ["A", "A", "B"],
                                      "observable": "pauli-z"},
    "aggregate-frequency-constituents-repeat": {
        "kind": "aggregate_frequency", "constituents": ["A", "B", "A"],
        "observable": "pauli-z", "value": 1.0, "expected": 1.0},
    # a relative state is of other systems than its observer: each once
    # passed validate and failed in trial 0
    "purity-observer-is-a-target": {"kind": "purity", "observer": "S",
                                    "targets": ["S"], "min": 0.0},
    "deficit-observer-is-the-system": {"kind": "deficit_below",
                                       "system": "S",
                                       "q_observable": "pauli-x",
                                       "v_observable": "pauli-z",
                                       "max": 1.0, "observer": "S"},
    # a purity and a deficit lie in [0, 1]: a bound outside it failed every
    # run, or held in every run
    "purity-min-above-one": {"kind": "purity", "observer": "W",
                             "targets": ["S"], "min": 2},
    "negative-purity-max": {"kind": "purity", "observer": "W",
                            "targets": ["S"], "max": -0.1},
    "negative-deficit-max": {"kind": "deficit_below", "system": "S",
                             "q_observable": "pauli-x",
                             "v_observable": "pauli-z", "max": -1},
    "huge-deficit-max": {"kind": "deficit_below", "system": "S",
                         "q_observable": "pauli-x",
                         "v_observable": "pauli-z", "max": 1e308},
}

# step entries that must be rejected before any trial runs, as steps[4]
# of LINKED
MALFORMED_STEPS = {
    "link-learns-from-a-measurement": {"kind": "check_cpl", "source": "m",
                                       "learn": "m"},
    "link-learn-reads-another-record": {"kind": "check_cpl", "source": "l",
                                        "learn": "l"},
    "pointer-reused": {"kind": "measure", "observer": "B", "system": ["S"],
                       "observable": "pauli-x", "pointer": "A"},
    "default-pointer-reused": {"kind": "destroy", "observer": "A",
                               "system": ["S"], "observable": "pauli-x"},
    "learn-pointer-reused": {"kind": "learn", "learner": "V", "source": "m",
                             "pointer": "W2"},
    "environment-reused": {"kind": "decohere", "system": "S",
                           "environment": ["B"], "basis": "pauli-z",
                           "overlap": 0.0},
    "consistency-pointers-repeat": {"kind": "check_icd", "w": "V", "s": "S",
                                    "f": "A", "observable": "pauli-z",
                                    "pointers": ["W1", "W1"]},
}

# LINKED plus a spare qutrit Q and a spare qubit E
SPARE = copy.deepcopy(LINKED)
SPARE["systems"] += [["Q", 3], ["E", 2]]

# steps that no trial could run, appended to SPARE: each must be rejected
# as the last step, before any trial runs
UNRUNNABLE_STEPS = {
    "non-unitary-gate": [{"kind": "unitary", "targets": ["S"],
                          "gate": {"name": "shear",
                                   "matrix": [[1, 1], [0, 1]]}}],
    "qutrit-environment": [{"kind": "decohere", "system": "S",
                            "environment": ["Q"], "basis": "pauli-z",
                            "overlap": 0.0}],
    "one-outcome-basis": [{"kind": "decohere", "system": "S",
                           "environment": ["E"],
                           "basis": {"name": "one",
                                     "matrix": [[1, 0], [0, 1]]},
                           "overlap": 0.0}],
    "pointer-too-small": [{"kind": "measure", "observer": "V",
                           "system": ["Q"], "observable": "computational",
                           "pointer": "E"}],
    "pointer-is-a-target": [{"kind": "measure", "observer": "V",
                             "system": ["E"], "observable": "pauli-z",
                             "pointer": "E"}],
    "observer-is-a-target": [{"kind": "measure", "observer": "E",
                              "system": ["E"], "observable": "pauli-z",
                              "pointer": "Q"}],
    "learn-pointer-too-small": [
        {"kind": "measure", "label": "mq", "observer": "V", "system": ["S"],
         "observable": "pauli-z", "pointer": "Q"},
        {"kind": "learn", "learner": "U", "source": "mq", "pointer": "E"}],
    "learn-own-record": [{"kind": "learn", "learner": "A", "source": "m",
                          "pointer": "E"}],
    "consistency-without-a-record": [
        {"kind": "check_icd", "w": "V", "s": "S", "f": "B",
         "observable": "pauli-x", "pointers": ["E", "Q"]}],
    "consistency-observer-is-the-system": [
        {"kind": "check_icd", "w": "S", "s": "S", "f": "A",
         "observable": "pauli-z", "pointers": ["E", "Q"]}],
    "consistency-reads-its-own-record": [
        {"kind": "check_icd", "w": "A", "s": "S", "f": "A",
         "observable": "pauli-z", "pointers": ["E", "Q"]}],
    "observable-name-reused": [
        {"kind": "measure", "label": "qz", "observer": "V", "system": ["S"],
         "observable": {"name": "q", "matrix": [[1, 0], [0, -1]]},
         "pointer": "E"},
        {"kind": "measure", "observer": "U", "system": ["S"],
         "observable": {"name": "q", "matrix": [[0, 1], [1, 0]]},
         "pointer": "Q"}],
    "observer-is-a-list": [{"kind": "measure", "observer": ["V"],
                            "system": ["S"], "observable": "pauli-z",
                            "pointer": "E"}],
    "learner-is-a-list": [{"kind": "learn", "learner": ["V"], "source": "m",
                           "pointer": "E"}],
    "consistency-observer-is-a-list": [
        {"kind": "check_icd", "w": ["V"], "s": "S", "f": "A",
         "observable": "pauli-z", "pointers": ["E", "Q"]}],
    # a Z measurement of |0> whose values would not be those of Z
    "observable-takes-a-builtin-name": [
        {"kind": "measure", "observer": "V", "system": ["S"],
         "observable": {"name": "pauli-z", "matrix": [[0, 1], [1, 0]]},
         "pointer": "E"}],
    "observable-takes-a-builtin-alias": [
        {"kind": "measure", "observer": "V", "system": ["S"],
         "observable": {"name": "Computational",
                        "matrix": [[1, 0], [0, 0]]},
         "pointer": "E"}],
    # a repeated target id: each once ended in a numpy error
    "gate-targets-repeat": [{"kind": "unitary", "gate": "cnot",
                             "targets": ["E", "E"]}],
    "environment-is-the-system": [{"kind": "decohere", "system": "E",
                                   "environment": ["E"],
                                   "basis": "pauli-z", "overlap": 0.0}],
}

# consistency checks whose friend's record was made by an earlier
# consistency check or by a learn step, appended to SPARE
EARLIER_RECORDS = {
    "record-of-a-check": {"kind": "check_icd", "w": "V", "s": "S", "f": "W",
                          "observable": "pauli-z", "pointers": ["E", "Q"]},
    "record-of-a-learn": {"kind": "check_icd", "w": "V", "s": "A", "f": "B",
                          "observable": "computational",
                          "pointers": ["E", "Q"]},
}

NAN, INF = float("nan"), float("inf")
BIG = 1e308  # finite, but its square is not


def _set(keys, value):
    def edit(payload):
        *parents, last = keys
        for key in parents:
            payload = payload[key]
        payload[last] = value
    return edit


def _append_step(step):
    def edit(payload):
        payload["steps"].append(step)
    return edit


def _edits(*edits):
    def edit(payload):
        for one in edits:
            one(payload)
    return edit


# edits of LINKED whose bad value must be rejected with its path
MALFORMED_CELLS = {
    "nan-amplitude": (_set(("initial_state", "factors", "S"), [NAN, 1.0]),
                      "initial_state.factors.S[0]"),
    "infinite-imaginary-part": (
        _set(("initial_state", "factors", "S"), [1.0, [0.0, -INF]]),
        "initial_state.factors.S[1]"),
    "boolean-amplitude": (_set(("initial_state", "factors", "S"),
                               [True, 0.0]), "initial_state.factors.S[0]"),
    "nan-observable-matrix": (
        _set(("steps", 0, "observable"),
             {"name": "q", "matrix": [[1.0, 0.0], [0.0, NAN]]}),
        "steps[0].observable.matrix[1][1]"),
    "boolean-in-a-pair": (
        _set(("steps", 3, "observable"),
             {"name": "q", "matrix": [[[0.0, False], 1.0], [1.0, 0.0]]}),
        "steps[3].observable.matrix[0][0]"),
    "observer-is-a-list": (_set(("steps", 0, "observer"), ["A"]), "steps[0]"),
    "observable-name-is-a-list": (
        _set(("steps", 0, "observable"),
             {"name": ["q"], "matrix": [[1, 0], [0, -1]]}),
        "steps[0].observable"),
    "boolean-dimension": (_set(("systems", 1), ["A", True]), "systems[1]"),
    "register-starts-in-plus": (_set(("initial_state", "factors", "B"),
                                     "plus"), "initial_state.factors.B"),
    "register-starts-haar": (_set(("initial_state", "factors", "W1"),
                                  "haar"), "initial_state.factors.W1"),
    "register-starts-excited": (_set(("initial_state", "factors", "A"),
                                     [0.0, 1.0]), "initial_state.factors.A"),
    # S, A, B, W1, W2 with W2 in |1>: amplitude 1 of 32
    "register-excited-in-amplitudes": (
        _set(("initial_state",), {"kind": "amplitudes",
                                  "values": [0.0, 1.0] + [0.0] * 30}),
        "initial_state.values"),
    "name-is-a-number": (_set(("name",), 5), "name"),
    "name-is-a-list": (_set(("name",), ["x"]), "name"),
    "name-is-null": (_set(("name",), None), "name"),
    "format-version-true": (_set(("format_version",), True),
                            "format_version"),
    "format-version-float": (_set(("format_version",), 1.0),
                             "format_version"),
    "duplicate-system-id": (_set(("systems", 1), ["S", 2]), "systems"),
    "dimension-one": (_set(("systems", 1), ["A", 1]), "systems"),
    "total-dimension-above-the-cap": (_set(("systems", 1), ["A", 1024]),
                                      "systems"),
    # S twice, into a pointer large enough for its four outcomes: once a
    # numpy error
    "measured-systems-repeat": (
        _edits(_set(("systems", 1), ["A", 4]),
               _set(("steps", 0, "system"), ["S", "S"]),
               _set(("steps", 0, "observable"), "computational")),
        "steps[0]"),
    "steps-is-a-mapping": (_set(("steps",), {}), "steps"),
    # B made a qutrit, measured in place of S
    "pauli-on-a-qutrit": (
        _edits(_set(("systems", 2), ["B", 3]),
               _set(("steps", 0, "system"), ["B"])),
        "steps[0].observable"),
    "observable-matrix-wrong-size": (
        _set(("steps", 0, "observable"),
             {"name": "q", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        "steps[0].observable"),
    "observable-not-hermitian": (
        _set(("steps", 0, "observable"),
             {"name": "q", "matrix": [[0, 1], [0, 0]]}),
        "steps[0].observable"),
    "observable-matrix-empty": (
        _set(("steps", 0, "observable"), {"name": "q", "matrix": []}),
        "steps[0].observable"),
    "observable-matrix-ragged": (
        _set(("steps", 0, "observable"),
             {"name": "q", "matrix": [[1, 0], [0]]}),
        "steps[0].observable"),
    "haar-in-amplitudes": (
        _set(("initial_state",), {"kind": "amplitudes", "values": "haar"}),
        "initial_state.values"),
    "plus-on-a-qutrit": (
        _edits(_set(("systems", 0), ["S", 3]),
               _set(("initial_state", "factors", "S"), "plus")),
        "initial_state.factors.S"),
    "unknown-state-name": (_set(("initial_state", "factors", "S"), "up"),
                           "initial_state.factors.S"),
    "wrong-amplitude-count": (
        _set(("initial_state", "factors", "S"), [1.0, 0.0, 0.0]),
        "initial_state.factors.S"),
    "state-is-a-number": (_set(("initial_state", "factors", "S"), 1),
                          "initial_state.factors.S"),
    "label-is-a-number": (_set(("steps", 0, "label"), 5), "steps[0]"),
    "label-repeats": (_set(("steps", 1, "label"), "m"), "steps[1]"),
    "initial-state-is-a-string": (_set(("initial_state",), "zero"),
                                  "initial_state"),
    "factors-is-a-list": (_set(("initial_state", "factors"), []),
                          "initial_state"),
    "unknown-initial-state-kind": (_set(("initial_state",), {"kind": "mixed"}),
                                   "initial_state"),
    "unknown-gate-name": (
        _set(("steps", 3), {"kind": "unitary", "targets": ["S"],
                            "gate": "toffoli"}),
        "steps[3]"),
    "gate-is-a-number": (
        _set(("steps", 3), {"kind": "unitary", "targets": ["S"], "gate": 1}),
        "steps[3]"),
    "observable-is-a-number": (_set(("steps", 0, "observable"), 5),
                               "steps[0].observable"),
    "factor-of-an-undeclared-system": (
        _set(("initial_state", "factors", "Q"), "plus"), "initial_state"),
    "two-qubit-gate-on-one-qubit": (
        _set(("steps", 3), {"kind": "unitary", "targets": ["S"],
                            "gate": "cnot"}),
        "steps[3]"),
    "clock-is-a-mapping": (_set(("steps", 0, "clock"), {"a": 1}), "steps[0]"),
}

# edits of LINKED with a finite number too large to square, with the start of
# the one error line they give; each once printed numpy's overflow warnings
# before it
OVERFLOWING_CELLS = {
    "amplitudes": (_set(("initial_state", "factors", "S"), [BIG, BIG]),
                   "initial_state.factors.S: state norm inf"),
    "gate-cell": (
        _set(("steps", 3), {"kind": "unitary", "targets": ["S"],
                            "gate": {"name": "g",
                                     "matrix": [[BIG, 0], [0, 1]]}}),
        "steps[3]: interaction operator is not unitary"),
    "observable-cell": (
        _set(("steps", 0, "observable"),
             {"name": "q", "matrix": [[0, BIG], [BIG, 0]]}),
        "steps[0].observable: invalid observable: projectors of 'q'"),
}


# numbers at the float edges, edits of MINIMAL with a spare qubit E: the
# start of the one error line a refused document gives, or None for a
# document that is accepted
FLOAT_EDGES = {
    "subnormal-amplitude": (_set(("initial_state", "factors", "S"),
                                 [5e-324, 1]), None),
    "negative-zero-amplitude": (_set(("initial_state", "factors", "S"),
                                     [-0.0, 1]), None),
    "edge-cells-in-a-gate": (
        _append_step({"kind": "unitary", "targets": ["S"],
                      "gate": {"name": "g",
                               "matrix": [[-0.0, 1], [1, 5e-324]]}}), None),
    "edge-cells-in-an-observable": (
        _set(("steps", 0, "observable"),
             {"name": "q", "matrix": [[1, 5e-324], [-0.0, -1]]}), None),
    # its values, not 1, reach the event stream
    "largest-eigenvalues": (
        _set(("steps", 0, "observable"),
             {"name": "q", "matrix": [[BIG, 0], [0, -BIG]]}), None),
    "subnormal-overlap": (
        _append_step({"kind": "decohere", "system": "S", "environment": ["E"],
                      "basis": "pauli-z", "overlap": 5e-324}), None),
    "largest-cells-in-an-observable": (
        _set(("steps", 0, "observable"),
             {"name": "q", "matrix": [[BIG, BIG], [BIG, BIG]]}),
        "steps[0].observable: invalid observable: projectors of 'q' do not "
        "reconstruct the operator"),
}


# texts that no scenario can be parsed from, with the start of the one error
# line they give
UNPARSABLE = {
    "syntax-error": ("{]", "syntax error at line 1 column 2"),
    "top-level-list": ("[]", "scenario document must be a mapping"),
    # once a RecursionError traceback out of json.loads
    "nested-too-deep": (
        MINIMAL.replace(json.dumps(json.loads(MINIMAL)["initial_state"]),
                        "[" * 1000 + "]" * 1000),
        "the document nests too deeply"),
    # once a ValueError traceback out of json.loads
    "integer-too-long": (MINIMAL.replace('"expected": 1.0',
                                         '"expected": ' + "1" * 5000),
                         "a number in the document has too many digits"),
}


def _linked_text(observable, cell="[]"):
    """LINKED with its first observable set, as JSON text; the text ``cell``
    replaces the string "cell", so it may nest deeper than json.dumps goes."""
    payload = copy.deepcopy(LINKED)
    payload["steps"][0]["observable"] = observable
    return json.dumps(payload).replace('"cell"', cell)


def _long_id_text(sysid):
    """MINIMAL with a register ``sysid`` that starts in |+>, as JSON text."""
    payload = json.loads(MINIMAL)
    payload["systems"].append([sysid, 2])
    payload["initial_state"]["factors"][sysid] = "plus"
    payload["steps"][0]["pointer"] = sysid
    return json.dumps(payload)


# documents whose bad value is too long to echo whole, with the path that
# starts their error line; each once printed the whole value
LONG_VALUES = {
    "long-list-in-a-cell": (
        _linked_text({"name": "q", "matrix": [[list(range(5000)), 0], [0, 1]]}),
        "steps[0].observable.matrix[0][0]"),
    "long-observable-name": (_linked_text("o" * 100_000),
                             "steps[0].observable"),
    "deep-list-in-a-cell": (
        _linked_text({"name": "q", "matrix": [["cell", 0], [0, 1]]},
                     "[" * 900 + "]" * 900),  # parses under pytest's stack
        "steps[0].observable.matrix[0][0]"),
    "long-system-id": (_long_id_text("s" * 100_000),
                       "initial_state.factors." + "s" * 29 + "..."),
}


def _minimal_bytes(*edits):
    payload = json.loads(MINIMAL)
    for edit in edits:
        edit(payload)
    return json.dumps(payload).encode("ascii")  # a surrogate as an escape


# files that hold no text or a string with a lone surrogate, which no UTF-8
# stream can print, with the start of the one error line they give
NOT_TEXT = {
    "not-utf-8": (b'\xff\xfe{"format_version": 1}',
                  "the document is not UTF-8 text"),
    "surrogate-in-the-name": (_minimal_bytes(_set(("name",), "\ud800x")),
                              "name: "),
    "surrogate-in-a-label": (
        _minimal_bytes(_set(("steps", 0, "label"), "m\ud800"),
                       _set(("checks", 0, "step"), "m\ud800")),
        "steps[0].label: "),
    "surrogate-in-a-key": (_minimal_bytes(_set(("steps", 0, "\udc80"), 1)),
                           "steps[0]: "),
}


def _assert_rejected(payload, where, tmp_path, capsys):
    """``validate`` and ``run`` both exit 2 with one error line naming
    ``where`` and no traceback."""
    _assert_text_rejected(json.dumps(payload), f"{where}: ", tmp_path, capsys)


def _assert_text_rejected(text, start, tmp_path, capsys):
    """``validate`` and ``run`` both exit 2 on the document ``text``, with one
    error line that starts with ``start`` and no traceback."""
    path = tmp_path / "bad.scn"
    path.write_text(text, encoding="utf-8")
    for argv in (["validate", str(path)], ["run", str(path), "--trials", "5"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {start}")
        assert "Traceback" not in captured.err


def _strict_main(argv):
    """``main(argv)`` with a stdout and a stderr that take UTF-8 text only,
    as a terminal in a UTF-8 locale does: the exit code and both texts.
    capsys and ``io.StringIO`` take any string."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    err.flush()
    return code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


def _assert_bytes_rejected(data, start, tmp_path):
    """``validate`` and ``run`` both exit 2 on a file that holds ``data``,
    through a stdout and a stderr that take UTF-8 only, each with one error
    line that starts with ``start``. Returns the two lines."""
    path = tmp_path / "bad.scn"
    path.write_bytes(data)
    lines = []
    for argv in (["validate", str(path)], ["run", str(path), "--trials", "5"]):
        code, out, err = _strict_main(argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {start}")
        lines.append(err.rstrip("\n"))
    return lines


def test_linked_document_runs(tmp_path, capsys):
    explicit = copy.deepcopy(LINKED)  # registers given their ground state
    explicit["initial_state"]["factors"].update(B=[1.0, 0.0], W1="zero")
    for payload in (LINKED, SPARE, explicit):
        path = tmp_path / "linked.scn"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["run", str(path), "--trials", "5"]) == 0
    # S in |1> (so the frequency check fails), every register in |0>
    whole = copy.deepcopy(LINKED)
    whole["initial_state"] = {"kind": "amplitudes",
                              "values": [0.0] * 16 + [1.0] + [0.0] * 15}
    path.write_text(json.dumps(whole), encoding="utf-8")
    assert main(["validate", str(path)]) == 0


@pytest.mark.parametrize("name", sorted(MALFORMED_CHECKS))
def test_malformed_checks_exit_two_with_their_path(name, tmp_path, capsys):
    payload = copy.deepcopy(LINKED)
    payload["checks"].append(MALFORMED_CHECKS[name])
    _assert_rejected(payload, "checks[1]", tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(MALFORMED_STEPS))
def test_malformed_steps_exit_two_with_their_path(name, tmp_path, capsys):
    payload = copy.deepcopy(LINKED)
    payload["steps"].append(MALFORMED_STEPS[name])
    _assert_rejected(payload, "steps[4]", tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(UNRUNNABLE_STEPS))
def test_unrunnable_steps_exit_two_with_their_path(name, tmp_path, capsys):
    payload = copy.deepcopy(SPARE)
    payload["steps"] += UNRUNNABLE_STEPS[name]
    _assert_rejected(payload, f"steps[{len(payload['steps']) - 1}]",
                     tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(EARLIER_RECORDS))
def test_consistency_check_reads_records_of_learns_and_checks(name, tmp_path):
    payload = copy.deepcopy(SPARE)
    payload["steps"].append(EARLIER_RECORDS[name])
    path = tmp_path / "linked.scn"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["run", str(path), "--trials", "5"]) == 0


@pytest.mark.parametrize("name", sorted(UNPARSABLE))
def test_unparsable_documents_exit_two_with_one_error_line(name, tmp_path,
                                                          capsys):
    _assert_text_rejected(*UNPARSABLE[name], tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(LONG_VALUES))
def test_an_error_line_cuts_a_long_value_short(name, tmp_path):
    text, where = LONG_VALUES[name]
    for line in _assert_bytes_rejected(text.encode(), f"{where}: ", tmp_path):
        assert len(line) <= 200


@pytest.mark.parametrize("name", sorted(NOT_TEXT))
def test_a_document_that_is_not_text_exits_two(name, tmp_path):
    _assert_bytes_rejected(*NOT_TEXT[name], tmp_path)


@pytest.mark.parametrize("name", sorted(MALFORMED_CELLS))
def test_malformed_cells_exit_two_with_their_path(name, tmp_path, capsys):
    edit, where = MALFORMED_CELLS[name]
    payload = copy.deepcopy(LINKED)
    edit(payload)
    _assert_rejected(payload, where, tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(OVERFLOWING_CELLS))
def test_a_number_too_large_to_square_exits_two_with_one_line(name, tmp_path,
                                                              capsys):
    edit, start = OVERFLOWING_CELLS[name]
    payload = copy.deepcopy(LINKED)
    edit(payload)
    _assert_text_rejected(json.dumps(payload), start, tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(FLOAT_EDGES))
def test_numbers_at_the_float_edges_never_raise_out_of_the_cli(name, tmp_path,
                                                              capsys):
    edit, start = FLOAT_EDGES[name]
    payload = json.loads(MINIMAL)
    payload["systems"].append(["E", 2])
    edit(payload)
    path = tmp_path / "edge.scn"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for argv in (["validate", str(path)], ["run", str(path), "--trials", "5"],
                 ["run", str(path), "--trials", "5", "--format", "events"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if start is not None:
            assert code == 2 and captured.out == ""
            assert captured.err.splitlines() == [f"error: {start}"]
            continue
        assert code in (0, 1) and "error:" not in captured.err
        if "events" in argv:
            values = [json.loads(line)["value"]
                      for line in captured.out.splitlines()]
            assert values and all(math.isfinite(v) for v in values)


def test_inline_gate_name_must_be_a_string(tmp_path, capsys):
    payload = copy.deepcopy(SPARE)
    payload["steps"].append({"kind": "unitary", "targets": ["S"],
                             "gate": {"name": ["g"],
                                      "matrix": [[0, 1], [1, 0]]}})
    _assert_rejected(payload, "steps[4].gate", tmp_path, capsys)


# one or two lone surrogates: JSON escapes them, Python decodes them, and
# no UTF-8 stream can print them
_SURROGATES = st.text(st.characters(categories=["Cs"]), min_size=1,
                      max_size=2)
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.text(max_size=3), st.lists(st.integers(0, 2), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                  _SURROGATES)


def _slots(node):
    """Every (container, key) pair inside a JSON document."""
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


def _renamed(node, old, new):
    """``node`` with every string ``old`` in it, key or value, made ``new``."""
    if isinstance(node, dict):
        return {_renamed(key, old, new): _renamed(value, old, new)
                for key, value in node.items()}
    if isinstance(node, list):
        return [_renamed(value, old, new) for value in node]
    return new if node == old else node


# the smallest subnormal, negative zero, the smallest normal number and the
# largest finite magnitudes
_EDGES = (5e-324, -0.0, 2.2250738585072014e-308, 1e308, -1e308)


# named states, and named gates and observables, of EVERY_KIND and LINKED
_STATES, _OPERATORS = ("zero", "plus"), ("h", "pauli-x", "pauli-z")


@st.composite
def _edge_cells(draw, state):
    """An amplitude pair in place of a named ``state``, else an inline 2x2
    matrix in place of a gate or observable, with one cell at a float
    edge."""
    cell = draw(st.sampled_from(_EDGES))
    if state:
        return draw(st.permutations([cell, 1.0]))
    matrix = [[1.0, 0.0], [0.0, -1.0]]
    matrix[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = cell
    return {"name": "q", "matrix": matrix}


@st.composite
def _mutants(draw):
    """EVERY_KIND or LINKED with up to three keys dropped, values swapped for
    other types, values set to declared ids (reused registers), named
    states, gates and observables given as amplitudes and matrices with a
    cell at a float edge, systems given other dimensions or a string
    renamed everywhere it occurs, so that the document may stay valid, to
    end in lone surrogates."""
    doc = copy.deepcopy(draw(st.sampled_from([EVERY_KIND, LINKED])))
    ids = [name for name, _ in doc["systems"]]
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        container, key = slots[draw(st.integers(0, len(slots) - 1))]
        mutation = draw(st.sampled_from(["drop", "swap", "reuse", "resize",
                                         "rename", "edge"]))
        if mutation == "rename":
            if isinstance(container[key], str):
                old = container[key]
                doc = _renamed(doc, old, old + draw(_SURROGATES))
        elif mutation == "drop":
            del container[key]
        elif mutation == "swap":
            container[key] = draw(_JUNK)
        elif mutation == "reuse":
            container[key] = draw(st.sampled_from(ids))
        elif mutation == "edge":
            named = [(node, at) for node, at in slots
                     if isinstance(node[at], str)
                     and node[at] in _STATES + _OPERATORS]
            if named:
                node, at = named[draw(st.integers(0, len(named) - 1))]
                node[at] = draw(_edge_cells(node[at] in _STATES))
        elif isinstance(doc.get("systems"), list) and doc["systems"]:
            i = draw(st.integers(0, len(doc["systems"]) - 1))
            doc["systems"][i] = [ids[i % len(ids)], draw(st.integers(0, 4))]
    return doc


@settings(max_examples=120, deadline=None)
@given(_mutants())
def test_mutated_documents_never_raise_out_of_the_cli(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "mutant.scn"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # UTF-8 only, so that a string no terminal can print fails here
    sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert main(["validate", str(path)]) in (0, 2)
        assert main(["run", str(path), "--trials", "3"]) in (0, 1, 2)


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file.scn"]) == 2


def test_run_builtin_summary_passes(capsys):
    code = main(["run", "three-outcome", "--trials", "200", "--seed", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    assert "all checks passed" in captured.out
    assert "runtime" in captured.err  # diagnostics on the error stream


def test_run_scenario_file(tmp_path, capsys):
    path = tmp_path / "minimal.scn"
    path.write_text(MINIMAL, encoding="utf-8")
    assert main(["run", str(path), "--trials", "50", "--seed", "1"]) == 0


def test_a_relative_state_skips_a_destroyed_record(tmp_path, capsys):
    # B's ledger holds the meddled record, which its later reads no longer
    # condition on: the purity check once exited 2 on a null branch
    from rqmsim.scenarios import BUILTIN_SCENARIOS

    payload = BUILTIN_SCENARIOS["three-outcome-meddled"]().to_dict()
    payload["checks"].append({"kind": "purity", "observer": "B",
                              "targets": ["S"], "min": 0})
    path = tmp_path / "meddled.scn"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["run", str(path), "--trials", "50", "--seed", "0"]) == 0
    assert "purity" in capsys.readouterr().out


def test_failed_checks_exit_one_with_summary(tmp_path, capsys):
    path = tmp_path / "impossible.scn"
    path.write_text(FAILING, encoding="utf-8")
    code = main(["run", str(path), "--trials", "400", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out  # summary still emitted


def test_unknown_scenario_exits_two(capsys):
    assert main(["run", "no-such-thing"]) == 2
    assert "built-ins" in capsys.readouterr().err


def test_event_stream_is_deterministic_and_parseable(capsys):
    argv = ["run", "three-outcome", "--trials", "2", "--seed", "7",
            "--format", "events"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert len(lines) == 2 * 3  # three events per trial
    for line in lines:
        record = json.loads(line)
        assert tuple(record.keys()) == EVENT_FIELDS


def test_events_to_file(tmp_path):
    out = tmp_path / "events.ldjson"
    assert main(["run", "three-outcome", "--trials", "1", "--seed", "3",
                 "--format", "events", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3
    json.loads(lines[0])


def test_table_format_emits_two_columns(capsys):
    assert main(["run", "three-outcome", "--trials", "100", "--seed", "4",
                 "--format", "table"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows
    for row in rows:
        parts = row.split()
        assert len(parts) == 2
        float(parts[0]), float(parts[1])


def test_summary_output_is_byte_identical_across_runs(capsys):
    argv = ["run", "frauchiger-renner", "--trials", "150", "--seed", "11"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_roundtrip_through_a_file_preserves_steps(tmp_path):
    scenario = build_frauchiger_renner()
    path = tmp_path / "fr.scn"
    path.write_text(json.dumps(scenario.to_dict()), encoding="utf-8")
    parsed = parse_scenario_file(path.read_text(encoding="utf-8"))
    assert parsed.steps == scenario.steps


def test_strict_mode_turns_destroyed_reads_into_errors(capsys):
    code = main(["run", "interference-erasure", "--trials", "5", "--seed",
                 "1", "--strict"])
    assert code == 2
    err = capsys.readouterr().err
    assert "destroyed" in err
    # the failure names the scenario, trial, step and seed that reproduce it
    assert "interference-erasure: trial 0, step 'late', seed=1:0:" in err


def test_disturbance_sweep_table(capsys):
    code = main(["run", "disturbance-profile", "--trials", "400",
                 "--seed", "9", "--format", "table"])
    captured = capsys.readouterr()
    assert code == 0
    rows = captured.out.strip().splitlines()
    assert len(rows) == 6
    first = rows[0].split()
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_stable_facts_sweep_table(capsys):
    code = main(["run", "stable-facts-grid", "--format", "table"])
    captured = capsys.readouterr()
    assert code == 0
    rows = captured.out.strip().splitlines()
    assert len(rows) == 10
    overlaps = [float(r.split()[0]) for r in rows]
    assert overlaps[0] == 1.0 and overlaps[-1] == 0.0


def test_sweeps_reject_event_format(capsys):
    assert main(["run", "disturbance-profile", "--format", "events"]) == 2


@pytest.mark.parametrize("sweep", ["disturbance-profile", "stable-facts-grid"])
def test_sweeps_reject_strict(capsys, sweep):
    assert main(["run", sweep, "--trials", "10", "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweeps take no --strict\n"


# each sweep run, its exit code and its check lines on stderr, in order
SWEEP_CHECK_LINES = {
    "grid": (["run", "stable-facts-grid"], 0, [
        "check deficit(overlap=0)<1e-10: PASS (observed 0.00e+00)",
        "check deficit(overlap=1)=0.5: PASS (observed 0.500000000000)",
        "check monotone: PASS (non-increasing as overlap falls)"]),
    "profile-seed-5": (["run", "disturbance-profile", "--trials", "250",
                        "--seed", "5"], 1, [
        "check fidelity(0)=1: PASS (observed 1.0)",
        "check fidelity(1)=0.5: FAIL (observed 0.4040)",
        "check monotone: PASS (non-increasing within 3-sigma)"]),
    "profile-seed-9": (["run", "disturbance-profile", "--trials", "400",
                        "--seed", "9"], 0, [
        "check fidelity(0)=1: PASS (observed 1.0)",
        "check fidelity(1)=0.5: PASS (observed 0.5000)",
        "check monotone: PASS (non-increasing within 3-sigma)"]),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CHECK_LINES))
def test_a_sweep_prints_exactly_its_check_lines(name, capsys):
    argv, code, lines = SWEEP_CHECK_LINES[name]
    assert main(argv) == code
    assert capsys.readouterr().err == "".join(f"{line}\n" for line in lines)


def _profile_rise(a: float, trials: int) -> float:
    """The rise from fidelity ``a`` to ``a + d`` that equals the profile's
    3-sigma slack at that pair, found by fixed-point iteration."""
    d = 0.0
    for _ in range(50):
        b = a + d
        d = 3.0 * math.sqrt((a * (1 - a) + b * (1 - b)) / trials + 1e-12)
    return d


# each sweep, the function it calls for its rows, a first row's value, the
# rise from it that its monotone check allows, and its monotone line
MONOTONE_SLACK = {
    "disturbance-profile": ("disturbance_profile", 0.5,
                            _profile_rise(0.5, 400),
                            "non-increasing within 3-sigma"),
    "stable-facts-grid": ("stable_fact_grid", 0.0, 1e-12,
                          "non-increasing as overlap falls"),
}


@pytest.mark.parametrize("name", sorted(MONOTONE_SLACK))
@pytest.mark.parametrize("factor, status", [(1 + 1e-6, "FAIL"),
                                            (1 - 1e-6, "PASS")])
def test_a_rise_past_the_slack_fails_the_monotone_check(
        name, factor, status, capsys, monkeypatch):
    from rqmsim import dynamics

    function, start, slack, detail = MONOTONE_SLACK[name]
    rows = [(0.0, start), (1.0, start + slack * factor)]
    monkeypatch.setattr(dynamics, function, lambda *args, **kwargs: rows)
    main(["run", name, "--trials", "400"])
    assert f"check monotone: {status} ({detail})" \
        in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("name", sorted(cli.SWEEPS))
def test_every_sweep_row_is_one_run_trials_call(name, monkeypatch):
    from rqmsim import scenarios

    rows, _ = cli.SWEEPS[name](20, 0)
    run_trials, spawns = scenarios.run_trials, []

    def counted(*args, **kwargs):
        spawns.append(kwargs["_spawn"])
        return run_trials(*args, **kwargs)

    monkeypatch.setattr(scenarios, "run_trials", counted)
    assert cli.SWEEPS[name](20, 0)[0] == rows
    assert spawns == [(i,) for i in range(len(rows))]


def test_usage_errors_exit_two():
    assert main([]) == 2
    assert main(["run"]) == 2
    assert main(["run", "three-outcome", "--trials", "0"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["run", "three-outcome", "--seed", "-1"], "seed must fit in 64 bits"),
    (["run", "three-outcome", "--seed", str(2 ** 64)],
     "seed must fit in 64 bits"),
    (["run", ""], "exactly one scenario source is required"),
])
def test_bad_run_arguments_exit_two_with_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_an_unwritable_output_path_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    assert main(["run", "three-outcome", "--trials", "5",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(out) in lines[0]
    assert not out.parent.exists()


# runs whose --out path cannot be written, as argv lists in which "OUT"
# stands for that path; each once ran every trial or sweep row first
UNWRITABLE_OUT = {
    "summary": ["run", "three-outcome", "--trials", "20000", "--out", "OUT"],
    "table": ["run", "three-outcome", "--format", "table", "--out", "OUT"],
    "disturbance-sweep": ["run", "disturbance-profile", "--format", "table",
                          "--out", "OUT"],
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE_OUT))
@pytest.mark.parametrize("where", ["missing/out.txt", "file/out.txt", "."])
def test_an_unwritable_output_path_is_refused_before_any_trial(
        name, where, tmp_path, capsys, monkeypatch):
    from rqmsim import cli, scenarios

    def never(*args, **kwargs):
        raise AssertionError("ran before the output path was refused")

    monkeypatch.setattr(scenarios, "run_trials", never)
    monkeypatch.setitem(cli.SWEEPS, "disturbance-profile", never)
    (tmp_path / "file").write_text("precious", encoding="utf-8")
    out = tmp_path / where
    argv = [str(out) if arg == "OUT" else arg for arg in UNWRITABLE_OUT[name]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(out) in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text(encoding="utf-8") == "precious"


# refused runs with an --out path, as argv lists in which "DOC" stands for a
# document whose measurement uses its own target as the pointer and "OUT"
# for the output path; each once left that path empty
REFUSED_WITH_OUT = {
    "unknown-scenario": ["run", "no-such-scenario", "--out", "OUT"],
    "pointer-is-the-target": ["run", "DOC", "--out", "OUT"],
    "output-is-the-refused-document": ["run", "DOC", "--out", "DOC"],
    "sweep-as-events": ["run", "disturbance-profile", "--format", "events",
                        "--out", "OUT"],
    "strict-sweep": ["run", "stable-facts-grid", "--strict", "--out", "OUT"],
}


@pytest.mark.parametrize("name", sorted(REFUSED_WITH_OUT))
@pytest.mark.parametrize("held", ["precious", None])
def test_a_refused_run_leaves_its_output_path_as_it_was(name, held, tmp_path,
                                                        capsys):
    doc, out = tmp_path / "doc.scn", tmp_path / "out.txt"
    payload = json.loads(MINIMAL)
    payload["steps"][0]["pointer"] = "S"
    text = json.dumps(payload)
    doc.write_text(text, encoding="utf-8")
    if held is not None:
        out.write_text(held, encoding="utf-8")
    argv = [{"DOC": str(doc), "OUT": str(out)}.get(arg, arg)
            for arg in REFUSED_WITH_OUT[name]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "syntax error" not in lines[0]
    assert doc.read_text(encoding="utf-8") == text
    if held is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == held


# a document whose learn step 'r' reads a record that a conjugate-basis
# measurement destroyed, so that under --strict its first trial fails there
DESTROYED_READ = {
    "format_version": 1,
    "systems": [["S", 2], ["A", 2], ["M", 2], ["B", 2]],
    "initial_state": {"kind": "product", "factors": {"S": "plus"}},
    "steps": [
        {"kind": "measure", "label": "m", "observer": "A", "system": ["S"],
         "observable": "pauli-z"},
        {"kind": "destroy", "label": "d", "observer": "M", "system": ["A"],
         "observable": "pauli-x"},
        {"kind": "learn", "label": "r", "learner": "B", "source": "m"},
    ],
}

# runs of DESTROYED_READ that fail in a trial, by output format; a summary
# or a table is written only once every trial has run, and each once left
# its --out path empty
FAILED_WITH_OUT = {fmt: ["run", "DOC", "--strict", "--trials", "5",
                         "--format", fmt, "--out", "OUT"]
                   for fmt in ("summary", "table")}


@pytest.mark.parametrize("name", sorted(FAILED_WITH_OUT))
@pytest.mark.parametrize("held", ["precious", None])
def test_a_run_that_fails_in_a_trial_leaves_its_output_path_as_it_was(
        name, held, tmp_path, capsys):
    doc, out = tmp_path / "doc.scn", tmp_path / "out.txt"
    doc.write_text(json.dumps(DESTROYED_READ), encoding="utf-8")
    if held is not None:
        out.write_text(held, encoding="utf-8")
    argv = [{"DOC": str(doc), "OUT": str(out)}.get(arg, arg)
            for arg in FAILED_WITH_OUT[name]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unnamed: trial 0, step 'r', seed=0:0: record of event 0 was "
        "destroyed (strict mode forbids reading it)\n")
    if held is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == held


# edits of LINKED that name a computational basis of 128 levels, more than
# any record under the dimension cap can hold, with the path of the one
# error line they give: a read of a 128-level pointer into a qubit, and an
# aggregate over a 128-level constituent, which validate once accepted.
# Each once built the 128-level observable, whose cost grows as d**5.
TOO_MANY_LEVELS = {
    "read-of-a-128-level-pointer": (_set(("systems", 1), ["A", 128]),
                                    "steps[1]: pointer dimension 2 cannot "
                                    "store 128 outcomes of 'ptr(A)'"),
    "aggregate-over-128-levels": (
        _edits(_set(("systems",), LINKED["systems"] + [["Q", 128]]),
               _set(("checks",), LINKED["checks"] + [
                   {"kind": "aggregate_defined", "constituents": ["Q"],
                    "observable": "computational"}])),
        "checks[1].observable: "),
}


@pytest.mark.parametrize("name", sorted(TOO_MANY_LEVELS))
def test_a_basis_too_large_to_record_is_refused_before_it_is_built(
        name, tmp_path, capsys, monkeypatch):
    from rqmsim import eventgraph, qcore, scenarios

    build = qcore.computational_observable

    def spy(dim):
        assert dim <= 64, f"computational_observable({dim}) was built"
        return build(dim)

    for module in (qcore, eventgraph, scenarios):
        monkeypatch.setattr(module, "computational_observable", spy)
    edit, start = TOO_MANY_LEVELS[name]
    payload = copy.deepcopy(LINKED)
    edit(payload)
    _assert_text_rejected(json.dumps(payload), start, tmp_path, capsys)


def test_only_a_refusal_of_an_observable_becomes_an_error_line(monkeypatch):
    # a bug inside ObservableSpec.from_matrix must surface, not be reported
    # as an invalid observable
    def broken(name, matrix):
        raise RuntimeError("a bug")

    monkeypatch.setattr(ObservableSpec, "from_matrix", broken)
    payload = json.loads(MINIMAL)
    payload["steps"][0]["observable"] = {"name": "q",
                                         "matrix": [[1, 0], [0, -1]]}
    with pytest.raises(RuntimeError, match="a bug"):
        parse_scenario_file(json.dumps(payload))


def test_event_stream_is_byte_identical_across_processes():
    command = [sys.executable, "-c",
               "from rqmsim.cli import main; raise SystemExit(main("
               "['run', 'frauchiger-renner', '--trials', '4', '--seed', '99',"
               " '--format', 'events']))"]
    first = subprocess.run(command, env=_child_env(), capture_output=True,
                           check=True)
    second = subprocess.run(command, env=_child_env(), capture_output=True,
                            check=True)
    assert first.stdout == second.stdout
    assert len(first.stdout.strip().splitlines()) == 4 * 4  # 4 events/trial


def test_spec_format_names_are_accepted(capsys):
    assert main(["run", "three-outcome", "--trials", "20", "--seed", "1",
                 "--format", "summary-text"]) == 0
    capsys.readouterr()
    assert main(["run", "three-outcome", "--trials", "1", "--seed", "1",
                 "--format", "events-ldjson"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 3


def test_exit_code_contract_over_the_builtin_suite(capsys):
    from rqmsim.scenarios import BUILTIN_SCENARIOS

    for name in BUILTIN_SCENARIOS:
        code = main(["run", name, "--trials", "300", "--seed", "6"])
        capsys.readouterr()
        assert code == 0, name


# ---------------------------------------------------------------------------
# how the command line loads numpy, each case in a fresh interpreter
# ---------------------------------------------------------------------------

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
              "OPENBLAS_DEFAULT_NUM_THREADS")

# prints, as JSON, main's exit code (or null with argv "import", which only
# imports numpy), whether os.environ came back unchanged, and the thread
# count OpenBLAS reports (null where its library cannot be found)
_BLAS_PROBE = """
import contextlib, ctypes, io, json, os, sys
before = dict(os.environ)
code = None
if sys.argv[1] == "import":
    import numpy
else:
    from rqmsim.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
threads = None
try:
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower() and ".so" in line})
except OSError:
    paths = []
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        get = getattr(lib, name, None)
        if get is not None and threads is None:
            get.restype, get.argtypes = ctypes.c_int, []
            threads = get()
print(json.dumps({"code": code, "environ_kept": dict(os.environ) == before,
                  "threads": threads}))
"""


def _child_env(**env):
    """The environment of a new interpreter that imports this rqmsim, with
    none of OpenBLAS's thread variables but those in ``env``."""
    import rqmsim

    src = os.path.dirname(os.path.dirname(os.path.abspath(rqmsim.__file__)))
    child_env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    child_env.update(env)
    return child_env


def _fresh_python(args, **env):
    """Run ``args`` in a new interpreter (see :func:`_child_env`) and parse
    the JSON line it prints."""
    out = subprocess.run([sys.executable, *args], env=_child_env(**env),
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_the_cli_module_runs_as_a_script(capsys):
    argv = ["run", "wigner-friend-learns", "--trials", "5"]
    code = main(argv)
    printed = capsys.readouterr().out
    child = subprocess.run([sys.executable, "-m", "rqmsim.cli", *argv],
                           env=_child_env(), capture_output=True, text=True)
    assert printed and child.stdout == printed
    assert child.returncode == code


def test_importing_the_package_and_cli_loads_no_numpy():
    report = _fresh_python(["-c", """
import json, sys
import rqmsim, rqmsim.cli
lazy = "numpy" not in sys.modules
from rqmsim import World
print(json.dumps({"lazy": lazy, "world": World.__module__,
                  "unresolved": [n for n in rqmsim.__all__
                                 if not hasattr(rqmsim, n)],
                  "listed": set(rqmsim.__all__) <= set(dir(rqmsim)),
                  "has_run_trials": "run_trials" in rqmsim.__all__}))
"""])
    assert report["lazy"]
    assert report["world"] == "rqmsim.eventgraph"
    assert report["unresolved"] == []
    assert report["listed"] and report["has_run_trials"]


def test_run_loads_openblas_with_one_thread_and_restores_the_environment():
    report = _fresh_python(["-c", _BLAS_PROBE, "run", "frauchiger-renner",
                            "--trials", "5"])
    assert report["code"] == 0
    assert report["environ_kept"]
    if report["threads"] is None:
        pytest.skip("numpy's OpenBLAS library was not found")
    assert report["threads"] == 1


def test_a_thread_count_the_user_set_is_respected():
    chosen = _fresh_python(["-c", _BLAS_PROBE, "run", "frauchiger-renner",
                            "--trials", "5"], OPENBLAS_NUM_THREADS="2")
    plain = _fresh_python(["-c", _BLAS_PROBE, "import"],
                          OPENBLAS_NUM_THREADS="2")
    assert chosen["code"] == 0 and chosen["environ_kept"]
    if chosen["threads"] is None:
        pytest.skip("numpy's OpenBLAS library was not found")
    # what OpenBLAS makes of the variable on its own (it caps the count at
    # the CPUs it may use)
    assert chosen["threads"] == plain["threads"]
