"""Prebuilt multi-observer measurement scenarios, a declarative scenario
model with serialization, and the seeded trial runner with aggregate checks.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DIMENSION_CAP, INPUT_NORM_ATOL, VALUE_ATOL
from .dynamics import (
    DecoherenceSpec,
    aggregate_perspective,
    stable_fact_deficit,
)
from .errors import ScenarioError, SimulationError
from .eventgraph import (
    Plan,
    World,
    _excited,
    _link,
    _Op,
    event_record,
    recorded,
    relative_state,
)
from .qcore import (
    CNOT,
    HADAMARD,
    CompositeSpace,
    ObservableSpec,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    computational_observable,
    identity,
)

FORMAT_VERSION = 1

_VALUE_STEP_KINDS = ("measure", "destroy", "learn")

# value types of schema keys
_ANY = "any"          # passed through unchecked
_NAME = "name"        # a string, such as an observer that is not a system
_ID = "id"            # a declared system id
_IDS = "ids"          # a nonempty list of declared system ids (or one id)
_LABEL = "label"      # the label of a step
_LABELS = "labels"    # a nonempty list of step labels
_NUMBER = "number"    # a finite JSON number
_NUMBERS = "numbers"  # a nonempty list of finite JSON numbers
_RATE_NUMBER = "rate"  # a finite JSON number in [0, 1]
_SIGMAS = "sigmas"    # a finite JSON number that is not negative
# the number types, each with its range and how errors name the range
_RANGES = {_NUMBER: (-math.inf, math.inf, ""),
           _NUMBERS: (-math.inf, math.inf, ""),
           _RATE_NUMBER: (0.0, 1.0, "in [0, 1]"),
           _SIGMAS: (0.0, math.inf, "at least 0")}
_FLAG = "flag"        # true or false
# types checked by the Python type of the value, and how errors name them
_PLAIN = {_FLAG: (bool, "true or false"), _NAME: (str, "a string")}


@dataclass(frozen=True)
class _Kind:
    """Schema of one step or check kind.

    ``required`` maps each required key to its value type, ``optional``
    maps each optional key to its type and default; an explicit null means
    the default. Labels may name steps of the kinds in ``points_at``: an
    earlier step for a step, any step for a check. ``sizes`` fixes the
    length of a list, the lists in ``same_length`` have equal lengths, and
    at least one key of ``any_of`` must be set.
    """

    required: dict
    optional: dict = field(default_factory=dict)
    points_at: tuple[str, ...] = _VALUE_STEP_KINDS
    sizes: dict = field(default_factory=dict)
    same_length: tuple[str, ...] = ()
    any_of: tuple[str, ...] = ()


_Z = {"z": (_SIGMAS, 3.0)}
_RATE = {"expected_rate": (_RATE_NUMBER, 1.0), **_Z}
_MEASURE = _Kind({"observer": _NAME, "system": _IDS, "observable": _ANY},
                 {"pointer": (_ID, None),
                  "clock": (_NUMBER, None)})

_STEP_SCHEMAS = {
    "measure": _MEASURE,
    "destroy": _MEASURE,
    "learn": _Kind({"learner": _NAME, "source": _LABEL},
                   {"pointer": (_ID, None)}),
    "unitary": _Kind({"gate": _ANY, "targets": _IDS}),
    "decohere": _Kind({"system": _ID, "environment": _IDS, "basis": _ANY,
                       "overlap": _NUMBER}),
    "check_cpl": _Kind({"source": _LABEL, "learn": _LABEL}),
    "check_icd": _Kind({"w": _NAME, "s": _ID, "f": _NAME, "observable": _ANY,
                        "pointers": _IDS}, sizes={"pointers": 2}),
}

_CHECK_SCHEMAS = {
    "agree": _Kind({"steps": _LABELS}, _RATE, sizes={"steps": 2}),
    "frequency": _Kind({"step": _LABEL, "value": _NUMBER,
                        "expected": _RATE_NUMBER}, _Z),
    "joint_frequency": _Kind({"steps": _LABELS, "values": _NUMBERS,
                              "expected": _RATE_NUMBER}, _Z,
                             same_length=("steps", "values")),
    "exists": _Kind({"steps": _LABELS, "values": _NUMBERS},
                    same_length=("steps", "values")),
    "step_true": _Kind({"step": _LABEL}, {"field": (_ANY, None), **_RATE},
                       points_at=("check_cpl", "check_icd")),
    "superseded": _Kind({"step": _LABEL}, {"expect": (_FLAG, True)}),
    "event_disturbed": _Kind({"step": _LABEL}, {"expect": (_FLAG, True)}),
    "aggregate_defined": _Kind({"constituents": _IDS, "observable": _ANY},
                               _RATE),
    "aggregate_frequency": _Kind({"constituents": _IDS, "observable": _ANY,
                                  "value": _NUMBER, "expected": _RATE_NUMBER},
                                 _Z),
    "deficit_below": _Kind({"system": _ID, "q_observable": _ANY,
                            "v_observable": _ANY, "max": _RATE_NUMBER},
                           {"observer": (_NAME, "external")}),
    "purity": _Kind({"observer": _NAME, "targets": _IDS},
                    {"min": (_RATE_NUMBER, None), "max": (_RATE_NUMBER, None)},
                    any_of=("min", "max")),
}

_PAULIS = {"pauli-x": PAULI_X, "pauli-y": PAULI_Y, "pauli-z": PAULI_Z}
# the names of the built-in observables, compared in lower case, and what
# each stands for; an inline observable may not take one
_OBSERVABLE_NAMES = {"computational": "computational", **{p: p for p in _PAULIS},
                     **{p[-1]: p for p in _PAULIS}}

# a measured observable needs a pointer with a level per outcome, so no
# record under the dimension cap holds more outcomes than this
_MOST_OUTCOMES = math.isqrt(DIMENSION_CAP)

_NAMED_STATES = {
    "zero": (1.0, 0.0),
    "one": (0.0, 1.0),
    "plus": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    "minus": (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)),
}

_NAMED_GATES = {
    "i2": identity(2),
    "x": PAULI_X,
    "y": PAULI_Y,
    "z": PAULI_Z,
    "h": HADAMARD,
    "cnot": CNOT,
    "cz": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                      [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


# ---------------------------------------------------------------------------
# scenario model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    kind: str
    label: str
    args: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "label": self.label, **self.args}


@dataclass(frozen=True)
class Check:
    kind: str
    args: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.args}

    def name(self) -> str:
        parts = []
        for key in ("step", "steps", "value", "values", "field", "system",
                    "observer"):
            if key in self.args and self.args[key] is not None:
                parts.append(str(self.args[key]))
        inner = ",".join(parts)
        return f"{self.kind}({inner})" if inner else self.kind


@dataclass(frozen=True)
class Scenario:
    """Declarative experiment: systems, initial state, steps and checks."""

    name: str
    systems: tuple[tuple[str, int], ...]
    initial_state: dict | StateVector
    steps: tuple[Step, ...]
    checks: tuple[Check, ...]

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "systems": [[name, dim] for name, dim in self.systems],
            "initial_state": self.initial_state,
            "steps": [s.to_dict() for s in self.steps],
            "checks": [c.to_dict() for c in self.checks],
        }

    @staticmethod
    def from_dict(payload: dict) -> "Scenario":
        return _scenario_from_dict(payload)


@dataclass
class TrialTrace:
    """Replayable record of one trial: events and per-step outcomes."""

    trial_index: int
    seed: str
    events: list[dict]
    outcomes: dict


@dataclass
class CheckResult:
    name: str
    kind: str
    passed: bool
    observed: float | None
    expected: float | None
    halfwidth: float | None
    detail: str = ""


@dataclass
class SummaryStats:
    scenario: str
    trials: int
    master_seed: int
    runtime_seconds: float
    checks: list[CheckResult]
    frequencies: dict[str, dict[float, int]]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def frequency_rows(self) -> list[tuple[str, float, float, float]]:
        rows = []
        for label in sorted(self.frequencies):
            counts = self.frequencies[label]
            for value in sorted(counts):
                f = counts[value] / self.trials
                hw = 3.0 * math.sqrt(max(f * (1.0 - f), 0.0) / self.trials)
                rows.append((label, value, f, hw))
        return rows

    def render_text(self) -> str:
        # runtime deliberately omitted: output must be byte-identical
        # across runs with identical (scenario, trials, seed, format)
        lines = [
            f"scenario: {self.scenario}",
            f"trials: {self.trials}  seed: {self.master_seed}",
        ]
        for c in self.checks:
            obs = "-" if c.observed is None else f"{c.observed:.6g}"
            exp = "-" if c.expected is None else f"{c.expected:.6g}"
            hw = "" if not c.halfwidth else f" ±{c.halfwidth:.2g}"
            status = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"check {c.name}: observed {obs} expected {exp}{hw}"
                         f"  {status}{extra}")
        rows = self.frequency_rows()
        if rows:
            lines.append("frequencies:")
            for label, value, f, hw in rows:
                lines.append(f"  {label} = {value:g}: {f:.4f} ±{hw:.4f}")
        verdict = "all checks passed" if self.all_passed else "CHECKS FAILED"
        lines.append(verdict)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# parsing / validation
# ---------------------------------------------------------------------------

def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _cut(text: str, room: int) -> str:
    """``text`` cut to ``room`` characters, the last three "...". A declared
    id in an error path is cut to 32, so that the path and a value cut by
    :func:`_shown` fit one line."""
    return text if len(text) <= room else text[:room - 3] + "..."


def _shown(value, room: int = 80) -> str:
    """``repr`` of a document value for an error message, cut to ``room``
    characters. A list or mapping is read only as far as the cut, so a long
    or deep value costs no more than a short one."""
    text = ""
    for part in _repr_parts(value):
        text += part
        if len(text) > room:
            break
    return _cut(text, room)


def _repr_parts(value):
    """The pieces of ``repr(value)`` in order, JSON lists and mappings
    piece by piece."""
    if isinstance(value, list):
        yield "["
        for i, item in enumerate(value):
            yield ", " if i else ""
            yield from _repr_parts(item)
        yield "]"
    elif isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield (", " if i else "") + repr(key) + ": "
            yield from _repr_parts(item)
        yield "}"
    else:
        yield repr(value)


def _require_keys(payload: dict, allowed: set[str], required: set[str],
                  path: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise _fail(path, f"unknown key {_shown(sorted(unknown)[0])} "
                          "(closed schema)")
    missing = required - set(payload)
    if missing:
        raise _fail(path, f"missing required key {sorted(missing)[0]!r}")


def _scenario_from_dict(payload: dict) -> Scenario:
    if not isinstance(payload, dict):
        raise ScenarioError("scenario document must be a mapping")
    _require_keys(payload, {"format_version", "name", "systems",
                            "initial_state", "steps", "checks"},
                  {"format_version", "systems", "initial_state", "steps"},
                  "scenario")
    version = payload["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise _fail("format_version", f"unsupported version {_shown(version)}")
    name = payload.get("name", "unnamed")
    if not isinstance(name, str):
        raise _fail("name", f"expected a string, got {_shown(name)}")
    raw_systems = payload["systems"]
    if not isinstance(raw_systems, list) or not raw_systems:
        raise _fail("systems", "expected a nonempty list of [id, dimension]")
    systems = []
    for i, entry in enumerate(raw_systems):
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[0], str)
                or type(entry[1]) is not int):
            raise _fail(f"systems[{i}]", "expected [id, dimension]")
        systems.append((entry[0], entry[1]))
    steps, checks = [], []
    for key, out in (("steps", steps), ("checks", checks)):
        entries = payload.get(key, [])
        if not isinstance(entries, list):
            raise _fail(key, "expected a list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise _fail(f"{key}[{i}]", "expected a mapping")
            args = dict(entry)
            kind = args.pop("kind", None)
            if key == "steps":
                out.append(Step(kind, args.pop("label", f"step{i}"), args))
            else:
                out.append(Check(kind, args))
    scenario = Scenario(name, tuple(systems), payload["initial_state"],
                        tuple(steps), tuple(checks))
    compile_scenario(scenario)  # full semantic validation
    return scenario


@functools.lru_cache(maxsize=None)
def _pauli(alias: str) -> ObservableSpec:
    return ObservableSpec.from_matrix(alias, _PAULIS[alias])


def _resolve_observable(entry, dim: int, path: str,
                        registry: dict) -> ObservableSpec:
    if isinstance(entry, ObservableSpec):  # built in Python, used as it is
        if entry.dim != dim:
            raise _fail(path, f"dimension {entry.dim} != target {dim}")
        return entry
    if isinstance(entry, str):
        alias = _OBSERVABLE_NAMES.get(entry.lower())
        if alias in _PAULIS:
            if dim != 2:
                raise _fail(path, f"{_shown(entry)} needs a two-level "
                                  f"target, got {dim}")
            return _pauli(alias)
        if alias == "computational":
            if dim > _MOST_OUTCOMES:
                raise _fail(path, f"{_shown(entry)} on {dim} levels has more "
                                  "outcomes than any record can hold "
                                  f"({_MOST_OUTCOMES})")
            return computational_observable(dim)
        raise _fail(path, f"unknown observable {_shown(entry)}")
    if isinstance(entry, dict):
        name, mat = _named_matrix(entry, path)
        if mat.shape[0] != dim:
            raise _fail(path, f"matrix dimension {mat.shape[0]} != target {dim}")
        first = registry.setdefault(name, [mat, None])
        if name.lower() in _OBSERVABLE_NAMES or not np.array_equal(first[0], mat):
            owner, key = path.rsplit(".", 1)
            raise _fail(owner, f"{key!r} reuses the name {_shown(name)} "
                               "for another matrix")
        if first[1] is None:
            try:
                first[1] = ObservableSpec.from_matrix(name, mat)
            except (SimulationError, np.linalg.LinAlgError) as exc:
                raise _fail(path, f"invalid observable: {exc}") from exc
        return first[1]
    raise _fail(path, "expected an observable name or matrix, "
                      f"got {_shown(entry)}")


def _named_matrix(entry: dict, path: str) -> tuple[str, np.ndarray]:
    """The name, a string, and the matrix of an inline observable or gate."""
    _require_keys(entry, {"name", "matrix"}, {"name", "matrix"}, path)
    if not isinstance(entry["name"], str):
        raise _fail(path, "'name' must be a string, "
                          f"got {_shown(entry['name'])}")
    return entry["name"], _parse_matrix(entry["matrix"], path)


def _is_number(value) -> bool:
    """A JSON number that fits a finite float. The bound also rejects NaN,
    the infinities and integers too large for a float."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and abs(value) <= sys.float_info.max


def _parse_complex(cell, path: str) -> complex:
    parts = cell if isinstance(cell, list) and len(cell) == 2 else [cell]
    if not all(_is_number(x) for x in parts):
        raise _fail(path, f"expected a finite number or an [re, im] pair, "
                          f"got {_shown(cell)}")
    return complex(*parts)


def _parse_matrix(rows, path: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise _fail(path, "matrix must be a nonempty list of rows")
    out = np.zeros((len(rows), len(rows)), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(rows):
            raise _fail(path, "matrix must be square (row-major [re, im] pairs)")
        for j, cell in enumerate(row):
            out[i, j] = _parse_complex(cell, f"{path}.matrix[{i}][{j}]")
    return out


def matrix_payload(matrix: np.ndarray) -> list:
    """Row-major [re, im] encoding for scenario files."""
    return [[[float(v.real), float(v.imag)] for v in row]
            for row in np.asarray(matrix, dtype=complex)]


def _parse_amplitudes(entry, dim: int, path: str, allow_haar: bool):
    if isinstance(entry, str):
        if entry == "haar":
            if not allow_haar:
                raise _fail(path, "'haar' is not allowed here")
            return "haar"
        if entry in _NAMED_STATES:
            if dim != 2:
                raise _fail(path, f"named state {_shown(entry)} needs a qubit")
            return np.asarray(_NAMED_STATES[entry], dtype=complex)
        raise _fail(path, f"unknown state {_shown(entry)}")
    if isinstance(entry, list):
        if len(entry) != dim:
            raise _fail(path, f"state has {len(entry)} amplitudes, expected {dim}")
        amps = np.array([_parse_complex(cell, f"{path}[{i}]")
                         for i, cell in enumerate(entry)], dtype=complex)
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= INPUT_NORM_ATOL:
            raise _fail(path, f"state norm {norm:.8f} deviates from 1 beyond "
                              f"{INPUT_NORM_ATOL}")
        return amps / norm
    raise _fail(path, "expected a state name or amplitude list, "
                      f"got {_shown(entry)}")


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

class _Compiled:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        try:
            self.space = CompositeSpace(scenario.systems)
        except SimulationError as exc:  # an id repeats or a size is out of range
            raise _fail("systems", str(exc)) from exc
        self.registry: dict = {}  # inline observable name -> [matrix, spec]
        self.factors = self._compile_initial(scenario.initial_state)
        haar = any(isinstance(f, str) for f in self.factors)
        self._static_initial = None if haar else self._product(None)
        # each trial executes the ops that the steps plan here, in order
        self.plan = Plan(self.space)
        self.steps: list[tuple[str, _Op]] = []
        self.step_kinds: dict[str, str] = {}
        # value or check step label -> the events its outcome is read from
        self.event_ids: dict[str, tuple[int, ...]] = {}
        for i, step in enumerate(scenario.steps):
            path = f"steps[{i}]"
            args = self._conform(_STEP_SCHEMAS, step.kind, step.args, path)
            if not isinstance(step.label, str):
                raise _fail(path, f"step label {_shown(step.label)} "
                                  "is not a string")
            if step.label in self.step_kinds:
                raise _fail(path, f"duplicate step label {_shown(step.label)}")
            compile_step = getattr(self, f"_compile_{step.kind}")
            try:
                read_from = compile_step(args, path)
            except ScenarioError:
                raise
            except SimulationError as exc:  # a plan rule rejected the step
                raise _fail(path, str(exc)) from exc
            new = self.plan.ops[len(self.steps):]
            self.steps += [(step.label, op) for op in new]
            self.step_kinds[step.label] = step.kind
            # a link check plans no op and reads its source and read; every
            # other step reads the events its ops make
            ids = read_from or tuple(op.event.event_id for op in new
                                     if op.event is not None)
            if ids:
                self.event_ids[step.label] = ids
        self._check_registers()
        self.accumulators = [self._compile_check(check, f"checks[{i}]")
                             for i, check in enumerate(scenario.checks)]

    # -- schema --------------------------------------------------------------

    def _conform(self, schemas: dict, kind, raw: dict, path: str) -> dict:
        """``raw`` checked against the schema of ``kind``, with absent
        optional keys set to their defaults and system-id lists as tuples."""
        schema = schemas.get(kind) if isinstance(kind, str) else None
        if schema is None:
            noun = "step" if schemas is _STEP_SCHEMAS else "check"
            raise _fail(path, f"unknown {noun} kind {_shown(kind)}")
        types = {**schema.required,
                 **{key: t for key, (t, _) in schema.optional.items()}}
        nullable = {key for key, (_, d) in schema.optional.items() if d is None}
        _require_keys(raw, set(types), set(schema.required), path)
        args = dict(raw)
        for key, (_, default) in schema.optional.items():
            if args.get(key) is None:
                args[key] = default
        for key, type_ in types.items():
            if args[key] is not None or key not in nullable:
                args[key] = self._typed(type_, args[key], key, path,
                                        schema.points_at)
        for key, size in schema.sizes.items():
            if len(args[key]) != size:
                raise _fail(path, f"{key!r} must list exactly {size} entries")
        if len({len(args[key]) for key in schema.same_length}) > 1:
            raise _fail(path, " and ".join(map(repr, schema.same_length))
                        + " must have the same length")
        if schema.any_of and all(args[key] is None for key in schema.any_of):
            raise _fail(path, "needs " + " or ".join(map(repr, schema.any_of)))
        return args

    def _typed(self, type_: str, value, key: str, path: str,
               points_at: tuple[str, ...]):
        if type_ == _ANY:
            return value
        if type_ in _PLAIN:
            kind, noun = _PLAIN[type_]
            if not isinstance(value, kind):
                raise _fail(path, f"{key!r} must be {noun}, "
                                  f"got {_shown(value)}")
            return value
        if type_ == _IDS and isinstance(value, str):
            value = [value]
        many = type_ in (_IDS, _LABELS, _NUMBERS)
        if many and (not isinstance(value, (list, tuple)) or not value):
            raise _fail(path, f"{key!r} must be a nonempty list")
        for item in value if many else (value,):
            if type_ in _RANGES:
                if not _is_number(item):
                    raise _fail(path, f"{key!r} must be a finite number, "
                                      f"got {_shown(item)}")
                low, high, noun = _RANGES[type_]
                if not low <= item <= high:
                    raise _fail(path, f"{key!r} must be {noun}, "
                                      f"got {_shown(item)}")
            elif type_ in (_ID, _IDS):
                if item not in self.space.ids:
                    raise _fail(path, f"undeclared {key} {_shown(item)}")
            elif not isinstance(item, str) or item not in self.step_kinds:
                raise _fail(path, f"{key!r} names unknown step {_shown(item)}")
            elif self.step_kinds[item] not in points_at:
                raise _fail(path, f"{key!r} cannot apply to the "
                                  f"{self.step_kinds[item]!r} step "
                                  f"{_shown(item)}")
        if type_ == _IDS and len(set(value)) < len(value):
            raise _fail(path, f"{key!r} repeats an id: {_shown(list(value))}")
        return tuple(value) if type_ == _IDS else value

    # -- initial state -----------------------------------------------------

    def _compile_initial(self, spec) -> list:
        path = "initial_state"
        if isinstance(spec, StateVector):  # built in Python, used bit for bit
            if spec.space.subsystems != self.space.subsystems:
                raise _fail(path, "the state is not on the declared systems")
            return [spec.amplitudes]
        if not isinstance(spec, dict) or "kind" not in spec:
            raise _fail(path, "expected a mapping with a 'kind'")
        if spec["kind"] == "product":
            _require_keys(spec, {"kind", "factors"}, {"kind", "factors"}, path)
            factors = spec["factors"]
            if not isinstance(factors, dict):
                raise _fail(path, "'factors' must map subsystem ids to states")
            ids = {name for name, _ in self.scenario.systems}
            for sysid in factors:
                if sysid not in ids:
                    raise _fail(path, f"system {_shown(sysid)} not declared")
            out = []
            for name, dim in self.scenario.systems:
                if name in factors:
                    out.append(_parse_amplitudes(factors[name], dim,
                                                 f"{path}.factors.{_cut(name, 32)}",
                                                 True))
                else:
                    ground = np.zeros(dim, dtype=complex)
                    ground[0] = 1.0
                    out.append(ground)
            return out
        if spec["kind"] == "amplitudes":
            _require_keys(spec, {"kind", "values"}, {"kind", "values"}, path)
            amps = _parse_amplitudes(spec["values"], self.space.total_dim,
                                     f"{path}.values", False)
            return [amps]
        raise _fail(path, "unknown initial-state kind "
                          f"{_shown(spec['kind'])}")

    def _product(self, rng) -> StateVector:
        """The initial state: the factors multiplied in system order, each
        ``"haar"`` factor drawn from ``rng`` where it stands. Every amplitude
        equals that of a ``np.kron`` chain over the factors."""
        factors = []
        # a whole-space vector is one factor, and never "haar"
        for factor, dim in zip(self.factors, self.space.dims):
            if isinstance(factor, str):
                draw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                factor = draw / np.linalg.norm(draw)
            factors.append(factor)
        return StateVector(self.space,
                           functools.reduce(np.multiply.outer, factors))

    def _check_registers(self) -> None:
        """Records and environments are written into registers that start in
        their ground state: a product state may give a register no other
        factor, and whole-space amplitudes must vanish wherever a register
        is out of it."""
        whole = len(self.factors) < len(self.space.dims)  # not a product
        for axis, (name, _) in enumerate(self.scenario.systems):
            if name not in self.plan.registers:
                continue
            if whole:
                excited = _excited(self.factors[0], self.space.dims, axis)
                path = "initial_state.values"
            else:
                factor = self.factors[axis]
                excited = isinstance(factor, str) or factor[1:].any()
                path = f"initial_state.factors.{_cut(name, 32)}"
            if excited:
                raise _fail(path, f"register {_shown(name)} must start in its "
                                  "ground state")

    def build_initial(self, rng: np.random.Generator) -> StateVector:
        if self._static_initial is not None:
            return self._static_initial
        return self._product(rng)

    # -- steps ---------------------------------------------------------------

    def _compile_measure(self, args: dict, path: str) -> None:
        targets = args["system"]
        d_t = math.prod(self.space.dim(t) for t in targets)
        obs = _resolve_observable(args["observable"], d_t,
                                  f"{path}.observable", self.registry)
        self.plan.measurement(args["observer"], targets, obs, args["pointer"],
                              args["clock"])

    _compile_destroy = _compile_measure

    def _compile_learn(self, args: dict, path: str) -> None:
        self.plan.read(args["learner"], self.event_ids[args["source"]][0],
                       args["pointer"])

    def _compile_unitary(self, args: dict, path: str) -> None:
        gate = args["gate"]
        if isinstance(gate, str):
            mat = _NAMED_GATES.get(gate.lower())
            if mat is None:
                raise _fail(path, f"unknown gate {_shown(gate)}")
        elif isinstance(gate, dict):
            _, mat = _named_matrix(gate, f"{path}.gate")
        else:
            raise _fail(path, "'gate' must be a name or a matrix mapping")
        self.plan.unitary(mat, args["targets"])

    def _compile_decohere(self, args: dict, path: str) -> None:
        system = args["system"]
        basis = _resolve_observable(args["basis"], self.space.dim(system),
                                    f"{path}.basis", self.registry)
        self.plan.decoherence(DecoherenceSpec(
            system, args["environment"], basis, float(args["overlap"])))

    def _compile_check_cpl(self, args: dict, path: str) -> tuple[int, int]:
        source, learned = args["source"], args["learn"]
        ids = self.event_ids[source] + self.event_ids[learned]
        if self.plan.events[ids[1]].learned_from != ids[0]:
            raise _fail(path, f"'learn' must name a learn step that reads "
                              f"{_shown(source)}, got {_shown(learned)}")
        return ids

    def _compile_check_icd(self, args: dict, path: str) -> None:
        s = args["s"]
        obs = _resolve_observable(args["observable"], self.space.dim(s),
                                  f"{path}.observable", self.registry)
        self.plan.consistency(args["w"], s, args["f"], obs, args["pointers"])

    def outcomes(self, world: World) -> dict:
        """A trial's outcome of each value or check step, in step order, read
        off its events: the value a step recorded, a link check's two flags
        or a consistency check's verdict."""
        out = {}
        for label, ids in self.event_ids.items():
            kind = self.step_kinds[label]
            if kind in ("check_cpl", "check_icd"):
                link = _link(world.events[ids[0]], world.events[ids[1]])
                out[label] = link if kind == "check_cpl" else link["agree"]
            else:
                out[label] = world.events[ids[-1]].value
        return out

    # -- checks --------------------------------------------------------------

    def _compile_check(self, check: Check, path: str) -> "_Accumulator":
        args = self._conform(_CHECK_SCHEMAS, check.kind, check.args, path)
        if check.kind == "step_true":
            # a link check reports two flags; a consistency check is one
            on_cpl = self.step_kinds[args["step"]] == "check_cpl"
            if on_cpl and args["field"] not in ("agree", "disturbed"):
                raise _fail(path, "'field' must be 'agree' or 'disturbed' on "
                                  "a check_cpl step, "
                                  f"got {_shown(args['field'])}")
            if not on_cpl and args["field"] is not None:
                raise _fail(path, "'field' is not allowed on a check_icd step")
        # observables act on the system or on each single constituent
        for key in ("observable", "q_observable", "v_observable"):
            if key in args:
                system = args["constituents"][0] if "constituents" in args \
                    else args["system"]
                args[key] = _resolve_observable(
                    args[key], self.space.dim(system), f"{path}.{key}",
                    self.registry)
        reads = (*args.get("targets", ()), args.get("system"))
        if "observer" in args and args["observer"] in reads:
            raise _fail(path, "targets of a relative state exclude the "
                              f"observer {_shown(args['observer'])}")
        if check.kind == "deficit_below" and not recorded(
                self.plan.ops, args["system"], args["v_observable"]):
            raise _fail(path, f"no step records "
                              f"{_shown(args['v_observable'].name)} "
                              f"on {_shown(args['system'])}")
        # the events of the steps the check names, found once for all trials
        labels = args.get("steps", [args["step"]] if "step" in args else [])
        args["ids"] = [i for label in labels for i in self.event_ids[label]]
        return _READINGS[check.kind][1](check, args)


def compile_scenario(scenario: Scenario) -> _Compiled:
    # a finite number too large to square overflows a norm or a product to
    # inf or nan, which every check refuses: numpy's warning adds nothing
    with np.errstate(over="ignore", invalid="ignore"):
        return _Compiled(scenario)


# ---------------------------------------------------------------------------
# check readings and their folds
# ---------------------------------------------------------------------------

def _values_equal(a: float, b: float) -> bool:
    return abs(float(a) - float(b)) <= VALUE_ATOL


def _joint(args: dict, world: World) -> bool:
    return all(_values_equal(world.events[i].value, v)
               for i, v in zip(args["ids"], args["values"]))


def _aggregate_is(args: dict, world: World) -> bool:
    value = aggregate_perspective(world, args["constituents"],
                                  args["observable"])
    return value is not None and _values_equal(value, args["value"])


class _Accumulator:
    """The fold of one check's readings over the trials of a run: each
    subclass folds a trial's reading in ``per_trial(world)`` and gives the
    :class:`CheckResult` of ``n`` trials from ``result(n)``."""

    def __init__(self, check: Check, args: dict):
        self.check = check
        self.args = args
        self.reading, _, self.param = _READINGS[check.kind]


class _Count(_Accumulator):
    """The trials whose reading is true. ``param`` is the key of the
    expected rate or the rate itself, which their share must meet within
    ``z`` binomial standard errors; with no ``param`` one true trial
    passes."""

    hits = 0

    def per_trial(self, world):
        if self.reading(self.args, world):
            self.hits += 1

    def result(self, n):
        name, kind, hits = self.check.name(), self.check.kind, self.hits
        if self.param is None:
            return CheckResult(name, kind, hits > 0, hits / n, None, None,
                               detail=f"{hits} matching trials")
        expected = float(self.args[self.param] if isinstance(self.param, str)
                         else self.param)
        z = float(self.args.get("z", 3.0))
        observed = hits / n
        halfwidth = z * math.sqrt(max(expected * (1.0 - expected), 0.0) / n)
        return CheckResult(name, kind, abs(observed - expected) <= halfwidth,
                           observed, expected, halfwidth)


class _Range(_Accumulator):
    """The least and the greatest reading, against ``min`` and ``max``; the
    least is observed when there is a ``min``. ``param`` is the detail line,
    formatted with both."""

    # a purity is at most 1 and a deficit at least 0: these clamp rounding
    low, high = 1.0, 0.0

    def per_trial(self, world):
        value = self.reading(self.args, world)
        self.low = min(self.low, value)
        self.high = max(self.high, value)

    def result(self, n):
        lo, hi = self.args.get("min"), self.args["max"]
        passed = (lo is None or self.low >= float(lo)) \
            and (hi is None or self.high <= float(hi))
        observed, expected = (self.low, lo) if lo is not None \
            else (self.high, hi)
        return CheckResult(self.check.name(), self.check.kind, passed,
                           observed, float(expected), None,
                           detail=self.param.format(low=self.low,
                                                    high=self.high))


# each check kind: its reading of a finished trial, a function of
# (args, world) alone that gives a flag or a number, the fold of its
# readings, and the fold's parameter
_READINGS = {
    "agree": (lambda a, w: _values_equal(*(w.events[i].value
                                           for i in a["ids"])),
              _Count, "expected_rate"),
    "frequency": (lambda a, w: _values_equal(w.events[a["ids"][0]].value,
                                             a["value"]),
                  _Count, "expected"),
    "joint_frequency": (_joint, _Count, "expected"),
    "exists": (_joint, _Count, None),
    "step_true": (lambda a, w: _link(*(w.events[i] for i in a["ids"]))
                  [a["field"] or "agree"], _Count, "expected_rate"),
    "superseded": (lambda a, w: a["expect"] ==
                   (w.events[a["ids"][0]].superseded_by is not None),
                   _Count, 1.0),
    "event_disturbed": (lambda a, w: a["expect"] ==
                        w.events[a["ids"][0]].disturbed, _Count, 1.0),
    "aggregate_defined": (lambda a, w: aggregate_perspective(
        w, a["constituents"], a["observable"]) is not None,
        _Count, "expected_rate"),
    "aggregate_frequency": (_aggregate_is, _Count, "expected"),
    "deficit_below": (lambda a, w: stable_fact_deficit(
        w, a["observer"], a["system"], a["q_observable"], a["v_observable"]),
        _Range, "worst-case deficit over trials"),
    "purity": (lambda a, w: relative_state(w, a["observer"],
                                           a["targets"]).purity(),
               _Range, "purity range [{low:.6g}, {high:.6g}]"),
}


# ---------------------------------------------------------------------------
# trial runner
# ---------------------------------------------------------------------------

def run_trials(scenario: Scenario, n: int, master_seed: int, *,
               strict: bool = False,
               trace_callback: Callable[[TrialTrace], None] | None = None,
               _spawn: tuple[int, ...] = ()) -> SummaryStats:
    """Run ``n`` independent worlds of a scenario with deterministic
    per-trial seeding and evaluate its declared checks.

    ``trace_callback`` receives each trial's trace in trial order as it
    completes. A :class:`SimulationError` raised in a trial is re-raised,
    with the same class, naming the scenario, the trial, the step or check
    and the seed that reproduce it. ``_spawn`` prefixes each trial's spawn
    key, so that a sweep's runs draw from disjoint streams.
    """
    if n < 1:
        raise ScenarioError("trial count must be at least 1")
    compiled = compile_scenario(scenario)
    started = time.perf_counter()
    frequencies: dict[str, dict[float, int]] = {}
    value_steps = [(label, ids[0]) for label, ids in compiled.event_ids.items()
                   if compiled.step_kinds[label] in _VALUE_STEP_KINDS]
    # every trial applies the plan's ops in order and, but for a Haar factor,
    # from one initial state; no verdict depends on a value, so the outcome
    # path fixes each state and one memo serves the whole call
    memo = {} if compiled._static_initial is not None else None
    seed_prefix = ":".join(map(str, (master_seed, *_spawn)))
    for index in range(n):
        seq = np.random.SeedSequence(master_seed, spawn_key=(*_spawn, index))
        rng = np.random.default_rng(seq)
        initial = compiled.build_initial(rng)
        world = World(compiled.space, initial, rng, strict=strict)
        world._memo = memo
        acc = None
        try:
            for label, op in compiled.steps:
                if op.event is None:
                    world._unitary(op)
                else:
                    world._measure(op)
            for acc in compiled.accumulators:
                acc.per_trial(world)
        except SimulationError as exc:
            where = f"step {label!r}" if acc is None \
                else f"check {acc.check.name()!r}"
            raise type(exc)(f"{scenario.name}: trial {index}, {where}, "
                            f"seed={seed_prefix}:{index}: {exc}") from exc
        for label, event_id in value_steps:
            value = float(world.events[event_id].value)
            bucket = frequencies.setdefault(label, {})
            bucket[value] = bucket.get(value, 0) + 1
        if trace_callback is not None:
            trace_callback(TrialTrace(
                trial_index=index,
                seed=f"{seed_prefix}:{index}",
                events=[event_record(ev) for ev in world.events],
                outcomes=compiled.outcomes(world),
            ))
    return SummaryStats(
        scenario=scenario.name,
        trials=n,
        master_seed=master_seed,
        runtime_seconds=time.perf_counter() - started,
        checks=[acc.result(n) for acc in compiled.accumulators],
        frequencies=frequencies,
    )


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def _okfail_payload() -> list:
    ok = np.zeros(4, dtype=complex)
    ok[0] = 1.0 / math.sqrt(2.0)
    ok[3] = -1.0 / math.sqrt(2.0)
    proj = np.outer(ok, ok.conj())
    return matrix_payload(2.0 * proj - np.eye(4))


def _conditional_preparation_payload() -> list:
    # on the tails branch of the coin record, rotate the spin to |down>+|up>
    cu = np.kron(np.diag([1.0, 0.0]).astype(complex), identity(2)) \
        + np.kron(np.diag([0.0, 1.0]).astype(complex), HADAMARD)
    return matrix_payload(cu)


def build_three_outcome_intersubjectivity(initial="haar",
                                          meddler: bool = False) -> Scenario:
    """One system, two observers, three outcomes that must all agree.

    Alice records the system; Bob measures the system in the same basis and
    then reads Alice's pointer. Internal consistency forces Bob's two values
    to match, the cross-perspective link forces them to match Alice's. With
    ``meddler`` set, a conjugate-basis measurement scrambles Alice's record
    first and agreement falls to one half.
    """
    systems = [["S", 2], ["A", 2], ["B1", 2], ["B2", 2]]
    steps = [
        Step("measure", "m_a", {"observer": "A", "system": ["S"],
                                "observable": "pauli-z"}),
    ]
    if meddler:
        systems.append(["M", 2])
        steps.append(Step("destroy", "meddle",
                          {"observer": "meddler", "system": ["A"],
                           "observable": "pauli-x", "pointer": "M"}))
    steps += [
        Step("measure", "m_b_s", {"observer": "B", "system": ["S"],
                                  "observable": "pauli-z", "pointer": "B1"}),
        Step("learn", "m_b_a", {"learner": "B", "source": "m_a",
                                "pointer": "B2"}),
        Step("check_cpl", "cpl", {"source": "m_a", "learn": "m_b_a"}),
    ]
    agree, disturbed = ({"expected_rate": 0.5}, {}) if meddler \
        else ({}, {"expected_rate": 0.0})
    checks = [
        Check("agree", {"steps": ["m_b_s", "m_b_a"], **agree}),
        Check("agree", {"steps": ["m_a", "m_b_a"], **agree}),
        Check("step_true", {"step": "cpl", "field": "disturbed", **disturbed}),
    ]
    if initial == "plus":
        checks.append(Check("frequency", {"step": "m_a", "value": 1.0,
                                          "expected": 0.5}))
    name = "three-outcome" + ("-meddled" if meddler else "")
    return Scenario(name, tuple((s, d) for s, d in systems),
                    {"kind": "product", "factors": {"S": initial}},
                    tuple(steps), tuple(checks))


def build_wigner_friend(initial="plus", learning_phase: bool = False) -> Scenario:
    """A friend records a system while an outside observer keeps describing
    the pair unitarily: the outsider's relative state stays pure and
    entangled while the friend's ledger holds a definite value. The optional
    second phase has the outsider read the friend's pointer and asserts
    agreement."""
    systems = [["S", 2], ["F", 2]]
    steps = [
        Step("measure", "friend", {"observer": "F", "system": ["S"],
                                   "observable": "pauli-z"}),
    ]
    checks: list[Check] = []
    if learning_phase:
        systems.append(["W", 2])
        steps.append(Step("learn", "outsider", {"learner": "W",
                                                "source": "friend"}))
        steps.append(Step("check_cpl", "cpl", {"source": "friend",
                                               "learn": "outsider"}))
        checks += [
            Check("agree", {"steps": ["friend", "outsider"]}),
            Check("step_true", {"step": "cpl", "field": "agree"}),
        ]
    else:
        checks.append(Check("purity", {"observer": "W", "targets": ["S", "F"],
                                       "min": 1.0 - 1e-9}))
        if initial == "plus":
            checks.append(Check("purity", {"observer": "W", "targets": ["S"],
                                           "max": 0.5 + 1e-9}))
        elif initial in ("zero", "one"):
            checks.append(Check("purity", {"observer": "W", "targets": ["S"],
                                           "min": 1.0 - 1e-9}))
    if initial == "plus":
        checks.append(Check("frequency", {"step": "friend", "value": 1.0,
                                          "expected": 0.5}))
    return Scenario("wigner-friend", tuple((s, d) for s, d in systems),
                    {"kind": "product", "factors": {"S": initial}},
                    tuple(steps), tuple(checks))


def build_interference_erasure(initial="plus", erase: bool = True) -> Scenario:
    """Record a system, then erase the record by measuring the pointer in
    the conjugate basis.

    With erasure on, the final conjugate-basis query of the system is
    perfectly correlated with the erasure outcome (coherence restored
    conditional on it) and the original record is superseded; a late read
    of it comes back flagged disturbed. With erasure off the record
    decoheres the system and the final query is an unbiased coin.
    """
    systems = [["S", 2], ["A", 2], ["V", 2]]
    steps = [
        Step("measure", "m_a", {"observer": "A", "system": ["S"],
                                "observable": "pauli-z"}),
    ]
    checks: list[Check] = []
    if erase:
        systems.insert(2, ["W", 2])
        systems.append(["L", 2])
        steps.append(Step("destroy", "erase",
                          {"observer": "W", "system": ["A"],
                           "observable": "pauli-x"}))
    steps.append(Step("measure", "m_v", {"observer": "V", "system": ["S"],
                                         "observable": "pauli-x"}))
    if erase:
        steps.append(Step("learn", "late", {"learner": "L", "source": "m_a"}))
        steps.append(Step("check_cpl", "cpl", {"source": "m_a",
                                               "learn": "late"}))
        checks += [
            Check("superseded", {"step": "m_a"}),
            Check("event_disturbed", {"step": "late"}),
            Check("step_true", {"step": "cpl", "field": "disturbed"}),
            Check("agree", {"steps": ["m_a", "late"], "expected_rate": 0.5}),
        ]
        if initial == "plus":
            # conditional coherence: the system's conjugate value tracks the
            # erasure outcome exactly
            checks.append(Check("agree", {"steps": ["erase", "m_v"]}))
    else:
        checks += [
            Check("superseded", {"step": "m_a", "expect": False}),
            Check("frequency", {"step": "m_v", "value": 1.0, "expected": 0.5}),
            Check("frequency", {"step": "m_v", "value": -1.0, "expected": 0.5}),
        ]
    name = "interference-erasure" + ("" if erase else "-off")
    return Scenario(name, tuple((s, d) for s, d in systems),
                    {"kind": "product", "factors": {"S": initial}},
                    tuple(steps), tuple(checks))


def build_frauchiger_renner(super_observers: bool = True) -> Scenario:
    """Nested-observer protocol with a biased coin, a conditionally prepared
    spin, two friends and two outside observers.

    With ``super_observers`` the outsiders measure the friend+system pairs
    in entangled ok/fail bases; the joint (ok, ok) rate is 1/12 and trials
    exist where the spin-friend's record licenses "w cannot be ok" while w
    is ok. With pointer-basis reads instead, everyone simply agrees with
    the friends and no tension appears.
    """
    systems = (("R", 2), ("F1", 2), ("S", 2), ("F2", 2), ("X", 2), ("W", 2))
    coin = [[math.sqrt(1.0 / 3.0), 0.0], [math.sqrt(2.0 / 3.0), 0.0]]
    steps = [
        Step("measure", "f1", {"observer": "F1", "system": ["R"],
                               "observable": "pauli-z"}),
        Step("unitary", "prep", {"gate": {"name": "prep-spin",
                                          "matrix": _conditional_preparation_payload()},
                                 "targets": ["F1", "S"]}),
        Step("measure", "f2", {"observer": "F2", "system": ["S"],
                               "observable": "pauli-z"}),
    ]
    if super_observers:
        okfail = _okfail_payload()
        steps += [
            Step("measure", "xbar", {"observer": "Xbar",
                                     "system": ["R", "F1"],
                                     "observable": {"name": "okfail-coin",
                                                    "matrix": okfail},
                                     "pointer": "X"}),
            Step("measure", "w", {"observer": "Wig", "system": ["S", "F2"],
                                  "observable": {"name": "okfail-spin",
                                                 "matrix": okfail},
                                  "pointer": "W"}),
        ]
        checks = [
            Check("joint_frequency", {"steps": ["xbar", "w"],
                                      "values": [1.0, 1.0],
                                      "expected": 1.0 / 12.0}),
            Check("frequency", {"step": "f1", "value": 1.0,
                                "expected": 1.0 / 3.0}),
            Check("frequency", {"step": "xbar", "value": 1.0,
                                "expected": 1.0 / 6.0}),
            Check("frequency", {"step": "w", "value": 1.0,
                                "expected": 1.0 / 6.0}),
            # the spin friend saw "up" (collapse reasoning forbids w = ok),
            # yet w = ok happens: rate derived from the conditioning chain
            Check("joint_frequency", {"steps": ["f2", "w"],
                                      "values": [-1.0, 1.0],
                                      "expected": 0.1}),
            Check("exists", {"steps": ["f2", "w"], "values": [-1.0, 1.0]}),
            Check("superseded", {"step": "f1"}),
            Check("superseded", {"step": "f2"}),
        ]
    else:
        steps += [
            Step("learn", "xbar", {"learner": "Xbar", "source": "f1",
                                   "pointer": "X"}),
            Step("learn", "w", {"learner": "Wig", "source": "f2",
                                "pointer": "W"}),
        ]
        checks = [
            Check("agree", {"steps": ["xbar", "f1"]}),
            Check("agree", {"steps": ["w", "f2"]}),
            Check("frequency", {"step": "f1", "value": 1.0,
                                "expected": 1.0 / 3.0}),
        ]
    name = "frauchiger-renner" + ("" if super_observers else "-learns")
    return Scenario(name, systems,
                    {"kind": "product", "factors": {"R": coin}},
                    tuple(steps), tuple(checks))


def frauchiger_renner_exact() -> float:
    """Exact joint (ok, ok) probability from the unitary protocol state."""
    coin = np.array([math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)],
                    dtype=complex)
    ground = np.array([1.0, 0.0], dtype=complex)
    state = coin
    for _ in range(3):
        state = np.kron(state, ground)  # order: R, F1, S, F2
    record_coin = np.kron(np.kron(CNOT, identity(2)), identity(2))
    prep = np.kron(np.kron(identity(2), _parse_matrix(
        _conditional_preparation_payload(), "prep")), identity(2))
    record_spin = np.kron(identity(4), CNOT)
    state = record_spin @ (prep @ (record_coin @ state))
    ok = np.zeros(4, dtype=complex)
    ok[0] = 1.0 / math.sqrt(2.0)
    ok[3] = -1.0 / math.sqrt(2.0)
    proj = np.kron(np.outer(ok, ok.conj()), np.outer(ok, ok.conj()))
    branch = proj @ state
    return float(np.vdot(branch, branch).real)


def build_stern_gerlach_decoherence(initial="plus",
                                    overlap: float = 0.0,
                                    environment_size: int = 5) -> Scenario:
    """A system disseminates its basis value into a small environment.

    At overlap 0 every environment qubit acquires a sharp record (an event
    each), the aggregate perspective over the environment is defined in
    every trial, and the recorded variable is a stable fact for any late
    observer. At nonzero overlap the dissemination is a pure coupling: no
    records, no aggregate value.
    """
    env = [f"E{i}" for i in range(1, environment_size + 1)]
    systems = tuple([("S", 2)] + [(e, 2) for e in env])
    if overlap == 0.0:
        steps = tuple(
            Step("measure", f"env{i}", {"observer": env[i - 1], "system": ["S"],
                                        "observable": "pauli-z"})
            for i in range(1, environment_size + 1))
        checks = [
            Check("aggregate_defined", {"constituents": env,
                                        "observable": "pauli-z"}),
            Check("deficit_below", {"system": "S", "q_observable": "pauli-x",
                                    "v_observable": "pauli-z", "max": 1e-10,
                                    "observer": "external"}),
        ]
        if initial == "plus":
            checks.insert(1, Check("aggregate_frequency",
                                   {"constituents": env,
                                    "observable": "pauli-z", "value": 1.0,
                                    "expected": 0.5}))
        elif initial in ("zero", "one"):
            value = 1.0 if initial == "zero" else -1.0
            checks.insert(1, Check("aggregate_frequency",
                                   {"constituents": env,
                                    "observable": "pauli-z", "value": value,
                                    "expected": 1.0}))
    else:
        steps = (Step("decohere", "env", {"system": "S", "environment": env,
                                          "basis": "pauli-z",
                                          "overlap": overlap}),)
        checks = [
            Check("aggregate_defined", {"constituents": env,
                                        "observable": "pauli-z",
                                        "expected_rate": 0.0}),
        ]
    return Scenario("stern-gerlach-decoherence", systems,
                    {"kind": "product", "factors": {"S": initial}},
                    steps, tuple(checks))


BUILTIN_SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "three-outcome": build_three_outcome_intersubjectivity,
    "three-outcome-meddled":
        lambda: build_three_outcome_intersubjectivity(meddler=True),
    "wigner-friend": build_wigner_friend,
    "wigner-friend-learns": lambda: build_wigner_friend(learning_phase=True),
    "interference-erasure": build_interference_erasure,
    "interference-erasure-off":
        lambda: build_interference_erasure(erase=False),
    "frauchiger-renner": build_frauchiger_renner,
    "frauchiger-renner-learns":
        lambda: build_frauchiger_renner(super_observers=False),
    "stern-gerlach": build_stern_gerlach_decoherence,
}
