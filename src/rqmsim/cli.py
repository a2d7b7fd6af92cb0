"""Command-line front end: run scenarios, validate scenario files, emit
summaries, event streams and numeric tables.

Exit codes: 0 all checks passed, 1 at least one check failed (summary still
emitted), 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ScenarioError, SimulationError

if TYPE_CHECKING:
    from .scenarios import Scenario, SummaryStats

# the variables OpenBLAS reads its thread count from when it loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS")

SWEEPS = ("disturbance-profile", "stable-facts-grid")

_DESCRIPTIONS = {
    "three-outcome": "one record, read twice by a second observer; all three values agree",
    "three-outcome-meddled": "same, with a conjugate-basis meddler scrambling the record",
    "wigner-friend": "friend records a system; outsider keeps a pure entangled description",
    "wigner-friend-learns": "friend records, outsider reads the pointer and agrees",
    "interference-erasure": "record erased in the conjugate basis; coherence restored conditionally",
    "interference-erasure-off": "no erasure: the record decoheres the conjugate query",
    "frauchiger-renner": "nested observers, ok/fail super-measurements, joint ok rate 1/12",
    "frauchiger-renner-learns": "super-observers read pointers instead; everyone agrees",
    "stern-gerlach": "environment qubits each record a system; aggregate value emerges",
    "disturbance-profile": "retrieval fidelity vs probe strength (two-column table)",
    "stable-facts-grid": "classical-mixture deficit vs environment overlap (table)",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one run invocation."""

    scenario: str            # built-in name, sweep name or file path
    trials: int
    seed: int
    fmt: str                 # summary | events | table
    out: str | None
    strict: bool

    def __post_init__(self):
        if self.trials < 1:
            raise ScenarioError("trial count must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ScenarioError("seed must fit in 64 bits")
        if not self.scenario:
            raise ScenarioError("exactly one scenario source is required")


# a lone UTF-16 surrogate: JSON may escape one, and Python decodes it, but
# no UTF-8 stream can write it
_SURROGATE = re.compile("[\ud800-\udfff]")

_FORMAT_ALIASES = {
    "summary": "summary",
    "summary-text": "summary",
    "events": "events",
    "events-ldjson": "events",
    "table": "table",
}


def parse_scenario_file(text: str) -> Scenario:
    """Parse a JSON scenario document into a validated :class:`Scenario`."""
    from .scenarios import Scenario

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ScenarioError("the document nests too deeply to parse") from None
    except ValueError:  # an integer past Python's limit on its digits
        raise ScenarioError("a number in the document has too many digits "
                            "to parse") from None
    _refuse_surrogates(payload)
    return Scenario.from_dict(payload)


def _refuse_surrogates(payload) -> None:
    """Refuse the first string of the document, key or value, that holds a
    lone surrogate, naming where it is."""
    pending = [("", payload)]
    for path, node in pending:  # breadth first: the loop sees what it adds
        if isinstance(node, dict):
            for key, value in node.items():
                if _SURROGATE.search(key):
                    raise ScenarioError(f"{path or 'scenario'}: a key holds "
                                        "a lone surrogate, which is not text")
                pending.append((f"{path}.{key}" if path else key, value))
        elif isinstance(node, list):
            pending += [(f"{path}[{i}]", item) for i, item in enumerate(node)]
        elif isinstance(node, str) and _SURROGATE.search(node):
            raise ScenarioError(f"{path or 'scenario'}: the string holds a "
                                "lone surrogate, which is not text")


def _parse_file(path: Path) -> Scenario:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"the document is not UTF-8 text: byte "
                            f"{exc.start} is {exc.object[exc.start]:#04x}"
                            ) from None
    return parse_scenario_file(text)


def _load_scenario(source: str) -> Scenario:
    from .scenarios import BUILTIN_SCENARIOS

    if source in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[source]()
    path = Path(source)
    if path.exists():
        return _parse_file(path)
    raise ScenarioError(
        f"{source!r} is neither a built-in scenario nor an existing file "
        f"(built-ins: {', '.join(sorted(BUILTIN_SCENARIOS))})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqmsim",
        description="multi-observer quantum measurement scenarios with "
                    "per-observer event ledgers")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario or parameter sweep")
    run.add_argument("scenario", help="built-in name or scenario file path")
    run.add_argument("--trials", type=int, default=1000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--format", dest="fmt", default="summary",
                     choices=sorted(_FORMAT_ALIASES))
    run.add_argument("--out", default=None, help="output path (default stdout)")
    run.add_argument("--strict", action="store_true",
                     help="reading a destroyed record raises instead of "
                          "sampling with a warning flag")

    sub.add_parser("list", help="list built-in scenarios and sweeps")

    val = sub.add_parser("validate", help="validate a scenario file")
    val.add_argument("file")
    return parser


def load_numpy() -> None:
    """Import numpy with OpenBLAS on one thread.

    A trial's kernels are too small for a second BLAS thread to help, and
    that thread busy-waits beside the Python thread. OpenBLAS reads its
    thread count once, when it loads, so this sets ``OPENBLAS_NUM_THREADS``
    around the import and then removes it again: no child process and no
    host program inherits it. It does nothing when numpy is already loaded
    or when one of OpenBLAS's own variables is set, so a user's choice
    stands.
    """
    if "numpy" in sys.modules \
            or any(var in os.environ for var in _BLAS_THREAD_VARS):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    load_numpy()
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "validate":
            return _cmd_validate(args.file)
        config = RunConfig(scenario=args.scenario, trials=args.trials,
                           seed=args.seed, fmt=_FORMAT_ALIASES[args.fmt],
                           out=args.out, strict=args.strict)
        return _cmd_run(config)
    except (ScenarioError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_list() -> int:
    from .scenarios import BUILTIN_SCENARIOS

    for name in sorted(BUILTIN_SCENARIOS) + list(SWEEPS):
        print(f"{name:28s} {_DESCRIPTIONS.get(name, '')}")
    return 0


def _cmd_validate(path: str) -> int:
    source = Path(path)
    if not source.exists():
        print(f"error: no such file {path!r}", file=sys.stderr)
        return 2
    scenario = _parse_file(source)
    print(f"ok: {scenario.name} ({len(scenario.steps)} steps, "
          f"{len(scenario.checks)} checks)")
    return 0


def _cmd_run(config: RunConfig) -> int:
    from .eventgraph import record_line
    from .scenarios import run_trials

    stream = open(config.out, "w", encoding="utf-8") if config.out \
        else sys.stdout
    try:
        if config.scenario in SWEEPS:
            return _run_sweep(config, stream)
        scenario = _load_scenario(config.scenario)
        if config.fmt == "events":
            stats = run_trials(
                scenario, config.trials, config.seed, strict=config.strict,
                trace_callback=lambda trace: stream.write(
                    "".join(record_line(ev) + "\n" for ev in trace.events)))
            _emit_diagnostics(stats)
        else:
            stats = run_trials(scenario, config.trials, config.seed,
                               strict=config.strict)
            if config.fmt == "summary":
                stream.write(stats.render_text() + "\n")
                _emit_diagnostics(stats, quiet=True)
            else:
                _emit_table(stats, stream)
                _emit_diagnostics(stats)
        return 0 if stats.all_passed else 1
    finally:
        if config.out:
            stream.close()


def _emit_diagnostics(stats: SummaryStats, quiet: bool = False) -> None:
    print(f"runtime: {stats.runtime_seconds:.2f}s", file=sys.stderr)
    if not quiet:
        for check in stats.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"check {check.name}: {status}", file=sys.stderr)


def _emit_table(stats: SummaryStats, stream) -> None:
    # two-column rows grouped per step
    current = None
    for label, value, freq, _ in stats.frequency_rows():
        if label != current:
            stream.write(f"# {label}\n")
            current = label
        stream.write(f"{value:.12g} {freq:.12g}\n")


def _run_sweep(config: RunConfig, stream) -> int:
    refused = "produce tables, not event streams" if config.fmt == "events" \
        else "take no --strict" if config.strict else None
    if refused:
        print(f"error: sweeps {refused}", file=sys.stderr)
        return 2
    if config.scenario == "disturbance-profile":
        rows, checks = _disturbance_sweep(config.trials, config.seed)
    else:
        rows, checks = _stable_facts_sweep()
    for x, y in rows:
        stream.write(f"{x:.12g} {y:.12g}\n")
    all_passed = True
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        print(f"check {name}: {status} ({detail})", file=sys.stderr)
        all_passed = all_passed and passed
    return 0 if all_passed else 1


def _disturbance_sweep(trials: int, seed: int):
    from .dynamics import disturbance_profile, disturbance_world_template
    from .qcore import PAULI_X, PAULI_Z, ObservableSpec

    record = ObservableSpec.from_matrix("pauli-z", PAULI_Z)
    probe = ObservableSpec.from_matrix("pauli-x", PAULI_X)
    strengths = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    rows = disturbance_profile(disturbance_world_template(), record, probe,
                               strengths, trials, master_seed=seed)
    sigma = 3.0 * math.sqrt(0.25 / trials)
    checks = [
        ("fidelity(0)=1", rows[0][1] == 1.0, f"observed {rows[0][1]}"),
        ("fidelity(1)=0.5", abs(rows[-1][1] - 0.5) <= max(sigma, 0.015),
         f"observed {rows[-1][1]:.4f}"),
        ("monotone", _monotone_within_noise(rows, trials),
         "non-increasing within 3-sigma"),
    ]
    return rows, checks


def _monotone_within_noise(rows, trials: int) -> bool:
    for (_, a), (_, b) in zip(rows, rows[1:]):
        slack = 3.0 * math.sqrt(
            (a * (1 - a) + b * (1 - b)) / trials + 1e-12)
        if b > a + slack:
            return False
    return True


def _stable_facts_sweep():
    import numpy as np

    from .dynamics import stable_fact_grid
    from .qcore import PAULI_X, PAULI_Z, ObservableSpec

    q_obs = ObservableSpec.from_matrix("pauli-x", PAULI_X)
    v_obs = ObservableSpec.from_matrix("pauli-z", PAULI_Z)
    overlaps = list(np.linspace(1.0, 0.0, 10))
    amps = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    rows = stable_fact_grid(amps, overlaps, q_obs, v_obs)
    eps = dict(rows)
    monotone = all(rows[i + 1][1] <= rows[i][1] + 1e-12
                   for i in range(len(rows) - 1))
    checks = [
        ("deficit(overlap=0)<1e-10", eps[0.0] < 1e-10, f"observed {eps[0.0]:.2e}"),
        ("deficit(overlap=1)=0.5", abs(eps[1.0] - 0.5) < 1e-10,
         f"observed {eps[1.0]:.12f}"),
        ("monotone", monotone, "non-increasing as overlap falls"),
    ]
    return rows, checks


if __name__ == "__main__":
    sys.exit(main())
