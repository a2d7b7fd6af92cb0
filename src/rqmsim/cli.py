"""Command-line front end: run scenarios, validate scenario files, emit
summaries, event streams and numeric tables.

Exit codes: 0 all checks passed, 1 at least one check failed (summary still
emitted), 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ScenarioError, SimulationError

if TYPE_CHECKING:
    from .scenarios import Scenario, SummaryStats

# the variables OpenBLAS reads its thread count from when it loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS")

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
        if args.trials < 1:
            raise ScenarioError("trial count must be at least 1")
        if not 0 <= args.seed < 2 ** 64:
            raise ScenarioError("seed must fit in 64 bits")
        if not args.scenario:
            raise ScenarioError("exactly one scenario source is required")
        if args.out:
            _refuse_unwritable(args.out)
        return _cmd_run(args, _FORMAT_ALIASES[args.fmt])
    except (ScenarioError, SimulationError, OSError) as exc:
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
        raise ScenarioError(f"no such file {path!r}")
    scenario = _parse_file(source)
    print(f"ok: {scenario.name} ({len(scenario.steps)} steps, "
          f"{len(scenario.checks)} checks)")
    return 0


def _cmd_run(args: argparse.Namespace, fmt: str) -> int:
    from .eventgraph import record_line
    from .scenarios import run_trials

    if args.scenario in SWEEPS:
        return _run_sweep(args, fmt)
    scenario = _load_scenario(args.scenario)  # a refused document raises
    if fmt == "events":  # streamed while the trials run
        with _output(args.out) as stream:
            stats = run_trials(
                scenario, args.trials, args.seed, strict=args.strict,
                trace_callback=lambda trace: stream.write(
                    "".join(record_line(ev) + "\n" for ev in trace.events)))
        _emit_diagnostics(stats)
    else:
        stats = run_trials(scenario, args.trials, args.seed,
                           strict=args.strict)
        with _output(args.out) as stream:
            if fmt == "summary":
                stream.write(stats.render_text() + "\n")
            else:
                _emit_table(stats, stream)
        _emit_diagnostics(stats, quiet=fmt == "summary")
    return 0 if stats.all_passed else 1


def _output(path: str | None):
    """The stream a run writes its output to, opened only once there is
    output to write, so that a refused run, or a summary or table run that
    fails in a trial, leaves ``path`` as it was."""
    if path:
        return open(path, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _refuse_unwritable(path: str) -> None:
    """Raise what ``open(path, "w")`` raises when ``path`` is a directory or
    its parent is not one, without creating or truncating ``path``."""
    code = errno.EISDIR if os.path.isdir(path) else None
    try:  # the trailing separator makes a parent that is a file fail too
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as exc:
        code = exc.errno
    if code is not None:
        raise OSError(code, os.strerror(code), path)


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


def _run_sweep(args: argparse.Namespace, fmt: str) -> int:
    if fmt == "events":
        raise ScenarioError("sweeps produce tables, not event streams")
    if args.strict:
        raise ScenarioError("sweeps take no --strict")
    rows, checks = SWEEPS[args.scenario](args.trials, args.seed)
    with _output(args.out) as stream:
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
    from .scenarios import _pauli

    record, probe = _pauli("pauli-z"), _pauli("pauli-x")
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


def _stable_facts_sweep(trials: int, seed: int):
    """The grid is exact: it runs no trials and draws no outcome."""
    import numpy as np

    from .dynamics import stable_fact_grid
    from .scenarios import _pauli

    q_obs, v_obs = _pauli("pauli-x"), _pauli("pauli-z")
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


# every sweep by name: each takes the trial count and seed and gives its
# table's rows and its checks
SWEEPS = {"disturbance-profile": _disturbance_sweep,
          "stable-facts-grid": _stable_facts_sweep}

if __name__ == "__main__":
    sys.exit(main())
