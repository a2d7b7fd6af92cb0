"""End-to-end benchmark of the rqmsim command line.

    python3 perfbench/run.py --workload fr-nested --seed 0 --seconds 28 --trace 0

Run from the root of a checkout. Each run of ``rqmsim run`` is a fresh
process (``child.py``), one at a time: a closed loop that starts the next
run when the previous one has exited, repeated until ``--seconds`` have
passed. Every run's stdout and exit status are checked against the golden
table in ``golden.json``.

``--trace 0`` reports the end-to-end metrics: trials/s and CPU per trial
(medians over the runs), set-up time (median over spawns that only import
and compile) and peak RSS. Wall times have the host's steal time taken out
(see ``Sample.run_s``). ``--trace 1`` alternates untraced runs with
runs under ``tracer.py`` and reports per-layer time and exact counts,
checking that the counts repeat across traced runs and equal the values the
code fixes today. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
GOLDEN = os.path.join(BENCH, "golden.json")
CHILD = os.path.join(BENCH, "child.py")

# --seed N runs program seed N mod GOLDEN_SEEDS; each of these has a stored
# golden output, so every run is checked byte for byte
GOLDEN_SEEDS = 16
# set-up spawns are short and noisy, so each run is followed by two of them
SETUP_PER_RUN = 2
CHILD_TIMEOUT_S = 60.0
# removed from the child's environment so that every run gets OpenBLAS's
# default threading, as a user does
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SG_WIDE_FILE = os.path.join("perfbench", ".work", "sg-wide.json")
CPUS = os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]          # rqmsim argv, without --trials/--seed
    trials: int
    setup: str                     # what child.py setup loads and compiles
    expected: dict                 # per-trial counts the code fixes today
    worlds_per_trial: int = 1      # the sweep runs one world per strength

    @property
    def units(self) -> int:
        return self.trials * self.worlds_per_trial

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--trials", str(self.trials), "--seed", str(seed)]


WORKLOADS = {
    "fr-nested": Workload(
        ("run", "frauchiger-renner"), 1000, "frauchiger-renner",
        expected={"eventgraph.replay_calls": 2,
                  "eventgraph.events_per_trial": 4}),
    "sg-wide": Workload(
        ("run", SG_WIDE_FILE), 200, SG_WIDE_FILE,
        expected={"eventgraph.replay_calls": 1,
                  "eventgraph.events_per_trial": 8,
                  "qcore.density_matrix_inits": 3}),
    "meddled-events": Workload(
        ("run", "three-outcome-meddled", "--format", "events"), 800,
        "three-outcome-meddled",
        expected={"eventgraph.replay_calls": 1,
                  "eventgraph.events_per_trial": 4}),
    "disturbance-sweep": Workload(
        ("run", "disturbance-profile", "--format", "table"), 250,
        "disturbance-profile",
        expected={"eventgraph.replay_calls": 0,
                  "eventgraph.events_per_trial": 2},
        worlds_per_trial=6),
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    steal_s: float
    cpu_s: float
    maxrss_kib: int
    code: int
    sha256: str

    @property
    def run_s(self) -> float:
        """Wall time less the host's steal time during the run, averaged
        over the CPUs: time in which no vCPU of this machine could run the
        process does not count against the program."""
        return self.wall_s - self.steal_s / CPUS


def host_steal_s() -> float:
    """Steal time so far, summed over CPUs, from /proc/stat; 0 where the
    kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in THREAD_VARS}


def spawn(child_args: list[str]) -> Sample:
    """Run ``child.py child_args`` to completion; stdout goes to a file in
    the work directory and is hashed, rusage comes from ``os.wait4``."""
    out_path = os.path.join(WORK, "stdout")
    with open(out_path, "wb") as out, \
            open(os.path.join(WORK, "stderr"), "wb") as err:
        steal = host_steal_s()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *child_args],
                                cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        steal = host_steal_s() - steal
    # wait4 reaped the child, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return Sample(wall, steal, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss, proc.returncode, digest)


def stderr_tail() -> str:
    with open(os.path.join(WORK, "stderr"), encoding="utf-8",
              errors="replace") as fh:
        return fh.read()[-2000:]


class Checker:
    """Compares each run with the golden entry for (workload, seed)."""

    def __init__(self, name: str, wl: Workload, seed: int):
        with open(GOLDEN, encoding="utf-8") as fh:
            table = json.load(fh).get(name, {})
        entry = table.get("seeds", {}).get(str(seed))
        self.golden = entry if table.get("trials") == wl.trials else None
        self.attempted = 0
        self.failed = 0

    def note(self) -> str:
        if self.golden is None:
            return "no golden hash for this seed: checking exit status only"
        return "checking stdout SHA-256 and exit status against golden.json"

    def check(self, sample: Sample, what: str, golden: bool = True) -> bool:
        """Count one process; ``golden=False`` checks the exit status only."""
        self.attempted += 1
        if golden and self.golden is not None:
            ok = (sample.code == self.golden["exit"]
                  and sample.sha256 == self.golden["sha256"])
        else:
            ok = sample.code == 0
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: exit {sample.code}, sha256 {sample.sha256}"
                  f"\n{stderr_tail()}", file=sys.stderr)
        return ok


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(wl: Workload, seed: int, seconds: float, checker: Checker):
    # set-up spawns alternate with runs, so that both see the same machine
    runs: list[Sample] = []
    setup: list[float] = []
    deadline = time.monotonic() + seconds
    while True:
        sample = spawn(["run", *wl.argv(seed)])
        runs.append(sample)
        checker.check(sample, "run")
        for _ in range(SETUP_PER_RUN):
            sample = spawn(["setup", wl.setup])
            if checker.check(sample, "set-up", golden=False):
                setup.append(sample.run_s)
        if time.monotonic() >= deadline:
            break
    report = {
        "trials_per_s": ([wl.units / s.run_s for s in runs], "trials/s"),
        "cpu_us_per_trial": ([s.cpu_s / wl.units * 1e6 for s in runs], "us"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": ([s.maxrss_kib / 1024 for s in runs], "MiB"),
    }
    samples = {
        "cpu_wall_ratio": [round(s.cpu_s / s.wall_s, 3) for s in runs],
        "wall_s": [round(s.wall_s, 4) for s in runs],
        "steal_s": [round(s.steal_s, 2) for s in runs],
    }
    return report, samples


def layer_metrics(path: str, units: int) -> tuple[dict, dict]:
    """Per-layer metrics from one traced run's span file: (values with
    units, exact counts that must repeat)."""
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    flat = array.array("q")
    with open(path + ".bin", "rb") as fh:
        flat.frombytes(fh.read())
    names = meta["names"]
    n = len(flat) // 4
    calls, total, self_ns, module_self = (defaultdict(int) for _ in range(4))
    # a span's slot is taken when it starts, so its children come after it:
    # walking backwards, every child is counted before its parent
    child = [0] * n
    for i in range(n - 1, -1, -1):
        idx, start, end, parent = flat[4 * i:4 * i + 4]
        name, duration = names[idx], end - start
        calls[name] += 1
        total[name] += duration
        self_ns[name] += duration - child[i]
        module_self[name.split(".", 1)[0]] += duration - child[i]
        if parent >= 0:
            child[parent] += duration
    counts = meta["counts"]

    def us(*span_names):
        return sum(total[s] for s in span_names) / 1e3 / units

    def per_trial(*span_names):
        return sum(calls[s] for s in span_names) / units

    lookups = counts.get("cache_lookups", 0)
    m = {
        "scenarios.compile_ms": (
            (total["scenarios.compile"] + total["dynamics.template"]) / 1e6,
            "ms"),
        "scenarios.seed_us": (us("scenarios.seed"), "us"),
        "scenarios.initial_us": (us("scenarios.initial"), "us"),
        "scenarios.checks_us": (us("scenarios.checks"), "us"),
        "scenarios.loop_self_us": (self_ns["scenarios.loop"] / 1e3 / units,
                                   "us"),
        "eventgraph.measure_calls": (per_trial("eventgraph.measure"),
                                     "count/trial"),
        "eventgraph.measure_us": (us("eventgraph.measure"), "us"),
        "eventgraph.learn_calls": (per_trial("eventgraph.learn"),
                                   "count/trial"),
        "eventgraph.unitary_calls": (per_trial("eventgraph.unitary"),
                                     "count/trial"),
        "eventgraph.unitary_us": (us("eventgraph.unitary"), "us"),
        "eventgraph.replay_calls": (per_trial("eventgraph.replay"),
                                    "count/trial"),
        "eventgraph.replay_us": (us("eventgraph.replay"), "us"),
        "eventgraph.relative_state_us": (us("eventgraph.relative_state"),
                                         "us"),
        "eventgraph.apply_op_calls": (per_trial("eventgraph.apply_op"),
                                      "count/trial"),
        "eventgraph.apply_op_us": (us("eventgraph.apply_op"), "us"),
        "eventgraph.apply_op_mflop": (
            counts.get("apply_op_flop", 0) / 1e6 / units, "Mflop/trial"),
        "eventgraph.apply_op_mbytes": (
            counts.get("apply_op_bytes", 0) / 1e6 / units, "MB/trial"),
        "eventgraph.register_probs_us": (us("eventgraph.register_probs"),
                                         "us"),
        "eventgraph.project_us": (us("eventgraph.project"), "us"),
        "eventgraph.events_per_trial": (counts.get("events", 0) / units,
                                        "count/trial"),
        "eventgraph.cache_hit_ratio": (
            counts.get("cache_hits", 0) / lookups if lookups else 0.0,
            "ratio"),
        "qcore.density_matrix_inits": (per_trial("qcore.density_matrix_init"),
                                       "count/trial"),
        "qcore.state_vector_inits": (per_trial("qcore.state_vector_init"),
                                     "count/trial"),
        "qcore.born_probabilities_us": (us("qcore.born_probabilities"), "us"),
        "qcore.partial_trace_us": (us("qcore.partial_trace"), "us"),
        "qcore.apply_matrix_on_axes_calls": (
            per_trial("qcore.apply_matrix_on_axes"), "count/trial"),
        "dynamics.deficit_us": (us("dynamics.deficit"), "us"),
        "dynamics.aggregate_us": (us("dynamics.aggregate"), "us"),
        "dynamics.fork_us": (us("dynamics.fork"), "us"),
        "dynamics.decohere_calls": (per_trial("dynamics.decohere"),
                                    "count/trial"),
        "dynamics.decohere_us": (us("dynamics.decohere"), "us"),
        "dynamics.measurement_unitary_calls": (
            calls["dynamics.measurement_unitary"], "count"),
        "cli.serialize_us": (us("cli.event_record", "cli.emit"), "us"),
        "cli.bytes_out": (counts.get("bytes_out", 0), "B"),
        "cli.write_us": (us("cli.write"), "us"),
    }
    for module in ("scenarios", "eventgraph", "qcore", "dynamics", "cli"):
        m[f"{module}.self_us"] = (module_self[module] / 1e3 / units, "us")
    exact = {"calls": dict(calls), "counts": counts,
             "missing": meta["missing"]}
    return m, exact


def traced(wl: Workload, seed: int, seconds: float, checker: Checker):
    """Alternate untraced and traced runs. Returns the per-layer report,
    the self-check problems found and the number of traced runs."""
    plain, traced_s, layers, exacts = [], [], [], []
    spans = os.path.join(WORK, "spans.json")
    deadline = time.monotonic() + seconds
    while True:
        sample = spawn(["run", *wl.argv(seed)])
        if checker.check(sample, "untraced run"):
            plain.append(sample.run_s)
        sample = spawn(["trace", spans, *wl.argv(seed)])
        if checker.check(sample, "traced run"):
            traced_s.append(sample.run_s)
            m, exact = layer_metrics(spans, wl.units)
            layers.append(m)
            exacts.append(exact)
        if time.monotonic() >= deadline:
            break
    if not layers:
        return {}, ["no traced run succeeded"], 0
    report = {key: ([m[key][0] for m in layers], unit)
              for key, (_, unit) in layers[0].items()}
    if plain:
        overhead = statistics.median(traced_s) / statistics.median(plain) - 1
        report["trace.overhead_pct"] = ([overhead * 100.0], "%")
    problems = [f"hook target not found: {name}"
                for name in exacts[0]["missing"]]
    if any(e != exacts[0] for e in exacts[1:]):
        problems.append("exact counts differ between traced runs")
    for key, want in wl.expected.items():
        got = report[key][0][0]
        if got != want:
            problems.append(f"{key} = {got}, expected exactly {want}")
    return report, problems, len(layers)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "removed_from_child_env": {k: os.environ[k] for k in THREAD_VARS
                                   if k in os.environ},
    }


def prepare(name: str) -> None:
    os.makedirs(WORK, exist_ok=True)
    if name == "sg-wide":
        from rqmsim.scenarios import build_stern_gerlach_decoherence

        doc = build_stern_gerlach_decoherence(environment_size=8).to_dict()
        with open(os.path.join(ROOT, SG_WIDE_FILE), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh)
    # compile bytecode and warm the file cache outside the measurements
    spawn(["setup", WORKLOADS[name].setup])


def run_workload(name: str, given_seed: int, seconds: float,
                 trace: bool) -> bool:
    """Measure one workload, print its report; the last line printed is
    the JSON result. Returns whether every run was correct."""
    wl = WORKLOADS[name]
    seed = given_seed % GOLDEN_SEEDS
    checker = Checker(name, wl, seed)
    env = environment()
    prepare(name)
    print(f"workload {name}: rqmsim {' '.join(wl.argv(seed))} "
          f"(--seed {given_seed} -> program seed {seed}); {checker.note()}")
    print("environment " + json.dumps(env))

    problems: list[str] = []
    if trace:
        report, problems, n_traced = traced(wl, seed, seconds, checker)
        print(f"traced runs: {n_traced}; per trial = per "
              f"{'world' if wl.worlds_per_trial > 1 else 'trial'}, "
              f"{wl.units} per run")
    else:
        report, samples = end_to_end(wl, seed, seconds, checker)
        print("samples " + json.dumps(samples))

    metrics = {}
    for key, (values, unit) in report.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[key] = {"value": med, "unit": unit}
        print(f"{key:36s} {med:14.6g} {unit:12s} median of {len(values)}"
              f" (q1 {q1:.6g}, q3 {q3:.6g})")
    error_rate = checker.failed / checker.attempted
    print(f"{'error_rate':36s} {error_rate:14.6g} {'fraction':12s} "
          f"{checker.failed} of {checker.attempted} processes")
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    correct = checker.failed == 0 and not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}),
          flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rqmsim", "cli.py")):
        print(f"error: no rqmsim sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
