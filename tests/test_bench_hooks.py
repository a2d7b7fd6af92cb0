"""The benchmark's tracer (``perfbench/tracer.py``) wraps rqmsim functions
and methods by name, and its set-up runs (``perfbench/child.py setup``) call
rqmsim's entry points. A rename in ``src/`` would only show up when the
benchmark runs; these tests install every hook on a fresh tracer, so the
rename fails here instead, check that every original comes back, and run
each set-up the benchmark spawns. One more runs every workload under the
tracer and checks the counts that the benchmark's self-checks expect, and
the last runs every workload at two seeds against the golden table
(``perfbench/golden.json``) that the benchmark checks each run against."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rqmsim import cli, eventgraph
from rqmsim.scenarios import build_stern_gerlach_decoherence

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CHILD = TRACER.with_name("child.py")
RUN = TRACER.with_name("run.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_run(monkeypatch):
    # a dataclass looks its module up in sys.modules while it is built
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_finds_its_target_and_is_restored():
    tracer = _load_tracer()
    before = dict(vars(eventgraph.World))
    learn = eventgraph.learn
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert eventgraph.learn is not learn
    finally:
        t.restore()
    assert t.missing == []
    assert dict(vars(eventgraph.World)) == before
    assert eventgraph.learn is learn


@pytest.mark.parametrize("source", ["frauchiger-renner",
                                    "three-outcome-meddled",
                                    "disturbance-profile", "sg-wide"])
def test_every_benchmark_setup_runs(source, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    if source == "sg-wide":
        doc = build_stern_gerlach_decoherence(environment_size=8).to_dict()
        path = tmp_path / "sg-wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        source = str(path)
    assert child.setup(source) == 0


def test_every_workload_meets_its_self_checks_under_the_tracer(
        tmp_path, capsys, monkeypatch):
    # in-process, at 20 trials: the counts are exact at any trial count, so
    # a change that breaks a self-check of the benchmark fails here first.
    # capsys gives the tracer's CountingStream a stdout with an encoding
    run, tracer = _load_run(monkeypatch), _load_tracer()
    sg_wide = tmp_path / "sg-wide.json"
    sg_wide.write_text(json.dumps(
        build_stern_gerlach_decoherence(environment_size=8).to_dict()),
        encoding="utf-8")
    spans = str(tmp_path / "spans.json")
    for name, wl in run.WORKLOADS.items():
        args = [str(sg_wide) if a == run.SG_WIDE_FILE else a for a in wl.args]
        # exit 1 is a statistical check that 20 trials cannot pass
        assert tracer.run_traced(spans, [*args, "--trials", "20",
                                         "--seed", "3"]) in (0, 1), name
        metrics, exact = run.layer_metrics(spans, 20 * wl.worlds_per_trial)
        assert exact["missing"] == [], name
        got = {key: metrics[key][0] for key in wl.expected}
        assert got == wl.expected, name


@pytest.mark.parametrize("seed", [0, 5])  # seed 5: the sweep's exit 1
def test_every_workload_matches_the_benchmark_golden_table(
        seed, tmp_path, capsys, monkeypatch):
    # in-process through the command line, at the benchmark's own argv:
    # the exit code and the SHA-256 of stdout are those the benchmark
    # checks every run against
    run = _load_run(monkeypatch)
    golden = json.loads(Path(run.GOLDEN).read_text(encoding="utf-8"))
    sg_wide = tmp_path / "sg-wide.json"
    sg_wide.write_text(json.dumps(
        build_stern_gerlach_decoherence(environment_size=8).to_dict()),
        encoding="utf-8")
    for name, wl in run.WORKLOADS.items():
        argv = [str(sg_wide) if a == run.SG_WIDE_FILE else a
                for a in wl.argv(seed)]
        code = cli.main(argv)
        digest = hashlib.sha256(
            capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert {"exit": code, "sha256": digest} == \
            golden[name]["seeds"][str(seed)], name
