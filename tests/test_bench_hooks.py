"""The benchmark's tracer (``perfbench/tracer.py``) wraps rqmsim functions
and methods by name, and its set-up runs (``perfbench/child.py setup``) call
rqmsim's entry points. A rename in ``src/`` would only show up when the
benchmark runs; these tests install every hook on a fresh tracer, so the
rename fails here instead, check that every original comes back, and run
each set-up the benchmark spawns."""

import importlib.util
import json
from pathlib import Path

import pytest

from rqmsim import eventgraph
from rqmsim.scenarios import build_stern_gerlach_decoherence

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CHILD = TRACER.with_name("child.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
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
