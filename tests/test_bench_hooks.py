"""The benchmark's tracer (``perfbench/tracer.py``) wraps rqmsim functions
and methods by name. A rename in ``src/`` would only show up when the traced
benchmark runs; this test installs every hook on a fresh tracer, so the
rename fails here instead, and checks that every original comes back."""

import importlib.util
from pathlib import Path

from rqmsim import eventgraph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
