"""Span tracer for one in-process run of the rqmsim command line.

rqmsim's modules bind each other's functions by name (``from .eventgraph
import learn``), so wrapping ``eventgraph.learn`` alone would miss the calls
made through ``scenarios.learn`` or ``dynamics.learn``. The tracer therefore
replaces a function in every ``rqmsim`` module that holds it, and wraps
methods on their classes (``World``, ``_Compiled``, the check accumulators,
``StateVector``, ``DensityMatrix``). Every original is restored when the run
ends. A hook whose target no longer exists is skipped and listed under
``missing``, so a refactor of the program degrades the trace instead of
breaking the run.

Spans are kept in memory as (name index, start ns, end ns, parent span
index) and written out once at the end; ``run.py`` computes inclusive and
self time from them. Counters that spans cannot give (computed flops and
bytes, cache lookups, events created, bytes written) are kept alongside.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
import types
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans: list = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        idx = self.names.setdefault(name, len(self.names))
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[slot] = (idx, start, clock(), parent)
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, hook=None) -> None:
        """Wrap ``module.attr`` in every rqmsim module that imported it."""
        fn = vars(module).get(attr)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self.span(name, hook(fn) if hook else fn)
        for mod in _rqmsim_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str | None,
                     hook=None) -> None:
        """Wrap a method on its class; ``name=None`` counts without a span."""
        fn = vars(cls).get(attr) if cls is not None else None
        if fn is None:
            self.missing.append(f"{getattr(cls, '__name__', cls)}.{attr}")
            return
        inner = hook(fn) if hook else fn
        self._set(cls, attr, inner if name is None else self.span(name, inner))

    def patch_seeding(self, module, name: str) -> None:
        """Time ``np.random.SeedSequence`` and ``np.random.default_rng`` as
        called from ``module``, through a copy of numpy's namespace."""
        np = vars(module).get("np")
        if np is None:
            self.missing.append(f"{module.__name__}.np")
            return
        rand = types.ModuleType(np.random.__name__)
        rand.__dict__.update(vars(np.random))
        rand.SeedSequence = self.span(name, np.random.SeedSequence)
        rand.default_rng = self.span(name, np.random.default_rng)
        fake = types.ModuleType(np.__name__)
        fake.__dict__.update(vars(np))
        fake.random = rand
        self._set(module, "np", fake)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write ``path`` (names, counters, missing hooks) and ``path.bin``
        (four int64 per span)."""
        flat = array.array("q")
        for span in self.spans:
            flat.extend(span)
        with open(path + ".bin", "wb") as fh:
            flat.tofile(fh)
        names = sorted(self.names, key=self.names.get)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "counts": dict(self.counts),
                       "missing": self.missing}, fh)


def _rqmsim_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rqmsim" or n.startswith("rqmsim."))]


class CountingStream:
    """Stands in for ``sys.stdout``: each write is a ``cli.write`` span and
    adds its encoded length to ``bytes_out``."""

    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        self._counts = tracer.counts
        self.write = tracer.span("cli.write", self._write)

    def _write(self, text):
        self._counts["bytes_out"] += len(text.encode(self._stream.encoding))
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def install(t: Tracer) -> None:
    """Install every hook. Span names are ``<layer>.<what>``; the layer
    prefix is the module the time is charged to."""
    from rqmsim import dynamics, eventgraph, qcore, scenarios

    counts = t.counts

    def count_events(fn):
        def measure(world, *args, **kwargs):
            before = len(world.events)
            try:
                return fn(world, *args, **kwargs)
            finally:
                counts["events"] += len(world.events) - before
        return measure

    def count_flops(fn):
        # computed from shapes, not measured: a dense full-space matvec is
        # 8*D^2 flop over a 16*D^2 B matrix; the axes path is 8*d_t*D flop
        # over a 16*d_t^2 B matrix; both read and write the 16*D B state
        def apply_op(world, state, op, *args, **kwargs):
            d = state.shape[0]
            if getattr(op, "full", None) is not None:
                counts["apply_op_flop"] += 8 * d * d
                counts["apply_op_bytes"] += 16 * d * d + 32 * d
            else:
                k = op.matrix.shape[0]
                counts["apply_op_flop"] += 8 * k * d
                counts["apply_op_bytes"] += 16 * k * k + 32 * d
            return fn(world, state, op, *args, **kwargs)
        return apply_op

    def count_hits(fn):
        def cached(world, key, ref, build):
            hit = world._cache.get(key)
            counts["cache_lookups"] += 1
            if hit is not None and hit[0] is ref:
                counts["cache_hits"] += 1
            return fn(world, key, ref, build)
        return cached

    def trace_callback(fn):
        def run_trials(*args, **kwargs):
            callback = kwargs.get("trace_callback")
            if callback is not None:
                kwargs["trace_callback"] = t.span("cli.emit", callback)
            return fn(*args, **kwargs)
        return run_trials

    world = getattr(eventgraph, "World", None)
    t.patch_method(world, "__init__", "eventgraph.world_init")
    t.patch_method(world, "fork", "dynamics.fork")
    t.patch_method(world, "_measure", "eventgraph.measure", count_events)
    t.patch_method(world, "apply_unitary", "eventgraph.unitary")
    t.patch_method(world, "_replay", "eventgraph.replay")
    t.patch_method(world, "_apply_op", "eventgraph.apply_op", count_flops)
    t.patch_method(world, "_register_probs", "eventgraph.register_probs")
    t.patch_method(world, "_project_register", "eventgraph.project")
    t.patch_method(world, "_cached", None, count_hits)

    compiled = getattr(scenarios, "_Compiled", None)
    t.patch_method(compiled, "__init__", "scenarios.compile")
    t.patch_method(compiled, "build_initial", "scenarios.initial")
    base = getattr(scenarios, "_Accumulator", None)
    if base is None:
        t.missing.append("scenarios._Accumulator")
    pending = list(base.__subclasses__()) if base is not None else []
    while pending:
        acc = pending.pop()
        pending.extend(acc.__subclasses__())
        if "per_trial" in vars(acc):
            t.patch_method(acc, "per_trial", "scenarios.checks")

    t.patch_method(getattr(qcore, "StateVector", None), "__init__",
                   "qcore.state_vector_init")
    t.patch_method(getattr(qcore, "DensityMatrix", None), "__init__",
                   "qcore.density_matrix_init")

    for module, attr, name, hook in (
        (scenarios, "run_trials", "scenarios.loop", trace_callback),
        (eventgraph, "record_measurement", "eventgraph.record_measurement",
         None),
        (eventgraph, "learn", "eventgraph.learn", None),
        (eventgraph, "relative_state", "eventgraph.relative_state", None),
        (eventgraph, "check_cross_perspective_link", "eventgraph.check_cpl",
         None),
        (eventgraph, "check_internal_consistency", "eventgraph.check_icd",
         None),
        (eventgraph, "event_record", "cli.event_record", None),
        (qcore, "partial_trace", "qcore.partial_trace", None),
        (qcore, "born_probabilities", "qcore.born_probabilities", None),
        (qcore, "apply_matrix_on_axes", "qcore.apply_matrix_on_axes", None),
        (qcore, "embed_matrix", "qcore.embed_matrix", None),
        (dynamics, "stable_fact_deficit", "dynamics.deficit", None),
        (dynamics, "aggregate_perspective", "dynamics.aggregate", None),
        (dynamics, "decohere", "dynamics.decohere", None),
        (dynamics, "measurement_unitary", "dynamics.measurement_unitary",
         None),
        (dynamics, "disturbance_world_template", "dynamics.template", None),
        (dynamics, "disturbance_profile", "dynamics.sweep", None),
    ):
        t.patch_function(module, attr, name, hook)

    for module in (scenarios, dynamics, eventgraph):
        t.patch_seeding(module, module.__name__.rsplit(".", 1)[1] + ".seed")


def run_traced(path: str, argv: list[str]) -> int:
    """``rqmsim.cli.main(argv)`` under the tracer; spans go to ``path``."""
    from rqmsim import cli

    t = Tracer()
    main = t.span("cli.main", cli.main)
    real_stdout = sys.stdout
    try:
        install(t)
        sys.stdout = CountingStream(real_stdout, t)
        code = main(argv)
    finally:
        sys.stdout = real_stdout
        t.restore()
    t.dump(path)
    return code
