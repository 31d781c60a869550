"""Span recording around stagesim's layer entry points, from outside src/.

Every wrapper is installed at the namespace its caller looks the name up in:
`simulation.py` imports `select_next` by name, so the benchmark patches
`stagesim.simulation.select_next`, not `stagesim.scheduling.select_next`.
Methods are patched on their class, which is where `self.method` and
`engine.method` are looked up.

A span is (name, start, end, parent span, simulation id).  Spans live in
flat arrays while the process runs and are written to one file when it
ends; `self_times` turns that file into per-name self time, a span's
duration minus the durations of its direct children.

Counters that a ratio needs (queue entries keyed per select, prefix hits,
stale completions, ...) are taken in the same wrappers, so each ratio is
measured where the work happens.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("i")
        self.sims = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.sim = -1  # id of the most recently created Simulator
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str | None, fn, before=None, after=None):
        """A span-recording wrapper for `fn`.  `before(args)` runs ahead of
        the span; `after(args, result)` runs once `fn` returned.  With no
        name only the hooks run and no span is recorded."""
        if name is None:

            def hooked(*args, **kwargs):
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

            return hooked
        nid = self._name_id(name)
        name_ids, parents, sims = self.name_ids, self.parents, self.sims
        starts, ends, stack = self.starts, self.ends, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            sims.append(self.sim)
            ends.append(0.0)
            stack.append(i)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = _clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, module: str, attr: str, name: str | None, before=None, after=None) -> None:
        """Replace `module.attr` (attr may be 'Class.method') by a traced
        wrapper.  A name that no longer exists is recorded in `missing`;
        its layer then reports zero."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        setattr(owner, leaf, self.wrap(name, fn, before, after))

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def write(self, path) -> None:
        header = {"names": self.names, "n": len(self.starts)}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.sims, self.starts, self.ends):
                column.tofile(handle)


def read_spans(path):
    """(names, name_ids, parents, sims, starts, ends) from a span file."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["n"]
        columns = []
        for typecode in ("H", "i", "i", "d", "d"):
            column = array(typecode)
            column.fromfile(handle, n)
            columns.append(column)
    return (header["names"], *columns)


def self_times(path) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: total self seconds, total seconds and call count."""
    names, name_ids, parents, _sims, starts, ends = read_spans(path)
    n = len(starts)
    durations = array("d", map(float.__sub__, ends, starts))
    child = array("d", bytes(8 * n))
    for i in range(n):
        parent = parents[i]
        if parent >= 0:
            child[parent] += durations[i]
    self_s = dict.fromkeys(names, 0.0)
    total_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for i in range(n):
        name = names[name_ids[i]]
        self_s[name] += durations[i] - child[i]
        total_s[name] += durations[i]
        calls[name] += 1
    return self_s, total_s, calls


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    sim_mod = "stagesim.simulation"

    def new_simulation(args) -> None:
        tracer.sim += 1

    def keyed(args) -> None:
        tracer.count("select_calls")
        tracer.count("select_keys", len(args[0]))

    def fallback_done(args, result) -> None:
        if result is None:
            tracer.count("fallback_failures")
        else:
            tracer.count("evictions", len(result[1]))

    def admitting(args) -> None:
        engine, call = args[0], args[1]
        tracer.count("admits")
        if call.stage_id in engine.resident:
            tracer.count("prefix_hits")

    def decoding(args) -> None:
        # Decode batch size weighted by the engine time it was held, over
        # the intervals in which the engine had a decode batch at all.
        engine, to_time = args[0], args[1]
        dt = to_time - engine.last_advance
        batch = engine.decode_batch_size()
        if batch and dt > 0:
            tracer.count("decode_batch_time", batch * dt)
            tracer.count("decode_busy_time", dt)

    def completing(args) -> None:
        sim, ev = args[0], args[1]
        engine = sim.engines.get(ev.engine_id)
        if engine is None or ev.epoch != engine.decode_epoch:
            tracer.count("stale_events")

    def dispatched(args, result) -> None:
        tracer.peak("heap_peak", len(args[0]._heap))

    def engine_added(args, result) -> None:
        tracer.peak("engines_peak_live", len(args[0].engines))

    tracer.patch("stagesim.cli", "build_sim_config", "config.build_sim_config")
    tracer.patch("stagesim.cli", "write_run_outputs", "reporting.write_run_outputs")
    tracer.patch("stagesim.cli", "write_comparison_outputs", "reporting.write_comparison_outputs")
    tracer.patch(sim_mod, "select_next", "scheduling.select_next", before=keyed)
    tracer.patch(sim_mod, "route_call", "scheduling.route")
    tracer.patch(sim_mod, "route_call_with_eviction", "scheduling.route_fallback", after=fallback_done)
    tracer.patch(sim_mod, "expected_remaining_work", "workflow.expected_remaining_work")
    tracer.patch(sim_mod, "next_step", "workflow.next_step")
    tracer.patch(sim_mod, "Simulator.__init__", "simulation.init", before=new_simulation)
    tracer.patch(sim_mod, "Simulator.run", "simulation.run")
    tracer.patch(sim_mod, "Simulator._advance_clock", "simulation.advance_clock")
    tracer.patch(sim_mod, "Simulator._check_invariants", "simulation.check_invariants")
    tracer.patch(sim_mod, "Simulator._emit_kv_samples", "simulation.kv_samples")
    tracer.patch(sim_mod, "Simulator._dispatch_all", "simulation.dispatch", after=dispatched)
    tracer.patch(sim_mod, "Simulator._add_engine", None, after=engine_added)
    # The handler table is built from these class attributes in __init__.
    for handler in (
        "_handle_arrival",
        "_handle_prefill_done",
        "_handle_tool_complete",
        "_handle_autoscale_tick",
        "_handle_borrow_check",
    ):
        tracer.patch(sim_mod, f"Simulator.{handler}", "simulation.handlers")
    tracer.patch(sim_mod, "Simulator._handle_call_complete", "simulation.handlers", before=completing)
    tracer.patch("stagesim.engines", "EngineState.advance_decode", "engines.advance_decode", before=decoding)
    tracer.patch("stagesim.engines", "EngineState.admit", None, before=admitting)
    tracer.patch("stagesim.engines", "EngineState.recomputed_kv_used", "engines.invariant_recompute")
    tracer.patch("stagesim.engines", "EngineState.recomputed_kv_reserved", "engines.invariant_recompute")
    tracer.patch("stagesim.rng", "RngStream.uniform", "rng.uniform")
