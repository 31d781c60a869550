"""Shared builders for the test suite."""

from __future__ import annotations

import csv
import dataclasses
import heapq

import stagesim as ss
from stagesim.engines import EngineParams
from stagesim.simulation import (
    EVENT_ARRIVAL,
    EVENT_AUTOSCALE_TICK,
    EVENT_BORROW_CHECK,
    EVENT_CALL_COMPLETE,
    KvSample,
    RunResult,
)
from stagesim.workflow import TERMINALS, is_terminal
from stagesim.workloads import (
    DEFAULT_ENGINE_PARAMS,
    EXECUTOR,
    FIXER,
    GENERATOR,
    Nl2SqlParams,
    TopologyPreset,
    build_nl2sql,
    build_topology,
)

STAGES = (GENERATOR, EXECUTOR, FIXER)


def nl2sql_vw(p_fail: float = 0.5, **kw) -> ss.ValidatedWorkflow:
    return ss.validate_workflow(build_nl2sql(Nl2SqlParams(p_fail=p_fail, **kw)))


def engine_params(**kw) -> EngineParams:
    return dataclasses.replace(DEFAULT_ENGINE_PARAMS, **kw)


def topology(vw, mode: str = "isolated", engines=(1, 1), params=None, overrides=None, tool_concurrency: int = 4):
    params = params or engine_params()
    if mode == "isolated":
        preset = TopologyPreset(
            mode=mode,
            llm_engines={GENERATOR: engines[0], FIXER: engines[1]},
            engine_params=params,
            engine_overrides=overrides or {},
            tool_concurrency=tool_concurrency,
        )
    else:
        preset = TopologyPreset(
            mode=mode,
            llm_engines_total=sum(engines),
            engine_params=params,
            tool_concurrency=tool_concurrency,
        )
    return build_topology(preset, vw)


def sim_config(
    vw=None,
    mode: str = "isolated",
    engines=(1, 1),
    params=None,
    overrides=None,
    policy=None,
    rate: float = 1.0,
    duration: float = 60.0,
    warmup: float = 5.0,
    seed: int = 1,
    tool_concurrency: int = 4,
) -> ss.SimConfig:
    vw = vw or nl2sql_vw()
    return ss.SimConfig(
        workflow=vw,
        topology=topology(vw, mode, engines, params, overrides, tool_concurrency),
        policy=policy or ss.PolicyConfig(),
        arrival_rate=rate,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )


def run_config_tree(**kw) -> dict:
    """A minimal valid run-config JSON tree for CLI tests."""
    tree = {
        "workflow": {"preset": "nl2sql"},
        "topology": {"preset": "nl2sql-isolated"},
        "policy": {"kind": "slack"},
        "arrivals": {"rate": 1.0},
        "duration": 20.0,
        "warmup": 2.0,
        "seed": 7,
    }
    tree.update(kw)
    return tree


def reference_select(queue, key_fn):
    """Reference dispatch selection: key every queued call and sort.

    Returns (call, key, best_remaining_key), or None on an empty queue, as
    `stagesim.scheduling.select_next` must for the same calls and keys.
    """
    if not queue:
        return None
    keyed = sorted(((key_fn(call), call) for call in queue), key=lambda kc: kc[0])
    best_key, call = keyed[0]
    remaining = keyed[1][0] if len(keyed) > 1 else None
    return call, best_key, remaining


def static_heap(calls, static_key) -> list:
    """A pool heap of (static key, call) entries, as the simulator keeps."""
    heap = [(static_key(call), call) for call in calls]
    heapq.heapify(heap)
    return heap


def expected_fixer_invocations(p_fail: float, budget: int) -> float:
    """Expected number of fix-loop entries when each attempt fails with
    probability p_fail independently and at most `budget` fixes happen; a
    closed-form oracle for the tests."""
    if not 0.0 <= p_fail <= 1.0:
        raise ValueError("p_fail must be in [0, 1]")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if p_fail >= 1.0:
        return float(budget)
    return p_fail * (1.0 - p_fail**budget) / (1.0 - p_fail)


def reference_remaining_work(vw, service_estimates) -> dict:
    """Reference remaining-work table: the memoised recursion over
    (stage, retries_used) that `stagesim.expected_remaining_work` replaces
    with a compiled plan, which must give the same floats in the same key
    order."""
    budget = vw.retry_budget
    memo: dict[tuple[str, int], float] = {}

    def value(stage_id: str, retries: int) -> float:
        key = (stage_id, retries)
        if key in memo:
            return memo[key]
        if is_terminal(stage_id):
            memo[key] = 0.0
            return 0.0
        stage = vw.stage(stage_id)
        total = service_estimates[stage_id]
        for out in stage.outcomes:
            target = out.next
            if out.prob == 0.0 or is_terminal(target):
                continue
            if vw.is_loop_edge(stage_id, target):
                if retries < budget:
                    total += out.prob * value(target, retries + 1)
            else:
                total += out.prob * value(target, retries)
        memo[key] = total
        return total

    for stage_id in (*vw.stage_ids, *TERMINALS):
        for retries in range(budget + 1):
            value(stage_id, retries)
    return memo


def reference_write_kv_usage(samples, handle) -> None:
    """Reference kv_usage.csv writer: one csv.writer row per sample, floats
    with 9 decimals, as `stagesim.reporting.write_kv_usage` replaces with
    pre-formatted rows that must match it byte for byte."""

    def f9(x: float) -> str:
        return f"{x:.9f}"

    rows = csv.writer(handle, lineterminator="\n")
    rows.writerow(["time", "pool", "engine", "kv_used_tokens", "resident_prefix_tokens"])
    for s in samples:
        rows.writerow([f9(s.time), s.pool, s.engine_id, f9(s.kv_used), s.resident_prefix_tokens])


class RetainingSimulator(ss.Simulator):
    """A Simulator that also keeps what the simulator drops: `all_requests`
    holds every admitted request, finished ones with their whole stage
    history, and `all_engines` every engine ever added, retired ones too."""

    def __init__(self, config: ss.SimConfig) -> None:
        self.all_requests: dict = {}
        self.all_engines: dict = {}
        super().__init__(config)

    def _enter_stage(self, req) -> None:
        self.all_requests[req.state.request_id] = req
        super()._enter_stage(req)

    def _add_engine(self, pool_id: str, params):
        engine = super()._add_engine(pool_id, params)
        self.all_engines[engine.engine_id] = engine
        return engine


class SupersededCompletionsReference(ss.Simulator):
    """Reference event loop that processes superseded completions as
    `Simulator.run` did before it skipped them: every popped event advances
    the clock and is followed by a dispatch pass, the invariant check and
    KV sampling, and a superseded completion's handler does nothing.

    After `run()`, `superseded` counts the superseded completions popped,
    and `processed_kv` holds the KV rows taken at processed events only:
    the rows sampled during them, plus a row per live engine after each.
    """

    def run(self) -> RunResult:
        self.superseded = 0
        self.processed_kv: list[KvSample] = []
        samples = self.traces.kv_samples
        duration = self.cfg.duration
        first = ss.sample_interarrival(self._arrivals, self.cfg.arrival_rate)
        if first <= duration:
            self._schedule(first, EVENT_ARRIVAL)
        interval = self.policy.autoscale.check_interval
        if self.policy.autoscale.enabled and interval <= duration:
            self._schedule(interval, EVENT_AUTOSCALE_TICK)
        if self.policy.borrow.enabled and interval <= duration:
            self._schedule(interval, EVENT_BORROW_CHECK)

        while self._heap and self._heap[0][0] <= duration:
            ev = heapq.heappop(self._heap)
            engine = self.engines.get(ev.engine_id)
            superseded = ev.kind == EVENT_CALL_COMPLETE and (
                engine is None or ev.epoch != engine.decode_epoch
            )
            first_row = len(samples)
            self._advance_clock(ev.time)
            if superseded:
                self.superseded += 1
            else:
                self._handlers[ev.kind](self, ev)
            self._dispatch_all()
            self._check_invariants()
            self._emit_kv_samples()
            if not superseded:
                self.processed_kv.extend(samples[first_row:])
                self.processed_kv.extend(
                    KvSample(self.clock, e.serving_pool, eid, e.kv_used, e.resident_tokens)
                    for eid, e in self.engines.items()
                )

        self._advance_clock(duration)
        first_row = len(samples)
        self._emit_kv_samples(force=True)
        self.processed_kv.extend(samples[first_row:])
        return RunResult(self._build_report(), self.traces, self.audit)
