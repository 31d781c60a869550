"""Shared builders for the test suite."""

from __future__ import annotations

import bisect
import csv
import dataclasses
import heapq
import io
from collections import Counter
from typing import NamedTuple

import pytest

import stagesim as ss
from stagesim.engines import DECODE, EngineParams
from stagesim.rng import RngStream
from stagesim.scheduling import _route_order, can_evict_for, route_call_with_eviction
from stagesim.simulation import (
    EVENT_ARRIVAL,
    EVENT_AUTOSCALE_TICK,
    EVENT_BORROW_CHECK,
    EVENT_CALL_COMPLETE,
    DispatchRecord,
    KvSample,
    RunResult,
)
from stagesim.workflow import FAILURE, LLM, SUCCESS, UnknownOutcome, is_terminal
from stagesim.workloads import (
    DEFAULT_ENGINE_PARAMS,
    EXECUTOR,
    FIXER,
    GENERATOR,
    Nl2SqlParams,
    Topology,
    build_nl2sql,
)

STAGES = (GENERATOR, EXECUTOR, FIXER)


def nl2sql_vw(p_fail: float = 0.5, **kw) -> ss.ValidatedWorkflow:
    return ss.validate_workflow(build_nl2sql(Nl2SqlParams(p_fail=p_fail, **kw)))


def engine_params(**kw) -> EngineParams:
    return dataclasses.replace(DEFAULT_ENGINE_PARAMS, **kw)


def topology(mode: str = "isolated", engines=(1, 1), params=None, overrides=None, tool_concurrency: int = 4):
    return Topology(
        mode=mode,
        llm_engines={GENERATOR: engines[0], FIXER: engines[1]},
        engine_params=params or engine_params(),
        engine_overrides=overrides or {},
        tool_concurrency=tool_concurrency,
    )


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
        topology=topology(mode, engines, params, overrides, tool_concurrency),
        policy=policy or ss.PolicyConfig(),
        arrival_rate=rate,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )


# stage ids with a comma, a quote and a space, as inline workflow JSON
QUOTED_LLM = 'write, "v1" sql'
QUOTED_TOOL = 'run "it", now'
QUOTED_WORKFLOW = {
    "name": "quoted",
    "entry_stage": QUOTED_LLM,
    "retry_budget": 1,
    "slo_seconds": 6.0,
    "stages": [
        {
            "stage_id": QUOTED_LLM,
            "kind": "llm",
            "prefix_tokens": 400,
            "prompt_tokens": {"kind": "uniform", "low": 50, "high": 300},
            "output_tokens": {"kind": "uniform", "low": 20, "high": 120},
            "outcomes": [{"label": "ok", "prob": 1.0, "next": QUOTED_TOOL}],
        },
        {
            "stage_id": QUOTED_TOOL,
            "kind": "tool",
            "service_time": {"kind": "uniform", "low": 0.2, "high": 1.5},
            "outcomes": [
                {"label": "ok", "prob": 0.7, "next": "Success"},
                {"label": "retry", "prob": 0.3, "next": QUOTED_LLM},
            ],
        },
    ],
}


def run_config_tree(**kw) -> dict:
    """A minimal valid run-config JSON tree for CLI tests."""
    tree = {
        "workflow": {"preset": "nl2sql"},
        "topology": {"mode": "isolated", "llm_engines": {"sql_generator": 1, "sql_fixer": 1}},
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

    Returns (call, key, best_remaining_key), or None on an empty queue.
    `stagesim.scheduling.select_next` over the queue's class heads must
    return the same (call, key); best_remaining_key is the least key left
    once the call is gone, a dispatch record's best waiting key.
    """
    if not queue:
        return None
    keyed = sorted(((key_fn(call), call) for call in queue), key=lambda kc: kc[0])
    best_key, call = keyed[0]
    remaining = keyed[1][0] if len(keyed) > 1 else None
    return call, best_key, remaining


def reference_route_call(call, prefix_tokens, engines, now):
    """`route_call` as a `min` over the admissible engines, keyed by the
    routing order: the reference for its one-pass loop."""
    admissible = [e for e in engines if e.can_admit(call, prefix_tokens)]
    if not admissible:
        return None
    return min(admissible, key=_route_order(call.stage_id, now))


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


def enum_fixer_invocations(p: float, budget: int) -> float:
    """Oracle for `expected_fixer_invocations`: exhaustive tree sum over
    attempt outcome sequences."""

    def walk(fixes_done: int, prob: float) -> float:
        # one execution attempt: succeeds with 1-p, else a fix happens
        # (if budget remains) and we recurse
        if fixes_done == budget:
            return 0.0
        return prob * p * 1.0 + walk(fixes_done + 1, prob * p)

    return walk(0, 1.0)


def reference_remaining_work(vw, service_estimates) -> dict:
    """Reference remaining-work table: the memoised recursion from (entry
    stage, 0 retries) over (stage, retries_used) that
    `stagesim.expected_remaining_work` replaces with a compiled plan, which
    must give the same floats for the same keys in the same order."""
    budget = vw.retry_budget
    memo: dict[tuple[str, int], float] = {}

    def value(stage_id: str, retries: int) -> float:
        key = (stage_id, retries)
        if key in memo:
            return memo[key]
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

    value(vw.entry_stage, 0)
    return memo


def occupiable_states(vw) -> set[tuple[str, int]]:
    """The (stage, retries_used) states a request can occupy: a search from
    (entry stage, 0) through outcomes of positive probability, each applied
    with `reference_next_step`."""
    start = (vw.entry_stage, 0)
    seen = {start}
    frontier = [start]
    while frontier:
        stage_id, retries = frontier.pop()
        for out in vw.stage(stage_id).outcomes:
            if out.prob == 0.0:
                continue
            nxt = reference_next_step(stage_id, retries, out.label, vw)
            if not is_terminal(nxt[0]) and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reference_success_reachable(vw) -> bool:
    """Reference for the Success check of `validate_workflow`: whether an
    outcome of positive probability leads some occupiable state to
    Success."""
    return any(
        out.prob > 0.0 and reference_next_step(stage_id, retries, out.label, vw)[0] == SUCCESS
        for stage_id, retries in occupiable_states(vw)
        for out in vw.stage(stage_id).outcomes
    )


def reference_next_step(stage_id: str, retries_used: int, outcome: str, vw) -> tuple[str, int]:
    """Reference for `stagesim.next_step`: a scan of the stage's outcomes
    for the label, then the loop-edge test, where `next_step` reads the
    workflow's compiled outcome table.  It must return the same step, or
    raise the same exception."""
    if is_terminal(stage_id):
        raise ValueError("next_step called on a terminal request")
    chosen = next((o for o in vw.stage(stage_id).outcomes if o.label == outcome), None)
    if chosen is None:
        raise UnknownOutcome(f"stage '{stage_id}' has no outcome '{outcome}'")
    target = chosen.next
    if not vw.is_loop_edge(stage_id, target):
        return target, retries_used
    if retries_used >= vw.retry_budget:
        return FAILURE, retries_used
    return target, retries_used + 1


def _f9(x: float) -> str:
    return f"{x:.9f}"


def _key9(key) -> str:
    return "" if key is None else "|".join(_f9(k) for k in key)


# Reference csv rows, by output file: the header and a function from one
# record to its csv.writer cells, floats with 9 decimals.  The comparison
# record is (cell, seed, metric, value).  `stagesim.reporting` formats each
# row kind directly instead, and must match these byte for byte.
REFERENCE_ROWS = {
    "kv_usage.csv": (
        ("time", "pool", "engine", "kv_used_tokens", "kv_tokens_per_s", "resident_prefix_tokens"),
        lambda s: (_f9(s.time), s.pool, s.engine_id, _f9(s.kv_used), _f9(s.kv_slope), s.resident_prefix_tokens),
    ),
    "dispatch.csv": (
        (
            "time",
            "pool",
            "request",
            "slack",
            "expected_service",
            "engine",
            "stage",
            "queue_delay",
            "key",
            "best_waiting_key",
        ),
        lambda d: (
            _f9(d.time),
            d.pool,
            d.request_id,
            _f9(d.slack),
            _f9(d.expected_service),
            d.engine,
            d.stage_id,
            _f9(d.queue_delay),
            _key9(d.key),
            _key9(d.best_waiting_key),
        ),
    ),
    "requests.csv": (
        ("request", "arrival", "done", "outcome", "latency", "violated_slo"),
        lambda r: (r.request_id, _f9(r.arrival), _f9(r.done), r.outcome, _f9(r.latency), int(r.violated_slo)),
    ),
    "comparison.csv": (
        ("cell", "seed", "metric", "value"),
        lambda row: (row[0], row[1], row[2], _f9(float(row[3]))),
    ),
}


def reference_csv(file_name: str, records) -> str:
    """`file_name`'s text for `records`, one csv.writer row per record."""
    header, cells = REFERENCE_ROWS[file_name]
    handle = io.StringIO(newline="")
    rows = csv.writer(handle, lineterminator="\n")
    rows.writerow(header)
    rows.writerows(map(cells, records))
    return handle.getvalue()


class StageRecord(NamedTuple):
    """One finished stage of a request, as `Simulator._finish_stage` left it."""

    stage_id: str
    dispatch_time: float
    done_time: float
    next_stage: str  # the next stage, or the terminal the request ended in
    retries_used: int  # from then on


class RetainingSimulator(ss.Simulator):
    """A Simulator that also keeps what the simulator drops: `all_requests`
    holds every admitted request, finished ones too, `finished_stages` each
    request's finished stages in order, by request id, and `all_engines`
    every engine ever added, retired ones too."""

    def __init__(self, config: ss.SimConfig) -> None:
        self.all_requests: dict = {}
        self.finished_stages: dict[int, list[StageRecord]] = {}
        self.all_engines: dict = {}
        super().__init__(config)

    def _enter_stage(self, req) -> None:
        self.all_requests[req.request_id] = req
        super()._enter_stage(req)

    def _finish_stage(self, req, sid: str) -> None:
        dispatched = req.dispatch_time
        super()._finish_stage(req, sid)
        record = StageRecord(sid, dispatched, self.clock, req.current_stage, req.retries_used)
        self.finished_stages.setdefault(req.request_id, []).append(record)

    def _add_engine(self, pool_id: str, params):
        engine = super()._add_engine(pool_id, params)
        self.all_engines[engine.engine_id] = engine
        return engine


def kv_segments(rows) -> dict[int, list[KvSample]]:
    """KV segment rows by engine id, each engine's in time order."""
    by_engine: dict[int, list[KvSample]] = {}
    for row in rows:
        by_engine.setdefault(row.engine_id, []).append(row)
    return by_engine


def resample_kv(rows, times, slack: float = 0.0) -> dict[tuple[int, float], KvSample]:
    """Each engine's state at each of `times` within its trace, from its
    segment rows: at t, the last row at or before t gives the pool, the
    resident prefix tokens and the KV, kv_used + kv_slope * (t - time).
    Keyed by (engine id, t), as a row taken at t.

    A row up to `slack` after t counts as at t: the same event can fall a
    few ulps apart in two runs whose decode was split differently."""
    values = {}
    for eid, segments in kv_segments(rows).items():
        starts = [row.time for row in segments]
        for t in times:
            if starts[0] <= t + slack and t - slack <= starts[-1]:
                row = segments[max(bisect.bisect_right(starts, t + slack) - 1, 0)]
                values[(eid, t)] = row._replace(time=t, kv_used=row.kv_used + row.kv_slope * (t - row.time))
    return values


def segment_end_kv(rows) -> list[tuple[KvSample, float]]:
    """Each row with the KV its segment ends at, where KV peaks: at the
    engine's next row.  An engine's last row, at its retirement or at the
    end of the run, ends where it starts."""
    ends = []
    for segments in kv_segments(rows).values():
        for row, end in zip(segments, [row.time for row in segments[1:]] + [segments[-1].time]):
            ends.append((row, row.kv_used + row.kv_slope * (end - row.time)))
    return ends


def reference_next_completion(engine, now: float):
    """`EngineState.next_completion` as a `min` over the decode calls, keyed
    by (tokens left, request id): the reference for its one-pass pick."""
    if not engine.n_decode:
        return None
    call = min(
        (c for c in engine.batch if c.phase == DECODE),
        key=lambda c: (c.remaining_tokens, c.request_id),
    )
    return call, now + call.remaining_tokens * engine.params.token_time(engine.n_decode)


class NaiveSimulator(ss.Simulator):
    """The simulator with every fast path replaced by its slow, obvious
    rule, all at once: the one differential oracle for `Simulator`
    (`assert_same_run`), and the one whole-run checker.  It keeps the
    shipped event handlers, `_place`, `_dispatch_key`, `_touch` and
    `EngineState.check`, and replaces

    - the clock: every engine is advanced, and every pool's utilization
      integrated from a recount of its servers, at every event;
    - the invariant check: a full recount after every event, with no
      horizon, of every engine, of the engines' id order, of each LLM
      pool's engine list, of what holds each live request's stage call
      (`_check_calls`) and of whom each engine serves (`_check_lending`);
    - the engines an LLM pool owns: recounted from `self.engines` against
      its `capacity`, and at least one of them serving it, from
      `_serving(pool)`, so that lending and scale-in never leave a pool
      without an engine of its own;
    - dispatch: every pool with a queue is offered after every event, and
      each placement takes the least key over every queued call
      (`reference_select`), so `PoolRuntime.heads`, `key_version` and
      `dirty` go unused;
    - the routing early-out: wherever `_place` finds no engine for an LLM
      call, the eviction fallback over the pool's list must find none too;
    - superseded completions: popped and processed as no-ops, each with
      the clock advance, dispatch pass, check and sampling of any event;
    - the completion pick: `reference_next_completion`;
    - request draws: one `RngStream(seed, f"req:{rid}:{label}")` per
      request and label, in place of the counters in `RequestSim.streams`
      and the preformatted bytes `_draw` hashes;
    - the report's request tally: a recount of the cohort, the requests
      arriving at or after warmup, from the full record list and, for
      `in_flight_at_end`, from the live requests' arrival times.

    A new fast path adds its naive rule here.  After `run()`,
    `kv_at_events[(engine id, t)]` holds every live engine's (pool, KV,
    resident prefix tokens) after the last event at each time t, and at
    the start and the end.  The counters say what the run saw:
    `superseded` completions, `evictions` of prefixes, the `most_classes`
    a selection ranged over, `blocked` pool heads, `full_tool_pools` with
    calls queued at a dispatch pass, and `skipped_fallbacks`, failed routes
    whose fallback the early-out skipped.
    """

    def __init__(self, config: ss.SimConfig) -> None:
        self.kv_at_events: dict[tuple[int, float], tuple[str, float, int]] = {}
        self.superseded = self.evictions = self.most_classes = 0
        self.blocked = self.full_tool_pools = self.skipped_fallbacks = 0
        self._resident: dict[int, set[str]] = {}  # each engine's prefixes at the last event
        self._finished: set[int] = set()  # the requests with a RequestRecord
        self._audited = (0, 0)  # the borrows and returns `_lent` is from
        self._lent: dict[int, str] = {}  # each lent engine's borrower
        self._request_streams: dict[tuple[int, bytes], RngStream] = {}  # by request and label
        super().__init__(config)

    def _draw(self, req, label: bytes) -> float:
        key = (req.request_id, label)
        stream = self._request_streams.get(key)
        if stream is None:
            stream = self._request_streams[key] = RngStream(self.cfg.seed, f"req:{req.request_id}:{label.decode()}")
        return stream.uniform()

    def _serving(self, pool) -> list:
        """The engines serving a pool, in id order."""
        return [e for e in self.engines.values() if e.serving_pool == pool.pool_id]

    def _servers(self, pool) -> tuple[int, int]:
        """A pool's busy servers and all its servers, recounted: the engines
        serving an LLM pool and those with a batch, or a tool pool's slots."""
        if pool.spec.kind != LLM:
            return pool.busy, pool.capacity
        serving = self._serving(pool)
        return sum(1 for e in serving if e.batch), len(serving)

    def _advance_clock(self, to_time: float) -> None:
        dt = to_time - self.clock
        if dt > 0.0:
            warmup = self.cfg.warmup
            for eid, engine in self.engines.items():
                t0, kv0 = engine.last_advance, engine.kv_used
                engine.advance_decode(to_time)
                start = max(warmup, t0)
                if start < to_time:  # the KV trapezoid after warmup
                    kv1 = engine.kv_used
                    kv_start = kv0 + (kv1 - kv0) * (start - t0) / (to_time - t0)
                    self._kv_integral[eid] += 0.5 * (kv_start + kv1) * (to_time - start)
            for pool in self.pools.values():
                busy, servers = self._servers(pool)
                pool.busy_integral += busy * dt
                pool.capacity_integral += servers * dt
        self.clock = to_time

    def _check_invariants(self) -> None:
        assert list(self.engines) == sorted(self.engines), "engines out of id order"
        for pool in self.pools.values():
            if pool.spec.kind != LLM:
                continue
            pid, serving = pool.pool_id, self._serving(pool)
            if pool.engines != serving:
                raise ss.InternalInvariantViolation(f"pool {pid}: engine list differs from a recount")
            assert pool.capacity == sum(e.home_pool == pid for e in self.engines.values()), pid
            if not any(e.home_pool == pid for e in serving):
                raise ss.InternalInvariantViolation(f"pool {pid}: no engine of its own serves it")
        self._check_calls()
        self._check_lending()
        for engine in self.engines.values():
            engine.check(self.clock, self.pools[engine.serving_pool].spec.stage_ids)

    def _check_calls(self) -> None:
        """`requests` holds the live requests: none terminal, none with a
        RequestRecord.  Each one's stage call is held exactly once: queued
        in its stage's pool, in the class heap of its (stage, retries), in
        an engine's batch, or else in a busy slot of its stage's tool pool,
        so that a tool pool's busy count is recounted.  A pool's class
        heaps are non-empty and their sizes add up to its `queue_len`."""
        records = self.traces.requests
        self._finished.update(rec.request_id for rec in records[len(self._finished) :])
        assert len(self._finished) == len(records), "a request recorded twice"
        requests = self.requests
        assert self._finished.isdisjoint(requests), "a finished request is still live"
        held = []  # the request of each queued or running call
        for pool in self.pools.values():
            for (sid, retries), queue in pool.queues.items():
                assert queue and self.stage_pool[sid] == pool.pool_id, (pool.pool_id, sid, retries)
                for _, call in queue:
                    req = requests[call.request_id]
                    assert call.stage_id == req.current_stage == sid and req.retries_used == retries
                    held.append(call.request_id)
            assert sum(map(len, pool.queues.values())) == pool.queue_len, pool.pool_id
        for engine in self.engines.values():
            for call in engine.batch:
                assert requests[call.request_id].current_stage == call.stage_id
                held.append(call.request_id)
        running = set(held)
        assert len(running) == len(held), f"a stage call held twice at {self.clock}"
        in_slots = Counter()
        for rid, req in requests.items():
            assert not is_terminal(req.current_stage), rid
            if rid not in running:
                in_slots[self.stage_pool[req.current_stage]] += 1
        for pool in self.pools.values():  # an LLM pool's busy and capacity stay 0
            assert pool.busy == in_slots[pool.pool_id] <= pool.capacity, (pool.pool_id, pool.busy)

    def _check_lending(self) -> None:
        """Each engine serves the borrower of its last borrow while that
        borrow is unreturned, and its home pool otherwise."""
        audit = self.audit
        if self._audited != (len(audit.borrows), len(audit.returns)):
            self._audited = (len(audit.borrows), len(audit.returns))
            lent = Counter(eid for _, eid, _, _ in audit.borrows)
            lent.subtract(eid for _, eid, _ in audit.returns)
            borrower = {eid: pool for _, eid, _, pool in audit.borrows}
            self._lent = {eid: borrower[eid] for eid, n in lent.items() if n}
        serving = {eid: e.serving_pool for eid, e in self.engines.items() if e.serving_pool != e.home_pool}
        assert serving == self._lent, (serving, self._lent)

    def _emit_kv_samples(self) -> None:
        self._touched.clear()
        for eid, engine in self.engines.items():
            resident = set(engine.resident)
            self.evictions += len(self._resident.get(eid, set()) - resident)
            self._resident[eid] = resident
            self.kv_at_events[(eid, self.clock)] = (engine.serving_pool, engine.kv_used, engine.resident_tokens)

    def _reschedule_completion(self, engine) -> None:
        nxt = reference_next_completion(engine, self.clock)
        if nxt is not None:
            call, when = nxt
            self._schedule(when, EVENT_CALL_COMPLETE, engine.engine_id, call.request_id, engine.decode_epoch)

    def _place(self, pool, call, now: float) -> str | None:
        label = super()._place(pool, call, now)
        if label is None and pool.spec.kind == LLM:
            engines = pool.engines
            prefix_tokens = self.vw.stage(call.stage_id).prefix_tokens
            assert route_call_with_eviction(call, prefix_tokens, engines, now) is None, "fallback skipped"
            self.skipped_fallbacks += not can_evict_for(call.stage_id, engines)
        return label

    def _dispatch_all(self) -> None:
        now = self.clock
        pools = self.pools.values()
        self.full_tool_pools += sum(1 for pool in pools if pool.queue_len and pool.tool_slots_full())
        for pool in pools:
            while pool.queue_len:
                queued = [call for queue in pool.queues.values() for _, call in queue]
                call, key, best_waiting = reference_select(queued, self._dispatch_key)
                self.most_classes = max(self.most_classes, len(pool.queues))
                engine_label = self._place(pool, call, now)
                if engine_label is None:
                    self.blocked += 1
                    break  # no overtaking
                req = self.requests[call.request_id]
                cls = (call.stage_id, req.retries_used)
                queue = pool.queues[cls]
                queue.remove(next(entry for entry in queue if entry[1] is call))
                heapq.heapify(queue)  # still a heap for `_enter_stage` to push onto
                if not queue:
                    del pool.queues[cls]
                pool.queue_len -= 1
                req.dispatch_time = now
                delay = now - call.enqueue_time
                self.traces.dispatches.append(
                    DispatchRecord(
                        now,
                        pool.pool_id,
                        call.request_id,
                        req.deadline - now - self._remaining_table()[cls],
                        self.estimator.estimate(call.stage_id),
                        engine_label,
                        call.stage_id,
                        delay,
                        key,
                        best_waiting,
                    )
                )
                pool.window_dispatches += 1
                if delay > self.policy.autoscale.queue_delay_slo:
                    pool.window_delay_violations += 1
                if now >= self.cfg.warmup:
                    pool.delay_sum += delay
                    pool.delay_count += 1

    def run(self) -> RunResult:
        duration = self.cfg.duration
        self._schedule(ss.sample_interarrival(self._arrivals, self.cfg.arrival_rate), EVENT_ARRIVAL)
        interval = self.policy.autoscale.check_interval
        if self.policy.autoscale.enabled:
            self._schedule(interval, EVENT_AUTOSCALE_TICK)
        if self.policy.borrow.enabled:
            self._schedule(interval, EVENT_BORROW_CHECK)
        self._emit_kv_samples()
        while self._heap and self._heap[0].time <= duration:
            ev = heapq.heappop(self._heap)
            self._advance_clock(ev.time)
            engine = self.engines.get(ev.engine_id)
            if ev.kind == EVENT_CALL_COMPLETE and (engine is None or ev.epoch != engine.decode_epoch):
                self.superseded += 1  # its engine's batch changed, or the engine retired
            else:
                self._handlers[ev.kind](self, ev)
            self._dispatch_all()
            self._check_invariants()
            self._emit_kv_samples()
        self._advance_clock(duration)
        for engine in self.engines.values():
            self._touch(engine)
        self._emit_kv_samples()
        return RunResult(self._build_report(), self.traces, self.audit)

    def _build_report(self) -> ss.MetricsReport:
        warmup = self.cfg.warmup
        cohort = [rec for rec in self.traces.requests if rec.arrival >= warmup]
        latencies = [rec.latency for rec in cohort if rec.outcome == SUCCESS]
        violations = sum(1 for rec in cohort if rec.violated_slo)
        window = self.cfg.duration - warmup
        return dataclasses.replace(
            super()._build_report(),
            completed=len(latencies),
            failed_budget=len(cohort) - len(latencies),
            in_flight_at_end=sum(1 for req in self.requests.values() if req.arrival_time >= warmup),
            latency_p50=ss.percentile(latencies, 50) if latencies else 0.0,
            latency_p95=ss.percentile(latencies, 95) if latencies else 0.0,
            latency_p99=ss.percentile(latencies, 99) if latencies else 0.0,
            throughput=len(latencies) / window,
            slo_violation_rate=violations / len(cohort) if cohort else 0.0,
        )


# the tolerances of `assert_same_run`: completion times come from decode
# split into other segments, so an event may fall an ulp or so away
TIME_TOL = 1e-9
KV_TOL = 1e-6


def _approx(value):
    return pytest.approx(value, rel=TIME_TOL, abs=TIME_TOL)


def _assert_same_records(got, want, what: str) -> None:
    """The same records in the same order, field by field: text, counts
    and flags equal, times, slack, estimates and keys within TIME_TOL."""
    assert len(got) == len(want), what
    for g, w in zip(got, want):
        assert all(a == _approx(b) for a, b in zip(g, w)), (what, g, w)


def assert_same_run(config: ss.SimConfig) -> tuple[ss.Simulator, NaiveSimulator]:
    """Run `config` through `Simulator` and `NaiveSimulator` and require the
    same run; returns both simulators, run.

    Both pop the same events and make the same decisions: the requests
    (request, outcome, retries, stage calls), dispatches (pool, request,
    stage, engine), borrows, returns and scale events in the same order,
    with times, slack, estimates and keys within TIME_TOL, and the same
    lent admissions; `summary.json` agrees within TIME_TOL, relative or
    absolute.  The shipped KV segments, resampled at every event, give the
    naive KV of every live engine within KV_TOL, and cover no engine the
    naive run lacks except at the engine's own last row."""
    naive = NaiveSimulator(config)
    want = naive.run()
    sim = ss.Simulator(config)
    got = sim.run()
    assert sim._seq - len(sim._heap) == naive._seq - len(naive._heap), "popped events"
    _assert_same_records(got.traces.requests, want.traces.requests, "requests")
    _assert_same_records(got.traces.dispatches, want.traces.dispatches, "dispatches")
    for name in ("borrows", "returns", "scale_events"):
        _assert_same_records(getattr(got.audit, name), getattr(want.audit, name), name)
    assert got.audit.lent_admissions == want.audit.lent_admissions
    summary, naive_summary = got.report.to_dict(), want.report.to_dict()
    assert summary.keys() == naive_summary.keys()
    for name, value in naive_summary.items():
        assert summary[name] == _approx(value), name

    times = sorted({t for _, t in naive.kv_at_events})
    resampled = resample_kv(got.traces.kv_samples, times, TIME_TOL)
    for at, (pool, kv, resident) in naive.kv_at_events.items():
        assert at in resampled, at
        row = resampled[at]
        assert (row.pool, row.resident_prefix_tokens) == (pool, resident), at
        assert row.kv_used == pytest.approx(kv, abs=KV_TOL), at
    last_row = {row.engine_id: row.time for row in got.traces.kv_samples}
    extra = set(resampled) - set(naive.kv_at_events)
    assert all(abs(t - last_row[eid]) <= TIME_TOL for eid, t in extra), sorted(extra)
    return sim, naive
