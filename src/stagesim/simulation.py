"""Deterministic discrete-event simulation core.

One simulation owns all of its state and is a pure function of its config
(seed included): identical configs produce byte-identical reports and
traces.  Events are processed in ascending (time, scheduling sequence)
order; between consecutive events every engine's decode progress advances
under a constant batch composition, so completion times are exact.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .engines import DECODE, EngineState, PendingCall, tool_service_time
from .errors import ConfigError, InternalInvariantViolation
from .rng import RngStream
from .scheduling import (
    AdmissionConfig,
    AutoscaleConfig,
    BorrowConfig,
    BorrowPoolView,
    NEVER_SCALED,
    POLICY_KINDS,
    ServiceEstimator,
    admission_decision,
    autoscale_tick,
    dispatch_key,
    holds_foreign_prefix,
    route_call,
    route_call_with_eviction,
    select_next,
    should_return_borrowed,
    try_borrow,
)
from .workflow import (
    LLM,
    SUCCESS,
    RequestState,
    StageSpec,
    ValidatedWorkflow,
    expected_remaining_work,
    next_step,
)
from .workloads import Topology, derive_service_estimates

EVENT_ARRIVAL = "arrival"
EVENT_PREFILL_DONE = "prefill_done"
EVENT_CALL_COMPLETE = "call_complete"
EVENT_TOOL_COMPLETE = "tool_complete"
EVENT_AUTOSCALE_TICK = "autoscale_tick"
EVENT_BORROW_CHECK = "borrow_check"

_KV_TOL = 1e-6


class EmptySamples(ValueError):
    pass


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the value at 1-based index ceil(q/100 * n)."""
    if not samples:
        raise EmptySamples("cannot take a percentile of zero samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def sample_interarrival(stream: RngStream, rate: float) -> float:
    """Exponential interarrival gap via inverse CDF, -ln(u)/rate."""
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    return -math.log(stream.uniform()) / rate


class Event(NamedTuple):
    """A scheduled event; the heap orders events as tuples, by (time, seq)."""

    time: float
    seq: int
    kind: str
    engine_id: int = -1
    request_id: int = -1
    epoch: int = -1


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "slack"  # fcfs | las | slack
    use_selectivity: bool = False
    online_estimates: bool = False
    ewma_alpha: float = 0.2
    service_estimates: dict[str, float] | None = None
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    borrow: BorrowConfig = field(default_factory=BorrowConfig)
    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)


@dataclass(frozen=True)
class SimConfig:
    workflow: ValidatedWorkflow
    topology: Topology
    policy: PolicyConfig
    arrival_rate: float
    duration: float
    warmup: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.arrival_rate <= 0:
            raise ConfigError("arrival rate must be positive")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")
        if self.duration <= self.warmup:  # else no arrival is ever measured
            raise ConfigError("'config.duration' must be > 'config.warmup'")
        if self.policy.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind '{self.policy.kind}'")
        if not 0.0 < self.policy.ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0, 1]")
        stage_ids = self.workflow.stage_ids
        pooled = [sid for pool in self.topology.pools for sid in pool.stage_ids]
        for sid in stage_ids:
            if pooled.count(sid) != 1:
                raise ConfigError(f"stage '{sid}' is in {pooled.count(sid)} pools, not 1")
        stray = sorted(set(pooled) - set(stage_ids))
        if stray:
            raise ConfigError(f"pools serve stages {stray} not in the workflow")
        estimates = self.policy.service_estimates  # None: the Simulator derives them
        if estimates is not None:
            missing = [sid for sid in stage_ids if sid not in estimates]
            unknown = sorted(set(estimates) - set(stage_ids))
            if missing or unknown:
                raise ConfigError(
                    f"'policy.service_estimates' missing stages {missing}, unknown stages {unknown}"
                )
            for sid, value in estimates.items():
                if not (math.isfinite(value) and value >= 0.0):
                    raise ConfigError(f"'policy.service_estimates.{sid}' must be finite and >= 0")
        self._check_kv_fits()

    def _check_kv_fits(self) -> None:
        # A call is admitted only whole, so a stage whose worst-case call
        # outgrows every engine that could serve it would block its queue
        # forever.  Borrowing lends engines between single-stage LLM pools.
        llm_pools = [p for p in self.topology.pools if p.kind == LLM]
        lenders = [p for p in llm_pools if len(p.stage_ids) == 1] if self.policy.borrow.enabled else []
        for pool in llm_pools:
            capacity = max(p.engine_params.kv_capacity_tokens for p in (pool, *lenders))
            for sid in pool.stage_ids:
                stage = self.workflow.stage(sid)
                worst = (
                    stage.prefix_tokens
                    + stage.prompt_tokens.max_int()
                    + stage.output_tokens.max_int()
                )
                if worst > capacity:
                    raise ConfigError(
                        f"stage '{sid}' needs up to {worst} KV tokens, but no engine "
                        f"that could serve it holds more than {capacity}"
                    )


# Trace records are NamedTuples: the loop builds one per sample, dispatch
# and finished request, and a tuple is cheaper to build than a dataclass.


class KvSample(NamedTuple):
    time: float
    pool: str
    engine_id: int
    kv_used: float
    resident_prefix_tokens: int


class DispatchRecord(NamedTuple):
    time: float
    pool: str
    request_id: int
    slack: float
    expected_service: float
    engine: str  # engine id for LLM pools, empty for tool slots
    stage_id: str
    queue_delay: float
    key: tuple[float, ...]
    best_waiting_key: tuple[float, ...] | None


class RequestRecord(NamedTuple):
    request_id: int
    arrival: float
    done: float
    outcome: str
    latency: float
    violated_slo: bool
    retries_used: int
    n_stage_calls: int


@dataclass
class TraceBundle:
    kv_samples: list[KvSample] = field(default_factory=list)
    dispatches: list[DispatchRecord] = field(default_factory=list)
    requests: list[RequestRecord] = field(default_factory=list)


@dataclass
class AuditLog:
    borrows: list[tuple[float, int, str, str]] = field(default_factory=list)
    returns: list[tuple[float, int, str]] = field(default_factory=list)
    scale_events: list[tuple[float, str, int]] = field(default_factory=list)
    lent_admissions: int = 0


@dataclass(frozen=True)
class MetricsReport:
    arrivals_admitted: int
    completed: int
    failed_budget: int
    rejected: int
    in_flight_at_end: int
    latency_p50: float
    latency_p95: float
    latency_p99: float
    throughput: float
    slo_violation_rate: float
    queue_delay_mean: dict[str, float]
    kv_used_mean: dict[str, float]
    max_queue_len: dict[str, int]
    end_queue_len: dict[str, int]
    seed: int
    duration: float
    warmup: float
    arrival_rate: float

    def to_dict(self) -> dict:
        """Every field by name: numbers rounded to 9 places, mappings
        sorted by key."""

        def plain(value):
            if isinstance(value, dict):
                return {k: plain(v) for k, v in sorted(value.items())}
            return round(value, 9)

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    def summary_line(self) -> str:
        return (
            f"completed={self.completed} failed_budget={self.failed_budget} "
            f"rejected={self.rejected} in_flight={self.in_flight_at_end} "
            f"throughput={self.throughput:.6f}/s p50={self.latency_p50:.6f}s "
            f"p95={self.latency_p95:.6f}s p99={self.latency_p99:.6f}s "
            f"slo_violation_rate={self.slo_violation_rate:.6f}"
        )


SCALAR_METRICS = (
    "arrivals_admitted",
    "completed",
    "failed_budget",
    "rejected",
    "in_flight_at_end",
    "latency_p50",
    "latency_p95",
    "latency_p99",
    "throughput",
    "slo_violation_rate",
)


@dataclass
class RunResult:
    report: MetricsReport
    traces: TraceBundle
    audit: AuditLog


@dataclass
class RequestSim:
    state: RequestState
    attained: float = 0.0
    dispatch_time: float = 0.0
    streams: dict[str, RngStream] = field(default_factory=dict)


class PoolRuntime:
    """Mutable per-pool simulation state: queue, slots, and window stats."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self.pool_id = spec.pool_id
        # the queue: (dispatch key, call) per queued call, keys valid for key
        # version heap_version; a call that enters a stale heap waits with
        # key None until Simulator._dispatch_pool rebuilds it
        self.heap: list[tuple[tuple[float, ...] | None, PendingCall]] = []
        self.heap_version = -1
        # set when something a blocked dispatch depends on may have changed;
        # a blocked pool is skipped until then
        self.dirty = False
        self.concurrency = spec.tool_params.concurrency if spec.tool_params else 0
        self.busy_slots = 0
        # utilization window (shared by the borrower and the autoscaler)
        self.busy_integral = 0.0
        self.capacity_integral = 0.0
        self.prev_utilization = 0.0
        # autoscale window
        self.window_dispatches = 0
        self.window_delay_violations = 0
        self.last_scale_time = NEVER_SCALED
        # whole-run metrics
        self.max_queue_len = 0
        self.delay_sum = 0.0
        self.delay_count = 0

    def utilization(self) -> float:
        if self.capacity_integral > 0.0:
            return min(1.0, self.busy_integral / self.capacity_integral)
        return self.prev_utilization

    def reset_window(self) -> None:
        self.prev_utilization = self.utilization()
        self.busy_integral = 0.0
        self.capacity_integral = 0.0
        self.window_dispatches = 0
        self.window_delay_violations = 0

    def tool_slots_full(self) -> bool:
        """A tool pool with every slot busy: none of its queued calls can
        start until a tool completion or a scale-out frees a slot."""
        return self.spec.kind != LLM and self.busy_slots >= self.concurrency

    def violation_fraction(self) -> float:
        if self.window_dispatches == 0:
            return 0.0
        return self.window_delay_violations / self.window_dispatches


class Simulator:
    """Event loop around the workflow, engine, and scheduling models."""

    def __init__(self, config: SimConfig) -> None:
        config.validate()
        self.cfg = config
        self.vw = config.workflow
        self.policy = config.policy
        self.clock = 0.0
        self._seq = 0
        self._heap: list[Event] = []
        self._arrivals = RngStream(config.seed, "arrivals")

        self.pools: dict[str, PoolRuntime] = {}
        self._llm_pool_ids: list[str] = []
        self._only_stage: dict[str, str | None] = {}  # None: a multi-stage pool
        self.stage_pool: dict[str, str] = {}
        # _add_engine hands out ids in increasing order and engines are only
        # ever deleted, so iterating self.engines visits them in id order.
        self.engines: dict[int, EngineState] = {}
        self._next_engine_id = 0
        # an entry per engine ever added: all that a retired engine leaves
        self._kv_integral: dict[int, float] = {}
        self._last_kv_sample: dict[int, tuple[str, float, int]] = {}
        for spec in config.topology.pools:
            pool = PoolRuntime(spec)
            self.pools[spec.pool_id] = pool
            self._only_stage[spec.pool_id] = spec.stage_ids[0] if len(spec.stage_ids) == 1 else None
            for sid in spec.stage_ids:
                self.stage_pool[sid] = spec.pool_id
            if spec.kind == LLM:
                self._llm_pool_ids.append(spec.pool_id)
                for _ in range(spec.n_engines):
                    self._add_engine(spec.pool_id, spec.engine_params)

        means = config.policy.service_estimates
        if means is None:
            means = derive_service_estimates(self.vw, config.topology)
        self.estimator = ServiceEstimator(
            means, online=config.policy.online_estimates, alpha=config.policy.ewma_alpha
        )
        self._work_table: dict[tuple[str, int], float] = {}
        self._work_version = -1

        # live requests only: a request leaves when it terminates, and its
        # RequestRecord is all that outlives it
        self.requests: dict[int, RequestSim] = {}
        self._next_rid = 0
        # arrivals at or after warmup, the ones the report counts
        self.admitted = 0
        self.rejected = 0
        self.traces = TraceBundle()
        self.audit = AuditLog()

        # Unbound functions: bound methods here would make every finished
        # Simulator a reference cycle that only the cyclic GC frees.
        cls = type(self)
        self._handlers = {
            EVENT_ARRIVAL: cls._handle_arrival,
            EVENT_PREFILL_DONE: cls._handle_prefill_done,
            EVENT_CALL_COMPLETE: cls._handle_call_complete,
            EVENT_TOOL_COMPLETE: cls._handle_tool_complete,
            EVENT_AUTOSCALE_TICK: cls._handle_autoscale_tick,
            EVENT_BORROW_CHECK: cls._handle_borrow_check,
        }

    # ------------------------------------------------------------------
    # plumbing

    def _add_engine(self, pool_id: str, params) -> EngineState:
        engine = EngineState(self._next_engine_id, params, pool_id)
        engine.last_advance = self.clock
        self.engines[engine.engine_id] = engine
        self._kv_integral[engine.engine_id] = 0.0
        self._next_engine_id += 1
        return engine

    def _schedule(
        self, time: float, kind: str, engine_id: int = -1, request_id: int = -1, epoch: int = -1
    ) -> None:
        if time < self.clock - 1e-12:
            raise InternalInvariantViolation(
                f"event '{kind}' scheduled at {time} before clock {self.clock}"
            )
        self._seq += 1
        heapq.heappush(self._heap, Event(time, self._seq, kind, engine_id, request_id, epoch))

    def _stream(self, req: RequestSim, label: str) -> RngStream:
        """The request's own stream `req:{rid}:{label}`."""
        stream = req.streams.get(label)
        if stream is None:
            rid = req.state.request_id
            stream = req.streams[label] = RngStream(self.cfg.seed, f"req:{rid}:{label}")
        return stream

    def _draw(self, req: RequestSim, label: str) -> float:
        return self._stream(req, label).uniform()

    def _serving_engines(self, pool_id: str) -> list[EngineState]:
        return [e for e in self.engines.values() if e.serving_pool == pool_id]

    def _home_engines(self, pool_id: str) -> list[EngineState]:
        return [e for e in self.engines.values() if e.home_pool == pool_id]

    def _remaining_table(self) -> dict[tuple[str, int], float]:
        if self._work_version != self.estimator.version:
            self._work_table = expected_remaining_work(self.vw, self.estimator.estimates())
            self._work_version = self.estimator.version
        return self._work_table

    # ------------------------------------------------------------------
    # clock advancement and accounting

    def _advance_clock(self, to_time: float) -> None:
        dt = to_time - self.clock
        if dt < -1e-12:
            raise InternalInvariantViolation("event clock moved backwards")
        if dt <= 0.0:
            self.clock = to_time
            return
        # [busy engines, serving engines] per LLM pool, counted in the pass
        # that advances decode (which changes neither)
        counts = {pid: [0, 0] for pid in self._llm_pool_ids}
        warmup = self.cfg.warmup
        kv_integral = self._kv_integral
        for eid, engine in self.engines.items():
            count = counts[engine.serving_pool]
            count[1] += 1
            if engine.batch:
                count[0] += 1
            t0 = engine.last_advance
            kv0 = engine.kv_used
            if engine.n_decode:
                engine.advance_decode(to_time)
            else:  # nothing decodes, so kv_used stays kv0
                engine.last_advance = to_time
            # trapezoid of the linear kv_used over the part of [t0, to_time]
            # after warmup
            start = warmup if warmup > t0 else t0
            if start < to_time:
                kv1 = engine.kv_used
                kv_start = kv0 + (kv1 - kv0) * (start - t0) / (to_time - t0)
                kv_integral[eid] += 0.5 * (kv_start + kv1) * (to_time - start)
        for pool in self.pools.values():
            if pool.spec.kind == LLM:
                busy, cap = counts[pool.pool_id]
            else:
                busy, cap = pool.busy_slots, pool.concurrency
            pool.busy_integral += busy * dt
            pool.capacity_integral += cap * dt
        self.clock = to_time

    def _emit_kv_samples(self, force: bool = False) -> None:
        last = self._last_kv_sample
        samples = self.traces.kv_samples
        for eid, engine in self.engines.items():
            current = (engine.serving_pool, engine.kv_used, engine.resident_tokens)
            if force or last.get(eid) != current:
                last[eid] = current
                samples.append(KvSample(self.clock, current[0], eid, current[1], current[2]))

    def _check_invariants(self) -> None:
        only_stage = self._only_stage
        for eid, e in self.engines.items():
            cap = e.params.kv_capacity_tokens
            kv_used = e.kv_used
            if e.kv_reserved > cap:
                raise InternalInvariantViolation(
                    f"engine {eid}: reserved {e.kv_reserved} exceeds capacity {cap}"
                )
            if kv_used > cap + _KV_TOL or kv_used < -_KV_TOL:
                raise InternalInvariantViolation(
                    f"engine {eid}: kv_used {kv_used} outside [0, {cap}]"
                )
            prefix_tokens = e.resident_prefix_tokens()
            if e.resident_tokens != prefix_tokens:
                raise InternalInvariantViolation(
                    f"engine {eid}: resident_tokens {e.resident_tokens} != recomputed"
                )
            recomputed = e.recomputed_kv_used(prefix_tokens)
            if abs(kv_used - recomputed) > _KV_TOL:
                raise InternalInvariantViolation(
                    f"engine {eid}: kv_used {kv_used} != recomputed {recomputed}"
                )
            if e.kv_reserved != e.recomputed_kv_reserved(prefix_tokens):
                raise InternalInvariantViolation(
                    f"engine {eid}: kv_reserved {e.kv_reserved} != recomputed"
                )
            if len(e.batch) > e.params.max_batch:
                raise InternalInvariantViolation(f"engine {eid}: batch over max_batch")
            allowed = only_stage[e.serving_pool]
            n_decode = 0
            for call in e.batch:
                if call.phase == DECODE:
                    n_decode += 1
                if allowed is not None and call.stage_id != allowed:
                    raise InternalInvariantViolation(
                        f"engine {eid}: call of stage '{call.stage_id}' in "
                        f"single-stage pool '{e.serving_pool}'"
                    )
            if e.n_decode != n_decode:
                raise InternalInvariantViolation(
                    f"engine {eid}: n_decode {e.n_decode} != recounted {n_decode}"
                )

    # ------------------------------------------------------------------
    # event handlers

    def _handle_arrival(self, ev: Event) -> None:
        rid = self._next_rid
        self._next_rid += 1
        gap = sample_interarrival(self._arrivals, self.cfg.arrival_rate)
        t_next = ev.time + gap
        if t_next <= self.cfg.duration:
            self._schedule(t_next, EVENT_ARRIVAL)

        counted = ev.time >= self.cfg.warmup
        queue_lengths = [len(p.heap) for p in self.pools.values()]
        if not admission_decision(queue_lengths, self.policy.admission):
            self.rejected += counted
            return
        self.admitted += counted
        state = RequestState(
            request_id=rid,
            arrival_time=ev.time,
            deadline=ev.time + self.vw.slo_seconds,
            current_stage=self.vw.entry_stage,
        )
        self.requests[rid] = RequestSim(state=state)
        self._enter_stage(self.requests[rid])

    def _enter_stage(self, req: RequestSim) -> None:
        sid = req.state.current_stage
        stage = self.vw.stage(sid)
        rid = req.state.request_id
        if stage.kind == LLM:
            prompt = stage.prompt_tokens.sample_int(self._draw(req, f"prompt:{sid}"))
            output = stage.output_tokens.sample_int(self._draw(req, f"output:{sid}"))
            call = PendingCall(rid, sid, self.clock, prompt, output)
        else:
            call = PendingCall(rid, sid, self.clock)
        pool = self.pools[self.stage_pool[sid]]
        if pool.heap_version == self._key_version():
            heapq.heappush(pool.heap, (self._dispatch_key(call), call))
        else:  # keyed with the rest when _dispatch_pool rebuilds the heap
            pool.heap.append((None, call))
        pool.dirty = True
        pool.max_queue_len = max(pool.max_queue_len, len(pool.heap))

    def _handle_prefill_done(self, ev: Event) -> None:
        engine = self.engines[ev.engine_id]
        call = self._find_call(engine, ev.request_id)
        engine.prefill_finished(call)
        self._reschedule_completion(engine)

    def _handle_call_complete(self, ev: Event) -> None:
        engine = self.engines[ev.engine_id]  # run() skipped it if superseded
        call = self._find_call(engine, ev.request_id)
        if call.remaining_tokens > _KV_TOL:
            raise InternalInvariantViolation(
                f"completion fired with {call.remaining_tokens} tokens left"
            )
        engine.complete_call(call)
        self.pools[engine.serving_pool].dirty = True
        self._reschedule_completion(engine)
        if engine.lent_to is not None and not engine.batch:
            self._maybe_return(engine)
        self._finish_stage(self.requests[ev.request_id], call.stage_id)

    def _handle_tool_complete(self, ev: Event) -> None:
        req = self.requests[ev.request_id]
        sid = req.state.current_stage
        pool = self.pools[self.stage_pool[sid]]
        pool.busy_slots -= 1
        pool.dirty = True
        self._finish_stage(req, sid)

    def _find_call(self, engine: EngineState, request_id: int) -> PendingCall:
        for call in engine.batch:
            if call.request_id == request_id:
                return call
        raise InternalInvariantViolation(
            f"request {request_id} not in engine {engine.engine_id} batch"
        )

    def _reschedule_completion(self, engine: EngineState) -> None:
        nxt = engine.next_completion(self.clock)
        if nxt is not None:
            call, when = nxt
            self._schedule(
                when,
                EVENT_CALL_COMPLETE,
                engine_id=engine.engine_id,
                request_id=call.request_id,
                epoch=engine.decode_epoch,
            )

    def _pick_outcome(self, stage: StageSpec, u: float) -> str:
        cum = 0.0
        chosen = None
        for out in stage.outcomes:
            if out.prob <= 0.0:
                continue
            chosen = out  # the last positive-mass outcome absorbs rounding residue
            cum += out.prob
            if u <= cum:
                break
        return chosen.label

    def _finish_stage(self, req: RequestSim, sid: str) -> None:
        rid = req.state.request_id
        start, end = req.dispatch_time, self.clock
        req.attained += end - start
        self.estimator.observe(sid, end - start)
        stage = self.vw.stage(sid)
        if len(stage.outcomes) == 1:
            label = stage.outcomes[0].label
        else:
            label = self._pick_outcome(stage, self._draw(req, f"outcome:{sid}"))
        req.state.stage_history.append((sid, start, end, label))
        transition = next_step(req.state, label, self.vw)
        if transition.is_done:
            req.state.current_stage = transition.terminal
            del self.requests[rid]
            latency = end - req.state.arrival_time
            self.traces.requests.append(
                RequestRecord(
                    request_id=rid,
                    arrival=req.state.arrival_time,
                    done=end,
                    outcome=transition.terminal,
                    latency=latency,
                    violated_slo=latency > self.vw.slo_seconds,
                    retries_used=req.state.retries_used,
                    n_stage_calls=len(req.state.stage_history),
                )
            )
        else:
            req.state.current_stage = transition.next_stage
            req.state.retries_used = transition.retries_used
            self._enter_stage(req)

    # ------------------------------------------------------------------
    # dispatch

    def _key_version(self) -> int:
        """Changes whenever the static dispatch keys of queued calls do:
        only slack keys depend on the service estimates."""
        return self.estimator.version if self.policy.kind == "slack" else 0

    def _dispatch_key(self, call: PendingCall) -> tuple[float, ...]:
        """The key the pool heaps order a queued call by, valid for the
        current key version.  Keys do not change while a call waits: slack
        keys order by deadline - W, which in exact arithmetic orders calls
        as deadline - now - W does."""
        kind = self.policy.kind
        req = self.requests[call.request_id]
        if kind != "slack":  # fcfs and las need neither slack nor estimates
            return dispatch_key(kind, call.request_id, req.attained)
        state = req.state
        sid = call.stage_id
        return dispatch_key(
            kind,
            call.request_id,
            req.attained,
            state.deadline - self._remaining_table()[(sid, state.retries_used)],
            self.estimator.estimate(sid),
            self.vw.selectivity(sid) if self.policy.use_selectivity else None,
        )

    def _dispatch_all(self) -> None:
        # A pool whose head was blocked stays blocked until it is marked
        # dirty: its queue grew, capacity it serves on was freed or added
        # (call or tool completion, borrow, return, scale event), or the
        # key version changed and may have brought another call to the head.
        # A full tool pool is left dirty, with its heap as it is, until a
        # slot frees: whatever its head, it could not be placed.
        version = self._key_version()
        for pool in self.pools.values():
            if pool.heap and (pool.dirty or pool.heap_version != version) and not pool.tool_slots_full():
                self._dispatch_pool(pool, version)

    def _dispatch_pool(self, pool: PoolRuntime, version: int) -> None:
        # Strictly in key order: if the most urgent call cannot be placed,
        # the whole queue waits (no overtaking).
        now = self.clock
        if pool.heap_version != version:
            key = self._dispatch_key
            pool.heap = [(key(call), call) for _, call in pool.heap]
            heapq.heapify(pool.heap)
            pool.heap_version = version
        pool.dirty = False
        remaining = self._remaining_table()
        while pool.heap:
            call, key, best_waiting = select_next(pool.heap)
            engine_label = self._place(pool, call, now)
            if engine_label is None:
                break  # blocked until marked dirty
            heapq.heappop(pool.heap)
            req = self.requests[call.request_id]
            req.dispatch_time = now
            delay = now - call.enqueue_time
            self.traces.dispatches.append(
                DispatchRecord(
                    time=now,
                    pool=pool.pool_id,
                    request_id=call.request_id,
                    slack=req.state.deadline - now - remaining[(call.stage_id, req.state.retries_used)],
                    expected_service=self.estimator.estimate(call.stage_id),
                    engine=engine_label,
                    stage_id=call.stage_id,
                    queue_delay=delay,
                    key=key,
                    best_waiting_key=best_waiting,
                )
            )
            pool.window_dispatches += 1
            if delay > self.policy.autoscale.queue_delay_slo:
                pool.window_delay_violations += 1
            if now >= self.cfg.warmup:
                pool.delay_sum += delay
                pool.delay_count += 1

    def _place(self, pool: PoolRuntime, call: PendingCall, now: float) -> str | None:
        """Start `call` on an engine or tool slot of `pool`; returns the
        engine id for the dispatch record ('' for a tool slot), or None
        when nothing can take it."""
        if pool.spec.kind != LLM:
            if pool.tool_slots_full():
                return None
            pool.busy_slots += 1
            stream = self._stream(self.requests[call.request_id], f"tool:{call.stage_id}")
            service = tool_service_time(pool.spec.tool_params, stream)
            self._schedule(now + service, EVENT_TOOL_COMPLETE, request_id=call.request_id)
            return ""
        prefix_tokens = self.vw.stage(call.stage_id).prefix_tokens
        engines = self._serving_engines(pool.pool_id)
        placed = route_call(call, prefix_tokens, engines)
        evictions: list[str] = []
        if placed is None:
            if not holds_foreign_prefix(call.stage_id, engines):
                return None  # the fallback could only fail too
            with_evict = route_call_with_eviction(call, prefix_tokens, engines)
            if with_evict is None:
                return None
            placed, evictions = with_evict
        for evict_sid in evictions:
            placed.evict_idle_prefix(evict_sid)
        prefill_done = placed.admit(call, prefix_tokens, now)
        if placed.lent_to is not None:
            self.audit.lent_admissions += 1
        self._schedule(
            prefill_done,
            EVENT_PREFILL_DONE,
            engine_id=placed.engine_id,
            request_id=call.request_id,
        )
        return str(placed.engine_id)

    # ------------------------------------------------------------------
    # borrowing and autoscaling

    def _maybe_return(self, engine: EngineState) -> None:
        home = self.pools[engine.home_pool]
        borrower = self.pools[engine.lent_to]
        if should_return_borrowed(
            self.policy.borrow, not engine.batch, home.utilization(), borrower.utilization()
        ):
            self.audit.returns.append((self.clock, engine.engine_id, engine.lent_to))
            engine.serving_pool = engine.home_pool
            home.dirty = borrower.dirty = True

    def _borrow_views(self) -> list[BorrowPoolView]:
        views = []
        for pool in self.pools.values():
            if pool.spec.kind != LLM or len(pool.spec.stage_ids) != 1:
                continue
            available = [
                e for e in self._home_engines(pool.pool_id) if e.lent_to is None
            ]
            # a pool never lends its last engine, lest it starve itself
            idle = tuple(
                (e.engine_id, e.free_kv())
                for e in available
                if not e.batch and len(available) > 1
            )
            views.append(
                BorrowPoolView(
                    pool_id=pool.pool_id,
                    utilization=pool.utilization(),
                    queue_len=len(pool.heap),
                    idle_engines=idle,
                    prefix_tokens=self.vw.stage(pool.spec.stage_ids[0]).prefix_tokens,
                )
            )
        return views

    def _handle_borrow_check(self, ev: Event) -> None:
        for engine in self.engines.values():
            if engine.lent_to is not None and not engine.batch:
                self._maybe_return(engine)
        while True:
            action = try_borrow(self._borrow_views(), self.policy.borrow)
            if action is None:
                break
            engine_id, lender, borrower = action
            self.engines[engine_id].serving_pool = borrower
            self.audit.borrows.append((self.clock, engine_id, lender, borrower))
            self.pools[lender].dirty = self.pools[borrower].dirty = True
        if not self.policy.autoscale.enabled:
            for pool in self.pools.values():
                pool.reset_window()
        t_next = ev.time + self.policy.autoscale.check_interval
        if t_next <= self.cfg.duration:
            self._schedule(t_next, EVENT_BORROW_CHECK)

    def _handle_autoscale_tick(self, ev: Event) -> None:
        cfg = self.policy.autoscale
        for pool in self.pools.values():
            decision = self._pool_scale_decision(pool, cfg)
            if decision:
                self._apply_scale(pool, decision)
                pool.dirty = True
                pool.last_scale_time = self.clock
                self.audit.scale_events.append((self.clock, pool.pool_id, decision))
            pool.reset_window()
        self._emit_kv_samples(force=True)
        t_next = ev.time + cfg.check_interval
        if t_next <= self.cfg.duration:
            self._schedule(t_next, EVENT_AUTOSCALE_TICK)

    def _pool_scale_decision(self, pool: PoolRuntime, cfg: AutoscaleConfig) -> int:
        if pool.spec.kind == LLM:
            home = self._home_engines(pool.pool_id)
            n = len(home)
            idle = any(e.lent_to is None and not e.batch for e in home)
        else:
            n = pool.concurrency
            idle = pool.busy_slots < pool.concurrency
        return autoscale_tick(
            cfg, self.clock, n, pool.violation_fraction(), idle, pool.last_scale_time
        )

    def _apply_scale(self, pool: PoolRuntime, decision: int) -> None:
        if pool.spec.kind == LLM:
            if decision > 0:
                self._add_engine(pool.pool_id, pool.spec.engine_params)  # cold start
            else:
                idle = [
                    e
                    for e in self._home_engines(pool.pool_id)
                    if e.lent_to is None and not e.batch
                ]
                victim = max(idle, key=lambda e: e.engine_id)
                del self.engines[victim.engine_id]
                self._last_kv_sample.pop(victim.engine_id, None)
        else:
            pool.concurrency += decision

    # ------------------------------------------------------------------
    # run loop

    def run(self) -> RunResult:
        duration = self.cfg.duration
        first = sample_interarrival(self._arrivals, self.cfg.arrival_rate)
        if first <= duration:
            self._schedule(first, EVENT_ARRIVAL)
        interval = self.policy.autoscale.check_interval
        if self.policy.autoscale.enabled and interval <= duration:
            self._schedule(interval, EVENT_AUTOSCALE_TICK)
        if self.policy.borrow.enabled and interval <= duration:
            self._schedule(interval, EVENT_BORROW_CHECK)

        engines = self.engines
        while self._heap and self._heap[0][0] <= duration:
            ev = heapq.heappop(self._heap)
            if ev.kind == EVENT_CALL_COMPLETE:
                engine = engines.get(ev.engine_id)
                if engine is None or ev.epoch != engine.decode_epoch:
                    # superseded: the engine's decode batch changed (or the
                    # engine retired) since it was scheduled, so it changes
                    # no state and the clock does not move to it
                    continue
            self._advance_clock(ev.time)
            self._handlers[ev.kind](self, ev)
            self._dispatch_all()
            self._check_invariants()
            self._emit_kv_samples()

        self._advance_clock(duration)
        self._emit_kv_samples(force=True)
        return RunResult(self._build_report(), self.traces, self.audit)

    def _build_report(self) -> MetricsReport:
        warmup = self.cfg.warmup
        duration = self.cfg.duration
        window = duration - warmup
        # outcomes from the records requests.csv is written from
        completed = failed = violations = 0
        latencies: list[float] = []
        for rec in self.traces.requests:
            if rec.arrival < warmup:
                continue  # simulated, excluded from metrics
            if rec.violated_slo:
                violations += 1
            if rec.outcome == SUCCESS:
                completed += 1
                latencies.append(rec.latency)
            else:
                failed += 1
        in_flight = sum(1 for req in self.requests.values() if req.state.arrival_time >= warmup)
        finished = completed + failed
        return MetricsReport(
            arrivals_admitted=self.admitted,
            completed=completed,
            failed_budget=failed,
            rejected=self.rejected,
            in_flight_at_end=in_flight,
            latency_p50=percentile(latencies, 50) if latencies else 0.0,
            latency_p95=percentile(latencies, 95) if latencies else 0.0,
            latency_p99=percentile(latencies, 99) if latencies else 0.0,
            throughput=completed / window if window > 0 else 0.0,
            slo_violation_rate=violations / finished if finished else 0.0,
            queue_delay_mean={
                p.pool_id: (p.delay_sum / p.delay_count if p.delay_count else 0.0)
                for p in self.pools.values()
            },
            kv_used_mean={
                str(eid): (self._kv_integral[eid] / window if window > 0 else 0.0)
                for eid in sorted(self._kv_integral)
            },
            max_queue_len={p.pool_id: p.max_queue_len for p in self.pools.values()},
            end_queue_len={p.pool_id: len(p.heap) for p in self.pools.values()},
            seed=self.cfg.seed,
            duration=duration,
            warmup=warmup,
            arrival_rate=self.cfg.arrival_rate,
        )


def run(config: SimConfig) -> RunResult:
    """Run one simulation to completion."""
    return Simulator(config).run()
