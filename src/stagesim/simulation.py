"""Deterministic discrete-event simulation core.

One simulation owns all of its state and is a pure function of its config
(seed included): identical configs produce byte-identical reports and
traces.  Events are processed in ascending (time, scheduling sequence)
order.  An engine is advanced only when an event touches it (admission,
prefill done, call completion, prefix eviction, lending or return,
scale-in, end of run): between two touches its batch does not change, so
its decode progress and KV use are linear in time and completion times
are exact.  Each touch closes one KV segment, which adds one trapezoid to
the engine's KV integral and one row to the KV trace.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from operator import attrgetter
from typing import NamedTuple

from .engines import _KV_TOL, EngineState, PendingCall
from .errors import ConfigError, InternalInvariantViolation
from .rng import RngStream, draw, stream_prefix
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
    can_evict_for,
    dispatch_key,
    route_call,
    route_call_with_eviction,
    select_next,
    should_return_borrowed,
    try_borrow,
)
from .workflow import (
    LLM,
    SUCCESS,
    StageSpec,
    ValidatedWorkflow,
    expected_remaining_work,
    is_terminal,
    next_step,
)
from .workloads import PoolSpec, Topology, derive_service_estimates

EVENT_ARRIVAL = "arrival"
EVENT_PREFILL_DONE = "prefill_done"
EVENT_CALL_COMPLETE = "call_complete"
EVENT_TOOL_COMPLETE = "tool_complete"
EVENT_AUTOSCALE_TICK = "autoscale_tick"
EVENT_BORROW_CHECK = "borrow_check"


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
    if not 0 < rate < math.inf:  # written so that NaN fails
        raise ValueError("arrival rate must be positive and finite")
    return -math.log(stream.uniform()) / rate


class Event(NamedTuple):
    """A scheduled event; the heap orders events as tuples, by (time, seq).
    `_schedule` builds it positionally, like the trace records below."""

    time: float
    seq: int
    kind: str
    engine_id: int = -1
    request_id: int = -1
    epoch: int = -1


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "slack"  # fcfs | las | slack
    online_estimates: bool = False
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
        # an event at a NaN time would end the run at once, and an infinite
        # duration would never end it
        if not (math.isfinite(self.arrival_rate) and self.arrival_rate > 0):
            raise ConfigError("'arrivals.rate' must be finite and positive")
        if not (math.isfinite(self.warmup) and self.warmup >= 0):
            raise ConfigError("'config.warmup' must be finite and >= 0")
        if not math.isfinite(self.duration):
            raise ConfigError("'config.duration' must be finite")
        if self.duration <= self.warmup:  # else no arrival is ever measured
            raise ConfigError("'config.duration' must be > 'config.warmup'")
        if self.policy.kind not in POLICY_KINDS:
            raise ConfigError(f"'policy.kind': unknown policy kind '{self.policy.kind}'")
        self.pools  # laying the pools out checks the topology against the workflow

    @functools.cached_property
    def pools(self) -> tuple[PoolSpec, ...]:
        """The pools the topology lays out for the workflow, laid out once."""
        return self.topology.pools(self.workflow)


# Trace records are NamedTuples: the loop builds one per sample, dispatch
# and finished request, and a tuple is cheaper to build than a dataclass.
# The loop builds them, and each `Event`, positionally as
# `_new(Cls, (every field, in declaration order))`: the instance is the
# same NamedTuple, but the call skips namedtuple's generated `__new__`, a
# Python-level function that costs about as much again as the tuple.
_new = tuple.__new__


class KvSample(NamedTuple):
    """The start of a KV segment: the engine's KV is
    kv_used + kv_slope * (t - time) until its next sample."""

    time: float
    pool: str
    engine_id: int
    kv_used: float
    kv_slope: float  # tokens per second
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


@dataclass(slots=True)
class RequestSim:
    """A live request: its place in the workflow graph (a terminal once it
    ends), the service it has had, and its own RNG streams: `streams` maps
    each `Simulator._draw_labels` entry the request has drawn from to the
    number of draws made, and `draw_prefix`, built at its first draw, is
    the bytes `f"{seed}|req:{request_id}:"` those draws start with."""

    request_id: int
    arrival_time: float
    deadline: float
    current_stage: str
    retries_used: int = 0
    n_stage_calls: int = 0
    attained: float = 0.0
    dispatch_time: float = 0.0
    streams: dict[bytes, int] = field(default_factory=dict)
    draw_prefix: bytes = b""
    counted: bool = True  # arrived at or after warmup: in the report's cohort


class PoolRuntime:
    """Mutable per-pool simulation state: queue, servers, and window stats.

    The queue is one heap per class, (stage, retries used), in `queues`.
    A slack key, (deadline - W, request id), depends on the service
    estimates only through W, and W depends only on the class.  Deadlines
    (arrival + SLO) never decrease with request id, because ids are handed
    out in arrival order; a request built by hand must keep that.  So
    within one class the keys sort in request-id order at every estimate
    version, float ties included (rounding is monotone).
    A class heap is therefore ranked by what no estimate changes: the
    request id under slack, the key itself under fcfs and las, whose keys
    never change while a call waits.  `heads` caches each class head's
    (key, call), valid for key version `key_version`, so a version change
    re-keys the class heads, never the calls behind them.

    An LLM pool keeps the engines it serves in `engines`, in increasing id
    order: its home engines that are not lent, and the engines lent to it.
    Routing reads that list and takes ties to the lowest id.  The simulator
    keeps it where engines are added, retired, lent and returned, and the
    invariant check walks it.  A tool pool's list stays empty.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        self.pool_id = spec.pool_id
        # class -> heap of (rank, call); a class leaves when its heap empties
        self.queues: dict[tuple[str, int], list[tuple[object, PendingCall]]] = {}
        # class -> (key, call) of its head, for every class while the heads
        # are current; a call that becomes a class head while they are stale
        # is keyed with the others by the next dispatch pass
        self.heads: dict[tuple[str, int], tuple[tuple[float, ...], PendingCall]] = {}
        self.key_version = -1
        self.queue_len = 0  # calls queued over all classes
        # set when something a blocked head's placement depends on may have
        # changed, or a new call may have become the head; a blocked pool is
        # skipped until then, or until the key version changes while it
        # holds two or more classes
        self.dirty = False
        # the servers autoscaling counts, a tool pool's slots or the engines
        # an LLM pool is home to (lent or not, kept by _add_engine and
        # scale-in); and a tool pool's slots with a call
        self.capacity = 0 if spec.kind == LLM else spec.concurrency
        self.busy = 0
        self.engines: list[EngineState] = []
        # the borrow check's window: integrated and reset only for the pools
        # in Simulator._lendable, and left at 0 in any other
        self.busy_integral = 0.0
        self.capacity_integral = 0.0
        self.prev_utilization = 0.0
        # the autoscale tick's window
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

    def reset_utilization_window(self) -> None:
        # an empty window keeps prev_utilization, which utilization()
        # already reads
        if self.capacity_integral > 0.0:
            self.prev_utilization = self.utilization()
            self.busy_integral = 0.0
            self.capacity_integral = 0.0

    def tool_slots_full(self) -> bool:
        """A tool pool with every slot busy: none of its queued calls can
        start until a tool completion or a scale-out frees a slot."""
        return self.spec.kind != LLM and self.busy >= self.capacity

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
        self.stage_pool: dict[str, str] = {}
        # _add_engine hands out ids in increasing order and engines are only
        # ever deleted, so iterating self.engines visits them in id order.
        self.engines: dict[int, EngineState] = {}
        self._next_engine_id = 0
        # an entry per engine ever added: all that a retired engine leaves
        self._kv_integral: dict[int, float] = {}
        # engines touched since the last KV rows were written, by id
        self._touched: dict[int, EngineState] = {}
        for spec in config.pools:
            pool = PoolRuntime(spec)
            self.pools[spec.pool_id] = pool
            for sid in spec.stage_ids:
                self.stage_pool[sid] = spec.pool_id
            if spec.kind == LLM:
                for _ in range(spec.n_engines):
                    self._add_engine(spec.pool_id, spec.engine_params)
        # the pool kinds, split once: the invariant check walks each list
        self._llm_pools = [pool for pool in self.pools.values() if pool.spec.kind == LLM]
        self._tool_pools = [pool for pool in self.pools.values() if pool.spec.kind != LLM]
        # per-config facts the loop reads on every event, resolved once
        self._slack = self.policy.kind == "slack"
        self._slo = self.vw.slo_seconds
        self._stages = {sid: self.vw.stage(sid) for sid in self.vw.stage_ids}
        # the bytes every request draw starts with, and stage -> draw kind
        # -> the UTF-8 label of the request stream it draws from (`_draw`),
        # built once
        self._request_head = stream_prefix(config.seed, "req:")
        self._draw_labels = {
            sid: {kind: f"{kind}:{sid}".encode() for kind in ("prompt", "output", "tool", "outcome")}
            for sid in self.vw.stage_ids
        }
        # the pools whose utilization() borrowing reads, and so the only
        # ones whose utilization is integrated: every lendable pool while
        # borrowing is on, none otherwise
        self._lendable: list[PoolRuntime] = [
            pool for pool in self.pools.values() if self.policy.borrow.enabled and pool.spec.lendable
        ]

        self.estimator = ServiceEstimator(
            derive_service_estimates(self.vw, config.pools), online=config.policy.online_estimates
        )
        self._work_table: dict[tuple[str, int], float] = {}
        self._work_version = -1

        # live requests only: a request leaves when it terminates, and its
        # RequestRecord is all that outlives it
        self.requests: dict[int, RequestSim] = {}
        self._next_rid = 0
        # the report's tally of the cohort, requests arriving at or after
        # warmup: admissions, rejections and, as each request ends, its
        # outcome, with one latency per success
        self.admitted = self.rejected = self.failed = self.violations = 0
        self.latencies: list[float] = []
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
        pool = self.pools[pool_id]
        pool.engines.append(engine)  # the highest id yet, so in id order
        pool.capacity += 1
        self._touched[engine.engine_id] = engine  # its first KV row
        return engine

    def _schedule(
        self, time: float, kind: str, engine_id: int = -1, request_id: int = -1, epoch: int = -1
    ) -> None:
        if not time >= self.clock - 1e-12:  # written so that NaN fails
            raise InternalInvariantViolation(
                f"event '{kind}' scheduled at {time} before clock {self.clock}"
            )
        seq = self._seq = self._seq + 1
        heappush(self._heap, _new(Event, (time, seq, kind, engine_id, request_id, epoch)))

    def _draw(self, req: RequestSim, label: bytes) -> float:
        """The next uniform of the request's own stream `req:{rid}:{label}`,
        where `label` is a `_draw_labels` entry."""
        prefix = req.draw_prefix
        if not prefix:
            prefix = req.draw_prefix = b"%b%d:" % (self._request_head, req.request_id)
        streams = req.streams
        index = streams.get(label, 0)
        streams[label] = index + 1
        return draw(prefix, label, index)

    def _remaining_table(self) -> dict[tuple[str, int], float]:
        if self._work_version != self.estimator.version:
            self._work_table = expected_remaining_work(self.vw, self.estimator.estimates())
            self._work_version = self.estimator.version
        return self._work_table

    # ------------------------------------------------------------------
    # clock advancement and accounting

    def _advance_clock(self, to_time: float) -> None:
        """Move the clock and the utilization integrals of the pools
        borrowing reads (`_lendable`); engines stay where they were until
        something touches them."""
        dt = to_time - self.clock
        if dt < -1e-12:
            raise InternalInvariantViolation("event clock moved backwards")
        if dt <= 0.0:
            self.clock = to_time
            return
        for pool in self._lendable:  # LLM pools: the servers are the engines
            busy = 0
            for e in pool.engines:
                if e.batch:
                    busy += 1
            pool.busy_integral += busy * dt
            pool.capacity_integral += len(pool.engines) * dt
        self.clock = to_time

    def _touch(self, engine: EngineState) -> None:
        """Close the engine's KV segment at the clock, before an event
        changes it: advance its decode progress, add the segment's KV
        integral, and mark it for a KV row once the event is done."""
        now = self.clock
        t0 = engine.last_advance
        self._touched[engine.engine_id] = engine
        if t0 >= now:
            return
        kv0 = engine.kv_used
        if engine.n_decode:
            engine.advance_decode(now)
        else:  # nothing decodes, so kv_used stays kv0
            engine.last_advance = now
        # trapezoid of the linear kv_used over the part of [t0, now] after
        # warmup
        warmup = self.cfg.warmup
        start = warmup if warmup > t0 else t0
        if start < now:
            kv1 = engine.kv_used
            kv_start = kv0 + (kv1 - kv0) * (start - t0) / (now - t0)
            self._kv_integral[engine.engine_id] += 0.5 * (kv_start + kv1) * (now - start)

    def _emit_kv_samples(self) -> None:
        """A KV row per engine touched since the last call, in id order:
        the start of its next segment, or its last row if it retired."""
        touched = self._touched
        if not touched:
            return
        samples = self.traces.kv_samples
        now = self.clock
        for eid in sorted(touched):
            e = touched[eid]
            row = (now, e.serving_pool, eid, e.kv_used, e.kv_slope(), e.resident_tokens)
            samples.append(_new(KvSample, row))
        touched.clear()

    def _check_invariants(self) -> None:
        """Check every engine, the LLM pools' engine lists and the tool
        pools' slot counters after an event.

        A tool pool's busy slots must lie within its slots, which have
        nothing to recount them from.  The LLM pools' lists must partition
        `self.engines`, each in strictly increasing id order, holding only
        engines that serve that pool and at least one whose home it is.

        An engine the event touched (or added) gets the full recount of
        `EngineState.check`.  Any other engine has not changed since its
        last full check: its counters are as they were, and its KV and
        decode progress grow linearly from the same segment start.  Its
        checks can then fail only once the clock passes the safe horizon
        that check stored, so it is checked by comparing the clock with
        that horizon, and past it gets the full recount, which decides and
        raises.  A new engine's horizon is -1, so its first check is a full
        one."""
        now = self.clock
        touched = self._touched
        engines = self.engines
        for pool in self._tool_pools:
            if not 0 <= pool.busy <= pool.capacity:
                raise InternalInvariantViolation(
                    f"pool {pool.pool_id}: busy/capacity {pool.busy}/{pool.capacity} out of bounds"
                )
        listed = 0
        for pool in self._llm_pools:
            pid = pool.pool_id
            stages = pool.spec.stage_ids
            last = -1
            own = False
            for e in pool.engines:
                eid = e.engine_id
                # strictly increasing ids, each a live engine serving this
                # pool: no engine is listed twice, in two pools, or after it
                # retired
                if eid <= last or engines.get(eid) is not e or e.serving_pool != pid:
                    raise InternalInvariantViolation(
                        f"pool {pid}: engine list {[x.engine_id for x in pool.engines]} "
                        f"out of order or not serving it"
                    )
                last = eid
                if e.home_pool == pid:
                    own = True
                if eid in touched or now > e.horizon:
                    e.check(now, stages)
            if not own:
                raise InternalInvariantViolation(f"pool {pid}: no engine of its own serves it")
            listed += len(pool.engines)
        if listed != len(engines):  # every engine is listed, and only once
            raise InternalInvariantViolation(
                f"pool engine lists hold {listed} engines, {len(engines)} exist"
            )

    # ------------------------------------------------------------------
    # event handlers

    def _handle_arrival(self, ev: Event) -> None:
        rid = self._next_rid
        self._next_rid += 1
        gap = sample_interarrival(self._arrivals, self.cfg.arrival_rate)
        self._schedule(ev.time + gap, EVENT_ARRIVAL)

        counted = ev.time >= self.cfg.warmup
        if not admission_decision((p.queue_len for p in self.pools.values()), self.policy.admission):
            self.rejected += counted
            return
        self.admitted += counted
        req = self.requests[rid] = RequestSim(rid, ev.time, ev.time + self._slo, self.vw.entry_stage, counted=counted)
        self._enter_stage(req)

    def _enter_stage(self, req: RequestSim) -> None:
        sid = req.current_stage
        stage = self._stages[sid]
        rid = req.request_id
        if stage.kind == LLM:
            labels = self._draw_labels[sid]
            prompt = stage.prompt_tokens.sample_int(self._draw(req, labels["prompt"]))
            output = stage.output_tokens.sample_int(self._draw(req, labels["output"]))
            call = PendingCall(rid, sid, self.clock, prompt, output)
        else:
            call = PendingCall(rid, sid, self.clock)
        pool = self.pools[self.stage_pool[sid]]
        cls = (sid, req.retries_used)
        queues = pool.queues
        if cls in queues:
            queue = queues[cls]
        else:
            queue = queues[cls] = []
        # ranked by what no estimate changes: the request id under slack,
        # the key under fcfs and las (see PoolRuntime)
        rank = rid if self._slack else self._dispatch_key(call)
        heappush(queue, (rank, call))
        queued = pool.queue_len = pool.queue_len + 1
        if queued > pool.max_queue_len:
            pool.max_queue_len = queued
        # a call behind its class head is behind the pool head, and changes
        # nothing the head's placement depends on: only a new pool head
        # wakes a blocked pool
        if queue[0][1] is call:
            if pool.key_version != self._key_version():
                pool.dirty = True  # the heads are stale: it may be the head
            else:
                key = self._dispatch_key(call)
                heads = pool.heads
                if not heads or key < min(heads.values())[0]:
                    pool.dirty = True
                heads[cls] = (key, call)

    def _handle_prefill_done(self, ev: Event) -> None:
        engine = self.engines[ev.engine_id]
        call = engine.find_call(ev.request_id)
        self._touch(engine)
        engine.prefill_finished(call)
        self._reschedule_completion(engine)

    def _handle_call_complete(self, ev: Event) -> None:
        engine = self.engines[ev.engine_id]  # run() skipped it if superseded
        call = engine.find_call(ev.request_id)
        self._touch(engine)
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
        sid = req.current_stage
        pool = self.pools[self.stage_pool[sid]]
        pool.busy -= 1
        pool.dirty = True
        self._finish_stage(req, sid)

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
        start, end = req.dispatch_time, self.clock
        req.attained += end - start
        req.n_stage_calls += 1
        self.estimator.observe(sid, end - start)
        stage = self._stages[sid]
        if len(stage.outcomes) == 1:
            label = stage.outcomes[0].label
        else:
            label = self._pick_outcome(stage, self._draw(req, self._draw_labels[sid]["outcome"]))
        req.current_stage, req.retries_used = next_step(sid, req.retries_used, label, self.vw)
        if not is_terminal(req.current_stage):
            self._enter_stage(req)
            return
        del self.requests[req.request_id]
        arrival = req.arrival_time
        latency = end - arrival
        violated = latency > self._slo
        row = (
            req.request_id, arrival, end, req.current_stage,
            latency, violated, req.retries_used, req.n_stage_calls,
        )
        self.traces.requests.append(_new(RequestRecord, row))
        if req.counted:
            self.violations += violated
            if req.current_stage == SUCCESS:
                self.latencies.append(latency)
            else:
                self.failed += 1

    # ------------------------------------------------------------------
    # dispatch

    def _key_version(self) -> int:
        """Changes whenever the static dispatch keys of queued calls do:
        only slack keys depend on the service estimates."""
        return self.estimator.version if self._slack else 0

    def _dispatch_key(self, call: PendingCall) -> tuple[float, ...]:
        """The key a pool's queue is ordered by, valid for the current key
        version.  Keys do not change while a call waits: slack keys order
        by deadline - W, which in exact arithmetic orders calls as
        deadline - now - W does."""
        req = self.requests[call.request_id]
        if not self._slack:  # fcfs and las need no slack
            return dispatch_key(self.policy.kind, call.request_id, req.attained)
        slack = req.deadline - self._remaining_table()[(call.stage_id, req.retries_used)]
        return dispatch_key("slack", call.request_id, slack=slack)

    def _dispatch_all(self) -> None:
        """Offer every pool whose head may have changed or become placeable.

        A pool whose head was blocked is offered again only once it is
        dirty, or once the key version changes while it holds two or more
        classes.  It is marked dirty when capacity it serves on is freed or
        added (call or tool completion, borrow, return, scale event), or
        when a call becomes its class head and either the heads are stale
        or its key beats every other head (`_enter_stage`): a call behind
        its class head is behind the pool head.  A version change can
        reorder the heads of different classes but never the calls of one
        class, so a single-class pool keeps its head and is not offered.
        Placing the head depends only on the pool's servers.  A full tool
        pool is skipped, with its heads as they are, until a slot frees:
        whatever its head, it could not be placed."""
        version = self._key_version()
        for pool in self.pools.values():
            if (
                pool.queue_len
                and (pool.dirty or (pool.key_version != version and len(pool.queues) > 1))
                and not pool.tool_slots_full()
            ):
                self._dispatch_pool(pool, version)

    def _dispatch_pool(self, pool: PoolRuntime, version: int) -> None:
        """Place the pool's calls strictly in key order: if the most urgent
        call cannot be placed, the whole queue waits (no overtaking).

        Stale heads are re-keyed first: one key per class, at most stages x
        (retry budget + 1) of them, whatever the queue length.  The pool
        head is the class head with the least key (`select_next`).  After
        its pop, its class's next call is keyed as the new class head, and
        the best waiting key is the least head key: the least key still
        queued, since each class's least is its head."""
        now = self.clock
        queues, heads = pool.queues, pool.heads
        if pool.key_version != version:
            for cls, queue in queues.items():
                head = queue[0][1]
                heads[cls] = (self._dispatch_key(head), head)
            pool.key_version = version
        pool.dirty = False
        remaining = self._remaining_table()
        while heads:
            call, call_key = select_next(heads.values())
            engine_label = self._place(pool, call, now)
            if engine_label is None:
                break  # blocked until marked dirty
            req = self.requests[call.request_id]
            cls = (call.stage_id, req.retries_used)
            queue = queues[cls]
            heappop(queue)
            pool.queue_len -= 1
            if queue:
                head = queue[0][1]
                entry = heads[cls] = (self._dispatch_key(head), head)
                best_waiting = (entry if len(heads) == 1 else min(heads.values()))[0]
            else:
                del queues[cls], heads[cls]
                best_waiting = min(heads.values())[0] if heads else None
            req.dispatch_time = now
            delay = now - call.enqueue_time
            sid = call.stage_id
            row = (
                now, pool.pool_id, call.request_id, req.deadline - now - remaining[cls],
                self.estimator.estimate(sid), engine_label, sid, delay, call_key, best_waiting,
            )
            self.traces.dispatches.append(_new(DispatchRecord, row))
            pool.window_dispatches += 1
            if delay > self.policy.autoscale.queue_delay_slo:
                pool.window_delay_violations += 1
            if now >= self.cfg.warmup:
                pool.delay_sum += delay
                pool.delay_count += 1

    def _place(self, pool: PoolRuntime, call: PendingCall, now: float) -> str | None:
        """Start `call` on an engine or tool slot of `pool`; returns the
        engine id for the dispatch record ('' for a tool slot), or None
        when nothing can take it.

        An LLM call is routed over the pool's engine list, in id order.
        When no engine can admit it as it is, the eviction fallback runs
        only under its own precondition, `can_evict_for`: some engine with
        a free batch slot holds an idle prefix of another stage.  Without
        one the fallback could only fail too."""
        if pool.spec.kind != LLM:
            if pool.tool_slots_full():
                return None
            pool.busy += 1
            u = self._draw(self.requests[call.request_id], self._draw_labels[call.stage_id]["tool"])
            service = self._stages[call.stage_id].service_time.sample(u)
            self._schedule(now + service, EVENT_TOOL_COMPLETE, request_id=call.request_id)
            return ""
        prefix_tokens = self._stages[call.stage_id].prefix_tokens
        engines = pool.engines
        placed = route_call(call, prefix_tokens, engines, now)
        evictions: list[str] = []
        if placed is None:
            if not can_evict_for(call.stage_id, engines):
                return None  # the fallback could only fail too
            with_evict = route_call_with_eviction(call, prefix_tokens, engines, now)
            if with_evict is None:
                return None
            placed, evictions = with_evict
        self._touch(placed)
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
        """Send a lent engine whose batch has drained home, if it is due."""
        home = self.pools[engine.home_pool]
        borrower = self.pools[engine.lent_to]
        if should_return_borrowed(self.policy.borrow, home.utilization(), borrower.utilization()):
            self.audit.returns.append((self.clock, engine.engine_id, engine.lent_to))
            self._set_serving_pool(engine, engine.home_pool)
            home.dirty = borrower.dirty = True

    def _set_serving_pool(self, engine: EngineState, pool_id: str) -> None:
        """Lend an idle engine to `pool_id`, or return it home, moving it
        between the two pools' engine lists, each kept in id order."""
        self._touch(engine)
        self.pools[engine.serving_pool].engines.remove(engine)
        bisect.insort(self.pools[pool_id].engines, engine, key=attrgetter("engine_id"))
        engine.serving_pool = pool_id

    def _spare_engines(self, pool: PoolRuntime) -> list[EngineState]:
        """The engines an LLM pool can give up, to a borrower or to
        scale-in: its idle engines at home (home, serving it, no batch), in
        id order, and none while it has only one engine at home, so that it
        never goes without an engine of its own."""
        pid = pool.pool_id
        home = [e for e in pool.engines if e.home_pool == pid]
        return [e for e in home if not e.batch] if len(home) > 1 else []

    def _borrow_views(self) -> list[BorrowPoolView]:
        views = []
        for pool in self._lendable:
            views.append(
                BorrowPoolView(
                    pool_id=pool.pool_id,
                    utilization=pool.utilization(),
                    queue_len=pool.queue_len,
                    idle_engines=tuple((e.engine_id, e.free_kv()) for e in self._spare_engines(pool)),
                    prefix_tokens=self._stages[pool.spec.stage_ids[0]].prefix_tokens,
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
            self._set_serving_pool(self.engines[engine_id], borrower)
            self.audit.borrows.append((self.clock, engine_id, lender, borrower))
            self.pools[lender].dirty = self.pools[borrower].dirty = True
        for pool in self._lendable:
            pool.reset_utilization_window()
        self._schedule(ev.time + self.policy.autoscale.check_interval, EVENT_BORROW_CHECK)

    def _handle_autoscale_tick(self, ev: Event) -> None:
        cfg = self.policy.autoscale
        for pool in self.pools.values():
            if pool.spec.kind == LLM:
                spare = self._spare_engines(pool)
                any_idle = bool(spare)
            else:
                any_idle = pool.busy < pool.capacity
            decision = autoscale_tick(
                cfg, self.clock, pool.capacity, pool.violation_fraction(), any_idle, pool.last_scale_time
            )
            if decision:
                if pool.spec.kind != LLM:
                    pool.capacity += decision
                elif decision > 0:
                    self._add_engine(pool.pool_id, pool.spec.engine_params)  # cold start
                else:  # the highest id of the pool's spare engines
                    victim = spare[-1]
                    self._touch(victim)  # closes its KV trace and integral
                    del self.engines[victim.engine_id]
                    pool.engines.remove(victim)
                    pool.capacity -= 1
                pool.dirty = True
                pool.last_scale_time = self.clock
                self.audit.scale_events.append((self.clock, pool.pool_id, decision))
            pool.window_dispatches = pool.window_delay_violations = 0
        self._schedule(ev.time + cfg.check_interval, EVENT_AUTOSCALE_TICK)

    # ------------------------------------------------------------------
    # run loop

    def run(self) -> RunResult:
        duration = self.cfg.duration
        self._schedule(sample_interarrival(self._arrivals, self.cfg.arrival_rate), EVENT_ARRIVAL)
        interval = self.policy.autoscale.check_interval
        if self.policy.autoscale.enabled:
            self._schedule(interval, EVENT_AUTOSCALE_TICK)
        if self.policy.borrow.enabled:
            self._schedule(interval, EVENT_BORROW_CHECK)

        self._emit_kv_samples()  # each engine's first row, at time 0
        engines = self.engines
        # Bound here, per run, not at import: the per-event methods are
        # looked up on the instance once, after any wrapper was installed.
        heap, handlers = self._heap, self._handlers
        advance, dispatch = self._advance_clock, self._dispatch_all
        check, emit = self._check_invariants, self._emit_kv_samples
        # the one place the horizon applies: events past it are scheduled
        # like any other, but never popped
        while heap and heap[0][0] <= duration:
            ev = heappop(heap)
            kind = ev.kind
            if kind == EVENT_CALL_COMPLETE:
                engine = engines.get(ev.engine_id)
                if engine is None or ev.epoch != engine.decode_epoch:
                    # superseded: the engine's decode batch changed (or the
                    # engine retired) since it was scheduled, so it changes
                    # no state and the clock does not move to it
                    continue
            advance(ev.time)
            handlers[kind](self, ev)
            dispatch()
            check()
            emit()

        self._advance_clock(duration)
        for engine in engines.values():  # a closing row per live engine
            self._touch(engine)
        self._emit_kv_samples()
        return RunResult(self._build_report(), self.traces, self.audit)

    def _build_report(self) -> MetricsReport:
        cfg, latencies = self.cfg, self.latencies
        window = cfg.duration - cfg.warmup
        completed, failed = len(latencies), self.failed
        finished = completed + failed
        return MetricsReport(
            arrivals_admitted=self.admitted,
            completed=completed,
            failed_budget=failed,
            rejected=self.rejected,
            # counted from the live requests, apart from the tally, so that
            # conservation compares three counts kept apart
            in_flight_at_end=sum(req.counted for req in self.requests.values()),
            latency_p50=percentile(latencies, 50) if latencies else 0.0,
            latency_p95=percentile(latencies, 95) if latencies else 0.0,
            latency_p99=percentile(latencies, 99) if latencies else 0.0,
            throughput=completed / window if window > 0 else 0.0,
            slo_violation_rate=self.violations / finished if finished else 0.0,
            queue_delay_mean={
                p.pool_id: (p.delay_sum / p.delay_count if p.delay_count else 0.0)
                for p in self.pools.values()
            },
            kv_used_mean={
                str(eid): (self._kv_integral[eid] / window if window > 0 else 0.0)
                for eid in sorted(self._kv_integral)
            },
            max_queue_len={p.pool_id: p.max_queue_len for p in self.pools.values()},
            end_queue_len={p.pool_id: p.queue_len for p in self.pools.values()},
            seed=cfg.seed,
            duration=cfg.duration,
            warmup=cfg.warmup,
            arrival_rate=cfg.arrival_rate,
        )


def run(config: SimConfig) -> RunResult:
    """Run one simulation to completion."""
    return Simulator(config).run()
