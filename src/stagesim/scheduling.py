"""Stage-local scheduling decisions.

Covers the dispatch ordering (deadline-slack keys and the FCFS and LAS
baselines), prefix affinity routing with last-resort LRU eviction,
workflow-level admission control, idle-engine borrowing between pools,
and per-pool autoscaling.
All functions here are pure decisions over explicit inputs; the event
loop applies their effects.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .engines import EngineState, PendingCall

POLICY_KINDS = ("fcfs", "las", "slack")


def dispatch_key(
    kind: str, request_id: int, attained_service: float = 0.0, slack: float = 0.0
) -> tuple[float, ...]:
    """Dispatch ordering tuple for a queued call; the smallest goes first.

    fcfs orders by arrival; las (least attained service) favors the
    workflow that has received the least service so far, then arrival;
    slack orders by ascending slack, then arrival.  Inputs the kind does
    not order by may be left out.  The simulator passes slack at time 0,
    deadline - W, so no key changes while its call waits.
    """
    if kind == "fcfs":
        return (float(request_id),)
    if kind == "las":
        return (attained_service, float(request_id))
    return (slack, float(request_id))


@dataclass(frozen=True)
class AdmissionConfig:
    """Reject new workflows while any stage queue sits at or above the cap.

    In-flight work is never shed; rejection happens only at arrival.
    """

    enabled: bool = False
    max_queue_len: int = 100

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        if self.enabled and not self.max_queue_len >= 1:
            raise ValueError("max_queue_len must be >= 1 when admission is enabled")


@dataclass(frozen=True)
class BorrowConfig:
    enabled: bool = False
    util_low: float = 0.2
    util_high: float = 0.8
    min_free_kv_tokens: int = 0

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        if not 0.0 <= self.util_low < self.util_high <= 1.0:
            raise ValueError("borrow thresholds need 0 <= util_low < util_high <= 1")
        if not self.min_free_kv_tokens >= 0:
            raise ValueError("min_free_kv_tokens must be >= 0")


@dataclass(frozen=True)
class AutoscaleConfig:
    enabled: bool = False
    check_interval: float = 1.0
    queue_delay_slo: float = 1.0
    scale_out_threshold: float = 0.5
    scale_in_threshold: float = 0.1
    cooldown: float = 5.0
    min_engines: int = 1
    max_engines: int = 8

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        if not 0 < self.check_interval < math.inf:
            raise ValueError("check_interval must be positive and finite")
        if not self.queue_delay_slo >= 0:
            raise ValueError("queue_delay_slo must be >= 0")
        if not self.scale_in_threshold < self.scale_out_threshold:
            raise ValueError("scale_in_threshold must be below scale_out_threshold")
        if not 1 <= self.min_engines <= self.max_engines:
            raise ValueError("need 1 <= min_engines <= max_engines")
        if not self.cooldown >= 0:
            raise ValueError("cooldown must be >= 0")


def select_next(heads):
    """Most urgent pending call of a pool, read from its class heads.

    `heads` holds a (dispatch key, call) entry for the head of each of the
    pool's class queues, one queue per (stage, retries used).  Within a
    class the keys sort as the queue ranks its calls, at every key version:
    slack keys (deadline - W, request id) take W from the class alone, and
    deadlines never decrease with request id
    (see `simulation.PoolRuntime`).  So each class head holds its class's
    least key, and the least key over the heads is the one a full sort of
    the queue picks.  Keys are unique (each ends in a request id), so calls
    are never compared.

    Returns (call, key) or None when there are no heads; the caller removes
    the call only after engine admission succeeds.
    """
    if not heads:
        return None
    key, call = min(heads)
    return call, key


def _route_order(stage_id: str, now: float):
    """The routing order as a sort key over engines: engines warm with
    `stage_id`'s prefix first, then least KV used at `now`, then lowest
    engine id."""
    return lambda e: (stage_id not in e.resident, e.kv_used_at(now), e.engine_id)


def route_call(
    call: PendingCall, prefix_tokens: int, engines: list[EngineState], now: float
) -> EngineState | None:
    """The first engine in routing order that can admit the call, or None.

    One pass over `engines` (the simulator passes a pool's list, in id
    order): warm before cold, then least KV used at `now`, then lowest id.
    An engine's KV is read only when it could still beat the best so far.
    """
    stage_id = call.stage_id
    best = None
    best_cold = True
    best_kv = 0.0
    for e in engines:
        if not e.can_admit(call, prefix_tokens):
            continue
        cold = stage_id not in e.resident
        if best is not None and cold and not best_cold:
            continue
        kv = e.kv_used_at(now)
        if (
            best is None
            or best_cold > cold
            or kv < best_kv
            or (kv == best_kv and e.engine_id < best.engine_id)
        ):
            best, best_cold, best_kv = e, cold, kv
    return best


def route_call_with_eviction(
    call: PendingCall, prefix_tokens: int, engines: list[EngineState], now: float
) -> tuple[EngineState, list[str]] | None:
    """Routing fallback: find an engine that could admit after evicting idle
    prefixes (least recently used first), trying engines in routing order.
    Returns the engine and the stage prefixes to evict, or None."""
    for engine in sorted(engines, key=_route_order(call.stage_id, now)):
        if len(engine.batch) >= engine.params.max_batch:
            continue
        needed = engine.kv_demand(call, prefix_tokens) - engine.free_kv()
        if needed <= 0:
            return engine, []
        evictions: list[str] = []
        freed = 0
        for _, stage_id, tokens in engine.evictable_prefixes(call.stage_id):
            evictions.append(stage_id)
            freed += tokens
            if freed >= needed:
                return engine, evictions
    return None


def can_evict_for(stage_id: str, engines: list[EngineState]) -> bool:
    """Whether some engine with a free batch slot holds an idle prefix of a
    stage other than `stage_id`: the precondition of
    `route_call_with_eviction` once `route_call` has found no engine.

    Skipping the fallback when this is false is exact.  The fallback only
    tries engines with a free slot.  On such an engine, needing no eviction
    (the call's KV demand within the free KV) is exactly `can_admit`, which
    `route_call` just refused for every engine; so the fallback can place
    the call only by evicting, and it evicts only idle prefixes of other
    stages (`evictable_prefixes`), which no engine with a free slot holds.
    """
    for engine in engines:
        if len(engine.batch) >= engine.params.max_batch:
            continue
        for sid in engine.resident:
            if sid != stage_id and not engine.has_active_calls(sid):
                return True
    return False


def admission_decision(queue_lengths: Iterable[int], cfg: AdmissionConfig) -> bool:
    """True to accept a new workflow arrival.

    `queue_lengths` holds every pool's queue length; it may be a generator,
    which is not consumed when admission is off.  A queue already at the
    cap rejects, so accepted arrivals can never push the entry queue past
    max_queue_len.
    """
    if not cfg.enabled:
        return True
    return all(q < cfg.max_queue_len for q in queue_lengths)


@dataclass(frozen=True)
class BorrowPoolView:
    """What the borrow decision needs to know about one pool."""

    pool_id: str
    utilization: float
    queue_len: int
    idle_engines: tuple[tuple[int, int], ...]  # (engine_id, free_kv_tokens)
    prefix_tokens: int  # prefix the pool's stage would plant on a lender


def try_borrow(
    views: list[BorrowPoolView], cfg: BorrowConfig
) -> tuple[int, str, str] | None:
    """Match the busiest starved pool with an idle engine elsewhere.

    Returns (engine_id, lender_pool, borrower_pool); None when no pairing
    clears the utilization hysteresis and free-memory guard.  A borrower is
    above `util_high` and a lender below `util_low`, so never the same
    pool.  The caller gates on `cfg.enabled`.
    """
    borrowers = sorted(
        (v for v in views if v.utilization > cfg.util_high),
        key=lambda v: (-v.queue_len, v.pool_id),
    )
    lenders = sorted(
        (v for v in views if v.utilization < cfg.util_low and v.idle_engines),
        key=lambda v: (v.utilization, v.pool_id),
    )
    for borrower in borrowers:
        need = cfg.min_free_kv_tokens + borrower.prefix_tokens
        for lender in lenders:
            fitting = [eid for eid, free in lender.idle_engines if free >= need]
            if fitting:
                return min(fitting), lender.pool_id, borrower.pool_id
    return None


def should_return_borrowed(cfg: BorrowConfig, home_util: float, borrower_util: float) -> bool:
    """Whether a lent engine whose batch has drained goes home: once either
    its home pool is starved or the borrower has cooled off."""
    return home_util > cfg.util_high or borrower_util < cfg.util_low


def autoscale_tick(
    cfg: AutoscaleConfig,
    now: float,
    n_engines: int,
    violation_fraction: float,
    idle_engine_available: bool,
    last_scale_time: float,
) -> int:
    """Per-pool scale decision: +1, -1, or 0.  The caller gates on
    `cfg.enabled`."""
    if now - last_scale_time < cfg.cooldown:
        return 0
    if violation_fraction > cfg.scale_out_threshold and n_engines < cfg.max_engines:
        return 1
    if (
        violation_fraction < cfg.scale_in_threshold
        and idle_engine_available
        and n_engines > cfg.min_engines
    ):
        return -1
    return 0


class ServiceEstimator:
    """Per-stage mean service-time estimates.

    The given means stay fixed by default; with online=True the estimates
    track an exponentially weighted mean of observed stage service times,
    each observation weighted `WEIGHT`.
    """

    WEIGHT = 0.2

    def __init__(self, means: dict[str, float], online: bool = False) -> None:
        self._means = dict(means)
        self.online = online
        self.version = 0  # bumped on every update, for caching derived tables

    def estimates(self) -> dict[str, float]:
        return self._means

    def estimate(self, stage_id: str) -> float:
        return self._means[stage_id]

    def observe(self, stage_id: str, seconds: float) -> None:
        if not self.online:
            return
        prev = self._means[stage_id]
        w = self.WEIGHT
        self._means[stage_id] = w * seconds + (1.0 - w) * prev
        self.version += 1


NEVER_SCALED = -math.inf
