"""The heap-based dispatcher against the full-sort reference selection.

`select_next` reads the head of a pool's heap of dispatch keys, which do
not change while a call waits; the simulator skips pools whose blocked head
cannot have changed.  Both must make exactly the choices that keying and
sorting every queued call at every event makes.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stagesim as ss
import stagesim.simulation as simulation
from helpers import WakeEverySimulator, engine_params, nl2sql_vw, reference_select, sim_config, static_heap
from stagesim.engines import PendingCall
from stagesim.scheduling import (
    AdmissionConfig,
    AutoscaleConfig,
    BorrowConfig,
    dispatch_key,
    route_call,
    route_call_with_eviction,
    select_next,
)
from stagesim.simulation import RequestSim, Simulator
from stagesim.workflow import LLM, is_terminal
from stagesim.workloads import GENERATOR

# ----------------------------------------------------------------------
# select_next on generated queues


def _ulps(x: float, n: int) -> float:
    step = math.inf if n > 0 else -math.inf
    for _ in range(abs(n)):
        x = math.nextafter(x, step)
    return x


@st.composite
def las_keys(draw):
    """las keys by request id: (attained, arrival), with many exact ties on
    attained service."""
    entries = draw(st.lists(st.tuples(st.floats(0.0, 5.0), st.booleans()), min_size=1, max_size=30))
    return {rid: dispatch_key("las", rid, 0.0 if zero else a) for rid, (a, zero) in enumerate(entries)}


@st.composite
def slack_keys(draw):
    """slack keys by request id whose deadline - W values are mostly equal
    or a few ulps apart, with or without a selectivity term."""
    base = draw(st.sampled_from([7.25, 1e3 + 0.1, 86400.3, 2.0**40 / 3])) + draw(st.floats(-50.0, 50.0))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    with_selectivity = rnd.random() < 0.5
    keys = {}
    for rid in range(rnd.randint(1, 40)):
        work = rnd.choice([0.0, 0.1, 1.0 / 3, 2.5, 7.7, 40.0])
        if rnd.random() < 0.8:  # deadline - W equal to base, or a few ulps off
            deadline = _ulps(base + work, rnd.randint(-3, 3))
        else:
            deadline = base + rnd.uniform(-20.0, 20.0)
        service = rnd.choice([0.5, 1.0])
        selectivity = rnd.choice([0.2, 0.5]) if with_selectivity else None
        keys[rid] = dispatch_key("slack", rid, 0.0, deadline - work, service, selectivity)
    return keys


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(las_keys(), slack_keys()))
def test_time_invariant_heap_selection_matches_full_sort(keys):
    calls = [PendingCall(rid, "gen", 0.0) for rid in keys]
    key = lambda c: keys[c.request_id]  # noqa: E731
    got = select_next(static_heap(calls, key))
    want = reference_select(calls, key)
    assert got[0] is want[0]
    assert got[1:] == want[1:]


# ----------------------------------------------------------------------
# every dispatch of a simulation


def _placeable(sim: Simulator, pool, call) -> bool:
    if pool.spec.kind != LLM:
        return pool.busy < pool.capacity
    prefix = sim.vw.stage(call.stage_id).prefix_tokens
    engines = pool.engines
    return route_call(call, prefix, engines, sim.clock) is not None or (
        route_call_with_eviction(call, prefix, engines, sim.clock) is not None
    )


def _queued(heap) -> list[PendingCall]:
    return [call for _, call in heap]


class CheckedSimulator(Simulator):
    """Asserts, after every dispatch pass, that no queued pool has a
    reference head that could be placed, and after every event that
    `requests` holds exactly the admitted requests that have no
    RequestRecord yet and that each one's stage call is held exactly once;
    counts the pools a pass skipped, the pools it would otherwise have
    offered (dirty, or with a stale heap) but skipped because all their
    tool slots were busy, and the events checked."""

    skipped = 0
    gated = 0
    conserved = 0

    def __init__(self, config) -> None:
        self.unfinished: set[int] = set()  # admitted, no RequestRecord yet
        self.recorded = 0  # RequestRecords already taken out of unfinished
        super().__init__(config)

    def _enter_stage(self, req) -> None:
        self.unfinished.add(req.request_id)
        super()._enter_stage(req)

    def _dispatch_all(self) -> None:
        self.skipped += sum(1 for pool in self.pools.values() if pool.heap)
        version = self._key_version()
        self.gated += sum(
            1
            for pool in self.pools.values()
            if pool.heap and (pool.dirty or pool.heap_version != version) and pool.tool_slots_full()
        )
        super()._dispatch_all()
        for pool in self.pools.values():
            if pool.heap:
                head = reference_select(_queued(pool.heap), self._dispatch_key)[0]
                assert not _placeable(self, pool, head), f"{pool.pool_id} left placeable at {self.clock}"

    def _check_invariants(self) -> None:
        # A live request's one stage call waits in its pool's heap, runs in
        # an engine's batch, or holds a tool slot.
        super()._check_invariants()
        held = 0
        for pool in self.pools.values():
            queued = _queued(pool.heap)
            rids = {call.request_id for call in queued}
            assert len(rids) == len(queued), f"{pool.pool_id} holds a request twice"
            assert all(self.stage_pool[call.stage_id] == pool.pool_id for call in queued)
            held += len(queued)
            if pool.spec.kind != LLM:  # an LLM pool's busy counts engines, not calls
                held += pool.busy
        held += sum(len(engine.batch) for engine in self.engines.values())
        live = len(self.requests)
        assert held == live, f"{held} stage calls held for {live} live requests at {self.clock}"
        records = self.traces.requests
        self.unfinished.difference_update(rec.request_id for rec in records[self.recorded :])
        self.recorded = len(records)
        assert self.requests.keys() == self.unfinished, f"requests is not the live map at {self.clock}"
        assert not any(is_terminal(req.current_stage) for req in self.requests.values())
        self.conserved += 1

    def _dispatch_pool(self, pool, version) -> None:
        self.skipped -= 1
        super()._dispatch_pool(pool, version)


# KV-bound engines, as in configs/nl2sql_compare.json: which call heads a
# queue decides whether it can be placed
COMPARE_ENGINE = engine_params(kv_capacity_tokens=3200, prefill_rate=2000.0, max_batch=12)

BORROW = ss.PolicyConfig(
    online_estimates=True, borrow=BorrowConfig(enabled=True, util_low=0.4, util_high=0.6)
)

POLICIES = {
    "fcfs": dict(policy=ss.PolicyConfig(kind="fcfs")),
    "las": dict(policy=ss.PolicyConfig(kind="las")),
    "slack": dict(policy=ss.PolicyConfig(kind="slack")),
    "slack_selectivity_online": dict(
        policy=ss.PolicyConfig(kind="slack", use_selectivity=True, online_estimates=True)
    ),
    "shared_admission": dict(
        mode="shared",
        policy=ss.PolicyConfig(admission=AdmissionConfig(enabled=True, max_queue_len=15)),
    ),
    "borrow_online": dict(rate=2.5, seed=5, engines=(1, 3), params=COMPARE_ENGINE, policy=BORROW),
    "borrow_return_online": dict(rate=2.5, seed=5, engines=(2, 3), params=COMPARE_ENGINE, policy=BORROW),
    # a version change alone reorders the shared queue and unblocks it
    "shared_online": dict(
        vw=nl2sql_vw(p_fail=0.8),
        mode="shared",
        engines=(1, 2),
        rate=2.0,
        seed=6,
        params=COMPARE_ENGINE,
        policy=ss.PolicyConfig(online_estimates=True),
    ),
    "autoscale": dict(
        engines=(1, 2),
        policy=ss.PolicyConfig(autoscale=AutoscaleConfig(enabled=True, max_engines=4)),
    ),
    # the executor queue waits on its one slot while online estimates
    # change its keys: the full pool is skipped, not re-keyed
    "tool_full_online": dict(tool_concurrency=1, policy=ss.PolicyConfig(online_estimates=True)),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_every_dispatch_matches_full_sort(monkeypatch, name):
    cfg = sim_config(**{"rate": 3.0, "duration": 60.0, "warmup": 0.0, "seed": 4, **POLICIES[name]})
    sim = CheckedSimulator(cfg)
    checked = []

    def checked_select_next(heap):
        got = select_next(heap)
        assert any(pool.heap is heap for pool in sim.pools.values())
        # the heap is current: no call waits unkeyed or with a stale key
        assert all(key == sim._dispatch_key(call) for key, call in heap)
        want = reference_select(_queued(heap), sim._dispatch_key)
        assert got[0] is want[0]
        assert got[1:] == want[1:]
        checked.append(got[2] is not None)
        return got

    monkeypatch.setattr(simulation, "select_next", checked_select_next)
    result = sim.run()
    if name.startswith("borrow"):
        assert result.audit.borrows and result.audit.returns
    if name == "autoscale":
        assert result.audit.scale_events
    if name == "tool_full_online":
        assert sim.gated > 0, "no dirty or stale tool pool waited on a busy slot"
    assert len(checked) >= len(result.traces.dispatches) > 0
    assert any(checked), "no selection ever had a second queued call"
    assert sim.skipped > 0, "no dispatch pass skipped a blocked pool"
    assert sim.conserved >= len(result.traces.requests) > 0


@pytest.mark.parametrize("mode", ["isolated", "shared"])
@pytest.mark.parametrize("seed", [1, 2])
def test_wake_rule_places_what_waking_every_pool_places(mode, seed):
    # KV-bound engines and slack keys, as in configs/nl2sql_compare.json: a
    # fixer call can enter ahead of a blocked head and fit where it did not
    cfg = sim_config(mode=mode, params=COMPARE_ENGINE, rate=2.1, duration=80.0, warmup=10.0, seed=seed)
    sim, waker = Simulator(cfg), WakeEverySimulator(cfg)
    got, want = sim.run(), waker.run()
    assert sim._seq - len(sim._heap) == waker._seq - len(waker._heap)
    assert (got.report, got.traces, got.audit) == (want.report, want.traces, want.audit)


class OfferCountingSimulator(Simulator):
    """Counts the dispatch passes offered each pool, by pool id."""

    def __init__(self, config) -> None:
        self.offered: dict[str, int] = {}
        super().__init__(config)

    def _dispatch_pool(self, pool, version) -> None:
        self.offered[pool.pool_id] = self.offered.get(pool.pool_id, 0) + 1
        super()._dispatch_pool(pool, version)


def test_only_a_new_head_wakes_a_blocked_pool():
    # one generator engine that takes one call at a time, under fcfs, where
    # a call's key is its request id
    cfg = sim_config(params=engine_params(max_batch=1), policy=ss.PolicyConfig(kind="fcfs"))
    sim = OfferCountingSimulator(cfg)
    pool = sim.pools[sim.stage_pool[GENERATOR]]

    def enter(rid: int) -> None:
        sim.requests[rid] = RequestSim(rid, 0.0, 100.0, GENERATOR)
        sim._enter_stage(sim.requests[rid])

    def offers() -> int:
        sim._dispatch_all()
        return sim.offered.pop(pool.pool_id, 0)

    enter(5)  # no pass has keyed the heap yet: appended unkeyed
    assert pool.heap == [(None, pool.heap[0][1])] and not pool.dirty
    assert offers() == 1  # a stale heap is offered anyway, and 5 placed
    assert not pool.heap and sim.engines[0].batch[0].request_id == 5
    enter(7)  # the head of an empty queue
    assert pool.dirty
    assert offers() == 1  # blocked: the engine is full
    assert not pool.dirty and [call.request_id for _, call in pool.heap] == [7]
    enter(9)  # behind the blocked head
    assert not pool.dirty
    assert offers() == 0
    enter(3)  # ahead of it: a new head
    assert pool.dirty
    assert offers() == 1
    assert not pool.dirty and [call.request_id for _, call in sorted(pool.heap)] == [3, 7, 9]
