"""The heap-based dispatcher against the full-sort reference selection.

`select_next` reads a pool's heap of static keys and keys only the entries
that rounding could reorder; the simulator skips pools whose blocked head
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
from helpers import engine_params, nl2sql_vw, reference_select, sim_config, static_heap
from stagesim.engines import PendingCall
from stagesim.scheduling import (
    AdmissionConfig,
    AutoscaleConfig,
    BorrowConfig,
    dispatch_key,
    near_tie,
    route_call,
    route_call_with_eviction,
    select_next,
)
from stagesim.simulation import Simulator
from stagesim.workflow import LLM

# ----------------------------------------------------------------------
# select_next on generated queues


def _ulps(x: float, n: int) -> float:
    step = math.inf if n > 0 else -math.inf
    for _ in range(abs(n)):
        x = math.nextafter(x, step)
    return x


@st.composite
def slack_queues(draw):
    """(calls, static key_fn, exact key_fn at now, now) for a slack queue
    whose deadline - W values are mostly equal, a few ulps apart, or closer
    than the rounding of deadline - now."""
    now = draw(st.sampled_from([7.25, 1e3 + 0.1, 86400.3, 2.0**40 / 3]))
    # deadline - W near now (slack about 0) or far below it (late calls,
    # whose exact keys round at the scale of now)
    base = draw(st.sampled_from([now, now / 2, 0.0])) + draw(st.floats(-50.0, 50.0))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    with_selectivity = rnd.random() < 0.5
    fields = {}
    for rid in range(rnd.randint(1, 40)):
        work = rnd.choice([0.0, 0.1, 1.0 / 3, 2.5, 7.7, 40.0])
        mode = rnd.random()
        if mode < 0.6:  # deadline - W equal to base, or a few ulps off
            deadline = _ulps(base + work, rnd.randint(-3, 3))
        elif mode < 0.9:  # apart by less than the rounding of deadline - now
            deadline = base + work + rnd.uniform(-4.0, 4.0) * math.ulp(now)
        else:
            deadline = base + rnd.uniform(-20.0, 20.0)
        service = rnd.choice([0.5, 1.0])
        selectivity = rnd.choice([0.2, 0.5]) if with_selectivity else None
        fields[rid] = (deadline, work, service, selectivity)

    def key_at(t):
        def key(call):
            deadline, work, service, selectivity = fields[call.request_id]
            return dispatch_key("slack", call.request_id, 0.0, deadline - t - work, service, selectivity)

        return key

    calls = [PendingCall(rid, "gen", 0.0) for rid in fields]
    return calls, key_at(0.0), key_at(now), now


@settings(max_examples=300, derandomize=True, deadline=None)
@given(slack_queues())
def test_heap_selection_matches_full_sort(queue):
    calls, static_key, exact_key, now = queue
    heap = static_heap(calls, static_key)
    got = select_next(heap, exact_key, now)
    want = reference_select(calls, exact_key)
    assert got[0] is want[0]
    assert got[1:] == want[1:]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 5.0), st.booleans()), min_size=1, max_size=30))
def test_time_invariant_heap_selection_matches_full_sort(entries):
    # las: (attained, arrival), with many exact ties on attained service
    attained = {rid: (0.0 if zero else a) for rid, (a, zero) in enumerate(entries)}
    calls = [PendingCall(rid, "gen", 0.0) for rid in attained]
    key = lambda c: dispatch_key("las", c.request_id, attained[c.request_id])  # noqa: E731
    got = select_next(static_heap(calls, key))
    want = reference_select(calls, key)
    assert got[0] is want[0]
    assert got[1:] == want[1:]


def test_equal_static_primaries_can_order_either_way_at_now():
    # deadline - W rounds to the same static primary for both calls, but
    # (deadline - now) - W does not: the exact key decides, not the heap.
    now = 2.0**40 / 3
    fields = {0: (now + 1.0 / 3, 1.0 / 3), 1: (now + 0.1, 0.1)}

    def key_at(t):
        def key(call):
            deadline, work = fields[call.request_id]
            return dispatch_key("slack", call.request_id, 0.0, deadline - t - work, 1.0)

        return key

    calls = [PendingCall(rid, "gen", 0.0) for rid in fields]
    static = [key_at(0.0)(c)[0] for c in calls]
    exact = [key_at(now)(c)[0] for c in calls]
    assert static[0] == static[1] and exact[0] != exact[1]
    got = select_next(static_heap(calls, key_at(0.0)), key_at(now), now)
    assert got[0] is reference_select(calls, key_at(now))[0]


def test_exact_keys_per_select_stay_few_on_a_long_queue():
    deadlines = {rid: 1000.0 + 0.37 * ((rid * 7919) % 500) for rid in range(500)}
    calls = [PendingCall(rid, "gen", 0.0) for rid in deadlines]
    heap = static_heap(calls, lambda c: dispatch_key("slack", c.request_id, 0.0, deadlines[c.request_id] - 3.0, 1.0))
    evaluated = []

    def exact_key(call):
        evaluated.append(call.request_id)
        return dispatch_key("slack", call.request_id, 0.0, deadlines[call.request_id] - 500.0 - 3.0, 1.0)

    got = select_next(heap, exact_key, 500.0)
    assert len(evaluated) <= 8
    assert got[0] is reference_select(calls, exact_key)[0]


def test_near_tie_widens_with_the_horizon():
    calls = [PendingCall(rid, "gen", 0.0) for rid in range(3)]
    primaries = {0: 5.0, 1: 5.0 + 1e-7, 2: 9.0}
    heap = static_heap(calls, lambda c: (primaries[c.request_id], 1.0, float(c.request_id)))
    assert not near_tie(heap, 10.0)  # 1e-7 apart: outside the window up to t = 10
    assert near_tie(heap, 1e3)  # but rounding at t = 1000 may reorder them
    assert not near_tie(heap[:1], 1e3)


# ----------------------------------------------------------------------
# every dispatch of a simulation


def _placeable(sim: Simulator, pool, call) -> bool:
    if pool.spec.kind != LLM:
        return pool.busy_slots < pool.concurrency
    prefix = sim.vw.stage(call.stage_id).prefix_tokens
    engines = sim._serving_engines(pool.pool_id)
    return route_call(call, prefix, engines) is not None or (
        route_call_with_eviction(call, prefix, engines) is not None
    )


class CheckedSimulator(Simulator):
    """Asserts, after every dispatch pass, that no queued pool has a
    reference head that could be placed, and counts the pools a pass
    skipped and the dirty pools it skipped because all their tool slots
    were busy."""

    skipped = 0
    gated = 0

    def _dispatch_all(self) -> None:
        self.skipped += sum(1 for pool in self.pools.values() if pool.queue)
        self.gated += sum(
            1 for pool in self.pools.values() if pool.queue and pool.dirty and pool.tool_slots_full()
        )
        super()._dispatch_all()
        key_fn = self._dispatch_key_fn(self.clock)
        for pool in self.pools.values():
            if pool.queue:
                head = reference_select(list(pool.queue.values()), key_fn)[0]
                assert not _placeable(self, pool, head), f"{pool.pool_id} left placeable at {self.clock}"

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

    def checked_select_next(heap, key_fn=None, now=0.0):
        got = select_next(heap, key_fn, now)
        pool = next(p for p in sim.pools.values() if p.heap is heap)
        assert sorted(id(c) for _, c in heap) == sorted(id(c) for c in pool.queue.values())
        want = reference_select(list(pool.queue.values()), sim._dispatch_key_fn(now))
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
        assert sim.gated > 0, "no dirty tool pool waited on a busy slot"
    assert len(checked) >= len(result.traces.dispatches) > 0
    assert any(checked), "no selection ever had a second queued call"
    assert sim.skipped > 0, "no dispatch pass skipped a blocked pool"
