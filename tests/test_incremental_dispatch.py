"""The class-queue dispatcher against the full-sort reference selection.

A pool queues its calls in one heap per class, (stage, retries used),
ranked by what no estimate changes, and `select_next` picks the least key
over the class heads; the simulator skips pools whose blocked head cannot
have changed.  Both must make exactly the choices that keying and sorting
every queued call at every event makes.
"""

import heapq
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stagesim as ss
import stagesim.cli
import stagesim.simulation as simulation
from helpers import assert_same_run, engine_params, nl2sql_vw, reference_select, sim_config
from stagesim.engines import PendingCall
from stagesim.reporting import replay_dispatch_audit
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
from stagesim.workloads import EXECUTOR, FIXER, GENERATOR

ROOT = Path(__file__).resolve().parent.parent


def class_queues(calls, class_of, rank) -> dict:
    """Class heaps of (rank, call) entries, by class, as
    `PoolRuntime.queues` keeps them."""
    queues: dict = {}
    for call in calls:
        heapq.heappush(queues.setdefault(class_of(call), []), (rank(call), call))
    return queues


def queued_calls(pool) -> list:
    """Every call waiting in a pool, over all of its class queues."""
    return [call for queue in pool.queues.values() for _, call in queue]


# ----------------------------------------------------------------------
# class queues on generated keys


def _ulps(x: float, n: int) -> float:
    step = math.inf if n > 0 else -math.inf
    for _ in range(abs(n)):
        x = math.nextafter(x, step)
    return x


@st.composite
def las_keys(draw):
    """las keys and classes by request id: (attained, arrival), with many
    exact ties on attained service, in up to three classes."""
    entries = draw(
        st.lists(st.tuples(st.floats(0.0, 5.0), st.booleans(), st.integers(0, 2)), min_size=1, max_size=30)
    )
    return {
        rid: (cls, dispatch_key("las", rid, 0.0 if zero else attained))
        for rid, (attained, zero, cls) in enumerate(entries)
    }


@st.composite
def slack_keys(draw):
    """slack keys and classes by request id, built as the simulator builds
    them: up to four classes, each with its own W, E and (or not)
    selectivity, and deadlines that never decrease with request id, mostly
    equal or a few ulps apart.  Some deadline steps are the difference of
    two classes' W, so keys of different classes often tie on deadline - W."""
    base = draw(st.sampled_from([7.25, 1e3 + 0.1, 86400.3, 2.0**40 / 3])) + draw(st.floats(-50.0, 50.0))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    with_selectivity = rnd.random() < 0.5
    classes = [
        (
            rnd.choice([0.0, 0.1, 1.0 / 3, 2.5, 7.7, 40.0, rnd.uniform(0.0, 100.0)]),
            rnd.choice([0.5, 1.0, rnd.uniform(0.0, 3.0)]),
            rnd.choice([0.2, 0.5]) if with_selectivity else None,
        )
        for _ in range(rnd.randint(1, 4))
    ]
    deadline = base
    keys = {}
    for rid in range(rnd.randint(1, 40)):
        step = rnd.random()
        if step < 0.3:
            deadline = _ulps(deadline, rnd.randint(1, 3))
        elif step < 0.5:
            (w1, _, _), (w2, _, _) = rnd.choice(classes), rnd.choice(classes)
            deadline += abs(w1 - w2)
        elif step < 0.6:
            deadline += rnd.uniform(0.0, 5.0)
        # else the same deadline as the request before
        cls = rnd.randrange(len(classes))
        work, service, selectivity = classes[cls]
        keys[rid] = (cls, dispatch_key("slack", rid, 0.0, deadline - work, service, selectivity))
    return keys


@settings(max_examples=300, derandomize=True, deadline=None)
@given(slack_keys())
def test_keys_of_one_class_sort_in_request_id_order(keys):
    # the lemma the class queues rest on: within a class, sorting by the
    # full slack key is sorting by request id, float ties included
    for cls in {cls for cls, _ in keys.values()}:
        rids = [rid for rid, (c, _) in keys.items() if c == cls]
        assert sorted(rids, key=lambda rid: keys[rid][1]) == rids


def test_deadlines_never_decrease_with_request_id():
    # the lemma's precondition, on a simulated run
    deadlines: dict[int, float] = {}

    class Recording(Simulator):
        def _enter_stage(self, req) -> None:
            deadlines.setdefault(req.request_id, req.deadline)
            super()._enter_stage(req)

    Recording(sim_config(rate=3.0, duration=60.0, policy=ss.PolicyConfig(online_estimates=True))).run()
    ordered = [deadlines[rid] for rid in sorted(deadlines)]
    assert len(ordered) > 100 and ordered == sorted(ordered)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(las_keys().map(lambda k: ("las", k)), slack_keys().map(lambda k: ("slack", k))))
def test_time_invariant_heap_selection_matches_full_sort(case):
    # drain class queues ranked as the simulator ranks them (by request id
    # under slack, by key under las): every selection over the class heads,
    # and the least head key after its pop, must be the full sort's
    kind, keys = case
    calls = [PendingCall(rid, "gen", 0.0) for rid in keys]
    key = lambda c: keys[c.request_id][1]  # noqa: E731
    rank = key if kind == "las" else (lambda c: c.request_id)
    queues = class_queues(calls, lambda c: keys[c.request_id][0], rank)
    waiting = list(calls)
    while waiting:
        want = reference_select(waiting, key)
        heads = {cls: (key(queue[0][1]), queue[0][1]) for cls, queue in queues.items()}
        call, got_key = select_next(heads.values())
        assert call is want[0] and got_key == want[1]
        cls = keys[call.request_id][0]
        heapq.heappop(queues[cls])
        if not queues[cls]:
            del queues[cls]
        waiting.remove(call)
        best_waiting = min((key(queue[0][1]) for queue in queues.values()), default=None)
        assert best_waiting == want[2]
    assert not queues


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


class CheckedSimulator(Simulator):
    """Asserts, after every dispatch pass, that no queued pool has a
    reference head that could be placed, and after every event that
    `requests` holds exactly the admitted requests that have no
    RequestRecord yet, that each one's stage call is held exactly once, and
    that each pool's class queues hold only calls of their class, with
    current cached head keys; counts the pools a pass skipped, the pools it
    would otherwise have offered (dirty, or stale with two or more classes)
    but skipped because all their tool slots were busy, and the events
    checked.  `placed` records, per placed call, the reference selection it
    was placed from."""

    skipped = 0
    gated = 0
    conserved = 0

    def __init__(self, config) -> None:
        self.unfinished: set[int] = set()  # admitted, no RequestRecord yet
        self.recorded = 0  # RequestRecords already taken out of unfinished
        self.selected = None  # the reference selection of the last select_next
        self.placed: list = []
        super().__init__(config)

    def _enter_stage(self, req) -> None:
        self.unfinished.add(req.request_id)
        super()._enter_stage(req)

    def _dispatch_all(self) -> None:
        self.skipped += sum(1 for pool in self.pools.values() if pool.queue_len)
        version = self._key_version()
        self.gated += sum(
            1
            for pool in self.pools.values()
            if pool.queue_len
            and (pool.dirty or (pool.key_version != version and len(pool.queues) > 1))
            and pool.tool_slots_full()
        )
        super()._dispatch_all()
        for pool in self.pools.values():
            if pool.queue_len:
                head = reference_select(queued_calls(pool), self._dispatch_key)[0]
                assert not _placeable(self, pool, head), f"{pool.pool_id} left placeable at {self.clock}"

    def _place(self, pool, call, now):
        label = super()._place(pool, call, now)
        if label is not None:
            assert self.selected[0] is call
            self.placed.append(self.selected)
        return label

    def _check_invariants(self) -> None:
        # A live request's one stage call waits in its pool's queue, runs in
        # an engine's batch, or holds a tool slot.
        super()._check_invariants()
        held = 0
        version = self._key_version()
        for pool in self.pools.values():
            queued = queued_calls(pool)
            rids = {call.request_id for call in queued}
            assert len(rids) == len(queued) == pool.queue_len, f"{pool.pool_id} holds a request twice"
            assert all(self.stage_pool[call.stage_id] == pool.pool_id for call in queued)
            for (sid, retries), queue in pool.queues.items():
                assert queue, f"{pool.pool_id} keeps an empty class"
                for _, call in queue:
                    assert (call.stage_id, self.requests[call.request_id].retries_used) == (sid, retries)
            if pool.key_version == version:  # current heads: one per class, keyed now
                assert pool.heads.keys() == pool.queues.keys()
                for cls, (key, call) in pool.heads.items():
                    assert call is pool.queues[cls][0][1] and key == self._dispatch_key(call)
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
    # the generator queue grows without bound and the fixer and executor
    # queues span several retry classes while the estimates change
    "overload_online": dict(rate=4.0, policy=ss.PolicyConfig(online_estimates=True)),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_every_dispatch_matches_full_sort(monkeypatch, name):
    cfg = sim_config(**{"rate": 3.0, "duration": 60.0, "warmup": 0.0, "seed": 4, **POLICIES[name]})
    sim = CheckedSimulator(cfg)
    checked = []
    classes = []

    def checked_select_next(heads):
        got = select_next(heads)
        # a non-empty pool's heads (every call waits in one pool only)
        (pool,) = [pool for pool in sim.pools.values() if pool.queue_len and heads.mapping == pool.heads]
        # the heads are current: one per class, each keyed now
        assert pool.key_version == sim._key_version() and pool.heads.keys() == pool.queues.keys()
        assert all(call is pool.queues[cls][0][1] for cls, (_, call) in pool.heads.items())
        assert all(key == sim._dispatch_key(call) for key, call in heads)
        want = reference_select(queued_calls(pool), sim._dispatch_key)
        assert got[0] is want[0]
        assert got[1] == want[1]
        sim.selected = want
        checked.append(want[2] is not None)
        classes.append(len(heads))
        return got

    monkeypatch.setattr(simulation, "select_next", checked_select_next)
    result = sim.run()
    # each dispatch record's best waiting key is the reference's second key
    # over the queue its call was selected from
    records = result.traces.dispatches
    assert len(records) == len(sim.placed)
    for rec, (call, key, best_waiting) in zip(records, sim.placed):
        assert (rec.request_id, rec.key, rec.best_waiting_key) == (call.request_id, key, best_waiting)
    if name.startswith("borrow"):
        assert result.audit.borrows and result.audit.returns
    if name == "autoscale":
        assert result.audit.scale_events
    if name == "tool_full_online":
        assert sim.gated > 0, "no dirty or stale tool pool waited on a busy slot"
    if name == "overload_online":
        assert max(classes) >= 3, "no selection was over three or more classes"
    assert len(checked) >= len(records) > 0
    assert any(checked), "no selection ever had a second queued call"
    assert sim.skipped > 0, "no dispatch pass skipped a blocked pool"
    assert sim.conserved >= len(result.traces.requests) > 0


@pytest.mark.parametrize("mode", ["isolated", "shared"])
@pytest.mark.parametrize("seed", [1, 2])
def test_wake_rule_places_what_waking_every_pool_places(mode, seed):
    # KV-bound engines and slack keys, as in configs/nl2sql_compare.json: a
    # fixer call can enter ahead of a blocked head and fit where it did not;
    # NaiveSimulator offers every queued pool after every event
    cfg = sim_config(mode=mode, params=COMPARE_ENGINE, rate=2.1, duration=80.0, warmup=10.0, seed=seed)
    assert_same_run(cfg)


class OfferCountingSimulator(Simulator):
    """Counts the dispatch passes offered each pool, by pool id."""

    def __init__(self, config) -> None:
        self.offered: dict[str, int] = {}
        super().__init__(config)

    def _dispatch_pool(self, pool, version) -> None:
        self.offered[pool.pool_id] = self.offered.get(pool.pool_id, 0) + 1
        super()._dispatch_pool(pool, version)


class KeyCountingSimulator(OfferCountingSimulator):
    """Also counts the dispatch keys computed."""

    keys = 0

    def _dispatch_key(self, call):
        self.keys += 1
        return super()._dispatch_key(call)


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

    enter(5)  # no pass has keyed the heads yet: a new class head marks the pool
    assert pool.dirty and pool.key_version == -1 and not pool.heads
    assert offers() == 1  # and 5 placed
    assert not pool.queue_len and sim.engines[0].batch[0].request_id == 5
    enter(7)  # the head of an empty queue
    assert pool.dirty
    assert offers() == 1  # blocked: the engine is full
    assert not pool.dirty and [call.request_id for call in queued_calls(pool)] == [7]
    enter(9)  # behind the blocked head
    assert not pool.dirty
    assert offers() == 0
    enter(3)  # ahead of it: a new head
    assert pool.dirty
    assert offers() == 1
    assert not pool.dirty and sorted(call.request_id for call in queued_calls(pool)) == [3, 7, 9]


def test_a_version_change_re_keys_only_the_heads_of_a_pool_with_two_classes():
    # slack with online estimates; one engine that takes one call at a time.
    # Every hand-built request has deadline 100, so deadlines never decrease
    # with request id, and a key orders by W alone: the generator's W is the
    # largest, and a fixer call's falls as its retries used rise.
    def build(mode):
        cfg = sim_config(
            mode=mode,
            engines=(1, 1) if mode == "isolated" else (1, 0),
            params=engine_params(max_batch=1),
            policy=ss.PolicyConfig(online_estimates=True),
        )
        sim = KeyCountingSimulator(cfg)
        return sim, sim.pools[sim.stage_pool[GENERATOR]]

    def enter(sim, rid, stage, retries=0):
        assert all(req.deadline <= 100.0 for req in sim.requests.values() if req.request_id < rid)
        sim.requests[rid] = RequestSim(rid, 0.0, 100.0, stage, retries)
        sim._enter_stage(sim.requests[rid])

    def offers(sim, pool) -> int:
        sim._dispatch_all()
        return sim.offered.pop(pool.pool_id, 0)

    def new_version(sim):
        sim.estimator.observe(EXECUTOR, 9.0)

    # an isolated generator pool holds one class: its head survives any
    # version change, so a version change neither offers nor re-keys it
    sim, pool = build("isolated")
    for rid in range(4):
        enter(sim, rid, GENERATOR)
    assert offers(sim, pool) == 1 and pool.queue_len == 3  # 0 placed, 1 blocked
    new_version(sim)
    sim.keys = 0
    assert offers(sim, pool) == 0 and sim.keys == 0
    assert pool.key_version != sim._key_version()
    enter(sim, 4, GENERATOR)  # behind the head: nothing to key, nothing marked
    assert not pool.dirty and sim.keys == 0

    # a shared pool of generator and fixer classes
    sim, pool = build("shared")
    enter(sim, 0, GENERATOR)
    assert offers(sim, pool) == 1 and not pool.queue_len  # 0 placed
    enter(sim, 1, FIXER, 1)  # the head of an empty queue
    assert pool.dirty and offers(sim, pool) == 1  # blocked
    enter(sim, 2, FIXER, 2)  # a new class head whose key does not beat the head's
    assert not pool.dirty and offers(sim, pool) == 0
    enter(sim, 3, GENERATOR)  # a new class head that does: the new pool head
    assert pool.dirty and offers(sim, pool) == 1
    assert select_next(pool.heads.values())[0].request_id == 3
    enter(sim, 5, FIXER, 1)  # behind its class head
    assert not pool.dirty and len(pool.queues) == 3 and pool.queue_len == 4
    new_version(sim)
    sim.keys = 0
    assert offers(sim, pool) == 1 and sim.keys == 3  # one key per class head
    assert pool.key_version == sim._key_version()
    new_version(sim)
    enter(sim, 6, FIXER, 3)  # a new class head while the heads are stale
    assert pool.dirty and sim.keys == 3


def _online_overload_config(tmp_path, duration: float) -> Path:
    """The base of configs/nl2sql_compare.json at 4.0/s with online
    estimates: the generator queue grows without bound while every
    completion changes the estimates."""
    tree = json.loads((ROOT / "configs" / "nl2sql_compare.json").read_text())["base"]
    tree.pop("out_dir")
    tree["arrivals"]["rate"] = 4.0
    tree["policy"]["online_estimates"] = True
    tree["duration"] = duration
    path = tmp_path / f"online_overload_{duration:g}.json"
    path.write_text(json.dumps(tree))
    return path


@pytest.mark.parametrize("duration", [60.0, 240.0])
def test_dispatch_keys_grow_linearly_with_run_length(tmp_path, monkeypatch, duration):
    # a version change re-keys the class heads, not the queue behind them,
    # so the keys computed per popped event stay bounded as the queue grows
    counted = []

    class Counting(KeyCountingSimulator):
        def run(self):
            result = super().run()
            longest = max(pool.max_queue_len for pool in self.pools.values())
            counted.append((self.keys, self._seq - len(self._heap), longest))
            return result

    monkeypatch.setattr(stagesim.cli, "Simulator", Counting)
    config, out = _online_overload_config(tmp_path, duration), tmp_path / "out"
    assert stagesim.cli.main(["run", str(config), "--seed", "1", "--out", str(out)]) == 0
    ((keys, popped, longest),) = counted
    assert longest > duration / 3  # the queue grows with the run
    assert keys <= 2 * popped, (keys, popped)
    assert replay_dispatch_audit(out / "dispatch.csv") == []
