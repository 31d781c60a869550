"""The class-queue dispatcher: its lemmas, its wake rule and its costs.

A pool queues its calls in one heap per class, (stage, retries used),
ranked by what no estimate changes, and `select_next` picks the least key
over the class heads; the simulator skips pools whose blocked head cannot
have changed.  Here: the lemmas the class heaps rest on, checked on
generated keys against the full-sort `reference_select`; the wake rule on
runs where a new head unblocks a queue; which pools a pass offers and which
keys it computes; and that the keys computed grow linearly with run
length.  That every dispatch of a run makes the full sort's choice is
`assert_same_run`'s check, on every run of tests/test_naive_reference.py.
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
from helpers import assert_same_run, engine_params, reference_select, sim_config
from stagesim.engines import PendingCall
from stagesim.reporting import replay_dispatch_audit
from stagesim.scheduling import dispatch_key, select_next
from stagesim.simulation import RequestSim, Simulator
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
    them: up to four classes, each with its own W, and deadlines that
    never decrease with request id, mostly equal or a few ulps apart.
    Some deadline steps are the difference of two classes' W, so keys of
    different classes often tie on deadline - W."""
    base = draw(st.sampled_from([7.25, 1e3 + 0.1, 86400.3, 2.0**40 / 3])) + draw(st.floats(-50.0, 50.0))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    works = [
        rnd.choice([0.0, 0.1, 1.0 / 3, 2.5, 7.7, 40.0, rnd.uniform(0.0, 100.0)])
        for _ in range(rnd.randint(1, 4))
    ]
    deadline = base
    keys = {}
    for rid in range(rnd.randint(1, 40)):
        step = rnd.random()
        if step < 0.3:
            deadline = _ulps(deadline, rnd.randint(1, 3))
        elif step < 0.5:
            deadline += abs(rnd.choice(works) - rnd.choice(works))
        elif step < 0.6:
            deadline += rnd.uniform(0.0, 5.0)
        # else the same deadline as the request before
        cls = rnd.randrange(len(works))
        keys[rid] = (cls, dispatch_key("slack", rid, slack=deadline - works[cls]))
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
# the wake rule and what a dispatch pass costs


# KV-bound engines, as in configs/nl2sql_compare.json: which call heads a
# queue decides whether it can be placed
COMPARE_ENGINE = engine_params(kv_capacity_tokens=3200, prefill_rate=2000.0, max_batch=12)


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
