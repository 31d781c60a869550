import dataclasses
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GENERATOR, engine_params, reference_next_completion, sim_config
from stagesim import run
from stagesim.dists import Distribution
from stagesim.engines import (
    DECODE,
    AdmitWithoutCapacity,
    EngineParams,
    EngineState,
    PendingCall,
    PrefixInUse,
)
from stagesim.errors import ConfigError, InternalInvariantViolation
from stagesim.rng import RngStream
from stagesim.simulation import EVENT_CALL_COMPLETE, Event, Simulator
from stagesim.workloads import Topology


def engine(**kw) -> EngineState:
    return EngineState(0, engine_params(**kw), "pool:x")


def call(rid=0, stage="gen", prompt=0, output=0, t=0.0) -> PendingCall:
    return PendingCall(rid, stage, t, prompt, output)


def start_decode(eng, c, prefix=0, now=0.0):
    eng.admit(c, prefix, now)
    eng.prefill_finished(c)
    return c


def test_lent_to_is_derived_from_the_serving_pool():
    eng = engine()
    assert eng.lent_to is None
    eng.serving_pool = "pool:y"  # a borrow
    assert eng.lent_to == "pool:y"
    eng.serving_pool = eng.home_pool  # a return
    assert eng.lent_to is None
    with pytest.raises(AttributeError):
        eng.lent_to = "pool:y"


# ----------------------------------------------------------------------
# kv demand and admission


def test_kv_demand_warm_excludes_prefix():
    eng = engine()
    eng.admit(call(prompt=0, output=0), 1000, 0.0)  # plants the prefix
    assert eng.kv_demand(call(rid=1, prompt=100, output=50), 1000) == 150


def test_kv_demand_cold_includes_prefix():
    eng = engine()
    assert eng.kv_demand(call(prompt=100, output=50), 1000) == 1150


def test_kv_demand_zero_call():
    eng = engine()
    eng.admit(call(), 1000, 0.0)
    assert eng.kv_demand(call(rid=1), 1000) == 0


def test_can_admit_capacity_bound():
    eng = engine(kv_capacity_tokens=4096)
    zero = call(stage="other")
    eng.admit(zero, 4000, 0.0)
    eng.complete_call(zero)  # prefix stays resident: 4000 tokens used
    assert eng.kv_used == 4000
    assert not eng.can_admit(call(rid=1, stage="gen", prompt=100, output=50), 0)


def test_can_admit_with_room():
    eng = engine(kv_capacity_tokens=4096)
    assert eng.can_admit(call(prompt=100, output=50), 0)


def test_can_admit_batch_bound():
    eng = engine(max_batch=2)
    eng.admit(call(rid=0, prompt=1, output=1), 0, 0.0)
    eng.admit(call(rid=1, prompt=1, output=1), 0, 0.0)
    assert not eng.can_admit(call(rid=2, prompt=1, output=1), 0)


def test_admission_reserves_full_output():
    # worst-case reservation: eventual token usage can never overrun
    # capacity, even though actual usage at admit time is tiny
    eng = engine(kv_capacity_tokens=100)
    eng.admit(call(rid=0, prompt=10, output=50), 0, 0.0)
    assert eng.kv_used == 10
    assert eng.kv_reserved == 60
    assert not eng.can_admit(call(rid=1, prompt=10, output=50), 0)


# ----------------------------------------------------------------------
# admit


def test_admit_warm_prefill_time():
    eng = engine(prefill_rate=1000.0)
    eng.admit(call(rid=0, stage="gen"), 800, 0.0)
    done = eng.admit(call(rid=1, stage="gen", prompt=200), 800, 5.0)
    assert done == pytest.approx(5.2)


def test_admit_cold_prefix_charged_to_prefill():
    eng = engine(prefill_rate=1000.0)
    done = eng.admit(call(prompt=200), 800, 0.0)
    assert done == pytest.approx(1.0)
    assert eng.kv_used == 1000  # prefix + prompt
    assert eng.kv_reserved == 1000


def test_admit_zero_prompt_warm_is_immediate():
    eng = engine()
    eng.admit(call(rid=0), 500, 0.0)
    done = eng.admit(call(rid=1), 500, 3.0)
    assert done == 3.0


def test_admit_without_capacity_raises():
    eng = engine(kv_capacity_tokens=100)
    with pytest.raises(AdmitWithoutCapacity):
        eng.admit(call(prompt=200, output=200), 0, 0.0)


def test_admit_updates_prefix_last_used():
    eng = engine()
    eng.admit(call(rid=0), 100, 1.0)
    eng.admit(call(rid=1), 100, 7.0)
    assert eng.resident["gen"].last_used == 7.0


# ----------------------------------------------------------------------
# decoding


def test_advance_decode_single_call():
    eng = engine(base_token_time=0.05, batch_slope=0.2)
    c = start_decode(eng, call(output=1000))
    eng.advance_decode(5.0)
    assert c.tokens_emitted == pytest.approx(100.0, abs=1e-9)


def test_advance_decode_batch_of_two():
    # t(2) = 0.05 * (1 + 0.2) = 0.06 s/token
    eng = engine(base_token_time=0.05, batch_slope=0.2)
    c1 = start_decode(eng, call(rid=0, output=1000))
    c2 = start_decode(eng, call(rid=1, output=1000))
    eng.advance_decode(6.0)
    assert c1.tokens_emitted == pytest.approx(100.0, abs=1e-9)
    assert c2.tokens_emitted == pytest.approx(100.0, abs=1e-9)


def test_advance_decode_zero_interval():
    eng = engine()
    c = start_decode(eng, call(output=10))
    eng.advance_decode(0.0)
    assert c.tokens_emitted == 0.0


def test_advance_decode_segment_additivity():
    rng = random.Random(0)
    for _ in range(50):
        split = rng.uniform(0.0, 4.0)
        one = engine(base_token_time=0.03, batch_slope=0.15, kv_capacity_tokens=32768)
        two = engine(base_token_time=0.03, batch_slope=0.15, kv_capacity_tokens=32768)
        for eng in (one, two):
            start_decode(eng, call(rid=0, output=10000))
            start_decode(eng, call(rid=1, output=10000))
        one.advance_decode(4.0)
        two.advance_decode(split)
        two.advance_decode(4.0)
        a = [c.tokens_emitted for c in one.batch]
        b = [c.tokens_emitted for c in two.batch]
        assert a == pytest.approx(b, abs=1e-9)
        assert one.kv_used == pytest.approx(two.kv_used, abs=1e-9)


def test_prefill_does_not_join_decode_batch():
    eng = engine(base_token_time=0.05, batch_slope=0.2)
    start_decode(eng, call(rid=0, output=1000))
    eng.admit(call(rid=1, prompt=100, output=10), 0, 0.0)  # still prefilling
    assert eng.decode_batch_size() == 1
    eng.advance_decode(5.0)
    assert eng.batch[0].tokens_emitted == pytest.approx(100.0, abs=1e-9)
    assert eng.batch[1].tokens_emitted == 0.0


def test_token_time_interference_monotone():
    params = engine_params(base_token_time=0.02, batch_slope=0.1)
    times = [params.token_time(b) for b in range(1, 9)]
    assert all(b > a for a, b in zip(times, times[1:]))
    flat = engine_params(base_token_time=0.02, batch_slope=0.0)
    assert {flat.token_time(b) for b in range(1, 9)} == {0.02}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    base=st.floats(min_value=1e-6, max_value=10.0, allow_subnormal=False),
    slope=st.floats(min_value=0.0, max_value=100.0, allow_subnormal=False),
    max_batch=st.integers(min_value=1, max_value=64),
)
def test_token_time_cache_gives_the_formula_bit_for_bit(base, slope, max_batch):
    params = engine_params(base_token_time=base, batch_slope=slope, max_batch=max_batch)
    for b in range(1, max_batch + 1):
        assert params.token_times[b].hex() == params.token_time(b).hex()
    # filled on first use and kept, not recomputed
    assert sorted(params.token_times) == list(range(1, max_batch + 1))
    first = params.token_times[1]
    assert params.token_times[1] is first


def test_token_time_cache_is_not_a_field():
    params = engine_params()
    filled = dataclasses.replace(params)
    filled.token_times[3]
    assert [f.name for f in dataclasses.fields(EngineParams)] == [
        "kv_capacity_tokens",
        "prefill_rate",
        "base_token_time",
        "batch_slope",
        "max_batch",
    ]
    assert filled == params and hash(filled) == hash(params)
    assert "token_times" not in repr(filled)
    assert len(params.token_times) == 0  # a replace builds its own cache


def test_a_huge_max_batch_costs_nothing_up_front():
    # a config may set max_batch to 10**9: the cache holds only the batch
    # sizes a run reads, never a slot per possible size
    tracemalloc.start()
    try:
        params = engine_params(max_batch=10**9)
        built = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < 10_000
    assert len(params.token_times) == 0
    report = run(sim_config(params=params, rate=2.0, duration=20.0)).report
    assert report.completed > 0
    assert 0 < len(params.token_times) <= max(params.token_times) <= 64


def test_next_completion_single():
    eng = engine(base_token_time=0.05, batch_slope=0.2)
    c = start_decode(eng, call(output=10))
    found = eng.next_completion(2.0)
    assert found is not None
    assert found[0] is c
    assert found[1] == pytest.approx(2.5)


def test_next_completion_empty_and_prefill_only():
    eng = engine()
    assert eng.next_completion(0.0) is None
    eng.admit(call(prompt=10, output=10), 0, 0.0)
    assert eng.next_completion(0.0) is None


def test_next_completion_picks_min_remaining():
    eng = engine(base_token_time=0.05, batch_slope=0.2)
    short = start_decode(eng, call(rid=0, output=10))
    start_decode(eng, call(rid=1, output=20))
    found = eng.next_completion(0.0)
    assert found[0] is short
    assert found[1] == pytest.approx(10 * 0.05 * 1.2, abs=1e-9)


def test_next_completion_tie_breaks_by_request_id():
    eng = engine()
    first = start_decode(eng, call(rid=3, output=10))
    start_decode(eng, call(rid=9, output=10))
    assert eng.next_completion(0.0)[0] is first


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    calls=st.lists(
        # (target tokens, tokens emitted, decoding): few values, so that
        # calls often have the same tokens left
        st.tuples(st.sampled_from([1, 2, 5, 10]), st.sampled_from([0.0, 0.5, 1.0, 2.25]), st.booleans()),
        min_size=1,
        max_size=12,
    ),
    order=st.randoms(use_true_random=False),
    now=st.sampled_from([0.0, 3.5]),
)
def test_next_completion_matches_min_over_the_batch(calls, order, now):
    eng = engine(kv_capacity_tokens=10**6, max_batch=16, batch_slope=0.3)
    rids = list(range(len(calls)))
    order.shuffle(rids)  # the batch is not in request id order
    for rid, (target, emitted, decoding) in zip(rids, calls):
        c = call(rid=rid, prompt=1, output=target)
        eng.admit(c, 0, 0.0)
        if decoding:  # a prefill-phase call is never picked
            eng.prefill_finished(c)
            c.tokens_emitted = min(emitted, float(target))
    want = reference_next_completion(eng, now)
    got = eng.next_completion(now)
    if want is None:
        assert got is None
    else:
        assert got[0] is want[0]
        assert got[1] == want[1]


def test_complete_call_releases_tokens():
    eng = engine()
    c = start_decode(eng, call(prompt=100, output=50), prefix=1000)
    eng.advance_decode(50.0)  # decodes to the cap
    eng.complete_call(c)
    assert eng.kv_used == 1000  # only the prefix remains
    assert eng.kv_reserved == 1000
    assert eng.batch == []


def test_complete_call_removes_that_very_call():
    # calls compare by identity: completing the second of two calls with
    # equal fields removes it, not the first
    eng = engine()
    first = start_decode(eng, call(rid=4, prompt=10, output=10))
    second = start_decode(eng, call(rid=4, prompt=10, output=10))
    eng.advance_decode(10.0)
    eng.complete_call(second)
    assert len(eng.batch) == 1 and eng.batch[0] is first


def test_accounting_recompute_matches():
    eng = engine()
    a = start_decode(eng, call(rid=0, prompt=100, output=400), prefix=700)
    eng.admit(call(rid=1, stage="fix", prompt=50, output=60), 300, 0.0)
    eng.advance_decode(1.5)
    assert eng.kv_used == pytest.approx(eng.recomputed_kv_used(eng.resident_prefix_tokens()), abs=1e-9)
    assert eng.kv_reserved == eng.recomputed_kv_reserved(eng.resident_prefix_tokens())
    eng.complete_call(a)
    assert eng.kv_used == pytest.approx(eng.recomputed_kv_used(eng.resident_prefix_tokens()), abs=1e-9)
    assert eng.kv_reserved == eng.recomputed_kv_reserved(eng.resident_prefix_tokens())


def test_kv_read_at_a_time_matches_advancing_to_it():
    eng = engine(base_token_time=0.04, batch_slope=0.25)
    start_decode(eng, call(rid=0, prompt=100, output=400), prefix=700)
    start_decode(eng, call(rid=1, prompt=30, output=300))
    eng.admit(call(rid=2, stage="fix", prompt=50, output=60), 300, 0.0)  # prefilling
    eng.advance_decode(0.5)
    t = 3.25
    kv0, slope = eng.kv_used, eng.kv_slope()
    read = eng.kv_used_at(t)
    progress = eng.decode_progress(t)
    assert (eng.kv_used, eng.last_advance) == (kv0, 0.5)  # reading moved nothing
    eng.advance_decode(t)
    assert read == pytest.approx(eng.kv_used, abs=1e-9)
    assert kv0 + slope * (t - 0.5) == pytest.approx(eng.kv_used, abs=1e-9)
    assert eng.batch[0].tokens_emitted == pytest.approx(progress + (0.5 / eng.params.token_time(2)), abs=1e-9)
    assert eng.batch[2].tokens_emitted == 0.0


# ----------------------------------------------------------------------
# prefix eviction


def test_evict_idle_prefix():
    eng = engine()
    c = start_decode(eng, call(), prefix=1000)
    eng.complete_call(c)
    eng.evict_idle_prefix("gen")
    assert eng.kv_used == 0
    assert "gen" not in eng.resident


def test_evict_absent_prefix_is_noop():
    eng = engine()
    eng.evict_idle_prefix("gen")
    eng.evict_idle_prefix("gen")
    assert eng.kv_used == 0


def test_evict_prefix_in_use():
    eng = engine()
    start_decode(eng, call(output=10), prefix=1000)
    with pytest.raises(PrefixInUse):
        eng.evict_idle_prefix("gen")


def test_evictable_prefixes_lru_order():
    eng = engine()
    for rid, (stage, t) in enumerate([("a", 3.0), ("b", 1.0), ("c", 2.0)]):
        done = call(rid=rid, stage=stage)
        eng.admit(done, 100, t)
        eng.complete_call(done)
    assert [sid for _, sid, _ in eng.evictable_prefixes("z")] == ["b", "c", "a"]
    assert [sid for _, sid, _ in eng.evictable_prefixes("b")] == ["c", "a"]


PREFIXES = {"a": 0, "b": 300, "c": 1000}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["admit", "prefill", "advance", "complete", "evict"]),
            st.integers(0, 2**16),
        ),
        max_size=60,
    )
)
def test_counters_match_recounts_after_every_operation(steps):
    eng = engine(kv_capacity_tokens=4000, max_batch=4)
    now = 0.0
    rid = 0
    for op, x in steps:
        stage = sorted(PREFIXES)[x % 3]
        if op == "admit":
            c = call(rid, stage, prompt=x % 300, output=1 + x % 200, t=now)
            if eng.can_admit(c, PREFIXES[stage]):
                eng.admit(c, PREFIXES[stage], now)
                rid += 1
        elif op == "prefill":
            waiting = [c for c in eng.batch if c.phase != DECODE]
            if waiting:
                eng.prefill_finished(waiting[x % len(waiting)])
        elif op == "advance":
            now += (x % 100) / 10.0
            eng.advance_decode(now)
        elif op == "complete":
            if eng.batch:
                eng.complete_call(eng.batch[x % len(eng.batch)])
        elif not eng.has_active_calls(stage):
            eng.evict_idle_prefix(stage)
        assert eng.decode_batch_size() == sum(1 for c in eng.batch if c.phase == DECODE)
        assert eng.resident_tokens == sum(p.tokens for p in eng.resident.values())
        assert eng.kv_reserved == eng.recomputed_kv_reserved(eng.resident_prefix_tokens())
        assert eng.kv_used == pytest.approx(eng.recomputed_kv_used(eng.resident_prefix_tokens()), abs=1e-6)
        eng.check(now, tuple(PREFIXES))


def checked_engine() -> EngineState:
    """A 1000-token engine at time 0.5 whose 300-token prefix serves a
    decoding call (100 prompt tokens, 2 of 50 emitted) and a prefilling
    one (100 prompt, 50 output): kv_used 502.0, kv_reserved 600."""
    eng = engine(kv_capacity_tokens=1000, max_batch=2, base_token_time=0.25)
    start_decode(eng, call(rid=0, prompt=100, output=50), prefix=300)
    eng.admit(call(rid=1, prompt=100, output=50), 300, 0.0)
    eng.advance_decode(0.5)
    return eng


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda e: setattr(e, "kv_reserved", 1001), "engine 0: reserved 1001 exceeds capacity 1000"),
        (lambda e: setattr(e, "kv_used", -1.0), "engine 0: kv_used -1.0 outside [0, 1000]"),
        (lambda e: setattr(e, "resident_tokens", 301), "engine 0: resident_tokens 301 != recomputed"),
        (lambda e: setattr(e, "kv_used", 503.0), "engine 0: kv_used 503.0 != recomputed 502.0"),
        (lambda e: setattr(e, "kv_reserved", 601), "engine 0: kv_reserved 601 != recomputed"),
        (lambda e: e.batch.append(call(rid=2)), "engine 0: batch over max_batch"),
        # 50 tokens since the segment start at -12.0, on top of the 2 emitted
        (lambda e: setattr(e, "last_advance", -12.0), "engine 0: request 0 decoded past its 50 tokens"),
        (lambda e: setattr(e.batch[1], "stage_id", "fix"), "engine 0: call of stage 'fix' in pool 'pool:x'"),
        (lambda e: setattr(e, "n_decode", 2), "engine 0: n_decode 2 != recounted 1"),
    ],
    ids=["reserved", "kv-range", "resident", "kv-used", "kv-reserved", "max-batch", "outrun", "stage", "n-decode"],
)
def test_check_raises_on_each_corrupt_field(corrupt, message):
    eng = checked_engine()
    eng.check(0.5, ("gen",))
    assert eng.horizon == 0.5 + 0.25 * (48 + 1e-6) * (1.0 - 1e-9)  # the decoding call's 48 tokens left
    corrupt(eng)
    with pytest.raises(InternalInvariantViolation, match=f"^{re.escape(message)}$"):
        eng.check(0.5, ("gen",))


def test_find_call_raises_for_a_request_not_in_the_batch():
    eng = checked_engine()
    assert eng.find_call(1) is eng.batch[1]
    with pytest.raises(InternalInvariantViolation, match=r"^request 7 not in engine 0 batch$"):
        eng.find_call(7)


def test_a_completion_with_tokens_left_is_an_invariant_violation():
    sim = Simulator(sim_config())
    eng = sim.engines[0]
    start_decode(eng, call(rid=0, stage=GENERATOR, prompt=200, output=100), prefix=0)
    ev = Event(0.0, 0, EVENT_CALL_COMPLETE, eng.engine_id, 0, eng.decode_epoch)
    with pytest.raises(InternalInvariantViolation, match=r"^completion fired with 100\.0 tokens left$"):
        sim._handle_call_complete(ev)


def test_state_objects_reject_unknown_attributes():
    # slotted: a misspelt attribute raises instead of adding a new one
    for obj, typo in (
        (engine(), "kv_usd"),
        (call(), "tokens_emited"),
        (call(), "enqueue_tme"),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, typo, 1)


# ----------------------------------------------------------------------
# tool executors


def tool_service(dist: Distribution, stream: RngStream) -> float:
    """A tool call's service time, drawn as Simulator._place draws it."""
    return dist.sample(stream.uniform())


def test_tool_service_constant():
    assert tool_service(Distribution.constant(0.3), RngStream(1, "tool")) == 0.3


def test_tool_service_degenerate_uniform():
    assert tool_service(Distribution.uniform(0.1, 0.1), RngStream(1, "tool")) == pytest.approx(0.1)


def test_tool_service_deterministic_across_runs():
    dist = Distribution.uniform(0.0, 1.0)
    stream_a = RngStream(5, "tool")
    stream_b = RngStream(5, "tool")
    a = [tool_service(dist, stream_a) for _ in range(4)]
    b = [tool_service(dist, stream_b) for _ in range(4)]
    assert a == b


def test_tool_concurrency_validated():
    with pytest.raises(ConfigError):
        Topology(mode="isolated", tool_concurrency=0)


def test_engine_params_validated():
    for bad in (
        dict(kv_capacity_tokens=0),
        dict(prefill_rate=0),
        dict(base_token_time=0),
        dict(batch_slope=-0.1),
        dict(max_batch=0),
    ):
        with pytest.raises(ValueError):
            engine_params(**bad)
