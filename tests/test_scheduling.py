import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import engine_params, nl2sql_vw, reference_route_call, sim_config
from stagesim.engines import DECODE, EngineState, PendingCall
from stagesim.scheduling import (
    AdmissionConfig,
    AutoscaleConfig,
    BorrowConfig,
    BorrowPoolView,
    NEVER_SCALED,
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
from stagesim.simulation import EVENT_AUTOSCALE_TICK, EVENT_BORROW_CHECK, PolicyConfig, RequestSim, Simulator
from stagesim.workflow import Outcome, WorkflowSpec, validate_workflow
from stagesim.workloads import EXECUTOR, FIXER, GENERATOR, Nl2SqlParams, build_nl2sql

EST = {GENERATOR: 2.0, EXECUTOR: 1.0, FIXER: 1.0}


# ----------------------------------------------------------------------
# dispatch keys


def slack_key(slack, request_id):
    return dispatch_key("slack", request_id, slack=slack)


def simulator_key(vw, estimates, req):
    """The dispatch key the Simulator computes for `req`'s queued call:
    under slack it orders by deadline - W, the slack at time 0."""
    sim = Simulator(sim_config(vw=vw))
    sim.estimator = ServiceEstimator(estimates)
    sim.requests[req.request_id] = req
    call = PendingCall(req.request_id, req.current_stage, 0.0)
    return sim._dispatch_key(call)


def test_slack_uses_expected_remaining_work():
    vw = nl2sql_vw(p_fail=0.5, retry_budget=1)
    req = RequestSim(0, 0.0, 10.0, GENERATOR)
    assert simulator_key(vw, EST, req)[0] == pytest.approx(6.0)  # 10 - 4.0 of work


def test_slack_zero_and_negative():
    # the slack at `now` is the key's deadline - W minus now
    vw = nl2sql_vw(p_fail=0.0)
    req = RequestSim(0, 0.0, 5.0, EXECUTOR)
    assert simulator_key(vw, EST, req)[0] - 4.0 == pytest.approx(0.0)
    req2 = RequestSim(0, 0.0, 5.0, GENERATOR)
    heavy = {GENERATOR: 5.0, EXECUTOR: 4.0, FIXER: 1.0}
    assert simulator_key(vw, heavy, req2)[0] - 9.0 == pytest.approx(-13.0)


def test_more_urgent_slack_orders_first():
    assert slack_key(2.0, 5) < slack_key(5.0, 1)


def test_full_tie_lower_arrival_first():
    assert slack_key(2.0, 1) < slack_key(2.0, 2)


def test_equal_deadline_minus_work_orders_by_request_id():
    # two classes whose deadline - W tie exactly: W is 3 s at the
    # generator (2 + 1) and 1 s at the executor, with nothing after it.
    # The lower request id goes first, although its stage takes longer:
    # the key holds no expected-service term
    vw = nl2sql_vw(p_fail=0.0)
    generator = simulator_key(vw, EST, RequestSim(3, 0.0, 12.0, GENERATOR))
    executor = simulator_key(vw, EST, RequestSim(7, 0.0, 10.0, EXECUTOR))
    assert generator == (9.0, 3.0)
    assert executor == (9.0, 7.0)
    assert generator < executor


def test_keys_form_strict_total_order():
    rng = random.Random(0)
    keys = [slack_key(rng.choice([-1.0, 0.0, 2.5, 2.5, 7.0]), i) for i in range(300)]
    # antisymmetry: distinct arrival_seq means no two keys compare equal
    assert len(set(keys)) == len(keys)
    ordered = sorted(keys)
    for a, b in zip(ordered, ordered[1:]):
        assert a < b
    # transitivity spot check on random triples
    for _ in range(500):
        a, b, c = rng.sample(keys, 3)
        if a < b and b < c:
            assert a < c


# ----------------------------------------------------------------------
# queue selection


def test_select_next_empty_queue():
    assert select_next([]) is None
    assert select_next({}.values()) is None


def test_select_next_most_urgent_first():
    # the heads of two class queues, as (key, call)
    heads = {
        (GENERATOR, 0): ((1.0, 0.0), PendingCall(0, GENERATOR, 0.0)),
        (FIXER, 1): ((-3.0, 1.0), PendingCall(1, FIXER, 0.0)),
    }
    call, key = select_next(heads.values())
    assert call.request_id == 1
    assert key == (-3.0, 1.0)
    assert len(heads) == 2  # selection never removes


def test_select_next_singleton():
    call, key = select_next([((4.0,), PendingCall(4, "gen", 0.0))])
    assert call.request_id == 4
    assert key == (4.0,)


# ----------------------------------------------------------------------
# routing


def _engine(eid, warm=False, kv=0, capacity=10000, max_batch=8):
    eng = EngineState(eid, engine_params(kv_capacity_tokens=capacity, max_batch=max_batch), "p")
    if warm:
        done = PendingCall(99, "gen", 0.0)
        eng.admit(done, 0, 0.0)
        eng.complete_call(done)
        eng.resident["gen"].tokens = 0
    if kv:
        done = PendingCall(98, "pad", 0.0)
        eng.admit(done, kv, 0.0)
        eng.complete_call(done)
    return eng


def test_route_prefers_warm_engine():
    cold = _engine(1)
    warm = _engine(2, warm=True)
    chosen = route_call(PendingCall(0, "gen", 0.0, 10, 10), 0, [cold, warm], 0.0)
    assert chosen is warm


def test_route_balances_by_kv_used():
    light = _engine(5, warm=True, kv=50)
    heavy = _engine(4, warm=True, kv=100)
    chosen = route_call(PendingCall(0, "gen", 0.0, 10, 10), 0, [heavy, light], 0.0)
    assert chosen is light


def test_route_tie_breaks_lowest_engine_id():
    a = _engine(2, warm=True)
    b = _engine(7, warm=True)
    chosen = route_call(PendingCall(0, "gen", 0.0, 10, 10), 0, [b, a], 0.0)
    assert chosen is a


def test_idle_engines_tie_however_their_decode_was_segmented():
    # the same call decoded in three segments on engine 5 and in one on
    # engine 7: adding the fractional segments up leaves a float residue
    # unless completion recounts the KV of an engine that stops decoding
    def decoded(eid, segment_ends):
        eng = EngineState(eid, engine_params(), "p")
        inflight = PendingCall(0, "gen", 0.0, 100, 37)
        eng.admit(inflight, 1000, 0.0)
        eng.prefill_finished(inflight)
        for t in segment_ends:
            eng.advance_decode(t)
        eng.complete_call(inflight)
        return eng

    segmented = decoded(5, [1 / 30, 2 / 30, 10.0])
    whole = decoded(7, [10.0])
    assert segmented.kv_used == whole.kv_used == 1000
    chosen = route_call(PendingCall(1, "gen", 0.0, 10, 10), 1000, [whole, segmented], 0.0)
    assert chosen is segmented


def test_route_orders_by_kv_at_the_routing_time():
    # engine 3 decodes one call at 50 tokens/s from 900 KV tokens and is
    # never advanced: it holds less KV than engine 4 until t = 2
    decoding = _engine(3, warm=True, kv=800)
    inflight = PendingCall(0, "gen", 0.0, 100, 1000)
    decoding.admit(inflight, 0, 0.0)
    decoding.prefill_finished(inflight)
    idle = _engine(4, warm=True, kv=1000)
    new = PendingCall(1, "gen", 0.0, 10, 10)
    assert route_call(new, 0, [idle, decoding], 1.0) is decoding
    assert route_call(new, 0, [idle, decoding], 3.0) is idle
    assert route_call_with_eviction(new, 0, [idle, decoding], 3.0) == (idle, [])
    assert (decoding.kv_used, decoding.last_advance) == (900, 0.0)


def test_route_none_admissible():
    full = _engine(1, capacity=10)
    assert route_call(PendingCall(0, "gen", 0.0, 100, 100), 0, [full], 0.0) is None


def test_route_affinity_dominance_property():
    rng = random.Random(1)
    for _ in range(100):
        engines = []
        for eid in range(4):
            engines.append(_engine(eid, warm=rng.random() < 0.5, kv=rng.randrange(0, 200)))
        call = PendingCall(0, "gen", 0.0, 10, 10)
        chosen = route_call(call, 0, engines, 0.0)
        warm_admissible = [e for e in engines if "gen" in e.resident and e.can_admit(call, 0)]
        if warm_admissible:
            assert "gen" in chosen.resident


def test_route_with_eviction_frees_lru_prefixes():
    eng = EngineState(1, engine_params(kv_capacity_tokens=1000), "p")
    for rid, (stage, tokens, t) in enumerate([("a", 400, 2.0), ("b", 400, 1.0)]):
        done = PendingCall(rid, stage, t)
        eng.admit(done, tokens, t)
        eng.complete_call(done)
    call = PendingCall(9, "gen", 0.0, 200, 200)
    assert route_call(call, 0, [eng], 0.0) is None
    placed, evictions = route_call_with_eviction(call, 0, [eng], 0.0)
    assert placed is eng
    assert evictions == ["b"]  # oldest last_used goes first


def test_route_with_eviction_respects_batch_bound():
    eng = EngineState(1, engine_params(max_batch=1), "p")
    eng.admit(PendingCall(0, "gen", 0.0, 1, 1), 0, 0.0)
    assert route_call_with_eviction(PendingCall(1, "gen", 0.0, 1, 1), 0, [eng], 0.0) is None


def test_route_with_eviction_gives_up_when_not_enough():
    eng = EngineState(1, engine_params(kv_capacity_tokens=300), "p")
    done = PendingCall(0, "a", 0.0)
    eng.admit(done, 100, 0.0)
    eng.complete_call(done)
    assert route_call_with_eviction(PendingCall(1, "gen", 0.0, 200, 200), 0, [eng], 0.0) is None


def test_eviction_precondition_needs_an_idle_foreign_prefix_on_a_free_slot():
    def engine(max_batch, stages, active):
        eng = EngineState(1, engine_params(kv_capacity_tokens=2000, max_batch=max_batch), "p")
        for rid, stage in enumerate(stages):
            call = PendingCall(rid, stage, 0.0, 10, 10)
            eng.admit(call, 100, 0.0)
            if stage not in active:
                eng.complete_call(call)
        return eng

    assert not can_evict_for("gen", [engine(4, ["gen"], [])])  # only its own prefix
    assert not can_evict_for("gen", [engine(4, ["fix"], ["fix"])])  # in use
    assert not can_evict_for("gen", [engine(1, ["fix", "gen"], ["gen"])])  # no free slot
    assert can_evict_for("gen", [engine(1, ["gen"], ["gen"]), engine(4, ["fix"], [])])


# Routing on generated engines: prefixes of three stages, batches of calls
# in both phases, KV from empty to full, and batch bounds from 1 to 4.
ROUTE_PREFIX = {"a": 300, "b": 500, "c": 0}


@st.composite
def routing_cases(draw):
    """(call, prefix tokens, engines in id order, now) for a call routed
    over a generated pool."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    now = rnd.choice([0.0, 0.4, 3.0])
    engines = []
    for eid in sorted(rnd.sample(range(12), rnd.randint(1, 4))):
        params = engine_params(kv_capacity_tokens=rnd.choice([900, 1500, 3000]), max_batch=rnd.randint(1, 4))
        eng = EngineState(eid, params, "p")
        t = 0.0
        for rid in range(rnd.randint(0, 10)):
            t = min(now, t + rnd.choice([0.0, 0.05, 0.3]))
            eng.advance_decode(t)
            decoding = [c for c in eng.batch if c.phase == DECODE]
            op = rnd.random()
            if op < 0.4 and decoding:
                eng.complete_call(rnd.choice(decoding))
            elif op < 0.5 and eng.resident:
                stage = rnd.choice(sorted(eng.resident))
                if not eng.has_active_calls(stage):
                    eng.evict_idle_prefix(stage)
            else:
                stage = rnd.choice(sorted(ROUTE_PREFIX))
                call = PendingCall(rid, stage, t, rnd.choice([0, 40, 200]), rnd.choice([10, 100, 400]))
                if eng.can_admit(call, ROUTE_PREFIX[stage]):
                    eng.admit(call, ROUTE_PREFIX[stage], t)
                    if rnd.random() < 0.7:
                        eng.prefill_finished(call)
        engines.append(eng)
    stage = rnd.choice(sorted(ROUTE_PREFIX))
    call = PendingCall(99, stage, now, rnd.choice([0, 40, 200, 800]), rnd.choice([10, 100, 400]))
    return call, ROUTE_PREFIX[stage], engines, now


@settings(max_examples=300, derandomize=True, deadline=None)
@given(routing_cases())
def test_routing_on_generated_engines(case):
    call, prefix, engines, now = case
    placed = route_call(call, prefix, engines, now)
    assert placed is reference_route_call(call, prefix, engines, now)
    assert route_call(call, prefix, engines[::-1], now) is placed  # ties go to the lowest id
    if placed is None and not can_evict_for(call.stage_id, engines):
        # the skip in Simulator._place is exact
        assert route_call_with_eviction(call, prefix, engines, now) is None


# ----------------------------------------------------------------------
# admission


def test_admission_accepts_below_cap():
    cfg = AdmissionConfig(enabled=True, max_queue_len=5)
    assert admission_decision([0, 4, 1], cfg)


def test_admission_rejects_at_cap():
    # inclusive boundary: a queue already at the cap rejects, so accepted
    # arrivals never push any queue past it
    cfg = AdmissionConfig(enabled=True, max_queue_len=5)
    assert not admission_decision([0, 5, 0], cfg)
    assert not admission_decision([9, 0, 0], cfg)


def test_admission_disabled_accepts_anything():
    assert admission_decision([10_000], AdmissionConfig(enabled=False, max_queue_len=1))


def test_admission_config_invariant():
    with pytest.raises(ValueError):
        AdmissionConfig(enabled=True, max_queue_len=0)


# ----------------------------------------------------------------------
# borrowing


def _view(pool, util, queue=0, idle=(), prefix=500):
    return BorrowPoolView(pool, util, queue, tuple(idle), prefix)


BORROW = BorrowConfig(enabled=True, util_low=0.2, util_high=0.8, min_free_kv_tokens=100)


def test_borrow_textbook_case():
    views = [
        _view("gen", 0.0, idle=[(1, 5000)]),
        _view("fix", 0.95, queue=10, prefix=700),
    ]
    assert try_borrow(views, BORROW) == (1, "gen", "fix")


def test_borrow_none_when_all_busy():
    views = [_view("gen", 0.9), _view("fix", 0.95, queue=10)]
    assert try_borrow(views, BORROW) is None


def test_borrow_memory_guard():
    views = [
        _view("gen", 0.0, idle=[(1, 700)]),  # 700 < 100 + 700 needed
        _view("fix", 0.95, queue=10, prefix=700),
    ]
    assert try_borrow(views, BORROW) is None


def test_borrow_prefers_longest_queue():
    views = [
        _view("gen", 0.0, idle=[(1, 5000)]),
        _view("fix", 0.9, queue=3),
        _view("other", 0.9, queue=8),
    ]
    assert try_borrow(views, BORROW)[2] == "other"


def scheduled_kinds(monkeypatch, borrow: bool, autoscale: bool) -> set[str]:
    """The kinds of every event a run schedules: `try_borrow` and
    `autoscale_tick` do not read `enabled`, so the run must not schedule
    the loop of a mechanism that is off."""
    kinds = set()
    schedule = Simulator._schedule

    def recorded(sim, time, kind, *args, **kwargs):
        kinds.add(kind)
        schedule(sim, time, kind, *args, **kwargs)

    monkeypatch.setattr(Simulator, "_schedule", recorded)
    policy = PolicyConfig(borrow=BorrowConfig(enabled=borrow), autoscale=AutoscaleConfig(enabled=autoscale))
    Simulator(sim_config(engines=(1, 3), policy=policy, rate=4.0, duration=20.0, seed=2)).run()
    return kinds


def test_borrow_disabled(monkeypatch):
    kinds = scheduled_kinds(monkeypatch, borrow=False, autoscale=True)
    assert EVENT_AUTOSCALE_TICK in kinds and EVENT_BORROW_CHECK not in kinds


def test_borrow_config_invariants():
    with pytest.raises(ValueError):
        BorrowConfig(util_low=0.8, util_high=0.2)
    with pytest.raises(ValueError):
        BorrowConfig(util_low=0.5, util_high=0.5)


def test_return_when_home_saturates():
    assert should_return_borrowed(BORROW, home_util=0.9, borrower_util=0.5)


def test_stays_lent_while_borrower_hot():
    assert not should_return_borrowed(BORROW, home_util=0.0, borrower_util=0.5)


def test_return_when_borrower_cools():
    assert should_return_borrowed(BORROW, home_util=0.0, borrower_util=0.1)


# ----------------------------------------------------------------------
# autoscaling


SCALE = AutoscaleConfig(
    enabled=True,
    check_interval=1.0,
    queue_delay_slo=0.5,
    scale_out_threshold=0.5,
    scale_in_threshold=0.1,
    cooldown=5.0,
    min_engines=1,
    max_engines=4,
)


def test_scale_out_on_violations():
    assert autoscale_tick(SCALE, 10.0, 2, 0.6, False, NEVER_SCALED) == 1


def test_scale_in_when_quiet_and_idle():
    assert autoscale_tick(SCALE, 10.0, 2, 0.0, True, NEVER_SCALED) == -1


def test_cooldown_blocks_scaling():
    assert autoscale_tick(SCALE, 10.0, 2, 0.9, False, last_scale_time=6.0) == 0
    assert autoscale_tick(SCALE, 11.0, 2, 0.9, False, last_scale_time=6.0) == 1


def test_bounds_respected():
    assert autoscale_tick(SCALE, 10.0, 4, 0.9, False, NEVER_SCALED) == 0  # at max
    assert autoscale_tick(SCALE, 10.0, 1, 0.0, True, NEVER_SCALED) == 0  # at min


def test_no_scale_in_without_idle_engine():
    assert autoscale_tick(SCALE, 10.0, 2, 0.0, False, NEVER_SCALED) == 0


def test_disabled_never_scales(monkeypatch):
    kinds = scheduled_kinds(monkeypatch, borrow=True, autoscale=False)
    assert EVENT_BORROW_CHECK in kinds and EVENT_AUTOSCALE_TICK not in kinds


def test_autoscale_config_invariants():
    with pytest.raises(ValueError):
        AutoscaleConfig(scale_in_threshold=0.5, scale_out_threshold=0.5)
    with pytest.raises(ValueError):
        AutoscaleConfig(min_engines=3, max_engines=2)
    with pytest.raises(ValueError):
        AutoscaleConfig(check_interval=0.0)


def nl2sql_with_generator_outcome_prob(prob: float) -> WorkflowSpec:
    spec = build_nl2sql()
    generator = dataclasses.replace(spec.stages[0], outcomes=(Outcome("generated", prob, EXECUTOR),))
    return dataclasses.replace(spec, stages=(generator, *spec.stages[1:]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: AutoscaleConfig(check_interval=math.nan),
        lambda: AutoscaleConfig(check_interval=math.inf),
        lambda: AutoscaleConfig(cooldown=math.nan),
        lambda: AutoscaleConfig(queue_delay_slo=math.nan),
        lambda: AutoscaleConfig(queue_delay_slo=-1.0),
        lambda: BorrowConfig(min_free_kv_tokens=math.nan),
        lambda: AdmissionConfig(enabled=True, max_queue_len=math.nan),
        lambda: validate_workflow(nl2sql_with_generator_outcome_prob(math.nan)),
        lambda: validate_workflow(build_nl2sql(Nl2SqlParams(generator_prefix_tokens=math.nan))),
    ],
    ids=[
        "check_interval_nan",
        "check_interval_inf",
        "cooldown_nan",
        "queue_delay_slo_nan",
        "queue_delay_slo_negative",
        "min_free_kv_tokens_nan",
        "max_queue_len_nan",
        "outcome_prob_nan",
        "prefix_tokens_nan",
    ],
)
def test_library_checks_reject_nan(build):
    # library callers skip the config reader's finite-number check; a NaN
    # here once ran to a report of zeros (a check_interval of NaN stopped
    # the run after one event, a NaN cap rejected every arrival)
    with pytest.raises(ValueError):
        build()


# ----------------------------------------------------------------------
# service estimates


def test_static_estimates_ignore_observations():
    est = ServiceEstimator({"a": 1.0})
    est.observe("a", 99.0)
    assert est.estimate("a") == 1.0
    assert est.version == 0


def test_online_estimates_track_ewma():
    # each observation weighted 0.2
    est = ServiceEstimator({"a": 1.0}, online=True)
    est.observe("a", 3.0)
    assert est.estimate("a") == pytest.approx(1.4)
    est.observe("a", 2.0)
    assert est.estimate("a") == pytest.approx(1.52)
    assert est.version == 2
