import dataclasses
import gc
import math
import weakref
from collections import Counter

import pytest

import stagesim as ss
import stagesim.simulation as simulation
from helpers import RetainingSimulator, engine_params, nl2sql_vw, sim_config
from stagesim.dists import Distribution
from stagesim.rng import RngStream
from stagesim.scheduling import dispatch_key, holds_foreign_prefix
from stagesim.simulation import (
    EmptySamples,
    Simulator,
    percentile,
    sample_interarrival,
)
from stagesim.workflow import (
    LLM,
    SUCCESS,
    Outcome,
    RequestState,
    StageSpec,
    WorkflowSpec,
    expected_remaining_work,
    is_terminal,
    next_step,
    validate_workflow,
)
from stagesim.workloads import EXECUTOR, FIXER, GENERATOR, TopologyPreset, build_topology


# ----------------------------------------------------------------------
# percentile


def test_percentile_p99_of_1_to_100():
    assert percentile([float(i) for i in range(1, 101)], 99) == 99


def test_percentile_singleton():
    assert percentile([5.0], 1) == 5.0
    assert percentile([5.0], 100) == 5.0


def test_percentile_nearest_rank():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_percentile_empty_and_bad_q():
    with pytest.raises(EmptySamples):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# ----------------------------------------------------------------------
# interarrival sampling


class _StubStream:
    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def test_interarrival_inverse_cdf():
    assert sample_interarrival(_StubStream(1 / math.e), 1.0) == pytest.approx(1.0)


def test_interarrival_u_one_is_zero():
    assert sample_interarrival(_StubStream(1.0), 123.0) == 0.0


def test_interarrival_mean_large_sample():
    stream = RngStream(0, "arrivals")
    n = 100_000
    total = sum(sample_interarrival(stream, 2.0) for _ in range(n))
    assert total / n == pytest.approx(0.5, rel=0.01)


def test_interarrival_requires_positive_rate():
    with pytest.raises(ValueError):
        sample_interarrival(_StubStream(0.5), 0.0)


# ----------------------------------------------------------------------
# whole-run behavior


def single_stage_config(duration, rate, seed, prompt=200, output=100, prefix=0):
    spec = WorkflowSpec(
        name="one",
        stages=(
            StageSpec(
                stage_id="only",
                kind=LLM,
                prefix_tokens=prefix,
                prompt_tokens=Distribution.constant(prompt),
                output_tokens=Distribution.constant(output),
                outcomes=(Outcome("done", 1.0, SUCCESS),),
            ),
        ),
        entry_stage="only",
        retry_budget=0,
        slo_seconds=30.0,
    )
    vw = validate_workflow(spec)
    preset = TopologyPreset(mode="isolated", llm_engines={"only": 1})
    return ss.SimConfig(
        workflow=vw,
        topology=build_topology(preset, vw),
        policy=ss.PolicyConfig(),
        arrival_rate=rate,
        duration=duration,
        warmup=0.0,
        seed=seed,
    )


def test_zero_arrivals_empty_report():
    rate, seed = 0.001, 3
    first = sample_interarrival(RngStream(seed, "arrivals"), rate)
    cfg = single_stage_config(duration=first / 2, rate=rate, seed=seed)
    report = ss.run(cfg).report
    assert report.arrivals_admitted == 0
    assert report.completed == 0
    assert report.latency_p99 == 0.0
    assert report.throughput == 0.0


def test_single_request_closed_form_latency():
    rate, seed = 0.001, 3
    stream = RngStream(seed, "arrivals")
    t0 = sample_interarrival(stream, rate)
    gap = sample_interarrival(stream, rate)
    assert gap > 20.0  # the second arrival stays out of the run
    cfg = single_stage_config(duration=t0 + 10.0, rate=rate, seed=seed)
    result = ss.run(cfg)
    assert result.report.completed == 1
    expected = 200 / 5000.0 + 100 * 0.02  # prefill + decode at batch size 1
    assert result.traces.requests[0].latency == pytest.approx(expected, abs=1e-9)
    assert result.report.latency_p50 == pytest.approx(expected, abs=1e-9)


def test_cold_prefix_prefill_included_once():
    rate, seed = 0.001, 3
    t0 = sample_interarrival(RngStream(seed, "arrivals"), rate)
    cfg = single_stage_config(duration=t0 + 10.0, rate=rate, seed=seed, prefix=800)
    result = ss.run(cfg)
    expected = (200 + 800) / 5000.0 + 100 * 0.02
    assert result.traces.requests[0].latency == pytest.approx(expected, abs=1e-9)


def test_run_is_deterministic():
    cfg = sim_config(rate=1.5, duration=40.0, warmup=4.0, seed=11)
    a = ss.run(cfg)
    b = ss.run(cfg)
    assert a.report == b.report
    assert a.traces.kv_samples == b.traces.kv_samples
    assert a.traces.dispatches == b.traces.dispatches
    assert a.traces.requests == b.traces.requests


@pytest.mark.parametrize("mode", ["isolated", "shared"])
@pytest.mark.parametrize("kind", ["fcfs", "las", "slack"])
def test_conservation_across_policies(mode, kind):
    cfg = sim_config(
        mode=mode,
        policy=ss.PolicyConfig(kind=kind),
        rate=2.0,
        duration=30.0,
        warmup=3.0,
        seed=5,
    )
    report = ss.run(cfg).report
    assert report.arrivals_admitted == report.completed + report.failed_budget + report.in_flight_at_end


def test_conservation_with_admission_and_borrowing():
    policy = ss.PolicyConfig(
        admission=ss.AdmissionConfig(enabled=True, max_queue_len=5),
        borrow=ss.BorrowConfig(enabled=True, util_low=0.2, util_high=0.8),
        autoscale=ss.AutoscaleConfig(enabled=True, check_interval=2.0, queue_delay_slo=0.5),
    )
    cfg = sim_config(policy=policy, rate=4.0, duration=30.0, warmup=3.0, seed=9)
    report = ss.run(cfg).report
    assert report.arrivals_admitted == report.completed + report.failed_budget + report.in_flight_at_end


def test_trace_times_non_decreasing():
    result = ss.run(sim_config(rate=2.0, duration=30.0, seed=6))
    for series in (
        [s.time for s in result.traces.kv_samples],
        [d.time for d in result.traces.dispatches],
        [r.done for r in result.traces.requests],
    ):
        assert series == sorted(series)


def test_kv_samples_respect_capacity():
    params = engine_params(kv_capacity_tokens=3200, max_batch=12)
    cfg = sim_config(params=params, rate=2.5, duration=40.0, warmup=5.0, seed=8, mode="shared")
    result = ss.run(cfg)
    cap = 3200
    assert result.traces.kv_samples, "saturated run must produce samples"
    assert all(s.kv_used <= cap + 1e-6 for s in result.traces.kv_samples)


def test_warmup_requests_simulated_but_excluded():
    cfg = sim_config(rate=2.0, duration=30.0, warmup=10.0, seed=4)
    sim = RetainingSimulator(cfg)
    result = sim.run()
    pre = [r for r in sim.all_requests.values() if r.state.arrival_time < 10.0]
    post = [r for r in sim.all_requests.values() if r.state.arrival_time >= 10.0]
    assert pre, "some requests must arrive during warmup"
    assert result.report.arrivals_admitted == len(post)
    # warmup traffic still ran through the engines
    assert any(r.state.stage_history for r in pre)


def test_dispatch_optimality_in_memory():
    cfg = sim_config(rate=3.0, duration=30.0, warmup=3.0, seed=13)
    result = ss.run(cfg)
    checked = 0
    for d in result.traces.dispatches:
        if d.best_waiting_key is not None:
            assert d.key <= d.best_waiting_key
            checked += 1
    assert checked > 0, "run never had queue contention"


@pytest.mark.parametrize(
    "policy",
    [
        ss.PolicyConfig(kind="fcfs"),
        ss.PolicyConfig(kind="las"),
        ss.PolicyConfig(kind="slack"),
        ss.PolicyConfig(kind="slack", use_selectivity=True),
    ],
    ids=["fcfs", "las", "slack", "slack_selectivity"],
)
def test_recorded_keys_match_dispatch_key(policy):
    # Replays each request's stage history up to each of its dispatches and
    # recomputes the key independently, remaining work included.
    sim = RetainingSimulator(sim_config(policy=policy, rate=2.5, duration=30.0, warmup=0.0, seed=12))
    result = sim.run()
    vw, estimates = sim.vw, sim.estimator.estimates()
    dispatched = Counter()
    contended = 0
    for rec in result.traces.dispatches:
        req = sim.all_requests[rec.request_id]
        state = RequestState(rec.request_id, req.state.arrival_time, req.state.deadline, vw.entry_stage)
        attained = 0.0
        for sid, start, end, label in req.state.stage_history[: dispatched[rec.request_id]]:
            attained += end - start
            step = next_step(state, label, vw)
            state.current_stage, state.retries_used = step.next_stage, step.retries_used
        dispatched[rec.request_id] += 1
        assert state.current_stage == rec.stage_id
        remaining = expected_remaining_work(vw, estimates)[(state.current_stage, state.retries_used)]
        # the key orders by deadline - W; the slack column is taken at dispatch
        selectivity = vw.selectivity(rec.stage_id) if policy.use_selectivity else None
        expected = dispatch_key(
            policy.kind, rec.request_id, attained, state.deadline - remaining, estimates[rec.stage_id], selectivity
        )
        assert rec.key == expected
        assert rec.slack == state.deadline - rec.time - remaining
        contended += rec.best_waiting_key is not None
    assert contended > 0, "run never had queue contention"


def test_changing_tool_distribution_leaves_other_streams_alone():
    base = sim_config(rate=1.5, duration=40.0, warmup=0.0, seed=21)
    sim_a = RetainingSimulator(base)
    res_a = sim_a.run()

    slow_vw = nl2sql_vw(executor_service_time=Distribution.constant(1.5))
    slow = sim_config(vw=slow_vw, rate=1.5, duration=40.0, warmup=0.0, seed=21)
    sim_b = RetainingSimulator(slow)
    res_b = sim_b.run()

    arrivals_a = {rid: r.state.arrival_time for rid, r in sim_a.all_requests.items()}
    arrivals_b = {rid: r.state.arrival_time for rid, r in sim_b.all_requests.items()}
    assert arrivals_a == arrivals_b

    done_a = {r.request_id: r for r in res_a.traces.requests}
    done_b = {r.request_id: r for r in res_b.traces.requests}
    common = set(done_a) & set(done_b)
    assert common
    for rid in common:
        assert done_a[rid].outcome == done_b[rid].outcome
        assert done_a[rid].retries_used == done_b[rid].retries_used
        assert done_a[rid].n_stage_calls == done_b[rid].n_stage_calls
    assert any(done_a[rid].latency != done_b[rid].latency for rid in common)


def test_online_estimates_stay_deterministic():
    policy = ss.PolicyConfig(online_estimates=True, ewma_alpha=0.3)
    cfg = sim_config(policy=policy, rate=2.0, duration=25.0, warmup=2.0, seed=17)
    assert ss.run(cfg).report == ss.run(cfg).report


def test_finished_simulator_is_freed_without_the_cyclic_gc():
    # Reference counting alone must free a finished simulation, or its
    # traces and requests pile up between gen-2 collections.
    policy = ss.PolicyConfig(
        online_estimates=True,
        borrow=ss.BorrowConfig(enabled=True),
        autoscale=ss.AutoscaleConfig(enabled=True, max_engines=3),
    )
    sim = Simulator(sim_config(policy=policy, rate=2.0, duration=20.0))
    gc.collect()
    gc.disable()
    try:
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


ELASTIC_POLICY = ss.PolicyConfig(
    online_estimates=True,
    borrow=ss.BorrowConfig(enabled=True),
    autoscale=ss.AutoscaleConfig(enabled=True, max_engines=8),
)


def test_engines_iterate_in_id_order_through_scale_out_and_in():
    class OrderChecked(Simulator):
        def _check_invariants(self) -> None:
            super()._check_invariants()
            assert list(self.engines) == sorted(self.engines)

    cfg = sim_config(engines=(1, 3), policy=ELASTIC_POLICY, rate=4.0, duration=60.0, seed=3)
    audit = OrderChecked(cfg).run().audit
    decisions = {decision for _, _, decision in audit.scale_events}
    assert decisions == {-1, 1}


def test_serving_pool_follows_every_borrow_and_return():
    # after every event, an engine serves the borrower of its last borrow
    # while that borrow is unreturned, and its home pool otherwise
    class ServingChecked(Simulator):
        def _check_invariants(self) -> None:
            super()._check_invariants()
            lent = Counter(eid for _, eid, _, _ in self.audit.borrows)
            lent.subtract(eid for _, eid, _ in self.audit.returns)
            borrower = {eid: pool for _, eid, _, pool in self.audit.borrows}
            for eid, e in self.engines.items():
                assert e.serving_pool == (borrower[eid] if lent[eid] else e.home_pool)

    cfg = sim_config(engines=(1, 3), policy=ELASTIC_POLICY, rate=4.0, duration=60.0, seed=3)
    audit = ServingChecked(cfg).run().audit
    assert audit.borrows and audit.returns and audit.lent_admissions
    assert {decision for _, _, decision in audit.scale_events} == {-1, 1}


def test_only_unfinished_requests_keep_rng_streams():
    sim = Simulator(sim_config(policy=ELASTIC_POLICY, rate=4.0, duration=40.0, seed=2))
    result = sim.run()
    assert len(result.traces.requests) > 50
    assert sim.requests, "the run should end with requests in flight"
    finished = {rec.request_id for rec in result.traces.requests}
    for rid, req in sim.requests.items():
        assert rid not in finished
        assert not is_terminal(req.state.current_stage)
        assert req.streams
        for label, stream in req.streams.items():
            assert stream.label == f"req:{rid}:{label}"


@pytest.mark.parametrize(
    "mode, engines, policy",
    [
        ("isolated", (1, 1), ss.PolicyConfig()),  # an overloaded generator pool
        ("isolated", (1, 3), ELASTIC_POLICY),  # lent engines carry other prefixes
        ("shared", (1, 1), ss.PolicyConfig()),  # prefixes of every stage
    ],
)
def test_routing_fallback_early_out_agrees_with_the_fallback(monkeypatch, mode, engines, policy):
    checked = {"skipped": 0, "fallbacks": 0}
    route_call = simulation.route_call

    def checked_route(call, prefix_tokens, pool_engines):
        placed = route_call(call, prefix_tokens, pool_engines)
        if placed is None:
            fallback = simulation.route_call_with_eviction(call, prefix_tokens, pool_engines)
            if holds_foreign_prefix(call.stage_id, pool_engines):
                checked["fallbacks"] += 1
            else:
                assert fallback is None
                checked["skipped"] += 1
        return placed

    monkeypatch.setattr(simulation, "route_call", checked_route)
    params = engine_params(kv_capacity_tokens=3200, max_batch=4)
    cfg = sim_config(mode=mode, engines=engines, params=params, policy=policy, rate=4.0, duration=40.0, seed=4)
    ss.run(cfg)
    assert checked["skipped"] > 0
    if mode == "shared":
        assert checked["fallbacks"] > 0


def test_zero_duration_run_is_empty():
    # a run with no time after the warmup could only report zeros
    cfg = sim_config(rate=1.0, duration=0.0, warmup=0.0, seed=1)
    with pytest.raises(ss.ConfigError, match="'config.duration' must be > 'config.warmup'"):
        ss.run(cfg)


def test_invalid_configs_rejected():
    with pytest.raises(ss.ConfigError):
        sim_config(rate=-1.0).validate()
    with pytest.raises(ss.ConfigError):
        sim_config(duration=1.0, warmup=2.0).validate()
    with pytest.raises(ss.ConfigError):
        sim_config(policy=ss.PolicyConfig(online_estimates=True, ewma_alpha=0.0)).validate()
    # {} does not mean "derive the estimates": that is None
    with pytest.raises(ss.ConfigError, match="'policy.service_estimates' missing stages"):
        sim_config(policy=ss.PolicyConfig(service_estimates={})).validate()


def test_every_stage_needs_exactly_one_pool():
    cfg = sim_config()
    pools = cfg.topology.pools
    ghost = dataclasses.replace(pools[0], stage_ids=(*pools[0].stage_ids, "ghost"))
    for broken, message in (
        (pools[1:], f"stage '{pools[0].stage_ids[0]}' is in 0 pools"),
        (pools + pools[:1], f"stage '{pools[0].stage_ids[0]}' is in 2 pools"),
        ((ghost, *pools[1:]), r"pools serve stages \['ghost'\] not in the workflow"),
    ):
        bad = dataclasses.replace(cfg, topology=dataclasses.replace(cfg.topology, pools=broken))
        with pytest.raises(ss.ConfigError, match=message):
            bad.validate()


def test_kv_budget_that_can_never_fit_a_call_rejected():
    # nl2sql LLM calls need up to 1000 prefix + 300 prompt + 150 output tokens
    sim_config(params=engine_params(kv_capacity_tokens=1450)).validate()
    with pytest.raises(ss.ConfigError, match="sql_generator"):
        sim_config(params=engine_params(kv_capacity_tokens=1449)).validate()
    with pytest.raises(ss.ConfigError):
        sim_config(mode="shared", params=engine_params(kv_capacity_tokens=1449)).validate()
    # a generator pool too small for its own calls can still be served by
    # an engine borrowed from the fixer pool, but only with borrowing on
    small_generator = {GENERATOR: engine_params(kv_capacity_tokens=1200)}
    with pytest.raises(ss.ConfigError, match="sql_generator"):
        sim_config(overrides=small_generator).validate()
    borrow = ss.PolicyConfig(borrow=ss.BorrowConfig(enabled=True))
    sim_config(overrides=small_generator, policy=borrow).validate()


def test_stage_history_recorded_in_order():
    cfg = sim_config(rate=1.0, duration=30.0, warmup=0.0, seed=2)
    sim = RetainingSimulator(cfg)
    sim.run()
    histories = [r.state.stage_history for r in sim.all_requests.values() if is_terminal(r.state.current_stage)]
    assert histories
    for history in histories:
        assert history[0][0] == GENERATOR
        times = [t for _, start, end, _ in history for t in (start, end)]
        assert times == sorted(times)
        # the executor precedes every fixer visit
        stages = [sid for sid, *_ in history]
        for i, sid in enumerate(stages):
            if sid == FIXER:
                assert stages[i - 1] == EXECUTOR
