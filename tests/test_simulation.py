import dataclasses
import gc
import json
import math
import weakref
from collections import Counter
from pathlib import Path

import pytest

import stagesim as ss
import stagesim.cli
import stagesim.simulation as simulation
from helpers import (
    NaiveSimulator,
    RetainingSimulator,
    assert_same_run,
    engine_params,
    nl2sql_vw,
    run_config_tree,
    segment_end_kv,
    sim_config,
)
from stagesim.config import build_sim_config
from stagesim.dists import Distribution
from stagesim.engines import EngineState, PendingCall
from stagesim.rng import RngStream
from stagesim.scheduling import dispatch_key
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
    StageSpec,
    WorkflowSpec,
    expected_remaining_work,
    is_terminal,
    validate_workflow,
)
from stagesim.workloads import (
    EXECUTOR,
    FIXER,
    GENERATOR,
    Topology,
)


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


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_interarrival_requires_finite_rate(rate):
    # a NaN rate would give a NaN gap, an infinite one a 0.0 gap that never
    # moves the clock
    with pytest.raises(ValueError):
        sample_interarrival(_StubStream(0.5), rate)


# ----------------------------------------------------------------------
# whole-run behavior


def single_stage_workflow(prompt=200, output=100, prefix=0):
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
    return validate_workflow(spec)


def single_stage_config(duration, rate, seed, prompt=200, output=100, prefix=0):
    return ss.SimConfig(
        workflow=single_stage_workflow(prompt, output, prefix),
        topology=Topology(mode="isolated", llm_engines={"only": 1}),
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


class RecordContractSimulator(Simulator):
    """A contract check on the loop's positionally built tuples: at every
    KV sampling, every heap entry is an `Event` whose ids fit its kind, and
    each new row is a `KvSample` of the pool its engine serves then."""

    def _emit_kv_samples(self) -> None:
        for ev in self._heap:
            assert type(ev) is simulation.Event and ev.kind in self._handlers, ev
            assert ev.time >= self.clock and 0 < ev.seq <= self._seq, ev
            completes = ev.kind == simulation.EVENT_CALL_COMPLETE
            on_engine = completes or ev.kind == simulation.EVENT_PREFILL_DONE
            assert (ev.engine_id >= 0) == on_engine and (ev.epoch >= 0) == completes, ev
            assert (ev.request_id >= 0) == (on_engine or ev.kind == simulation.EVENT_TOOL_COMPLETE), ev
        serving = {eid: e.serving_pool for eid, e in self._touched.items()}
        n = len(self.traces.kv_samples)
        super()._emit_kv_samples()
        for row in self.traces.kv_samples[n:]:
            assert type(row) is simulation.KvSample and row.time == self.clock, row
            assert row.pool == serving[row.engine_id] and row.kv_used >= 0.0, row


def test_trace_records_are_their_namedtuples_with_consistent_fields():
    # The loop builds every record positionally: each field must land in
    # its own slot, on a run with tool and LLM pools and lent engines.
    policy = ss.PolicyConfig(
        borrow=ss.BorrowConfig(enabled=True), autoscale=ss.AutoscaleConfig(enabled=True, max_engines=8)
    )
    cfg = sim_config(nl2sql_vw(slo_seconds=10.0), engines=(1, 3), policy=policy, rate=4.0, duration=40.0, seed=3)
    sim = RecordContractSimulator(cfg)
    result = sim.run()
    slo = sim.vw.slo_seconds
    dispatches, requests = result.traces.dispatches, result.traces.requests
    assert dispatches and requests and result.audit.borrows
    lent = {(eid, borrower) for _, eid, _, borrower in result.audit.borrows}
    assert any((row.engine_id, row.pool) in lent for row in result.traces.kv_samples)
    for rec in dispatches:
        assert type(rec) is simulation.DispatchRecord
        assert sim.stage_pool[rec.stage_id] == rec.pool and rec.queue_delay >= 0.0
        tool = sim.pools[rec.pool].spec.kind != LLM
        assert (rec.engine == "") == tool and (tool or rec.engine.isdigit()), rec
        # the slack key is (deadline - W, request id); slack is taken at dispatch
        assert rec.expected_service == sim.estimator.estimate(rec.stage_id)
        assert rec.slack == pytest.approx(rec.key[0] - rec.time, abs=1e-9)
        assert rec.key[1:] == (rec.request_id,)
        assert rec.best_waiting_key is None or rec.key < rec.best_waiting_key
    assert {rec.engine == "" for rec in dispatches} == {True, False}
    for rec in requests:
        assert type(rec) is simulation.RequestRecord
        assert rec.latency == rec.done - rec.arrival and rec.violated_slo == (rec.latency > slo)
        assert is_terminal(rec.outcome) and 0 <= rec.retries_used <= sim.vw.retry_budget
        assert type(rec.request_id) is int and rec.retries_used < rec.n_stage_calls
    assert any(rec.violated_slo for rec in requests) and not all(rec.violated_slo for rec in requests)


def test_kv_samples_respect_capacity():
    params = engine_params(kv_capacity_tokens=3200, max_batch=12)
    cfg = sim_config(params=params, rate=2.5, duration=40.0, warmup=5.0, seed=8, mode="shared")
    result = ss.run(cfg)
    cap = 3200
    assert result.traces.kv_samples, "saturated run must produce samples"
    assert all(s.kv_used <= cap + 1e-6 for s in result.traces.kv_samples)
    # KV peaks where a segment ends, not at its row
    assert all(kv_end <= cap + 1e-6 for _, kv_end in segment_end_kv(result.traces.kv_samples))


def test_warmup_requests_simulated_but_excluded():
    cfg = sim_config(rate=2.0, duration=30.0, warmup=10.0, seed=4)
    sim = RetainingSimulator(cfg)
    result = sim.run()
    pre = [r for r in sim.all_requests.values() if r.arrival_time < 10.0]
    post = [r for r in sim.all_requests.values() if r.arrival_time >= 10.0]
    assert pre, "some requests must arrive during warmup"
    assert result.report.arrivals_admitted == len(post)
    # warmup traffic still ran through the engines
    assert any(r.request_id in sim.finished_stages for r in pre)


@pytest.mark.parametrize(
    "policy",
    [
        ss.PolicyConfig(kind="fcfs"),
        ss.PolicyConfig(kind="las"),
        ss.PolicyConfig(kind="slack"),
    ],
    ids=["fcfs", "las", "slack"],
)
def test_recorded_keys_match_dispatch_key(policy):
    # Replays each request's finished stages up to each of its dispatches
    # and recomputes the key independently, remaining work included.
    sim = RetainingSimulator(sim_config(policy=policy, rate=2.5, duration=30.0, warmup=0.0, seed=12))
    result = sim.run()
    vw, estimates = sim.vw, sim.estimator.estimates()
    dispatched = Counter()
    contended = 0
    for rec in result.traces.dispatches:
        deadline = sim.all_requests[rec.request_id].deadline
        done = sim.finished_stages.get(rec.request_id, [])[: dispatched[rec.request_id]]
        dispatched[rec.request_id] += 1
        attained = 0.0
        for stage in done:
            attained += stage.done_time - stage.dispatch_time
        stage_id, retries = (done[-1].next_stage, done[-1].retries_used) if done else (vw.entry_stage, 0)
        assert stage_id == rec.stage_id
        remaining = expected_remaining_work(vw, estimates)[(stage_id, retries)]
        # the key orders by deadline - W; the slack column is taken at dispatch
        assert rec.key == dispatch_key(policy.kind, rec.request_id, attained, deadline - remaining)
        assert rec.slack == deadline - rec.time - remaining
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

    arrivals_a = {rid: r.arrival_time for rid, r in sim_a.all_requests.items()}
    arrivals_b = {rid: r.arrival_time for rid, r in sim_b.all_requests.items()}
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
    policy = ss.PolicyConfig(online_estimates=True)
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


def test_utilization_is_integrated_and_read_only_where_borrowing_reads_it(monkeypatch):
    # borrowing reads the utilization of single-stage LLM pools only, so
    # only they integrate it, to the values NaiveSimulator reads from
    # integrating every pool at every event; the tool pool and the
    # autoscaler never read it, and each loop resets only its own window
    reads: list[tuple[object, float]] = []
    utilization = simulation.PoolRuntime.utilization

    def recorded_utilization(pool):
        value = utilization(pool)
        reads.append((pool, value))
        return value

    monkeypatch.setattr(simulation.PoolRuntime, "utilization", recorded_utilization)
    cfg = sim_config(engines=(1, 3), policy=ELASTIC_POLICY, rate=4.0, duration=60.0, seed=3)
    sim, naive = assert_same_run(cfg)
    got = [(pool.pool_id, value) for pool, value in reads if pool is sim.pools[pool.pool_id]]
    want = [(pool.pool_id, value) for pool, value in reads if pool is naive.pools[pool.pool_id]]

    lendable = [p.pool_id for p in sim._lendable]
    assert lendable == [sim.stage_pool[GENERATOR], sim.stage_pool[FIXER]]
    assert naive.audit.borrows and naive.audit.returns and naive.audit.scale_events
    assert got and {pid for pid, _ in got} <= set(lendable)
    # the same values read, at the same points, as from integrating every pool
    want_lendable = [(pid, value) for pid, value in want if pid in lendable]
    assert [pid for pid, _ in got] == [pid for pid, _ in want_lendable]
    assert [value for _, value in got] == pytest.approx([value for _, value in want_lendable], rel=1e-9, abs=1e-9)
    tool = sim.pools[sim.stage_pool[EXECUTOR]]
    assert (tool.busy_integral, tool.capacity_integral) == (0.0, 0.0)
    assert tool.pool_id not in {pool.pool_id for pool, _ in reads}  # in neither run


def test_without_borrowing_no_pool_integrates_utilization():
    sim = Simulator(sim_config(engines=(1, 3), rate=4.0, duration=30.0, seed=3))
    sim.run()
    assert sim._lendable == []
    assert all((p.busy_integral, p.capacity_integral) == (0.0, 0.0) for p in sim.pools.values())


def lend_and_scale_in_config(seed: int) -> ss.SimConfig:
    """The base of configs/nl2sql_compare.json with `p_fail` 0.1, 1
    generator and 3 fixer engines at 4.0/s, borrowing on and autoscaling
    with a 1 s cooldown: a 10 s run in which the fixer pool lends engines
    to the generator pool while it scales in."""
    tree = json.loads((Path(__file__).resolve().parents[1] / "configs" / "nl2sql_compare.json").read_text())["base"]
    tree["workflow"]["params"] = {"p_fail": 0.1}
    tree["topology"]["llm_engines"] = {GENERATOR: 1, FIXER: 3}
    tree["policy"] = {"kind": "slack", "borrow": {"enabled": True}, "autoscale": {"enabled": True, "cooldown": 1.0}}
    tree["arrivals"]["rate"] = 4.0
    tree.update(duration=10.0, warmup=1.0, seed=seed)
    return build_sim_config(tree)


@pytest.mark.parametrize("seed", [2, 3])
def test_lending_and_scale_in_leave_each_pool_an_engine_of_its_own(seed):
    # the fixer pool lends engines to the generator pool and scales in; it
    # must keep an engine at home, else its calls wait to the end of the
    # run while the report counts them only as in flight
    sim, naive = assert_same_run(lend_and_scale_in_config(seed))
    assert sim.audit.borrows and any(delta < 0 for _, _, delta in sim.audit.scale_events)


def _busy_fixer_engine(sim):
    sim.engines[1].admit(PendingCall(0, FIXER, 0.0, 100, 50), sim._stages[FIXER].prefix_tokens, 0.0)


def _lend_fixer_engine(sim):
    sim._set_serving_pool(sim.engines[2], sim.stage_pool[GENERATOR])


@pytest.mark.parametrize(
    "change, stage, spare",
    [
        (None, GENERATOR, []),  # one engine at home, idle
        (None, FIXER, [1, 2]),  # two at home, both idle
        (_busy_fixer_engine, FIXER, [2]),  # two at home, one busy: the idle one
        (_lend_fixer_engine, GENERATOR, []),  # one at home plus one borrowed in
        (_lend_fixer_engine, FIXER, []),  # two at home, one of them lent away
    ],
)
def test_spare_engines_are_idle_at_home_and_never_the_last_one(change, stage, spare):
    # the one rule for the engines a pool can give up, to a borrower or to
    # scale-in
    sim = Simulator(sim_config(engines=(1, 2)))
    if change is not None:
        change(sim)
    assert [e.engine_id for e in sim._spare_engines(sim.pools[sim.stage_pool[stage]])] == spare


def test_invariant_check_catches_pool_counters_out_of_bounds():
    # a tool pool's busy slots must lie within its slots
    sim = Simulator(sim_config())
    for pool in sim._tool_pools:
        for busy in (-1, pool.capacity + 1):
            pool.busy = busy
            with pytest.raises(ss.InternalInvariantViolation, match=f"pool {pool.pool_id}: busy/capacity"):
                sim._check_invariants()
        pool.busy = 0
        sim._check_invariants()


def _corrupt_duplicate(sim, pool):
    pool.engines.append(pool.engines[0])


def _corrupt_order(sim, pool):
    pool.engines.reverse()


def _corrupt_retired_left_in(sim, pool):
    del sim.engines[pool.engines[-1].engine_id]  # retired, but still listed


def _corrupt_listed_in_two_pools(sim, pool):
    other = sim.pools[sim.stage_pool[GENERATOR]]
    other.engines.append(pool.engines[0])


def _corrupt_missing(sim, pool):
    pool.engines.pop()


def _corrupt_all_lent(sim, pool):
    for engine in list(pool.engines):
        sim._set_serving_pool(engine, sim.stage_pool[GENERATOR])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_corrupt_duplicate, "out of order or not serving it"),
        (_corrupt_order, "out of order or not serving it"),
        (_corrupt_retired_left_in, "out of order or not serving it"),
        (_corrupt_listed_in_two_pools, "out of order or not serving it"),
        (_corrupt_missing, "pool engine lists hold 3 engines, 4 exist"),
        (_corrupt_all_lent, "no engine of its own serves it"),
    ],
)
def test_invariant_check_catches_a_corrupt_pool_engine_list(corrupt, message):
    # each LLM pool lists the engines serving it, in id order, and routing
    # reads only that list: the check must see every way it can go wrong
    sim = Simulator(sim_config(engines=(1, 3)))
    sim._check_invariants()
    fixer = sim.pools[sim.stage_pool[FIXER]]
    assert [e.engine_id for e in fixer.engines] == [1, 2, 3]
    corrupt(sim, fixer)
    with pytest.raises(ss.InternalInvariantViolation, match=message):
        sim._check_invariants()


def test_invariant_check_catches_a_call_of_a_stage_the_pool_does_not_serve():
    # the stage rule holds on a shared (multi-stage) pool too
    sim = Simulator(sim_config(mode="shared"))
    engine = sim.engines[0]
    engine.admit(PendingCall(0, EXECUTOR, 0.0, 100, 50), 0, 0.0)
    with pytest.raises(ss.InternalInvariantViolation, match=f"call of stage '{EXECUTOR}'"):
        sim._check_invariants()


def test_a_decode_count_past_max_batch_is_an_invariant_violation(tmp_path, monkeypatch, capsys):
    # the token-time cache must not turn a corrupt engine into a crash
    # (exit 1): the next check reports it, exit 3
    class CorruptingSimulator(Simulator):
        def _dispatch_all(self) -> None:
            super()._dispatch_all()
            for engine in self._touched.values():  # each gets a full check
                engine.n_decode = engine.params.max_batch + 1

    monkeypatch.setattr(stagesim.cli, "Simulator", CorruptingSimulator)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run_config_tree()))
    assert stagesim.cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "InternalInvariantViolation" in capsys.readouterr().err


class TouchCheckedEngine(EngineState):
    """An engine that asserts, at every change the invariant check counts on
    a touch for, that the simulator touched it earlier in the event, and
    counts the change in its simulator's `changes`."""

    __slots__ = ("sim",)

    def __init__(self, *args) -> None:
        self.sim = None  # set once the simulator has added it
        super().__init__(*args)

    def _changed(self, change: str) -> None:
        sim = self.sim
        if sim is not None:
            assert sim._touched.get(self.engine_id) is self, (change, self.engine_id, sim.clock)
            sim.changes[change] += 1

    def admit(self, call, prefix_tokens, now):
        self._changed("admit")
        return super().admit(call, prefix_tokens, now)

    def prefill_finished(self, call) -> None:
        self._changed("prefill_finished")
        super().prefill_finished(call)

    def complete_call(self, call) -> None:
        self._changed("complete_call")
        super().complete_call(call)

    def evict_idle_prefix(self, stage_id) -> None:
        self._changed("evict_idle_prefix")
        super().evict_idle_prefix(stage_id)

    @property
    def serving_pool(self) -> str:
        return EngineState.serving_pool.__get__(self)

    @serving_pool.setter
    def serving_pool(self, pool_id: str) -> None:
        self._changed("serving_pool")
        EngineState.serving_pool.__set__(self, pool_id)


class TouchContractSimulator(Simulator):
    def __init__(self, config) -> None:
        self.changes = Counter()
        super().__init__(config)

    def _add_engine(self, pool_id, params):
        engine = super()._add_engine(pool_id, params)
        engine.sim = self
        return engine


@pytest.mark.parametrize(
    "mode, engines, params, policy, seed",
    [
        ("isolated", (1, 3), engine_params(), ELASTIC_POLICY, 3),  # borrows, returns, scale events
        ("shared", (1, 1), engine_params(kv_capacity_tokens=3200, max_batch=4), ss.PolicyConfig(), 4),  # evictions
    ],
    ids=["isolated-elastic", "shared-evicting"],
)
def test_every_engine_change_follows_a_touch(monkeypatch, mode, engines, params, policy, seed):
    # the premise of the invariant check's horizon test: an engine's
    # counters change only in an event that touched it first
    monkeypatch.setattr(simulation, "EngineState", TouchCheckedEngine)
    cfg = sim_config(mode=mode, engines=engines, params=params, policy=policy, rate=4.0, duration=40.0, seed=seed)
    sim = TouchContractSimulator(cfg)
    audit = sim.run().audit
    changes = {"admit", "prefill_finished", "complete_call"}
    if mode == "shared":
        changes.add("evict_idle_prefix")
    else:
        assert audit.borrows and audit.returns and audit.scale_events
        changes.add("serving_pool")
    assert changes <= {change for change, n in sim.changes.items() if n}, sim.changes


def horizon_engine(n_calls: int, kv_capacity: int):
    """A simulator whose generator engine holds `n_calls` decode calls of 200
    prompt and 100 output tokens, started at time 0, and has had its full
    check, with nothing touched since."""
    sim = Simulator(sim_config(params=engine_params(kv_capacity_tokens=kv_capacity)))
    pool = sim.pools[sim.stage_pool[GENERATOR]]
    engine = next(e for e in sim.engines.values() if e.serving_pool == pool.pool_id)
    prefix = sim.vw.stage(GENERATOR).prefix_tokens
    for rid in range(n_calls):
        call = PendingCall(rid, GENERATOR, 0.0, 200, 100)
        engine.admit(call, prefix, 0.0)
        engine.prefill_finished(call)
    sim._check_invariants()  # a full check: the engines are new
    sim._touched.clear()
    return sim, engine


@pytest.mark.parametrize(
    "n_calls, kv_capacity, message",
    [
        # the call would pass its target: at its completion, a hair later
        (1, 16384, "engine 0: request 0 decoded past its 100 tokens"),
        # two calls fill the KV exactly: KV passes capacity before either
        # call passes its target
        (2, 1000 + 2 * 300, r"engine 0: kv_used .* outside \[0, 1600\]"),
    ],
)
def test_untouched_engine_is_checked_against_its_horizon(n_calls, kv_capacity, message):
    sim, engine = horizon_engine(n_calls, kv_capacity)
    horizon = engine.horizon
    _, completion = engine.next_completion(0.0)
    assert completion < horizon  # a completion that fires on time is inside it
    # up to the horizon the shipped check compares the clock with it, and the
    # full recount agrees that nothing fails
    sim.clock = math.nextafter(horizon, -math.inf)
    sim._check_invariants()
    engine.check(horizon, sim.pools[engine.serving_pool].spec.stage_ids)
    # past it, the shipped check recounts the engine, and the recount
    # raises: here, with the completion at `completion` never fired
    token_time = engine.params.token_time(n_calls)
    sim.clock = completion + 0.1 if n_calls == 1 else token_time * (100 + 0.75 * simulation._KV_TOL)
    assert sim.clock > horizon
    with pytest.raises(ss.InternalInvariantViolation, match=message):
        sim._check_invariants()


def test_untouched_engine_is_trusted_until_its_horizon():
    # the trade-off of the horizon test: it trusts that only a touch
    # changes an engine's counters (test_every_engine_change_follows_a_touch).
    # A change that bypasses every touch, here kv_reserved raised past
    # capacity by hand on an engine no event touched, trips the naive full
    # recount but not the shipped check, until the engine is touched.
    sim = NaiveSimulator(sim_config())
    engine = sim.engines[0]
    cap = engine.params.kv_capacity_tokens
    reserved = f"engine 0: reserved {cap + 1} exceeds capacity {cap}"
    # run() clears the engines' first touch; a new engine is still recounted
    sim._touched.clear()
    engine.kv_reserved = cap + 1
    with pytest.raises(ss.InternalInvariantViolation, match=reserved):
        Simulator._check_invariants(sim)
    engine.kv_reserved = 0
    Simulator._check_invariants(sim)

    engine.kv_reserved = cap + 1
    Simulator._check_invariants(sim)  # not caught: the shipped check's blind spot
    with pytest.raises(ss.InternalInvariantViolation, match=reserved):
        sim._check_invariants()
    sim._touched[engine.engine_id] = engine
    with pytest.raises(ss.InternalInvariantViolation, match=reserved):
        Simulator._check_invariants(sim)


def test_only_unfinished_requests_keep_rng_streams():
    sim = RetainingSimulator(sim_config(policy=ELASTIC_POLICY, rate=4.0, duration=40.0, seed=2))
    result = sim.run()
    assert len(result.traces.requests) > 50
    assert sim.requests, "the run should end with requests in flight"
    finished = {rec.request_id for rec in result.traces.requests}
    for rid, req in sim.requests.items():
        assert rid not in finished
        assert not is_terminal(req.current_stage)
        assert req.streams
        entered = {rec.stage_id for rec in sim.finished_stages.get(rid, ())} | {req.current_stage}
        labels = {label for sid in entered for label in sim._draw_labels[sid].values()}
        for label, count in req.streams.items():
            assert label in labels and count >= 1, (rid, label, count)


def test_schedule_rejects_a_nan_time():
    sim = Simulator(sim_config(seed=1))
    with pytest.raises(ss.InternalInvariantViolation, match="before clock"):
        sim._schedule(math.nan, simulation.EVENT_ARRIVAL)
    assert not sim._heap


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


def test_pools_follow_the_workflow():
    # the pools are laid out from the config's own workflow: a topology
    # whose engine counts name stages the workflow lacks is rejected, and a
    # replaced config does not keep the layout of the one it came from
    cfg = sim_config()
    cfg.validate()
    one = single_stage_workflow()
    with pytest.raises(ss.ConfigError, match="topology"):
        dataclasses.replace(cfg, workflow=one).validate()
    moved = dataclasses.replace(cfg, workflow=one, topology=dataclasses.replace(cfg.topology, llm_engines={"only": 1}))
    moved.validate()
    assert [(p.pool_id, p.stage_ids, p.n_engines) for p in moved.pools] == [("pool:only", ("only",), 1)]


def test_kv_budget_that_can_never_fit_a_call_rejected():
    # nl2sql LLM calls need up to 1000 prefix + 300 prompt + 150 output tokens
    sim_config(params=engine_params(kv_capacity_tokens=1450)).validate()
    with pytest.raises(ss.ConfigError, match="sql_generator"):
        sim_config(params=engine_params(kv_capacity_tokens=1449)).validate()
    with pytest.raises(ss.ConfigError):
        sim_config(mode="shared", params=engine_params(kv_capacity_tokens=1449)).validate()
    # a generator pool too small for its own calls, even with borrowing on:
    # its head call fits none of its engines, so the pool never gets busy
    # enough to borrow one from the fixer pool
    small_generator = {GENERATOR: engine_params(kv_capacity_tokens=1200)}
    borrow = ss.PolicyConfig(borrow=ss.BorrowConfig(enabled=True))
    for policy in (ss.PolicyConfig(), borrow):
        with pytest.raises(ss.ConfigError, match="sql_generator"):
            sim_config(overrides=small_generator, policy=policy).validate()


def test_stage_history_recorded_in_order():
    cfg = sim_config(rate=1.0, duration=30.0, warmup=0.0, seed=2)
    sim = RetainingSimulator(cfg)
    sim.run()
    histories = [sim.finished_stages[rid] for rid, r in sim.all_requests.items() if is_terminal(r.current_stage)]
    assert histories
    for history in histories:
        assert history[0].stage_id == GENERATOR
        times = [t for stage in history for t in (stage.dispatch_time, stage.done_time)]
        assert times == sorted(times)
        # each stage leads to the next one, and the last to a terminal
        assert [s.next_stage for s in history[:-1]] == [s.stage_id for s in history[1:]]
        assert is_terminal(history[-1].next_stage)
        # the executor precedes every fixer visit
        stages = [stage.stage_id for stage in history]
        for i, sid in enumerate(stages):
            if sid == FIXER:
                assert stages[i - 1] == EXECUTOR


def test_n_stage_calls_counts_finished_stages():
    cfg = sim_config(vw=nl2sql_vw(p_fail=0.6, retry_budget=2), rate=1.0, duration=40.0, warmup=0.0, seed=5)
    sim = RetainingSimulator(cfg)
    records = sim.run().traces.requests
    assert any(rec.retries_used > 0 for rec in records)
    for rec in records:
        history = sim.finished_stages[rec.request_id]
        assert rec.n_stage_calls == len(history)
        assert (history[-1].next_stage, history[-1].retries_used) == (rec.outcome, rec.retries_used)
        # executor -> fixer is the one loop edge: each time it is taken uses a retry
        fixes = [stage.next_stage == FIXER for stage in history]
        assert [stage.retries_used for stage in history] == [sum(fixes[: i + 1]) for i in range(len(fixes))]
