"""Superseded completions are skipped when popped, before the clock moves.

Every change to a decode batch schedules a new `call_complete` for the
engine; the one scheduled before it is superseded (its epoch is old, or
its engine retired).  `Simulator.run` drops such an event as soon as it is
popped.  `SupersededCompletionsReference` processes it as the loop once
did, and the differential test below requires both loops to make the same
decisions: a skipped event touches no engine, so it only stops the pools'
utilization integrals from being split at its time, which moves floats by
a few ulps.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stagesim as ss
from helpers import SupersededCompletionsReference, sim_config
from stagesim.engines import PendingCall
from stagesim.reporting import REQUESTS_CSV, write_run_outputs
from stagesim.simulation import EVENT_CALL_COMPLETE

TOL = 1e-6


def assert_dispatches_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.pool, g.request_id, g.engine, g.stage_id) == (w.pool, w.request_id, w.engine, w.stage_id)
        for name in ("time", "slack", "expected_service", "queue_delay"):
            assert getattr(g, name) == pytest.approx(getattr(w, name), abs=TOL), name
        for gk, wk in ((g.key, w.key), (g.best_waiting_key, w.best_waiting_key)):
            assert (gk is None) == (wk is None)
            if gk is not None:
                assert gk == pytest.approx(wk, abs=TOL)


def assert_kv_rows_taken_at_processed_events(got, want, processed_times, duration):
    """The two segment traces match row for row, to TOL, and every row was
    written at the start of the run, at a processed event or at its end:
    a superseded completion touches no engine, so it starts no segment."""
    assert len(got) == len(want)
    allowed = {0.0, duration, *processed_times}
    for g, w in zip(got, want):
        assert (g.engine_id, g.pool, g.resident_prefix_tokens) == (w.engine_id, w.pool, w.resident_prefix_tokens)
        assert (g.time, g.kv_used, g.kv_slope) == pytest.approx((w.time, w.kv_used, w.kv_slope), abs=TOL), g
        assert g.time in allowed, g


def requests_csv(result) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        write_run_outputs(result, out)
        return (Path(out) / REQUESTS_CSV).read_bytes()


@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    mode=st.sampled_from(["isolated", "shared"]),
    kind=st.sampled_from(sorted(ss.POLICY_KINDS)),
    online=st.booleans(),
    borrow=st.booleans(),
    autoscale=st.booleans(),
    rate=st.sampled_from([1.0, 2.5, 4.0]),
    duration=st.sampled_from([20.0, 40.0]),
    engines=st.sampled_from([(1, 2), (1, 3), (2, 2)]),
    seed=st.integers(0, 10_000),
)
def test_skipping_superseded_completions_keeps_every_decision(
    mode, kind, online, borrow, autoscale, rate, duration, engines, seed
):
    policy = ss.PolicyConfig(
        kind=kind,
        online_estimates=online,
        borrow=ss.BorrowConfig(enabled=borrow),
        autoscale=ss.AutoscaleConfig(enabled=autoscale, max_engines=4),
    )
    config = sim_config(mode=mode, engines=engines, policy=policy, rate=rate, duration=duration, warmup=2.0, seed=seed)
    reference = SupersededCompletionsReference(config)
    want = reference.run()
    sim = ss.Simulator(config)
    got = sim.run()

    assert reference.superseded > 0
    # both loops pop the same events, superseded ones included
    assert sim._seq - len(sim._heap) == reference._seq - len(reference._heap)
    assert requests_csv(got) == requests_csv(want)
    assert_dispatches_match(got.traces.dispatches, want.traces.dispatches)
    assert_kv_rows_taken_at_processed_events(
        got.traces.kv_samples, want.traces.kv_samples, reference.processed_times, duration
    )


class ClockRecorder:
    """Records every (clock, target, pool integrals) the clock advance sees."""

    def _advance_clock(self, to_time):
        integrals = [(p.busy_integral, p.capacity_integral) for p in self.pools.values()]
        self.advances.append((self.clock, to_time, integrals))
        super()._advance_clock(to_time)


class Skipping(ClockRecorder, ss.Simulator):
    pass


class Processing(ClockRecorder, SupersededCompletionsReference):
    pass


def run_with_superseded_completions(cls):
    """Engine 0 decodes a call that outlasts the run; the only events due
    before the end are a superseded completion for it (an old epoch) and
    one for an engine that does not exist."""
    # an arrival rate this low draws its first arrival long after the end;
    # borrowing makes the LLM pools integrate utilization, and its first
    # check falls after the end too
    policy = ss.PolicyConfig(
        borrow=ss.BorrowConfig(enabled=True), autoscale=ss.AutoscaleConfig(check_interval=10.0)
    )
    sim = cls(sim_config(rate=1e-9, duration=2.0, warmup=0.0, policy=policy))
    sim.advances = []
    engine = sim.engines[0]
    (stage,) = sim.pools[engine.serving_pool].spec.stage_ids
    call = PendingCall(0, stage, 0.0, 100, 1000)
    engine.admit(call, sim.vw.stage(stage).prefix_tokens, 0.0)
    engine.prefill_finished(call)
    sim.pools[engine.serving_pool].busy += 1  # as Simulator._place counts it
    sim._reschedule_completion(engine)  # 20 s of decode: after the end
    sim._schedule(1.0, EVENT_CALL_COMPLETE, engine_id=0, request_id=0, epoch=engine.decode_epoch - 1)
    sim._schedule(1.5, EVENT_CALL_COMPLETE, engine_id=99, request_id=0, epoch=0)
    sim.run()
    return sim


def test_superseded_completion_leaves_clock_integrals_and_kv_trace_untouched():
    sim = run_with_superseded_completions(Skipping)
    # the clock goes straight from 0 to the end, with the integrals as
    # they were at 0 until then, and the KV trace has only the first and
    # the closing rows
    assert [(clock, to) for clock, to, _ in sim.advances] == [(0.0, 2.0)]
    assert sim.advances[0][2] == [(0.0, 0.0)] * len(sim.pools)
    # then in one piece: engine 0 kept its pool busy, the other LLM pool
    # was idle
    assert sim._lendable[0].pool_id == sim.engines[0].serving_pool
    assert [(p.busy_integral, p.capacity_integral) for p in sim._lendable] == [(2.0, 2.0), (0.0, 2.0)]
    assert {s.time for s in sim.traces.kv_samples} == {0.0, 2.0}
    assert sim._seq - len(sim._heap) == 2  # both were still popped

    # processed, they move the clock but touch no engine: the KV trace is
    # the same
    processing = run_with_superseded_completions(Processing)
    assert [to for _, to, _ in processing.advances] == [1.0, 1.5, 2.0]
    assert processing.traces.kv_samples == sim.traces.kv_samples
    assert processing.superseded == 2
