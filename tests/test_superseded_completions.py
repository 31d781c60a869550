"""Superseded completions are skipped when popped, before the clock moves.

Every change to a decode batch schedules a new `call_complete` for the
engine; the one scheduled before it is superseded (its epoch is old, or
its engine retired).  `Simulator.run` drops such an event as soon as it is
popped.  `NaiveSimulator` processes it as a no-op, and
`tests/test_naive_reference.py` requires both loops to make the same
decisions: a skipped event touches no engine, so it only stops the pools'
utilization integrals from being split at its time, which moves floats by
a few ulps.
"""

import pytest

import stagesim as ss
from helpers import NaiveSimulator, resample_kv, sim_config
from stagesim.engines import PendingCall
from stagesim.simulation import EVENT_CALL_COMPLETE, RequestSim


class ClockRecorder:
    """Records every (clock, target, pool integrals) the clock advance sees."""

    def _advance_clock(self, to_time):
        integrals = [(p.busy_integral, p.capacity_integral) for p in self.pools.values()]
        self.advances.append((self.clock, to_time, integrals))
        super()._advance_clock(to_time)


class Skipping(ClockRecorder, ss.Simulator):
    pass


class Processing(ClockRecorder, NaiveSimulator):
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
    sim.requests[0] = RequestSim(0, 0.0, 100.0, stage)
    call = PendingCall(0, stage, 0.0, 100, 1000)
    engine.admit(call, sim.vw.stage(stage).prefix_tokens, 0.0)
    engine.prefill_finished(call)
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

    # processed, they move the clock but touch no engine: the segment
    # trace gives the KV at each
    processing = run_with_superseded_completions(Processing)
    assert [to for _, to, _ in processing.advances] == [1.0, 1.5, 2.0]
    assert processing.superseded == 2
    resampled = resample_kv(sim.traces.kv_samples, [0.0, 1.0, 1.5, 2.0])
    assert processing.kv_at_events.keys() == resampled.keys()
    for at, (pool, kv, resident) in processing.kv_at_events.items():
        assert (resampled[at].pool, resampled[at].resident_prefix_tokens) == (pool, resident)
        assert resampled[at].kv_used == pytest.approx(kv, abs=1e-6)
