"""Engines advance only when an event touches them; the KV trace is exact.

`Simulator` brings an engine forward only at a touch (admission, prefill
done, completion, eviction, lending or return, scale-in, end of run) and
writes one `kv_usage.csv` row per touched engine: its KV at the segment
start and the slope that holds until its next row.  The segment trace,
evaluated at every event, gives the KV of `NaiveSimulator`, which advances
every engine at every event (`tests/test_naive_reference.py`); the tests
here check the trace's shape and its integral.
"""

import pytest

import stagesim as ss
from helpers import kv_segments, sim_config

TOL = 1e-6


def test_every_engine_trace_starts_at_its_creation_and_is_closed():
    policy = ss.PolicyConfig(autoscale=ss.AutoscaleConfig(enabled=True, check_interval=1.0, max_engines=4))
    config = sim_config(policy=policy, engines=(1, 1), rate=3.0, duration=40.0, warmup=2.0, seed=3)
    sim = ss.Simulator(config)
    result = sim.run()
    first, last = {}, {}
    for row in result.traces.kv_samples:
        first.setdefault(row.engine_id, row)
        last[row.engine_id] = row
    retired = set(result.report.kv_used_mean) - {str(eid) for eid in sim.engines}
    assert retired, "the run must retire an engine"
    scale_times = {t for t, _, _ in result.audit.scale_events}
    for eid, row in first.items():
        if row.time == 0.0:  # written before the first event
            assert (row.kv_used, row.kv_slope) == (0.0, 0.0)
        else:  # after the scale-out that added it, and what it admitted then
            assert row.time in scale_times
    for eid, row in last.items():
        if str(eid) in retired:
            assert row.time in scale_times and row.time < config.duration
            assert row.kv_slope == 0.0  # an engine retires idle
        else:
            assert row.time == config.duration
    # apart from its closing row, an engine's row starts a new segment:
    # none only repeats the one in progress, as rows forced at every
    # autoscale tick did
    for segments in kv_segments(result.traces.kv_samples).values():
        for prev, row in zip(segments, segments[1:-1]):
            continued = prev.kv_used + prev.kv_slope * (row.time - prev.time)
            same = (row.pool, row.kv_slope, row.resident_prefix_tokens) == (
                prev.pool,
                prev.kv_slope,
                prev.resident_prefix_tokens,
            )
            assert not (same and row.kv_used == pytest.approx(continued, abs=TOL)), row


# seeds on which the run below retires an engine
@pytest.mark.parametrize("seed", [3, 4, 8, 9, 11])
def test_kv_used_mean_is_the_integral_of_the_segment_trace(seed):
    # each engine's mean is the trapezoid integral of its kv_usage.csv
    # segments, clipped at warmup, over the window: retired engines too
    policy = ss.PolicyConfig(autoscale=ss.AutoscaleConfig(enabled=True, check_interval=1.0, max_engines=4))
    config = sim_config(policy=policy, engines=(1, 1), rate=3.0, duration=40.0, warmup=2.0, seed=seed)
    sim = ss.Simulator(config)
    result = sim.run()
    segments = kv_segments(result.traces.kv_samples)
    assert set(segments) - set(sim.engines), "the run must retire an engine"
    want = {}
    for eid, rows in segments.items():
        integral = 0.0
        for row, end in zip(rows, [row.time for row in rows[1:]]):
            start = max(row.time, config.warmup)
            if start < end:
                kv_start = row.kv_used + row.kv_slope * (start - row.time)
                kv_end = row.kv_used + row.kv_slope * (end - row.time)
                integral += 0.5 * (kv_start + kv_end) * (end - start)
        want[str(eid)] = integral / (config.duration - config.warmup)
    assert result.report.kv_used_mean.keys() == want.keys()
    for eid, mean in want.items():
        assert result.report.kv_used_mean[eid] == pytest.approx(mean, rel=1e-9, abs=1e-12), eid
