"""Engines advance only when an event touches them; the KV trace is exact.

`Simulator` brings an engine forward only at a touch (admission, prefill
done, completion, eviction, lending or return, scale-in, end of run) and
writes one `kv_usage.csv` row per touched engine: its KV at the segment
start and the slope that holds until its next row.  `EagerAdvanceReference`
advances every engine at every processed event instead, as the simulator
once did.  Both must make the same decisions, and the segment trace,
evaluated at every processed event, must give the reference's KV.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stagesim as ss
from helpers import (
    EagerAdvanceReference,
    FullSweepSimulator,
    WakeEverySimulator,
    engine_params,
    kv_segments,
    resample_kv,
    sim_config,
)
from stagesim.reporting import DISPATCH_CSV, REQUESTS_CSV, write_run_outputs

TOL = 1e-6
# completion times come from decode split into other segments, so an event
# may fall this far from the reference's
TIME_TOL = 1e-9


def output_bytes(result) -> dict[str, bytes]:
    """Each output file's bytes, by file name."""
    with tempfile.TemporaryDirectory() as out:
        write_run_outputs(result, out)
        return {path.name: path.read_bytes() for path in Path(out).iterdir()}


def assert_segments_match_eager_kv(rows, reference: EagerAdvanceReference):
    """The segment trace gives the reference's pool, KV and resident prefix
    tokens for every live engine after every processed event, and covers no
    engine the reference lacks except at the time of its own last row (its
    retirement, or the end)."""
    times = sorted({t for _, t in reference.kv_at_events})
    resampled = resample_kv(rows, times, TIME_TOL)
    for key, (pool, kv, resident) in reference.kv_at_events.items():
        assert key in resampled, key
        row = resampled[key]
        assert (row.pool, row.resident_prefix_tokens) == (pool, resident), key
        assert row.kv_used == pytest.approx(kv, abs=TOL), key
    last_row = {}
    for row in rows:
        last_row[row.engine_id] = row.time
    extra = set(resampled) - set(reference.kv_at_events)
    assert all(abs(t - last_row[eid]) <= TIME_TOL for eid, t in extra), sorted(extra)


def assert_audits_match(got, want):
    """The same borrows, returns, scale events and lent admissions, at
    times equal to TIME_TOL."""
    assert got.lent_admissions == want.lent_admissions
    for name in ("borrows", "returns", "scale_events"):
        g, w = getattr(got, name), getattr(want, name)
        assert [e[1:] for e in g] == [e[1:] for e in w], name
        assert [e[0] for e in g] == pytest.approx([e[0] for e in w], abs=TIME_TOL), name


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    mode=st.sampled_from(["isolated", "shared"]),
    kind=st.sampled_from(sorted(ss.POLICY_KINDS)),
    borrow=st.booleans(),
    autoscale=st.booleans(),
    rate=st.sampled_from([1.5, 3.0, 4.0]),
    engines=st.sampled_from([(1, 2), (1, 3), (2, 2)]),
    seed=st.integers(0, 10_000),
)
def test_segment_trace_matches_eager_advance(mode, kind, borrow, autoscale, rate, engines, seed):
    policy = ss.PolicyConfig(
        kind=kind,
        online_estimates=True,
        borrow=ss.BorrowConfig(enabled=borrow),
        autoscale=ss.AutoscaleConfig(enabled=autoscale, max_engines=4),
    )
    params = engine_params(kv_capacity_tokens=6000, max_batch=6)
    config = sim_config(
        mode=mode, engines=engines, params=params, policy=policy, rate=rate, duration=30.0, warmup=2.0, seed=seed
    )
    reference = EagerAdvanceReference(config)
    want = reference.run()
    sim = ss.Simulator(config)
    got = sim.run()
    # the full sweep agrees with the shipped check on every event, and
    # checking more changes nothing
    oracle = FullSweepSimulator(config)
    swept = oracle.run()
    # offering every queued pool after every event places nothing the
    # shipped wake rule does not
    waker = WakeEverySimulator(config)
    woken = waker.run()

    assert sim._seq - len(sim._heap) == reference._seq - len(reference._heap)
    assert oracle._seq - len(oracle._heap) == sim._seq - len(sim._heap)
    assert waker._seq - len(waker._heap) == sim._seq - len(sim._heap)
    got_bytes, want_bytes = output_bytes(got), output_bytes(want)
    assert output_bytes(swept) == got_bytes
    assert output_bytes(woken) == got_bytes
    assert woken.audit == got.audit
    for name in (REQUESTS_CSV, DISPATCH_CSV):
        assert got_bytes[name] == want_bytes[name], name
    assert_audits_match(got.audit, want.audit)
    assert got.report.kv_used_mean.keys() == want.report.kv_used_mean.keys()
    for eid, mean in want.report.kv_used_mean.items():
        assert got.report.kv_used_mean[eid] == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert_segments_match_eager_kv(got.traces.kv_samples, reference)
    # a row per touched engine, not one per engine whose KV moved
    assert len(got.traces.kv_samples) < len(want.traces.kv_samples)


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
