"""The simulator against closed-form queueing results.

Every other oracle in the suite is the simulator itself (an older loop, a
fuller sweep, a slower rule), so none of them catches a model that is wrong
the same way everywhere, such as a prefill charged twice.  Here the
prediction comes from outside the simulator.

One LLM stage whose engine never makes a call wait (no prefix,
`batch_slope` 0, KV and `max_batch` far above what the arrivals can fill)
is an infinite-server queue, so every latency is the service time S =
prompt / prefill_rate + output * base_token_time exactly, and every queue
delay is 0.  The same stage with `max_batch` 1 is an M/D/1 queue, and one
tool stage with one slot an M/G/1 queue: both have the mean queue delay of
Pollaczek and Khinchine.
"""

import math
import statistics

import pytest

import stagesim as ss
from stagesim.engines import EngineParams

PROMPT, OUTPUT = 200, 100
PREFILL_RATE, TOKEN_TIME = 2000.0, 0.02
SERVICE = PROMPT / PREFILL_RATE + OUTPUT * TOKEN_TIME  # 2.1 s


def one_llm_stage_config(
    seed: int,
    rate: float = 5.0,
    max_batch: int = 1000,
    batch_slope: float = 0.0,
    duration: float = 200.0,
    warmup: float = 0.0,
) -> ss.SimConfig:
    stage = ss.StageSpec(
        stage_id="answer",
        kind=ss.LLM,
        outcomes=(ss.Outcome("ok", 1.0, ss.SUCCESS),),
        prefix_tokens=0,
        prompt_tokens=ss.Distribution.constant(PROMPT),
        output_tokens=ss.Distribution.constant(OUTPUT),
    )
    workflow = ss.validate_workflow(
        ss.WorkflowSpec(name="one_stage", stages=(stage,), entry_stage="answer", retry_budget=0, slo_seconds=10.0)
    )
    # at 5/s about 10.5 calls are in service at once, each reserving 300
    # tokens: neither limit is ever near
    params = EngineParams(
        kv_capacity_tokens=1_000_000,
        prefill_rate=PREFILL_RATE,
        base_token_time=TOKEN_TIME,
        batch_slope=batch_slope,
        max_batch=max_batch,
    )
    return ss.SimConfig(
        workflow=workflow,
        topology=ss.Topology(mode="isolated", llm_engines={"answer": 1}, engine_params=params),
        policy=ss.PolicyConfig(),
        arrival_rate=rate,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_infinite_server_latency_is_the_service_time(seed):
    result = ss.run(one_llm_stage_config(seed))
    latencies = [rec.latency for rec in result.traces.requests]
    assert len(latencies) > 900  # about 5/s over 200 s
    assert all(rec.outcome == ss.SUCCESS for rec in result.traces.requests)
    assert max(abs(latency - SERVICE) for latency in latencies) <= 1e-9
    assert result.report.queue_delay_mean == {"pool:answer": 0.0}


# the tool stage's service time, uniform on [LOW, HIGH]: its mean and its
# second moment (LOW² + LOW·HIGH + HIGH²) / 3
LOW, HIGH = 0.5, 1.5
TOOL_MEAN, TOOL_SECOND_MOMENT = (LOW + HIGH) / 2, (LOW**2 + LOW * HIGH + HIGH**2) / 3


def one_tool_stage_config(seed: int, rate: float, duration: float, warmup: float) -> ss.SimConfig:
    stage = ss.StageSpec(
        stage_id="lookup",
        kind=ss.TOOL,
        outcomes=(ss.Outcome("ok", 1.0, ss.SUCCESS),),
        service_time=ss.Distribution.uniform(LOW, HIGH),
    )
    workflow = ss.validate_workflow(
        ss.WorkflowSpec(name="one_tool", stages=(stage,), entry_stage="lookup", retry_budget=0, slo_seconds=10.0)
    )
    return ss.SimConfig(
        workflow=workflow,
        topology=ss.Topology(mode="isolated", llm_engines={}, tool_concurrency=1),
        policy=ss.PolicyConfig(),
        arrival_rate=rate,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )


def pollaczek_khinchine(rate: float, mean: float, second_moment: float) -> float:
    """The mean queue delay of an M/G/1 queue: λE[S²] / (2(1 − ρ))."""
    return rate * second_moment / (2.0 * (1.0 - rate * mean))


# Each seed runs 2,500 mean service times and counts the dispatches after
# the first 250: an M/M/1 queue at ρ = 0.8 relaxes in about 90, and these
# queues, with less variable service, no slower.
SEEDS = range(1, 11)
SERVICES_RUN, SERVICES_WARMUP = 2500, 250


@pytest.mark.parametrize("rho", [0.5, 0.8])
@pytest.mark.parametrize("queue", ["M/D/1", "M/G/1"])
def test_mean_queue_delay_is_pollaczek_khinchine(queue, rho):
    if queue == "M/D/1":
        mean, second_moment, pool_id = SERVICE, SERVICE**2, "pool:answer"

        # one call at a time on the infinite-server engine; a batch of one
        # decodes at base_token_time whatever the slope, which makes a batch
        # miscounted as two cost 10% more per token
        def config(seed, rate, duration, warmup):
            return one_llm_stage_config(seed, rate, 1, 0.1, duration, warmup)

    else:
        mean, second_moment, pool_id = TOOL_MEAN, TOOL_SECOND_MOMENT, "pool:lookup"
        config = one_tool_stage_config
    rate = rho / mean
    delays = [
        ss.run(config(seed, rate, SERVICES_RUN * mean, SERVICES_WARMUP * mean)).report.queue_delay_mean[pool_id]
        for seed in SEEDS
    ]
    bound = 4 * statistics.stdev(delays) / math.sqrt(len(delays))
    predicted = pollaczek_khinchine(rate, mean, second_moment)
    # a mean service 10% off, the distribution scaled by 1.1, moves the
    # prediction by more than the bound
    assert pollaczek_khinchine(rate, 1.1 * mean, 1.21 * second_moment) - predicted > bound
    assert statistics.fmean(delays) == pytest.approx(predicted, abs=bound)
