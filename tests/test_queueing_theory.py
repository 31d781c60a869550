"""The simulator against closed-form queueing results.

Every other oracle in the suite is the simulator itself (an older loop, a
fuller sweep, a slower rule), so none of them catches a model that is wrong
the same way everywhere, such as a prefill charged twice.  Here the
prediction comes from outside the simulator.

Only the deterministic case is here: one LLM stage whose engine never
makes a call wait (no prefix, `batch_slope` 0, KV and `max_batch` far
above what the arrivals can fill) is an infinite-server queue, so every
latency is the service time S = prompt / prefill_rate + output *
base_token_time exactly, and every queue delay is 0.
"""

import pytest

import stagesim as ss
from stagesim.engines import EngineParams

PROMPT, OUTPUT = 200, 100
PREFILL_RATE, TOKEN_TIME = 2000.0, 0.02
SERVICE = PROMPT / PREFILL_RATE + OUTPUT * TOKEN_TIME  # 2.1 s


def one_llm_stage_config(seed: int) -> ss.SimConfig:
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
        batch_slope=0.0,
        max_batch=1000,
    )
    return ss.SimConfig(
        workflow=workflow,
        topology=ss.Topology(mode="isolated", llm_engines={"answer": 1}, engine_params=params),
        policy=ss.PolicyConfig(),
        arrival_rate=5.0,
        duration=200.0,
        warmup=0.0,
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
