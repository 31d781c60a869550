"""Every fast path of `Simulator` at once, against `NaiveSimulator`.

`NaiveSimulator` (tests/helpers.py) runs each rule the simulator speeds up
the slow, obvious way: every engine advanced and every pool integrated at
every event, a full recount after every event, every queued pool offered
with a full sort of its queue, the eviction fallback run wherever routing
fails, superseded completions processed, and the completion pick as a
`min`.  Its recount also checks what the shipped check trusts: that each
live request's stage call is held exactly once, the shape of each pool's
class queues, the engines' id order and whom each engine serves.
`assert_same_run` requires both to make the same decisions, so a fault
that shows only where two fast paths interact fails here.  The generated
set below crosses the topology, the policy and each mechanism on and off,
and a coverage test requires that the naive runs saw every mechanism act,
so the comparison cannot pass by having nothing to compare.
"""

import functools
from collections import Counter

import pytest

import stagesim as ss
from helpers import assert_same_run, engine_params, nl2sql_vw, sim_config

# slack twice, with the two blocks of mixes below, so that it sees all
# eight mixes in each topology; config names stay unique by their seeds
KINDS = ("fcfs", "las", "slack", "slack")
FLAGS = ("online", "borrow", "autoscale", "admission")
# the eight on/off mixes of FLAGS with an even number on, in two blocks of
# four in which each flag is on twice
BLOCKS = (
    ((), ("online", "borrow"), ("autoscale", "admission"), FLAGS),
    (("online", "autoscale"), ("borrow", "autoscale"), ("online", "admission"), ("borrow", "admission")),
)
# two (engines, rate, SLO seconds) settings on KV-bound engines, as in
# configs/nl2sql_compare.json: prefixes compete for KV, queues build up.
# No latency in a 30 s run after a 2 s warmup reaches the 30 s SLO, so the
# second setting's 10 s SLO is the one under which requests violate it.
SETTINGS = (((1, 2), 3.0, 30.0), ((2, 2), 4.0, 10.0))
PARAMS = engine_params(kv_capacity_tokens=3200, max_batch=6)


def generated_configs() -> dict[str, ss.SimConfig]:
    """Each topology and policy kind with one block of mixes, so that each
    kind sees all eight mixes over the two topologies and, in each, each
    flag on and off twice; the two settings alternate.  32 runs of 30 s,
    and four more."""
    configs = {}
    for m, mode in enumerate(("isolated", "shared")):
        for k, kind in enumerate(KINDS):
            for j, on in enumerate(BLOCKS[(m + k) % 2]):
                engines, rate, slo = SETTINGS[j % 2]
                policy = ss.PolicyConfig(
                    kind=kind,
                    online_estimates="online" in on,
                    borrow=ss.BorrowConfig(enabled="borrow" in on),
                    autoscale=ss.AutoscaleConfig(enabled="autoscale" in on, max_engines=4),
                    admission=ss.AdmissionConfig(enabled="admission" in on, max_queue_len=8),
                )
                seed = len(configs) + 1
                name = "-".join((mode, kind, *on, f"seed{seed}"))
                configs[name] = sim_config(
                    vw=nl2sql_vw(slo_seconds=slo),
                    mode=mode,
                    engines=engines,
                    params=PARAMS,
                    policy=policy,
                    rate=rate,
                    duration=30.0,
                    warmup=2.0,
                    seed=seed,
                )
    # a version change alone reorders a blocked shared queue and unblocks
    # it: the one config here on which a pool not offered again after an
    # estimate change places a call late
    configs["shared-slack-online-reorder-seed7"] = sim_config(
        vw=nl2sql_vw(p_fail=0.8),
        mode="shared",
        engines=(1, 2),
        params=engine_params(kv_capacity_tokens=3200, prefill_rate=2000.0, max_batch=12),
        policy=ss.PolicyConfig(online_estimates=True),
        rate=2.0,
        duration=30.0,
        warmup=2.0,
        seed=7,
    )
    # one executor slot that stays full while online estimates change the
    # keys queued behind it
    configs["isolated-slack-online-tool1-seed4"] = sim_config(
        policy=ss.PolicyConfig(online_estimates=True),
        tool_concurrency=1,
        rate=3.0,
        duration=30.0,
        warmup=2.0,
        seed=4,
    )
    # KV-bound engines that borrow and return under online estimates
    configs["isolated-slack-online-borrow-seed5"] = sim_config(
        engines=(2, 3),
        params=engine_params(kv_capacity_tokens=3200, prefill_rate=2000.0, max_batch=12),
        policy=ss.PolicyConfig(
            online_estimates=True, borrow=ss.BorrowConfig(enabled=True, util_low=0.4, util_high=0.6)
        ),
        rate=2.5,
        duration=30.0,
        warmup=2.0,
        seed=5,
    )
    # a generator queue that grows without bound while every completion
    # changes the estimates
    configs["isolated-slack-online-overload-seed4"] = sim_config(
        policy=ss.PolicyConfig(online_estimates=True), rate=4.0, duration=30.0, warmup=2.0, seed=4
    )
    return configs


GENERATED = generated_configs()


@functools.cache
def seen(name: str) -> dict[str, int]:
    """What the naive run of generated config `name` saw, once it matched
    the shipped run."""
    config = GENERATED[name]
    _, naive = assert_same_run(config)
    audit = naive.audit
    violated = Counter(
        rec.outcome == ss.SUCCESS for rec in naive.traces.requests if rec.violated_slo and rec.arrival >= config.warmup
    )
    return {
        "borrow": len(audit.borrows),
        "return": len(audit.returns),
        "scale-out": sum(1 for _, _, step in audit.scale_events if step > 0),
        "scale-in": sum(1 for _, _, step in audit.scale_events if step < 0),
        "prefix eviction": naive.evictions,
        "admission reject": naive.rejected,
        "superseded completion": naive.superseded,
        "selection over three or more classes": int(naive.most_classes >= 3),
        "blocked pool head": naive.blocked,
        "full tool pool with calls queued": naive.full_tool_pools,
        "failed route whose fallback the early-out skipped": naive.skipped_fallbacks,
        "SLO violation by a completed request": violated[True],
        "SLO violation by a failed request": violated[False],
    }


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_same_run_as_the_naive_simulator(name):
    seen(name)


def test_generated_set_sees_every_mechanism():
    # reuses the runs above when they ran first in this process
    totals = Counter()
    for name in GENERATED:
        totals.update(seen(name))
    assert all(totals.values()), totals
