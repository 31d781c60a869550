import re

import pytest

import stagesim as ss
from helpers import RetainingSimulator, engine_params, nl2sql_vw, run_config_tree, sim_config
from stagesim.config import build_sim_config
from stagesim.dists import Distribution
from stagesim.errors import ConfigError
from stagesim.scheduling import POLICY_KINDS, dispatch_key
from stagesim.workflow import FAILURE, LLM, SUCCESS, TOOL, validate_workflow
from stagesim.workloads import (
    EXECUTOR,
    FIXER,
    GENERATOR,
    Nl2SqlParams,
    Topology,
    build_nl2sql,
    derive_service_estimates,
)


# ----------------------------------------------------------------------
# workflow builder


def test_default_spec_shape():
    spec = build_nl2sql()
    assert [s.stage_id for s in spec.stages] == [GENERATOR, EXECUTOR, FIXER]
    kinds = {s.stage_id: s.kind for s in spec.stages}
    assert kinds == {GENERATOR: LLM, EXECUTOR: TOOL, FIXER: LLM}
    vw = validate_workflow(spec)
    assert vw.loop_edges == frozenset({(EXECUTOR, FIXER)})


def test_each_failure_outcome_has_half_of_p_fail():
    p_fail = 0.3
    executor = build_nl2sql(Nl2SqlParams(p_fail=p_fail)).stages[1]
    assert executor.stage_id == EXECUTOR
    assert [(o.label, o.prob, o.next) for o in executor.outcomes] == [
        ("success", 1.0 - p_fail, SUCCESS),
        ("syntax_err", p_fail / 2, FIXER),
        ("empty_result", p_fail / 2, FIXER),
    ]
    # the config builds the same workflow; neither a failure split nor a
    # topology preset is a config key
    def params_tree(**params):
        return run_config_tree(workflow={"preset": "nl2sql", "params": params})

    assert build_sim_config(params_tree(p_fail=p_fail)).workflow.spec == build_nl2sql(Nl2SqlParams(p_fail=p_fail))
    for key, tree in (
        ("topology.preset", run_config_tree(topology={"preset": "nl2sql-isolated"})),
        ("workflow.params.p_syntax_err", params_tree(p_syntax_err=0.1)),
        ("workflow.params.p_empty_result", params_tree(p_empty_result=0.1)),
    ):
        with pytest.raises(ConfigError, match=f"^unknown key '{re.escape(key)}'$"):
            build_sim_config(tree)


def test_p_fail_zero_never_reaches_fixer():
    cfg = sim_config(vw=nl2sql_vw(p_fail=0.0), rate=2.0, duration=30.0, warmup=0.0, seed=3)
    result = ss.run(cfg)
    assert result.report.completed > 0
    assert all(d.stage_id != FIXER for d in result.traces.dispatches)
    assert result.report.failed_budget == 0


def test_budget_zero_always_fail_one_executor_attempt():
    # with no budget a failed execution never reaches the fixer (an executor
    # that always fails could never succeed, and fails validation)
    vw = nl2sql_vw(p_fail=0.9, retry_budget=0)
    cfg = sim_config(vw=vw, rate=1.0, duration=40.0, warmup=0.0, seed=3)
    failed = [r for r in ss.run(cfg).traces.requests if r.outcome == FAILURE]
    assert failed, "no request failed"
    for record in failed:
        assert record.n_stage_calls == 2  # generator + one executor attempt
        assert record.retries_used == 0


# ----------------------------------------------------------------------
# pool layout


def test_isolated_topology_layout():
    pools = Topology(mode="isolated", llm_engines={GENERATOR: 1, FIXER: 1}).pools(nl2sql_vw())
    ids = [p.pool_id for p in pools]
    assert ids == [f"pool:{GENERATOR}", f"pool:{FIXER}", f"pool:{EXECUTOR}"]
    assert sum(p.n_engines for p in pools) == 2
    kinds = {p.pool_id: p.kind for p in pools}
    assert kinds[f"pool:{EXECUTOR}"] == TOOL


def test_shared_topology_layout():
    pools = Topology(mode="shared", llm_engines={GENERATOR: 1, FIXER: 1}).pools(nl2sql_vw())
    llm_pools = [p for p in pools if p.kind == LLM]
    assert len(llm_pools) == 1
    assert llm_pools[0].pool_id == "pool:llm"
    assert set(llm_pools[0].stage_ids) == {GENERATOR, FIXER}
    assert llm_pools[0].n_engines == 2


def test_zero_engine_pool_rejected():
    vw = nl2sql_vw()
    with pytest.raises(ConfigError):
        Topology(mode="isolated", llm_engines={GENERATOR: 1}).pools(vw)
    with pytest.raises(ConfigError):
        Topology(mode="shared", llm_engines={GENERATOR: 0, FIXER: 0}).pools(vw)
    with pytest.raises(ConfigError):  # a negative count cannot be made up by another stage's
        Topology(mode="shared", llm_engines={GENERATOR: -1, FIXER: 3}).pools(vw)


def test_tool_pool_identical_across_modes():
    vw = nl2sql_vw()
    iso = Topology(mode="isolated", llm_engines={GENERATOR: 1, FIXER: 1}).pools(vw)
    shared = Topology(mode="shared", llm_engines={GENERATOR: 1, FIXER: 1}).pools(vw)
    tool_iso = next(p for p in iso if p.kind == TOOL)
    tool_shared = next(p for p in shared if p.kind == TOOL)
    assert tool_iso == tool_shared


def test_engine_overrides_only_isolated():
    vw = nl2sql_vw()
    override = {FIXER: engine_params(base_token_time=0.08)}
    pools = Topology(mode="isolated", llm_engines={GENERATOR: 1, FIXER: 1}, engine_overrides=override).pools(vw)
    fixer_pool = next(p for p in pools if p.stage_ids == (FIXER,))
    assert fixer_pool.engine_params.base_token_time == 0.08
    with pytest.raises(ConfigError):
        Topology(mode="shared", llm_engines={GENERATOR: 1, FIXER: 1}, engine_overrides=override).pools(vw)


# ----------------------------------------------------------------------
# baseline policies


def test_fcfs_orders_by_arrival():
    assert dispatch_key("fcfs", 3, 9.0, 0.0) < dispatch_key("fcfs", 7, 0.0, -5.0)


def test_las_orders_by_attained_service():
    assert dispatch_key("las", 9, 0.2, 5.0) < dispatch_key("las", 1, 1.5, -5.0)


def test_las_tie_breaks_by_arrival():
    assert dispatch_key("las", 1, 0.5, 5.0) < dispatch_key("las", 2, 0.5, -5.0)


def test_slack_policy_delegates_to_priority_key():
    assert dispatch_key("slack", 4, 9.0, 1.0) == (1.0, 4.0)


def test_unknown_policy_kind_rejected():
    for kind in POLICY_KINDS:
        sim_config(policy=ss.PolicyConfig(kind=kind)).validate()
    with pytest.raises(ConfigError):
        sim_config(policy=ss.PolicyConfig(kind="priority")).validate()
    with pytest.raises(ConfigError):
        build_sim_config(run_config_tree(policy={"kind": "priority"}))


# ----------------------------------------------------------------------
# estimates


def test_derived_estimates():
    vw = nl2sql_vw()
    pools = Topology(mode="isolated", llm_engines={GENERATOR: 1, FIXER: 1}).pools(vw)
    est = derive_service_estimates(vw, pools)
    # prompt mean 200 at 5000 tok/s plus output mean 100 at 0.02 s/tok
    assert est[GENERATOR] == pytest.approx(200 / 5000 + 100 * 0.02)
    assert est[FIXER] == est[GENERATOR]
    assert est[EXECUTOR] == pytest.approx(0.25)


def test_derived_estimates_use_pool_overrides():
    vw = nl2sql_vw()
    topology = Topology(
        mode="isolated",
        llm_engines={GENERATOR: 1, FIXER: 1},
        engine_overrides={FIXER: engine_params(base_token_time=0.08)},
    )
    est = derive_service_estimates(vw, topology.pools(vw))
    assert est[FIXER] == pytest.approx(200 / 5000 + 100 * 0.08)


# ----------------------------------------------------------------------
# paired comparisons


def test_paired_topologies_see_identical_randomness():
    iso_sim = RetainingSimulator(sim_config(mode="isolated", rate=1.5, duration=40.0, warmup=0.0, seed=33))
    iso = iso_sim.run()
    shared_sim = RetainingSimulator(sim_config(mode="shared", rate=1.5, duration=40.0, warmup=0.0, seed=33))
    shared = shared_sim.run()

    assert {r.arrival_time for r in iso_sim.all_requests.values()} == {
        r.arrival_time for r in shared_sim.all_requests.values()
    }
    done_iso = {r.request_id: r for r in iso.traces.requests}
    done_shared = {r.request_id: r for r in shared.traces.requests}
    common = set(done_iso) & set(done_shared)
    assert common
    for rid in common:
        assert done_iso[rid].outcome == done_shared[rid].outcome
        assert done_iso[rid].retries_used == done_shared[rid].retries_used
        assert done_iso[rid].n_stage_calls == done_shared[rid].n_stage_calls


def test_shared_fcfs_engines_end_up_with_both_prefixes():
    policy = ss.PolicyConfig(kind="fcfs")
    cfg = sim_config(mode="shared", policy=policy, rate=2.5, duration=40.0, warmup=0.0, seed=7)
    result = ss.run(cfg)
    final = {}
    for sample in result.traces.kv_samples:
        final[sample.engine_id] = sample.resident_prefix_tokens
    assert set(final.values()) == {2000}, f"expected duplicated prefixes, got {final}"
