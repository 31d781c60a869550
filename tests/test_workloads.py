import pytest

import stagesim as ss
from helpers import RetainingSimulator, engine_params, nl2sql_vw, run_config_tree, sim_config
from stagesim.config import build_sim_config
from stagesim.dists import Distribution
from stagesim.errors import ConfigError
from stagesim.scheduling import POLICY_KINDS, dispatch_key
from stagesim.workflow import FAILURE, LLM, TOOL, validate_workflow
from stagesim.workloads import (
    EXECUTOR,
    FIXER,
    GENERATOR,
    Nl2SqlParams,
    TopologyPreset,
    build_nl2sql,
    build_topology,
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


def test_failure_split_must_sum_to_p_fail():
    with pytest.raises(ConfigError):
        Nl2SqlParams(p_fail=0.5, p_syntax_err=0.4, p_empty_result=0.2)


def nl2sql_tree_spec(params):
    return build_sim_config(run_config_tree(workflow={"preset": "nl2sql", "params": params})).workflow.spec


def test_failure_split_defaults_to_the_rest_of_p_fail():
    # the library and the config split p_fail by one rule: half each when
    # neither split is given, the rest of p_fail when one is
    halves = Nl2SqlParams(p_fail=0.3)
    assert halves.p_syntax_err == halves.p_empty_result == 0.3 / 2
    assert build_nl2sql(halves) == nl2sql_tree_spec({"p_fail": 0.3})
    rest = Nl2SqlParams(p_fail=0.3, p_syntax_err=0.1)
    assert rest.p_empty_result == 0.3 - 0.1
    assert build_nl2sql(rest) == nl2sql_tree_spec({"p_fail": 0.3, "p_syntax_err": 0.1})
    assert Nl2SqlParams(p_empty_result=0.4).p_syntax_err == 0.5 - 0.4
    assert Nl2SqlParams() == Nl2SqlParams(p_syntax_err=0.25, p_empty_result=0.25)
    with pytest.raises(ConfigError):
        Nl2SqlParams(p_fail=0.3, p_syntax_err=0.4)


def test_p_fail_zero_never_reaches_fixer():
    cfg = sim_config(vw=nl2sql_vw(p_fail=0.0), rate=2.0, duration=30.0, warmup=0.0, seed=3)
    result = ss.run(cfg)
    assert result.report.completed > 0
    assert all(d.stage_id != FIXER for d in result.traces.dispatches)
    assert result.report.failed_budget == 0


def test_budget_zero_always_fail_one_executor_attempt():
    vw = nl2sql_vw(p_fail=1.0, retry_budget=0)
    cfg = sim_config(vw=vw, rate=1.0, duration=40.0, warmup=0.0, seed=3)
    result = ss.run(cfg)
    assert result.traces.requests, "no request finished"
    for record in result.traces.requests:
        assert record.outcome == FAILURE
        assert record.n_stage_calls == 2  # generator + one executor attempt
        assert record.retries_used == 0


# ----------------------------------------------------------------------
# topology builder


def test_isolated_topology_layout():
    vw = nl2sql_vw()
    topo = build_topology(
        TopologyPreset(mode="isolated", llm_engines={GENERATOR: 1, FIXER: 1}), vw
    )
    ids = [p.pool_id for p in topo.pools]
    assert ids == [f"pool:{GENERATOR}", f"pool:{FIXER}", f"pool:{EXECUTOR}"]
    assert topo.llm_engine_total() == 2
    kinds = {p.pool_id: p.kind for p in topo.pools}
    assert kinds[f"pool:{EXECUTOR}"] == TOOL


def test_shared_topology_layout():
    vw = nl2sql_vw()
    topo = build_topology(TopologyPreset(mode="shared", llm_engines_total=2), vw)
    llm_pools = [p for p in topo.pools if p.kind == LLM]
    assert len(llm_pools) == 1
    assert set(llm_pools[0].stage_ids) == {GENERATOR, FIXER}
    assert llm_pools[0].n_engines == 2


def test_zero_engine_pool_rejected():
    vw = nl2sql_vw()
    with pytest.raises(ConfigError):
        build_topology(TopologyPreset(mode="isolated", llm_engines={GENERATOR: 1}), vw)
    with pytest.raises(ConfigError):
        build_topology(TopologyPreset(mode="shared", llm_engines_total=0), vw)


def test_tool_pool_identical_across_modes():
    vw = nl2sql_vw()
    iso = build_topology(
        TopologyPreset(mode="isolated", llm_engines={GENERATOR: 1, FIXER: 1}), vw
    )
    shared = build_topology(TopologyPreset(mode="shared", llm_engines_total=2), vw)
    tool_iso = next(p for p in iso.pools if p.kind == TOOL)
    tool_shared = next(p for p in shared.pools if p.kind == TOOL)
    assert tool_iso == tool_shared


def test_engine_overrides_only_isolated():
    vw = nl2sql_vw()
    override = {FIXER: engine_params(base_token_time=0.08)}
    topo = build_topology(
        TopologyPreset(
            mode="isolated",
            llm_engines={GENERATOR: 1, FIXER: 1},
            engine_overrides=override,
        ),
        vw,
    )
    fixer_pool = next(p for p in topo.pools if p.stage_ids == (FIXER,))
    assert fixer_pool.engine_params.base_token_time == 0.08
    with pytest.raises(ConfigError):
        build_topology(
            TopologyPreset(mode="shared", llm_engines_total=2, engine_overrides=override), vw
        )


# ----------------------------------------------------------------------
# baseline policies


def test_fcfs_orders_by_arrival():
    assert dispatch_key("fcfs", 3, 9.0, 0.0, 1.0) < dispatch_key("fcfs", 7, 0.0, -5.0, 0.1)


def test_las_orders_by_attained_service():
    assert dispatch_key("las", 9, 0.2, 5.0, 1.0) < dispatch_key("las", 1, 1.5, -5.0, 0.1)


def test_las_tie_breaks_by_arrival():
    assert dispatch_key("las", 1, 0.5, 5.0, 1.0) < dispatch_key("las", 2, 0.5, -5.0, 0.1)


def test_slack_policy_delegates_to_priority_key():
    assert dispatch_key("slack", 4, 9.0, 1.0, 0.5) == (1.0, 0.5, 4.0)
    assert dispatch_key("slack", 4, 9.0, 1.0, 0.5, selectivity=0.25) == (1.0, 0.5, -0.25, 4.0)


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
    topo = build_topology(
        TopologyPreset(mode="isolated", llm_engines={GENERATOR: 1, FIXER: 1}), vw
    )
    est = derive_service_estimates(vw, topo)
    # prompt mean 200 at 5000 tok/s plus output mean 100 at 0.02 s/tok
    assert est[GENERATOR] == pytest.approx(200 / 5000 + 100 * 0.02)
    assert est[FIXER] == est[GENERATOR]
    assert est[EXECUTOR] == pytest.approx(0.25)


def test_derived_estimates_use_pool_overrides():
    vw = nl2sql_vw()
    topo = build_topology(
        TopologyPreset(
            mode="isolated",
            llm_engines={GENERATOR: 1, FIXER: 1},
            engine_overrides={FIXER: engine_params(base_token_time=0.08)},
        ),
        vw,
    )
    est = derive_service_estimates(vw, topo)
    assert est[FIXER] == pytest.approx(200 / 5000 + 100 * 0.08)


# ----------------------------------------------------------------------
# paired comparisons


def test_paired_topologies_see_identical_randomness():
    iso_sim = RetainingSimulator(sim_config(mode="isolated", rate=1.5, duration=40.0, warmup=0.0, seed=33))
    iso = iso_sim.run()
    shared_sim = RetainingSimulator(sim_config(mode="shared", rate=1.5, duration=40.0, warmup=0.0, seed=33))
    shared = shared_sim.run()

    assert {r.state.arrival_time for r in iso_sim.all_requests.values()} == {
        r.state.arrival_time for r in shared_sim.all_requests.values()
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
