import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import expected_fixer_invocations, nl2sql_vw, reference_remaining_work
from stagesim.config import build_sim_config
from stagesim.dists import Distribution
from stagesim.workflow import (
    FAILURE,
    LLM,
    SUCCESS,
    TOOL,
    DanglingTransition,
    InvalidStage,
    MissingEstimate,
    Outcome,
    ProbabilityMassError,
    RequestState,
    StageSpec,
    UnboundedCycle,
    UnknownOutcome,
    UnreachableStage,
    UnreachableTerminal,
    WorkflowSpec,
    expected_remaining_work,
    next_step,
    validate_workflow,
)
from stagesim.workloads import EXECUTOR, FIXER, GENERATOR, build_nl2sql

PROMPT = Distribution.constant(100)
OUTPUT = Distribution.constant(50)
SERVICE = Distribution.constant(0.2)


def llm_stage(sid, outcomes, prefix=0):
    return StageSpec(
        stage_id=sid,
        kind=LLM,
        prefix_tokens=prefix,
        prompt_tokens=PROMPT,
        output_tokens=OUTPUT,
        outcomes=tuple(outcomes),
    )


def tool_stage(sid, outcomes):
    return StageSpec(stage_id=sid, kind=TOOL, service_time=SERVICE, outcomes=tuple(outcomes))


def make_spec(stages, entry="a", budget=3):
    return WorkflowSpec(name="t", stages=tuple(stages), entry_stage=entry, retry_budget=budget, slo_seconds=10.0)


def request(vw, stage=None, retries=0):
    return RequestState(0, 0.0, 10.0, stage or vw.entry_stage, retries)


# ----------------------------------------------------------------------
# validation


def test_nl2sql_spec_is_valid():
    vw = validate_workflow(build_nl2sql())
    assert set(vw.stage_ids) == {GENERATOR, EXECUTOR, FIXER}
    assert vw.loop_edges == frozenset({(EXECUTOR, FIXER)})


def test_single_llm_stage_linear_workflow_is_valid():
    vw = validate_workflow(make_spec([llm_stage("a", [Outcome("done", 1.0, SUCCESS)])]))
    assert vw.stage_ids == ("a",)
    assert vw.loop_edges == frozenset()


def test_probability_mass_error():
    bad = make_spec(
        [llm_stage("a", [Outcome("x", 0.5, SUCCESS), Outcome("y", 0.4, SUCCESS)])]
    )
    with pytest.raises(ProbabilityMassError):
        validate_workflow(bad)


def test_dangling_transition():
    bad = make_spec([llm_stage("a", [Outcome("x", 1.0, "ghost")])])
    with pytest.raises(DanglingTransition):
        validate_workflow(bad)


def test_unreachable_success():
    bad = make_spec([llm_stage("a", [Outcome("x", 1.0, FAILURE)])])
    with pytest.raises(UnreachableTerminal):
        validate_workflow(bad)


def test_unreachable_stage():
    bad = make_spec(
        [
            llm_stage("a", [Outcome("x", 1.0, SUCCESS)]),
            llm_stage("orphan", [Outcome("x", 1.0, SUCCESS)]),
        ]
    )
    with pytest.raises(UnreachableStage):
        validate_workflow(bad)


def test_unbounded_cycle():
    # inner cycle c <-> d never passes the loop header b, so the retry
    # budget cannot bound it
    bad = make_spec(
        [
            llm_stage("a", [Outcome("go", 1.0, "b")]),
            llm_stage("b", [Outcome("go", 1.0, "c")]),
            llm_stage("c", [Outcome("deep", 0.5, "d"), Outcome("out", 0.5, SUCCESS)]),
            llm_stage("d", [Outcome("back", 0.5, "c"), Outcome("home", 0.5, "b")]),
        ],
    )
    with pytest.raises(UnboundedCycle):
        validate_workflow(bad)


def gated_cycle_spec():
    return make_spec(
        [
            llm_stage("a", [Outcome("go", 1.0, "b")]),
            tool_stage("b", [Outcome("ok", 0.5, SUCCESS), Outcome("retry", 0.5, "c")]),
            llm_stage("c", [Outcome("fixed", 1.0, "b")]),
        ],
    )


def self_loop_spec():
    return make_spec(
        [llm_stage("a", [Outcome("again", 0.5, "a"), Outcome("done", 0.5, SUCCESS)])]
    )


def test_budget_gated_cycle_is_accepted():
    vw = validate_workflow(gated_cycle_spec())
    assert vw.loop_edges == frozenset({("b", "c")})


def test_self_loop_is_budget_gated():
    vw = validate_workflow(self_loop_spec())
    assert vw.loop_edges == frozenset({("a", "a")})


@pytest.mark.parametrize(
    "mutate",
    [
        # LLM stage carrying a tool service-time distribution
        lambda: make_spec(
            [
                StageSpec(
                    stage_id="a",
                    kind=LLM,
                    prompt_tokens=PROMPT,
                    output_tokens=OUTPUT,
                    service_time=SERVICE,
                    outcomes=(Outcome("x", 1.0, SUCCESS),),
                )
            ]
        ),
        # tool stage with token fields
        lambda: make_spec(
            [
                StageSpec(
                    stage_id="a",
                    kind=TOOL,
                    service_time=SERVICE,
                    prompt_tokens=PROMPT,
                    outcomes=(Outcome("x", 1.0, SUCCESS),),
                )
            ]
        ),
        # missing entry stage
        lambda: make_spec([llm_stage("a", [Outcome("x", 1.0, SUCCESS)])], entry="nope"),
        # negative retry budget
        lambda: make_spec([llm_stage("a", [Outcome("x", 1.0, SUCCESS)])], budget=-1),
        # duplicate stage ids
        lambda: make_spec(
            [
                llm_stage("a", [Outcome("x", 1.0, SUCCESS)]),
                llm_stage("a", [Outcome("x", 1.0, SUCCESS)]),
            ]
        ),
        # negative prefix
        lambda: make_spec([llm_stage("a", [Outcome("x", 1.0, SUCCESS)], prefix=-5)]),
    ],
)
def test_shape_mutations_rejected(mutate):
    with pytest.raises(InvalidStage):
        validate_workflow(mutate())


# ----------------------------------------------------------------------
# next_step


def test_executor_success_finishes():
    vw = nl2sql_vw()
    st = request(vw, EXECUTOR)
    tr = next_step(st, "success", vw)
    assert tr.is_done and tr.terminal == SUCCESS


def test_budget_exhaustion_overrides_loop_edge():
    vw = nl2sql_vw(retry_budget=3)
    st = request(vw, EXECUTOR, retries=3)
    tr = next_step(st, "syntax_err", vw)
    assert tr.is_done and tr.terminal == FAILURE


def test_loop_edge_increments_retries():
    vw = nl2sql_vw(retry_budget=3)
    tr = next_step(request(vw, EXECUTOR, retries=0), "syntax_err", vw)
    assert not tr.is_done
    assert tr.next_stage == FIXER
    assert tr.retries_used == 1


def test_non_loop_edge_keeps_retries():
    vw = nl2sql_vw()
    tr = next_step(request(vw, GENERATOR, retries=2), "generated", vw)
    assert tr.next_stage == EXECUTOR and tr.retries_used == 2
    tr = next_step(request(vw, FIXER, retries=2), "fixed", vw)
    assert tr.next_stage == EXECUTOR and tr.retries_used == 2


def test_unknown_outcome():
    vw = nl2sql_vw()
    with pytest.raises(UnknownOutcome):
        next_step(request(vw, EXECUTOR), "segfault", vw)


def test_next_step_on_terminal_rejected():
    vw = nl2sql_vw()
    with pytest.raises(ValueError):
        next_step(RequestState(0, 0.0, 1.0, SUCCESS), "x", vw)


def test_retries_never_exceed_budget():
    # random walks through the graph can never push retries past the budget
    vw = nl2sql_vw(retry_budget=2)
    rng = random.Random(0)
    for _ in range(300):
        st = request(vw)
        while True:
            stage = vw.stage(st.current_stage)
            labels = [o.label for o in stage.outcomes if o.prob > 0]
            tr = next_step(st, rng.choice(labels), vw)
            assert tr.retries_used <= vw.retry_budget
            if tr.is_done:
                break
            st.current_stage = tr.next_stage
            st.retries_used = tr.retries_used


# ----------------------------------------------------------------------
# expected_fixer_invocations


def enum_fixer_invocations(p: float, budget: int) -> float:
    """Oracle: exhaustive tree sum over attempt outcome sequences."""

    def walk(fixes_done: int, prob: float) -> float:
        # one execution attempt: succeeds with 1-p, else a fix happens
        # (if budget remains) and we recurse
        if fixes_done == budget:
            return 0.0
        return prob * p * 1.0 + walk(fixes_done + 1, prob * p)

    return walk(0, 1.0)


def test_never_fails():
    assert expected_fixer_invocations(0.0, 5) == 0.0


def test_always_fails_budget_capped():
    assert expected_fixer_invocations(1.0, 3) == 3.0


def test_half_fail_budget_two():
    oracle = enum_fixer_invocations(0.5, 2)
    assert oracle == pytest.approx(0.75, abs=1e-12)
    assert expected_fixer_invocations(0.5, 2) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("budget", [0, 1, 2, 4])
def test_matches_enumeration_oracle(p, budget):
    assert expected_fixer_invocations(p, budget) == pytest.approx(
        enum_fixer_invocations(p, budget), abs=1e-12
    )


def test_monotone_in_p_and_budget():
    grid = [i / 10 for i in range(11)]
    for budget in range(5):
        vals = [expected_fixer_invocations(p, budget) for p in grid]
        assert vals == sorted(vals)
    for p in grid:
        vals = [expected_fixer_invocations(p, b) for b in range(6)]
        assert vals == sorted(vals)


def test_domain_errors():
    with pytest.raises(ValueError):
        expected_fixer_invocations(-0.1, 1)
    with pytest.raises(ValueError):
        expected_fixer_invocations(0.5, -1)


# ----------------------------------------------------------------------
# expected_remaining_work


def enum_remaining_work(vw, stage_id, retries, estimates):
    """Oracle: enumerate every outcome path to a terminal, summing
    probability-weighted costs (no memoization, unlike the implementation)."""
    total = 0.0
    frontier = [(stage_id, retries, 1.0, 0.0)]
    while frontier:
        sid, r, prob, cost = frontier.pop()
        if sid in (SUCCESS, FAILURE):
            total += prob * cost
            continue
        stage = vw.stage(sid)
        cost += estimates[sid]
        for out in stage.outcomes:
            if out.prob == 0.0:
                continue
            target = out.next
            if target in (SUCCESS, FAILURE):
                frontier.append((target, r, prob * out.prob, cost))
            elif vw.is_loop_edge(sid, target):
                if r >= vw.retry_budget:
                    frontier.append((FAILURE, r, prob * out.prob, cost))
                else:
                    frontier.append((target, r + 1, prob * out.prob, cost))
            else:
                frontier.append((target, r, prob * out.prob, cost))
    return total


EST = {GENERATOR: 2.0, EXECUTOR: 1.0, FIXER: 1.0}


def test_terminal_state_has_no_work():
    vw = nl2sql_vw()
    table = expected_remaining_work(vw, EST)
    for retries in range(vw.retry_budget + 1):
        assert table[(SUCCESS, retries)] == table[(FAILURE, retries)] == 0.0


def test_no_loop_mass():
    vw = nl2sql_vw(p_fail=0.0)
    assert expected_remaining_work(vw, {GENERATOR: 2.0, EXECUTOR: 1.0, FIXER: 1.0})[(EXECUTOR, 0)] == 1.0


def test_generator_with_one_retry():
    vw = nl2sql_vw(p_fail=0.5, retry_budget=1)
    oracle = enum_remaining_work(vw, GENERATOR, 0, EST)
    assert oracle == pytest.approx(4.0, abs=1e-12)
    assert expected_remaining_work(vw, EST)[(GENERATOR, 0)] == pytest.approx(4.0, abs=1e-12)


def test_matches_enumeration_on_default_workflow():
    vw = nl2sql_vw()
    table = expected_remaining_work(vw, EST)
    positions = {(sid, r) for sid in (*vw.stage_ids, SUCCESS, FAILURE) for r in range(vw.retry_budget + 1)}
    assert set(table) == positions
    for sid in vw.stage_ids:
        for retries in range(vw.retry_budget + 1):
            want = enum_remaining_work(vw, sid, retries, EST)
            assert table[(sid, retries)] == pytest.approx(want, abs=1e-9)


def test_missing_estimate():
    vw = nl2sql_vw()
    with pytest.raises(MissingEstimate):
        expected_remaining_work(vw, {GENERATOR: 1.0})


def test_selectivity_is_terminal_outcome_mass():
    vw = nl2sql_vw(p_fail=0.3)
    assert vw.selectivity(EXECUTOR) == pytest.approx(0.7)
    assert vw.selectivity(GENERATOR) == 0.0
    assert vw.selectivity(FIXER) == 0.0


PLAN_WORKFLOWS = {
    "nl2sql": lambda: nl2sql_vw(),
    "nl2sql_budget_0": lambda: nl2sql_vw(retry_budget=0),
    "nl2sql_budget_5_p_0.9": lambda: nl2sql_vw(p_fail=0.9, retry_budget=5),
    "nl2sql_no_failures": lambda: nl2sql_vw(p_fail=0.0),
    # two loop edges of different mass into the fixer: their terms must be
    # added in outcome order
    "nl2sql_uneven_failures": lambda: nl2sql_vw(p_fail=0.45, p_syntax_err=0.1),
    "gated_cycle": lambda: validate_workflow(gated_cycle_spec()),
    "self_loop": lambda: validate_workflow(self_loop_spec()),
}


@pytest.mark.parametrize("name", sorted(PLAN_WORKFLOWS))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=3, max_size=3))
def test_compiled_plan_matches_memo_recursion_exactly(name, values):
    vw = PLAN_WORKFLOWS[name]()
    estimates = dict(zip(vw.stage_ids, values))
    # the same floats, for the same keys, in the same order
    want = reference_remaining_work(vw, estimates)
    assert list(expected_remaining_work(vw, estimates).items()) == list(want.items())


def to_config(value):
    """`value` as config JSON, field by field: dataclasses as mappings keyed
    by their field names, distributions by their spec, tuples as lists."""
    if isinstance(value, Distribution):
        return value.to_spec()
    if dataclasses.is_dataclass(value):
        return {f.name: to_config(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [to_config(v) for v in value]
    return value


@pytest.mark.parametrize("name", sorted(PLAN_WORKFLOWS))
def test_inline_workflow_keys_are_field_names(name):
    spec = PLAN_WORKFLOWS[name]().spec
    tree = {
        "workflow": {"inline": json.loads(json.dumps(to_config(spec)))},
        "topology": {"mode": "shared", "llm_engines_total": 1},
        "arrivals": {"rate": 1.0},
        "duration": 10.0,
    }
    assert build_sim_config(tree).workflow.spec == spec
