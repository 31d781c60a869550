import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    QUOTED_LLM,
    QUOTED_WORKFLOW,
    enum_fixer_invocations,
    expected_fixer_invocations,
    nl2sql_vw,
    occupiable_states,
    reference_next_step,
    reference_remaining_work,
    reference_success_reachable,
    run_config_tree,
)
from stagesim.config import build_sim_config
from stagesim.dists import Distribution
from stagesim.workflow import (
    FAILURE,
    LLM,
    SUCCESS,
    TERMINALS,
    TOOL,
    DanglingTransition,
    InvalidStage,
    MissingEstimate,
    Outcome,
    ProbabilityMassError,
    StageSpec,
    UnboundedCycle,
    UnknownOutcome,
    UnreachableStage,
    UnreachableTerminal,
    ValidatedWorkflow,
    WorkflowSpec,
    _adjacency,
    _loop_edges,
    expected_remaining_work,
    next_step,
    validate_workflow,
)
from stagesim.workloads import EXECUTOR, FIXER, GENERATOR, Nl2SqlParams, build_nl2sql

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


def loop_stages():
    """Success only past the loop edge a -> b."""
    return [
        tool_stage("a", [Outcome("go", 1.0, "b")]),
        tool_stage("b", [Outcome("again", 0.5, "a"), Outcome("ok", 0.5, SUCCESS)]),
    ]


def no_success_specs():
    """Specs under which no request can succeed: only Failure is reachable;
    Success only behind a zero-probability outcome; Success only past a loop
    edge with no retry budget; nl2sql whose executor always fails."""
    return {
        "only_failure": make_spec([llm_stage("a", [Outcome("x", 1.0, FAILURE)])]),
        "zero_prob_success": make_spec([llm_stage("a", [Outcome("ok", 0.0, SUCCESS), Outcome("bad", 1.0, FAILURE)])]),
        "loop_without_budget": make_spec(loop_stages(), budget=0),
        "nl2sql_always_fails": build_nl2sql(Nl2SqlParams(p_fail=1.0)),
    }


def test_unreachable_success():
    with pytest.raises(UnreachableTerminal):
        validate_workflow(no_success_specs()["only_failure"])


def test_success_must_be_reachable_as_requests_move():
    # an edge to Success is not enough: no request takes a zero-probability
    # outcome, nor a loop edge once the retry budget is spent
    assert validate_workflow(make_spec(loop_stages(), budget=1)).loop_edges == frozenset({("a", "b")})
    for name in ("zero_prob_success", "loop_without_budget", "nl2sql_always_fails"):
        with pytest.raises(UnreachableTerminal):
            validate_workflow(no_success_specs()[name])


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


@pytest.mark.parametrize(
    "stages",
    [
        # c -> d -> e -> c inside the group {b, c, d, e} avoids its header b
        [
            llm_stage("a", [Outcome("go", 1.0, "b")]),
            llm_stage("b", [Outcome("go", 0.5, "c"), Outcome("out", 0.5, SUCCESS)]),
            llm_stage("c", [Outcome("go", 1.0, "d")]),
            llm_stage("d", [Outcome("go", 0.5, "e"), Outcome("home", 0.5, "b")]),
            llm_stage("e", [Outcome("back", 1.0, "c")]),
        ],
        # a self-loop on c, which is in the group {b, c} but is not its
        # header b
        [
            llm_stage("a", [Outcome("go", 1.0, "b")]),
            tool_stage("b", [Outcome("ok", 0.5, SUCCESS), Outcome("retry", 0.5, "c")]),
            llm_stage("c", [Outcome("again", 0.5, "c"), Outcome("fixed", 0.5, "b")]),
        ],
    ],
    ids=["cycle-off-header", "self-loop-off-header"],
)
def test_cycle_that_avoids_the_header_is_unbounded(stages):
    # the retry budget is charged on the header's edges only
    with pytest.raises(UnboundedCycle):
        validate_workflow(make_spec(stages))


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


def uneven_failures_spec():
    """The gated cycle with two loop edges of unequal mass into the fixer."""
    return make_spec(
        [
            llm_stage("a", [Outcome("go", 1.0, "b")]),
            tool_stage("b", [Outcome("ok", 0.55, SUCCESS), Outcome("err", 0.1, "c"), Outcome("empty", 0.35, "c")]),
            llm_stage("c", [Outcome("fixed", 1.0, "b")]),
        ],
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


@pytest.mark.parametrize("slo", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_slo_must_be_positive_and_finite(slo):
    # a NaN SLO would start every slack key with NaN and read as never violated
    spec = dataclasses.replace(make_spec([llm_stage("a", [Outcome("x", 1.0, SUCCESS)])]), slo_seconds=slo)
    with pytest.raises(InvalidStage, match="slo_seconds"):
        validate_workflow(spec)


# ----------------------------------------------------------------------
# next_step


def test_executor_success_finishes():
    vw = nl2sql_vw()
    assert next_step(EXECUTOR, 0, "success", vw) == (SUCCESS, 0)


def test_budget_exhaustion_overrides_loop_edge():
    vw = nl2sql_vw(retry_budget=3)
    assert next_step(EXECUTOR, 3, "syntax_err", vw) == (FAILURE, 3)


def test_loop_edge_increments_retries():
    vw = nl2sql_vw(retry_budget=3)
    assert next_step(EXECUTOR, 0, "syntax_err", vw) == (FIXER, 1)


def test_non_loop_edge_keeps_retries():
    vw = nl2sql_vw()
    assert next_step(GENERATOR, 2, "generated", vw) == (EXECUTOR, 2)
    assert next_step(FIXER, 2, "fixed", vw) == (EXECUTOR, 2)


def test_unknown_outcome():
    vw = nl2sql_vw()
    with pytest.raises(UnknownOutcome):
        next_step(EXECUTOR, 0, "segfault", vw)


def test_next_step_on_terminal_rejected():
    vw = nl2sql_vw()
    with pytest.raises(ValueError):
        next_step(SUCCESS, 0, "x", vw)


def test_retries_never_exceed_budget():
    # random walks through the graph can never push retries past the budget
    vw = nl2sql_vw(retry_budget=2)
    rng = random.Random(0)
    for _ in range(300):
        stage_id, retries = vw.entry_stage, 0
        while stage_id not in (SUCCESS, FAILURE):
            labels = [o.label for o in vw.stage(stage_id).outcomes if o.prob > 0]
            stage_id, retries = next_step(stage_id, retries, rng.choice(labels), vw)
            assert retries <= vw.retry_budget


def inline_vw(workflow: dict, llm_stage: str):
    tree = run_config_tree(workflow={"inline": workflow}, topology={"mode": "shared", "llm_engines": {llm_stage: 1}})
    return build_sim_config(tree).workflow


# an inline workflow whose LLM stage loops on itself, with a label that
# is another stage's label too
SELF_LOOP_WORKFLOW = {
    "name": "self_loop",
    "entry_stage": "draft",
    "retry_budget": 2,
    "slo_seconds": 10.0,
    "stages": [
        {
            "stage_id": "draft",
            "kind": "llm",
            "prompt_tokens": {"kind": "constant", "value": 10},
            "output_tokens": {"kind": "constant", "value": 10},
            "outcomes": [
                {"label": "again", "prob": 0.4, "next": "draft"},
                {"label": "ok", "prob": 0.6, "next": "check"},
            ],
        },
        {
            "stage_id": "check",
            "kind": "tool",
            "service_time": {"kind": "constant", "value": 0.5},
            "outcomes": [
                {"label": "ok", "prob": 0.5, "next": "Success"},
                {"label": "bad", "prob": 0.5, "next": "Failure"},
            ],
        },
    ],
}

NEXT_STEP_WORKFLOWS = {
    "nl2sql": nl2sql_vw,
    "quoted": lambda: inline_vw(QUOTED_WORKFLOW, QUOTED_LLM),
    "self_loop": lambda: inline_vw(SELF_LOOP_WORKFLOW, "draft"),
}


def step_or_error(fn, *args):
    try:
        return fn(*args)
    except (KeyError, ValueError) as exc:  # UnknownOutcome is a KeyError
        return type(exc), exc.args


@pytest.mark.parametrize("name", sorted(NEXT_STEP_WORKFLOWS))
def test_next_step_matches_the_outcome_scan(name):
    # every stage, retries value and label, the labels of other stages and
    # an unknown one included; then the terminals and an unknown stage
    vw = NEXT_STEP_WORKFLOWS[name]()
    labels = sorted({o.label for sid in vw.stage_ids for o in vw.stage(sid).outcomes} | {"no such label"})
    loops = 0
    for stage_id in (*vw.stage_ids, *TERMINALS, "no such stage"):
        for retries in range(vw.retry_budget + 1):
            for label in labels:
                want = step_or_error(reference_next_step, stage_id, retries, label, vw)
                assert step_or_error(next_step, stage_id, retries, label, vw) == want
                loops += want[1] == retries + 1
    assert loops  # some loop edge was taken
    for stage_id, error in ((SUCCESS, ValueError), (FAILURE, ValueError), ("no such stage", KeyError)):
        with pytest.raises(error):
            next_step(stage_id, 0, labels[0], vw)
    with pytest.raises(UnknownOutcome):
        next_step(vw.entry_stage, 0, "no such label", vw)


# ----------------------------------------------------------------------
# expected_fixer_invocations


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
    # exactly the states a request can occupy: no terminal, and no state
    # such as (FIXER, 0) or (GENERATOR, 1) that no request reaches
    occupiable = {(GENERATOR, 0), *((EXECUTOR, r) for r in range(4)), *((FIXER, r) for r in range(1, 4))}
    assert set(table) == occupiable_states(vw) == occupiable
    for (sid, retries), work in table.items():
        assert work == pytest.approx(enum_remaining_work(vw, sid, retries, EST), abs=1e-9)


def test_large_retry_budget():
    # the walk is iterative: a recursion over the states would overflow the
    # interpreter's stack here
    vw = nl2sql_vw(p_fail=0.9, retry_budget=2000)
    table = expected_remaining_work(vw, EST)
    assert len(table) == 4002  # generator 0, executor 0..2000, fixer 1..2000
    fixes = expected_fixer_invocations(0.9, 2000)
    want = EST[GENERATOR] + EST[EXECUTOR] * (1.0 + fixes) + EST[FIXER] * fixes
    assert table[(GENERATOR, 0)] == pytest.approx(want, rel=1e-9)


def test_missing_estimate():
    vw = nl2sql_vw()
    with pytest.raises(MissingEstimate):
        expected_remaining_work(vw, {GENERATOR: 1.0})


PLAN_WORKFLOWS = {
    "nl2sql": lambda: nl2sql_vw(),
    "nl2sql_budget_0": lambda: nl2sql_vw(retry_budget=0),
    "nl2sql_budget_5_p_0.9": lambda: nl2sql_vw(p_fail=0.9, retry_budget=5),
    "nl2sql_no_failures": lambda: nl2sql_vw(p_fail=0.0),
    # two loop edges of different mass into the fixer: their terms must be
    # added in outcome order
    "nl2sql_uneven_failures": lambda: validate_workflow(uneven_failures_spec()),
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


def unchecked_workflow(spec):
    """The handle `validate_workflow` builds for `spec`, without raising
    when Success is unreachable."""
    stages = {st.stage_id: st for st in spec.stages}
    return ValidatedWorkflow(spec, stages, _loop_edges(spec, stages, _adjacency(stages)))


@pytest.mark.parametrize(
    "spec",
    [
        *no_success_specs().values(),
        make_spec(loop_stages(), budget=1),
        *(make_vw().spec for make_vw in PLAN_WORKFLOWS.values()),
    ],
    ids=[*no_success_specs(), "loop_with_budget", *PLAN_WORKFLOWS],
)
def test_success_verdict_matches_reference_search(spec):
    vw = unchecked_workflow(spec)
    want = reference_success_reachable(vw)
    assert vw.success_reachable == want
    if want:
        validate_workflow(spec)
    else:
        with pytest.raises(UnreachableTerminal):
            validate_workflow(spec)


def to_config(value):
    """`value` as config JSON, field by field: dataclasses (distributions
    among them) as mappings keyed by their field names, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_config(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [to_config(v) for v in value]
    return value


@pytest.mark.parametrize("name", sorted(PLAN_WORKFLOWS))
def test_inline_workflow_keys_are_field_names(name):
    spec = PLAN_WORKFLOWS[name]().spec
    llm_stage = next(s.stage_id for s in spec.stages if s.kind == LLM)
    tree = {
        "workflow": {"inline": json.loads(json.dumps(to_config(spec)))},
        "topology": {"mode": "shared", "llm_engines": {llm_stage: 1}},
        "arrivals": {"rate": 1.0},
        "duration": 10.0,
    }
    assert build_sim_config(tree).workflow.spec == spec
