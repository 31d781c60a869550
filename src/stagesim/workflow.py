"""Agentic workflow call graphs with probabilistic outcomes and retry budgets.

A workflow is a set of stages (LLM calls and tool calls) wired together by
outcome transitions.  Cycles are allowed only when gated by the retry
budget: within each cyclic stage group, the edges leaving the group's
entry stage back into the loop body count against the budget, so every
request provably terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NoReturn

from .dists import Distribution

LLM = "llm"
TOOL = "tool"

SUCCESS = "Success"
FAILURE = "Failure"
TERMINALS = (SUCCESS, FAILURE)

_MASS_TOL = 1e-9


def is_terminal(name: str) -> bool:
    return name in TERMINALS


class WorkflowValidationError(ValueError):
    """Base class for workflow validation failures."""


class ProbabilityMassError(WorkflowValidationError):
    pass


class DanglingTransition(WorkflowValidationError):
    pass


class UnreachableTerminal(WorkflowValidationError):
    pass


class UnreachableStage(WorkflowValidationError):
    pass


class UnboundedCycle(WorkflowValidationError):
    pass


class InvalidStage(WorkflowValidationError):
    pass


class UnknownOutcome(KeyError):
    pass


class MissingEstimate(KeyError):
    pass


@dataclass(frozen=True)
class Outcome:
    """One possible result of running a stage and where it leads."""

    label: str
    prob: float
    next: str  # stage_id, or Success / Failure


@dataclass(frozen=True)
class StageSpec:
    stage_id: str
    kind: str  # LLM or TOOL
    outcomes: tuple[Outcome, ...]
    prefix_tokens: int = 0
    prompt_tokens: Distribution | None = None
    output_tokens: Distribution | None = None
    service_time: Distribution | None = None


@dataclass(frozen=True)
class WorkflowSpec:
    name: str
    stages: tuple[StageSpec, ...]
    entry_stage: str
    retry_budget: int
    slo_seconds: float


class ValidatedWorkflow:
    """Validated handle over a WorkflowSpec plus derived graph facts.

    `outcome_table` maps (stage, outcome label) to (next stage or
    terminal, whether that edge is a loop edge), compiled once here for
    `next_step`, which reads it instead of scanning the stage's outcomes.
    `remaining_work_plan` and `success_reachable` come from one walk of
    the states a request can occupy (`_compile_remaining_work`).
    Immutable after construction; safe to share across simulations.
    """

    def __init__(
        self,
        spec: WorkflowSpec,
        stages: dict[str, StageSpec],
        loop_edges: frozenset[tuple[str, str]],
    ) -> None:
        self.spec = spec
        self._stages = stages
        self._loop_edges = loop_edges
        self.stage_ids: tuple[str, ...] = tuple(st.stage_id for st in spec.stages)
        self.outcome_table: dict[tuple[str, str], tuple[str, bool]] = {
            (st.stage_id, out.label): (out.next, (st.stage_id, out.next) in loop_edges)
            for st in spec.stages
            for out in st.outcomes
        }
        # after the table: compiling the plan calls next_step
        self.remaining_work_plan, self.success_reachable = _compile_remaining_work(self)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def entry_stage(self) -> str:
        return self.spec.entry_stage

    @property
    def retry_budget(self) -> int:
        return self.spec.retry_budget

    @property
    def slo_seconds(self) -> float:
        return self.spec.slo_seconds

    @property
    def loop_edges(self) -> frozenset[tuple[str, str]]:
        return self._loop_edges

    def stage(self, stage_id: str) -> StageSpec:
        return self._stages[stage_id]

    def is_loop_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._loop_edges


def _check_non_negative(st: StageSpec, name: str, whole: bool = False) -> None:
    # a negative token count or service time would schedule an event
    # before the clock; token counts are whole draws (sample_int), which
    # truncate or round
    dist: Distribution = getattr(st, name)
    if (dist.min_int() if whole else dist.min_value()) < 0:
        raise InvalidStage(f"stage '{st.stage_id}': '{name}' can sample below 0")


def _check_stage_shapes(spec: WorkflowSpec) -> dict[str, StageSpec]:
    stages: dict[str, StageSpec] = {}
    for st in spec.stages:
        if st.stage_id in stages:
            raise InvalidStage(f"duplicate stage_id '{st.stage_id}'")
        if st.stage_id in TERMINALS:
            raise InvalidStage(f"stage_id '{st.stage_id}' collides with a terminal")
        if not st.outcomes:
            raise InvalidStage(f"stage '{st.stage_id}' has no outcomes")
        if st.kind == LLM:
            if not st.prefix_tokens >= 0:  # NaN fails too
                raise InvalidStage(f"LLM stage '{st.stage_id}' has negative prefix")
            if st.service_time is not None:
                raise InvalidStage(f"LLM stage '{st.stage_id}' must not carry a service-time distribution")
            if st.prompt_tokens is None or st.output_tokens is None:
                raise InvalidStage(f"LLM stage '{st.stage_id}' needs prompt and output token distributions")
            _check_non_negative(st, "prompt_tokens", whole=True)
            _check_non_negative(st, "output_tokens", whole=True)
        elif st.kind == TOOL:
            if st.service_time is None:
                raise InvalidStage(f"tool stage '{st.stage_id}' needs a service-time distribution")
            if st.prefix_tokens != 0 or st.prompt_tokens is not None or st.output_tokens is not None:
                raise InvalidStage(f"tool stage '{st.stage_id}' must have zero token fields")
            _check_non_negative(st, "service_time")
        else:
            raise InvalidStage(f"stage '{st.stage_id}' has unknown kind '{st.kind}'")
        for out in st.outcomes:
            if not out.prob >= 0.0:  # NaN fails too
                raise ProbabilityMassError(f"stage '{st.stage_id}' outcome '{out.label}' has negative probability")
        mass = sum(o.prob for o in st.outcomes)
        if not abs(mass - 1.0) <= _MASS_TOL:
            raise ProbabilityMassError(f"stage '{st.stage_id}' outcome probabilities sum to {mass!r}, not 1.0")
        labels = [o.label for o in st.outcomes]
        if len(set(labels)) != len(labels):
            raise InvalidStage(f"stage '{st.stage_id}' has duplicate outcome labels")
        stages[st.stage_id] = st
    if spec.retry_budget < 0:
        raise InvalidStage("retry_budget must be >= 0")
    if not 0.0 < spec.slo_seconds < math.inf:  # NaN fails too
        raise InvalidStage("slo_seconds must be positive and finite")
    if spec.entry_stage not in stages:
        raise InvalidStage(f"entry stage '{spec.entry_stage}' does not exist")
    return stages


def _adjacency(stages: dict[str, StageSpec]) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {sid: set() for sid in stages}
    for st in stages.values():
        for out in st.outcomes:
            if is_terminal(out.next):
                continue
            if out.next not in stages:
                raise DanglingTransition(
                    f"stage '{st.stage_id}' outcome '{out.label}' targets unknown stage '{out.next}'"
                )
            adj[st.stage_id].add(out.next)
    return adj


def _reachable(adj: dict[str, set[str]], start: str) -> set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _cycle_groups(adj: dict[str, set[str]]) -> dict[str, frozenset[str]]:
    """Each stage's group of mutually reachable stages when it lies on a
    cycle (a self-loop included), else an empty set."""
    reach = {sid: _reachable(adj, sid) for sid in adj}
    groups: dict[str, frozenset[str]] = {}
    for sid in adj:
        members = frozenset(v for v in reach[sid] if sid in reach[v])
        groups[sid] = members if len(members) > 1 or sid in adj[sid] else frozenset()
    return groups


def _loop_edges(spec: WorkflowSpec, stages: dict[str, StageSpec], adj: dict[str, set[str]]) -> frozenset[tuple[str, str]]:
    # Group mutually reachable stages, pick each group's externally entered
    # stage as the loop header, and charge the retry budget on the header's
    # edges back into the group.  Removing those edges must break every cycle.
    order = [s.stage_id for s in spec.stages]
    loop_edges: set[tuple[str, str]] = set()
    for members in {c for c in _cycle_groups(adj).values() if c}:
        header = None
        for sid in order:
            if sid not in members:
                continue
            externally_entered = sid == spec.entry_stage or any(
                sid in adj[src] for src in stages if src not in members
            )
            if externally_entered:
                header = sid
                break
        if header is None:  # unreachable cycle; reachability check reports it
            continue
        for dst in adj[header]:
            if dst in members:
                loop_edges.add((header, dst))

    remaining = {sid: {d for d in adj[sid] if (sid, d) not in loop_edges} for sid in stages}
    if any(_cycle_groups(remaining).values()):
        raise UnboundedCycle("transition graph has a cycle not gated by the retry budget")
    return frozenset(loop_edges)


def validate_workflow(spec: WorkflowSpec) -> ValidatedWorkflow:
    """Check every workflow invariant and return a validated handle.

    Pure: neither the spec nor any global state is mutated.
    """
    stages = _check_stage_shapes(spec)
    adj = _adjacency(stages)

    reachable = _reachable(adj, spec.entry_stage)
    unreachable = [sid for sid in stages if sid not in reachable]
    if unreachable:
        raise UnreachableStage(f"stages not reachable from entry: {unreachable}")

    vw = ValidatedWorkflow(spec, stages, _loop_edges(spec, stages, adj))
    if not vw.success_reachable:
        raise UnreachableTerminal("terminal Success is not reachable from the entry stage")
    return vw


def next_step(stage_id: str, retries_used: int, outcome: str, vw: ValidatedWorkflow) -> tuple[str, int]:
    """Apply an outcome label at `stage_id` and return where the request
    goes next, a stage or a terminal, and its retries used from then on.

    Taking a loop edge consumes one retry; once the budget is spent the
    request goes to Failure instead of re-entering the loop.
    """
    try:
        target, loop_edge = vw.outcome_table[stage_id, outcome]
    except KeyError:
        _no_next_step(stage_id, outcome, vw)
    if not loop_edge:  # a terminal is never a loop edge's target
        return target, retries_used
    if retries_used >= vw.retry_budget:
        return FAILURE, retries_used
    return target, retries_used + 1


def _no_next_step(stage_id: str, outcome: str, vw: ValidatedWorkflow) -> NoReturn:
    """Raise why `outcome_table` has no (stage_id, outcome) entry."""
    if is_terminal(stage_id):
        raise ValueError("next_step called on a terminal request") from None
    if stage_id not in vw.stage_ids:
        raise KeyError(stage_id) from None
    raise UnknownOutcome(f"stage '{stage_id}' has no outcome '{outcome}'") from None


def _compile_remaining_work(vw: ValidatedWorkflow) -> tuple[tuple, bool]:
    """Walk the states a request can occupy and return the remaining-work
    plan and whether any of them reaches Success.

    The walk is an iterative depth-first search from (entry stage, 0
    retries) through outcomes of positive probability, each applied with
    `next_step`, so a loop edge past the budget leads to Failure.  The plan
    has one `(key, ((probability, dependency key), ...))` entry per
    (stage, retries_used) state it reaches, whose expected remaining work
    is the stage's service plus each probability times its dependency's;
    an outcome that ends in a terminal adds no term.  Entries come in the
    order a recursion would finish them, which puts every dependency
    first.  The states form a DAG, so the walk ends and a state on the
    stack is never reached again before it finishes: every cycle passes a
    loop edge, which strictly increases retries_used up to the budget.
    """
    plan = []
    success = False
    done: set[tuple[str, int]] = set()
    start = (vw.entry_stage, 0)
    # each frame: the state, the iterator over its outcomes left to apply,
    # and the terms gathered so far
    stack = [(start, iter(vw.stage(start[0]).outcomes), [])]
    while stack:
        key, outcomes, terms = stack[-1]
        for out in outcomes:
            if out.prob == 0.0:
                continue
            dep = next_step(*key, out.label, vw)
            if is_terminal(dep[0]):
                success = success or dep[0] == SUCCESS
                continue
            terms.append((out.prob, dep))
            if dep not in done:
                stack.append((dep, iter(vw.stage(dep[0]).outcomes), []))
                break
        else:
            stack.pop()
            done.add(key)
            plan.append((key, tuple(terms)))
    return tuple(plan), success


def expected_remaining_work(
    vw: ValidatedWorkflow, service_estimates: dict[str, float]
) -> dict[tuple[str, int], float]:
    """Exact expected remaining service time from every state a request
    can occupy.

    Maps each (current stage, retries_used) the workflow's plan walked,
    and no terminal, to the expected service still ahead: the plan
    evaluated for these estimates.  The simulator reads it only at the
    state of a queued or dispatched call, which is always one of these.
    """
    for sid in vw.stage_ids:
        if sid not in service_estimates:
            raise MissingEstimate(sid)
    table: dict[tuple[str, int], float] = {}
    for key, terms in vw.remaining_work_plan:
        total = service_estimates[key[0]]
        for prob, dep in terms:
            total += prob * table[dep]
        table[key] = total
    return table
