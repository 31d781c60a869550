"""Agentic workflow call graphs with probabilistic outcomes and retry budgets.

A workflow is a set of stages (LLM calls and tool calls) wired together by
outcome transitions.  Cycles are allowed only when gated by the retry
budget: within each cyclic stage group, the edges leaving the group's
entry stage back into the loop body count against the budget, so every
request provably terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class RequestState:
    """A request's position in the workflow graph."""

    request_id: int
    arrival_time: float
    deadline: float
    current_stage: str
    retries_used: int = 0
    stage_history: list[tuple[str, float, float, str]] = field(default_factory=list)


@dataclass(frozen=True)
class Transition:
    """Result of applying an outcome: advance to a stage or finish."""

    next_stage: str | None
    terminal: str | None
    retries_used: int

    @property
    def is_done(self) -> bool:
        return self.terminal is not None


class ValidatedWorkflow:
    """Validated handle over a WorkflowSpec plus derived graph facts.

    Immutable after construction; safe to share across simulations.
    """

    def __init__(
        self,
        spec: WorkflowSpec,
        stages: dict[str, StageSpec],
        loop_edges: frozenset[tuple[str, str]],
        selectivity: dict[str, float],
    ) -> None:
        self.spec = spec
        self._stages = stages
        self._loop_edges = loop_edges
        self._selectivity = selectivity
        self.remaining_work_plan = _compile_remaining_work(self)

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
    def stage_ids(self) -> tuple[str, ...]:
        return tuple(s.stage_id for s in self.spec.stages)

    @property
    def loop_edges(self) -> frozenset[tuple[str, str]]:
        return self._loop_edges

    def stage(self, stage_id: str) -> StageSpec:
        return self._stages[stage_id]

    def is_loop_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._loop_edges

    def selectivity(self, stage_id: str) -> float:
        """Probability that this stage's outcome ends the workflow."""
        return self._selectivity[stage_id]


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
            if st.prefix_tokens < 0:
                raise InvalidStage(f"LLM stage '{st.stage_id}' has negative prefix")
            if st.service_time is not None:
                raise InvalidStage(f"LLM stage '{st.stage_id}' must not carry a service-time distribution")
            if st.prompt_tokens is None or st.output_tokens is None:
                raise InvalidStage(f"LLM stage '{st.stage_id}' needs prompt and output token distributions")
        elif st.kind == TOOL:
            if st.service_time is None:
                raise InvalidStage(f"tool stage '{st.stage_id}' needs a service-time distribution")
            if st.prefix_tokens != 0 or st.prompt_tokens is not None or st.output_tokens is not None:
                raise InvalidStage(f"tool stage '{st.stage_id}' must have zero token fields")
        else:
            raise InvalidStage(f"stage '{st.stage_id}' has unknown kind '{st.kind}'")
        for out in st.outcomes:
            if out.prob < 0.0:
                raise ProbabilityMassError(f"stage '{st.stage_id}' outcome '{out.label}' has negative probability")
        mass = sum(o.prob for o in st.outcomes)
        if abs(mass - 1.0) > _MASS_TOL:
            raise ProbabilityMassError(f"stage '{st.stage_id}' outcome probabilities sum to {mass!r}, not 1.0")
        labels = [o.label for o in st.outcomes]
        if len(set(labels)) != len(labels):
            raise InvalidStage(f"stage '{st.stage_id}' has duplicate outcome labels")
        stages[st.stage_id] = st
    if spec.retry_budget < 0:
        raise InvalidStage("retry_budget must be >= 0")
    if spec.slo_seconds <= 0.0:
        raise InvalidStage("slo_seconds must be positive")
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


def _loop_edges(spec: WorkflowSpec, stages: dict[str, StageSpec], adj: dict[str, set[str]]) -> frozenset[tuple[str, str]]:
    # Group mutually reachable stages, pick each group's externally entered
    # stage as the loop header, and charge the retry budget on the header's
    # edges back into the group.  Removing those edges must break every cycle.
    order = [s.stage_id for s in spec.stages]
    reach = {sid: _reachable(adj, sid) for sid in stages}
    component: dict[str, frozenset[str]] = {}
    for sid in order:
        members = frozenset(v for v in reach[sid] if sid in reach[v])
        cyclic = len(members) > 1 or sid in adj[sid]
        component[sid] = members if cyclic else frozenset()

    loop_edges: set[tuple[str, str]] = set()
    for members in {c for c in component.values() if c}:
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
    if _has_cycle(remaining):
        raise UnboundedCycle("transition graph has a cycle not gated by the retry budget")
    return frozenset(loop_edges)


def _has_cycle(adj: dict[str, set[str]]) -> bool:
    indegree = {sid: 0 for sid in adj}
    for targets in adj.values():
        for dst in targets:
            indegree[dst] += 1
    ready = [sid for sid, deg in indegree.items() if deg == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for dst in adj[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    return seen != len(adj)


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
    success_reachable = any(
        out.next == SUCCESS for sid in reachable for out in stages[sid].outcomes
    )
    if not success_reachable:
        raise UnreachableTerminal("terminal Success is not reachable from the entry stage")

    loop_edges = _loop_edges(spec, stages, adj)
    selectivity = {
        sid: sum(o.prob for o in st.outcomes if is_terminal(o.next))
        for sid, st in stages.items()
    }
    return ValidatedWorkflow(spec, stages, loop_edges, selectivity)


def next_step(state: RequestState, outcome: str, vw: ValidatedWorkflow) -> Transition:
    """Apply an outcome label to a request and return where it goes next.

    Taking a loop edge consumes one retry; once the budget is spent the
    transition collapses to Failure instead of re-entering the loop.
    """
    if is_terminal(state.current_stage):
        raise ValueError("next_step called on a terminal request")
    stage = vw.stage(state.current_stage)
    chosen = next((o for o in stage.outcomes if o.label == outcome), None)
    if chosen is None:
        raise UnknownOutcome(f"stage '{stage.stage_id}' has no outcome '{outcome}'")
    target = chosen.next
    if is_terminal(target):
        return Transition(None, target, state.retries_used)
    if vw.is_loop_edge(stage.stage_id, target):
        if state.retries_used >= vw.retry_budget:
            return Transition(None, FAILURE, state.retries_used)
        return Transition(target, None, state.retries_used + 1)
    return Transition(target, None, state.retries_used)


def _compile_remaining_work(vw: ValidatedWorkflow) -> tuple:
    """The remaining-work dynamic program over (stage, retries_used) as a
    flat plan: one `(key, stage or None at a terminal, ((probability,
    dependency key), ...))` entry per key, whose expected remaining work is
    the stage's service plus each probability times its dependency's.

    Entries come in the order a memoised depth-first recursion finishes
    them, which puts every dependency first; finite because every cycle
    passes a loop edge, which strictly increases retries_used up to the
    budget.
    """
    budget = vw.retry_budget
    plan = []
    seen: set[tuple[str, int]] = set()

    def visit(stage_id: str, retries: int) -> None:
        key = (stage_id, retries)
        if key in seen:
            return
        if is_terminal(stage_id):
            seen.add(key)
            plan.append((key, None, ()))
            return
        terms = []
        for out in vw.stage(stage_id).outcomes:
            target = out.next
            if out.prob == 0.0 or is_terminal(target):
                continue
            if vw.is_loop_edge(stage_id, target):
                if retries >= budget:
                    continue  # the budget is spent: the edge leads to Failure
                dep = (target, retries + 1)
            else:
                dep = (target, retries)
            visit(*dep)
            terms.append((out.prob, dep))
        seen.add(key)
        plan.append((key, stage_id, tuple(terms)))

    for stage_id in (*vw.stage_ids, *TERMINALS):
        for retries in range(budget + 1):
            visit(stage_id, retries)
    return tuple(plan)


def expected_remaining_work(
    vw: ValidatedWorkflow, service_estimates: dict[str, float]
) -> dict[tuple[str, int], float]:
    """Exact expected remaining service time from every request position.

    Maps (current stage, retries_used), for every stage and terminal and
    every retries_used in 0..retry_budget, to the expected service still
    ahead (0.0 at a terminal): the workflow's compiled plan evaluated for
    these estimates.
    """
    for sid in vw.stage_ids:
        if sid not in service_estimates:
            raise MissingEstimate(sid)
    table: dict[tuple[str, int], float] = {}
    for key, stage_id, terms in vw.remaining_work_plan:
        if stage_id is None:
            table[key] = 0.0
            continue
        total = service_estimates[stage_id]
        for prob, dep in terms:
            total += prob * table[dep]
        table[key] = total
    return table
