"""The NL2SQL workload and pool topologies.

The shipped workflow is a three-stage loop: an LLM generates a candidate
SQL query, a tool executor runs it, and on syntax errors or empty results
an LLM fixer revises the query and the executor retries, up to the retry
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dists import Distribution
from .engines import EngineParams, ToolPoolParams
from .errors import ConfigError
from .workflow import (
    LLM,
    SUCCESS,
    TOOL,
    Outcome,
    StageSpec,
    ValidatedWorkflow,
    WorkflowSpec,
)

GENERATOR = "sql_generator"
EXECUTOR = "sql_executor"
FIXER = "sql_fixer"

DEFAULT_ENGINE_PARAMS = EngineParams(
    kv_capacity_tokens=16384,
    prefill_rate=5000.0,
    base_token_time=0.02,
    batch_slope=0.1,
    max_batch=8,
)

DEFAULT_TOOL_CONCURRENCY = 4


def _default_prompt() -> Distribution:
    return Distribution.uniform(100, 300)


def _default_output() -> Distribution:
    return Distribution.uniform(50, 150)


def _default_executor_service() -> Distribution:
    return Distribution.uniform(0.1, 0.4)


@dataclass(frozen=True)
class Nl2SqlParams:
    """Desk-scale defaults; every field is config-overridable.

    `p_fail` splits into `p_syntax_err` and `p_empty_result`: a split field
    left as None is the rest of `p_fail` when the other is given, and half
    of it when neither is.
    """

    p_fail: float = 0.5
    p_syntax_err: float | None = None
    p_empty_result: float | None = None
    retry_budget: int = 3
    slo_seconds: float = 30.0
    generator_prefix_tokens: int = 1000
    fixer_prefix_tokens: int = 1000
    prompt_tokens: Distribution = field(default_factory=_default_prompt)
    output_tokens: Distribution = field(default_factory=_default_output)
    executor_service_time: Distribution = field(default_factory=_default_executor_service)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_fail <= 1.0:
            raise ConfigError("p_fail must be in [0, 1]")
        if self.p_syntax_err is None:
            rest = self.p_fail / 2.0 if self.p_empty_result is None else self.p_fail - self.p_empty_result
            object.__setattr__(self, "p_syntax_err", rest)
        if self.p_empty_result is None:
            object.__setattr__(self, "p_empty_result", self.p_fail - self.p_syntax_err)
        if self.p_syntax_err < 0.0 or self.p_empty_result < 0.0:
            raise ConfigError("failure split probabilities must be >= 0")
        if abs(self.p_syntax_err + self.p_empty_result - self.p_fail) > 1e-9:
            raise ConfigError("failure split must sum to p_fail")
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be >= 0")


def build_nl2sql(params: Nl2SqlParams | None = None) -> WorkflowSpec:
    """Generator -> executor -> {success, syntax_err, empty_result} with a
    fixer loop back into the executor, bounded by the retry budget."""
    p = params or Nl2SqlParams()
    stages = (
        StageSpec(
            stage_id=GENERATOR,
            kind=LLM,
            prefix_tokens=p.generator_prefix_tokens,
            prompt_tokens=p.prompt_tokens,
            output_tokens=p.output_tokens,
            outcomes=(Outcome("generated", 1.0, EXECUTOR),),
        ),
        StageSpec(
            stage_id=EXECUTOR,
            kind=TOOL,
            service_time=p.executor_service_time,
            outcomes=(
                Outcome("success", 1.0 - p.p_fail, SUCCESS),
                Outcome("syntax_err", p.p_syntax_err, FIXER),
                Outcome("empty_result", p.p_empty_result, FIXER),
            ),
        ),
        StageSpec(
            stage_id=FIXER,
            kind=LLM,
            prefix_tokens=p.fixer_prefix_tokens,
            prompt_tokens=p.prompt_tokens,
            output_tokens=p.output_tokens,
            outcomes=(Outcome("fixed", 1.0, EXECUTOR),),
        ),
    )
    return WorkflowSpec(
        name="nl2sql",
        stages=stages,
        entry_stage=GENERATOR,
        retry_budget=p.retry_budget,
        slo_seconds=p.slo_seconds,
    )


@dataclass(frozen=True)
class PoolSpec:
    pool_id: str
    kind: str  # "llm" | "tool"
    stage_ids: tuple[str, ...]
    n_engines: int = 0
    engine_params: EngineParams | None = None
    tool_params: ToolPoolParams | None = None


@dataclass(frozen=True)
class Topology:
    mode: str  # "isolated" | "shared"
    pools: tuple[PoolSpec, ...]

    def llm_engine_total(self) -> int:
        return sum(p.n_engines for p in self.pools if p.kind == LLM)

    def tool_concurrency_total(self) -> int:
        return sum(p.tool_params.concurrency for p in self.pools if p.kind == TOOL)


@dataclass(frozen=True)
class TopologyPreset:
    mode: str
    llm_engines: dict[str, int] = field(default_factory=dict)  # isolated
    llm_engines_total: int = 0  # shared
    engine_params: EngineParams = DEFAULT_ENGINE_PARAMS
    engine_overrides: dict[str, EngineParams] = field(default_factory=dict)
    tool_concurrency: int = DEFAULT_TOOL_CONCURRENCY

    def __post_init__(self) -> None:
        if self.mode not in ("isolated", "shared"):
            raise ConfigError(f"unknown topology mode '{self.mode}'")


def build_topology(preset: TopologyPreset, vw: ValidatedWorkflow) -> Topology:
    """Lay out pools: one per LLM stage in isolated mode, one LLM pool in
    shared mode.  Tool pools are identical in both modes."""
    llm_stages = [s for s in vw.spec.stages if s.kind == LLM]
    tool_stages = [s for s in vw.spec.stages if s.kind == TOOL]
    pools: list[PoolSpec] = []

    if preset.mode == "isolated":
        unknown = sorted(set(preset.engine_overrides) - {s.stage_id for s in llm_stages})
        if unknown:
            raise ConfigError(f"engine override for '{unknown[0]}', which is not an LLM stage")
        for st in llm_stages:
            n = preset.llm_engines.get(st.stage_id, 0)
            if n < 1:
                raise ConfigError(f"isolated pool for stage '{st.stage_id}' needs >= 1 engine")
            params = preset.engine_overrides.get(st.stage_id, preset.engine_params)
            pools.append(
                PoolSpec(
                    pool_id=f"pool:{st.stage_id}",
                    kind=LLM,
                    stage_ids=(st.stage_id,),
                    n_engines=n,
                    engine_params=params,
                )
            )
    else:
        if preset.llm_engines_total < 1:
            raise ConfigError("shared topology needs >= 1 engine")
        if preset.engine_overrides:
            raise ConfigError("per-stage engine overrides require isolated mode")
        pools.append(
            PoolSpec(
                pool_id="pool:llm",
                kind=LLM,
                stage_ids=tuple(s.stage_id for s in llm_stages),
                n_engines=preset.llm_engines_total,
                engine_params=preset.engine_params,
            )
        )

    for st in tool_stages:
        pools.append(
            PoolSpec(
                pool_id=f"pool:{st.stage_id}",
                kind=TOOL,
                stage_ids=(st.stage_id,),
                tool_params=ToolPoolParams(preset.tool_concurrency, st.service_time),
            )
        )
    return Topology(mode=preset.mode, pools=tuple(pools))


def derive_service_estimates(vw: ValidatedWorkflow, topology: Topology) -> dict[str, float]:
    """Mean per-stage service seconds implied by the distributions and the
    serving pool's engine speed (batch-of-one, warm prefix)."""
    params_by_stage: dict[str, EngineParams] = {}
    tool_by_stage: dict[str, ToolPoolParams] = {}
    for pool in topology.pools:
        for sid in pool.stage_ids:
            if pool.kind == LLM:
                params_by_stage[sid] = pool.engine_params
            else:
                tool_by_stage[sid] = pool.tool_params
    estimates: dict[str, float] = {}
    for st in vw.spec.stages:
        if st.kind == LLM:
            params = params_by_stage[st.stage_id]
            estimates[st.stage_id] = (
                st.prompt_tokens.mean() / params.prefill_rate
                + st.output_tokens.mean() * params.base_token_time
            )
        else:
            estimates[st.stage_id] = tool_by_stage[st.stage_id].service_time_dist.mean()
    return estimates
