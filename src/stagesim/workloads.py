"""The NL2SQL workload and pool topologies.

The shipped workflow is a three-stage loop: an LLM generates a candidate
SQL query, a tool executor runs it, and on syntax errors or empty results
an LLM fixer revises the query and the executor retries, up to the retry
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dists import Distribution
from .engines import EngineParams
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


@dataclass(frozen=True)
class Nl2SqlParams:
    """Desk-scale defaults; every field is config-overridable.

    `p_fail` is the executor's failure probability; its two failure
    outcomes, a syntax error and an empty result, each have half of it.
    """

    p_fail: float = 0.5
    retry_budget: int = 3
    slo_seconds: float = 30.0
    generator_prefix_tokens: int = 1000
    fixer_prefix_tokens: int = 1000
    prompt_tokens: Distribution = Distribution.uniform(100, 300)
    output_tokens: Distribution = Distribution.uniform(50, 150)
    executor_service_time: Distribution = Distribution.uniform(0.1, 0.4)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_fail <= 1.0:
            raise ConfigError("p_fail must be in [0, 1]")
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be >= 0")


def build_nl2sql(params: Nl2SqlParams | None = None) -> WorkflowSpec:
    """Generator -> executor -> {success, syntax_err, empty_result} with a
    fixer loop back into the executor, bounded by the retry budget.  The
    two failure outcomes stay separate edges: the remaining-work estimate
    adds one term per outcome, and one merged term can round differently."""
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
                Outcome("syntax_err", p.p_fail / 2.0, FIXER),
                Outcome("empty_result", p.p_fail / 2.0, FIXER),
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
    concurrency: int = 0  # tool slots

    @property
    def lendable(self) -> bool:
        """Whether borrowing may lend this pool's engines or lend to it:
        only a single-stage LLM pool, whose one prefix a lent engine plants."""
        return self.kind == LLM and len(self.stage_ids) == 1


@dataclass(frozen=True)
class Topology:
    """`llm_engines` is the engine count each LLM stage brings.  In
    "isolated" mode each LLM stage keeps its engines in its own pool; in
    "shared" mode one pool serves every LLM stage with their sum."""

    mode: str
    llm_engines: dict[str, int] = field(default_factory=dict)
    engine_params: EngineParams = DEFAULT_ENGINE_PARAMS
    engine_overrides: dict[str, EngineParams] = field(default_factory=dict)
    tool_concurrency: int = DEFAULT_TOOL_CONCURRENCY

    def __post_init__(self) -> None:
        if self.mode not in ("isolated", "shared"):
            raise ConfigError(f"unknown topology mode '{self.mode}'")
        if self.tool_concurrency < 1:
            raise ConfigError("tool_concurrency must be >= 1")

    def pools(self, vw: ValidatedWorkflow) -> tuple[PoolSpec, ...]:
        """The pools for workflow `vw`: one per LLM stage in isolated mode,
        one for all LLM stages in shared mode, then one per tool stage in
        both modes.  Each stage is in exactly one pool, and each pool has a
        server that fits every call of its stages."""
        llm_ids = tuple(s.stage_id for s in vw.spec.stages if s.kind == LLM)
        for what, keys in (("engine count", self.llm_engines), ("engine override", self.engine_overrides)):
            unknown = sorted(set(keys) - set(llm_ids))
            if unknown:
                raise ConfigError(f"'topology': {what} for '{unknown[0]}', which is not an LLM stage")
        negative = sorted(sid for sid, n in self.llm_engines.items() if n < 0)
        if negative:
            raise ConfigError(f"'topology': engine count for '{negative[0]}' must be >= 0")
        if self.mode == "shared" and self.engine_overrides:
            raise ConfigError("'topology': per-stage engine overrides require isolated mode")

        groups = [(LLM, "llm", llm_ids)] if self.mode == "shared" else [(LLM, sid, (sid,)) for sid in llm_ids]
        groups += [(TOOL, s.stage_id, (s.stage_id,)) for s in vw.spec.stages if s.kind == TOOL]
        pools: list[PoolSpec] = []
        for kind, name, stage_ids in groups:
            if any(pool.pool_id == f"pool:{name}" for pool in pools):  # a tool stage named "llm", shared mode
                raise ConfigError(f"'topology': stage '{name}' would get the shared LLM pool's id 'pool:{name}'")
            n_engines = sum(self.llm_engines.get(sid, 0) for sid in stage_ids)
            if kind == LLM and n_engines < 1:
                raise ConfigError(f"'topology': pool 'pool:{name}' needs >= 1 engine")
            pools.append(
                PoolSpec(
                    pool_id=f"pool:{name}",
                    kind=kind,
                    stage_ids=stage_ids,
                    n_engines=n_engines,
                    engine_params=self.engine_overrides.get(name, self.engine_params) if kind == LLM else None,
                    concurrency=self.tool_concurrency if kind == TOOL else 0,
                )
            )
        # A call is admitted only whole, so a stage whose worst-case call
        # outgrows its own pool's engines blocks its queue forever: that
        # pool never gets busy, so it never borrows an engine.
        for pool in pools:
            for sid in pool.stage_ids if pool.kind == LLM else ():
                stage = vw.stage(sid)
                worst = stage.prefix_tokens + stage.prompt_tokens.max_int() + stage.output_tokens.max_int()
                capacity = pool.engine_params.kv_capacity_tokens
                if worst > capacity:
                    raise ConfigError(
                        f"stage '{sid}' needs up to {worst} KV tokens, but the engines "
                        f"of pool '{pool.pool_id}' hold {capacity}"
                    )
        return tuple(pools)


def derive_service_estimates(vw: ValidatedWorkflow, pools: tuple[PoolSpec, ...]) -> dict[str, float]:
    """Mean per-stage service seconds implied by the distributions and the
    serving pool's engine speed (batch-of-one, warm prefix)."""
    params_by_stage = {sid: pool.engine_params for pool in pools if pool.kind == LLM for sid in pool.stage_ids}
    estimates: dict[str, float] = {}
    for st in vw.spec.stages:
        if st.kind == LLM:
            params = params_by_stage[st.stage_id]
            estimates[st.stage_id] = (
                st.prompt_tokens.mean() / params.prefill_rate
                + st.output_tokens.mean() * params.base_token_time
            )
        else:
            estimates[st.stage_id] = st.service_time.mean()
    return estimates
