"""stagesim: scheduling library and deterministic discrete-event simulator
for serving multi-stage agentic LLM workflows on stage-isolated engine pools.
"""

from .dists import Distribution, DistributionError
from .engines import (
    AdmitWithoutCapacity,
    EngineParams,
    EngineState,
    PendingCall,
    PrefixInUse,
)
from .errors import ConfigError, InternalInvariantViolation
from .rng import RngStream, stream_uniform
from .scheduling import (
    AdmissionConfig,
    AutoscaleConfig,
    BorrowConfig,
    POLICY_KINDS,
    ServiceEstimator,
    admission_decision,
    autoscale_tick,
    dispatch_key,
    route_call,
    select_next,
    should_return_borrowed,
    try_borrow,
)
from .simulation import (
    EmptySamples,
    MetricsReport,
    PolicyConfig,
    RunResult,
    SimConfig,
    Simulator,
    percentile,
    run,
    sample_interarrival,
)
from .workflow import (
    FAILURE,
    LLM,
    SUCCESS,
    TOOL,
    Outcome,
    StageSpec,
    ValidatedWorkflow,
    WorkflowSpec,
    WorkflowValidationError,
    expected_remaining_work,
    next_step,
    validate_workflow,
)
from .workloads import (
    Nl2SqlParams,
    Topology,
    build_nl2sql,
    derive_service_estimates,
)

__version__ = "0.1.0"
