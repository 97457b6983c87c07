"""Training-free caching for iterative denoising loops.

The package approximates expensive per-step model calls by reusing or
extrapolating recent outputs per token, and decides when a real call is
unavoidable by tracking an accumulated drift budget. Everything is
deterministic given a seed.
"""

__version__ = "0.1.0"

from .backbone_sim import (
    Preset,
    SyntheticBackbone,
    SyntheticSpec,
    TraceBackbone,
    TraceData,
    read_trace,
    validate_trace,
    write_trace,
)
from .bench import RunMetrics, SweepRow, compare_runs, sweep
from .core import Modality, Timestep, TokenMatrix, axpy_rows, row_l2_norms
from .curvature import (
    FullHistory,
    GroupAssignment,
    TokenGroup,
    compute_curvature,
    group_tokens,
    push_full,
)
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    InsufficientHistoryError,
    OrderingError,
    ParameterError,
    TraceFormatError,
    WorldCacheError,
)
from .pipeline import (
    Decision,
    EulerScheduler,
    RunResult,
    StepRecord,
    oracle_run,
    run,
    uniform_grid,
)
from .predictor import (
    HorizonMode,
    PredictorConfig,
    PredictorKind,
    damped_velocity,
    hermite_alpha,
    horizon_for,
    predict,
    randomize_groups,
)
from .skipper import (
    CacheState,
    DriftProbe,
    SkipConfig,
    SkipKind,
    accumulate,
    drift_score,
    should_full,
)

__all__ = [
    "__version__",
    "CacheState",
    "compare_runs",
    "compute_curvature",
    "ConfigError",
    "damped_velocity",
    "Decision",
    "DimensionError",
    "DomainError",
    "drift_score",
    "DriftProbe",
    "EulerScheduler",
    "FullHistory",
    "GroupAssignment",
    "group_tokens",
    "hermite_alpha",
    "HorizonMode",
    "horizon_for",
    "InsufficientHistoryError",
    "Modality",
    "oracle_run",
    "OrderingError",
    "ParameterError",
    "predict",
    "PredictorConfig",
    "PredictorKind",
    "Preset",
    "push_full",
    "randomize_groups",
    "read_trace",
    "run",
    "RunMetrics",
    "RunResult",
    "should_full",
    "SkipConfig",
    "SkipKind",
    "StepRecord",
    "sweep",
    "SweepRow",
    "SyntheticBackbone",
    "SyntheticSpec",
    "Timestep",
    "TokenGroup",
    "TokenMatrix",
    "TraceBackbone",
    "TraceData",
    "TraceFormatError",
    "uniform_grid",
    "validate_trace",
    "WorldCacheError",
    "write_trace",
    "accumulate",
    "axpy_rows",
    "row_l2_norms",
]
