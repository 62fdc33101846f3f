"""Agent-based simulator of variant transmission in paired micro-societies.

Populations of agents meet in pairs according to a staged round-robin
schedule, produce variants from biased memory samples, and converge (or not)
on shared conventions. The package provides the simulation engine, schedule
tools, convergence/adaptiveness metrics, CSV output, SVG plotting, and a CLI.
"""

from .core import (
    UNBOUNDED,
    AgentMemory,
    BiasParams,
    MemoryEntry,
    Origin,
    ProductionDistribution,
    QualityAssignment,
    partition_frequencies,
    production_distribution,
    record_interaction,
    sample_variant,
)
from .engine import (
    BatchResult,
    FixedHorizon,
    ParameterPoint,
    SweepGrid,
    UntilConvergence,
    run_replicates,
    sweep,
)
from .errors import MicrosocError
from .metrics import (
    AggregateStats,
    adaptiveness,
    aggregate,
    condition_gap,
    delta_adaptiveness,
    detect_bursts,
    entropy,
    entropy_normalized,
    time_to_convergence,
)
from .rng import seed_derive
from .schedule import (
    ConnectivityKind,
    Schedule,
    builtin_schedule,
    export_schedule,
    load_schedule,
    reachability_profile,
    validate_schedule,
)

__version__ = "1.0.0"

__all__ = [
    "UNBOUNDED",
    "AgentMemory",
    "AggregateStats",
    "BatchResult",
    "BiasParams",
    "ConnectivityKind",
    "FixedHorizon",
    "MemoryEntry",
    "MicrosocError",
    "Origin",
    "ParameterPoint",
    "ProductionDistribution",
    "QualityAssignment",
    "Schedule",
    "SweepGrid",
    "UntilConvergence",
    "adaptiveness",
    "aggregate",
    "builtin_schedule",
    "condition_gap",
    "delta_adaptiveness",
    "detect_bursts",
    "entropy",
    "entropy_normalized",
    "export_schedule",
    "load_schedule",
    "partition_frequencies",
    "production_distribution",
    "reachability_profile",
    "record_interaction",
    "run_replicates",
    "sample_variant",
    "seed_derive",
    "sweep",
    "time_to_convergence",
    "validate_schedule",
]
