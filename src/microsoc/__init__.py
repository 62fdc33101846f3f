"""Agent-based simulator of variant transmission in paired micro-societies.

Populations of agents meet in pairs according to a staged round-robin
schedule, produce variants from biased memory samples, and converge (or not)
on shared conventions. The package provides the simulation engine, schedule
tools, convergence/adaptiveness metrics, CSV output, SVG plotting, and a CLI.
"""

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
from .schedule import ConnectivityKind, Schedule

__version__ = "2.0.0"

__all__ = [
    "BatchResult",
    "ConnectivityKind",
    "FixedHorizon",
    "MicrosocError",
    "ParameterPoint",
    "Schedule",
    "SweepGrid",
    "UntilConvergence",
    "run_replicates",
    "sweep",
]
