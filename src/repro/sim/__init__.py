"""Cost-model timing of repair plans and Monte-Carlo cluster studies."""

from .cost_model import RepairResult, evaluate_plan
from .events import Simulation, SimulationError
from .lifetime import (
    DiskEvent,
    LifetimeConfig,
    LifetimeReport,
    LifetimeResult,
    TraceReplayProcess,
    WeibullFailureProcess,
    durability_study,
    run_lifetime,
)
from .workload import (
    PAPER_SIM_CONFIG,
    SimulationConfig,
    build_cluster,
    build_cluster_with_stf,
    fixed_stf_chunk_count,
)

__all__ = [
    "DiskEvent",
    "LifetimeConfig",
    "LifetimeReport",
    "LifetimeResult",
    "TraceReplayProcess",
    "WeibullFailureProcess",
    "evaluate_plan",
    "PAPER_SIM_CONFIG",
    "RepairResult",
    "Simulation",
    "SimulationConfig",
    "SimulationError",
    "build_cluster",
    "build_cluster_with_stf",
    "durability_study",
    "fixed_stf_chunk_count",
    "run_lifetime",
]
