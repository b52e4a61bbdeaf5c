"""FastPR core: matching, Algorithms 1-2, analysis, planners."""

from .analysis import (
    AnalyticalModel,
    BandwidthProfile,
    PAPER_DEFAULT_PROFILE,
    gbit_per_s,
    mb_per_s,
    mib,
    optimal_packet_size,
)
from .matching import (
    DinicMaxFlow,
    IncrementalStripeMatcher,
    hopcroft_karp,
    match_one_per_target,
    stripe_helper_flow,
)
from .placement import (
    HotStandbyPlacer,
    PlacementError,
    assign_scattered_destinations,
)
from .plan import (
    ChunkRepairAction,
    RepairMethod,
    RepairPlan,
    RepairRound,
    RepairScenario,
    ShardMap,
    split_plan,
)
from .planner import (
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
    RepairPlanner,
    apply_plan,
    model_for,
    profile_from_cluster,
)
from .reactive import plan_failed_node_repair
from .reconstruction_sets import (
    Algorithm1Stats,
    ReconstructionSetFinder,
    helper_assignment,
)
from .scheduling import (
    BudgetTimeout,
    HelperBudget,
    RoundComposition,
    migration_quota,
    schedule_migration_only,
    schedule_reconstruction_only,
    schedule_repair_rounds,
)

__all__ = [
    "Algorithm1Stats",
    "AnalyticalModel",
    "BandwidthProfile",
    "ChunkRepairAction",
    "DinicMaxFlow",
    "FastPRPlanner",
    "HotStandbyPlacer",
    "IncrementalStripeMatcher",
    "MigrationOnlyPlanner",
    "PAPER_DEFAULT_PROFILE",
    "plan_failed_node_repair",
    "PlacementError",
    "ReconstructionOnlyPlanner",
    "ReconstructionSetFinder",
    "RepairMethod",
    "RepairPlan",
    "RepairPlanner",
    "RepairRound",
    "RepairScenario",
    "RoundComposition",
    "ShardMap",
    "split_plan",
    "BudgetTimeout",
    "HelperBudget",
    "apply_plan",
    "assign_scattered_destinations",
    "gbit_per_s",
    "helper_assignment",
    "hopcroft_karp",
    "match_one_per_target",
    "mb_per_s",
    "mib",
    "migration_quota",
    "model_for",
    "optimal_packet_size",
    "profile_from_cluster",
    "schedule_migration_only",
    "schedule_reconstruction_only",
    "schedule_repair_rounds",
    "stripe_helper_flow",
]
