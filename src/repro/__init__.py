"""repro — reproduction of "Fast Predictive Repair in Erasure-Coded Storage".

The package reimplements, in pure Python, the complete FastPR system
from Shen, Li and Lee (DSN 2019): the erasure-coding substrate, the
cluster model, the reconstruction-set and repair-scheduling algorithms,
the Section-III analytical model, a discrete-event simulator, an
emulated coordinator/agent testbed runtime, and a disk-failure
prediction substrate.

Quickstart::

    from repro import make_codec, StorageCluster, FastPRPlanner
    from repro import RepairSimulator          # discrete-event backend
    from repro import Testbed                  # emulated-runtime backend

The names exported here are the stable public API: planning
(``FastPRPlanner`` and friends), both execution backends
(``RepairSimulator`` and the emulated ``Testbed``/``Coordinator``/
``RepairAgent`` runtime), their shared configuration (``RuntimeConfig``,
``FaultPlan``), and the observability layer (``MetricsRegistry``,
``Tracer``).  Deeper module paths (``repro.runtime.transport``, ...)
are implementation detail and may move between releases;
``tests/test_api_surface.py`` pins this surface.

See ``examples/quickstart.py`` for a runnable tour.
"""

from .ec import (
    ErasureCodec,
    LocalReconstructionCodec,
    MsrCodec,
    ReedSolomonCodec,
    make_codec,
)
from .cluster import RackTopology, StorageCluster, Stripe, ChunkLocation
from .core import (
    AnalyticalModel,
    BandwidthProfile,
    BudgetTimeout,
    FastPRPlanner,
    HelperBudget,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
    RepairPlan,
    RepairRound,
    RepairScenario,
    ShardMap,
    find_reconstruction_sets,
    split_plan,
    stagger_concurrent_plans,
)
from .gateway import (
    GatewayError,
    GatewayServer,
    ObjectClient,
    ObjectManifest,
    ObjectStore,
    TrafficArbiter,
)
from .net import ShmNetwork, TcpNetwork
from .obs import MetricsRegistry, Tracer
from .runtime import (
    Agent,
    Coordinator,
    CoordinatorCrash,
    DaemonCrash,
    DaemonCrashFault,
    DomainCrashFault,
    EmulatedTestbed,
    FaultPlan,
    MultiCoordinator,
    MultiRepairResult,
    RepairDaemon,
    RepairFailedError,
    RuntimeConfig,
    Scrubber,
    ShardFailedError,
    TakeoverEvent,
)
from .session import (
    PIPELINING_MODES,
    RepairSession,
    RepairSummary,
    apply_pipelining,
)
from .sim import (
    LifetimeConfig,
    LifetimeReport,
    RepairSimulator,
    ShardedRepairResult,
    TraceReplayProcess,
    WeibullFailureProcess,
    durability_study,
    run_lifetime,
    simulate_repair,
    simulate_sharded_repair,
)

# Stable aliases: the paper talks about "the testbed" and "repair
# agents"; the implementation classes carry their historical names.
Testbed = EmulatedTestbed
RepairAgent = Agent

__version__ = "1.0.0"

__all__ = [
    "ErasureCodec",
    "LocalReconstructionCodec",
    "MsrCodec",
    "ReedSolomonCodec",
    "make_codec",
    "RackTopology",
    "StorageCluster",
    "Stripe",
    "ChunkLocation",
    "AnalyticalModel",
    "BandwidthProfile",
    "BudgetTimeout",
    "FastPRPlanner",
    "HelperBudget",
    "MigrationOnlyPlanner",
    "ReconstructionOnlyPlanner",
    "RepairPlan",
    "RepairRound",
    "RepairScenario",
    "ShardMap",
    "find_reconstruction_sets",
    "split_plan",
    "stagger_concurrent_plans",
    # runtime backend
    "Agent",
    "Coordinator",
    "CoordinatorCrash",
    "DaemonCrash",
    "DaemonCrashFault",
    "DomainCrashFault",
    "EmulatedTestbed",
    "FaultPlan",
    "MultiCoordinator",
    "MultiRepairResult",
    "RepairAgent",
    "RepairDaemon",
    "RepairFailedError",
    "RuntimeConfig",
    "Scrubber",
    "ShardFailedError",
    "TakeoverEvent",
    "ShmNetwork",
    "TcpNetwork",
    "Testbed",
    # unified repair-session front door
    "PIPELINING_MODES",
    "RepairSession",
    "RepairSummary",
    "apply_pipelining",
    # client-facing object gateway
    "GatewayError",
    "GatewayServer",
    "ObjectClient",
    "ObjectManifest",
    "ObjectStore",
    "TrafficArbiter",
    # simulator backend
    "LifetimeConfig",
    "LifetimeReport",
    "RepairSimulator",
    "ShardedRepairResult",
    "TraceReplayProcess",
    "WeibullFailureProcess",
    "durability_study",
    "run_lifetime",
    "simulate_repair",
    "simulate_sharded_repair",
    # observability
    "MetricsRegistry",
    "Tracer",
    "__version__",
]
