"""repro — reproduction of "Fast Predictive Repair in Erasure-Coded Storage".

The package reimplements, in pure Python, the complete FastPR system
from Shen, Li and Lee (DSN 2019): the erasure-coding substrate, the
cluster model, the reconstruction-set and repair-scheduling algorithms,
the Section-III analytical model and the cost-model plan timer of the
paper's simulator, an emulated coordinator/agent testbed runtime, and a
disk-failure prediction substrate.

Quickstart::

    from repro import make_codec, StorageCluster, FastPRPlanner
    from repro import evaluate_plan            # cost-model plan timer
    from repro import EmulatedTestbed          # emulated-runtime backend

The names exported here are the stable public API: planning
(``FastPRPlanner`` and friends), the plan timer (``evaluate_plan``),
the emulated runtime (``EmulatedTestbed``, ``Coordinator``, ``Agent``)
with its configuration (``RuntimeConfig``, ``FaultPlan``), and the
observability layer (``MetricsRegistry``, ``Tracer``).  A repair runs
through :func:`repro.runtime.driver.run_repair` on any transport, which
``fastpr repair`` calls.  Deeper module paths
(``repro.runtime.transport``, ...) are implementation detail and may
move between releases; ``tests/test_api_surface.py`` pins this surface.

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
from .core.plan import PIPELINING_MODES, apply_pipelining
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
from .sim import (
    LifetimeConfig,
    LifetimeReport,
    TraceReplayProcess,
    WeibullFailureProcess,
    durability_study,
    evaluate_plan,
    run_lifetime,
)

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
    "RepairDaemon",
    "RepairFailedError",
    "RuntimeConfig",
    "Scrubber",
    "ShardFailedError",
    "TakeoverEvent",
    "ShmNetwork",
    "TcpNetwork",
    # plan strategy rewrite
    "PIPELINING_MODES",
    "apply_pipelining",
    # client-facing object gateway
    "GatewayError",
    "GatewayServer",
    "ObjectClient",
    "ObjectManifest",
    "ObjectStore",
    "TrafficArbiter",
    # plan timer and lifetime studies
    "LifetimeConfig",
    "LifetimeReport",
    "TraceReplayProcess",
    "WeibullFailureProcess",
    "durability_study",
    "evaluate_plan",
    "run_lifetime",
    # observability
    "MetricsRegistry",
    "Tracer",
    "__version__",
]
