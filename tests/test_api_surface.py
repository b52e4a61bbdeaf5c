"""Pin the public API surface of the ``repro`` package.

The names exported from ``repro/__init__.py`` are the stable contract
users (and the examples) program against; everything deeper is
implementation detail.  This snapshot makes any surface change — a
removed export, an accidental new one, a renamed alias — an explicit
diff in review rather than a silent break.
"""

from __future__ import annotations

import repro

# The snapshot. Extending the surface means updating this list — a
# deliberate act — and removals should ring loud alarm bells.
PUBLIC_API = [
    # erasure coding
    "ErasureCodec",
    "LocalReconstructionCodec",
    "MsrCodec",
    "ReedSolomonCodec",
    "make_codec",
    # cluster model
    "ChunkLocation",
    "RackTopology",
    "StorageCluster",
    "Stripe",
    # planning + analysis
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
    # emulated runtime backend
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


def test_all_matches_snapshot():
    assert sorted(repro.__all__) == sorted(PUBLIC_API)


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_stable_aliases():
    # Paper-vocabulary aliases point at the implementation classes.
    assert repro.Testbed is repro.EmulatedTestbed
    assert repro.RepairAgent is repro.Agent


def test_exports_come_from_repro_modules():
    for name in repro.__all__:
        obj = getattr(repro, name)
        module = getattr(obj, "__module__", "repro")
        assert module.startswith("repro"), f"{name} leaks {module}"


def test_deprecated_net_drivers_removed():
    # The per-transport drivers, agent runners and network builders
    # are gone for good — repro.net.launch keeps one factory
    # (open_network), one agent runner and one repair driver, and
    # RepairSession is the supported way to drive a repair.
    import repro.net as net
    from repro.net import launch

    for name in ("run_tcp_repair", "run_shm_repair",
                 "run_tcp_multicoord_repair", "run_shm_agent_process",
                 "build_coordinator_network"):
        assert not hasattr(net, name), name
        assert name not in net.__all__, name
        assert not hasattr(launch, name), name


def test_obs_surface():
    # The observability names the CLI and bench harness program against.
    from repro import obs

    for name in (
        "MetricsRegistry",
        "Tracer",
        "SimClock",
        "TraceDocument",
        "breakdown_from_trace",
        "render_breakdown",
        "parse_prometheus",
    ):
        assert name in obs.__all__, name
