"""Pin the public API surface of the ``repro`` package.

The names exported from ``repro/__init__.py`` are the stable contract
users (and the examples) program against; everything deeper is
implementation detail.  This snapshot makes any surface change — a
removed export, an accidental new one, a renamed alias — an explicit
diff in review rather than a silent break.
"""

from __future__ import annotations

import importlib

import pytest

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


# The subpackages are programmed against too (the benches, examples and
# CLI import from them), so their surfaces are pinned the same way.
SIM_API = [
    "DiskEvent",
    "LifetimeConfig",
    "LifetimeReport",
    "LifetimeResult",
    "PAPER_SIM_CONFIG",
    "RepairResult",
    "Simulation",
    "SimulationConfig",
    "SimulationError",
    "TraceReplayProcess",
    "WeibullFailureProcess",
    "build_cluster",
    "build_cluster_with_stf",
    "durability_study",
    "evaluate_plan",
    "fixed_stf_chunk_count",
    "run_lifetime",
]

FAILURE_API = [
    "CartPredictor",
    "ClusterFailureMonitor",
    "DEGRADATION_ATTRIBUTES",
    "DiskTrace",
    "FailurePredictor",
    "LogisticPredictor",
    "MissedFailure",
    "MonitorReport",
    "PredictionMetrics",
    "SMART_ATTRIBUTES",
    "SmartSample",
    "SmartTraceGenerator",
    "StfEvent",
    "ThresholdPredictor",
    "TraceFormatError",
    "daily_samples",
    "evaluate",
    "first_alarm_day",
    "load_traces",
    "save_traces",
    "training_windows",
    "window_features",
]

# One reactive path (plan_failed_node_repair, one task per dead node)
# and one guard for concurrent rounds (HelperBudget, at run time).
CORE_API = [
    "Algorithm1Stats",
    "AnalyticalModel",
    "BandwidthProfile",
    "BudgetTimeout",
    "ChunkRepairAction",
    "DinicMaxFlow",
    "FastPRPlanner",
    "HelperBudget",
    "HotStandbyPlacer",
    "IncrementalStripeMatcher",
    "LrcFastPRPlanner",
    "LrcReconstructionOnlyPlanner",
    "MigrationOnlyPlanner",
    "PAPER_DEFAULT_PROFILE",
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
    "apply_plan",
    "assign_scattered_destinations",
    "build_lrc_cluster",
    "find_reconstruction_sets",
    "gbit_per_s",
    "helper_assignment",
    "hopcroft_karp",
    "lrc_helper_candidates",
    "match_one_per_target",
    "mb_per_s",
    "mib",
    "migration_quota",
    "model_for",
    "optimal_packet_size",
    "plan_failed_node_repair",
    "profile_from_cluster",
    "schedule_migration_only",
    "schedule_reconstruction_only",
    "schedule_repair_rounds",
    "split_by_repair_locality",
    "split_plan",
    "stripe_helper_flow",
]

# StorageCluster.random/add_stripe place stripes; RackAwarePlacement is
# the one policy kept, for rack-tolerant test clusters.
CLUSTER_API = [
    "ChunkLocation",
    "ClusterError",
    "Node",
    "NodeId",
    "NodeRole",
    "NodeState",
    "RackAwarePlacement",
    "RackTopology",
    "RackViolationError",
    "StorageCluster",
    "Stripe",
    "StripeCatalog",
    "StripeId",
    "snapshot",
    "verify_rack_tolerance",
]

# One metrics exposition: the JSON document.
OBS_API = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA_VERSION",
    "MetricError",
    "MetricsRegistry",
    "REPORT_SCHEMA_VERSION",
    "RepairBreakdown",
    "RoundBreakdown",
    "SimClock",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceDocument",
    "TraceError",
    "Tracer",
    "WallClock",
    "breakdown_from_trace",
    "duration_of",
    "metrics_summary",
    "render_breakdown",
]


def test_all_matches_snapshot():
    assert sorted(repro.__all__) == sorted(PUBLIC_API)


@pytest.mark.parametrize(
    "module, snapshot",
    [
        ("repro.sim", SIM_API),
        ("repro.failure", FAILURE_API),
        ("repro.core", CORE_API),
        ("repro.cluster", CLUSTER_API),
        ("repro.obs", OBS_API),
    ],
)
def test_subpackage_all_matches_snapshot(module, snapshot):
    exported = importlib.import_module(module).__all__
    assert sorted(exported) == sorted(snapshot)
    assert len(exported) == len(set(exported))


@pytest.mark.parametrize(
    "module",
    [
        # one cluster-over-time model: sim.lifetime
        "repro.sim.timeline",
        "repro.failure.reliability",
        # one plan timer: sim.cost_model.evaluate_plan
        "repro.sim.simulator",
        "repro.sim.resources",
        # stripes are placed by StorageCluster; nothing rebalances
        "repro.cluster.placement",
        "repro.cluster.rebalance",
    ],
)
def test_retired_modules_stay_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_one_name_per_class():
    # A second name for one class, or a second front door in front of
    # run_repair, is retired for good.
    for name in ("Testbed", "RepairAgent", "RepairSession", "RepairSummary"):
        assert not hasattr(repro, name), name


def test_exports_come_from_repro_modules():
    for name in repro.__all__:
        obj = getattr(repro, name)
        module = getattr(obj, "__module__", "repro")
        assert module.startswith("repro"), f"{name} leaks {module}"


def test_deprecated_net_drivers_removed():
    # The per-transport drivers, agent runners and network builders
    # are gone for good — repro.net.launch keeps one factory
    # (open_network), one agent runner and one repair driver
    # (repro.runtime.driver.run_repair).
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
    ):
        assert name in obs.__all__, name
    assert not hasattr(obs, "parse_prometheus")
