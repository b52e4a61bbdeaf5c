"""Command-line interface for the FastPR reproduction.

Figure regeneration (the original entry point)::

    fastpr list                     # available experiments
    fastpr fig8 --runs 3            # one figure
    fastpr all                      # everything

Operational commands::

    fastpr snapshot --nodes 30 --stripes 120 --code "rs(9,6)" -o c.json
    fastpr plan --snapshot c.json --stf 3 [--scenario hot_standby]
    fastpr repair --snapshot c.json --stf 3 [--fault-plan faults.json] \
        [--metrics-out m.json] [--trace-out t.json]
    fastpr report --trace t.json [--metrics m.json]
    fastpr scrub --snapshot c.json [--corrupt 3]
    fastpr fleet --disks 200 --days 120 -o fleet.csv
    fastpr predict --fleet fleet.csv
    fastpr daemon --snapshot c.json --fleet fleet.csv --scrub-interval 7
    fastpr lifetime --trials 50 --code "rs(9,6)" --process both -o d.json

Multi-process mode (DESIGN.md §10) — every storage node a real OS
process, messages as length-prefixed CRC-checked frames over TCP::

    fastpr agent --snapshot c.json --node 3 --listen 127.0.0.1:9103 \
        --peers coordinator=127.0.0.1:9099 --workdir /tmp/run
    fastpr repair --snapshot c.json --stf 3 --transport tcp \
        --peers @peers.json --workdir /tmp/run

``plan`` marks the node soon-to-fail, runs FastPR and both baselines,
and prints each plan with its cost-model repair time.  ``repair``
actually executes the FastPR plan on the emulated testbed (real bytes,
emulated bandwidths); ``--fault-plan`` injects a JSON-described
:class:`~repro.runtime.faults.FaultPlan` — including coordinator
crashes, which the command survives by recovering from its write-ahead
journal.  ``repair`` can also export the run's observability artifacts
(``--metrics-out``/``--trace-out``), which ``report`` folds into a
per-round migration/reconstruction breakdown table.  ``scrub``
checksum-verifies every chunk and repairs silent corruption in place.
``fleet`` and ``predict`` exercise the failure-prediction substrate on
CSV dumps.

Conventions shared by every subcommand: ``--seed`` pins all randomness
and ``-o/--output`` writes the command's primary artifact to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .bench.experiments import ALL_EXPERIMENTS

_FIGURE_WORDS = set(ALL_EXPERIMENTS) | {"all", "list"}


class UsageError(Exception):
    """A bad invocation: :func:`main` prints the message on one line
    and exits 2, before any repair, journal or process exists."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastpr",
        description="Reproduce 'Fast Predictive Repair in Erasure-Coded "
        "Storage' (DSN 2019): figures, planning, failure prediction.",
    )
    sub = parser.add_subparsers(dest="command")

    figures = sub.add_parser(
        "figures", help="regenerate a paper figure (fig2..fig15, all, list)"
    )
    figures.add_argument("experiment")
    figures.add_argument("--runs", type=int, default=None)
    figures.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed forwarded to experiments that take one",
    )
    figures.add_argument(
        "-o",
        "--output",
        default=None,
        help="also write the harness results as a JSON list of experiments",
    )

    snapshot = sub.add_parser(
        "snapshot", help="generate a random cluster snapshot (JSON)"
    )
    snapshot.add_argument("--nodes", type=int, default=30)
    snapshot.add_argument("--stripes", type=int, default=120)
    snapshot.add_argument("--code", default="rs(9,6)")
    snapshot.add_argument("--hot-standby", type=int, default=3)
    snapshot.add_argument("--seed", type=int, default=None)
    snapshot.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="chunk size in bytes (scale down for fast emulated runs)",
    )
    snapshot.add_argument("-o", "--output", required=True)

    plan = sub.add_parser(
        "plan", help="plan the repair of an STF node from a snapshot"
    )
    plan.add_argument("--snapshot", required=True)
    plan.add_argument("--stf", type=int, required=True)
    plan.add_argument(
        "--scenario",
        choices=("scattered", "hot_standby"),
        default="scattered",
    )
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the FastPR plan as JSON",
    )

    repair = sub.add_parser(
        "repair",
        help="execute a FastPR repair on the emulated testbed "
        "(real bytes, journaled, crash-recoverable)",
    )
    repair.add_argument("--snapshot", required=True)
    repair.add_argument("--stf", type=int, required=True)
    repair.add_argument(
        "--scenario",
        choices=("scattered", "hot_standby"),
        default="scattered",
    )
    repair.add_argument("--seed", type=int, default=0)
    repair.add_argument(
        "--fault-plan",
        default=None,
        help="JSON file describing a FaultPlan to inject "
        "(node crashes, link faults, coordinator crashes)",
    )
    repair.add_argument(
        "--journal",
        default=None,
        help="write-ahead journal path (default: auto when the fault "
        "plan crashes the coordinator)",
    )
    repair.add_argument(
        "--packet-size",
        type=int,
        default=None,
        help="transfer granularity in bytes (default: chosen from the "
        "snapshot's chunk size and disk/network bandwidths, the paper's "
        "Experiment B.1 trade; at most what one transport frame carries)",
    )
    repair.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's metrics registry as JSON (readable by "
        "'fastpr report --metrics')",
    )
    repair.add_argument(
        "--trace-out",
        default=None,
        help="write the run's span trace as JSON (readable by "
        "'fastpr report --trace')",
    )
    repair.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the run summary (timings, retries, scrub verdict) as JSON",
    )
    repair.add_argument(
        "--transport",
        choices=("memory", "tcp", "shm"),
        default="memory",
        help="'memory' runs the whole repair in-process on the emulated "
        "fabric; 'tcp' drives standalone 'fastpr agent' processes over "
        "real sockets; 'shm' drives same-host agent processes over "
        "shared-memory rings (no peer spec — names derive from "
        "--workdir)",
    )
    repair.add_argument(
        "--peers",
        default=None,
        help="(tcp) node=host:port list or @file.json mapping every agent "
        "and 'coordinator' to its listen address",
    )
    repair.add_argument(
        "--workdir",
        default=None,
        help="(tcp/shm) shared directory holding each agent's chunk store "
        "(node_<id>/); used to verify repaired chunks byte-identical",
    )
    repair.add_argument(
        "--resume",
        action="store_true",
        help="(tcp/shm) recover from --journal instead of starting fresh: "
        "fence the dead coordinator's epoch and re-issue unfinished "
        "actions",
    )
    repair.add_argument(
        "--agent-timeout",
        type=float,
        default=60.0,
        help="(tcp/shm) seconds to wait for every agent to answer a ping "
        "before giving up",
    )
    repair.add_argument(
        "--config",
        default=None,
        help="RuntimeConfig JSON (timeouts, retry policy, queue bounds); "
        "omitted fields keep defaults",
    )
    repair.add_argument(
        "--coordinators",
        type=int,
        default=1,
        help="shard the stripe space across N coordinators, each with "
        "its own journal and epoch; a crashed shard's ownership hands "
        "off to a survivor (with --journal naming the journal "
        "directory when N > 1, default <workdir>/shards)",
    )
    repair.add_argument(
        "--racks",
        type=int,
        default=None,
        help="group the snapshot's nodes into R uniform racks so the "
        "fault plan's domain crashes (kind: rack) resolve to node "
        "crashes plus co-located coordinator kills",
    )
    repair.add_argument(
        "--pipelining",
        choices=("off", "chain"),
        default="off",
        help="'chain' streams each reconstruction's partial sums "
        "through an ordered helper chain (least-worth ingress first) "
        "instead of star fan-in; works uniformly across every "
        "--transport and --coordinators setting.  A --config with "
        "pipeline_slices N moves each chunk down the chain in N "
        "slices, one packet each",
    )

    agent = sub.add_parser(
        "agent",
        help="run one storage node's repair agent as a standalone "
        "process (serves repair traffic over TCP or shared memory "
        "until the coordinator sends Shutdown)",
    )
    agent.add_argument("--snapshot", required=True)
    agent.add_argument(
        "--node", type=int, required=True, help="this agent's node id"
    )
    agent.add_argument(
        "--transport",
        choices=("tcp", "shm"),
        default="tcp",
        help="'tcp' listens on --listen and dials --peers; 'shm' derives "
        "every ring name from --workdir (no --listen/--peers needed)",
    )
    agent.add_argument(
        "--listen",
        default=None,
        help="(tcp) host:port this agent accepts frames on",
    )
    agent.add_argument(
        "--peers",
        default=None,
        help="(tcp) node=host:port list or @file.json; must include "
        "'coordinator=host:port'",
    )
    agent.add_argument(
        "--workdir",
        required=True,
        help="directory for this node's chunk store (node_<id>/)",
    )
    agent.add_argument("--seed", type=int, default=0)
    agent.add_argument(
        "--config",
        default=None,
        help="RuntimeConfig JSON; must match the coordinator's so "
        "timeouts and fencing agree",
    )
    agent.add_argument(
        "--fault-plan",
        default=None,
        help="JSON FaultPlan shared by the whole cluster; this process "
        "injects the faults that apply to its sends",
    )
    agent.add_argument(
        "--no-load",
        action="store_true",
        help="skip deterministic data loading (store already populated, "
        "e.g. when resuming)",
    )

    gateway = sub.add_parser(
        "gateway",
        help="client-facing object store: serve PUT/GET over live "
        "agents, or act as the object client",
    )
    gsub = gateway.add_subparsers(dest="gateway_command")
    gserve = gsub.add_parser(
        "serve",
        help="run the object gateway against a live agent cluster "
        "(stripes PUTs through the codec, serves GETs degraded when a "
        "datanode is down)",
    )
    gserve.add_argument("--snapshot", required=True)
    gserve.add_argument(
        "--transport",
        choices=("tcp", "shm"),
        default="shm",
        help="'shm' derives every ring from --workdir; 'tcp' listens "
        "on --listen and dials --peers",
    )
    gserve.add_argument(
        "--workdir",
        required=True,
        help="the repair cluster's shared workdir (shm ring namespace, "
        "manifest directory)",
    )
    gserve.add_argument(
        "--listen", default=None, help="(tcp) host:port for the gateway"
    )
    gserve.add_argument(
        "--peers",
        default=None,
        help="(tcp) node=host:port list or @file.json; include "
        "'client=host:port' so replies reach the object client",
    )
    gserve.add_argument(
        "--chunk-size",
        type=int,
        default=64 * 1024,
        help="bytes per erasure-coded chunk (default 64 KiB)",
    )
    gserve.add_argument(
        "--client-floor",
        type=float,
        default=0.5,
        help="fraction of NIC bandwidth guaranteed to client traffic "
        "by the QoS arbiter (default 0.5)",
    )
    gserve.add_argument(
        "--max-seconds",
        type=float,
        default=0.0,
        help="exit after this many seconds (0 = serve until ^C)",
    )
    for gcmd, ghelp in (
        ("put", "store a file (or stdin) as an object"),
        ("get", "fetch an object to a file (or stdout)"),
    ):
        gp = gsub.add_parser(gcmd, help=ghelp)
        gp.add_argument("key", help="object key, e.g. videos/cat.mp4")
        gp.add_argument(
            "path",
            nargs="?",
            default="-",
            help="local file ('-' = stdin/stdout)",
        )
        gp.add_argument(
            "--transport", choices=("tcp", "shm"), default="shm"
        )
        gp.add_argument("--workdir", required=True)
        gp.add_argument("--listen", default=None)
        gp.add_argument("--peers", default=None)
        gp.add_argument(
            "--timeout",
            type=float,
            default=30.0,
            help="seconds to wait for the gateway's reply",
        )

    scrub = sub.add_parser(
        "scrub",
        help="checksum-verify every chunk and repair silent corruption",
    )
    scrub.add_argument("--snapshot", required=True)
    scrub.add_argument("--seed", type=int, default=0)
    scrub.add_argument(
        "--corrupt",
        type=int,
        default=0,
        help="flip a byte in this many randomly chosen chunks first "
        "(demonstrates detection + in-place repair)",
    )
    scrub.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the scrub report as JSON",
    )

    fleet = sub.add_parser(
        "fleet", help="generate a synthetic SMART fleet (CSV)"
    )
    fleet.add_argument("--disks", type=int, default=200)
    fleet.add_argument("--days", type=int, default=120)
    fleet.add_argument("--afr", type=float, default=0.1)
    fleet.add_argument("--seed", type=int, default=None)
    fleet.add_argument("-o", "--output", required=True)

    predict = sub.add_parser(
        "predict", help="train/evaluate the failure predictor on a fleet CSV"
    )
    predict.add_argument("--fleet", required=True)
    predict.add_argument("--train-fraction", type=float, default=0.7)
    predict.add_argument("--seed", type=int, default=0)
    predict.add_argument(
        "--model",
        choices=("logistic", "cart", "threshold"),
        default="logistic",
    )
    predict.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the evaluation metrics as JSON",
    )

    daemon = sub.add_parser(
        "daemon",
        help="run the always-on repair daemon: replay a SMART fleet "
        "against a snapshot, queueing and executing predictive/reactive "
        "repairs day by day (journaled, crash-resumable)",
    )
    daemon.add_argument("--snapshot", required=True)
    daemon.add_argument(
        "--fleet",
        required=True,
        help="SMART fleet CSV ('fastpr fleet'); trace i drives storage "
        "node i's disk",
    )
    daemon.add_argument(
        "--model",
        choices=("threshold", "logistic", "cart"),
        default="threshold",
        help="failure predictor watching the fleet (logistic/cart train "
        "on the fleet itself)",
    )
    daemon.add_argument(
        "--scenario",
        choices=("scattered", "hot_standby"),
        default="scattered",
    )
    daemon.add_argument("--seed", type=int, default=0)
    daemon.add_argument(
        "--journal",
        default=None,
        help="daemon queue journal (default: <workdir>/daemon.journal); "
        "reuse with --resume to continue after a crash",
    )
    daemon.add_argument(
        "--workdir",
        default=None,
        help="directory for chunk stores + journals (default: temp dir)",
    )
    daemon.add_argument(
        "--helper-budget",
        type=int,
        default=None,
        help="max repairs admitted per day; when spent, predictive "
        "repairs defer to the next day (reactive always admit)",
    )
    daemon.add_argument(
        "--scrub-interval",
        type=int,
        default=0,
        help="run a scrub cycle every N days (0 disables)",
    )
    daemon.add_argument(
        "--max-days",
        type=int,
        default=None,
        help="observe at most N telemetry days (default: full horizon)",
    )
    daemon.add_argument(
        "--fault-plan",
        default=None,
        help="JSON FaultPlan; coordinator_crashes and daemon_crashes "
        "kill the daemon mid-queue (it recovers from its journals)",
    )
    daemon.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's metrics registry (queue depth, task "
        "outcomes, scrub counters) as JSON",
    )
    daemon.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the daemon report (events, repairs, crashes) as JSON",
    )

    lifetime = sub.add_parser(
        "lifetime",
        help="Monte-Carlo cluster-lifetime simulation: lost-stripe "
        "probability over simulated years, predictive vs reactive",
    )
    lifetime.add_argument("--trials", type=int, default=50)
    lifetime.add_argument("--years", type=float, default=1.0)
    lifetime.add_argument("--disks", type=int, default=30)
    lifetime.add_argument("--stripes", type=int, default=120)
    lifetime.add_argument("--code", default="rs(9,6)")
    lifetime.add_argument(
        "--process",
        choices=("weibull", "trace-replay", "both"),
        default="weibull",
    )
    lifetime.add_argument(
        "--fleet",
        default=None,
        help="SMART fleet CSV for the trace-replay process (synthesized "
        "when omitted)",
    )
    lifetime.add_argument(
        "--afr",
        type=float,
        default=0.04,
        help="annual disk failure rate of the Weibull process",
    )
    lifetime.add_argument(
        "--concurrency",
        type=int,
        default=2,
        help="simultaneous whole-disk repairs the cluster sustains",
    )
    lifetime.add_argument(
        "--latent-rate",
        type=float,
        default=0.0,
        help="latent sector errors per disk-year (0 disables)",
    )
    lifetime.add_argument(
        "--scrub-interval",
        type=float,
        default=14.0,
        help="scrub sweep period in days surfacing latent errors",
    )
    lifetime.add_argument("--seed", type=int, default=0)
    lifetime.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the durability study (both modes per process) as JSON",
    )

    report = sub.add_parser(
        "report",
        help="render a per-round breakdown from a repair trace "
        "(--trace-out of 'fastpr repair')",
    )
    report.add_argument(
        "--trace", required=True, help="trace JSON from --trace-out"
    )
    report.add_argument(
        "--metrics",
        default=None,
        help="optional metrics JSON from --metrics-out (summarized below "
        "the table)",
    )
    report.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the breakdown as JSON",
    )
    return parser


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------


def build_experiment(
    name: str, runs: Optional[int] = None, seed: Optional[int] = None
):
    """Run one named experiment, forwarding only the kwargs it takes."""
    factory = ALL_EXPERIMENTS[name]
    kwargs = {}
    if runs is not None and "runs" in factory.__code__.co_varnames:
        kwargs["runs"] = runs
    if seed is not None and "seed" in factory.__code__.co_varnames:
        kwargs["seed"] = seed
    return factory(**kwargs)


def run_experiment(
    name: str, runs: Optional[int], seed: Optional[int] = None, collect=None
) -> str:
    started = time.perf_counter()
    experiment = build_experiment(name, runs, seed)
    elapsed = time.perf_counter() - started
    if collect is not None:
        collect.append(experiment)
    return experiment.render() + f"\n[{name} completed in {elapsed:.1f}s]\n"


def _cmd_figures(args) -> int:
    if args.experiment == "list":
        for name, factory in ALL_EXPERIMENTS.items():
            doc = (factory.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        return 0
    collected: list = []
    if args.experiment == "all":
        for name in ALL_EXPERIMENTS:
            print(run_experiment(name, args.runs, args.seed, collected))
    elif args.experiment not in ALL_EXPERIMENTS:
        raise UsageError(f"unknown experiment {args.experiment!r}; try 'list'")
    else:
        print(run_experiment(args.experiment, args.runs, args.seed, collected))
    if args.output is not None:
        _write_json(
            args.output, [experiment.to_dict() for experiment in collected]
        )
        print(f"wrote {len(collected)} experiment(s) to {args.output}")
    return 0


# ----------------------------------------------------------------------
# operational commands
# ----------------------------------------------------------------------


def _cmd_snapshot(args) -> int:
    from .cluster import StorageCluster
    from .cluster import snapshot as snapshot_mod
    from .ec import ReedSolomonCodec

    codec = _make_codec(args.code)
    if not isinstance(codec, ReedSolomonCodec):
        # A snapshot stores no code; every reader rebuilds rs(n, k).
        raise UsageError(
            f"snapshot stripes are rs(n,k); got --code {args.code!r}"
        )
    if args.stripes < 1:
        raise UsageError("--stripes must be >= 1")
    extra = {}
    if args.chunk_size is not None:
        extra["chunk_size"] = args.chunk_size
    cluster = _checked(
        "--nodes/--code",
        StorageCluster.random,
        args.nodes,
        args.stripes,
        codec.n,
        codec.k,
        num_hot_standby=args.hot_standby,
        seed=args.seed,
        **extra,
    )
    snapshot_mod.save(cluster, args.output)
    print(
        f"wrote {cluster} with {args.code} stripes to {args.output}"
    )
    return 0


def _cmd_plan(args) -> int:
    from .core.plan import RepairScenario
    from .core.planner import (
        FastPRPlanner,
        MigrationOnlyPlanner,
        ReconstructionOnlyPlanner,
    )
    from .sim.cost_model import evaluate_plan

    cluster = _load_snapshot(args.snapshot)
    scenario = RepairScenario(args.scenario)
    _mark_stf(cluster, args.stf)
    chunks = cluster.load_of(args.stf)
    print(f"{cluster}; STF node {args.stf} stores {chunks} chunks\n")
    print(
        f"{'planner':16s} {'rounds':>6s} {'migrate':>8s} {'reconstruct':>12s} "
        f"{'time (s)':>9s} {'s/chunk':>8s}"
    )
    fastpr_plan = None
    for planner in (
        FastPRPlanner(scenario=scenario, seed=args.seed),
        ReconstructionOnlyPlanner(scenario=scenario, seed=args.seed),
        MigrationOnlyPlanner(scenario=scenario),
    ):
        plan = planner.plan(cluster, args.stf)
        plan.validate(cluster)
        if fastpr_plan is None:
            fastpr_plan = plan  # the FastPR planner runs first
        result = evaluate_plan(cluster, plan)
        print(
            f"{planner.name:16s} {plan.num_rounds:>6d} "
            f"{plan.migrated_chunks:>8d} {plan.reconstructed_chunks:>12d} "
            f"{result.total_time:>9.1f} {result.time_per_chunk:>8.3f}"
        )
    if args.output is not None:
        _write_json(args.output, fastpr_plan.to_dict())
        print(f"\nwrote FastPR plan to {args.output}")
    return 0


def _write_json(path, document) -> None:
    with open(path, "w") as f:
        json.dump(document, f, indent=2)


def _read_json(flag: str, path: str, parse):
    """``parse`` of the JSON file named by ``flag``; a missing file or a
    document ``parse`` rejects is a :class:`UsageError`."""
    try:
        with open(path) as f:
            return parse(json.load(f))
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {flag}: {exc}") from None


def _checked(flags: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; the ValueError it raises on a value
    taken from ``flags`` is a :class:`UsageError`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"bad {flags}: {exc}") from None


def _load_fleet(path: str):
    from .failure import load_traces

    try:
        return load_traces(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad --fleet: {exc}") from None


def _load_snapshot(path: str):
    from .cluster import snapshot as snapshot_mod

    return _read_json("--snapshot", path, snapshot_mod.from_dict)


def _make_codec(spec: str):
    from .ec import make_codec

    try:
        return make_codec(spec)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad --code {spec!r}: {exc}") from None


def _infer_codec(cluster):
    from .ec import make_codec

    stripes = list(cluster.stripes())
    if not stripes:
        raise UsageError("snapshot has no stripes; nothing to repair")
    first = stripes[0]
    return make_codec(f"rs({first.n},{first.k})")


def _mark_stf(cluster, node_id: int) -> None:
    """Flag ``--stf`` soon-to-fail; it must be a live node."""
    from .cluster.cluster import ClusterError

    try:
        node = cluster.node(node_id)
    except ClusterError as exc:
        raise UsageError(f"bad --stf: {exc}") from None
    if node.is_failed:
        raise UsageError(f"node {node_id} already failed")
    node.mark_soon_to_fail()


def _load_runtime_config(path):
    """Load a RuntimeConfig JSON file, or None when no path given."""
    from .runtime import RuntimeConfig

    if path is None:
        return None
    return _read_json("--config", path, RuntimeConfig.from_dict)


def _load_fault_plan(path, cluster):
    """Load a FaultPlan JSON file against ``cluster``'s node set, or
    None when no path given."""
    from .runtime import FaultPlan

    if path is None:
        return None
    return _read_json(
        "--fault-plan",
        path,
        lambda document: FaultPlan.from_dict(document, node_ids=cluster.nodes),
    )


def _parse_peers(spec: str):
    from .net import PeerSpecError, parse_peer_spec

    try:
        return parse_peer_spec(spec)
    except PeerSpecError as exc:
        raise UsageError(f"bad --peers: {exc}") from None


def _require_shm() -> None:
    from .net import shm_available

    if not shm_available():
        raise UsageError("shared-memory transport needs POSIX shm + flock")


def _check_repair_invocation(args) -> None:
    """Reject a ``fastpr repair`` flag mix that cannot run."""
    if args.coordinators < 1:
        raise UsageError("--coordinators must be >= 1")
    if args.transport == "memory" and args.peers is not None:
        raise UsageError("--peers only applies to --transport tcp")
    if args.transport == "tcp" and args.peers is None:
        raise UsageError("--transport tcp needs --peers")
    if args.transport != "memory" and args.workdir is None:
        raise UsageError(f"--transport {args.transport} needs --workdir")
    if args.transport == "shm":
        if args.coordinators > 1:
            # The hole is on the agent side: it has no route to the
            # coordinator<k> endpoints (a tcp agent's peer spec spells
            # them out).
            raise UsageError(
                "--transport shm runs a single coordinator (shm agents "
                "derive their peers from the workdir and know no shard "
                "count); use --transport tcp for sharded repair"
            )
        _require_shm()
    if args.resume:
        if args.journal is None:
            raise UsageError("--resume needs --journal")
        if args.coordinators > 1:
            raise UsageError(
                "--resume applies to single-coordinator runs; sharded "
                "runs recover crashed shards internally"
            )


def _cmd_repair(args) -> int:
    from contextlib import ExitStack
    from pathlib import Path

    from .core.plan import RepairScenario, apply_pipelining
    from .core.planner import FastPRPlanner
    from .obs import MetricsRegistry, Tracer
    from .runtime import Scrubber
    from .runtime.coordinator import COORDINATOR_ID
    from .runtime.driver import RepairDriver, VerificationError, run_repair
    from .runtime.testbed import EmulatedTestbed

    _check_repair_invocation(args)
    peers = _parse_peers(args.peers) if args.peers is not None else None
    config = _load_runtime_config(args.config)
    cluster = _load_snapshot(args.snapshot)
    codec = _infer_codec(cluster)
    _mark_stf(cluster, args.stf)
    faults = _load_fault_plan(args.fault_plan, cluster)
    topology = None
    if args.racks is not None:
        from .cluster.topology import RackTopology

        topology = RackTopology.uniform(sorted(cluster.nodes), args.racks)
    plan = FastPRPlanner(
        scenario=RepairScenario(args.scenario), seed=args.seed
    ).plan(cluster, args.stf)
    plan.validate(cluster)
    print(plan.summary())
    sharded = args.coordinators > 1
    metrics = MetricsRegistry()
    tracer = Tracer()
    common = dict(
        packet_size=args.packet_size,
        config=config,
        journal_path=None if sharded else args.journal,
        metrics=metrics,
        tracer=tracer,
        faults=faults,
        topology=topology,
    )
    try:
        with ExitStack() as stack:
            # Who hosts the agents is the one thing the transport picks:
            # threads of this process, or agent processes on a wire.
            if args.transport == "memory":
                driver = stack.enter_context(
                    EmulatedTestbed(cluster, codec, workdir=args.workdir, **common)
                )
            else:
                from .net.launch import open_network

                network = open_network(
                    args.transport,
                    COORDINATOR_ID,
                    peers=peers,
                    workdir=Path(args.workdir),
                    peer_ids=cluster.nodes,
                    config=config,
                    metrics=metrics,
                )
                stack.callback(network.close)
                driver = RepairDriver(
                    network, cluster, codec, Path(args.workdir), **common
                )
            driver.load_random_data(seed=args.seed)
            result, verified, restarts = run_repair(
                driver,
                apply_pipelining(plan, args.pipelining),
                coordinators=args.coordinators,
                journal_dir=args.journal if sharded else None,
                resume=args.resume,
                agent_timeout=args.agent_timeout,
                log=print,
                # The scrub reads every store: a node the plan never
                # touches must have finished loading its data too.
                await_nodes=[
                    node_id
                    for node_id in cluster.nodes
                    if not cluster.node(node_id).is_failed
                ],
            )
            report = Scrubber(driver).scan()
    except VerificationError as exc:
        # Verification failure must surface as a non-zero exit with the
        # full list of mismatching chunk ids, never a silent success.
        print(f"post-repair verification failed: {exc}", file=sys.stderr)
        for mismatch in getattr(exc, "mismatches", []):
            print(
                f"mismatching chunk: stripe {mismatch.stripe_id} "
                f"index {mismatch.chunk_index} at node {mismatch.node_id} "
                f"({mismatch.reason})",
                file=sys.stderr,
            )
        return 1
    except Exception as exc:
        print(f"repair failed: {exc}", file=sys.stderr)
        return 1
    if args.metrics_out is not None:
        metrics.save(args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    if args.trace_out is not None:
        tracer.save(args.trace_out)
        print(f"wrote trace to {args.trace_out}")
    if args.output is not None:
        _write_json(
            args.output,
            {
                "version": 1,
                "transport": args.transport,
                "coordinators": args.coordinators,
                "pipelining": args.pipelining,
                "total_time_s": result.total_time,
                "round_times_s": list(result.round_times),
                "chunks_repaired": result.chunks_repaired,
                "chunks_verified": verified,
                "bytes_transferred": result.bytes_transferred,
                "retries": result.retries,
                "replans": result.replans,
                "nacks": result.nacks,
                "restarts": restarts,
                "dead_nodes": list(result.dead_nodes),
                "recovered_chunks": result.recovered_chunks,
                "converted_migrations": result.converted_migrations,
                "scrub": {
                    "chunks_checked": report.chunks_checked,
                    "corrupt": len(report.corrupt),
                },
            },
        )
        print(f"wrote run summary to {args.output}")
    fabric = {"tcp": "TCP", "shm": "shared memory"}.get(
        args.transport, "the in-memory fabric"
    )
    detail = ""
    if sharded:
        detail = f" ({args.coordinators} coordinators, {restarts} takeovers)"
    if args.pipelining != "off":
        detail += f" pipelining={args.pipelining}"
    print(
        f"repaired {result.chunks_repaired} chunks over {fabric} in "
        f"{result.total_time:.2f}s (+{result.recovered_chunks} recovered, "
        f"{len(result.round_times)} rounds){detail}; "
        f"retries={result.retries} replans={result.replans} "
        f"coordinator_restarts={restarts}"
    )
    print(
        f"post-repair scrub: {report.chunks_checked} chunks checked, "
        f"{len(report.corrupt)} corrupt"
    )
    for corrupt in report.corrupt:
        print(
            f"corrupt chunk: stripe {corrupt.stripe_id} index "
            f"{corrupt.chunk_index} at node {corrupt.node_id}",
            file=sys.stderr,
        )
    if not report.clean:
        return 1
    print(f"{verified} chunks verified byte-identical")
    return 0


def _wire_arguments(args, shm_peer_ids):
    """``--transport/--listen/--peers/--workdir`` as ``open_network`` keywords.

    ``shm_peer_ids`` are the endpoints a shm process should register (a
    tcp process is told by its peer spec).
    """
    from pathlib import Path

    if args.transport == "shm":
        _require_shm()
        return {"workdir": Path(args.workdir), "peer_ids": shm_peer_ids}
    if args.peers is None or args.listen is None:
        raise UsageError("--transport tcp needs --listen and --peers")
    peers = _parse_peers(args.peers)
    host, sep, port = args.listen.rpartition(":")
    if not sep or not port.isdigit():
        raise UsageError(f"--listen must be host:port, got {args.listen!r}")
    return {"peers": peers, "listen": (host, int(port))}


def _cmd_agent(args) -> int:
    from pathlib import Path

    from .ec.galois import KERNEL
    from .gateway import CLIENT_ID, GATEWAY_ID
    from .net import run_agent_process
    from .net.launch import open_network
    from .runtime.coordinator import COORDINATOR_ID

    cluster = _load_snapshot(args.snapshot)
    codec = _infer_codec(cluster)
    faults = _load_fault_plan(args.fault_plan, cluster)
    # Rings attach lazily, so a shm agent registers the gateway/client
    # endpoints unconditionally — chunk RPC replies reach them when a
    # gateway happens to share the workdir, and cost nothing otherwise.
    wire = _wire_arguments(
        args, list(cluster.nodes) + [COORDINATOR_ID, GATEWAY_ID, CLIENT_ID]
    )
    if "peers" in wire and COORDINATOR_ID not in wire["peers"]:
        raise UsageError("--peers must include coordinator=host:port")
    config = _load_runtime_config(args.config)
    print(
        f"agent {args.node} starting over {args.transport} "
        f"(GF kernel {KERNEL})",
        flush=True,
    )
    loaded = run_agent_process(
        open_network(args.transport, args.node, config=config, **wire),
        cluster,
        codec,
        args.node,
        Path(args.workdir),
        seed=args.seed,
        config=config,
        load_data=not args.no_load,
        faults=faults,
    )
    print(f"agent {args.node} done ({loaded} chunks served)")
    return 0


def _cmd_gateway(args) -> int:
    if args.gateway_command is None:
        raise UsageError("gateway needs a subcommand: serve, put or get")
    if args.gateway_command == "serve":
        return _cmd_gateway_serve(args)
    return _cmd_gateway_client(args)


def _cmd_gateway_serve(args) -> int:
    import time as time_mod
    from pathlib import Path

    from .ec.galois import KERNEL
    from .gateway import CLIENT_ID, GATEWAY_ID, GatewayServer, TrafficArbiter
    from .net.launch import open_network

    cluster = _load_snapshot(args.snapshot)
    codec = _infer_codec(cluster)
    workdir = Path(args.workdir)
    wire = _wire_arguments(args, list(cluster.nodes) + [CLIENT_ID])
    network = open_network(args.transport, GATEWAY_ID, **wire)
    arbiter = TrafficArbiter(
        cluster.network_bandwidth, client_floor=args.client_floor
    )
    network.arbiter = arbiter
    server = GatewayServer(
        cluster,
        codec,
        network,
        bandwidth=cluster.network_bandwidth,
        chunk_size=args.chunk_size,
        manifest_dir=workdir / "manifests",
    )
    print(
        f"gateway serving {codec!r} objects over {args.transport} "
        f"(client floor {args.client_floor:.0%}, GF kernel {KERNEL}); "
        "^C to stop",
        flush=True,
    )
    try:
        if args.max_seconds > 0:
            time_mod.sleep(args.max_seconds)
        else:
            while True:
                time_mod.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        network.close()
    print(f"gateway done ({len(server.keys())} objects cataloged)")
    return 0


def _cmd_gateway_client(args) -> int:
    from pathlib import Path

    from .gateway import CLIENT_ID, GATEWAY_ID, GatewayError, ObjectClient
    from .net.launch import open_network

    wire = _wire_arguments(args, [GATEWAY_ID])
    network = open_network(args.transport, CLIENT_ID, **wire)
    client = ObjectClient(network, timeout=args.timeout)
    try:
        if args.gateway_command == "put":
            if args.path == "-":
                data = sys.stdin.buffer.read()
            else:
                data = Path(args.path).read_bytes()
            reply = client.put(args.key, data)
            print(
                f"put {args.key}: {reply.size} bytes across "
                f"{len(reply.stripes)} stripe(s) {list(reply.stripes)}"
            )
        else:
            reply = client.get(args.key)
            if args.path == "-":
                sys.stdout.buffer.write(reply.payload)
                sys.stdout.buffer.flush()
            else:
                Path(args.path).write_bytes(reply.payload)
            mode = "degraded" if reply.degraded else "healthy"
            print(
                f"get {args.key}: {len(reply.payload)} bytes ({mode})",
                file=sys.stderr,
            )
        return 0
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
        network.close()


def _cmd_scrub(args) -> int:
    import random as random_mod

    from .runtime import Scrubber
    from .runtime.testbed import EmulatedTestbed

    cluster = _load_snapshot(args.snapshot)
    codec = _infer_codec(cluster)
    testbed = EmulatedTestbed(cluster, codec)
    with testbed:
        testbed.load_random_data(seed=args.seed)
        rng = random_mod.Random(args.seed)
        stripes = list(cluster.stripes())
        for _ in range(args.corrupt):
            stripe = rng.choice(stripes)
            index = rng.randrange(len(stripe.placement))
            store = testbed.stores[stripe.placement[index]]
            data = bytearray(store.read(stripe.stripe_id))
            data[rng.randrange(len(data))] ^= 0xFF
            store.put(stripe.stripe_id, bytes(data))
        report = Scrubber(testbed).scrub()
        if args.output is not None:
            import dataclasses

            _write_json(
                args.output,
                {
                    "version": 1,
                    "chunks_checked": report.chunks_checked,
                    "corrupt": [dataclasses.asdict(c) for c in report.corrupt],
                    "repaired": [
                        dataclasses.asdict(c) for c in report.repaired
                    ],
                    "unrepairable": [
                        dataclasses.asdict(c) for c in report.unrepairable
                    ],
                },
            )
            print(f"wrote scrub report to {args.output}")
        print(
            f"scrubbed {report.chunks_checked} chunks: "
            f"{len(report.corrupt)} corrupt, {len(report.repaired)} "
            f"repaired in place, {len(report.unrepairable)} unrepairable"
        )
        if report.unrepairable:
            return 1
        rescan = Scrubber(testbed).scan()
        if not rescan.clean:
            print("rescan still found corrupt chunks", file=sys.stderr)
            return 1
    print("store is clean")
    return 0


def _cmd_fleet(args) -> int:
    from .failure import SmartTraceGenerator, save_traces

    traces = _checked(
        "--disks/--days/--afr",
        SmartTraceGenerator,
        args.disks,
        horizon_days=args.days,
        annual_failure_rate=args.afr,
        seed=args.seed,
    ).generate()
    save_traces(traces, args.output)
    failing = sum(t.will_fail for t in traces)
    print(
        f"wrote {len(traces)} disks x {args.days} days "
        f"({failing} failing) to {args.output}"
    )
    return 0


def _predictor(model: str, seed: int, traces):
    """The ``--model`` failure predictor, trained on ``traces``."""
    from .failure import CartPredictor, LogisticPredictor, ThresholdPredictor

    try:
        if model == "logistic":
            return LogisticPredictor(seed=seed).fit(traces)
        if model == "cart":
            return CartPredictor().fit(traces)
        return ThresholdPredictor()
    except ValueError as exc:
        raise UsageError(f"training failed: {exc}") from None


def _cmd_predict(args) -> int:
    from .failure import evaluate

    if not 0 < args.train_fraction < 1:
        raise UsageError(
            f"--train-fraction must be in (0, 1), got {args.train_fraction}"
        )
    traces = _load_fleet(args.fleet)
    split = int(len(traces) * args.train_fraction)
    train, test = traces[:split], traces[split:]
    if not train or not test:
        raise UsageError("fleet too small to split")
    predictor = _predictor(args.model, args.seed, train)
    metrics = evaluate(predictor, test)
    print(
        f"model: {args.model}; disks: {len(train)} train / {len(test)} test\n"
        f"precision={metrics.precision:.3f} recall={metrics.recall:.3f} "
        f"false-alarm rate={metrics.false_alarm_rate:.4f} "
        f"mean lead={metrics.mean_lead_days:.1f} days"
    )
    if args.output is not None:
        _write_json(
            args.output,
            {
                "version": 1,
                "model": args.model,
                "train_disks": len(train),
                "test_disks": len(test),
                "precision": metrics.precision,
                "recall": metrics.recall,
                "false_alarm_rate": metrics.false_alarm_rate,
                "mean_lead_days": metrics.mean_lead_days,
            },
        )
        print(f"wrote evaluation metrics to {args.output}")
    return 0


def _cmd_daemon(args) -> int:
    from functools import partial
    from pathlib import Path

    from .core.plan import RepairScenario
    from .failure import ClusterFailureMonitor
    from .runtime import CoordinatorCrash
    from .runtime.daemon import DaemonCrash, RepairDaemon
    from .runtime.testbed import EmulatedTestbed

    cluster = _load_snapshot(args.snapshot)
    codec = _infer_codec(cluster)
    traces = _load_fleet(args.fleet)
    storage_nodes = cluster.storage_node_ids()
    if len(traces) > len(storage_nodes):
        traces = traces[: len(storage_nodes)]
    predictor = _predictor(args.model, args.seed, traces)
    faults = _load_fault_plan(args.fault_plan, cluster)
    testbed = EmulatedTestbed(
        cluster,
        codec,
        workdir=Path(args.workdir) if args.workdir else None,
        faults=faults,
    )
    journal_path = (
        Path(args.journal) if args.journal else testbed.workdir / "daemon.journal"
    )
    monitor = ClusterFailureMonitor(cluster, traces, predictor)
    new_daemon = partial(
        RepairDaemon,
        testbed,
        monitor,
        journal_path=journal_path,
        scenario=RepairScenario(args.scenario),
        seed=args.seed,
        helper_budget=args.helper_budget,
        scrub_interval_days=args.scrub_interval,
    )
    crashes = 0
    with testbed:
        testbed.load_random_data(seed=args.seed)
        daemon = new_daemon()
        # Supervised loop: an injected daemon/coordinator death is
        # survived by a successor on the same journals — the always-on
        # property the deployment story needs.
        while True:
            try:
                daemon.resume()
                report = daemon.run(max_days=args.max_days)
                break
            except (CoordinatorCrash, DaemonCrash) as crash:
                crashes += 1
                print(f"daemon died ({crash}); restarting from journal")
                daemon.close()
                daemon = new_daemon()
        daemon.close()
    print(
        f"daemon observed {daemon.next_day} days: "
        f"{len(report.stf_events)} predictive alarms "
        f"({len(report.suppressed_alarms)} suppressed), "
        f"{len(report.missed_failures)} missed failures, "
        f"{daemon.completed_tasks} repairs completed, "
        f"{daemon.queue_depth} queued, {crashes} restarts"
    )
    if args.metrics_out is not None:
        testbed.metrics.save(args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    if args.output is not None:
        _write_json(
            args.output,
            {
                "version": 1,
                "days_observed": daemon.next_day,
                "stf_events": len(report.stf_events),
                "suppressed_alarms": len(report.suppressed_alarms),
                "missed_failures": len(report.missed_failures),
                "repairs_completed": daemon.completed_tasks,
                "queue_depth": daemon.queue_depth,
                "restarts": crashes,
            },
        )
        print(f"wrote daemon report to {args.output}")
    return 0


def _cmd_lifetime(args) -> int:
    from .failure import SmartTraceGenerator, ThresholdPredictor
    from .sim.lifetime import (
        LifetimeConfig,
        TraceReplayProcess,
        WeibullFailureProcess,
        durability_study,
    )

    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    codec = _make_codec(args.code)
    config = _checked(
        "--disks/--stripes/--code/--years/--concurrency",
        LifetimeConfig,
        num_disks=args.disks,
        num_stripes=args.stripes,
        n=codec.n,
        k=codec.k,
        years=args.years,
        repair_concurrency=args.concurrency,
        latent_errors_per_disk_year=args.latent_rate,
        scrub_interval_days=args.scrub_interval,
    )
    processes = []
    if args.process in ("weibull", "both"):
        processes.append(
            _checked(
                "--afr", WeibullFailureProcess, annual_failure_rate=args.afr
            )
        )
    if args.process in ("trace-replay", "both"):
        if args.fleet is not None:
            traces = _load_fleet(args.fleet)
        else:
            traces = _checked(
                "--afr",
                SmartTraceGenerator,
                max(args.disks, 50),
                annual_failure_rate=max(args.afr, 0.05),
                seed=args.seed,
            ).generate()
        processes.append(
            TraceReplayProcess(traces, ThresholdPredictor())
        )
    entries = durability_study(
        processes, config, trials=args.trials, seed=args.seed
    )
    for entry in entries:
        for mode in ("predictive", "reactive"):
            summary = entry[mode]
            print(
                f"{entry['process']:13s} {mode:10s} "
                f"P(loss)={summary['lost_stripe_probability']:.4f}  "
                f"lost/trial={summary['mean_lost_stripes']:.3f}  "
                f"chunk-days at risk={summary['mean_chunk_days_at_risk']:.1f}  "
                f"max queue={summary['max_queue_depth']}"
            )
    if args.output is not None:
        _write_json(
            args.output,
            {
                "version": 1,
                "trials": args.trials,
                "years": args.years,
                "code": args.code,
                "processes": entries,
            },
        )
        print(f"wrote durability study to {args.output}")
    return 0


def _cmd_report(args) -> int:
    from .obs import (
        TraceError,
        breakdown_from_trace,
        load_report_inputs,
        metrics_summary,
        render_breakdown,
    )

    try:
        trace, metrics_doc = load_report_inputs(args.trace, args.metrics)
        breakdown = breakdown_from_trace(trace)
    except (OSError, TraceError, ValueError) as exc:
        raise UsageError(f"cannot build report: {exc}") from None
    print(render_breakdown(breakdown))
    if metrics_doc is not None:
        summary = metrics_summary(metrics_doc)
        if summary:
            print("\nmetrics:")
            print(summary)
    if args.output is not None:
        _write_json(args.output, breakdown.to_dict())
        print(f"\nwrote breakdown to {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backward compatibility: `fastpr fig8` == `fastpr figures fig8`.
    if argv and argv[0] in _FIGURE_WORDS:
        argv = ["figures"] + argv
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handler = {
        "figures": _cmd_figures,
        "snapshot": _cmd_snapshot,
        "plan": _cmd_plan,
        "repair": _cmd_repair,
        "agent": _cmd_agent,
        "gateway": _cmd_gateway,
        "scrub": _cmd_scrub,
        "fleet": _cmd_fleet,
        "predict": _cmd_predict,
        "daemon": _cmd_daemon,
        "lifetime": _cmd_lifetime,
        "report": _cmd_report,
    }[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
