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
actually executes the FastPR plan with real bytes: in this process on
the emulated testbed (emulated bandwidths), or against ``fastpr agent``
processes over TCP or shared memory (``--transport``); ``--fault-plan``
injects a JSON-described :class:`~repro.runtime.faults.FaultPlan` —
including coordinator crashes, which the command survives by recovering
from its write-ahead journal.  ``repair`` can also export the run's
observability artifacts (``--metrics-out``/``--trace-out``), which
``report`` folds into a per-round migration/reconstruction breakdown
table.  ``scrub`` checksum-verifies every chunk and repairs silent
corruption in place.  ``fleet`` and ``predict`` exercise the
failure-prediction substrate on CSV dumps.

:data:`COMMANDS` is the one table of subcommands and their flags;
:func:`main` runs each one the same way (see :class:`Command`).

Conventions: ``--seed`` pins all randomness of the subcommands that
generate data or run a repair, and ``-o/--output`` writes a command's
primary artifact to a file.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import random
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .bench.experiments import ALL_EXPERIMENTS
from .cluster import snapshot as snapshot_mod
from .cluster.cluster import ClusterError
from .ec import make_codec
from .failure import load_traces
from .net import parse_peer_spec, shm_available
from .obs import MetricsRegistry, TraceDocument, Tracer
from .runtime import FaultPlan, RuntimeConfig

_FIGURE_WORDS = set(ALL_EXPERIMENTS) | {"all", "list"}


class UsageError(Exception):
    """A bad invocation: :func:`main` prints the message on one line
    and exits 2, before any repair, journal or process exists."""


# ----------------------------------------------------------------------
# loaders: one per file- or spec-valued flag, run before the handler
# ----------------------------------------------------------------------


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _mark_stf(node_id, args):
    """Flag ``--stf`` soon-to-fail; it must be a live node."""
    try:
        node = args.cluster.node(node_id)
    except ClusterError as exc:
        raise ValueError(exc) from None
    if node.is_failed:
        raise UsageError(f"node {node_id} already failed")
    node.mark_soon_to_fail()
    return node_id


def _host_port(spec, _args):
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise UsageError(f"--listen must be host:port, got {spec!r}")
    return host, int(port)


#: flag dest -> (attribute the value loads into, loader(value, args)).
#: They run in this order, each when its flag has a value: ``--stf`` and
#: ``--fault-plan`` resolve against the loaded ``--snapshot``.
LOADERS: Dict[str, Tuple[str, Callable]] = {
    "snapshot": ("cluster", lambda path, _: snapshot_mod.load(path)),
    "stf": ("stf", _mark_stf),
    "code": ("codec", lambda spec, _: make_codec(spec)),
    "config": (
        "config",
        lambda path, _: RuntimeConfig.from_dict(_read_json(path)),
    ),
    "fault_plan": (
        "faults",
        lambda path, args: FaultPlan.from_dict(
            _read_json(path), node_ids=args.cluster.nodes
        ),
    ),
    "fleet": ("traces", lambda path, _: load_traces(path)),
    "peers": ("peers", lambda spec, _: parse_peer_spec(spec)),
    "listen": ("listen", _host_port),
    "trace": ("trace", lambda path, _: TraceDocument.load(path)),
    "metrics": ("metrics", lambda path, _: _read_json(path)),
}


def _load(args) -> None:
    for dest, (into, load) in LOADERS.items():
        if not hasattr(args, dest):
            continue
        value = getattr(args, dest)
        try:
            setattr(args, into, None if value is None else load(value, args))
        except (OSError, TypeError, ValueError) as exc:
            flag_name = "--" + dest.replace("_", "-")
            raise UsageError(f"bad {flag_name}: {exc}") from None


def _infer_codec(cluster):
    stripes = list(cluster.stripes())
    if not stripes:
        raise UsageError("snapshot has no stripes; nothing to repair")
    first = stripes[0]
    return make_codec(f"rs({first.n},{first.k})")


def _require_shm() -> None:
    if not shm_available():
        raise UsageError("shared-memory transport needs POSIX shm + flock")


def _open_network(args, own_id, shm_peer_ids, **kwargs):
    """The ``--transport/--listen/--peers/--workdir`` network of endpoint
    ``own_id``.

    ``shm_peer_ids`` are the endpoints a shm process should register (a
    tcp process is told by its peer spec).
    """
    from .net.launch import open_network

    if args.transport == "shm":
        _require_shm()
        wire = {"workdir": Path(args.workdir), "peer_ids": shm_peer_ids}
    elif args.peers is None or args.listen is None:
        raise UsageError("--transport tcp needs --listen and --peers")
    else:
        wire = {"peers": args.peers, "listen": args.listen}
    return open_network(args.transport, own_id, **wire, **kwargs)


# ----------------------------------------------------------------------
# handlers: each returns its exit code, or (exit code, what, document)
# for -o: a JSON document, or a callable that writes the file it is given
# ----------------------------------------------------------------------


def run_experiment(name: str, runs: Optional[int], collect=None) -> str:
    """Run one named experiment, forwarding ``runs`` if it takes it."""
    factory = ALL_EXPERIMENTS[name]
    kwargs = {}
    if runs is not None and "runs" in inspect.signature(factory).parameters:
        kwargs["runs"] = runs
    started = time.perf_counter()
    experiment = factory(**kwargs)
    elapsed = time.perf_counter() - started
    if collect is not None:
        collect.append(experiment)
    return experiment.render() + f"\n[{name} completed in {elapsed:.1f}s]\n"


def _cmd_figures(args):
    if args.experiment == "list":
        for name, factory in ALL_EXPERIMENTS.items():
            doc = (factory.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        return 0
    if args.experiment == "all":
        names = list(ALL_EXPERIMENTS)
    elif args.experiment in ALL_EXPERIMENTS:
        names = [args.experiment]
    else:
        raise UsageError(f"unknown experiment {args.experiment!r}; try 'list'")
    collected: list = []
    for name in names:
        print(run_experiment(name, args.runs, collected))
    document = [experiment.to_dict() for experiment in collected]
    return 0, f"{len(collected)} experiment(s)", document


def _cmd_snapshot(args):
    from .cluster import StorageCluster
    from .ec import ReedSolomonCodec

    if not isinstance(args.codec, ReedSolomonCodec):
        # A snapshot stores no code; every reader rebuilds rs(n, k).
        raise UsageError(
            f"snapshot stripes are rs(n,k); got --code {args.code!r}"
        )
    if args.stripes < 1:
        raise UsageError("--stripes must be >= 1")
    extra = {}
    if args.chunk_size is not None:
        extra["chunk_size"] = args.chunk_size
    cluster = StorageCluster.random(
        args.nodes,
        args.stripes,
        args.codec.n,
        args.codec.k,
        num_hot_standby=args.hot_standby,
        seed=args.seed,
        **extra,
    )
    what = f"{cluster} with {args.code} stripes"
    return 0, what, snapshot_mod.to_dict(cluster)


def _cmd_plan(args):
    from .core.plan import RepairScenario
    from .core.planner import (
        FastPRPlanner,
        MigrationOnlyPlanner,
        ReconstructionOnlyPlanner,
    )
    from .sim.cost_model import evaluate_plan

    cluster = args.cluster
    scenario = RepairScenario(args.scenario)
    chunks = cluster.load_of(args.stf)
    print(f"{cluster}; STF node {args.stf} stores {chunks} chunks\n")
    print(
        f"{'planner':16s} {'rounds':>6s} {'migrate':>8s} {'reconstruct':>12s} "
        f"{'time (s)':>9s} {'s/chunk':>8s}"
    )
    plans = []
    for planner in (
        FastPRPlanner(scenario=scenario, seed=args.seed),
        ReconstructionOnlyPlanner(scenario=scenario, seed=args.seed),
        MigrationOnlyPlanner(scenario=scenario),
    ):
        plan = planner.plan(cluster, args.stf)
        plan.validate(cluster)
        plans.append(plan)
        result = evaluate_plan(cluster, plan)
        print(
            f"{planner.name:16s} {plan.num_rounds:>6d} "
            f"{plan.migrated_chunks:>8d} {plan.reconstructed_chunks:>12d} "
            f"{result.total_time:>9.1f} {result.time_per_chunk:>8.3f}"
        )
    return 0, "FastPR plan", plans[0].to_dict()  # FastPR runs first


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


def _cmd_repair(args):
    from contextlib import ExitStack

    from .core.plan import RepairScenario, apply_pipelining
    from .core.planner import FastPRPlanner
    from .runtime import Scrubber
    from .runtime.coordinator import COORDINATOR_ID
    from .runtime.driver import RepairDriver, VerificationError, run_repair
    from .runtime.testbed import EmulatedTestbed

    cluster = args.cluster
    codec = _infer_codec(cluster)
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
    common = dict(
        packet_size=args.packet_size,
        config=args.config,
        journal_path=None if sharded else args.journal,
        metrics=args.metrics_registry,
        tracer=args.tracer,
        faults=args.faults,
        topology=topology,
    )
    driver = None
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
                    peers=args.peers,
                    workdir=Path(args.workdir),
                    peer_ids=cluster.nodes,
                    config=args.config,
                    metrics=args.metrics_registry,
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
        if driver is None and isinstance(exc, ValueError):
            raise  # the flags could not build a driver: a usage error
        print(f"repair failed: {exc}", file=sys.stderr)
        return 1
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
    if report.clean:
        print(f"{verified} chunks verified byte-identical")
    return 0 if report.clean else 1, "run summary", {
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
    }


def _cmd_agent(args):
    from .ec.galois import KERNEL
    from .gateway import CLIENT_ID, GATEWAY_ID
    from .net import run_agent_process
    from .runtime.coordinator import COORDINATOR_ID

    cluster = args.cluster
    peers = args.peers if args.transport == "tcp" else None
    if peers is not None and COORDINATOR_ID not in peers:
        raise UsageError("--peers must include coordinator=host:port")
    # Rings attach lazily, so a shm agent registers the gateway/client
    # endpoints unconditionally — chunk RPC replies reach them when a
    # gateway happens to share the workdir, and cost nothing otherwise.
    network = _open_network(
        args,
        args.node,
        list(cluster.nodes) + [COORDINATOR_ID, GATEWAY_ID, CLIENT_ID],
        config=args.config,
    )
    print(
        f"agent {args.node} starting over {args.transport} "
        f"(GF kernel {KERNEL})",
        flush=True,
    )
    loaded = run_agent_process(
        network,
        cluster,
        _infer_codec(cluster),
        args.node,
        Path(args.workdir),
        seed=args.seed,
        config=args.config,
        load_data=not args.no_load,
        faults=args.faults,
    )
    print(f"agent {args.node} done ({loaded} chunks served)")
    return 0


def _cmd_gateway_serve(args):
    from .ec.galois import KERNEL
    from .gateway import CLIENT_ID, GATEWAY_ID, GatewayServer, TrafficArbiter

    cluster = args.cluster
    codec = _infer_codec(cluster)
    arbiter = TrafficArbiter(
        cluster.network_bandwidth, client_floor=args.client_floor
    )
    network = _open_network(
        args, GATEWAY_ID, list(cluster.nodes) + [CLIENT_ID]
    )
    network.arbiter = arbiter
    server = GatewayServer(
        cluster,
        codec,
        network,
        bandwidth=cluster.network_bandwidth,
        chunk_size=args.chunk_size,
        manifest_dir=Path(args.workdir) / "manifests",
    )
    print(
        f"gateway serving {codec!r} objects over {args.transport} "
        f"(client floor {args.client_floor:.0%}, GF kernel {KERNEL}); "
        "^C to stop",
        flush=True,
    )
    try:
        if args.max_seconds > 0:
            time.sleep(args.max_seconds)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        network.close()
    print(f"gateway done ({len(server.keys())} objects cataloged)")
    return 0


def _cmd_gateway_client(args):
    from .gateway import CLIENT_ID, GATEWAY_ID, GatewayError, ObjectClient

    network = _open_network(args, CLIENT_ID, [GATEWAY_ID])
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


def _cmd_scrub(args):
    from .runtime import Scrubber
    from .runtime.testbed import EmulatedTestbed

    cluster = args.cluster
    testbed = EmulatedTestbed(cluster, _infer_codec(cluster))
    with testbed:
        testbed.load_random_data(seed=args.seed)
        rng = random.Random(args.seed)
        stripes = list(cluster.stripes())
        for _ in range(args.corrupt):
            stripe = rng.choice(stripes)
            index = rng.randrange(len(stripe.placement))
            store = testbed.stores[stripe.placement[index]]
            data = bytearray(store.read(stripe.stripe_id))
            data[rng.randrange(len(data))] ^= 0xFF
            store.put(stripe.stripe_id, bytes(data))
        report = Scrubber(testbed).scrub()
        document = {"version": 1, "chunks_checked": report.chunks_checked}
        for key in ("corrupt", "repaired", "unrepairable"):
            chunks = getattr(report, key)
            document[key] = [dataclasses.asdict(c) for c in chunks]
        print(
            f"scrubbed {report.chunks_checked} chunks: "
            f"{len(report.corrupt)} corrupt, {len(report.repaired)} "
            f"repaired in place, {len(report.unrepairable)} unrepairable"
        )
        code = 1 if report.unrepairable else 0
        if not code and not Scrubber(testbed).scan().clean:
            print("rescan still found corrupt chunks", file=sys.stderr)
            code = 1
    if not code:
        print("store is clean")
    return code, "scrub report", document


def _cmd_fleet(args):
    from .failure import SmartTraceGenerator, save_traces

    traces = SmartTraceGenerator(
        args.disks,
        horizon_days=args.days,
        annual_failure_rate=args.afr,
        seed=args.seed,
    ).generate()
    failing = sum(t.will_fail for t in traces)
    what = f"{len(traces)} disks x {args.days} days ({failing} failing)"
    return 0, what, partial(save_traces, traces)


def _predictor(model: str, seed: int, traces):
    """The ``--model`` failure predictor, trained on ``traces``."""
    from .failure import CartPredictor, LogisticPredictor, ThresholdPredictor

    if model == "logistic":
        return LogisticPredictor(seed=seed).fit(traces)
    if model == "cart":
        return CartPredictor().fit(traces)
    return ThresholdPredictor()


def _check_train_fraction(args) -> None:
    if not 0 < args.train_fraction < 1:
        raise UsageError(
            f"--train-fraction must be in (0, 1), got {args.train_fraction}"
        )


def _cmd_predict(args):
    from .failure import evaluate

    split = int(len(args.traces) * args.train_fraction)
    train, test = args.traces[:split], args.traces[split:]
    if not train or not test:
        raise UsageError("fleet too small to split")
    metrics = evaluate(_predictor(args.model, args.seed, train), test)
    print(
        f"model: {args.model}; disks: {len(train)} train / {len(test)} test\n"
        f"precision={metrics.precision:.3f} recall={metrics.recall:.3f} "
        f"false-alarm rate={metrics.false_alarm_rate:.4f} "
        f"mean lead={metrics.mean_lead_days:.1f} days"
    )
    return 0, "evaluation metrics", {
        "version": 1,
        "model": args.model,
        "train_disks": len(train),
        "test_disks": len(test),
        "precision": metrics.precision,
        "recall": metrics.recall,
        "false_alarm_rate": metrics.false_alarm_rate,
        "mean_lead_days": metrics.mean_lead_days,
    }


def _cmd_daemon(args):
    from .core.plan import RepairScenario
    from .failure import ClusterFailureMonitor
    from .runtime import CoordinatorCrash
    from .runtime.daemon import DaemonCrash, RepairDaemon
    from .runtime.testbed import EmulatedTestbed

    cluster = args.cluster
    traces = args.traces[: len(cluster.storage_node_ids())]
    predictor = _predictor(args.model, args.seed, traces)
    testbed = EmulatedTestbed(
        cluster,
        _infer_codec(cluster),
        workdir=Path(args.workdir) if args.workdir else None,
        faults=args.faults,
        metrics=args.metrics_registry,
    )
    journal_path = (
        Path(args.journal) if args.journal else testbed.workdir / "daemon.journal"
    )
    new_daemon = partial(
        RepairDaemon,
        testbed,
        ClusterFailureMonitor(cluster, traces, predictor),
        journal_path=journal_path,
        scenario=RepairScenario(args.scenario),
        seed=args.seed,
        helper_budget=args.helper_budget,
        scrub_interval_days=args.scrub_interval,
    )
    crashes = 0
    with testbed:
        # Built before any data loads: a bad flag stops the run here.
        daemon = new_daemon()
        testbed.load_random_data(seed=args.seed)
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
    return 0, "daemon report", {
        "version": 1,
        "days_observed": daemon.next_day,
        "stf_events": len(report.stf_events),
        "suppressed_alarms": len(report.suppressed_alarms),
        "missed_failures": len(report.missed_failures),
        "repairs_completed": daemon.completed_tasks,
        "queue_depth": daemon.queue_depth,
        "restarts": crashes,
    }


def _cmd_lifetime(args):
    from .failure import SmartTraceGenerator, ThresholdPredictor
    from .sim.lifetime import (
        LifetimeConfig,
        TraceReplayProcess,
        WeibullFailureProcess,
        durability_study,
    )

    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    config = LifetimeConfig(
        num_disks=args.disks,
        num_stripes=args.stripes,
        n=args.codec.n,
        k=args.codec.k,
        years=args.years,
        repair_concurrency=args.concurrency,
        latent_errors_per_disk_year=args.latent_rate,
        scrub_interval_days=args.scrub_interval,
    )
    processes = []
    if args.process in ("weibull", "both"):
        processes.append(WeibullFailureProcess(annual_failure_rate=args.afr))
    if args.process in ("trace-replay", "both"):
        traces = args.traces
        if traces is None:
            traces = SmartTraceGenerator(
                max(args.disks, 50),
                annual_failure_rate=max(args.afr, 0.05),
                seed=args.seed,
            ).generate()
        processes.append(TraceReplayProcess(traces, ThresholdPredictor()))
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
    return 0, "durability study", {
        "version": 1,
        "trials": args.trials,
        "years": args.years,
        "code": args.code,
        "processes": entries,
    }


def _cmd_report(args):
    from .obs import breakdown_from_trace, metrics_summary, render_breakdown

    breakdown = breakdown_from_trace(args.trace)
    print(render_breakdown(breakdown))
    summary = metrics_summary(args.metrics) if args.metrics is not None else ""
    if summary:
        print("\nmetrics:")
        print(summary)
    return 0, "breakdown", breakdown.to_dict()


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------


def flag(*names: str, **settings) -> Tuple[Tuple[str, ...], dict]:
    """One argument: its names and its ``add_argument`` keywords."""
    return names, settings


#: flags several subcommands take; a subcommand names one, or extends
#: it with ``flag(name, **overrides)``
SHARED_FLAGS = {
    names[0]: (names, settings)
    for names, settings in (
        flag("--snapshot", required=True),
        flag("--stf", type=int, required=True),
        flag("--stripes", type=int, default=120),
        flag("--seed", type=int, default=0),
        flag("-o", "--output"),
        flag("--workdir"),
        flag("--transport", choices=("tcp", "shm"), default="tcp"),
        flag("--listen"),
        flag("--peers"),
        flag("--scenario", choices=("scattered", "hot_standby"),
             default="scattered"),
        flag("--fault-plan"),
        flag("--fleet", required=True),
        flag("--config"),
        flag("--code", default="rs(9,6)"),
        flag("--model", choices=("logistic", "cart", "threshold"),
             default="logistic"),
        flag("--metrics-out"),
    )
}


class Command:
    """One subcommand, run by :func:`main` in five steps.

    1. ``check(args)``, if given, rejects a flag mix before any file is
       read.
    2. :data:`LOADERS` read every file- or spec-valued flag.
    3. ``run(args)`` returns the exit code, or (exit code, what, -o
       document).
    4. A ValueError out of ``run`` is the library rejecting a value it
       was built from: ``bad <flags>: <reason>``, naming the ``blame``
       flags the command line set (all of them if it set none).
    5. The ``-o``, ``--metrics-out`` and ``--trace-out`` documents are
       written.

    ``flags`` are names of :data:`SHARED_FLAGS` or :func:`flag` entries.
    """

    def __init__(self, name, help, run=None, *flags, blame=(), check=None,
                 children=()):
        self.name, self.help, self.run = name, help, run
        self.blame, self.check, self.children = blame, check, children
        self.flags = []
        for entry in flags:
            names, settings = flag(entry) if isinstance(entry, str) else entry
            if names[0] in SHARED_FLAGS:
                names, shared = SHARED_FLAGS[names[0]]
                settings = {**shared, **settings}
            self.flags.append((names, settings))


_GATEWAY_CLIENT_FLAGS = (
    flag("key", help="object key, e.g. videos/cat.mp4"),
    flag("path", nargs="?", default="-",
         help="local file ('-' = stdin/stdout)"),
    flag("--transport", default="shm"), flag("--workdir", required=True),
    "--listen", "--peers",
    flag("--timeout", type=float, default=30.0,
         help="seconds to wait for the gateway's reply"),
)

COMMANDS: Dict[str, Command] = {command.name: command for command in (
    Command(
        "figures", "regenerate a paper figure (fig2..fig15, all, list)",
        _cmd_figures,
        "experiment", flag("--runs", type=int),
        flag("-o", help="also write the harness results as a JSON list of "
             "experiments"),
        blame=("--runs",),
    ),
    Command(
        "snapshot", "generate a random cluster snapshot (JSON)", _cmd_snapshot,
        flag("--nodes", type=int, default=30),
        "--stripes", "--code", flag("--hot-standby", type=int, default=3),
        flag("--seed", default=None),
        flag("--chunk-size", type=int,
             help="chunk size in bytes (scale down for fast emulated runs)"),
        flag("-o", required=True),
        blame=("--nodes", "--stripes", "--code", "--hot-standby",
               "--chunk-size"),
    ),
    Command(
        "plan", "plan the repair of an STF node from a snapshot", _cmd_plan,
        "--snapshot", "--stf", "--scenario", "--seed",
        flag("-o", help="write the FastPR plan as JSON"),
    ),
    Command(
        "repair", "execute a FastPR repair on the emulated testbed (real "
        "bytes, journaled, crash-recoverable)", _cmd_repair,
        "--snapshot", "--stf", "--scenario", "--seed",
        flag("--fault-plan", help="JSON file describing a FaultPlan to "
             "inject (node crashes, link faults, coordinator crashes)"),
        flag("--journal", help="write-ahead journal path (default: auto "
             "when the fault plan crashes the coordinator)"),
        flag("--packet-size", type=int, help="transfer granularity in bytes "
             "(default: chosen from the snapshot's chunk size and "
             "disk/network bandwidths, the paper's Experiment B.1 trade; at "
             "most what one transport frame carries)"),
        flag("--metrics-out", help="write the run's metrics registry as JSON "
             "(readable by 'fastpr report --metrics')"),
        flag("--trace-out", help="write the run's span trace as JSON "
             "(readable by 'fastpr report --trace')"),
        flag("-o", help="write the run summary (timings, retries, scrub "
             "verdict) as JSON"),
        flag("--transport", choices=("memory", "tcp", "shm"),
             default="memory", help="'memory' runs the whole repair "
             "in-process on the emulated fabric; 'tcp' drives standalone "
             "'fastpr agent' processes over real sockets; 'shm' drives "
             "same-host agent processes over shared-memory rings (no peer "
             "spec — names derive from --workdir)"),
        flag("--peers", help="(tcp) node=host:port list or @file.json "
             "mapping every agent and 'coordinator' to its listen address"),
        flag("--workdir", help="(tcp/shm) shared directory holding each "
             "agent's chunk store (node_<id>/); used to verify repaired "
             "chunks byte-identical"),
        flag("--resume", action="store_true", help="(tcp/shm) recover from "
             "--journal instead of starting fresh: fence the dead "
             "coordinator's epoch and re-issue unfinished actions"),
        flag("--agent-timeout", type=float, default=60.0, help="(tcp/shm) "
             "seconds to wait for every agent to answer a ping before "
             "giving up"),
        flag("--config", help="RuntimeConfig JSON (timeouts, retry policy, "
             "queue bounds); omitted fields keep defaults"),
        flag("--coordinators", type=int, default=1, help="shard the stripe "
             "space across N coordinators, each with its own journal and "
             "epoch; a crashed shard's ownership hands off to a survivor "
             "(with --journal naming the journal directory when N > 1, "
             "default <workdir>/shards)"),
        flag("--racks", type=int, help="group the snapshot's nodes into R "
             "uniform racks so the fault plan's domain crashes (kind: rack) "
             "resolve to node crashes plus co-located coordinator kills"),
        flag("--pipelining", choices=("off", "chain"), default="off",
             help="'chain' streams each reconstruction's partial sums "
             "through an ordered helper chain (least-worth ingress first) "
             "instead of star fan-in; works uniformly across every "
             "--transport and --coordinators setting.  A --config with "
             "pipeline_slices N moves each chunk down the chain in N "
             "slices, one packet each"),
        blame=("--fault-plan", "--packet-size", "--peers", "--racks"),
        check=_check_repair_invocation,
    ),
    Command(
        "agent", "run one storage node's repair agent as a standalone "
        "process (serves repair traffic over TCP or shared memory until the "
        "coordinator sends Shutdown)", _cmd_agent,
        "--snapshot",
        flag("--node", type=int, required=True, help="this agent's node id"),
        flag("--transport", help="'tcp' listens on --listen and dials "
             "--peers; 'shm' derives every ring name from --workdir (no "
             "--listen/--peers needed)"),
        flag("--listen", help="(tcp) host:port this agent accepts frames on"),
        flag("--peers", help="(tcp) node=host:port list or @file.json; must "
             "include 'coordinator=host:port'"),
        flag("--workdir", required=True,
             help="directory for this node's chunk store (node_<id>/)"),
        "--seed",
        flag("--config", help="RuntimeConfig JSON; must match the "
             "coordinator's so timeouts and fencing agree"),
        flag("--fault-plan", help="JSON FaultPlan shared by the whole "
             "cluster; this process injects the faults that apply to its "
             "sends"),
        flag("--no-load", action="store_true", help="skip deterministic "
             "data loading (store already populated, e.g. when resuming)"),
    ),
    Command(
        "gateway", "client-facing object store: serve PUT/GET over live "
        "agents, or act as the object client",
        children=(
            Command(
                "serve", "run the object gateway against a live agent "
                "cluster (stripes PUTs through the codec, serves GETs "
                "degraded when a datanode is down)", _cmd_gateway_serve,
                "--snapshot",
                flag("--transport", default="shm", help="'shm' derives "
                     "every ring from --workdir; 'tcp' listens on --listen "
                     "and dials --peers"),
                flag("--workdir", required=True, help="the repair cluster's "
                     "shared workdir (shm ring namespace, manifest "
                     "directory)"),
                flag("--listen", help="(tcp) host:port for the gateway"),
                flag("--peers", help="(tcp) node=host:port list or "
                     "@file.json; include 'client=host:port' so replies "
                     "reach the object client"),
                flag("--chunk-size", type=int, default=64 * 1024,
                     help="bytes per erasure-coded chunk (default 64 KiB)"),
                flag("--client-floor", type=float, default=0.5,
                     help="fraction of NIC bandwidth guaranteed to client "
                     "traffic by the QoS arbiter (default 0.5)"),
                flag("--max-seconds", type=float, default=0.0, help="exit "
                     "after this many seconds (0 = serve until ^C)"),
                blame=("--chunk-size", "--client-floor"),
            ),
            Command("put", "store a file (or stdin) as an object",
                    _cmd_gateway_client, *_GATEWAY_CLIENT_FLAGS),
            Command("get", "fetch an object to a file (or stdout)",
                    _cmd_gateway_client, *_GATEWAY_CLIENT_FLAGS),
        ),
    ),
    Command(
        "scrub", "checksum-verify every chunk and repair silent corruption",
        _cmd_scrub,
        "--snapshot", "--seed",
        flag("--corrupt", type=int, default=0, help="flip a byte in this "
             "many randomly chosen chunks first (demonstrates detection + "
             "in-place repair)"),
        flag("-o", help="write the scrub report as JSON"),
    ),
    Command(
        "fleet", "generate a synthetic SMART fleet (CSV)", _cmd_fleet,
        flag("--disks", type=int, default=200),
        flag("--days", type=int, default=120),
        flag("--afr", type=float, default=0.1), flag("--seed", default=None),
        flag("-o", required=True),
        blame=("--disks", "--days", "--afr"),
    ),
    Command(
        "predict", "train/evaluate the failure predictor on a fleet CSV",
        _cmd_predict,
        "--fleet", flag("--train-fraction", type=float, default=0.7),
        "--seed", "--model",
        flag("-o", help="write the evaluation metrics as JSON"),
        blame=("--fleet", "--model"),
        check=_check_train_fraction,
    ),
    Command(
        "daemon", "run the always-on repair daemon: replay a SMART fleet "
        "against a snapshot, queueing and executing predictive/reactive "
        "repairs day by day (journaled, crash-resumable)", _cmd_daemon,
        "--snapshot",
        flag("--fleet", help="SMART fleet CSV ('fastpr fleet'); trace i "
             "drives storage node i's disk"),
        flag("--model", choices=("threshold", "logistic", "cart"),
             default="threshold", help="failure predictor watching the "
             "fleet (logistic/cart train on the fleet itself)"),
        "--scenario", "--seed",
        flag("--journal", help="daemon queue journal (default: "
             "<workdir>/daemon.journal); an existing journal is "
             "replayed on start and its unfinished tasks run first"),
        flag("--workdir", help="directory for chunk stores + journals "
             "(default: temp dir)"),
        flag("--helper-budget", type=int, help="max repairs admitted per "
             "day; when spent, predictive repairs defer to the next day "
             "(reactive always admit)"),
        flag("--scrub-interval", type=int, default=0,
             help="run a scrub cycle every N days (0 disables)"),
        flag("--max-days", type=int, help="observe at most N telemetry days "
             "(default: full horizon)"),
        flag("--fault-plan", help="JSON FaultPlan; coordinator_crashes and "
             "daemon_crashes kill the daemon mid-queue (it recovers from its "
             "journals)"),
        flag("--metrics-out", help="write the run's metrics registry (queue "
             "depth, task outcomes, scrub counters) as JSON"),
        flag("-o", help="write the daemon report (events, repairs, crashes) "
             "as JSON"),
        blame=("--fleet", "--model", "--fault-plan", "--helper-budget",
               "--scrub-interval"),
    ),
    Command(
        "lifetime", "Monte-Carlo cluster-lifetime simulation: lost-stripe "
        "probability over simulated years, predictive vs reactive",
        _cmd_lifetime,
        flag("--trials", type=int, default=50),
        flag("--years", type=float, default=1.0),
        flag("--disks", type=int, default=30),
        "--stripes", "--code",
        flag("--process", choices=("weibull", "trace-replay", "both"),
             default="weibull"),
        flag("--fleet", required=False, help="SMART fleet CSV for the "
             "trace-replay process (synthesized when omitted)"),
        flag("--afr", type=float, default=0.04,
             help="annual disk failure rate of the Weibull process"),
        flag("--concurrency", type=int, default=2,
             help="simultaneous whole-disk repairs the cluster sustains"),
        flag("--latent-rate", type=float, default=0.0,
             help="latent sector errors per disk-year (0 disables)"),
        flag("--scrub-interval", type=float, default=14.0,
             help="scrub sweep period in days surfacing latent errors"),
        "--seed",
        flag("-o", help="write the durability study (both modes per "
             "process) as JSON"),
        blame=("--years", "--disks", "--stripes", "--code", "--fleet",
               "--afr", "--concurrency", "--latent-rate", "--scrub-interval"),
    ),
    Command(
        "report", "render a per-round breakdown from a repair trace "
        "(--trace-out of 'fastpr repair')", _cmd_report,
        flag("--trace", required=True, help="trace JSON from --trace-out"),
        flag("--metrics", help="optional metrics JSON from --metrics-out "
             "(summarized below the table)"),
        flag("-o", help="write the breakdown as JSON"),
        blame=("--trace",),
    ),
)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastpr",
        description="Reproduce 'Fast Predictive Repair in Erasure-Coded "
        "Storage' (DSN 2019): figures, planning, failure prediction.",
    )
    _add_commands(parser, "command", COMMANDS.values())
    return parser


def _add_commands(parser, dest: str, commands) -> None:
    sub = parser.add_subparsers(dest=dest)
    for command in commands:
        command_parser = sub.add_parser(command.name, help=command.help)
        for names, settings in command.flags:
            command_parser.add_argument(*names, **settings)
        if command.children:
            _add_commands(
                command_parser, f"{command.name}_command", command.children
            )


def _blamed(command: Command, args) -> str:
    """The blamed optional flags the command line moved off their
    defaults, or every blamed flag if it moved none."""
    given = [
        names[-1]
        for names, settings in command.flags
        if names[-1] in command.blame
        and not settings.get("required")
        and getattr(args, names[-1][2:].replace("-", "_"))
        != settings.get("default")
    ]
    return "/".join(given or command.blame)


def _write(args, what: Optional[str], document) -> None:
    """Write the run's documents to the paths their flags name."""
    for dest, label, content in (
        ("metrics_out", "metrics", args.metrics_registry.save),
        ("trace_out", "trace", args.tracer.save),
        ("output", what, document),
    ):
        path = getattr(args, dest, None)
        if path is None or content is None:
            continue
        if callable(content):
            content(path)
        else:
            with open(path, "w") as f:
                json.dump(content, f, indent=2)
        print(f"wrote {label} to {path}")


def main(argv: Optional[List[str]] = None) -> int:
    """Run one ``fastpr`` command line; returns its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backward compatibility: `fastpr fig8` == `fastpr figures fig8`.
    if argv and argv[0] in _FIGURE_WORDS:
        argv = ["figures"] + argv
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    command = COMMANDS[args.command]
    try:
        if command.children:
            names = [child.name for child in command.children]
            chosen = getattr(args, f"{command.name}_command")
            if chosen is None:
                raise UsageError(
                    f"{command.name} needs a subcommand: "
                    f"{', '.join(names[:-1])} or {names[-1]}"
                )
            command = command.children[names.index(chosen)]
        if command.check is not None:
            command.check(args)
        _load(args)
        args.metrics_registry, args.tracer = MetricsRegistry(), Tracer()
        try:
            result = command.run(args)
        except ValueError as exc:
            if not command.blame:
                raise
            raise UsageError(f"bad {_blamed(command, args)}: {exc}") from None
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    code, what, document = result if isinstance(result, tuple) else (
        result, None, None
    )
    _write(args, what, document)
    return code


if __name__ == "__main__":
    sys.exit(main())
