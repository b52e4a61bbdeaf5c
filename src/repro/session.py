"""One front door for executing a repair plan: :class:`RepairSession`.

There is one driver behind it, :func:`repro.runtime.driver.run_repair`,
and it does not know which pipe it is on.  The transports differ only
in who hosts the agents: ``transport="memory"`` starts them as threads
of this process on an :class:`~repro.runtime.testbed.EmulatedTestbed`;
``"tcp"`` and ``"shm"`` reach agent processes through the network
:func:`repro.net.launch.open_network` opens.  :class:`RepairSession` is
the builder in front of that choice::

    from repro import RepairSession

    summary = RepairSession(
        cluster, codec, plan,
        transport="memory",        # or "tcp" / "shm"
        coordinators=1,            # > 1 shards the stripe space
        pipelining="chain",        # "off" keeps star-topology repair
        slices=8,                  # SlicePacket granularity per chunk
        seed=7,
    ).run()
    print(summary.total_time, summary.chunks_verified)

Pipelining is a *strategy flag*, not a separate code path: ``"chain"``
rewrites every reconstruction in the plan to stream partial sums
through an ordered helper chain (least-worth ingress first — see
:func:`repro.core.scheduling.order_chain`) and, with ``slices > 0``,
carves each chunk into that many :class:`~repro.runtime.messages.\
SlicePacket` frames with per-slice completion reports.  Mid-stream
chain failures fall back to star-topology repair per action through
the coordinator's existing probe/heal/reissue machinery.

Unsupported combinations fail at *construction* time with a
:class:`ValueError` naming the conflict, so drivers (the CLI rejects
the same combos at parse time) never launch half a run first.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .cluster.cluster import StorageCluster
from .cluster.topology import RackTopology
from .core.plan import RepairPlan, RepairRound
from .ec.codec import ErasureCodec
from .obs.metrics import MetricsRegistry
from .obs.tracing import Tracer
from .runtime.config import DEFAULT_CONFIG, RuntimeConfig
from .runtime.faults import FaultPlan

#: supported transports, pipelining modes (validated at construction)
TRANSPORTS = ("memory", "tcp", "shm")
PIPELINING_MODES = ("off", "chain")


@dataclass
class RepairSummary:
    """Uniform outcome of a :class:`RepairSession` run.

    Wraps whichever result type the underlying driver produced
    (``result`` keeps the raw :class:`~repro.runtime.coordinator.\
RuntimeResult` or :class:`~repro.runtime.multicoord.MultiRepairResult`
    for callers that need driver-specific detail).
    """

    transport: str
    coordinators: int
    pipelining: str
    slices: int
    total_time: float
    chunks_repaired: int
    chunks_verified: int
    bytes_transferred: int
    retries: int = 0
    replans: int = 0
    nacks: int = 0
    #: per-slice completions streamed back by destinations (chained)
    slices_completed: int = 0
    #: coordinator crash recoveries plus shard takeovers
    restarts: int = 0
    round_times: List[float] = field(default_factory=list)
    dead_nodes: List[int] = field(default_factory=list)
    #: the driver-specific result object, untouched
    result: object = None
    #: post-repair scrub report (runs with ``scrub=True``)
    scrub_report: object = None

    @property
    def degraded(self) -> bool:
        """True if the run needed any fault handling to finish."""
        return bool(
            self.retries or self.replans or self.nacks or self.restarts
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the CLI's ``--output`` document body)."""
        return {
            "transport": self.transport,
            "coordinators": self.coordinators,
            "pipelining": self.pipelining,
            "slices": self.slices,
            "total_time_s": self.total_time,
            "round_times_s": list(self.round_times),
            "chunks_repaired": self.chunks_repaired,
            "chunks_verified": self.chunks_verified,
            "bytes_transferred": self.bytes_transferred,
            "retries": self.retries,
            "replans": self.replans,
            "nacks": self.nacks,
            "slices_completed": self.slices_completed,
            "restarts": self.restarts,
            "dead_nodes": list(self.dead_nodes),
        }


def apply_pipelining(plan: RepairPlan, pipelining: str) -> RepairPlan:
    """Return ``plan`` with every reconstruction's strategy rewritten.

    ``"chain"`` marks each reconstruction ``pipelined=True`` (chained
    partial-sum streaming); ``"off"`` clears the flag.  Migrations are
    untouched — they are single-source copies with nothing to chain.
    The input plan is never mutated (actions are frozen dataclasses).
    """
    if pipelining not in PIPELINING_MODES:
        raise ValueError(
            f"pipelining must be one of {PIPELINING_MODES}, "
            f"got {pipelining!r}"
        )
    chained = pipelining == "chain"
    rounds = [
        RepairRound(
            index=r.index,
            reconstructions=[
                replace(a, pipelined=chained) for a in r.reconstructions
            ],
            migrations=list(r.migrations),
        )
        for r in plan.rounds
    ]
    return dataclasses.replace(plan, rounds=rounds)


class RepairSession:
    """Builder for one repair execution; ``.run()`` does the work.

    Args:
        cluster: the cluster snapshot the plan targets.
        codec: erasure codec of the stripes.
        plan: the repair plan to execute (left unmodified; pipelining
            rewrites act on a copy).
        transport: ``"memory"`` (in-process emulated fabric),
            ``"tcp"`` (process-per-node over sockets, needs ``peers``
            and ``workdir``) or ``"shm"`` (process-per-node over
            shared-memory rings, needs ``workdir``).
        coordinators: shard the stripe space across N coordinators
            (``"shm"`` supports exactly 1).
        pipelining: ``"off"`` = star-topology repair, ``"chain"`` =
            chained partial-sum streaming through ordered helper
            chains.
        slices: with ``pipelining="chain"``, carve each chunk into
            this many :class:`~repro.runtime.messages.SlicePacket`
            slices (0 keeps packet-granular chaining).
        peers: (tcp) ``{node_id: (host, port)}`` map or a
            ``node=host:port,...`` / ``@file.json`` spec string.
        workdir: directory with each agent's chunk store, read for
            byte-identical verification (tcp/shm: required, shared with
            the agent processes; memory: a temp dir by default).
        seed: deterministic data-set seed (must match the agents').
        config: runtime tuning; ``pipeline_slices`` is overridden from
            ``slices`` when pipelining is on.
        packet_size: transfer granularity; by default the driver picks
            it from the cluster's chunk size and bandwidths
            (:func:`~repro.core.analysis.optimal_packet_size`).
        journal_path: write-ahead journal (single coordinator).
        journal_dir: journal directory for sharded runs (default
            ``<workdir>/shards``).
        faults: declarative fault plan to inject.
        topology: rack topology (resolves domain crashes).
        metrics, tracer: observability sinks shared with the driver.
        resume: recover from ``journal_path`` instead of starting
            fresh (the interrupted run's ``workdir`` must survive).
        agent_timeout: seconds to wait for agents to answer.
        max_restarts: bound on coordinator crash-recovery cycles
            before the injected crash is re-raised.
        scrub: run a post-repair checksum scrub of every store; the
            report lands in ``RepairSummary.scrub_report``.
        arbiter: (memory) optional :class:`repro.gateway.\
TrafficArbiter`; repair traffic is registered as a flow and paced
            against the client bandwidth floor.
        log: optional callback for human-readable progress events
            (coordinator restarts, shard takeovers); ``None`` is
            silent.
    """

    def __init__(
        self,
        cluster: StorageCluster,
        codec: ErasureCodec,
        plan: RepairPlan,
        transport: str = "memory",
        coordinators: int = 1,
        pipelining: str = "off",
        slices: int = 0,
        peers: Union[None, str, Dict[int, Tuple[str, int]]] = None,
        workdir: Union[None, str, Path] = None,
        seed: Optional[int] = None,
        config: Optional[RuntimeConfig] = None,
        packet_size: Optional[int] = None,
        journal_path: Union[None, str, Path] = None,
        journal_dir: Union[None, str, Path] = None,
        faults: Optional[FaultPlan] = None,
        topology: Optional[RackTopology] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        resume: bool = False,
        agent_timeout: float = 60.0,
        max_restarts: int = 8,
        scrub: bool = False,
        arbiter=None,
        log=None,
    ):
        if transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {transport!r}"
            )
        if pipelining not in PIPELINING_MODES:
            raise ValueError(
                f"pipelining must be one of {PIPELINING_MODES}, "
                f"got {pipelining!r}"
            )
        if slices < 0:
            raise ValueError("slices must be non-negative")
        if slices > 0 and pipelining != "chain":
            raise ValueError(
                "slices > 0 requires pipelining='chain' (slice streaming "
                "is a property of chained repair)"
            )
        if coordinators < 1:
            raise ValueError("coordinators must be >= 1")
        if transport == "shm" and coordinators > 1:
            # The hole is on the agent side: it has no route to the
            # coordinator<k> endpoints (a tcp agent's peer spec spells
            # them out).
            raise ValueError(
                "transport='shm' runs a single coordinator (shm agents "
                "derive their peers from the workdir and know no shard "
                "count); use transport='tcp' for sharded repair"
            )
        if transport == "tcp" and peers is None:
            raise ValueError("transport='tcp' needs peers")
        if transport in ("tcp", "shm") and workdir is None:
            raise ValueError(f"transport={transport!r} needs workdir")
        if resume:
            if journal_path is None:
                raise ValueError("resume needs journal_path")
            if coordinators > 1:
                raise ValueError(
                    "resume applies to single-coordinator runs; sharded "
                    "runs recover crashed shards internally"
                )
        if journal_path is not None and coordinators > 1:
            raise ValueError(
                "journal_path applies to a single coordinator; a sharded "
                "run keeps one journal per shard under journal_dir "
                "(default <workdir>/shards)"
            )
        if journal_dir is not None and coordinators == 1:
            raise ValueError(
                "journal_dir applies to sharded runs; a single "
                "coordinator journals to journal_path"
            )
        if transport == "memory" and peers is not None:
            raise ValueError("peers only applies to transport='tcp'")
        if isinstance(peers, str):
            from .net.launch import parse_peer_spec

            peers = parse_peer_spec(peers)
        self.cluster = cluster
        self.codec = codec
        self.plan = plan
        self.transport = transport
        self.coordinators = coordinators
        self.pipelining = pipelining
        self.slices = slices
        self.peers = peers
        self.workdir = Path(workdir) if workdir is not None else None
        self.seed = seed
        base = config or DEFAULT_CONFIG
        self.config = (
            replace(base, pipeline_slices=slices)
            if pipelining == "chain"
            else base
        )
        self.packet_size = packet_size
        self.journal_path = (
            Path(journal_path) if journal_path is not None else None
        )
        self.journal_dir = (
            Path(journal_dir) if journal_dir is not None else None
        )
        self.faults = faults
        self.topology = topology
        self.metrics = metrics
        self.tracer = tracer
        if arbiter is not None and transport != "memory":
            raise ValueError(
                "arbiter applies to transport='memory' (admission happens "
                "in the sender's process; agent processes take no arbiter)"
            )
        self.resume = resume
        self.agent_timeout = agent_timeout
        self.max_restarts = max_restarts
        self.scrub = scrub
        self.arbiter = arbiter
        self.log = log

    # -- execution -----------------------------------------------------

    def run(self) -> RepairSummary:
        """Execute the plan and return its uniform summary.

        Repaired chunks are always verified byte-identical against the
        deterministic data set (raising
        :class:`~repro.runtime.driver.VerificationError` otherwise).
        """
        from .runtime.driver import RepairDriver, run_repair

        common = dict(
            packet_size=self.packet_size,
            config=self.config,
            journal_path=self.journal_path,
            metrics=self.metrics,
            tracer=self.tracer,
            faults=self.faults,
            topology=self.topology,
        )
        with ExitStack() as stack:
            if self.transport == "memory":
                from .runtime.testbed import EmulatedTestbed

                # The testbed is the driver plus the agents, as threads
                # of this process for as long as the ``with`` lasts.
                driver = EmulatedTestbed(
                    self.cluster,
                    self.codec,
                    workdir=self.workdir,
                    arbiter=self.arbiter,
                    **common,
                )
                stack.enter_context(driver)
            else:
                from .net.launch import open_network
                from .runtime.coordinator import COORDINATOR_ID

                network = open_network(
                    self.transport,
                    COORDINATOR_ID,
                    peers=self.peers,
                    workdir=self.workdir,
                    peer_ids=self.cluster.nodes,
                    config=self.config,
                    metrics=self.metrics,
                )
                stack.callback(network.close)
                driver = RepairDriver(
                    network, self.cluster, self.codec, self.workdir, **common
                )
            driver.load_random_data(seed=self.seed)
            result, verified, restarts = run_repair(
                driver,
                apply_pipelining(self.plan, self.pipelining),
                coordinators=self.coordinators,
                journal_dir=self.journal_dir,
                resume=self.resume,
                agent_timeout=self.agent_timeout,
                max_restarts=self.max_restarts,
                log=self.log,
                # The scrub reads every store: a node the plan never
                # touches must have finished loading its data too.
                await_nodes=[
                    node_id
                    for node_id in self.cluster.nodes
                    if not self.cluster.node(node_id).is_failed
                ]
                if self.scrub
                else (),
            )
            summary = RepairSummary(
                transport=self.transport,
                coordinators=self.coordinators,
                pipelining=self.pipelining,
                slices=self.slices,
                total_time=result.total_time,
                chunks_repaired=result.chunks_repaired,
                chunks_verified=verified,
                bytes_transferred=result.bytes_transferred,
                retries=result.retries,
                replans=result.replans,
                nacks=getattr(result, "nacks", 0),
                slices_completed=getattr(result, "slices_completed", 0),
                restarts=restarts,
                round_times=list(result.round_times),
                dead_nodes=list(getattr(result, "dead_nodes", [])),
                result=result,
            )
            if self.scrub:
                from .runtime.scrub import Scrubber

                summary.scrub_report = Scrubber(driver).scan()
            return summary
