"""Process-per-node launch: one network factory, one agent, one driver.

This module is the glue behind ``fastpr agent``, ``fastpr gateway`` and
``fastpr repair --transport tcp|shm``: :func:`open_network` turns a
transport kind plus a peer map (tcp) or a shared workdir (shm) into a
listening network, :func:`run_agent_process` runs one storage node on
it and :func:`run_repair` drives a repair — single or sharded — from
the coordinator's side.  Neither of the latter two knows which pipe the
:mod:`repro.net.wire` frames cross.

Peer specs name every process's listen address::

    0=127.0.0.1:9100,1=127.0.0.1:9101,coordinator=127.0.0.1:9099

or, equivalently, ``@peers.json`` pointing at a JSON object with the
same keys.  ``coordinator`` (or ``-1``) is the coordinator's address;
integer keys are storage nodes.

Data loading is deterministic and *distributed*: every agent process
walks the same :func:`~repro.runtime.testbed.iter_encoded_stripes`
stream — one sequential RNG seeded identically everywhere — and keeps
only its own node's chunks.  The driver recomputes the same stream's
checksums, so after the repair it can prove, from the shared
``--workdir`` filesystem, that every repaired chunk is byte-identical
to the original without any chunk ever crossing a non-repair channel.
"""

from __future__ import annotations

import hashlib
import json
import socket
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..cluster.chunk import NodeId
from ..cluster.cluster import StorageCluster
from ..core.plan import RepairPlan
from ..ec.codec import ErasureCodec
from ..gateway.store import CLIENT_ID, GATEWAY_ID
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..cluster.topology import RackTopology
from ..runtime.agent import Agent
from ..runtime.config import DEFAULT_CONFIG, RuntimeConfig
from ..runtime.coordinator import (
    COORDINATOR_ID,
    Coordinator,
    RuntimeResult,
    shard_coordinator_id,
)
from ..runtime.datanode import ChunkStore
from ..runtime.faults import FaultInjector, FaultPlan
from ..runtime.journal import RepairJournal
from ..runtime.messages import Shutdown
from ..runtime.multicoord import MultiCoordinator, MultiRepairResult
from ..runtime.testbed import (
    ChunkMismatch,
    VerificationError,
    iter_encoded_stripes,
    mismatch_error,
)
from ..runtime.throttle import RateLimiter
from .shm import ShmNetwork
from .tcp import TcpNetwork

#: peer-spec alias for the coordinator's node id
COORDINATOR_ALIAS = "coordinator"
#: peer-spec alias for the object gateway's endpoint
GATEWAY_ALIAS = "gateway"
#: peer-spec alias for the object client's endpoint
CLIENT_ALIAS = "client"

PeerMap = Dict[NodeId, Tuple[str, int]]


# ----------------------------------------------------------------------
# shared-memory topology: ring names derived from the workdir
# ----------------------------------------------------------------------


def shm_ring_name(workdir: Path, node_id: NodeId) -> str:
    """Deterministic ring name for a node's process under a workdir.

    Every process of one repair shares the ``--workdir``, so hashing
    its absolute path gives all of them the same namespace without any
    peer spec: node ``n`` listens on ``fpr<hash>-<n>``, the coordinator
    on ``fpr<hash>-c`` (shard ``k`` on ``fpr<hash>-c<k>``), the object
    gateway on ``fpr<hash>-g`` and the object client on
    ``fpr<hash>-u``.
    """
    digest = hashlib.sha1(
        str(Path(workdir).resolve()).encode("utf-8")
    ).hexdigest()[:10]
    if node_id == COORDINATOR_ID:
        key = "c"
    elif node_id == GATEWAY_ID:
        key = "g"
    elif node_id == CLIENT_ID:
        key = "u"
    elif node_id < 0:
        key = f"c{-node_id - 1}"
    else:
        key = str(node_id)
    return f"fpr{digest}-{key}"


class PeerSpecError(ValueError):
    """A malformed ``--peers`` value."""


def parse_peer_spec(spec: str) -> PeerMap:
    """Parse ``--peers`` into ``{node_id: (host, port)}``.

    Accepts a comma-separated list of ``node=host:port`` entries (with
    ``coordinator`` aliasing :data:`COORDINATOR_ID` and
    ``coordinator<k>`` aliasing shard ``k``'s endpoint ``-(k+1)`` —
    ``coordinator0`` is the plain ``coordinator``) or ``@file.json``
    naming a JSON object of the same shape.
    """
    entries: Dict[str, str] = {}
    if spec.startswith("@"):
        try:
            document = json.loads(Path(spec[1:]).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise PeerSpecError(f"cannot read peer file {spec[1:]}: {exc}")
        if not isinstance(document, dict):
            raise PeerSpecError("peer file must hold a JSON object")
        entries = {str(k): str(v) for k, v in document.items()}
    else:
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise PeerSpecError(
                    f"peer entry {item!r} is not node=host:port"
                )
            name, address = item.split("=", 1)
            entries[name.strip()] = address.strip()
    peers: PeerMap = {}
    for name, address in entries.items():
        if name == COORDINATOR_ALIAS:
            node_id = COORDINATOR_ID
        elif name == GATEWAY_ALIAS:
            node_id = GATEWAY_ID
        elif name == CLIENT_ALIAS:
            node_id = CLIENT_ID
        elif name.startswith(COORDINATOR_ALIAS):
            try:
                node_id = shard_coordinator_id(int(name[len(COORDINATOR_ALIAS):]))
            except ValueError:
                raise PeerSpecError(f"unknown peer name {name!r}")
        else:
            try:
                node_id = int(name)
            except ValueError:
                raise PeerSpecError(f"unknown peer name {name!r}")
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise PeerSpecError(f"peer address {address!r} is not host:port")
        try:
            peers[node_id] = (host, int(port))
        except ValueError:
            raise PeerSpecError(f"peer port {port!r} is not an integer")
    if not peers:
        raise PeerSpecError("empty peer spec")
    return peers


def format_peer_spec(peers: PeerMap) -> str:
    """Inverse of :func:`parse_peer_spec` (comma-list form)."""
    parts = []
    for node_id in sorted(peers):
        host, port = peers[node_id]
        if node_id == COORDINATOR_ID:
            name = COORDINATOR_ALIAS
        elif node_id == GATEWAY_ID:
            name = GATEWAY_ALIAS
        elif node_id == CLIENT_ID:
            name = CLIENT_ALIAS
        elif node_id < 0:
            name = f"{COORDINATOR_ALIAS}{-node_id - 1}"
        else:
            name = str(node_id)
        parts.append(f"{name}={host}:{port}")
    return ",".join(parts)


def sharded_peer_spec(peers: PeerMap, num_coordinators: int) -> PeerMap:
    """Extend a peer map with every shard coordinator's endpoint.

    All shard coordinators run inside the one driver process, so each
    ``coordinator<k>`` alias points at the *same* address as the plain
    ``coordinator`` entry — agents just open one connection per
    endpoint id to it.
    """
    address = peers.get(COORDINATOR_ID)
    if address is None:
        raise PeerSpecError(
            "peer spec has no coordinator address to shard"
        )
    extended = dict(peers)
    for shard in range(num_coordinators):
        extended[shard_coordinator_id(shard)] = address
    return extended


def allocate_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``count`` currently free TCP ports (test/driver helper).

    The ports are bound, recorded and released — a race with other
    processes is possible but irrelevant on a test host.
    """
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


# ----------------------------------------------------------------------
# deterministic distributed data loading
# ----------------------------------------------------------------------


def load_node_data(
    cluster: StorageCluster,
    codec: ErasureCodec,
    seed: Optional[int],
    store: ChunkStore,
    node_id: NodeId,
) -> int:
    """Store ``node_id``'s chunk of every stripe placed on it.

    Walks the full deterministic encode stream (so the bytes match the
    other agents' and the driver's view exactly) but writes only this
    node's chunks; returns how many were stored.
    """
    loaded = 0
    for stripe, coded in iter_encoded_stripes(cluster, codec, seed):
        for index, placed in enumerate(stripe.placement):
            if placed == node_id:
                store.put(stripe.stripe_id, coded[index])
                loaded += 1
    return loaded


def stripe_checksums(
    cluster: StorageCluster, codec: ErasureCodec, seed: Optional[int]
) -> Dict[Tuple[int, int], str]:
    """SHA-256 of every ``(stripe_id, chunk_index)`` in the data set."""
    checksums: Dict[Tuple[int, int], str] = {}
    for stripe, coded in iter_encoded_stripes(cluster, codec, seed):
        for index in range(len(coded)):
            checksums[(stripe.stripe_id, index)] = hashlib.sha256(
                coded[index]
            ).hexdigest()
    return checksums


def verify_actions(
    actions: Iterable,
    checksums: Dict[Tuple[int, int], str],
    workdir: Path,
) -> int:
    """Prove repaired chunks byte-identical via the shared filesystem.

    Reads each executed action's destination store directory
    (``workdir/node_<id>``) and compares against the deterministic
    originals; raises :class:`VerificationError` on any mismatch,
    collecting every failing chunk (not just the first) into the
    error's ``mismatches``.  Returns the number of chunks verified.
    """
    verified = 0
    mismatches = []
    for action in actions:
        path = (
            Path(workdir)
            / f"node_{action.destination}"
            / f"stripe_{action.stripe_id}.chunk"
        )
        if not path.exists():
            mismatches.append(
                ChunkMismatch(
                    action.stripe_id,
                    action.chunk_index,
                    action.destination,
                    "missing",
                )
            )
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        expected = checksums[(action.stripe_id, action.chunk_index)]
        if digest != expected:
            mismatches.append(
                ChunkMismatch(
                    action.stripe_id,
                    action.chunk_index,
                    action.destination,
                    "mismatch",
                )
            )
            continue
        verified += 1
    if mismatches:
        raise mismatch_error(mismatches)
    return verified


# ----------------------------------------------------------------------
# network factory and standalone agent process
# ----------------------------------------------------------------------


def node_store(
    cluster: StorageCluster, workdir: Path, node_id: NodeId
) -> ChunkStore:
    """Build ``node_id``'s chunk store under the shared workdir."""
    node = cluster.node(node_id)
    disk = RateLimiter(
        node.disk_bandwidth or cluster.disk_bandwidth,
        name=f"disk[{node_id}]",
    )
    return ChunkStore(Path(workdir) / f"node_{node_id}", node_id, disk)


def open_network(
    transport: str,
    own_id: NodeId,
    peers: Optional[PeerMap] = None,
    listen: Optional[Tuple[str, int]] = None,
    workdir: Optional[Path] = None,
    peer_ids: Iterable[NodeId] = (),
    config: Optional[RuntimeConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
):
    """A listening wire network with every other endpoint registered.

    The one place a process's topology is wired, for agents, the repair
    driver and the gateway CLI alike.  ``own_id`` is the endpoint this
    process answers as; the caller attaches its local node(s) itself.

    * ``"tcp"``: ``peers`` names every process's address.  The network
      listens at ``listen`` (default: ``peers[own_id]``) and registers
      every entry that is not hosted here — ``own_id`` itself and any
      alias sharing its address (the ``coordinator<k>`` endpoints of a
      sharded driver) stay local.
    * ``"shm"``: no peer spec — ring names derive from the shared
      ``workdir`` (:func:`shm_ring_name`) and ``peer_ids`` says which
      endpoints to register.  Rings attach lazily, so naming an
      endpoint nobody hosts costs nothing.  A segment left linked by a
      crashed previous incarnation of ``own_id`` is reclaimed.
    """
    cfg = config or DEFAULT_CONFIG
    if transport == "shm":
        network = ShmNetwork(
            metrics=metrics,
            inbox_capacity=cfg.inbox_capacity,
            connect_timeout=cfg.connect_timeout,
        )
        ring = shm_ring_name(workdir, own_id)
        try:
            network.listen(ring)
        except FileExistsError:
            # A crashed previous process (usually a one-shot gateway
            # client) left its segment linked; reclaim the name once.
            from multiprocessing import shared_memory

            stale = shared_memory.SharedMemory(name=ring)
            stale.close()
            stale.unlink()
            network.listen(ring)
        routes = {p: (shm_ring_name(workdir, p),) for p in peer_ids}
    else:
        own = peers.get(own_id)
        if listen is None and own is None:
            raise PeerSpecError(
                f"peer spec has no address for endpoint {own_id} to "
                "listen on"
            )
        network = TcpNetwork(
            metrics=metrics,
            inbox_capacity=cfg.inbox_capacity,
            send_queue_capacity=cfg.send_queue_capacity,
            connect_timeout=cfg.connect_timeout,
            drain_timeout=cfg.drain_timeout,
        )
        network.listen(*(listen or own))
        routes = {p: addr for p, addr in peers.items() if addr != own}
    for peer_id, route in routes.items():
        if peer_id != own_id:
            network.add_peer(peer_id, *route)
    return network


def run_agent_process(
    network,
    cluster: StorageCluster,
    codec: ErasureCodec,
    node_id: NodeId,
    workdir: Path,
    seed: Optional[int] = None,
    config: Optional[RuntimeConfig] = None,
    load_data: bool = True,
    metrics: Optional[MetricsRegistry] = None,
    faults: Optional[FaultPlan] = None,
) -> int:
    """Run one standalone repair agent until the coordinator shuts it down.

    ``network`` comes from :func:`open_network` with ``own_id=node_id``;
    it is closed on the way out.  Blocks until a
    :class:`~repro.runtime.messages.Shutdown` frame arrives (the repair
    driver broadcasts one after the run).  Returns the number of chunks
    the agent loaded at startup.

    ``faults`` injects the same declarative
    :class:`~repro.runtime.faults.FaultPlan` the in-memory testbed
    takes; packet-level faults apply on this process's *sending* side,
    so the whole cluster running one shared plan injects each fault
    exactly once.
    """
    cfg = config or DEFAULT_CONFIG
    node = cluster.node(node_id)
    network.attach(
        node_id, node.network_bandwidth or cluster.network_bandwidth
    )
    store = node_store(cluster, Path(workdir), node_id)
    loaded = 0
    if load_data:
        loaded = load_node_data(cluster, codec, seed, store, node_id)
    agent = Agent(
        node_id,
        store,
        network,
        coordinator_id=COORDINATOR_ID,
        config=cfg,
        metrics=metrics,
    )
    if faults is not None:
        def _on_crash(victim: NodeId) -> None:
            if victim == node_id:
                agent.crash()

        injector = FaultInjector(faults, on_crash=_on_crash)
        network.faults = injector
        injector.start()
    agent.start(heartbeat=True)
    try:
        agent.done.wait()
    finally:
        agent.stop()
        network.close()
    return loaded


# ----------------------------------------------------------------------
# coordinator-side repair driver
# ----------------------------------------------------------------------


def wait_for_agents(
    coordinator: Coordinator, nodes: Iterable[NodeId], timeout: float = 60.0
) -> None:
    """Block until every agent answers a ping (or raise on timeout)."""
    pending = set(nodes) - {COORDINATOR_ID}
    deadline = time.monotonic() + timeout
    while pending:
        pending -= coordinator._probe(set(pending))
        if not pending:
            return
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"agents never came up: {sorted(pending)} unreachable "
                f"after {timeout}s"
            )
        time.sleep(0.2)


def run_repair(
    network,
    cluster: StorageCluster,
    codec: ErasureCodec,
    plan: RepairPlan,
    workdir: Path,
    coordinators: int = 1,
    seed: Optional[int] = None,
    config: Optional[RuntimeConfig] = None,
    packet_size: Optional[int] = None,
    journal_path: Optional[Path] = None,
    journal_dir: Optional[Path] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    resume: bool = False,
    agent_timeout: float = 60.0,
    faults: Optional[FaultPlan] = None,
    topology: Optional[RackTopology] = None,
) -> Tuple[Union[RuntimeResult, MultiRepairResult], int]:
    """Drive one process-per-node repair from the coordinator's side.

    ``network`` comes from :func:`open_network` with
    ``own_id=COORDINATOR_ID`` and is closed on the way out; which pipe
    it frames over is none of this function's business.  The agent
    processes must (come up to) answer at the peers it knows: lazy
    connects absorb startup races, and an explicit ping sweep gates
    command issue on every involved agent being reachable.  After the
    run the repaired chunks are verified byte-identical through the
    shared ``workdir`` and every agent is told to shut down.

    ``coordinators == 1`` journals to ``journal_path``; with
    ``resume=True`` that journal is replayed instead of starting fresh
    — the successor coordinator (epoch + 1) reconciles agent
    inventories over the wire and re-issues only the unfinished
    actions.  ``coordinators > 1`` shards the plan across that many
    coordinators, all in this process on the one network: agents reach
    shard ``k`` through its ``coordinator<k>`` endpoint id, each shard
    journals under ``journal_dir`` (default ``workdir/shards``), and a
    crashed shard hands off to a survivor exactly as in memory.

    ``faults`` covers control traffic and time-based triggers on this
    side (each agent process runs the same plan for its data packets).
    Domain crashes need ``topology``; one that names coordinators kills
    those shards mid-run.

    Returns ``(result, chunks_verified)``.
    """
    cfg = config or DEFAULT_CONFIG
    packet = packet_size or max(cluster.chunk_size // 16, 4096)
    sharded = coordinators > 1
    shards: Optional[MultiCoordinator] = None

    def _kill_shard(shard: int) -> None:
        if shards is not None:
            shards.kill_shard(shard)

    try:
        injector = None
        if faults is not None:
            if faults.domain_crashes:
                if topology is None:
                    raise ValueError(
                        "fault plan has domain crashes but no topology "
                        "was given"
                    )
                faults = faults.resolve_domains(topology)
            injector = FaultInjector(faults, on_kill_coordinator=_kill_shard)
        if sharded:
            # Probe through a throwaway coordinator at the default
            # endpoint; it is freed below so shard 0 can claim the id.
            runner = Coordinator(network, cluster, codec, packet, config=cfg)
        elif resume:
            runner = Coordinator.recover(
                journal_path,
                network,
                cluster,
                codec,
                config=cfg,
                packet_size=packet,
                metrics=metrics,
                tracer=tracer,
            )
        else:
            journal = None
            if journal_path is not None:
                journal = RepairJournal(
                    journal_path, fsync=cfg.journal_fsync, metrics=metrics
                )
            runner = Coordinator(
                network,
                cluster,
                codec,
                packet,
                config=cfg,
                journal=journal,
                metrics=metrics,
                tracer=tracer,
            )
        try:
            involved = sorted(
                {a.destination for a in plan.actions()}
                | {s for a in plan.actions() for s in a.sources}
            )
            wait_for_agents(runner, involved, timeout=agent_timeout)
            if sharded:
                network.detach(COORDINATOR_ID)
                runner = shards = MultiCoordinator(
                    network,
                    cluster,
                    codec,
                    packet,
                    journal_dir=journal_dir or Path(workdir) / "shards",
                    num_shards=coordinators,
                    config=cfg,
                    metrics=metrics,
                    tracer=tracer,
                )
            # The injector attaches only now, so fault time zero is the
            # start of the repair, not of the probe sweep.
            if injector is not None:
                network.faults = injector
                injector.start()
            if resume:
                result = runner.resume()
            else:
                result = runner.execute(plan, packet_size=packet)
        finally:
            runner.close()
        verified = verify_actions(
            result.executed_actions or plan.actions(),
            stripe_checksums(cluster, codec, seed),
            workdir,
        )
        return result, verified
    finally:
        # Broadcast Shutdown so standalone agent processes exit cleanly.
        for node_id in network.node_ids():
            if node_id >= 0:
                try:
                    network.send(COORDINATOR_ID, node_id, Shutdown())
                except KeyError:
                    pass  # coordinator endpoint never came up / is gone
        network.close()
