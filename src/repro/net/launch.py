"""Process-per-node launch: peer specs, one network factory, one agent.

This module is the wire-side glue behind ``fastpr agent``, ``fastpr
gateway`` and ``fastpr repair --transport tcp|shm``: :func:`open_network`
turns a transport kind plus a peer map (tcp) or a shared workdir (shm)
into a listening network and :func:`run_agent_process` runs one storage
node on it.  The coordinator's side is transport-blind and lives in
:mod:`repro.runtime.driver`; it is handed the network opened here.

Peer specs name every process's listen address::

    0=127.0.0.1:9100,1=127.0.0.1:9101,coordinator=127.0.0.1:9099

or, equivalently, ``@peers.json`` pointing at a JSON object with the
same keys.  ``coordinator`` (or ``-1``) is the coordinator's address;
integer keys are storage nodes.
"""

from __future__ import annotations

import hashlib
import json
import socket
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..cluster.chunk import NodeId
from ..cluster.cluster import StorageCluster
from ..ec.codec import ErasureCodec
from ..gateway.store import CLIENT_ID, GATEWAY_ID
from ..obs.metrics import MetricsRegistry
from ..runtime.config import DEFAULT_CONFIG, RuntimeConfig
from ..runtime.coordinator import COORDINATOR_ID, shard_coordinator_id
from ..runtime.driver import host_agent, inject_faults, load_node_data
from ..runtime.faults import FaultPlan
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
# network factory and standalone agent process
# ----------------------------------------------------------------------


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
    agent = host_agent(
        network,
        cluster,
        Path(workdir),
        node_id,
        config=config,
        metrics=metrics,
    )
    loaded = 0
    if load_data:
        loaded = load_node_data(cluster, codec, seed, agent.store, node_id)
    if faults is not None:
        network.faults = inject_faults(faults, {node_id: agent})
        network.faults.start()
    agent.start(heartbeat=True)
    try:
        agent.done.wait()
    finally:
        agent.stop()
        network.close()
    return loaded
