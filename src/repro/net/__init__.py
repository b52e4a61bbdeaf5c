"""repro.net — wire protocol, framed-transport core, backends (DESIGN.md §10).

The runtime's messages travel either over the in-memory fabric
(:class:`repro.runtime.transport.Network`) or, via this package,
between separate OS processes.  :mod:`repro.net.wire` defines the
length-prefixed CRC-checked frame format;
:class:`repro.net.framed.FramedNetwork` implements the shared
:class:`~repro.runtime.transport.Transport` interface on top of it
once — send sequence, frame validation, delivery admission — and two
backends supply the pipe: :class:`repro.net.tcp.TcpNetwork` (asyncio
sockets) and :class:`repro.net.shm.ShmNetwork` (shared-memory rings).
:mod:`repro.net.launch` holds the network factory, the one standalone
agent runner and the one process-per-node repair driver behind
``fastpr agent`` / ``fastpr gateway`` / ``fastpr repair --transport
tcp|shm``; drive repairs through :class:`repro.RepairSession`.
"""

from .launch import (
    COORDINATOR_ALIAS,
    PeerSpecError,
    allocate_ports,
    format_peer_spec,
    load_node_data,
    parse_peer_spec,
    run_agent_process,
    sharded_peer_spec,
    shm_ring_name,
    stripe_checksums,
)
from .shm import ShmNetwork, ShmRing, shm_available
from .tcp import TcpNetwork
from .wire import (
    HEADER,
    MAGIC,
    MAX_META,
    MAX_PAYLOAD,
    WIRE_VERSION,
    WireError,
    decode_frame,
    encode_frame,
    encode_frame_parts,
)

__all__ = [
    "COORDINATOR_ALIAS",
    "HEADER",
    "MAGIC",
    "MAX_META",
    "MAX_PAYLOAD",
    "PeerSpecError",
    "ShmNetwork",
    "ShmRing",
    "TcpNetwork",
    "WIRE_VERSION",
    "WireError",
    "allocate_ports",
    "decode_frame",
    "encode_frame",
    "encode_frame_parts",
    "shm_available",
    "format_peer_spec",
    "load_node_data",
    "parse_peer_spec",
    "run_agent_process",
    "sharded_peer_spec",
    "shm_ring_name",
    "stripe_checksums",
]
