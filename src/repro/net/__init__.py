"""repro.net — wire protocol, framed-transport core, backends (DESIGN.md §10).

The runtime's messages travel either over the in-memory fabric
(:class:`repro.runtime.transport.Network`) or, via this package,
between separate OS processes.  :mod:`repro.net.wire` defines the
length-prefixed CRC-checked frame format;
:class:`repro.net.framed.FramedNetwork` implements the shared
:class:`~repro.runtime.transport.Transport` interface on top of it
once — send sequence, frame validation, delivery admission — and two
backends supply the pipe: :class:`repro.net.tcp.TcpNetwork` (blocking
sockets) and :class:`repro.net.shm.ShmNetwork` (shared-memory rings).
:mod:`repro.net.launch` holds peer specs, the network factory and the
one standalone agent runner behind ``fastpr agent`` / ``fastpr gateway``
/ ``fastpr repair --transport tcp|shm``; the repair driver itself is
transport-blind (:func:`repro.runtime.driver.run_repair`).
"""

from .launch import (
    COORDINATOR_ALIAS,
    PeerSpecError,
    allocate_ports,
    format_peer_spec,
    parse_peer_spec,
    run_agent_process,
    sharded_peer_spec,
    shm_ring_name,
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
    "parse_peer_spec",
    "run_agent_process",
    "sharded_peer_spec",
    "shm_ring_name",
]
