"""Wire protocol of the coordinator/agent runtime (Section V).

The coordinator instructs agents with command messages; agents move
chunk data as packet messages and acknowledge completed repairs.  All
messages are small dataclasses delivered over the in-process transport;
only :class:`DataPacket` payloads are bandwidth-throttled.

Fault tolerance additions:

* every command, packet and ACK carries an ``attempt`` number so a
  retried action never mixes packets from a superseded attempt into a
  fresh assembly;
* :class:`RepairAck` doubles as a NACK via ``status`` / ``detail``, so
  agent-side failures surface at the coordinator instead of dying in a
  worker thread;
* :class:`DataPacket` carries a CRC so corrupted payloads are dropped
  at the receiver (the sender's synchronous round trip then stalls and
  the coordinator retries the action);
* :class:`Heartbeat` / :class:`Ping` / :class:`Pong` let the
  coordinator distinguish a slow node from a dead one.

Crash-recovery additions (split-brain fencing):

* every command, packet and ACK also carries the coordinator's
  ``epoch``.  Agents persist the highest epoch they have seen and NACK
  any *mutating* command from an older epoch, so a zombie pre-crash
  coordinator is fenced out the moment its successor takes over;
* :class:`InventoryQuery` / :class:`InventoryReply` let a recovering
  coordinator ask every agent which chunks it durably stores (atomic
  ``.part`` promotion means a chunk either exists fully or not at all),
  to reconcile the journal against reality before resuming.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields as dataclass_fields
from typing import Callable, Dict, Optional, Tuple, Type

from ..cluster.chunk import NodeId, StripeId
from ..core.serde import Schema, SerdeError

#: identifies one chunk-repair action: (stripe, chunk index)
ActionKey = Tuple[StripeId, int]

#: RepairAck.status value for a successful repair
ACK_OK = "ok"
#: RepairAck.status value for an agent-side failure (a NACK)
ACK_FAILED = "failed"

# ----------------------------------------------------------------------
# wire registry: every message rides on repro.core.serde.Schema
# ----------------------------------------------------------------------

#: wire name -> message class (every serializable runtime message)
WIRE_MESSAGES: Dict[str, type] = {}
#: binary type code -> message class (repro.net frame header)
WIRE_CODES: Dict[int, type] = {}
#: codes of retired messages (3 ``relay``, 13 ``slice``, 14
#: ``slice_report``): never reused, so a frame carrying one is always
#: an unknown-type reject
RETIRED_WIRE_CODES = frozenset({3, 13, 14})


def wire_message(
    name: str,
    code: int,
    coerce: Optional[Callable[[dict], dict]] = None,
    version: int = 1,
):
    """Class decorator: register a message dataclass on the wire protocol.

    Builds a :class:`~repro.core.serde.Schema` from the dataclass
    fields — version-stamped ``to_dict`` output, unknown-key rejection
    on ``from_dict`` — so the TCP codec, tests and any journaled
    message all share one canonical encoding instead of ad-hoc dict
    dumps.  A ``payload`` field (raw chunk bytes) is *excluded* from
    the dict form: the binary framing in :mod:`repro.net.wire` carries
    it verbatim after the JSON control fields, avoiding base64 blow-up.

    Args:
        name: stable wire name (used in envelopes and errors).
        code: stable ``u16`` type code for the binary frame header.
        coerce: optional hook rewriting the loaded body before the
            constructor runs (JSON stringifies dict keys and turns
            tuples into lists; the hook undoes that).
        version: schema version stamped on every document.
    """

    def register(cls: Type) -> Type:
        if name in WIRE_MESSAGES:
            raise ValueError(f"duplicate wire message name {name!r}")
        if code in WIRE_CODES:
            raise ValueError(f"duplicate wire message code {code}")
        if code in RETIRED_WIRE_CODES:
            raise ValueError(f"wire message code {code} is retired")
        all_fields = dataclass_fields(cls)
        payload_field = next(
            (f.name for f in all_fields if f.name == "payload"), None
        )
        control = tuple(
            f.name for f in all_fields if f.name != payload_field
        )
        required = tuple(
            f.name
            for f in all_fields
            if f.name != payload_field
            and f.default is MISSING
            and f.default_factory is MISSING
        )
        schema = Schema(
            kind=f"{name} message",
            version=version,
            fields=control,
            required=required,
        )

        def to_dict(self) -> dict:
            """Version-stamped control fields (payload bytes excluded)."""
            return schema.dump({f: getattr(self, f) for f in control})

        def from_dict(cls_, document: dict, payload: bytes = b""):
            """Inverse of ``to_dict``; unknown keys raise.

            ``payload`` re-attaches the raw bytes the binary framing
            carried outside the JSON control fields.
            """
            body = schema.load(document)
            if coerce is not None:
                body = coerce(body)
            if payload_field is not None:
                body[payload_field] = payload
            elif payload:
                raise SerdeError(
                    f"{name} message carries no payload, got "
                    f"{len(payload)} bytes"
                )
            return cls_(**body)

        cls.WIRE_NAME = name
        cls.WIRE_CODE = code
        cls.WIRE_SCHEMA = schema
        cls.WIRE_PAYLOAD_FIELD = payload_field
        cls.to_dict = to_dict
        cls.from_dict = classmethod(from_dict)
        WIRE_MESSAGES[name] = cls
        WIRE_CODES[code] = cls
        return cls

    return register


def _coerce_receive(body: dict) -> dict:
    if "sources" in body:
        body["sources"] = {
            int(node): coeff for node, coeff in body["sources"].items()
        }
    return body


def _coerce_inventory_reply(body: dict) -> dict:
    if "stripes" in body:
        body["stripes"] = tuple(body["stripes"])
    return body


@wire_message("receive", 1, coerce=_coerce_receive, version=2)
@dataclass(frozen=True)
class ReceiveCommand:
    """Tell the destination agent to expect and assemble a chunk.

    The destination accumulates ``coeff * packet`` from every source —
    coefficient 1 from a single source is a migration; ``k`` erasure-
    coding coefficients implement streaming reconstruction decode.

    Attributes:
        stripe_id / chunk_index: the chunk being repaired.
        chunk_size: total bytes of the chunk.
        packet_size: packet granularity of the incoming transfers; in
            a sliced chain one packet is one slice.
        sources: source node -> GF(2^8) coefficient.
        attempt: retry generation; packets from other attempts are
            ignored by the assembly.
        epoch: issuing coordinator's epoch (fencing + staleness).
        reply_to: endpoint id of the issuing coordinator; ACKs, NACKs
            and epoch fencing are scoped to this endpoint so several
            shard coordinators can drive the same agent concurrently.
    """

    stripe_id: StripeId
    chunk_index: int
    chunk_size: int
    packet_size: int
    sources: Dict[NodeId, int] = field(default_factory=dict)
    attempt: int = 0
    epoch: int = 0
    reply_to: NodeId = -1

    @property
    def key(self) -> ActionKey:
        return (self.stripe_id, self.chunk_index)


@wire_message("send", 2, version=3)
@dataclass(frozen=True)
class SendCommand:
    """Tell a helper to stream its own chunk of a stripe to a next hop.

    One command for every helper stream: the helper reads its chunk
    packet by packet, scales each packet by ``coeff``, XORs in the
    partial sum its ``upstream`` stage forwards for the same offset and
    sends the result to ``destination`` — one stage of the repair
    pipelining of Li et al. (ATC'17).  A star or migration source is
    the chain of length one: coefficient 1 (the destination applies the
    recovery coefficient), no upstream, the repairing node as next hop.
    For migration the sender is the STF node sending the repaired chunk
    itself.
    """

    stripe_id: StripeId
    #: the repaired chunk's index (names the stream across hops)
    chunk_index: int
    #: next hop: the next chain stage, or the repairing node
    destination: NodeId
    #: bytes per packet; in a sliced chain one packet is one slice
    packet_size: int
    #: total bytes of the chunk (the helper checks its stored copy)
    chunk_size: int
    attempt: int = 0
    epoch: int = 0
    #: issuing coordinator endpoint (fencing + reply routing)
    reply_to: NodeId = -1
    #: GF(2^8) factor applied to each packet before forwarding
    coeff: int = 1
    #: the stage whose partial sums this one XORs in (-1: none)
    upstream: NodeId = -1
    #: position in a chain (0 = head); -1 is a star or migration
    #: stream, which runs as a synchronous round trip ending at the
    #: destination's :class:`WriteComplete`
    chain_pos: int = -1

    @property
    def key(self) -> ActionKey:
        return (self.stripe_id, self.chunk_index)


@wire_message("data", 4)
@dataclass(frozen=True)
class DataPacket:
    """One packet of chunk data in flight.

    ``checksum`` is the CRC32 of the payload as the sender produced it;
    a receiver drops any packet whose payload no longer matches (fault
    injection can corrupt payloads in flight).
    """

    stripe_id: StripeId
    chunk_index: int
    source: NodeId
    offset: int
    payload: bytes
    attempt: int = 0
    epoch: int = 0
    checksum: Optional[int] = None

    @property
    def key(self) -> ActionKey:
        return (self.stripe_id, self.chunk_index)


@wire_message("repair_ack", 5)
@dataclass(frozen=True)
class RepairAck:
    """Destination -> coordinator: one chunk repaired — or NACKed.

    ``status == ACK_OK`` reports a completed, durably written chunk.
    ``status == ACK_FAILED`` is a NACK: the sending agent could not
    complete its part of the action (``detail`` says why) and the
    coordinator should retry or replan.
    """

    stripe_id: StripeId
    chunk_index: int
    node_id: NodeId
    attempt: int = 0
    epoch: int = 0
    status: str = ACK_OK
    detail: str = ""

    @property
    def key(self) -> ActionKey:
        return (self.stripe_id, self.chunk_index)

    @property
    def ok(self) -> bool:
        return self.status == ACK_OK


def nack(
    key: ActionKey, node_id: NodeId, attempt: int, detail: str, epoch: int = 0
) -> RepairAck:
    """Build a NACK for one action attempt."""
    return RepairAck(
        stripe_id=key[0],
        chunk_index=key[1],
        node_id=node_id,
        attempt=attempt,
        epoch=epoch,
        status=ACK_FAILED,
        detail=detail,
    )


@wire_message("write_complete", 6)
@dataclass(frozen=True)
class WriteComplete:
    """Destination -> source: the repaired chunk is durably written.

    Lets a sender run its chunk transfers as synchronous round trips —
    the next chunk's read only starts after the previous chunk is
    written at the destination, matching the sequential
    read->transmit->write decomposition of Eq. (4).
    """

    stripe_id: StripeId
    chunk_index: int
    attempt: int = 0
    epoch: int = 0

    @property
    def key(self) -> ActionKey:
        return (self.stripe_id, self.chunk_index)


@wire_message("heartbeat", 7)
@dataclass(frozen=True)
class Heartbeat:
    """Agent -> coordinator: periodic liveness beacon."""

    node_id: NodeId


@wire_message("ping", 8)
@dataclass(frozen=True)
class Ping:
    """Coordinator -> agent: liveness probe; answer with a Pong."""

    nonce: int
    #: endpoint the Pong should be sent to (issuing coordinator)
    reply_to: NodeId = -1


@wire_message("pong", 9)
@dataclass(frozen=True)
class Pong:
    """Agent -> coordinator: probe reply."""

    node_id: NodeId
    nonce: int


@wire_message("inventory_query", 10)
@dataclass(frozen=True)
class InventoryQuery:
    """Recovering coordinator -> agent: report your durable chunks.

    Also announces the successor coordinator's ``epoch``: receiving
    agents bump (and persist) their highest-seen epoch, aborting any
    in-flight work from older epochs, so the pre-crash coordinator is
    fenced the moment its successor takes over.  Epochs (and the
    fencing they drive) are tracked per ``reply_to`` endpoint, so each
    shard coordinator fences only its own predecessors.
    """

    epoch: int
    nonce: int
    #: endpoint the InventoryReply should be sent to
    reply_to: NodeId = -1


@wire_message("inventory_reply", 11, coerce=_coerce_inventory_reply)
@dataclass(frozen=True)
class InventoryReply:
    """Agent -> coordinator: stripe ids with a fully promoted chunk.

    Atomic ``.part`` promotion guarantees every listed chunk is
    complete — there is no "partially repaired" state to report.
    """

    node_id: NodeId
    epoch: int
    nonce: int
    stripes: Tuple[StripeId, ...] = ()


@wire_message("shutdown", 12)
@dataclass(frozen=True)
class Shutdown:
    """Coordinator -> agent: stop the dispatcher loop."""


# ----------------------------------------------------------------------
# gateway protocol (client-facing object store, DESIGN.md §15)
# ----------------------------------------------------------------------
#
# Two layers share the codes-≥15 block:
#
# * gateway <-> agent chunk ops (`ChunkWrite`/`ChunkRead`/`ChunkDelete`
#   + replies): the gateway reads and writes whole chunks on datanodes
#   by ``(stripe_id, chunk_index)``;
# * client <-> gateway object ops (`PutRequest`/`GetRequest`/
#   `DeleteRequest`/`StatRequest` + replies): whole objects keyed by
#   name, striped through the erasure codec by the gateway.
#
# Every payload-carrying message subclasses :class:`DataPacket` so NIC
# throttling, fault injection and CRC verification apply identically on
# all transports.  All gateway messages carry ``TRAFFIC_CLASS =
# "client"`` so an attached :class:`repro.gateway.TrafficArbiter` can
# tell foreground traffic from repair traffic at the transport layer
# (repair's :class:`DataPacket` defaults to ``"repair"``).

DataPacket.TRAFFIC_CLASS = "repair"

#: matched request/reply pairs share a nonce; one object operation
#: (which may fan out into many chunk ops) reuses its nonce throughout.


@wire_message("chunk_write", 15)
@dataclass(frozen=True)
class ChunkWrite(DataPacket):
    """Gateway -> datanode: durably store one whole chunk.

    A :class:`DataPacket` subclass (the payload is the full chunk), so
    the transfer pays NIC bandwidth and is CRC-checked.  The agent
    writes it through the throttled disk and answers with a
    :class:`ChunkWriteReply` to ``reply_to``.
    """

    nonce: int = 0
    reply_to: NodeId = -1


ChunkWrite.TRAFFIC_CLASS = "client"


@wire_message("chunk_write_reply", 16)
@dataclass(frozen=True)
class ChunkWriteReply:
    """Datanode -> gateway: outcome of a ChunkWrite (or ChunkDelete)."""

    stripe_id: StripeId
    chunk_index: int
    node_id: NodeId
    nonce: int = 0
    ok: bool = True
    detail: str = ""


ChunkWriteReply.TRAFFIC_CLASS = "client"


@wire_message("chunk_read", 17)
@dataclass(frozen=True)
class ChunkRead:
    """Gateway -> datanode: stream back one whole stored chunk.

    ``chunk_index`` is echoed into the reply so the gateway can place
    the bytes in the stripe's decode matrix without a lookup.
    """

    stripe_id: StripeId
    chunk_index: int = -1
    nonce: int = 0
    reply_to: NodeId = -1


ChunkRead.TRAFFIC_CLASS = "client"


@wire_message("chunk_read_reply", 18)
@dataclass(frozen=True)
class ChunkReadReply(DataPacket):
    """Datanode -> gateway: the requested chunk bytes (or a refusal).

    ``ok=False`` (missing/unreadable chunk) carries an empty payload
    and names the reason in ``detail`` — the gateway then decodes
    around this node instead of erroring the GET.  Agents send it with
    ``checksum=None``: a CRC taken over bytes already read from disk
    cannot see rot at rest, and the gateway checks every chunk against
    its manifest sha256 anyway — the end-to-end check.
    """

    nonce: int = 0
    ok: bool = True
    detail: str = ""


ChunkReadReply.TRAFFIC_CLASS = "client"


@wire_message("chunk_delete", 19)
@dataclass(frozen=True)
class ChunkDelete:
    """Gateway -> datanode: drop one stored chunk (answers ChunkWriteReply)."""

    stripe_id: StripeId
    chunk_index: int = -1
    nonce: int = 0
    reply_to: NodeId = -1


ChunkDelete.TRAFFIC_CLASS = "client"


@wire_message("put_request", 20)
@dataclass(frozen=True)
class PutRequest(DataPacket):
    """Client -> gateway: store ``payload`` bytes under object ``key``."""

    key: str = ""
    nonce: int = 0
    reply_to: NodeId = -1


PutRequest.TRAFFIC_CLASS = "client"


def _coerce_put_reply(body: dict) -> dict:
    if "stripes" in body:
        body["stripes"] = tuple(body["stripes"])
    return body


@wire_message("put_reply", 21, coerce=_coerce_put_reply)
@dataclass(frozen=True)
class PutReply:
    """Gateway -> client: PUT outcome (stripe ids the object landed on)."""

    key: str
    nonce: int = 0
    ok: bool = True
    detail: str = ""
    size: int = 0
    stripes: Tuple[StripeId, ...] = ()


PutReply.TRAFFIC_CLASS = "client"


@wire_message("get_request", 22)
@dataclass(frozen=True)
class GetRequest:
    """Client -> gateway: fetch object ``key``."""

    key: str
    nonce: int = 0
    reply_to: NodeId = -1


GetRequest.TRAFFIC_CLASS = "client"


@wire_message("get_reply", 23)
@dataclass(frozen=True)
class GetReply(DataPacket):
    """Gateway -> client: the object bytes (throttled like any transfer).

    ``degraded`` reports whether any stripe had to be decoded around a
    dead/suspect/STF datanode.
    """

    key: str = ""
    nonce: int = 0
    ok: bool = True
    detail: str = ""
    degraded: bool = False


GetReply.TRAFFIC_CLASS = "client"


@wire_message("delete_request", 24)
@dataclass(frozen=True)
class DeleteRequest:
    """Client -> gateway: delete object ``key`` (chunks best-effort)."""

    key: str
    nonce: int = 0
    reply_to: NodeId = -1


DeleteRequest.TRAFFIC_CLASS = "client"


@wire_message("delete_reply", 25)
@dataclass(frozen=True)
class DeleteReply:
    """Gateway -> client: DELETE outcome."""

    key: str
    nonce: int = 0
    ok: bool = True
    detail: str = ""


DeleteReply.TRAFFIC_CLASS = "client"


@wire_message("stat_request", 26)
@dataclass(frozen=True)
class StatRequest:
    """Client -> gateway: object metadata without the bytes."""

    key: str
    nonce: int = 0
    reply_to: NodeId = -1


StatRequest.TRAFFIC_CLASS = "client"


def _coerce_stat_reply(body: dict) -> dict:
    if "stripes" in body:
        body["stripes"] = tuple(body["stripes"])
    return body


@wire_message("stat_reply", 27, coerce=_coerce_stat_reply)
@dataclass(frozen=True)
class StatReply:
    """Gateway -> client: manifest summary for one object."""

    key: str
    nonce: int = 0
    ok: bool = True
    detail: str = ""
    size: int = 0
    chunk_size: int = 0
    scheme: str = ""
    stripes: Tuple[StripeId, ...] = ()


StatReply.TRAFFIC_CLASS = "client"
