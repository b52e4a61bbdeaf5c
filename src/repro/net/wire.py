"""Versioned binary framing for runtime messages.

Every message crossing a socket is one length-prefixed frame::

    +--------+---------+-----------+-------+----------+-------------+-------+
    | magic  | version | type code | epoch | meta len | payload len | crc32 |
    | 4s     | u16     | u16       | u32   | u32      | u32         | u32   |
    +--------+---------+-----------+-------+----------+-------------+-------+
    | meta: UTF-8 JSON envelope {version, src, dst, msg}                    |
    | payload: raw chunk bytes (DataPacket only; empty otherwise)           |
    +-----------------------------------------------------------------------+

All header integers are little-endian.  The CRC32 (zlib's) covers meta
and payload together, so a flipped bit anywhere in the body is rejected
at the receiver before any JSON parsing happens; the payload half runs
on :func:`repro.ec.galois.crc32`, the same value at the native rate.
The ``epoch`` is copied from the message (0 for epoch-less messages
like heartbeats) so a zombie coordinator's traffic is identifiable on
the wire without decoding the body.

Control fields travel as schema-validated JSON (the per-message
:class:`~repro.core.serde.Schema` installed by
:func:`~repro.runtime.messages.wire_message`); a
:class:`~repro.runtime.messages.DataPacket` payload travels as raw
bytes after the JSON — no base64 blow-up on the hot path.

The codec is transport-agnostic: :class:`repro.net.tcp.TcpNetwork`
rides on it, and tests feed it hand-corrupted buffers to prove the
rejection paths.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Tuple

from ..cluster.chunk import NodeId
from ..core.serde import Schema, SerdeError
from ..ec.galois import crc32
from ..runtime.messages import WIRE_CODES

#: first bytes of every frame; a connection that does not start with
#: them is not speaking this protocol
MAGIC = b"FPR1"

#: bump on any incompatible frame-layout or envelope change
WIRE_VERSION = 1

#: magic, version, type code, epoch, meta length, payload length, crc32
HEADER = struct.Struct("<4sHHIIII")

#: refuse absurd frames before allocating buffers for them
MAX_META = 1 << 20  # 1 MiB of JSON control fields
MAX_PAYLOAD = 1 << 30  # 1 GiB chunk payload

#: the envelope wrapping every message's control fields
ENVELOPE_SCHEMA = Schema(
    kind="wire envelope",
    version=WIRE_VERSION,
    fields=("src", "dst", "msg"),
    required=("src", "dst", "msg"),
)


class WireError(ValueError):
    """A frame that must not be trusted (bad magic/version/CRC/schema)."""


def encode_frame_parts(src: NodeId, dst: NodeId, message) -> Tuple[bytes, bytes]:
    """Encode one routed message as an iovec of two wire buffers.

    Returns ``(head, payload)`` where ``head`` is the packed header
    plus JSON meta and ``payload`` is the message's own payload buffer,
    *not* copied — a ``DataPacket``'s chunk bytes go out exactly as the
    sender holds them (bytes, memoryview or numpy-backed view).  The
    caller hands both buffers to a scatter-gather write; the payload
    must not be mutated after this call (the transport may still
    reference it from its send queue).

    Raises:
        WireError: if the message type is not wire-registered.
    """
    cls = type(message)
    code = getattr(cls, "WIRE_CODE", None)
    if code is None or WIRE_CODES.get(code) is not cls:
        raise WireError(f"{cls.__name__} is not a wire-registered message")
    payload = b""
    if cls.WIRE_PAYLOAD_FIELD is not None:
        payload = getattr(message, cls.WIRE_PAYLOAD_FIELD)
    meta = json.dumps(
        ENVELOPE_SCHEMA.dump(
            {"src": src, "dst": dst, "msg": message.to_dict()}
        ),
        separators=(",", ":"),
    ).encode("utf-8")
    crc = zlib.crc32(meta)
    if len(payload):
        crc = crc32(payload, crc)
    header = HEADER.pack(
        MAGIC,
        WIRE_VERSION,
        code,
        getattr(message, "epoch", 0),
        len(meta),
        len(payload),
        crc,
    )
    return header + meta, payload


def encode_frame(src: NodeId, dst: NodeId, message) -> bytes:
    """Encode one routed message as a complete contiguous frame.

    Convenience join of :func:`encode_frame_parts` for tests and
    loopback paths; the socket hot path writes the parts directly.

    Raises:
        WireError: if the message type is not wire-registered.
    """
    return b"".join(encode_frame_parts(src, dst, message))


def parse_header(header: bytes) -> Tuple[int, int, int, int, int]:
    """Validate a frame header; returns (code, epoch, meta_len, payload_len, crc).

    Raises:
        WireError: on bad magic, unsupported version, unknown type code
            or implausible lengths — all cases where the byte stream
            can no longer be trusted and the connection should drop.
    """
    magic, version, code, epoch, meta_len, payload_len, crc = HEADER.unpack(
        header
    )
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (expected {WIRE_VERSION})"
        )
    if code not in WIRE_CODES:
        raise WireError(f"unknown message type code {code}")
    if meta_len > MAX_META:
        raise WireError(f"meta length {meta_len} exceeds {MAX_META}")
    if payload_len > MAX_PAYLOAD:
        raise WireError(f"payload length {payload_len} exceeds {MAX_PAYLOAD}")
    return code, epoch, meta_len, payload_len, crc


def decode_body(
    code: int, crc: int, meta: bytes, payload: bytes
) -> Tuple[NodeId, NodeId, object]:
    """Decode a frame body; returns ``(src, dst, message)``.

    ``meta`` and ``payload`` may be any bytes-like buffers (the socket
    path passes ``memoryview`` slices into its receive buffer); the
    payload view is handed to the message verbatim, so a ``DataPacket``
    carries a zero-copy view of the received frame.

    Raises:
        WireError: on CRC mismatch, malformed JSON, envelope/schema
            violations, or a type-code/envelope disagreement.
    """
    actual = zlib.crc32(meta)
    if len(payload):
        actual = crc32(payload, actual)
    if actual != crc:
        raise WireError("frame CRC mismatch (corrupted in flight)")
    try:
        envelope = ENVELOPE_SCHEMA.load(json.loads(str(meta, "utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame meta: {exc}") from None
    except SerdeError as exc:
        raise WireError(str(exc)) from None
    cls = WIRE_CODES[code]
    try:
        message = cls.from_dict(envelope["msg"], payload=payload)
    except SerdeError as exc:
        raise WireError(str(exc)) from None
    except TypeError as exc:
        raise WireError(f"malformed {cls.__name__} body: {exc}") from None
    return envelope["src"], envelope["dst"], message


def decode_frame(frame: bytes) -> Tuple[NodeId, NodeId, object]:
    """Decode one complete frame buffer (tests and loopback paths).

    Raises:
        WireError: on any framing violation, including trailing bytes.
    """
    if len(frame) < HEADER.size:
        raise WireError(f"short frame: {len(frame)} < {HEADER.size} bytes")
    code, _epoch, meta_len, payload_len, crc = parse_header(
        frame[: HEADER.size]
    )
    body = frame[HEADER.size :]
    if len(body) != meta_len + payload_len:
        raise WireError(
            f"frame length mismatch: {len(body)} body bytes, header "
            f"declares {meta_len} + {payload_len}"
        )
    return decode_body(code, crc, body[:meta_len], body[meta_len:])
