"""The binary frame codec: round trips and rejection paths.

Every runtime message must survive encode -> decode bit-exactly, and
every way a frame can lie (magic, version, type code, lengths, CRC,
schema) must raise :class:`~repro.net.wire.WireError` — the TCP server
drops the connection on any of them, so these paths are the protocol's
entire defense against corrupted or hostile byte streams.
"""

import json
import struct
import zlib

import pytest

from repro.net.wire import (
    HEADER,
    MAGIC,
    MAX_META,
    WIRE_VERSION,
    WireError,
    decode_frame,
    encode_frame,
)
from repro.runtime.messages import (
    WIRE_CODES,
    WIRE_MESSAGES,
    ChunkDelete,
    ChunkRead,
    ChunkReadReply,
    ChunkWrite,
    ChunkWriteReply,
    DataPacket,
    DeleteReply,
    DeleteRequest,
    GetReply,
    GetRequest,
    Heartbeat,
    InventoryQuery,
    InventoryReply,
    Ping,
    Pong,
    PutReply,
    PutRequest,
    RETIRED_WIRE_CODES,
    ReceiveCommand,
    RepairAck,
    SendCommand,
    Shutdown,
    StatReply,
    StatRequest,
    WriteComplete,
    nack,
    wire_message,
)

#: one representative instance of every wire-registered message
SAMPLES = [
    ReceiveCommand(
        stripe_id=7,
        chunk_index=2,
        chunk_size=4096,
        packet_size=512,
        sources={3: 17, 9: 254},
        attempt=1,
        epoch=4,
    ),
    SendCommand(
        stripe_id=7, chunk_index=2, destination=5, packet_size=512,
        chunk_size=4096, attempt=1, epoch=4, coeff=17, upstream=3,
        chain_pos=1,
    ),
    DataPacket(
        stripe_id=7, chunk_index=2, source=3, offset=1024,
        payload=bytes(range(256)) * 4, attempt=1, epoch=4,
        checksum=0xDEADBEEF,
    ),
    RepairAck(stripe_id=7, chunk_index=2, node_id=5, attempt=1, epoch=4),
    nack((7, 2), 5, attempt=1, detail="stale epoch 3 < 4", epoch=4),
    WriteComplete(stripe_id=7, chunk_index=2, attempt=1, epoch=4),
    Heartbeat(node_id=5),
    Ping(nonce=99),
    Pong(node_id=5, nonce=99),
    InventoryQuery(epoch=4, nonce=99),
    InventoryReply(node_id=5, epoch=4, nonce=99, stripes=(1, 7, 30)),
    Shutdown(),
    ChunkWrite(
        stripe_id=41, chunk_index=3, source=-1000, offset=0,
        payload=b"\x5a" * 1024, checksum=0xCAFE, nonce=12, reply_to=-1000,
    ),
    ChunkWriteReply(stripe_id=41, chunk_index=3, node_id=5, nonce=12),
    ChunkRead(stripe_id=41, chunk_index=3, nonce=13, reply_to=-1000),
    ChunkReadReply(
        stripe_id=41, chunk_index=3, source=5, offset=0,
        payload=b"\xa5" * 1024, checksum=0xBEEF, nonce=13,
    ),
    ChunkDelete(stripe_id=41, chunk_index=3, nonce=14, reply_to=-1000),
    PutRequest(
        stripe_id=-1, chunk_index=-1, source=-1001, offset=0,
        payload=b"object bytes", key="videos/cat.mp4", nonce=15,
        reply_to=-1001,
    ),
    PutReply(
        key="videos/cat.mp4", nonce=15, size=12, stripes=(41, 42),
    ),
    GetRequest(key="videos/cat.mp4", nonce=16, reply_to=-1001),
    GetReply(
        stripe_id=-1, chunk_index=-1, source=-1000, offset=0,
        payload=b"object bytes", key="videos/cat.mp4", nonce=16,
        degraded=True,
    ),
    DeleteRequest(key="videos/cat.mp4", nonce=17, reply_to=-1001),
    DeleteReply(key="videos/cat.mp4", nonce=17),
    StatRequest(key="videos/cat.mp4", nonce=18, reply_to=-1001),
    StatReply(
        key="videos/cat.mp4", nonce=18, size=12, chunk_size=4096,
        scheme="rs(9,6)", stripes=(41, 42),
    ),
]


class TestRoundTrip:
    def test_every_message_type_has_a_sample(self):
        assert {type(s) for s in SAMPLES} == set(WIRE_MESSAGES.values())

    @pytest.mark.parametrize(
        "message", SAMPLES, ids=[type(s).__name__ for s in SAMPLES]
    )
    def test_bit_exact_round_trip(self, message):
        src, dst, decoded = decode_frame(encode_frame(3, -1, message))
        assert (src, dst) == (3, -1)
        assert decoded == message
        assert type(decoded) is type(message)

    def test_payload_travels_raw_not_base64(self):
        packet = DataPacket(
            stripe_id=1, chunk_index=0, source=2, offset=0,
            payload=b"\x00\xff" * 512,
        )
        frame = encode_frame(2, 4, packet)
        assert packet.payload in frame  # verbatim binary tail
        meta_len = HEADER.unpack(frame[: HEADER.size])[4]
        meta = json.loads(frame[HEADER.size : HEADER.size + meta_len])
        assert "payload" not in meta["msg"]

    def test_header_carries_the_message_epoch(self):
        frame = encode_frame(0, 1, WriteComplete(1, 0, epoch=9))
        assert HEADER.unpack(frame[: HEADER.size])[3] == 9
        # epoch-less messages stamp 0
        frame = encode_frame(0, 1, Heartbeat(node_id=0))
        assert HEADER.unpack(frame[: HEADER.size])[3] == 0

    def test_frame_crc_is_zlib_crc32_at_packet_size(self):
        # A 64 KiB payload takes the native CRC fold: the header must
        # still carry zlib's CRC-32 of meta then payload, so frames stay
        # byte-identical across versions, and one flipped bit fails.
        payload = bytes(range(251)) * 261
        packet = DataPacket(
            stripe_id=3, chunk_index=1, source=2, offset=65536,
            payload=payload, attempt=2, epoch=5, checksum=zlib.crc32(payload),
        )
        frame = encode_frame(2, 4, packet)
        crc = HEADER.unpack(frame[: HEADER.size])[6]
        assert crc == zlib.crc32(frame[HEADER.size :])
        src, dst, decoded = decode_frame(frame)
        assert decoded == packet
        assert encode_frame(src, dst, decoded) == frame
        flipped = bytearray(frame)
        flipped[-40_000] ^= 0x10
        with pytest.raises(WireError, match="CRC"):
            decode_frame(bytes(flipped))

    def test_empty_payload_packet(self):
        src, dst, decoded = decode_frame(
            encode_frame(0, 1, DataPacket(1, 0, 0, 0, b""))
        )
        assert decoded.payload == b""

    def test_unregistered_message_rejected_at_encode(self):
        with pytest.raises(WireError, match="not a wire-registered"):
            encode_frame(0, 1, object())

    def test_type_codes_are_stable(self):
        # Renumbering breaks cross-version interop: pin the assignment.
        assert {
            code: cls.WIRE_NAME for code, cls in sorted(WIRE_CODES.items())
        } == {
            1: "receive", 2: "send", 4: "data",
            5: "repair_ack", 6: "write_complete", 7: "heartbeat",
            8: "ping", 9: "pong", 10: "inventory_query",
            11: "inventory_reply", 12: "shutdown",
            15: "chunk_write",
            16: "chunk_write_reply", 17: "chunk_read",
            18: "chunk_read_reply", 19: "chunk_delete",
            20: "put_request", 21: "put_reply", 22: "get_request",
            23: "get_reply", 24: "delete_request", 25: "delete_reply",
            26: "stat_request", 27: "stat_reply",
        }
        # Retired codes (3 "relay", 13 "slice", 14 "slice_report") are
        # never handed out again: an old peer's frame must stay an
        # unknown type.
        assert RETIRED_WIRE_CODES == {3, 13, 14}
        assert not RETIRED_WIRE_CODES & set(WIRE_CODES)
        with pytest.raises(ValueError, match="retired"):
            wire_message("reborn_relay", 3)(type("Reborn", (), {}))


def _mangle(frame: bytes, **header_overrides) -> bytes:
    """Re-pack the header with some fields overridden (body untouched)."""
    fields = list(HEADER.unpack(frame[: HEADER.size]))
    names = ["magic", "version", "code", "epoch", "meta_len", "payload_len",
             "crc"]
    for name, value in header_overrides.items():
        fields[names.index(name)] = value
    return HEADER.pack(*fields) + frame[HEADER.size :]


class TestRejection:
    def frame(self):
        return encode_frame(0, 1, Pong(node_id=1, nonce=5))

    def test_bad_magic(self):
        with pytest.raises(WireError, match="magic"):
            decode_frame(_mangle(self.frame(), magic=b"HTTP"))

    def test_future_version(self):
        with pytest.raises(WireError, match="version"):
            decode_frame(_mangle(self.frame(), version=WIRE_VERSION + 1))

    def test_unknown_type_code(self):
        for code in (999, *sorted(RETIRED_WIRE_CODES)):
            with pytest.raises(WireError, match="unknown message type"):
                decode_frame(_mangle(self.frame(), code=code))

    def test_old_shape_send_command_fails_loudly(self):
        # Version 1 of "send" had no chunk_size/coeff/upstream/chain_pos;
        # version 2 of "send" and version 1 of "receive" carried a
        # num_slices the coordinator now folds into packet_size.  A
        # peer still speaking any of them must not be half-understood.
        common = {
            "stripe_id": 7, "chunk_index": 2, "packet_size": 512,
            "attempt": 0, "epoch": 0, "reply_to": -1,
        }
        old_shapes = [
            (SendCommand, 1, {"destination": 5}),
            (SendCommand, 2, {
                "destination": 5, "chunk_size": 4096, "coeff": 17,
                "upstream": 3, "num_slices": 8, "chain_pos": 1,
            }),
            (ReceiveCommand, 1, {
                "chunk_size": 4096, "sources": {"3": 17}, "num_slices": 8,
            }),
        ]
        for cls, version, fields in old_shapes:
            old = {"version": version, **common, **fields}
            meta = json.dumps(
                {"version": 1, "src": 0, "dst": 1, "msg": old}
            ).encode()
            header = HEADER.pack(
                MAGIC, WIRE_VERSION, cls.WIRE_CODE, 0, len(meta), 0,
                zlib.crc32(meta),
            )
            with pytest.raises(
                WireError, match=f"{cls.WIRE_NAME} message version {version}"
            ):
                decode_frame(header + meta)

    def test_absurd_meta_length(self):
        with pytest.raises(WireError, match="meta length"):
            decode_frame(_mangle(self.frame(), meta_len=MAX_META + 1))

    def test_flipped_body_bit_fails_crc(self):
        frame = bytearray(self.frame())
        frame[HEADER.size + 3] ^= 0x01
        with pytest.raises(WireError, match="CRC"):
            decode_frame(bytes(frame))

    def test_flipped_payload_bit_fails_crc(self):
        frame = bytearray(
            encode_frame(0, 1, DataPacket(1, 0, 0, 0, b"abcdef"))
        )
        frame[-2] ^= 0x80
        with pytest.raises(WireError, match="CRC"):
            decode_frame(bytes(frame))

    def test_truncated_frame(self):
        with pytest.raises(WireError, match="length mismatch"):
            decode_frame(self.frame()[:-3])

    def test_trailing_garbage(self):
        with pytest.raises(WireError, match="length mismatch"):
            decode_frame(self.frame() + b"xx")

    def test_short_buffer(self):
        with pytest.raises(WireError, match="short frame"):
            decode_frame(b"FPR1")

    def test_type_code_and_envelope_must_agree(self):
        # Valid CRC, valid JSON — but the header says Ping while the
        # body is a Pong: the schema's unknown-key rejection fires.
        frame = self.frame()
        ping_code = Ping.WIRE_CODE
        mangled = _mangle(frame, code=ping_code)
        with pytest.raises(WireError):
            decode_frame(mangled)

    def test_unknown_envelope_key_rejected(self):
        meta = json.dumps({
            "version": 1, "src": 0, "dst": 1, "msg": Ping(nonce=1).to_dict(),
            "evil": True,
        }).encode()
        header = HEADER.pack(
            MAGIC, WIRE_VERSION, Ping.WIRE_CODE, 0, len(meta), 0,
            zlib.crc32(meta),
        )
        with pytest.raises(WireError):
            decode_frame(header + meta)

    def test_payload_on_payloadless_message_rejected(self):
        meta = json.dumps({
            "version": 1, "src": 0, "dst": 1, "msg": Ping(nonce=1).to_dict(),
        }).encode()
        payload = b"sneaky"
        crc = zlib.crc32(payload, zlib.crc32(meta))
        header = HEADER.pack(
            MAGIC, WIRE_VERSION, Ping.WIRE_CODE, 0, len(meta), len(payload),
            crc,
        )
        with pytest.raises(WireError, match="carries no payload"):
            decode_frame(header + meta + payload)


class TestJsonMangling:
    """JSON stringifies dict keys and lists tuples; coerce hooks undo it."""

    def test_receive_sources_keys_back_to_int(self):
        cmd = ReceiveCommand(1, 0, 64, 16, sources={10: 3, 11: 250})
        _, _, decoded = decode_frame(encode_frame(0, 1, cmd))
        assert decoded.sources == {10: 3, 11: 250}
        assert all(isinstance(k, int) for k in decoded.sources)

    def test_inventory_stripes_back_to_tuple(self):
        reply = InventoryReply(node_id=1, epoch=2, nonce=3, stripes=(5, 6))
        _, _, decoded = decode_frame(encode_frame(1, -1, reply))
        assert decoded.stripes == (5, 6)
        assert isinstance(decoded.stripes, tuple)
