"""The object layer: PUT/GET/DELETE/STAT against live repair agents.

:class:`ObjectStore` is the gateway's core.  It stripes named objects
through the erasure codec onto the cluster's agents with
:class:`~repro.runtime.messages.ChunkWrite` RPCs, records a durable
:class:`~repro.gateway.manifest.ObjectManifest` per object — with one
sha256 per chunk, hashed while the writes are in flight — and reads
them back with :class:`~repro.runtime.messages.ChunkRead`, falling
back to a *degraded read* (fetch any ``k`` survivors, decode around
the hole; cf. the decode paths in Li et al., arXiv:1908.01527) when a
datanode is failed, flagged soon-to-fail, suspected unresponsive, or
returns bytes that do not match their digest.

A GET hashes each chunk it returns exactly once, against the
manifest's digest for that chunk, whether it was fetched or decoded:
that is the read path's only integrity check, end to end from the
PUT's encoder, so agents serve chunks without a checksum and the
object is never hashed whole.  The hashing runs on a process-wide
thread pool (:func:`~repro.gateway.manifest.digest_all`), one stripe's
chunks at a time: all replies of a read wave, a degraded stripe's
decoded chunks, a PUT's ``n`` chunks while its writes fly.  sha256
releases the GIL on large buffers, so that spreads over every usable
core; the pool is bounded by the CPU count.

Everything speaks the existing :class:`~repro.runtime.transport`
interface, so the same gateway runs unchanged over the in-memory,
TCP, and shared-memory backends.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.chunk import NodeId
from ..cluster.cluster import ClusterError, StorageCluster
from ..ec.codec import DecodeError, ErasureCodec
from ..ec.galois import crc32, record_kernel
from ..runtime.messages import (
    ChunkDelete,
    ChunkRead,
    ChunkWrite,
    DeleteReply,
    DeleteRequest,
    GetReply,
    GetRequest,
    Ping,
    PutReply,
    PutRequest,
    Shutdown,
    StatReply,
    StatRequest,
)
from .manifest import (
    ManifestStore,
    ObjectManifest,
    StripeRef,
    digest_all,
    root_digest,
)

#: well-known endpoint id of the gateway (below all shard coordinators)
GATEWAY_ID: NodeId = -1000
#: well-known endpoint id of the CLI object client
CLIENT_ID: NodeId = -1001


def _leading(parts: Sequence[bytes], size: int) -> List[memoryview]:
    """Views of ``parts`` that hold exactly their first ``size`` bytes."""
    views = []
    for part in parts:
        view = memoryview(part)[:size]
        size -= len(view)
        views.append(view)
    return views


class GatewayError(RuntimeError):
    """Raised when an object operation cannot be completed."""


class _Slot:
    """One in-flight RPC awaiting its reply."""

    __slots__ = ("event", "reply")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.reply = None


class RpcEndpoint:
    """Transport attachment + nonce-routed request/reply plumbing.

    Shared by the gateway (talking to agents) and the object client
    (talking to the gateway).  A daemon receiver thread drains the
    endpoint inbox: replies carrying a pending ``nonce`` complete
    their RPC slot; everything else goes to :meth:`_on_message`.
    """

    def __init__(
        self,
        network,
        node_id: NodeId,
        bandwidth: Optional[float] = None,
        timeout: float = 10.0,
        stop: Optional[threading.Event] = None,
    ):
        self.network = network
        self.node_id = node_id
        self.timeout = timeout
        self._stop = stop if stop is not None else threading.Event()
        self.endpoint = network.attach(node_id, bandwidth, stop=self._stop)
        self._pending: Dict[int, _Slot] = {}
        self._nonces = itertools.count(1)
        self._lock = threading.Lock()
        self._receiver = threading.Thread(
            target=self._recv_loop, name=f"gateway-recv[{node_id}]",
            daemon=True,
        )
        self._receiver.start()

    def close(self) -> None:
        """Stop the receiver and detach from the transport."""
        if self._stop.is_set():
            return
        self._stop.set()
        self.endpoint.inbox.put(Shutdown())
        self._receiver.join(timeout=5.0)
        try:
            self.network.detach(self.node_id)
        except KeyError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------

    def _recv_loop(self) -> None:
        while not self._stop.is_set():
            message = self.endpoint.inbox.get()
            if isinstance(message, Shutdown):
                return
            nonce = getattr(message, "nonce", None)
            slot = None
            if nonce is not None:
                with self._lock:
                    slot = self._pending.get(nonce)
            if slot is not None:
                slot.reply = message
                slot.event.set()
            else:
                self._on_message(message)
            # Not held while blocked on the inbox: a ChunkReadReply
            # payload maps its chunk file until the last reference goes.
            del message, slot

    def _on_message(self, message) -> None:
        """Hook for non-reply traffic (server request dispatch)."""

    def _next_nonce(self) -> int:
        with self._lock:
            return next(self._nonces)

    def _rpc(self, dst: NodeId, message, timeout: Optional[float] = None):
        """Send one request and await its reply (None on timeout)."""
        return self._rpc_many([(dst, message)], timeout=timeout)[0]

    def _rpc_many(
        self,
        calls: Sequence[Tuple[NodeId, object]],
        timeout: Optional[float] = None,
        meanwhile: Optional[Callable[[], None]] = None,
    ) -> List:
        """Fan out requests, then await every reply.

        Each message must already carry a unique ``nonce``; the result
        list aligns with ``calls``, with ``None`` for timeouts and
        unreachable destinations.  ``meanwhile`` runs between the two
        halves — every request sent, no reply awaited yet — so the
        caller's own work overlaps the round trips.
        """
        timeout = self.timeout if timeout is None else timeout
        slots = []
        with self._lock:
            for _, message in calls:
                slot = _Slot()
                self._pending[message.nonce] = slot
                slots.append(slot)
        try:
            for dst, message in calls:
                try:
                    self.network.send(self.node_id, dst, message)
                except KeyError:
                    pass  # unknown peer: surfaces as a timeout
            if meanwhile is not None:
                meanwhile()
            replies = []
            for slot in slots:
                replies.append(
                    slot.reply if slot.event.wait(timeout=timeout) else None
                )
            return replies
        finally:
            with self._lock:
                for _, message in calls:
                    self._pending.pop(message.nonce, None)


@dataclass(frozen=True)
class GetResult:
    """A GET's payload plus how it was served."""

    data: bytes
    #: stripes that needed decode-around-a-hole reconstruction
    degraded_stripes: int = 0

    @property
    def degraded(self) -> bool:
        return self.degraded_stripes > 0


class ObjectStore(RpcEndpoint):
    """Named objects striped over live agents, with degraded reads.

    Args:
        cluster: authoritative node/stripe metadata; placements are
            registered here so the repair planners protect gateway
            stripes exactly like fixture stripes.
        codec: the erasure codec objects are striped with.
        network: any transport implementing ``attach``/``send``
            (memory :class:`~repro.runtime.transport.Network`,
            :class:`~repro.net.tcp.TcpNetwork`,
            :class:`~repro.net.shm.ShmNetwork`).
        chunk_size: bytes per chunk; objects are zero-padded up to
            ``k * chunk_size`` per stripe.
        manifest_dir: directory for durable manifests (None = memory).
        metrics: optional :class:`~repro.obs.MetricsRegistry`.
        timeout: per-RPC reply deadline in seconds.
        suspect_ttl: how long a node that timed out a read stays
            blacklisted before GETs try it directly again.
    """

    def __init__(
        self,
        cluster: StorageCluster,
        codec: ErasureCodec,
        network,
        *,
        node_id: NodeId = GATEWAY_ID,
        bandwidth: Optional[float] = None,
        chunk_size: int = 64 * 1024,
        manifest_dir: Optional[Path] = None,
        metrics=None,
        timeout: float = 10.0,
        suspect_ttl: float = 5.0,
        stop: Optional[threading.Event] = None,
    ):
        super().__init__(
            network, node_id, bandwidth=bandwidth, timeout=timeout, stop=stop
        )
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.cluster = cluster
        self.codec = codec
        self.chunk_size = chunk_size
        self.manifests = ManifestStore(manifest_dir)
        self.suspect_ttl = suspect_ttl
        #: node id -> monotonic expiry of read-path suspicion
        self._suspects: Dict[NodeId, float] = {}
        self._counters = None
        if metrics is not None:
            record_kernel(metrics)
            self._counters = {
                name: metrics.counter(f"gateway_{name}_total", help_)
                for name, help_ in (
                    ("puts", "objects written through the gateway"),
                    ("gets", "objects read through the gateway"),
                    ("deletes", "objects deleted through the gateway"),
                    ("degraded_reads",
                     "stripe reads served by decoding around a lost chunk"),
                    ("bytes_in", "object payload bytes written"),
                    ("bytes_out", "object payload bytes read"),
                )
            }

    def _count(self, name: str, value: int = 1) -> None:
        if self._counters is not None:
            self._counters[name].inc(value)

    def _client_flow(self):
        """Registered client flow spanning one object request.

        Accounting only (``arbiter_active_flows{cls="client"}``: how
        many object requests are in flight).  It clamps nothing — the
        arbiter paces background traffic by what this request's chunk
        bytes do to the links they cross, not by the fact that some
        request is open somewhere.
        """
        arbiter = getattr(self.network, "arbiter", None)
        if arbiter is None:
            return nullcontext()
        return arbiter.register("client")

    # ------------------------------------------------------------------
    # write path

    def put(self, key: str, data: bytes) -> ObjectManifest:
        """Stripe ``data`` onto the cluster under ``key``.

        Re-putting an existing key replaces it only once the new
        version is whole: new stripes written, new manifest saved, then
        the old chunks deleted (best effort).  A PUT that fails midway
        deletes what it wrote (best effort) and leaves the old version
        readable.

        ``data`` is any bytes-like buffer and is never copied whole:
        each stripe's data chunks are read-only views of its rows (a
        partial last stripe alone is copied, zero-padded, into one
        scratch stripe), the parity is one product over them, and the
        writes, their CRCs and the chunk digests all read those views.
        Like any payload handed to the transport, ``data`` must not
        change while ``put`` runs; it returns only once every write has
        been answered.
        """
        if not key:
            raise GatewayError("object key must be non-empty")
        old = self.manifests.load(key) if self.manifests.has(key) else None
        k, n = self.codec.k, self.codec.n
        buf = np.frombuffer(data, dtype=np.uint8)
        stripe_bytes = k * self.chunk_size
        whole = len(buf) // stripe_bytes
        stripes = list(
            buf[: whole * stripe_bytes].reshape(whole, k, self.chunk_size)
        )
        if len(buf) % stripe_bytes or not whole:
            last = np.zeros(stripe_bytes, dtype=np.uint8)
            last[: len(buf) - whole * stripe_bytes] = buf[whole * stripe_bytes :]
            stripes.append(last.reshape(k, self.chunk_size))
        refs: List[StripeRef] = []
        with self._client_flow():
            try:
                for stripe_data in stripes:
                    self._write_stripe(stripe_data, refs)
            except GatewayError:
                self._delete_chunks(refs)
                raise
            manifest = ObjectManifest(
                key=key,
                size=len(buf),
                chunk_size=self.chunk_size,
                n=n,
                k=k,
                sha256=root_digest(refs),
                stripes=tuple(refs),
            )
            self.manifests.save(manifest)
            if old is not None:
                self._delete_chunks(old.stripes)
        self._count("puts")
        self._count("bytes_in", len(buf))
        return manifest

    def _write_stripe(
        self, data: np.ndarray, written: List[StripeRef]
    ) -> None:
        """Write one stripe, hashing its chunks while the writes fly.

        ``data`` is the stripe's ``(k, chunk)`` data; its parity lives
        only until every write is answered.  The stripe's ref joins
        ``written`` before any reply is judged, so a failed PUT can
        delete whatever reached a node.
        """
        rows = [*data, *self.codec.encode_parity(data)]
        chunks = [memoryview(row).toreadonly() for row in rows]
        placement = self._choose_placement(len(chunks))
        stripe = self.cluster.add_stripe(
            self.codec.n, self.codec.k, placement
        )
        calls = []
        for index, (dst, chunk) in enumerate(zip(placement, chunks)):
            calls.append((dst, ChunkWrite(
                stripe_id=stripe.stripe_id,
                chunk_index=index,
                source=self.node_id,
                offset=0,
                payload=chunk,
                checksum=crc32(chunk),
                nonce=self._next_nonce(),
                reply_to=self.node_id,
            )))
        digests: List[str] = []
        replies = self._rpc_many(
            calls, meanwhile=lambda: digests.extend(digest_all(chunks))
        )
        written.append(
            StripeRef(stripe.stripe_id, tuple(placement), tuple(digests))
        )
        for (dst, _), reply in zip(calls, replies):
            if reply is None:
                raise GatewayError(
                    f"node {dst} did not acknowledge chunk write "
                    f"(stripe {stripe.stripe_id})"
                )
            if not reply.ok:
                raise GatewayError(
                    f"node {dst} rejected chunk write: {reply.detail}"
                )

    def _choose_placement(self, n: int) -> List[NodeId]:
        """``n`` distinct healthy nodes, least-loaded first."""
        candidates = self.cluster.healthy_storage_nodes()
        if len(candidates) < n:
            raise GatewayError(
                f"need {n} healthy storage nodes for a stripe, "
                f"only {len(candidates)} available"
            )
        candidates.sort(key=lambda nid: (self.cluster.load_of(nid), nid))
        return candidates[:n]

    # ------------------------------------------------------------------
    # read path

    def get(self, key: str) -> bytes:
        """Read an object back, decoding around dead nodes if needed."""
        return self.get_result(key).data

    def get_result(self, key: str) -> GetResult:
        """Like :meth:`get`, also reporting degraded-stripe counts."""
        manifest = self.manifests.load(key)
        parts = []
        degraded_stripes = 0
        with self._client_flow():
            for ref in map(self._located, manifest.stripes):
                data_chunks, degraded = self._read_stripe(manifest, ref)
                parts.extend(data_chunks)
                if degraded:
                    degraded_stripes += 1
        # Every part already matched its chunk digest: nothing to
        # hash again here.  The one copy of the object is this join,
        # which leaves the last stripe's padding out.
        data = b"".join(_leading(parts, manifest.size))
        self._count("gets")
        self._count("bytes_out", len(data))
        return GetResult(data=data, degraded_stripes=degraded_stripes)

    def _located(self, ref: StripeRef) -> StripeRef:
        """``ref`` with the stripe's current placement: a repair
        relocates chunks in the cluster catalog (``apply_plan``), the
        manifest only remembers where the PUT wrote them."""
        try:
            stripe = self.cluster.stripe(ref.stripe_id)
        except ClusterError:
            return ref  # manifest outlives the snapshot: try it
        return replace(ref, placement=stripe.placement)

    def _read_stripe(
        self, manifest: ObjectManifest, ref: StripeRef
    ) -> Tuple[List[bytes], bool]:
        """One stripe's ``k`` data chunks, degraded-decoding if needed.

        Every chunk returned matched its manifest digest.  Returns
        ``(data_chunks, was_degraded)``.
        """
        if len(ref.digests) != manifest.n:
            raise GatewayError(
                f"stripe {ref.stripe_id}: manifest holds "
                f"{len(ref.digests)} chunk digests, not {manifest.n}; "
                "nothing to verify a read against"
            )
        k = manifest.k
        wanted = list(range(k))
        # One request wave for k chunks: the data chunks on nodes the
        # monitor/probe state calls readable, plus one readable parity
        # for every data chunk that state leaves short.
        first = [i for i in wanted if self._readable(ref.placement[i])]
        parities = (
            i for i in range(k, manifest.n)
            if self._readable(ref.placement[i])
        )
        first.extend(itertools.islice(parities, k - len(first)))
        available = self._fetch_chunks(ref, first)
        missing = [i for i in wanted if i not in available]
        if not missing:
            return [available[i] for i in wanted], False
        # Only when a reply in that wave failed (its node is suspect
        # now): top up one at a time from whatever else is readable.
        for index in range(manifest.n):
            if len(available) >= k:
                break
            if index not in available and self._readable(
                ref.placement[index]
            ):
                available.update(self._fetch_chunks(ref, [index]))
        if len(available) < k:
            raise GatewayError(
                f"stripe {ref.stripe_id}: only {len(available)} of the "
                f"{k} required chunks are readable"
            )
        try:
            decoded = self.codec.decode(available, missing)
        except DecodeError as exc:
            raise GatewayError(
                f"stripe {ref.stripe_id}: degraded decode failed: {exc}"
            ) from exc
        hashes = digest_all([decoded[index] for index in missing])
        for index, chunk_digest in zip(missing, hashes):
            if chunk_digest != ref.digests[index]:
                raise GatewayError(
                    f"stripe {ref.stripe_id}: decoded chunk {index} "
                    "does not match its manifest digest"
                )
        self._count("degraded_reads")
        chunks = [
            available[i] if i in available else decoded[i] for i in wanted
        ]
        return chunks, True

    def _fetch_chunks(
        self, ref: StripeRef, indices: Sequence[int]
    ) -> Dict[int, bytes]:
        """ChunkRead fan-out, keeping only replies that match their digest.

        A timeout, a refusal or bytes that rotted at rest or in flight
        all mark the node suspect; the caller decodes around it.
        """
        if not indices:
            return {}
        calls = [
            (ref.placement[i], ChunkRead(
                stripe_id=ref.stripe_id,
                chunk_index=i,
                nonce=self._next_nonce(),
                reply_to=self.node_id,
            ))
            for i in indices
        ]
        answered = []
        for (dst, request), reply in zip(calls, self._rpc_many(calls)):
            if reply is None or not reply.ok:
                self._suspect(dst)
            else:
                answered.append((dst, request.chunk_index, reply.payload))
        hashes = digest_all([payload for _, _, payload in answered])
        fetched: Dict[int, bytes] = {}
        for (dst, index, payload), chunk_digest in zip(answered, hashes):
            if chunk_digest != ref.digests[index]:
                self._suspect(dst)
                continue
            fetched[index] = payload
        return fetched

    # ------------------------------------------------------------------
    # health state

    def _readable(self, node_id: NodeId) -> bool:
        """Monitor + probe verdict: should a GET try this node directly?

        Failed nodes are gone; soon-to-fail nodes are being drained by
        predictive repair and may be shut down mid-read, so GETs decode
        around them; suspects recently timed out a read.
        """
        try:
            node = self.cluster.node(node_id)
        except Exception:
            return True  # manifest outlives the snapshot: try it
        if node.is_failed or node.is_stf:
            return False
        expiry = self._suspects.get(node_id)
        if expiry is not None:
            if expiry > time.monotonic():
                return False
            del self._suspects[node_id]
        return True

    def _suspect(self, node_id: NodeId) -> None:
        self._suspects[node_id] = time.monotonic() + self.suspect_ttl

    def probe(self, node_id: NodeId, timeout: float = 1.0) -> bool:
        """Ping a node; a reply clears read-path suspicion."""
        reply = self._rpc(
            node_id,
            Ping(nonce=self._next_nonce(), reply_to=self.node_id),
            timeout=timeout,
        )
        if reply is not None:
            self._suspects.pop(node_id, None)
            return True
        self._suspect(node_id)
        return False

    # ------------------------------------------------------------------
    # delete / stat

    def delete(self, key: str) -> int:
        """Delete an object's chunks (best effort) and its manifest.

        Returns the number of chunk deletes acknowledged.  The stripe
        ids stay registered in the cluster catalog (ids are never
        reused); their chunks are simply gone.
        """
        manifest = self.manifests.load(key)
        with self._client_flow():
            acked = self._delete_chunks(manifest.stripes)
        self.manifests.delete(key)
        self._count("deletes")
        return acked

    def _delete_chunks(self, stripes: Sequence[StripeRef]) -> int:
        """ChunkDelete every chunk of ``stripes``; the acks received."""
        calls = []
        for ref in map(self._located, stripes):
            for index, dst in enumerate(ref.placement):
                calls.append((dst, ChunkDelete(
                    stripe_id=ref.stripe_id,
                    chunk_index=index,
                    nonce=self._next_nonce(),
                    reply_to=self.node_id,
                )))
        replies = self._rpc_many(calls)
        return sum(
            1 for reply in replies if reply is not None and reply.ok
        )

    def stat(self, key: str) -> ObjectManifest:
        """The manifest for ``key`` (raises ManifestError if absent)."""
        return self.manifests.load(key)

    def keys(self) -> List[str]:
        return self.manifests.keys()


class GatewayServer(ObjectStore):
    """An :class:`ObjectStore` that also serves remote object clients.

    Wire requests (:class:`~repro.runtime.messages.PutRequest` etc.)
    arriving at the gateway endpoint are executed on a dedicated
    worker thread (so the receiver loop keeps routing the chunk-RPC
    replies the work itself depends on) and answered to the request's
    ``reply_to`` endpoint.
    """

    def __init__(self, *args, **kwargs):
        self._requests: "queue.Queue" = queue.Queue()
        super().__init__(*args, **kwargs)
        self._worker = threading.Thread(
            target=self._serve_loop, name="gateway-serve", daemon=True
        )
        self._worker.start()

    def close(self) -> None:
        if not self._stop.is_set():
            self._requests.put(None)
        super().close()
        self._worker.join(timeout=5.0)

    def _on_message(self, message) -> None:
        if isinstance(
            message, (PutRequest, GetRequest, DeleteRequest, StatRequest)
        ):
            self._requests.put(message)

    def _serve_loop(self) -> None:
        while True:
            message = self._requests.get()
            if message is None or self._stop.is_set():
                return
            try:
                reply = self._serve_one(message)
            except Exception as exc:  # noqa: BLE001 - reply with the error
                reply = self._error_reply(message, exc)
            self._reply(message.reply_to, reply)

    def _serve_one(self, message):
        if isinstance(message, PutRequest):
            # checksum=None: the transport already frame-CRC-verified the
            # payload and stripped the field (tcp/shm receive contract).
            if (
                message.checksum is not None
                and crc32(message.payload) != message.checksum
            ):
                raise GatewayError("payload checksum mismatch")
            manifest = self.put(message.key, message.payload)
            return PutReply(
                key=message.key,
                nonce=message.nonce,
                size=manifest.size,
                stripes=manifest.stripe_ids,
            )
        if isinstance(message, GetRequest):
            result = self.get_result(message.key)
            return GetReply(
                stripe_id=-1,
                chunk_index=-1,
                source=self.node_id,
                offset=0,
                payload=result.data,
                checksum=crc32(result.data),
                key=message.key,
                nonce=message.nonce,
                degraded=result.degraded,
            )
        if isinstance(message, DeleteRequest):
            self.delete(message.key)
            return DeleteReply(key=message.key, nonce=message.nonce)
        manifest = self.stat(message.key)
        return StatReply(
            key=message.key,
            nonce=message.nonce,
            size=manifest.size,
            chunk_size=manifest.chunk_size,
            scheme=manifest.scheme,
            stripes=manifest.stripe_ids,
        )

    def _error_reply(self, message, exc: Exception):
        detail = f"{type(exc).__name__}: {exc}"
        if isinstance(message, PutRequest):
            return PutReply(
                key=message.key, nonce=message.nonce, ok=False, detail=detail
            )
        if isinstance(message, GetRequest):
            return GetReply(
                stripe_id=-1, chunk_index=-1, source=self.node_id, offset=0,
                payload=b"", key=message.key, nonce=message.nonce,
                ok=False, detail=detail,
            )
        if isinstance(message, DeleteRequest):
            return DeleteReply(
                key=message.key, nonce=message.nonce, ok=False, detail=detail
            )
        return StatReply(
            key=message.key, nonce=message.nonce, ok=False, detail=detail
        )

    def _reply(self, dst: NodeId, reply) -> None:
        # Clients are transient processes: a one-shot ``fastpr gateway
        # put`` re-creates its inbound shm ring each run, so a ring
        # attachment cached while answering the previous client would
        # silently swallow this reply.  Re-resolve the peer by name
        # (duck-typed; only ShmNetwork has transient-peer caching).
        refresh = getattr(self.network, "refresh_peer", None)
        if refresh is not None:
            refresh(dst)
        try:
            self.network.send(self.node_id, dst, reply)
        except KeyError:
            pass  # client went away


class ObjectClient(RpcEndpoint):
    """Remote object client: PUT/GET/DELETE/STAT against a gateway.

    Used by ``fastpr gateway put``/``get`` — attaches to the transport
    as :data:`CLIENT_ID` and speaks the object wire messages.
    """

    def __init__(
        self,
        network,
        *,
        node_id: NodeId = CLIENT_ID,
        gateway_id: NodeId = GATEWAY_ID,
        timeout: float = 30.0,
        stop: Optional[threading.Event] = None,
    ):
        super().__init__(network, node_id, timeout=timeout, stop=stop)
        self.gateway_id = gateway_id

    def _call(self, message):
        reply = self._rpc(self.gateway_id, message)
        if reply is None:
            raise GatewayError(
                f"gateway {self.gateway_id} did not reply within "
                f"{self.timeout}s"
            )
        if not reply.ok:
            raise GatewayError(reply.detail)
        return reply

    def put(self, key: str, data: bytes) -> PutReply:
        return self._call(PutRequest(
            stripe_id=-1, chunk_index=-1, source=self.node_id, offset=0,
            payload=data, checksum=crc32(data), key=key,
            nonce=self._next_nonce(), reply_to=self.node_id,
        ))

    def get(self, key: str) -> GetReply:
        reply = self._call(GetRequest(
            key=key, nonce=self._next_nonce(), reply_to=self.node_id
        ))
        # checksum=None: the transport already frame-CRC-verified the
        # payload and stripped the field (tcp/shm receive contract).
        if (
            reply.checksum is not None
            and crc32(reply.payload) != reply.checksum
        ):
            raise GatewayError(f"GET {key!r}: payload checksum mismatch")
        return reply

    def delete(self, key: str) -> DeleteReply:
        return self._call(DeleteRequest(
            key=key, nonce=self._next_nonce(), reply_to=self.node_id
        ))

    def stat(self, key: str) -> StatReply:
        return self._call(StatRequest(
            key=key, nonce=self._next_nonce(), reply_to=self.node_id
        ))
