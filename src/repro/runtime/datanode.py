"""On-disk chunk storage for one emulated DataNode.

Each node's agent owns a :class:`ChunkStore` — a directory of chunk
files (one per stripe the node participates in), with reads and writes
throttled by the node's emulated disk bandwidth.  This is the stand-in
for the HDFS DataNode block storage of the paper's testbed.

A chunk moves as a stream of packets, so the per-packet work is one
``pread``/``pwrite`` (plus the disk limiter) on a handle opened once
per stream: :class:`ChunkReader` at the source, :class:`ChunkWriter`
at the destination.  The store's packet methods are one-shot wrappers
over the same handles.

A published chunk file is never rewritten or truncated in place: every
write lands in a staging or temporary file that ``os.replace`` then
publishes.  That is what makes :meth:`ChunkStore.read_mapped` safe — a
mapping keeps the inode it was made from, which no later write, promote
or delete touches — and it also means a crash never leaves a torn
chunk, only an orphan temp file that the owner's start-up sweeps.
"""

from __future__ import annotations

import itertools
import mmap
import os
import shutil
from pathlib import Path
from typing import Callable, Dict, List

from ..cluster.chunk import NodeId, StripeId
from .throttle import RateLimiter


class _ChunkFile:
    """An open chunk file; closing is idempotent, ``with`` closes."""

    _fd = -1

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ChunkReader(_ChunkFile):
    """One stored chunk opened for packet reads (one fd per stream)."""

    def __init__(self, store: "ChunkStore", stripe_id: StripeId):
        self._disk = store.disk
        self._stripe_id = stripe_id
        self._fd = os.open(store._path(stripe_id), os.O_RDONLY)

    def _short(self, offset: int, got: int, length: int) -> IOError:
        return IOError(
            f"short read on stripe {self._stripe_id} at {offset}: "
            f"{got} < {length}"
        )

    def read(self, offset: int, length: int) -> bytes:
        """Read one packet, charged against the disk limiter."""
        self._disk.throttle(length)
        data = os.pread(self._fd, length, offset)
        if len(data) != length:
            raise self._short(offset, len(data), length)
        return data

    def read_into(self, offset: int, out) -> int:
        """Fill a caller-owned writable buffer from ``offset`` (throttled)."""
        length = len(out)
        self._disk.throttle(length)
        read = os.preadv(self._fd, [out], offset)
        if read != length:
            raise self._short(offset, read, length)
        return read


class ChunkWriter(_ChunkFile):
    """One chunk file being assembled: pre-sized, written at offsets.

    Opened on a staging path it is the whole life of a repaired chunk:
    packets land in any order, then :meth:`promote` publishes the file
    atomically or :meth:`discard` removes it — only ever *this* file,
    so a superseded assembly standing down late cannot touch the file
    its retry is writing.
    """

    def __init__(
        self,
        store: "ChunkStore",
        stripe_id: StripeId,
        path: Path,
        total_size: int,
    ):
        self._store = store
        self._stripe_id = stripe_id
        self.path = path
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        # Pre-size the file so packets may land in any order.
        if os.fstat(self._fd).st_size != total_size:
            os.ftruncate(self._fd, total_size)

    def write(self, offset: int, data) -> None:
        """Write one packet at ``offset`` (throttled)."""
        view = memoryview(data)
        self._store.disk.throttle(view.nbytes)
        while view.nbytes:
            written = os.pwrite(self._fd, view, offset)
            offset += written
            view = view[written:]

    def promote(self) -> None:
        """Atomically publish the assembled file as the stripe's chunk."""
        self.close()
        self._store._publish(self.path, self._stripe_id)

    def discard(self) -> None:
        """Drop this partial assembly (aborted, superseded or fenced)."""
        self.close()
        _remove(self.path)


def _remove(path: Path) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


#: per-process sequence numbers for temp-file names, so concurrent
#: writers of one stripe never share a file
_TEMP_IDS = itertools.count()


class ChunkStore:
    """Packet-granular chunk storage with disk-bandwidth emulation.

    Chunks are published whole: :meth:`put` and unstaged
    :meth:`write_packet` write a temp file and ``os.replace`` it, and
    :meth:`promote` replaces from a staging file, so no chunk inode
    changes once it is visible and :meth:`read_mapped` views stay valid.

    Args:
        root: directory for this node's chunk files.
        node_id: owner node (used in file naming and errors).
        disk: rate limiter emulating the node's disk; reads and writes
            share it, like a single spindle.
    """

    def __init__(self, root: Path, node_id: NodeId, disk: RateLimiter):
        self.root = Path(root)
        self.node_id = node_id
        self.disk = disk
        self.root.mkdir(parents=True, exist_ok=True)
        self._sizes: Dict[StripeId, int] = {}
        #: stripe -> times a staged chunk was promoted here; the crash
        #: recovery tests assert this never exceeds 1 per repair
        self.promotions: Dict[StripeId, int] = {}

    def _path(self, stripe_id: StripeId) -> Path:
        return self.root / f"stripe_{stripe_id}.chunk"

    def _staging_path(self, stripe_id: StripeId, tag: str = "") -> Path:
        suffix = f".{tag}" if tag else ""
        return self.root / f"stripe_{stripe_id}.chunk.part{suffix}"

    def _temp_path(self, stripe_id: StripeId) -> Path:
        return self.root / (
            f"stripe_{stripe_id}.chunk.tmp.{os.getpid()}.{next(_TEMP_IDS)}"
        )

    def sweep_staged(self) -> None:
        """Remove every staging and temp file.

        For the store's *owner* (its agent) at start-up: whatever is
        staged or half-written then belongs to a process that died
        mid-assembly or mid-write.  A second ``ChunkStore`` on the same
        directory — the repair driver's verification view — must not
        call this.
        """
        for pattern in ("stripe_*.chunk.part*", "stripe_*.chunk.tmp.*"):
            for path in list(self.root.glob(pattern)):
                _remove(path)

    def _write_whole(
        self, stripe_id: StripeId, size: int, fill: Callable[[Path], None]
    ) -> None:
        """Publish the ``size``-byte chunk ``fill`` writes to a fresh
        temp file; the temp file goes if anything fails."""
        temp = self._temp_path(stripe_id)
        try:
            fill(temp)
            os.replace(temp, self._path(stripe_id))
        except BaseException:
            _remove(temp)
            raise
        self._sizes[stripe_id] = size

    # ------------------------------------------------------------------

    def put(self, stripe_id: StripeId, data, throttled: bool = False) -> None:
        """Store a whole chunk (fixture loading; unthrottled by default).

        ``data`` is any bytes-like buffer, written as given.  It goes to
        a temp file that then replaces the stripe's chunk, so a reader
        (or a mapping) of the old chunk never sees it change.
        """
        view = memoryview(data)
        if throttled:
            self.disk.throttle(view.nbytes)
        self._write_whole(stripe_id, view.nbytes, lambda t: t.write_bytes(view))

    def has(self, stripe_id: StripeId) -> bool:
        return stripe_id in self._sizes or self._path(stripe_id).exists()

    def size(self, stripe_id: StripeId) -> int:
        size = self._sizes.get(stripe_id)
        if size is None:
            try:
                size = self._path(stripe_id).stat().st_size
            except FileNotFoundError:
                raise KeyError(
                    f"node {self.node_id} stores no chunk of stripe {stripe_id}"
                ) from None
            self._sizes[stripe_id] = size
        return size

    def open_read(self, stripe_id: StripeId) -> ChunkReader:
        """Open a stored chunk for a stream of packet reads."""
        return ChunkReader(self, stripe_id)

    def open_staged(
        self, stripe_id: StripeId, total_size: int, tag: str = ""
    ) -> ChunkWriter:
        """Open a staging file for a chunk about to be assembled.

        ``tag`` names the assembly (the agent passes epoch + attempt):
        concurrent assemblies of one stripe each stage into their own
        file.  The untagged file is the one :meth:`write_packet`,
        :meth:`promote` and :meth:`discard_staged` address.
        """
        return ChunkWriter(
            self, stripe_id, self._staging_path(stripe_id, tag), total_size
        )

    def read_packet(self, stripe_id: StripeId, offset: int, length: int) -> bytes:
        """Read one packet, charged against the disk limiter."""
        with self.open_read(stripe_id) as chunk:
            return chunk.read(offset, length)

    def read_packet_into(self, stripe_id: StripeId, offset: int, out) -> int:
        """Read one packet into a caller-owned buffer (throttled).

        ``out`` is any writable buffer (memoryview, numpy array); the
        read fills it completely.
        """
        with self.open_read(stripe_id) as chunk:
            return chunk.read_into(offset, out)

    def write_packet(
        self,
        stripe_id: StripeId,
        offset: int,
        data: bytes,
        total_size: int,
        staged: bool = False,
    ) -> None:
        """Write one packet of a chunk being assembled.

        With ``staged=True`` the packet lands in the untagged ``.part``
        staging file that only becomes the chunk on :meth:`promote` —
        so a crashed or retried assembly never leaves a torn chunk
        behind.  Unstaged, the packet is written into a copy of the
        current chunk (if any) that then replaces it: the published
        file is never written in place.
        """
        if staged:
            path = self._staging_path(stripe_id)
            with ChunkWriter(self, stripe_id, path, total_size) as chunk:
                chunk.write(offset, data)
            return

        def patch(temp: Path) -> None:
            try:
                shutil.copyfile(self._path(stripe_id), temp)
            except FileNotFoundError:
                pass
            with ChunkWriter(self, stripe_id, temp, total_size) as chunk:
                chunk.write(offset, data)

        self._write_whole(stripe_id, total_size, patch)

    def _publish(self, staging: Path, stripe_id: StripeId) -> None:
        """``os.replace`` a staging file over the stripe's chunk.

        Atomic on POSIX, so readers see either the old chunk (if any)
        or the complete new one — never a torn mix.
        """
        try:
            size = staging.stat().st_size
        except FileNotFoundError:
            raise FileNotFoundError(
                f"node {self.node_id}: no staged chunk for stripe {stripe_id}"
            ) from None
        os.replace(staging, self._path(stripe_id))
        self._sizes[stripe_id] = size
        self.promotions[stripe_id] = self.promotions.get(stripe_id, 0) + 1

    def promote(self, stripe_id: StripeId) -> None:
        """Atomically publish the untagged staged chunk."""
        self._publish(self._staging_path(stripe_id), stripe_id)

    def discard_staged(self, stripe_id: StripeId) -> None:
        """Drop the untagged staged chunk, if any."""
        _remove(self._staging_path(stripe_id))

    def read(self, stripe_id: StripeId, throttled: bool = False) -> bytes:
        """Read a whole chunk (verification; unthrottled by default)."""
        if throttled:
            self.disk.throttle(self.size(stripe_id))
        return self._path(stripe_id).read_bytes()

    def read_mapped(
        self, stripe_id: StripeId, throttled: bool = False
    ) -> memoryview:
        """A whole chunk as a read-only view of a mapping of its file.

        Charged against the disk like :meth:`read` but copies nothing:
        the pages come from the page cache as the view is read, and the
        mapping goes when the last reference to the view does.  The
        view keeps the bytes it was mapped with even after the chunk is
        overwritten, promoted over or deleted, since none of those
        touches a published inode.

        Each live view also costs one file descriptor: ``mmap.mmap``
        keeps a ``dup`` of the descriptor it maps, and closes it with
        the mapping.  A reader that holds many replies at once runs out
        of descriptors (``ulimit -n``) long before it runs out of
        memory; drop each view once its bytes are used.
        """
        fd = os.open(self._path(stripe_id), os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if throttled:
                self.disk.throttle(size)
            if not size:
                return memoryview(b"")  # mmap refuses an empty file
            return memoryview(mmap.mmap(fd, size, access=mmap.ACCESS_READ))
        finally:
            os.close(fd)

    def delete(self, stripe_id: StripeId) -> None:
        _remove(self._path(stripe_id))
        self._sizes.pop(stripe_id, None)

    def stripes(self) -> List[StripeId]:
        """Stripe ids with a chunk stored here."""
        found = set(self._sizes)
        for path in self.root.glob("stripe_*.chunk"):
            found.add(int(path.stem.split("_", 1)[1]))
        return sorted(found)
