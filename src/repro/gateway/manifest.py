"""Object manifests: the gateway's durable key → stripes mapping.

A manifest records everything needed to read an object back without
the cluster snapshot that produced it: the erasure scheme, the chunk
geometry, and each stripe's id, placement (chunk index → node id) and
one sha256 per chunk, parities included.  The object's ``sha256`` is
the root over those chunk digests, so a GET verifies every chunk it
returns — fetched, parity or decoded — and never hashes the object a
second time.  Manifests ride the shared
:class:`~repro.core.serde.Schema` protocol, so versioning and
unknown-key rejection behave exactly like fault plans and cluster
snapshots (DESIGN.md §15).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.chunk import NodeId, StripeId
from ..core.serde import Schema


class ManifestError(ValueError):
    """Raised for malformed or missing manifests."""


#: on-disk/wire schema for one object manifest
MANIFEST_SCHEMA = Schema(
    "gateway-manifest",
    version=2,
    fields=(
        "key", "size", "chunk_size", "n", "k", "sha256", "stripes",
    ),
    required=(
        "key", "size", "chunk_size", "n", "k", "sha256", "stripes",
    ),
    error=ManifestError,
)


@dataclass(frozen=True)
class StripeRef:
    """One stripe of an object: id, chunk placement and chunk digests."""

    stripe_id: StripeId
    #: node id holding each chunk, indexed by chunk index (len == n)
    placement: Tuple[NodeId, ...]
    #: hex sha256 of each chunk as PUT wrote it, indexed by chunk index
    #: (len == n; empty only for a ref built by hand, which GET refuses)
    digests: Tuple[str, ...] = ()

    def to_dict(self) -> Dict:
        return {
            "stripe_id": self.stripe_id,
            "placement": list(self.placement),
            "digests": list(self.digests),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "StripeRef":
        return cls(
            stripe_id=int(data["stripe_id"]),
            placement=tuple(int(n) for n in data["placement"]),
            digests=tuple(str(d) for d in data.get("digests", ())),
        )


@dataclass(frozen=True)
class ObjectManifest:
    """Durable description of one stored object."""

    key: str
    #: original object size in bytes (the tail stripe is zero-padded)
    size: int
    chunk_size: int
    n: int
    k: int
    #: hex sha256 over every stripe's chunk digests, in order
    #: (:func:`root_digest`); a loaded manifest must agree with them
    sha256: str
    stripes: Tuple[StripeRef, ...] = field(default_factory=tuple)

    @property
    def scheme(self) -> str:
        return f"rs({self.n},{self.k})"

    @property
    def stripe_ids(self) -> Tuple[StripeId, ...]:
        return tuple(ref.stripe_id for ref in self.stripes)

    def to_dict(self) -> Dict:
        return MANIFEST_SCHEMA.dump({
            "key": self.key,
            "size": self.size,
            "chunk_size": self.chunk_size,
            "n": self.n,
            "k": self.k,
            "sha256": self.sha256,
            "stripes": [ref.to_dict() for ref in self.stripes],
        })

    @classmethod
    def from_dict(cls, document: Dict) -> "ObjectManifest":
        """Load a document, refusing digests that cannot be trusted.

        Digests are checked here and at GET, not on construction: a
        manifest built in memory may carry digest-less stripes.
        """
        body = MANIFEST_SCHEMA.load(document)
        manifest = cls(
            key=body["key"],
            size=int(body["size"]),
            chunk_size=int(body["chunk_size"]),
            n=int(body["n"]),
            k=int(body["k"]),
            sha256=body["sha256"],
            stripes=tuple(
                StripeRef.from_dict(ref) for ref in body["stripes"]
            ),
        )
        for ref in manifest.stripes:
            if len(ref.digests) != manifest.n:
                raise ManifestError(
                    f"{manifest.key!r} stripe {ref.stripe_id}: "
                    f"{len(ref.digests)} chunk digests, expected {manifest.n}"
                )
        if root_digest(manifest.stripes) != manifest.sha256:
            raise ManifestError(
                f"{manifest.key!r}: sha256 disagrees with its chunk digests"
            )
        return manifest


def digest(data: bytes) -> str:
    """The hash a manifest records per chunk (hex sha256).

    A GET accepts a chunk only if its bytes hash to this digest: the
    one end-to-end check between the PUT's encoder and the GET's
    caller, whatever agents and transports did in between.
    """
    return hashlib.sha256(data).hexdigest()


def _digest_pool() -> ThreadPoolExecutor:
    # Threads start on first use, so importing this module starts none.
    return ThreadPoolExecutor(
        max_workers=len(os.sched_getaffinity(0)), thread_name_prefix="digest"
    )


_pool = _digest_pool()


def _new_pool_after_fork() -> None:
    """A forked child inherits the pool but none of its threads."""
    global _pool
    _pool = _digest_pool()


os.register_at_fork(after_in_child=_new_pool_after_fork)


def digest_all(chunks: Sequence[bytes]) -> List[str]:
    """``[digest(c) for c in chunks]``, hashed on every usable core.

    sha256 releases the GIL on large buffers, so a stripe's chunks hash
    in parallel on one process-wide pool sized to the CPUs this process
    may run on.  A single chunk is hashed inline: there is nothing to
    overlap.
    """
    if len(chunks) < 2:
        return [digest(chunk) for chunk in chunks]
    return list(_pool.map(digest, chunks))


def root_digest(stripes: Sequence[StripeRef]) -> str:
    """An object's ``sha256``: the hash of its chunk digests, in order."""
    root = hashlib.sha256()
    for ref in stripes:
        for chunk_digest in ref.digests:
            root.update(chunk_digest.encode())
    return root.hexdigest()


class ManifestStore:
    """Thread-safe manifest catalog, optionally persisted to a directory.

    Keys may contain ``/``; on disk each manifest lives in a file named
    by the key's sha256, with the key itself inside the document (the
    same trick object stores use for flat namespaces).
    """

    def __init__(self, directory: Optional[Path] = None):
        self._lock = threading.Lock()
        self._manifests: Dict[str, ObjectManifest] = {}
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            for path in sorted(self.directory.glob("*.json")):
                manifest = ObjectManifest.from_dict(
                    json.loads(path.read_text())
                )
                self._manifests[manifest.key] = manifest

    def _path(self, key: str) -> Path:
        name = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.directory / f"{name}.json"

    def save(self, manifest: ObjectManifest) -> None:
        with self._lock:
            self._manifests[manifest.key] = manifest
            if self.directory is not None:
                self._path(manifest.key).write_text(
                    json.dumps(manifest.to_dict(), indent=2, sort_keys=True)
                )

    def load(self, key: str) -> ObjectManifest:
        with self._lock:
            try:
                return self._manifests[key]
            except KeyError:
                raise ManifestError(f"no such object: {key!r}") from None

    def delete(self, key: str) -> None:
        with self._lock:
            self._manifests.pop(key, None)
            if self.directory is not None:
                path = self._path(key)
                if path.exists():
                    path.unlink()

    def has(self, key: str) -> bool:
        with self._lock:
            return key in self._manifests

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._manifests)
