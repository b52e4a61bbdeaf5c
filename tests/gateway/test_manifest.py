"""Object manifests: schema round-trip and the durable catalog."""

import json
import os
import threading
from dataclasses import replace

import pytest

from repro.gateway import (
    MANIFEST_SCHEMA,
    GatewayError,
    ManifestError,
    ManifestStore,
    ObjectManifest,
    ObjectStore,
    StripeRef,
    digest,
)
from repro.gateway.manifest import digest_all, root_digest
from tests.gateway.test_objectstore import CHUNK, build_rig


def sample_stripes(key):
    return tuple(
        StripeRef(
            stripe_id=stripe_id,
            placement=placement,
            digests=tuple(
                digest(f"{key}/{stripe_id}/{index}".encode())
                for index in range(9)
            ),
        )
        for stripe_id, placement in (
            (12, (0, 1, 2, 3, 4, 5, 6, 7, 8)),
            (13, (3, 4, 5, 6, 7, 8, 9, 10, 11)),
        )
    )


def sample(key="videos/cat.mp4"):
    stripes = sample_stripes(key)
    return ObjectManifest(
        key=key,
        size=1_000_000,
        chunk_size=65536,
        n=9,
        k=6,
        sha256=root_digest(stripes),
        stripes=stripes,
    )


class TestManifestSchema:
    def test_round_trip_preserves_everything(self):
        manifest = sample()
        clone = ObjectManifest.from_dict(manifest.to_dict())
        assert clone == manifest
        assert clone.scheme == "rs(9,6)"
        assert clone.stripe_ids == (12, 13)

    def test_round_trips_through_json(self):
        manifest = sample()
        wire = json.dumps(manifest.to_dict(), sort_keys=True)
        assert ObjectManifest.from_dict(json.loads(wire)) == manifest

    def test_round_trip_carries_every_chunk_digest(self):
        manifest = sample()
        document = manifest.to_dict()
        assert document["version"] == 2
        for ref, stripe in zip(manifest.stripes, document["stripes"]):
            assert stripe["digests"] == list(ref.digests)
            assert len(stripe["digests"]) == manifest.n  # parities too
        clone = ObjectManifest.from_dict(json.loads(json.dumps(document)))
        assert [ref.digests for ref in clone.stripes] == [
            ref.digests for ref in manifest.stripes
        ]
        assert clone.sha256 == root_digest(clone.stripes)

    def test_unknown_keys_rejected(self):
        document = sample().to_dict()
        document["compression"] = "zstd"
        with pytest.raises(ManifestError):
            ObjectManifest.from_dict(document)

    def test_missing_required_field_rejected(self):
        document = sample().to_dict()
        del document["sha256"]
        with pytest.raises(ManifestError):
            ObjectManifest.from_dict(document)

    def test_wrong_schema_version_rejected(self):
        document = sample().to_dict()
        document["version"] = MANIFEST_SCHEMA.version + 1
        with pytest.raises(ManifestError):
            ObjectManifest.from_dict(document)

    def test_v1_document_refused_naming_its_version(self):
        # What a v1 gateway wrote: no per-chunk digests, sha256 over
        # the object's bytes.
        document = sample().to_dict()
        document["version"] = 1
        document["sha256"] = digest(b"the object's bytes")
        for stripe in document["stripes"]:
            del stripe["digests"]
        with pytest.raises(ManifestError, match="version 1"):
            ObjectManifest.from_dict(document)

    @pytest.mark.parametrize("count", [0, 8, 10])
    def test_digest_count_other_than_n_refused(self, count):
        document = sample().to_dict()
        digests = [digest(bytes([i])) for i in range(count)]
        document["stripes"][1]["digests"] = digests
        refs = [StripeRef.from_dict(s) for s in document["stripes"]]
        document["sha256"] = root_digest(refs)  # only the count is wrong
        with pytest.raises(ManifestError, match=f"{count} chunk digests"):
            ObjectManifest.from_dict(document)

    def test_root_disagreeing_with_digests_refused(self):
        document = sample().to_dict()
        document["stripes"][0]["digests"][7] = digest(b"another parity")
        with pytest.raises(ManifestError, match="disagrees"):
            ObjectManifest.from_dict(document)
        document = sample().to_dict()
        document["sha256"] = digest(b"the object's bytes")
        with pytest.raises(ManifestError, match="disagrees"):
            ObjectManifest.from_dict(document)

    def test_digest_less_manifest_still_constructs_in_memory(self):
        # Validation lives in from_dict and at GET, not in the
        # constructor: a hand-built manifest (as benchmark probes make)
        # must keep working.
        manifest = ObjectManifest(
            key="probe", size=10, chunk_size=4, n=9, k=6,
            sha256=digest(b"0123456789"),
            stripes=(StripeRef(0, tuple(range(9))),),
        )
        store = ManifestStore()
        store.save(manifest)
        assert store.load("probe").stripes[0].digests == ()


def test_get_on_a_digest_less_stripe_raises(tmp_path):
    cluster, codec, testbed, _ = build_rig(tmp_path)
    with testbed, ObjectStore(
        cluster, codec, testbed.network, chunk_size=CHUNK
    ) as store:
        manifest = store.put("bare", b"z" * (codec.k * CHUNK))
        store.manifests.save(replace(manifest, stripes=tuple(
            StripeRef(ref.stripe_id, ref.placement)
            for ref in manifest.stripes
        )))
        with pytest.raises(GatewayError, match="0 chunk digests"):
            store.get("bare")


class TestDigestAll:
    """The parallel hash is the serial one, chunk for chunk, in order."""

    @staticmethod
    def chunks(count, size=64 * 1024):
        # Above hashlib's GIL-release threshold, each chunk distinct.
        return [bytes([i]) * size for i in range(count)]

    @pytest.mark.parametrize("count", [0, 1, 2, 9])
    def test_equals_the_serial_digests(self, count):
        chunks = self.chunks(count)
        assert digest_all(chunks) == [digest(c) for c in chunks]

    def test_memoryview_payloads_hash_like_their_bytes(self):
        # As tcp delivers them: views into one received frame.
        chunks = self.chunks(6)
        frame = memoryview(b"".join(chunks))
        size = len(chunks[0])
        views = [frame[i * size:(i + 1) * size] for i in range(6)]
        assert digest_all(views) == [digest(c) for c in chunks]
        assert digest_all(views[:1]) == [digest(chunks[0])]

    def test_pool_is_bounded_by_the_cpu_count(self):
        digest_all(self.chunks(32))
        hashers = [
            t for t in threading.enumerate() if t.name.startswith("digest")
        ]
        assert 1 <= len(hashers) <= len(os.sched_getaffinity(0))


class TestManifestStore:
    def test_memory_store_crud(self):
        store = ManifestStore()
        manifest = sample()
        assert not store.has(manifest.key)
        store.save(manifest)
        assert store.has(manifest.key)
        assert store.load(manifest.key) == manifest
        assert store.keys() == [manifest.key]
        store.delete(manifest.key)
        assert not store.has(manifest.key)
        with pytest.raises(ManifestError):
            store.load(manifest.key)

    def test_delete_missing_key_is_silent(self):
        ManifestStore().delete("never/stored")

    def test_persists_and_reloads_from_directory(self, tmp_path):
        first = sample("a/first")
        second = sample("b/second")
        store = ManifestStore(tmp_path)
        store.save(first)
        store.save(second)
        # keys with '/' land in flat hash-named files, not subdirs
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 2

        reloaded = ManifestStore(tmp_path)
        assert reloaded.keys() == ["a/first", "b/second"]
        assert reloaded.load("a/first") == first

        reloaded.delete("a/first")
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert ManifestStore(tmp_path).keys() == ["b/second"]

    def test_save_overwrites_in_place(self, tmp_path):
        store = ManifestStore(tmp_path)
        store.save(sample())
        bigger = ObjectManifest(
            key=sample().key,
            size=2_000_000,
            chunk_size=65536,
            n=9,
            k=6,
            sha256=sample().sha256,
            stripes=sample().stripes,
        )
        store.save(bigger)
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert ManifestStore(tmp_path).load(sample().key).size == 2_000_000
