"""Tests for the on-disk chunk store."""

import pytest

from repro.runtime.datanode import ChunkStore
from repro.runtime.throttle import RateLimiter


@pytest.fixture
def store(tmp_path):
    return ChunkStore(tmp_path / "node_0", 0, RateLimiter(None))


class TestChunkStore:
    def test_put_and_read(self, store):
        store.put(3, b"hello world")
        assert store.read(3) == b"hello world"
        assert store.size(3) == 11
        assert store.has(3)

    def test_missing_chunk(self, store):
        assert not store.has(9)
        with pytest.raises(KeyError):
            store.size(9)

    def test_read_packet(self, store):
        store.put(1, bytes(range(100)))
        assert store.read_packet(1, 10, 5) == bytes(range(10, 15))

    def test_short_read_raises(self, store):
        store.put(1, b"abc")
        with pytest.raises(IOError):
            store.read_packet(1, 0, 10)

    def test_write_packet_assembles_out_of_order(self, store):
        store.write_packet(7, 4, b"WORL", 8)
        store.write_packet(7, 0, b"HELO", 8)
        assert store.read(7) == b"HELOWORL"
        assert store.size(7) == 8

    def test_delete(self, store):
        store.put(2, b"x")
        store.delete(2)
        assert not store.has(2)
        store.delete(2)  # idempotent

    def test_stripes_listing(self, store):
        store.put(5, b"a")
        store.write_packet(9, 0, b"b", 1)
        assert store.stripes() == [5, 9]

    def test_throttled_io_charges_disk(self, tmp_path):
        disk = RateLimiter(1e9)
        store = ChunkStore(tmp_path / "n", 0, disk)
        store.put(0, b"x" * 100, throttled=True)
        store.read_packet(0, 0, 50)
        assert disk.bytes_total == 150


class TestChunkReader:
    def test_reads_at_offsets_through_one_handle(self, store):
        store.put(1, bytes(range(100)))
        with store.open_read(1) as chunk:
            assert chunk.read(90, 10) == bytes(range(90, 100))
            assert chunk.read(0, 4) == bytes(range(4))
            buffer = bytearray(5)
            assert chunk.read_into(10, buffer) == 5
            assert bytes(buffer) == bytes(range(10, 15))

    def test_short_read_raises(self, store):
        store.put(1, b"abc")
        with store.open_read(1) as chunk:
            with pytest.raises(IOError):
                chunk.read(1, 10)
            with pytest.raises(IOError):
                chunk.read_into(0, bytearray(10))

    def test_missing_chunk(self, store):
        with pytest.raises(FileNotFoundError):
            store.open_read(9)

    def test_reads_charge_the_disk(self, tmp_path):
        disk = RateLimiter(1e9)
        store = ChunkStore(tmp_path / "n", 0, disk)
        store.put(0, b"x" * 100)
        with store.open_read(0) as chunk:
            chunk.read(0, 30)
            chunk.read_into(30, bytearray(20))
        assert disk.bytes_total == 50


class TestChunkWriter:
    def test_out_of_order_writes_land(self, store):
        staged = store.open_staged(7, 8, tag="e0a0")
        staged.write(4, b"WORL")
        staged.write(0, memoryview(b"HELO"))
        assert not store.has(7)
        staged.promote()
        assert store.read(7) == b"HELOWORL"
        assert store.size(7) == 8
        assert store.promotions == {7: 1}

    def test_promote_is_atomic(self, store):
        """Until promote() a reader sees the old chunk, whole; after
        it the new one, whole; the staging file is gone."""
        store.put(7, b"old chunk")
        staged = store.open_staged(7, 9, tag="e1a0")
        staged.write(0, b"new ")
        assert store.read(7) == b"old chunk"
        staged.write(4, b"chunk")
        staged.promote()
        assert store.read(7) == b"new chunk"
        assert list(store.root.glob("*.part*")) == []

    def test_discard_removes_only_its_own_file(self, store):
        first = store.open_staged(7, 4, tag="e0a0")
        retry = store.open_staged(7, 4, tag="e0a1")
        store.write_packet(7, 0, b"wrap", 4, staged=True)
        retry.write(0, b"good")
        first.discard()
        first.discard()  # idempotent
        assert sorted(p.name for p in store.root.glob("*.part*")) == [
            "stripe_7.chunk.part",
            "stripe_7.chunk.part.e0a1",
        ]
        retry.promote()
        assert store.read(7) == b"good"
        store.discard_staged(7)

    def test_promote_without_a_file_raises(self, store):
        staged = store.open_staged(7, 4, tag="e0a0")
        staged.discard()
        with pytest.raises(FileNotFoundError):
            staged.promote()
        with pytest.raises(FileNotFoundError):
            store.promote(7)

    def test_writes_charge_the_disk(self, tmp_path):
        disk = RateLimiter(1e9)
        store = ChunkStore(tmp_path / "n", 0, disk)
        with store.open_staged(0, 64) as staged:
            staged.write(0, b"x" * 40)
            staged.discard()
        assert disk.bytes_total == 40

    def test_staged_wrappers_behave_as_before(self, store):
        store.write_packet(7, 4, b"WORL", 8, staged=True)
        store.write_packet(7, 0, b"HELO", 8, staged=True)
        assert not store.has(7) and store.stripes() == []
        store.promote(7)
        assert store.read(7) == b"HELOWORL"
        assert store.promotions == {7: 1}
        buffer = bytearray(4)
        assert store.read_packet_into(7, 4, buffer) == 4
        assert bytes(buffer) == b"WORL"
        store.write_packet(7, 0, b"torn", 8, staged=True)
        store.discard_staged(7)
        store.discard_staged(7)  # idempotent
        assert store.read(7) == b"HELOWORL"
        assert list(store.root.glob("*.part*")) == []

    def test_sweep_removes_every_staging_file(self, store):
        store.put(3, b"kept")
        store.write_packet(4, 0, b"dead", 4, staged=True)
        store.open_staged(4, 4, tag="e0a7").close()
        store.sweep_staged()
        assert list(store.root.glob("*.part*")) == []
        assert store.stripes() == [3]
