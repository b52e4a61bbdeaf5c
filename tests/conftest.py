"""Shared fixtures for the FastPR reproduction test suite."""

from __future__ import annotations

import threading

import pytest

from repro.cluster import StorageCluster


@pytest.fixture
def tcp_threads_joined():
    """After a test and its teardown no ``TcpNetwork`` thread is alive:
    ``close`` joined every acceptor, reader and writer it started.
    (``tests/net`` and the transport conformance suite make it autouse.)"""
    yield
    leaked = sorted(
        t.name for t in threading.enumerate() if t.name.startswith("tcp-")
    )
    assert not leaked, f"TcpNetwork threads left alive: {leaked}"


@pytest.fixture
def small_cluster() -> StorageCluster:
    """12 storage nodes + 3 standbys, 40 RS(5,3) stripes, seeded."""
    cluster = StorageCluster.random(
        num_nodes=12,
        num_stripes=40,
        n=5,
        k=3,
        num_hot_standby=3,
        seed=7,
        chunk_size=1 << 16,
    )
    return cluster


@pytest.fixture
def stf_cluster(small_cluster):
    """The small cluster with node 0 flagged soon-to-fail."""
    small_cluster.node(0).mark_soon_to_fail()
    return small_cluster, 0


@pytest.fixture
def medium_cluster() -> StorageCluster:
    """30 storage nodes, 120 RS(9,6) stripes — enough for parallelism."""
    return StorageCluster.random(
        num_nodes=30,
        num_stripes=120,
        n=9,
        k=6,
        num_hot_standby=3,
        seed=11,
        chunk_size=1 << 16,
    )
