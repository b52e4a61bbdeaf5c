"""Sharded multi-coordinator repair surviving correlated failures.

The acceptance bar of DESIGN.md §11: a 2-coordinator run with a
rack-level fault that kills one coordinator and a whole rack of agents
mid-repair still completes with every chunk byte-identical to a
fault-free run, the takeover visible in both the metrics
(``coord_takeovers_total``) and the dead shard's journal
(:class:`~repro.runtime.journal.ShardTakeover`).
"""

import dataclasses
import threading
import time

import pytest

from repro.cluster import StorageCluster
from repro.cluster.topology import RackAwarePlacement, RackTopology
from repro.core.planner import FastPRPlanner
from repro.ec import make_codec
from repro.runtime import (
    COORDINATOR_ID,
    DomainCrashFault,
    FaultPlan,
    LeaseTable,
    LinkFault,
    MultiCoordinator,
    MultiRepairResult,
    RepairJournal,
    RuntimeConfig,
    ShardFailedError,
    ShardTakeover,
    shard_coordinator_id,
)
from repro.runtime.testbed import EmulatedTestbed

CHUNK = 16 * 1024

#: tight timings so takeovers happen in test time, not ops time
FAST = RuntimeConfig(
    ack_timeout=1.5,
    join_timeout=5.0,
    deadline_margin=4.0,
    min_deadline=0.8,
    max_retries=3,
    backoff_base=0.05,
    backoff_factor=2.0,
    backoff_cap=0.2,
    probe_timeout=0.4,
    heartbeat_interval=0.1,
    poll_interval=0.05,
    journal_fsync="never",
    inventory_timeout=2.0,
    lease_timeout=5.0,
)

NUM_RACKS = 5


def make_rack_cluster(num_stripes=30, seed=11):
    """15 storage + 3 standby nodes over 5 racks, rack-safe placement.

    RS(5,3) with one chunk per rack per stripe: a whole-rack kill costs
    each stripe at most one chunk — plus the STF chunk that is exactly
    the ``n - k = 2`` the code tolerates.
    """
    cluster = StorageCluster(
        num_nodes=15,
        num_hot_standby=3,
        disk_bandwidth=1e9,
        network_bandwidth=1e9,
        chunk_size=CHUNK,
    )
    topology = RackTopology.uniform(sorted(cluster.nodes), NUM_RACKS)
    placer = RackAwarePlacement(topology, max_per_rack=1, seed=seed)
    for _ in range(num_stripes):
        cluster.add_stripe(5, 3, placer.choose(cluster, 5))
    cluster.node(0).mark_soon_to_fail()
    return cluster, topology


def make_sharded_testbed(tmp_path, faults=None, topology=None, **kw):
    cluster, topo = make_rack_cluster(**kw)
    testbed = EmulatedTestbed(
        cluster,
        make_codec("rs(5,3)"),
        packet_size=CHUNK // 4,
        workdir=tmp_path / "bed",
        config=FAST,
        faults=faults,
        topology=topology if topology is not None else topo,
    )
    testbed.start()
    testbed.load_random_data(seed=1)
    return cluster, testbed


def assert_no_double_execution(testbed):
    for node_id, store in testbed.stores.items():
        for stripe_id, count in store.promotions.items():
            assert count <= 1, (
                f"node {node_id} promoted stripe {stripe_id} {count} times"
            )


# ----------------------------------------------------------------------
# lease unit tests
# ----------------------------------------------------------------------


class TestLeaseTable:
    def test_never_renewed_is_not_expired(self):
        lease = LeaseTable(timeout=0.01)
        assert not lease.expired(0)

    def test_renewal_then_expiry(self):
        lease = LeaseTable(timeout=0.05)
        lease.renew(1)
        assert not lease.expired(1)
        time.sleep(0.1)
        assert lease.expired(1)

    def test_revoke_restores_grace(self):
        lease = LeaseTable(timeout=0.01)
        lease.renew(2)
        time.sleep(0.05)
        assert lease.expired(2)
        lease.revoke(2)
        assert not lease.expired(2)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            LeaseTable(timeout=0.0)


# ----------------------------------------------------------------------
# sharded repair, fault-free
# ----------------------------------------------------------------------


class TestShardedRepair:
    def test_two_shards_fault_free(self, tmp_path):
        cluster, testbed = make_sharded_testbed(tmp_path)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.shard(2)
            result = testbed.execute(plan)
            assert isinstance(result, MultiRepairResult)
            assert result.takeovers == []
            assert not result.degraded
            assert set(result.per_shard) == {0, 1}
            assert result.chunks_repaired == plan.total_chunks
            testbed.verify_plan(plan, result)
            assert_no_double_execution(testbed)
            # One journal per shard, each a valid log.
            for shard in (0, 1):
                path = testbed.multi.journal_path(shard)
                assert path.exists()
                assert RepairJournal.replay(path, truncate=False)
        finally:
            testbed.shutdown(check_errors=False)

    def test_shards_partition_the_stripes(self, tmp_path):
        cluster, testbed = make_sharded_testbed(tmp_path)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.shard(3)
            result = testbed.execute(plan)
            keys = [
                (a.stripe_id, a.chunk_index) for a in result.executed_actions
            ]
            assert len(keys) == len(set(keys)), "an action ran on two shards"
            assert len(keys) == plan.total_chunks
        finally:
            testbed.shutdown(check_errors=False)

    def test_single_shard_run(self, tmp_path):
        cluster, testbed = make_sharded_testbed(tmp_path)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.shard(1)
            result = testbed.execute(plan)
            assert set(result.per_shard) == {0}
            testbed.verify_plan(plan, result)
        finally:
            testbed.shutdown(check_errors=False)

    def test_coordinator_count_is_sticky(self, tmp_path):
        cluster, testbed = make_sharded_testbed(tmp_path)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.shard(2)
            testbed.execute(plan)
            with pytest.raises(RuntimeError):
                testbed.shard(3)
        finally:
            testbed.shutdown(check_errors=False)


# ----------------------------------------------------------------------
# correlated failures: the acceptance scenario
# ----------------------------------------------------------------------


class TestCorrelatedFailures:
    def rack_fault(self, rack=1, at_time=0.0, coordinators=(1,)):
        return FaultPlan(
            domain_crashes=[
                DomainCrashFault(
                    kind="rack",
                    index=rack,
                    at_time=at_time,
                    coordinators=coordinators,
                )
            ]
        )

    def test_rack_kill_takes_out_coordinator_and_agents(self, tmp_path):
        """The §11 acceptance run, in-memory transport.

        Rack 1 dies at repair start: agents 1, 6, 11 (and standby 16)
        crash and shard 1's coordinator is killed through its journal.
        Shard 0 must adopt shard 1, replay its journal, and finish the
        whole plan byte-identical.
        """
        faults = self.rack_fault()
        cluster, testbed = make_sharded_testbed(tmp_path, faults=faults)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.shard(2)
            result = testbed.execute(plan)
            # The takeover happened and is visible everywhere it must be.
            assert len(result.takeovers) >= 1
            event = result.takeovers[0]
            assert event.shard == 1
            assert event.adopter == 0
            assert event.epoch >= 1
            assert result.degraded
            counter = testbed.metrics.counter(
                "coord_takeovers_total",
                "shard ownership handoffs after a coordinator death, "
                "by shard",
            )
            assert counter.value(shard=1) >= 1
            records = RepairJournal.replay(
                testbed.multi.journal_path(1), truncate=False
            )
            handoffs = [r for r in records if isinstance(r, ShardTakeover)]
            assert handoffs and handoffs[0].shard == 1
            assert handoffs[0].adopter == 0
            # The repair still completed, correct to the byte.
            testbed.verify_plan(plan, result)
            assert_no_double_execution(testbed)
            dead = set(result.dead_nodes)
            assert dead, "rack agents should have been declared dead"
            assert dead <= {1, 6, 11, 16}
        finally:
            testbed.shutdown(check_errors=False)

    def test_rack_kill_matches_fault_free_bytes(self, tmp_path):
        """Chunk contents after the faulted run == fault-free run."""
        plans = {}
        contents = {}
        for label, faults in (
            ("clean", None),
            ("faulted", self.rack_fault()),
        ):
            cluster, testbed = make_sharded_testbed(
                tmp_path / label, faults=faults
            )
            try:
                plan = FastPRPlanner(seed=3).plan(cluster, 0)
                testbed.shard(2)
                result = testbed.execute(plan)
                testbed.verify_plan(plan, result)
                plans[label] = {
                    (a.stripe_id, a.chunk_index)
                    for a in plan.actions()
                }
                snapshot = {}
                for action in result.executed_actions:
                    store = testbed.stores[action.destination]
                    snapshot[(action.stripe_id, action.chunk_index)] = (
                        store.read(action.stripe_id)
                    )
                contents[label] = snapshot
            finally:
                testbed.shutdown(check_errors=False)
        assert plans["clean"] == plans["faulted"]
        for key, blob in contents["clean"].items():
            assert contents["faulted"][key] == blob, (
                f"chunk {key} differs between clean and faulted runs"
            )

    def test_coordinator_killed_during_takeover(self, tmp_path, monkeypatch):
        """A second kill landing mid-takeover arms the successor too."""
        first = []
        original = MultiCoordinator._take_over

        def killing_take_over(self, shard, dead, outcome):
            original(self, shard, dead, outcome)
            if not first:
                first.append(shard)
                self.kill_shard(shard)  # the successor dies too

        monkeypatch.setattr(
            MultiCoordinator, "_take_over", killing_take_over
        )
        faults = self.rack_fault()
        cluster, testbed = make_sharded_testbed(tmp_path, faults=faults)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.shard(2)
            result = testbed.execute(plan)
            assert len(result.takeovers) >= 2
            assert [e.shard for e in result.takeovers[:2]] == [1, 1]
            epochs = [e.epoch for e in result.takeovers]
            assert epochs == sorted(epochs)
            testbed.verify_plan(plan, result)
            assert_no_double_execution(testbed)
        finally:
            testbed.shutdown(check_errors=False)

    def test_takeover_cap_fails_loudly(self, tmp_path):
        cluster, testbed = make_sharded_testbed(tmp_path)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.coordinator.close()
            try:
                testbed.network.detach(COORDINATOR_ID)
            except KeyError:
                pass
            multi = MultiCoordinator(
                testbed.network,
                cluster,
                testbed.codec,
                CHUNK // 4,
                journal_dir=tmp_path / "shards",
                num_shards=2,
                config=FAST,
                metrics=testbed.metrics,
                max_takeovers=0,
            )
            multi.kill_shard(1)
            with pytest.raises(ShardFailedError):
                multi.execute(plan)
            multi.close()
        finally:
            testbed.shutdown(check_errors=False)

    def test_pending_kill_arms_next_incarnation(self, tmp_path):
        """kill_shard with no live incarnation is remembered, not lost."""
        cluster, testbed = make_sharded_testbed(tmp_path)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.coordinator.close()
            try:
                testbed.network.detach(COORDINATOR_ID)
            except KeyError:
                pass
            multi = MultiCoordinator(
                testbed.network,
                cluster,
                testbed.codec,
                CHUNK // 4,
                journal_dir=tmp_path / "shards",
                num_shards=2,
                config=FAST,
                metrics=testbed.metrics,
            )
            multi.kill_shard(1)  # before any incarnation exists
            result = multi.execute(plan)
            assert [e.shard for e in result.takeovers] == [1]
            multi.close()
            testbed.multi = multi  # so verify has the stores intact
            testbed.verify_plan(plan, result)
        finally:
            testbed.shutdown(check_errors=False)


class TestLeaseRenewal:
    def test_backoff_longer_than_the_lease_is_not_a_takeover(self, tmp_path):
        """A shard waiting out a retry backoff longer than its lease is
        alive: it renews on every wake (at most ``poll_interval``
        apart), so the supervisor never fences it and hands it over."""
        config = dataclasses.replace(
            FAST,
            lease_timeout=0.3,
            backoff_base=0.6,
            backoff_cap=0.6,
            max_retries=6,
        )
        cluster, topology = make_rack_cluster()
        testbed = EmulatedTestbed(
            cluster,
            make_codec("rs(5,3)"),
            packet_size=CHUNK // 2,
            workdir=tmp_path / "bed",
            config=config,
            faults=FaultPlan(links=[LinkFault(drop=0.05)], seed=11),
            topology=topology,
        )
        testbed.start()
        testbed.load_random_data(seed=1)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.shard(2)
            result = testbed.execute(plan)
            assert result.takeovers == []
            assert testbed.faults.stats["dropped"] >= 1
            assert result.retries >= 1
            testbed.verify_plan(plan, result)
            assert_no_double_execution(testbed)
        finally:
            testbed.shutdown(check_errors=False)


# ----------------------------------------------------------------------
# shard identity plumbing
# ----------------------------------------------------------------------


def test_shard_zero_keeps_the_conventional_endpoint():
    assert shard_coordinator_id(0) == COORDINATOR_ID
    assert shard_coordinator_id(1) == -2
    assert shard_coordinator_id(4) == -5
