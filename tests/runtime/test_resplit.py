"""Algorithm 2 at run time: the coordinator re-splits unexecuted rounds.

The rule is tested on the pure :func:`repro.runtime.coordinator.step`
with synthetic ACK times: each reconstruction of a round ACKs ``t_r``
after the round is issued, and its migrations one every ``t_m`` (they
queue at the STF node's NIC).  Then, on the emulated testbed, a
re-split run must stay crash-consistent and hold its helper budget for
the actions it pulled into a round.
"""

import pytest

from repro.cluster import StorageCluster
from repro.core.plan import (
    ChunkRepairAction,
    RepairMethod,
    RepairPlan,
    RepairRound,
    RepairScenario,
)
from repro.core.planner import (
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
)
from repro.core.scheduling import HelperBudget
from repro.ec import make_codec
from repro.runtime import (
    ActionCompleted,
    CoordinatorCrash,
    CoordinatorCrashFault,
    RepairJournal,
    RoundCompleted,
    RoundStarted,
    RuntimeConfig,
    Scrubber,
)
from repro.runtime.coordinator import (
    CoordinatorState,
    NextRound,
    Start,
    step,
)
from repro.runtime.journal import encode_record
from repro.runtime.messages import RepairAck
from repro.runtime.testbed import EmulatedTestbed

RECON = RepairMethod.RECONSTRUCTION
MIGRATION = RepairMethod.MIGRATION
CODEC = make_codec("rs(5,3)")
CHUNK = 4096


def key(action):
    return (action.stripe_id, action.chunk_index)


def stf_cluster(num_stripes, num_nodes=14, seed=5):
    cluster = StorageCluster.random(
        num_nodes=num_nodes,
        num_stripes=num_stripes,
        n=5,
        k=3,
        num_hot_standby=2,
        seed=seed,
        disk_bandwidth=1e9,
        network_bandwidth=1e9,
        chunk_size=CHUNK,
    )
    stf = max(cluster.storage_node_ids(), key=cluster.load_of)
    cluster.node(stf).mark_soon_to_fail()
    return cluster, stf


def shaped_plan(shape):
    """A scattered plan of rounds ``shape = [(c_r, c_m), ...]`` over the
    most-loaded node's chunks: reconstructions read the first ``k``
    other holders, every chunk goes to the first node outside its
    stripe."""
    total = sum(cr + cm for cr, cm in shape)
    cluster, stf = stf_cluster(num_stripes=4 * total)
    chunks = iter(cluster.chunks_on_node(stf))
    storage = cluster.storage_node_ids()
    rounds = []
    for index, (cr, cm) in enumerate(shape):
        round_ = RepairRound(index)
        for method, count in ((RECON, cr), (MIGRATION, cm)):
            for _ in range(count):
                chunk = next(chunks)
                stripe = cluster.stripe(chunk.stripe_id)
                helpers = [n for n in stripe.placement if n != stf][: CODEC.k]
                destination = next(
                    n for n in storage if not stripe.stores_on(n)
                )
                action = ChunkRepairAction(
                    chunk.stripe_id,
                    chunk.chunk_index,
                    method,
                    tuple(helpers) if method is RECON else (stf,),
                    destination,
                )
                (
                    round_.reconstructions if method is RECON
                    else round_.migrations
                ).append(action)
        rounds.append(round_)
    return cluster, RepairPlan(stf, RepairScenario.SCATTERED, rounds)


def drive(state, t_r, t_m):
    """Run ``state`` to its end through :func:`step` alone.

    Returns the executed rounds, one ``{key: action}`` per planned
    round (empty when the re-split emptied it), and every journal
    record in order.
    """
    now = 0.0
    executed, records = [], []
    records += step(state, Start(), now)[1]
    while not state.finished:
        records += step(state, NextRound(), now)[1]
        actions = dict(state.actions)
        executed.append(actions)
        migrations = [k for k, a in actions.items() if a.method is MIGRATION]
        acks = [(now + t_r, k) for k, a in actions.items() if a.method is RECON]
        acks += [(now + (i + 1) * t_m, k) for i, k in enumerate(migrations)]
        for at, k in sorted(acks):
            ack = RepairAck(k[0], k[1], actions[k].destination, 0, state.epoch)
            records += step(state, ack, at)[1]
            now = at
    return executed, records


def new_state(cluster, plan, costs=None, **kw):
    state = CoordinatorState(plan, 1024, 0, cluster, CODEC, **kw)
    if costs is not None:
        state.costs = costs
    return state


def compositions(rounds):
    return [
        sorted((k, a.method.value) for k, a in actions.items())
        for actions in rounds
    ]


def planned(plan):
    return [
        sorted((key(a), a.method.value) for a in r.actions())
        for r in plan.rounds
    ]


class TestTheRule:
    def test_a_fitting_model_changes_nothing(self):
        """drain-nic10's costs: three 641 ms reconstructions beside five
        migrations 113 ms apart.  One more migration would take the STF
        node to 678 ms, so every run executes the plan as it is."""
        cluster, plan = shaped_plan([(3, 5), (3, 5)])
        costs = {}
        for _ in range(2):  # the second run starts with measured costs
            state = new_state(cluster, plan, costs)
            executed, _ = drive(state, 0.641, 0.113)
            assert compositions(executed) == planned(plan)
            assert state.result.resplit_chunks == 0
        assert costs[RECON] * CHUNK == pytest.approx(0.641)
        assert costs[MIGRATION] * CHUNK == pytest.approx(0.113)

    def test_slow_reconstructions_empty_trailing_rounds(self):
        """gateway-get-under-drain's costs: a 65 ms reconstruction and a
        migration every 10 ms leave the STF idle beside each round, so
        trailing reconstructions migrate instead, and fewer rounds run."""
        cluster, plan = shaped_plan([(1, 5)] * 7)
        recs = {key(a): a for r in plan.rounds for a in r.reconstructions}
        planned_round = {key(a): r.index for r in plan.rounds for a in r.actions()}
        costs = {}
        for run in range(2):
            state = new_state(cluster, plan, costs)
            executed, records = drive(state, 0.065, 0.010)
            # one RoundStarted/RoundCompleted (and round) per planned round
            assert len(executed) == plan.num_rounds
            for kind in (RoundStarted, RoundCompleted):
                marks = [r.round_index for r in records if isinstance(r, kind)]
                assert marks == list(range(plan.num_rounds))
            assert sum(1 for actions in executed if actions) < plan.num_rounds
            if run == 0:
                assert compositions(executed[:1]) == planned(plan)[:1]
            # every chunk runs exactly once, never later than planned
            done = [
                (r.action["stripe_id"], r.action["chunk_index"])
                for r in records if isinstance(r, ActionCompleted)
            ]
            assert sorted(done) == sorted(planned_round)
            for index, actions in enumerate(executed):
                assert all(planned_round[k] >= index for k in actions)
            # converted chunks migrate from the STF to their planned
            # destination, and the conversion is no fault
            converted = [
                a for actions in executed for k, a in actions.items()
                if k in recs and a.method is MIGRATION
            ]
            assert len(converted) == state.result.resplit_chunks > 0
            for action in converted:
                assert action.sources == (plan.stf_node,)
                assert action.destination == recs[key(action)].destination
            assert not state.result.degraded
            assert sorted(map(key, state.result.executed_actions)) == sorted(
                planned_round
            )
        # the original plan object is never rewritten
        assert [(r.cr, r.cm) for r in plan.rounds] == [(1, 5)] * 7

    def test_a_tie_keeps_the_plan(self):
        # Emptying the last round saves its 1 s reconstruction, and its
        # chunk's migration takes round 0's STF from 1 s to 2 s.
        cluster, plan = shaped_plan([(1, 1), (1, 0)])
        state = new_state(cluster, plan, {RECON: 1.0, MIGRATION: 1.0})
        step(state, Start(), 0.0)
        assert [
            sorted(map(key, r.actions())) for r in state.schedule
        ] == [sorted(map(key, r.actions())) for r in plan.rounds]
        # slightly cheaper migrations break the tie
        state = new_state(cluster, plan, {RECON: 1.0, MIGRATION: 0.9})
        step(state, Start(), 0.0)
        assert [r.cm for r in state.schedule] == [2, 0]
        assert state.result.resplit_chunks == 1

    @pytest.mark.parametrize(
        "planner",
        [
            ReconstructionOnlyPlanner(seed=3),
            MigrationOnlyPlanner(),
            FastPRPlanner(scenario=RepairScenario.HOT_STANDBY, seed=3),
        ],
        ids=["reconstruction-only", "migration-only", "hot-standby"],
    )
    def test_other_plans_run_as_planned(self, planner):
        cluster, stf = stf_cluster(num_stripes=24)
        plan = planner.plan(cluster, stf)
        # costs that would migrate everything from a hybrid plan
        state = new_state(cluster, plan, {RECON: 1.0, MIGRATION: 1e-9})
        executed, _ = drive(state, 1.0 * CHUNK, 1e-9 * CHUNK)
        assert compositions(executed) == planned(plan)
        assert state.result.resplit_chunks == 0

    @pytest.mark.parametrize("why", ["shard", "dead", "suspect"])
    def test_no_resplit_without_a_single_coordinator_and_a_sound_stf(self, why):
        cluster, plan = shaped_plan([(1, 5)] * 4)
        state = new_state(cluster, plan, {RECON: 1.0, MIGRATION: 1e-9})
        if why == "shard":
            state.resplit = False
        elif why == "suspect":
            state.observed_scales[plan.stf_node] = 0.5
        else:
            state.dead.add(plan.stf_node)
        commands, _ = step(state, Start(), 0.0)
        assert [
            sorted(map(key, r.actions())) for r in state.schedule
        ] == [sorted(map(key, r.actions())) for r in plan.rounds]
        assert state.result.resplit_chunks == 0


# ----------------------------------------------------------------------
# on the testbed
# ----------------------------------------------------------------------

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
)
BED_CHUNK = 16 * 1024
#: reconstructions four times a migration: on the plan's rounds
#: (3, 2), (3, 2), (2, 0) the last round's two chunks migrate in
#: rounds 0 and 1 instead
SKEWED = {RECON: 4.0, MIGRATION: 1.0}


def make_testbed(tmp_path):
    cluster = StorageCluster.random(
        num_nodes=10,
        num_stripes=24,
        n=5,
        k=3,
        num_hot_standby=2,
        seed=21,
        disk_bandwidth=1e9,
        network_bandwidth=1e9,
        chunk_size=BED_CHUNK,
    )
    cluster.node(0).mark_soon_to_fail()
    testbed = EmulatedTestbed(
        cluster,
        CODEC,
        packet_size=BED_CHUNK // 4,
        workdir=tmp_path / "bed",
        config=FAST,
        journal_path=tmp_path / "repair.journal",
    )
    testbed.start()
    testbed.load_random_data(seed=1)
    plan = FastPRPlanner(seed=3).plan(cluster, 0)
    assert [(r.cr, r.cm) for r in plan.rounds] == [(3, 2), (3, 2), (2, 0)]
    return testbed, plan


def measured(coordinator, costs=SKEWED):
    coordinator._costs.update(costs)
    return coordinator


def finish(testbed, plan, result):
    assert result.chunks_repaired + result.recovered_chunks == plan.total_chunks
    testbed.verify_plan(plan, result)
    for node_id, store in testbed.stores.items():
        for stripe_id, count in store.promotions.items():
            assert count <= 1, f"node {node_id} promoted stripe {stripe_id} twice"
    assert Scrubber(testbed).scan().clean


class CrashAfterConverted(RepairJournal):
    """Dies right after journaling the first converted chunk's completion."""

    def __init__(self, path, converted):
        super().__init__(path, fsync="never")
        self.converted = converted
        self.crashed_on = None

    def append(self, record):
        super().append(record)
        if (
            isinstance(record, ActionCompleted)
            and record.action["method"] == MIGRATION.value
            and (record.action["stripe_id"], record.action["chunk_index"])
            in self.converted
        ):
            self.crashed_on = record
            self.close()
            raise CoordinatorCrash(self.records_written)


class TestOnTheTestbed:
    def test_a_resplit_run_is_byte_identical_and_not_degraded(self, tmp_path):
        testbed, plan = make_testbed(tmp_path)
        try:
            measured(testbed.coordinator)
            result = testbed.execute(plan)
            finish(testbed, plan, result)
            assert result.resplit_chunks >= 2 and not result.degraded
            assert len(result.round_times) == plan.num_rounds
            recs = {key(a): a for a in plan.actions() if a.method is RECON}
            for action in result.executed_actions:
                assert action.destination == recs.get(key(action), action).destination
            counter = testbed.metrics.get("repair_resplit_chunks_total")
            assert counter.total() == result.resplit_chunks
        finally:
            testbed.shutdown()

    def test_the_budget_holds_every_pulled_action(self, tmp_path):
        testbed, plan = make_testbed(tmp_path)
        held = []

        class Recording(HelperBudget):
            def round(self, nodes, **kw):
                held.append(set(nodes))
                return super().round(nodes, **kw)

        try:
            measured(testbed.coordinator).budget = Recording()
            result = testbed.execute(plan)
            assert result.resplit_chunks >= 2
            by_round = {}
            for record in RepairJournal.replay(testbed.journal_path):
                if isinstance(record, ActionCompleted):
                    action = ChunkRepairAction.from_dict(record.action)
                    by_round.setdefault(record.round_index, set()).update(
                        (*action.sources, action.destination)
                    )
            ran = [by_round[index] for index in sorted(by_round)]
            assert len(ran) == len(held) < plan.num_rounds
            for nodes, granted in zip(ran, held):
                assert nodes <= granted
        finally:
            testbed.shutdown()

    @pytest.mark.parametrize("journaled", [True, False])
    def test_crash_after_a_converted_completion(self, tmp_path, journaled):
        """Killed right after a converted chunk's ActionCompleted: the
        successor counts that chunk done from the journal — or, with
        that record lost, from the destination's inventory."""
        testbed, plan = make_testbed(tmp_path)
        converted = {key(a) for a in plan.rounds[-1].reconstructions}
        try:
            coordinator = measured(testbed.coordinator)
            coordinator.journal.close()
            journal = CrashAfterConverted(testbed.journal_path, converted)
            coordinator.journal = journal
            with pytest.raises(CoordinatorCrash):
                testbed.execute(plan)
            done = journal.crashed_on.action
            chunk = (done["stripe_id"], done["chunk_index"])
            if not journaled:
                records = RepairJournal.replay(testbed.journal_path)
                assert records[-1] == journal.crashed_on
                testbed.journal_path.write_bytes(
                    b"".join(map(encode_record, records[:-1]))
                )
            successor = testbed.build(resume=True)
            state = successor._recovered
            assert (chunk in state.done) is journaled
            result = testbed.resume()
            assert chunk in state.done
            assert state.done[chunk].destination == done["destination"]
            assert testbed.stores[done["destination"]].promotions[chunk[0]] == 1
            finish(testbed, plan, result)
        finally:
            testbed.shutdown()

    @pytest.mark.parametrize("successor_measured", [False, True])
    def test_crash_between_roundstarted_and_its_first_command(
        self, tmp_path, successor_measured
    ):
        """Round 0 was re-split at commit; the coordinator dies right
        after its RoundStarted.  The successor re-derives the split
        from the original plan (its own estimates, or none)."""
        testbed, plan = make_testbed(tmp_path)
        try:
            measured(testbed.coordinator)
            testbed.arm_crash(CoordinatorCrashFault(after_records=2))
            with pytest.raises(CoordinatorCrash):
                testbed.execute(plan)
            counter = testbed.metrics.get("repair_resplit_chunks_total")
            assert counter.total() == 2  # round 0 ran re-split, not as planned
            assert isinstance(
                RepairJournal.replay(testbed.journal_path)[-1], RoundStarted
            )
            successor = testbed.build(resume=True)
            if successor_measured:
                measured(successor)
            result = testbed.resume()
            if successor_measured:
                assert result.resplit_chunks >= 2
            finish(testbed, plan, result)
        finally:
            testbed.shutdown()
