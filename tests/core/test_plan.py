"""Tests for repair-plan data structures and invariant validation."""

import pytest

from repro.cluster import StorageCluster
from repro.core.plan import (
    ChunkRepairAction,
    RepairMethod,
    RepairPlan,
    RepairRound,
    RepairScenario,
)


def migration(stripe, idx, src, dst):
    return ChunkRepairAction(
        stripe_id=stripe,
        chunk_index=idx,
        method=RepairMethod.MIGRATION,
        sources=(src,),
        destination=dst,
    )


def reconstruction(stripe, idx, sources, dst):
    return ChunkRepairAction(
        stripe_id=stripe,
        chunk_index=idx,
        method=RepairMethod.RECONSTRUCTION,
        sources=tuple(sources),
        destination=dst,
    )


@pytest.fixture
def cluster():
    """6-node cluster with two RS(4,2) stripes through node 0."""
    c = StorageCluster(6, num_hot_standby=1)
    c.add_stripe(4, 2, [0, 1, 2, 3])
    c.add_stripe(4, 2, [0, 2, 3, 4])
    c.node(0).mark_soon_to_fail()
    return c


class TestActionValidation:
    def test_migration_single_source(self):
        with pytest.raises(ValueError):
            ChunkRepairAction(0, 0, RepairMethod.MIGRATION, (1, 2), 3)

    def test_reconstruction_needs_sources(self):
        with pytest.raises(ValueError):
            ChunkRepairAction(0, 0, RepairMethod.RECONSTRUCTION, (), 3)


class TestRoundProperties:
    def test_counts(self):
        round_ = RepairRound(
            index=0,
            reconstructions=[reconstruction(0, 0, [1, 2], 4)],
            migrations=[migration(1, 0, 0, 5)],
        )
        assert round_.cr == 1
        assert round_.cm == 1
        assert len(list(round_.actions())) == 2

    def test_helper_nodes(self):
        round_ = RepairRound(
            index=0,
            reconstructions=[
                reconstruction(0, 0, [1, 2], 4),
                reconstruction(1, 0, [3, 4], 5),
            ],
        )
        assert round_.helper_nodes() == [1, 2, 3, 4]


class TestPlanValidation:
    def make_plan(self, cluster, actions):
        plan = RepairPlan(stf_node=0, scenario=RepairScenario.SCATTERED)
        plan.rounds.append(RepairRound(index=0, reconstructions=[], migrations=[]))
        for action in actions:
            if action.method is RepairMethod.MIGRATION:
                plan.rounds[0].migrations.append(action)
            else:
                plan.rounds[0].reconstructions.append(action)
        return plan

    def test_valid_plan_passes(self, cluster):
        plan = self.make_plan(
            cluster,
            [
                reconstruction(0, 0, [1, 2], 4),
                migration(1, 0, 0, 1),
            ],
        )
        plan.validate(cluster)

    def test_missing_chunk_detected(self, cluster):
        plan = self.make_plan(cluster, [migration(0, 0, 0, 4)])
        with pytest.raises(ValueError, match="wrong chunk set"):
            plan.validate(cluster)

    def test_duplicate_repair_detected(self, cluster):
        plan = self.make_plan(
            cluster,
            [
                migration(0, 0, 0, 4),
                migration(0, 0, 0, 5),
                migration(1, 0, 0, 1),
            ],
        )
        with pytest.raises(ValueError, match="more than once"):
            plan.validate(cluster)

    def test_migration_from_wrong_source(self, cluster):
        plan = self.make_plan(
            cluster,
            [
                ChunkRepairAction(0, 0, RepairMethod.MIGRATION, (1,), 4),
                migration(1, 0, 0, 1),
            ],
        )
        with pytest.raises(ValueError, match="not the STF node"):
            plan.validate(cluster)

    def test_helper_must_hold_chunk(self, cluster):
        plan = self.make_plan(
            cluster,
            [
                reconstruction(0, 0, [4, 5], 4),  # node 5 has no chunk of S0
                migration(1, 0, 0, 1),
            ],
        )
        with pytest.raises(ValueError, match="holds no chunk"):
            plan.validate(cluster)

    def test_stf_cannot_help(self, cluster):
        plan = self.make_plan(
            cluster,
            [
                reconstruction(0, 0, [0, 1], 4),
                migration(1, 0, 0, 1),
            ],
        )
        with pytest.raises(ValueError, match="uses the STF node"):
            plan.validate(cluster)

    def test_helper_reuse_within_round(self, cluster):
        plan = self.make_plan(
            cluster,
            [
                reconstruction(0, 0, [2, 3], 4),
                reconstruction(1, 0, [2, 3], 5),
            ],
        )
        with pytest.raises(ValueError, match="more than one reconstruction"):
            plan.validate(cluster)

    def test_destination_conflict(self, cluster):
        plan = self.make_plan(
            cluster,
            [
                migration(0, 0, 0, 1),  # node 1 already stores chunk of S0
                migration(1, 0, 0, 1),
            ],
        )
        with pytest.raises(ValueError, match="already stores"):
            plan.validate(cluster)

    def test_scattered_must_target_storage(self, cluster):
        plan = self.make_plan(
            cluster,
            [
                migration(0, 0, 0, 6),  # node 6 is the hot standby
                migration(1, 0, 0, 1),
            ],
        )
        with pytest.raises(ValueError, match="storage nodes"):
            plan.validate(cluster)

    def test_hot_standby_must_target_standby(self, cluster):
        plan = RepairPlan(stf_node=0, scenario=RepairScenario.HOT_STANDBY)
        plan.rounds.append(
            RepairRound(
                index=0,
                migrations=[migration(0, 0, 0, 4), migration(1, 0, 0, 6)],
            )
        )
        with pytest.raises(ValueError, match="standby"):
            plan.validate(cluster)

    def test_hot_standby_destination_conflict(self, cluster):
        # An earlier hot-standby repair left chunk 1 of S0 on standby 6;
        # writing chunk 0 there too would replace it.
        cluster.relocate_chunk(0, 1, 6)
        plan = RepairPlan(stf_node=0, scenario=RepairScenario.HOT_STANDBY)
        plan.rounds.append(
            RepairRound(
                index=0,
                migrations=[migration(0, 0, 0, 6), migration(1, 0, 0, 6)],
            )
        )
        with pytest.raises(ValueError, match="6 already stores a chunk of stripe 0"):
            plan.validate(cluster)

    def test_plan_counters(self, cluster):
        plan = self.make_plan(
            cluster,
            [reconstruction(0, 0, [1, 2], 4), migration(1, 0, 0, 1)],
        )
        assert plan.total_chunks == 2
        assert plan.migrated_chunks == 1
        assert plan.reconstructed_chunks == 1
        assert plan.num_rounds == 1
        assert "rounds=1" in plan.summary()
