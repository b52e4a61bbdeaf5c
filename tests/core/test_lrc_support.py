"""Tests for LRC-aware predictive repair planning.

The planners take the stripes' codec; an LRC's repair recipe names
each chunk's local group as the chunks its repair reads (the paper's
Section III extension), and a global parity's as the data chunks plus
the other global parities.
"""

import hashlib
import json

import pytest

from repro.cluster import StorageCluster
from repro.core.plan import RepairMethod, RepairScenario
from repro.core.planner import (
    FastPRPlanner,
    ReconstructionOnlyPlanner,
    UnrecoverableChunkError,
    heal_action,
)
from repro.core.reconstruction_sets import repair_reads
from repro.ec import make_codec
from repro.runtime import EmulatedTestbed
from repro.sim.cost_model import evaluate_plan


@pytest.fixture
def codec():
    return make_codec("lrc(6,2,2)")  # n=10, k=6, k'=3


@pytest.fixture
def lrc_cluster(codec):
    cluster = StorageCluster.random(
        20, 60, codec.n, codec.k, num_hot_standby=2, seed=13
    )
    stf = max(cluster.storage_node_ids(), key=cluster.load_of)
    cluster.node(stf).mark_soon_to_fail()
    return cluster, stf


def global_parities(codec, cluster, stf):
    return [
        c
        for c in cluster.chunks_on_node(stf)
        if c.chunk_index >= codec.k + codec.l
    ]


class TestHelperCandidates:
    def test_local_group_members_only(self, codec, lrc_cluster):
        cluster, stf = lrc_cluster
        for chunk in cluster.chunks_on_node(stf):
            if chunk.chunk_index >= codec.k + codec.l:
                continue
            fanin, helpers = repair_reads(cluster, stf, chunk, codec)
            assert fanin == codec.group_size
            stripe = cluster.stripe(chunk.stripe_id)
            group = codec.group_of(chunk.chunk_index)
            member_nodes = {
                stripe.node_of(m)
                for m in codec.local_group_members(group)
                if m != chunk.chunk_index
            }
            assert set(helpers) <= member_nodes
            assert len(helpers) <= codec.group_size

    def test_global_parity_reads_data_and_other_globals(
        self, codec, lrc_cluster
    ):
        # A global parity reads k of the data chunks and the other
        # global parities, never a local parity: k chunks that include
        # a local parity and its whole group do not span the code.
        cluster, stf = lrc_cluster
        globals_ = global_parities(codec, cluster, stf)
        assert globals_
        for chunk in globals_:
            fanin, helpers = repair_reads(cluster, stf, chunk, codec)
            stripe = cluster.stripe(chunk.stripe_id)
            allowed = {
                stripe.node_of(i)
                for i in (*range(codec.k), *range(codec.k + codec.l, codec.n))
                if i != chunk.chunk_index
            }
            assert fanin == codec.k
            assert set(helpers) == allowed - {stf}
            assert helpers == sorted(helpers)


class TestSplit:
    def test_partition(self, codec, lrc_cluster):
        # Local chunks repair with fan-in k' = k/l, global parities k.
        cluster, stf = lrc_cluster
        for chunk in cluster.chunks_on_node(stf):
            fanin = codec.repair_recipe(chunk.chunk_index).fanin
            if chunk.chunk_index < 8:
                assert fanin == codec.group_size
            else:
                assert fanin == codec.k


class TestLrcFastPR:
    def test_valid_plan(self, codec, lrc_cluster):
        cluster, stf = lrc_cluster
        plan = FastPRPlanner(seed=0, codec=codec).plan(cluster, stf)
        plan.validate(cluster)
        assert plan.total_chunks == cluster.load_of(stf)

    def test_local_reconstructions_use_group_fanin(self, codec, lrc_cluster):
        cluster, stf = lrc_cluster
        plan = FastPRPlanner(seed=0, codec=codec).plan(cluster, stf)
        for action in plan.actions():
            if action.method is RepairMethod.RECONSTRUCTION:
                assert len(action.sources) == codec.group_size
                # Sources are exactly the chunk's local group members.
                stripe = cluster.stripe(action.stripe_id)
                group = codec.group_of(action.chunk_index)
                member_nodes = {
                    stripe.node_of(m)
                    for m in codec.local_group_members(group)
                    if m != action.chunk_index
                }
                assert set(action.sources) == member_nodes

    def test_global_parities_migrate(self, codec, lrc_cluster):
        cluster, stf = lrc_cluster
        plan = FastPRPlanner(seed=0, codec=codec).plan(cluster, stf)
        for action in plan.actions():
            if action.chunk_index >= codec.k + codec.l:
                assert action.method is RepairMethod.MIGRATION
        assert all(
            a.method is RepairMethod.MIGRATION
            for a in plan.rounds[0].migrations
        )

    def test_only_global_parities_all_migrate_in_one_round(self, codec):
        cluster = StorageCluster.random(
            20, 60, codec.n, codec.k, num_hot_standby=2, seed=13
        )
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        globals_ = global_parities(codec, cluster, stf)
        plan = FastPRPlanner(seed=0, codec=codec).plan(cluster, stf, globals_)
        assert plan.num_rounds == 1
        assert plan.migrated_chunks == len(globals_)

    def test_beats_rs_style_reconstruction(self, codec, lrc_cluster):
        cluster, stf = lrc_cluster
        lrc_plan = FastPRPlanner(seed=0, codec=codec).plan(cluster, stf)
        rs_plan = ReconstructionOnlyPlanner(seed=0).plan(cluster, stf)
        lrc_time = evaluate_plan(cluster, lrc_plan).total_time
        rs_time = evaluate_plan(cluster, rs_plan).total_time
        assert lrc_time < rs_time

    def test_hot_standby(self, codec, lrc_cluster):
        cluster, stf = lrc_cluster
        plan = FastPRPlanner(
            scenario=RepairScenario.HOT_STANDBY, seed=0, codec=codec
        ).plan(cluster, stf)
        plan.validate(cluster)

    def test_codec_mismatch_rejected(self, codec):
        other = make_codec("lrc(4,2,2)")
        cluster = StorageCluster.random(16, 10, other.n, other.k, seed=1)
        cluster.node(0).mark_soon_to_fail()
        with pytest.raises(ValueError, match="codec"):
            FastPRPlanner(codec=codec).plan(cluster, 0)
        with pytest.raises(ValueError, match="codec"):
            ReconstructionOnlyPlanner(codec=codec).plan(cluster, 0)


class TestLrcReconstructionOnly:
    def test_valid_plan_no_migration_of_local_chunks(self, codec, lrc_cluster):
        cluster, stf = lrc_cluster
        plan = ReconstructionOnlyPlanner(seed=0, codec=codec).plan(
            cluster, stf
        )
        plan.validate(cluster)
        assert plan.migrated_chunks == 0

    def test_global_rounds_use_full_k(self, codec, lrc_cluster):
        cluster, stf = lrc_cluster
        plan = ReconstructionOnlyPlanner(seed=0, codec=codec).plan(
            cluster, stf
        )
        for action in plan.actions():
            if action.chunk_index >= codec.k + codec.l:
                assert len(action.sources) == codec.k
            else:
                assert len(action.sources) == codec.group_size

    def test_cheapest_class_first(self, codec, lrc_cluster):
        # One Algorithm 1 pass per fan-in, local repairs first: no
        # round mixes a local repair with a global-parity one.
        cluster, stf = lrc_cluster
        plan = ReconstructionOnlyPlanner(seed=0, codec=codec).plan(
            cluster, stf
        )
        fanins = [
            {len(a.sources) for a in round_.reconstructions}
            for round_ in plan.rounds
        ]
        assert all(len(f) == 1 for f in fanins)
        flat = [f.pop() for f in fanins]
        assert flat == sorted(flat)
        assert flat[0] == codec.group_size and flat[-1] == codec.k

    def test_more_parallelism_than_rs(self, codec, lrc_cluster):
        # k' = 3 < k = 6 allows more parallel groups, so fewer or equal
        # rounds for the locally repairable chunks.
        cluster, stf = lrc_cluster
        lrc_plan = ReconstructionOnlyPlanner(seed=0, codec=codec).plan(
            cluster, stf
        )
        rs_plan = ReconstructionOnlyPlanner(seed=0).plan(cluster, stf)
        assert lrc_plan.num_rounds <= rs_plan.num_rounds + 2

    def test_priced_by_the_helpers_each_repair_reads(
        self, codec, lrc_cluster
    ):
        cluster, stf = lrc_cluster
        plan = ReconstructionOnlyPlanner(seed=0, codec=codec).plan(
            cluster, stf
        )
        reads = sum(
            len(a.sources) for r in plan.rounds for a in r.reconstructions
        )
        result = evaluate_plan(cluster, plan)
        expected = (reads + plan.migrated_chunks) * cluster.chunk_size
        assert result.bytes_read == expected
        assert result.bytes_transferred == expected


def golden_lrc_cluster(codec, seed, **options):
    cluster = StorageCluster.random(
        20, 60, codec.n, codec.k, num_hot_standby=2, seed=40 + seed, **options
    )
    stf = max(cluster.storage_node_ids(), key=cluster.load_of)
    cluster.node(stf).mark_soon_to_fail()
    return cluster, stf


class TestGlobalParityRepairsDecode:
    """Every reconstruction a plan holds has coefficients that solve:
    a global parity's helpers span the code."""

    @pytest.mark.parametrize("scenario", list(RepairScenario))
    @pytest.mark.parametrize("seed", range(3))
    def test_every_reconstruction_solves(self, codec, scenario, seed):
        cluster, stf = golden_lrc_cluster(codec, seed)
        plan = ReconstructionOnlyPlanner(
            scenario=scenario, seed=seed, codec=codec
        ).plan(cluster, stf)
        repaired_globals = 0
        for action in plan.actions():
            stripe = cluster.stripe(action.stripe_id)
            helpers = [stripe.chunk_index_on(n) for n in action.sources]
            # raises DecodeError when the helpers do not span the code
            coeffs = codec.recovery_coefficients(action.chunk_index, helpers)
            assert sorted(coeffs) == sorted(helpers)
            repaired_globals += action.chunk_index >= codec.k + codec.l
        assert repaired_globals

    def test_plan_runs_on_the_testbed(self, codec, tmp_path):
        cluster, stf = golden_lrc_cluster(
            codec,
            0,
            chunk_size=16 * 1024,
            disk_bandwidth=400e6,
            network_bandwidth=880e6,
        )
        plan = ReconstructionOnlyPlanner(seed=0, codec=codec).plan(
            cluster, stf
        )
        assert any(
            a.chunk_index >= codec.k + codec.l for a in plan.actions()
        )
        with EmulatedTestbed(cluster, codec, workdir=tmp_path) as testbed:
            testbed.load_random_data(seed=44)
            testbed.execute(plan)
            assert testbed.verify_plan(plan) == plan.total_chunks


# sha256(json(plan.to_dict()))[:16] of LRC(6,2,2) plans on a 20-node
# cluster with two hot standbys; every STF node here holds global
# parities, so each plan mixes local repairs with global-parity ones.
# A global parity reads k of the data chunks and the other globals.
GOLDEN_LRC_PLAN_DIGESTS = {
    ("fastpr", RepairScenario.SCATTERED, 0): "92bb1fd6c01e677e",
    ("fastpr", RepairScenario.SCATTERED, 1): "6622976d374b5fee",
    ("fastpr", RepairScenario.SCATTERED, 2): "86a39178d4f2996e",
    ("fastpr", RepairScenario.HOT_STANDBY, 0): "49ea27463b2baca7",
    ("fastpr", RepairScenario.HOT_STANDBY, 1): "80bc3af9971efe99",
    ("fastpr", RepairScenario.HOT_STANDBY, 2): "32ea6fb6e755ef7a",
    ("reconstruction", RepairScenario.SCATTERED, 0): "546ed6cf54760806",
    ("reconstruction", RepairScenario.SCATTERED, 1): "9781382b980c0555",
    ("reconstruction", RepairScenario.SCATTERED, 2): "93011d3c961c0ff1",
    ("reconstruction", RepairScenario.HOT_STANDBY, 0): "fb847c834c3e4d83",
    ("reconstruction", RepairScenario.HOT_STANDBY, 1): "5794a486b7b88d41",
    ("reconstruction", RepairScenario.HOT_STANDBY, 2): "2e1919e17f30b87e",
}

LRC_PLANNERS = {
    "fastpr": FastPRPlanner,
    "reconstruction": ReconstructionOnlyPlanner,
}


class TestGoldenLrcPlans:
    @pytest.mark.parametrize(
        "planner, scenario, seed",
        sorted(GOLDEN_LRC_PLAN_DIGESTS, key=lambda p: (p[0], p[1].name, p[2])),
    )
    def test_plan_digest_unchanged(self, codec, planner, scenario, seed):
        cluster, stf = golden_lrc_cluster(codec, seed)
        assert any(
            c.chunk_index >= codec.k + codec.l
            for c in cluster.chunks_on_node(stf)
        )
        plan = LRC_PLANNERS[planner](
            scenario=scenario, seed=seed, codec=codec
        ).plan(cluster, stf)
        digest = hashlib.sha256(
            json.dumps(plan.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]
        assert digest == GOLDEN_LRC_PLAN_DIGESTS[planner, scenario, seed]


def healed_helpers(cluster, codec, action):
    stripe = cluster.stripe(action.stripe_id)
    return [stripe.chunk_index_on(node) for node in action.sources]


class TestHealedActionsFollowTheRecipe:
    """``heal_action`` draws a reconstruction's helpers from the codec's
    repair recipe, and every healed helper set solves."""

    @pytest.mark.parametrize("scenario", list(RepairScenario))
    def test_migrations_healed_after_the_stf_death_solve(
        self, codec, scenario
    ):
        healed = 0
        for seed in range(3):
            cluster, stf = golden_lrc_cluster(codec, seed)
            plan = FastPRPlanner(
                scenario=scenario, seed=seed, codec=codec
            ).plan(cluster, stf)
            for action in plan.actions():
                if action.method is not RepairMethod.MIGRATION:
                    continue
                fixed = heal_action(
                    cluster, stf, action, {stf}, scenario, codec=codec
                )
                assert fixed.method is RepairMethod.RECONSTRUCTION
                helpers = healed_helpers(cluster, codec, fixed)
                recipe = codec.repair_recipe(action.chunk_index)
                # the recipe's live holders suffice here: fan-in helpers
                assert set(helpers) <= set(recipe.candidates)
                assert len(helpers) == recipe.fanin
                codec.recovery_coefficients(action.chunk_index, helpers)
                healed += 1
        assert healed >= 45

    def test_dead_group_member_falls_back_to_a_spanning_set(self, codec):
        cluster, stf = golden_lrc_cluster(codec, 0)
        plan = ReconstructionOnlyPlanner(seed=0, codec=codec).plan(
            cluster, stf
        )
        action = next(
            a for a in plan.actions() if a.chunk_index < codec.k + codec.l
        )
        dead = {action.sources[0]}
        fixed = heal_action(cluster, stf, action, dead, codec=codec)
        assert not dead & set(fixed.sources)
        helpers = healed_helpers(cluster, codec, fixed)
        # the local group lost a member: k helpers that span the code
        assert len(helpers) == codec.k
        codec.recovery_coefficients(action.chunk_index, helpers)

    def test_no_solving_set_is_unrecoverable(self, codec):
        cluster, stf = golden_lrc_cluster(codec, 0)
        plan = ReconstructionOnlyPlanner(seed=0, codec=codec).plan(
            cluster, stf
        )
        action = next(iter(plan.actions()))
        stripe = cluster.stripe(action.stripe_id)
        # all but k - 1 other holders dead: nothing spans
        others = [n for n in stripe.nodes if n != stf]
        dead = set(others[codec.k - 1 :]) | set(action.sources)
        with pytest.raises(UnrecoverableChunkError):
            heal_action(cluster, stf, action, dead, codec=codec)

    @pytest.mark.parametrize("scenario", list(RepairScenario))
    def test_rs_heals_read_the_first_k_live_holders(self, scenario):
        rs = make_codec("rs(9,6)")
        cluster, stf = golden_lrc_cluster(rs, 1)
        plan = FastPRPlanner(scenario=scenario, seed=1).plan(cluster, stf)
        for action in plan.actions():
            dead = {stf}
            if action.method is RepairMethod.RECONSTRUCTION:
                dead = {action.sources[1]}
            fixed = heal_action(cluster, stf, action, dead, scenario)
            assert heal_action(
                cluster, stf, action, dead, scenario, codec=rs
            ) == fixed
            holders = cluster.helper_nodes(
                action.stripe_id,
                exclude=dead | {stf, fixed.destination},
            )
            if action.method is RepairMethod.MIGRATION:
                assert fixed.sources == tuple(holders[: rs.k])
            else:
                kept = [s for s in action.sources if s not in dead]
                extra = [h for h in holders if h not in kept]
                assert fixed.sources == tuple(kept + extra[:1])
