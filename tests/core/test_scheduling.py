"""Tests for Algorithm 2 (repair scheduling)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.chunk import ChunkLocation
from repro.core.analysis import AnalyticalModel, BandwidthProfile
from repro.core.plan import ChunkRepairAction, RepairMethod
from repro.core.scheduling import (
    ingress_duties,
    ingress_streams,
    migration_quota,
    order_chain,
    schedule_migration_only,
    schedule_reconstruction_only,
    schedule_repair_rounds,
)


def fake_sets(sizes, start_stripe=0):
    """Build reconstruction sets of the given sizes with unique chunks."""
    sets = []
    stripe = start_stripe
    for size in sizes:
        chunk_set = []
        for _ in range(size):
            chunk_set.append(ChunkLocation(stripe, 0, 99))
            stripe += 1
        sets.append(chunk_set)
    return sets


def quota_model(quota):
    """A scattered model whose migration quota is exactly ``quota``.

    With b_d = 2 * b_n, t_m = 2 * c/b_n and t_r = (1 + k) * c/b_n, so
    t_r / t_m = (1 + k) / 2; choosing k = 2 * quota - 1 puts the ratio
    exactly at ``quota``, which "nearest" rounding preserves.
    """
    profile = BandwidthProfile(
        chunk_size=1 << 20,
        disk_bandwidth=2e8,
        network_bandwidth=1e8,
    )
    return AnalyticalModel(
        num_nodes=20 * quota, k=2 * quota - 1, profile=profile
    )


def all_chunks(rounds):
    out = []
    for r in rounds:
        out.extend(r.reconstruction)
        out.extend(r.migration)
    return out


class TestMigrationQuota:
    def test_matches_model_ratio(self):
        model = AnalyticalModel(num_nodes=100, k=6)
        ratio = model.reconstruction_time() / model.migration_time()
        assert migration_quota(model, cr=5) == int(ratio + 0.5)
        assert migration_quota(model, cr=5, rounding="floor") == int(ratio)

    def test_zero_for_empty_round(self):
        model = AnalyticalModel(num_nodes=100, k=6)
        assert migration_quota(model, cr=0) == 0

    def test_hot_standby_quota_grows_with_cr(self):
        model = AnalyticalModel(num_nodes=100, k=6, hot_standby=3)
        assert migration_quota(model, 16) >= migration_quota(model, 2)

    def test_floor_never_straggles(self):
        # floor() guarantees c_m * t_m <= t_r for the round.
        model = AnalyticalModel(num_nodes=100, k=6)
        for cr in (1, 4, 16):
            cm = migration_quota(model, cr, rounding="floor")
            assert cm * model.migration_time() <= model.reconstruction_time(
                groups=cr
            ) * (1 + 1e-9)

    def test_nearest_straggles_at_most_half_tm(self):
        model = AnalyticalModel(num_nodes=100, k=6, hot_standby=3)
        for cr in (1, 4, 16):
            cm = migration_quota(model, cr)
            t_m = model.migration_time()
            assert cm * t_m <= model.reconstruction_time(groups=cr) + t_m / 2 + 1e-9

    def test_nearest_nonzero_when_tr_close_to_tm(self):
        # Small clusters: t_r(G=1) slightly below t_m must still give
        # c_m = 1 (this is why "nearest" is the default).
        profile = BandwidthProfile(
            chunk_size=1 << 20,
            disk_bandwidth=10e6,
            network_bandwidth=44e6,
        )
        model = AnalyticalModel(
            num_nodes=21, k=10, hot_standby=3, profile=profile
        )
        assert migration_quota(model, 1) >= 1
        assert migration_quota(model, 1, rounding="floor") == 0

    def test_unknown_rounding(self):
        model = AnalyticalModel(num_nodes=100, k=6)
        with pytest.raises(ValueError):
            migration_quota(model, 4, rounding="ceil")


class TestPaperFigure6:
    """Sets of sizes [9,7,6,4,3,2,1] with c_m = 4 finish in 3 rounds."""

    def test_three_rounds(self):
        sets = fake_sets([9, 7, 6, 4, 3, 2, 1])
        rounds = schedule_repair_rounds(sets, quota_model(4), seed=0)
        assert len(rounds) == 3
        assert [r.cr for r in rounds] == [9, 7, 6]
        assert [r.cm for r in rounds] == [4, 4, 2]

    def test_round1_takes_smallest_sets(self):
        sets = fake_sets([9, 7, 6, 4, 3, 2, 1])
        rounds = schedule_repair_rounds(sets, quota_model(4), seed=0)
        migrated_round1 = {c.stripe_id for c in rounds[0].migration}
        # R6 (2 chunks) and R7 (1 chunk) migrate whole; 1 chunk from R5.
        sizes = [9, 7, 6, 4, 3, 2, 1]
        r6_r7 = set()
        offset = sum(sizes[:5])
        r6_r7.update(range(offset, offset + 3))
        assert r6_r7 <= migrated_round1
        assert len(migrated_round1) == 4

    def test_all_chunks_once(self):
        sets = fake_sets([9, 7, 6, 4, 3, 2, 1])
        rounds = schedule_repair_rounds(sets, quota_model(4), seed=1)
        chunks = all_chunks(rounds)
        assert len(chunks) == 32
        assert len({c.stripe_id for c in chunks}) == 32


class TestScheduleRepairRounds:
    def test_single_set(self):
        rounds = schedule_repair_rounds(fake_sets([5]), quota_model(3))
        assert len(rounds) == 1
        assert rounds[0].cr == 5
        assert rounds[0].cm == 0

    def test_everything_fits_one_round(self):
        rounds = schedule_repair_rounds(fake_sets([5, 2, 1]), quota_model(4))
        assert len(rounds) == 1
        assert rounds[0].cm == 3

    def test_empty_input(self):
        assert schedule_repair_rounds([], quota_model(2)) == []
        assert schedule_repair_rounds([[]], quota_model(2)) == []

    def test_sorted_descending_reconstruction(self):
        rounds = schedule_repair_rounds(
            fake_sets([2, 9, 5, 1]), quota_model(2), seed=0
        )
        crs = [r.cr for r in rounds if r.cr]
        assert crs == sorted(crs, reverse=True)

    def test_migration_respects_quota(self):
        model = quota_model(3)
        rounds = schedule_repair_rounds(
            fake_sets([8, 7, 6, 5, 4, 3, 2]), model, seed=2
        )
        for r in rounds[:-1]:  # last round may carry fewer
            assert r.cm <= migration_quota(model, r.cr)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=8),
        st.integers(2, 8),
        st.integers(0, 1000),
    )
    def test_cover_exactly_once_property(self, sizes, quota, seed):
        sets = fake_sets(sizes)
        rounds = schedule_repair_rounds(sets, quota_model(quota), seed=seed)
        chunks = all_chunks(rounds)
        assert len(chunks) == sum(sizes)
        assert len({c.stripe_id for c in chunks}) == sum(sizes)
        # Reconstructed sets remain subsets of original sets.
        originals = [
            {c.stripe_id for c in s} for s in fake_sets(sizes)
        ]
        for r in rounds:
            if not r.reconstruction:
                continue
            recon_ids = {c.stripe_id for c in r.reconstruction}
            assert any(recon_ids <= orig for orig in originals)


class TestBaselines:
    def test_reconstruction_only_one_round_per_set(self):
        rounds = schedule_reconstruction_only(fake_sets([3, 5, 1]))
        assert [r.cr for r in rounds] == [5, 3, 1]
        assert all(r.cm == 0 for r in rounds)

    def test_reconstruction_only_skips_empty(self):
        assert schedule_reconstruction_only([[], []]) == []

    def test_migration_only_single_batch(self):
        chunks = [c for s in fake_sets([4]) for c in s]
        rounds = schedule_migration_only(chunks)
        assert len(rounds) == 1
        assert rounds[0].cm == 4
        assert rounds[0].cr == 0

    def test_migration_only_empty(self):
        assert schedule_migration_only([]) == []


# ----------------------------------------------------------------------
# round-level chain order: ingress duties, order_chain, ingress streams
# ----------------------------------------------------------------------


def chain(stripe, sources, destination, pipelined=True):
    return ChunkRepairAction(
        stripe, 0, RepairMethod.RECONSTRUCTION, tuple(sources), destination,
        pipelined=pipelined,
    )


def migration(stripe, destination, stf=99):
    return ChunkRepairAction(
        stripe, 0, RepairMethod.MIGRATION, (stf,), destination
    )


class TestIngressDuties:
    def test_counts_destinations_and_chain_helpers(self):
        round_ = [
            chain(0, [1, 2, 3], 4),          # 4 is chain 1's helper too
            chain(1, [4, 5, 6], 7),
            chain(2, [7, 8], 9, pipelined=False),   # star: k streams in
            migration(3, 8),
        ]
        assert ingress_duties(round_) == {
            1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 1,
            7: 1,       # chain 1's destination; star helpers ingest nothing
            8: 1,       # the migration's destination
            9: 2,       # a star destination ingests one stream per helper
        }

    def test_empty_round(self):
        assert ingress_duties([]) == {}

    def test_streams_spare_each_chain_head(self):
        round_ = [chain(0, [1, 2, 3], 4), chain(1, [5, 4, 6], 7)]
        # 4 receives chain 0's chunk, so it heads chain 1 and no node
        # ingests twice; chain 0 has nothing shared and keeps plan order.
        assert ingress_streams(round_) == {
            1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1,
        }

    def test_two_destinations_in_one_chain_leave_one_shared(self):
        round_ = [
            chain(0, [1, 2, 3], 4),
            chain(1, [5, 6, 7], 8),
            chain(2, [9, 4, 8], 10),
        ]
        streams = ingress_streams(round_)
        # Only one of 4 and 8 can head chain 2: the first in plan order.
        assert (streams[4], streams[8]) == (1, 2)
        assert max(streams.values()) == 2


class TestOrderChainDuties:
    def test_head_is_the_most_contended_ingress(self):
        assert order_chain([5, 3, 7], None, {5: 1, 3: 1, 7: 2}) == [7, 5, 3]
        assert order_chain([5, 3, 7], {}, {5: 1, 3: 3, 7: 2}) == [3, 7, 5]

    def test_weights_still_dominate_when_scales_differ(self):
        # 0.25 / 1 stream is worth less than 1.0 / 2 streams.
        order = order_chain([5, 3, 7], {3: 0.25}, {5: 1, 3: 1, 7: 2})
        assert order == [3, 7, 5]

    def test_one_key_scale_over_streams(self):
        # 0.5 / 1 ties with 1.0 / 2: the stable sort keeps plan order.
        assert order_chain([5, 3], {5: 0.5}, {5: 1, 3: 2}) == [5, 3]
        assert order_chain([3, 5], {5: 0.5}, {5: 1, 3: 2}) == [3, 5]

    def test_stable_with_no_duties_and_no_weights(self):
        helpers = [9, 2, 6, 4]
        assert order_chain(helpers) == helpers
        assert order_chain(helpers, {}, {}) == helpers
        assert order_chain(helpers, None, {n: 1 for n in helpers}) == helpers


@st.composite
def planner_shaped_rounds(draw):
    """Rounds as the planners build them: chains with disjoint helper
    sets and distinct destinations, where a destination may be a
    *sibling* chain's helper; plus a few migrations."""
    k = draw(st.integers(2, 4))
    num_chains = draw(st.integers(1, 4))
    nodes = draw(st.permutations(range(k * num_chains + 4)))
    helper_sets = [
        list(nodes[i * k:(i + 1) * k]) for i in range(num_chains)
    ]
    taken = set()
    actions = []
    for index, helpers in enumerate(helper_sets):
        free = [n for n in nodes if n not in helpers and n not in taken]
        destination = draw(st.sampled_from(free))
        taken.add(destination)
        actions.append(chain(index, helpers, destination))
    for index in range(draw(st.integers(0, 2))):
        free = [n for n in nodes if n not in taken]
        if not free:
            break
        destination = draw(st.sampled_from(free))
        taken.add(destination)
        actions.append(migration(100 + index, destination))
    return actions


class TestOrderChainProperties:
    @given(planner_shaped_rounds())
    @settings(max_examples=200, deadline=None)
    def test_never_more_shared_ingress_than_plan_order(self, actions):
        duties = ingress_duties(actions)
        plan_order = dict(duties)
        for action in actions:
            if action.pipelined:
                plan_order[action.sources[0]] -= 1
        chosen = ingress_streams(actions)
        assert max(chosen.values()) <= max(plan_order.values())
        # Every chain spares exactly one helper, never a bystander.
        assert sum(duties.values()) - sum(chosen.values()) == sum(
            a.pipelined for a in actions
        )
        assert all(chosen[n] >= 0 for n in chosen)

    @given(
        planner_shaped_rounds(),
        st.dictionaries(
            st.integers(0, 19), st.sampled_from([0.25, 0.5, 1.0]), max_size=4
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_chain_rate_never_below_plan_order(self, actions, weights):
        """The head's ingress is free, every other hop's is worth
        ``scale / streams``, and every hop uploads at its scale: the
        chosen order's slowest hop is never slower than plan order's."""
        duties = ingress_duties(actions)

        def rate(order):
            head, rest = order[0], order[1:]
            return min(
                [weights.get(head, 1.0)]
                + [weights.get(n, 1.0) / duties[n] for n in rest]
            )

        for action in actions:
            if not action.pipelined:
                continue
            chosen = order_chain(action.sources, weights, duties)
            assert sorted(chosen) == sorted(action.sources)
            assert rate(chosen) >= rate(list(action.sources))
