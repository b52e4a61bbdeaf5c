"""Cross-cutting property-based tests (hypothesis).

These complement the per-module suites with whole-system invariants on
randomized inputs: codec interchangeability, snapshot round-trips,
and plan/simulator consistency.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    AnalyticalModel,
    FastPRPlanner,
    MigrationOnlyPlanner,
    MsrCodec,
    ReconstructionOnlyPlanner,
    make_codec,
)
from repro.cluster import StorageCluster
from repro.cluster import snapshot as snapshot_mod
from repro.core import apply_plan
from repro.ec import registered_schemes
from repro.ec.galois import gf_addmul_bytes
from repro.sim import evaluate_plan

#: parameters for every registered scheme, the paper's codes included
RECIPE_SCHEMES = {
    "rs(9,6)", "rs(14,10)", "rs(16,12)",
    "lrc(6,2,2)", "lrc(12,2,2)", "lrc(12,3,2)", "lrc(4,2,1)", "lrc(6,3,3)",
    "msr(6,3)", "msr(11,6)",
}

relaxed = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCodecInterchangeability:
    """All codecs satisfy the same ErasureCodec contract."""

    @relaxed
    @given(st.integers(0, 2**32 - 1), st.sampled_from(
        ["rs(5,3)", "rs(9,6)", "lrc(6,2,2)", "msr(6,3)"]
    ))
    def test_encode_decode_contract(self, seed, scheme):
        codec = make_codec(scheme)
        rng = np.random.default_rng(seed)
        size = 4 * (codec.k - 1) * codec.k  # divisible for MSR's alpha
        data = [
            rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            for _ in range(codec.k)
        ]
        coded = codec.encode(data)
        assert len(coded) == codec.n
        assert all(len(c) == size for c in coded)
        # Knock out the maximum tolerable losses from the tail and
        # rebuild them from the survivors.
        lost = list(range(codec.n - (codec.n - codec.k), codec.n))
        available = {i: coded[i] for i in range(codec.n) if i not in lost}
        rebuilt = codec.decode(available, lost)
        for i in lost:
            assert rebuilt[i] == coded[i]

    @relaxed
    @given(st.sampled_from(["rs(9,6)", "lrc(6,2,2)", "msr(6,3)"]))
    def test_repair_cost_within_bounds(self, scheme):
        codec = make_codec(scheme)
        for lost in range(codec.n):
            recipe = codec.repair_recipe(lost)
            assert 1 <= recipe.fanin <= len(recipe.candidates) <= codec.n - 1
            assert lost not in recipe.candidates
            assert 0 < recipe.fanin * recipe.traffic <= codec.k

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.sampled_from(sorted(RECIPE_SCHEMES)), st.data())
    def test_recipe_rebuilds_the_lost_chunk(self, scheme, data):
        # Any fanin-subset of the candidates, combined per the codec,
        # equals the lost chunk; and fanin x traffic is what the model
        # prices for the codec's cheapest repair.
        assert {s.split("(")[0] for s in RECIPE_SCHEMES} == set(
            registered_schemes()
        )
        codec = make_codec(scheme)
        lost = data.draw(st.integers(0, codec.n - 1), label="lost")
        recipe = codec.repair_recipe(lost)
        helpers = data.draw(
            st.permutations(recipe.candidates), label="order"
        )[: recipe.fanin]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        size = 8 * getattr(codec, "alpha", 1)
        coded = codec.encode(
            [
                rng.integers(0, 256, size, dtype=np.uint8).tobytes()
                for _ in range(codec.k)
            ]
        )
        if isinstance(codec, MsrCodec):
            symbols = {
                h: codec.repair_symbol(h, coded[h], lost) for h in helpers
            }
            assert all(len(s) == size * recipe.traffic for s in symbols.values())
            assert codec.repair_from_symbols(lost, symbols) == coded[lost]
        else:
            coeffs = codec.recovery_coefficients(lost, helpers)
            acc = np.zeros(size, dtype=np.uint8)
            for helper, coeff in coeffs.items():
                gf_addmul_bytes(
                    acc, coeff, np.frombuffer(coded[helper], dtype=np.uint8)
                )
            assert acc.tobytes() == coded[lost]
        cheapest = min(
            map(codec.repair_recipe, range(codec.n)), key=lambda r: r.fanin
        )
        model = AnalyticalModel.for_codec(codec, num_nodes=100)
        assert model.repair_fanin * model.traffic_fraction == (
            cheapest.fanin * cheapest.traffic
        )
        assert recipe.fanin * recipe.traffic >= cheapest.fanin * cheapest.traffic


class TestSnapshotProperties:
    @relaxed
    @given(
        st.integers(6, 20),
        st.integers(0, 30),
        st.integers(0, 3),
        st.integers(0, 2**16),
    )
    def test_roundtrip_any_cluster(self, nodes, stripes, standby, seed):
        cluster = StorageCluster.random(
            nodes, stripes, 5, 3, num_hot_standby=standby, seed=seed
        )
        restored = snapshot_mod.from_dict(snapshot_mod.to_dict(cluster))
        assert restored.num_stripes == cluster.num_stripes
        assert restored.metadata_version >= 0
        for sid in range(cluster.num_stripes):
            assert restored.stripe(sid).placement == cluster.stripe(sid).placement


class TestPlanningProperties:
    @relaxed
    @given(st.integers(0, 2**16), st.sampled_from(["fastpr", "recon", "mig"]))
    def test_any_planner_full_lifecycle(self, seed, which):
        cluster = StorageCluster.random(
            14, 40, 5, 3, num_hot_standby=2, seed=seed
        )
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        planner = {
            "fastpr": FastPRPlanner(seed=0),
            "recon": ReconstructionOnlyPlanner(seed=0),
            "mig": MigrationOnlyPlanner(),
        }[which]
        plan = planner.plan(cluster, stf)
        plan.validate(cluster)
        result = evaluate_plan(cluster, plan)
        # Cost-model total is the sum of per-round times...
        assert result.total_time == pytest.approx(sum(result.round_times))
        # ...and all traffic accounting is consistent.
        assert result.bytes_written == plan.total_chunks * cluster.chunk_size
        apply_plan(cluster, plan)
        assert cluster.load_of(stf) == 0
        cluster.verify_fault_tolerance()

    @relaxed
    @given(st.integers(0, 2**16))
    def test_fastpr_never_slower_than_both_baselines(self, seed):
        cluster = StorageCluster.random(20, 80, 5, 3, seed=seed)
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        times = {}
        for planner in (
            FastPRPlanner(seed=0),
            ReconstructionOnlyPlanner(seed=0),
            MigrationOnlyPlanner(),
        ):
            plan = planner.plan(cluster, stf)
            times[planner.name] = evaluate_plan(cluster, plan).total_time
        # "nearest" c_m rounding lets migration straggle a round by up
        # to t_m/2, so FastPR may exceed reconstruction-only by a few
        # percent on unlucky set structures (hypothesis found one at
        # seed=896); it is never materially slower.
        assert times["fastpr"] <= times["reconstruction"] * 1.05
        assert times["fastpr"] <= times["migration"] * 1.05
