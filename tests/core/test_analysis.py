"""Tests for the Section III analytical model (Equations 1-6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import (
    AnalyticalModel,
    BandwidthProfile,
    MIN_PACKET_SIZE,
    PAPER_DEFAULT_PROFILE,
    gbit_per_s,
    mb_per_s,
    mib,
    optimal_packet_size,
)


class TestUnits:
    def test_mb_per_s(self):
        assert mb_per_s(100) == 100e6

    def test_gbit_per_s(self):
        assert gbit_per_s(1) == pytest.approx(125e6)

    def test_mib(self):
        assert mib(64) == 64 * 1024 * 1024


class TestProfile:
    def test_paper_defaults(self):
        p = PAPER_DEFAULT_PROFILE
        assert p.chunk_size == mib(64)
        assert p.disk_bandwidth == mb_per_s(100)
        assert p.network_bandwidth == pytest.approx(gbit_per_s(1))

    def test_disk_and_network_times(self):
        p = BandwidthProfile(chunk_size=100, disk_bandwidth=50, network_bandwidth=25)
        assert p.disk_time == pytest.approx(2.0)
        assert p.network_time == pytest.approx(4.0)

    def test_with_(self):
        p = PAPER_DEFAULT_PROFILE.with_(disk_bandwidth=1.0)
        assert p.disk_bandwidth == 1.0
        assert p.chunk_size == PAPER_DEFAULT_PROFILE.chunk_size

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthProfile(chunk_size=0)
        with pytest.raises(ValueError):
            BandwidthProfile(disk_bandwidth=-1)


class TestEquations:
    """Hand-computed values at the paper's defaults (RS(9,6), M=100)."""

    model = AnalyticalModel(num_nodes=100, k=6)

    def test_eq4_migration_time(self):
        # t_m = 0.64 + 0.512 + 0.64 s for a 64 MiB chunk.
        c = mib(64)
        expected = c / mb_per_s(100) * 2 + c / gbit_per_s(1)
        assert self.model.migration_time() == pytest.approx(expected)

    def test_eq5_reconstruction_time_scattered(self):
        c = mib(64)
        expected = c / mb_per_s(100) * 2 + 6 * c / gbit_per_s(1)
        assert self.model.reconstruction_time() == pytest.approx(expected)

    def test_scattered_tr_independent_of_groups(self):
        assert self.model.reconstruction_time(groups=1) == pytest.approx(
            self.model.reconstruction_time(groups=16)
        )

    def test_eq6_hot_standby(self):
        model = AnalyticalModel(num_nodes=100, k=6, hot_standby=3)
        c = mib(64)
        G = 99 // 6
        expected = (
            c / mb_per_s(100)
            + (G * 6 / 3) * c / gbit_per_s(1)
            + (G / 3) * c / mb_per_s(100)
        )
        assert model.reconstruction_time() == pytest.approx(expected)

    def test_hot_standby_tr_grows_with_groups(self):
        model = AnalyticalModel(num_nodes=100, k=6, hot_standby=3)
        assert model.reconstruction_time(groups=16) > model.reconstruction_time(
            groups=4
        )

    def test_max_groups(self):
        assert self.model.max_groups() == 16
        assert AnalyticalModel(num_nodes=100, k=12).max_groups() == 8

    def test_max_groups_too_small(self):
        with pytest.raises(ValueError):
            AnalyticalModel(num_nodes=5, k=6).max_groups()

    def test_eq1_total_time_envelope(self):
        U = 1000
        t = self.model.total_time(0, U)
        assert t == pytest.approx(self.model.reactive_time(U))
        t_all_migrate = self.model.total_time(U, U)
        assert t_all_migrate == pytest.approx(self.model.migration_only_time(U))

    def test_eq1_rejects_bad_x(self):
        with pytest.raises(ValueError):
            self.model.total_time(-1, 10)
        with pytest.raises(ValueError):
            self.model.total_time(11, 10)

    def test_eq2_optimum_balances_both_sides(self):
        U = 1000
        x = self.model.optimal_migration_chunks(U)
        t_m = self.model.migration_time()
        t_r = self.model.reconstruction_time()
        G = self.model.max_groups()
        assert x * t_m == pytest.approx((U - x) / G * t_r)
        assert self.model.total_time(x, U) == pytest.approx(
            self.model.predictive_time(U)
        )

    def test_eq3_reactive(self):
        U = 320
        assert self.model.reactive_time(U) == pytest.approx(
            U * self.model.reconstruction_time() / 16
        )

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0, 1))
    def test_optimum_is_global_minimum(self, frac):
        U = 1000.0
        x = frac * U
        assert self.model.total_time(x, U) >= self.model.predictive_time(U) * (
            1 - 1e-9
        )


class TestPaperHeadlines:
    def test_rs_16_12_reduction_33_percent(self):
        model = AnalyticalModel(num_nodes=100, k=12)
        assert model.reduction_over_reactive() == pytest.approx(0.33, abs=0.03)

    def test_hot_standby_h3_reduction_41_percent(self):
        model = AnalyticalModel(num_nodes=100, k=6, hot_standby=3)
        assert model.reduction_over_reactive() == pytest.approx(0.41, abs=0.03)

    def test_predictive_always_beats_reactive(self):
        for k in (6, 10, 12):
            for M in (20, 50, 100):
                model = AnalyticalModel(num_nodes=M, k=k)
                assert model.predictive_time_per_chunk() < (
                    model.reactive_time_per_chunk()
                )

    def test_per_chunk_views_independent_of_u(self):
        model = AnalyticalModel(num_nodes=100, k=6)
        assert model.predictive_time(500) / 500 == pytest.approx(
            model.predictive_time_per_chunk()
        )


class TestLrcExtension:
    def test_k_prime_reduces_times(self):
        rs = AnalyticalModel(num_nodes=100, k=12)
        lrc = AnalyticalModel(num_nodes=100, k=12, k_prime=6)
        assert lrc.reconstruction_time() < rs.reconstruction_time()
        assert lrc.max_groups() > rs.max_groups()
        assert lrc.predictive_time_per_chunk() < rs.predictive_time_per_chunk()

    def test_repair_fanin(self):
        assert AnalyticalModel(num_nodes=100, k=12, k_prime=4).repair_fanin == 4
        assert AnalyticalModel(num_nodes=100, k=12).repair_fanin == 12


class TestValidation:
    def test_bad_nodes(self):
        with pytest.raises(ValueError):
            AnalyticalModel(num_nodes=1, k=1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            AnalyticalModel(num_nodes=10, k=0)

    def test_bad_hot_standby(self):
        with pytest.raises(ValueError):
            AnalyticalModel(num_nodes=10, k=2, hot_standby=0)

    def test_bad_k_prime(self):
        with pytest.raises(ValueError):
            AnalyticalModel(num_nodes=10, k=2, k_prime=0)


KIB = 1024

_chunks = st.integers(min_value=MIN_PACKET_SIZE, max_value=mib(256))
_rates = st.floats(min_value=1e5, max_value=1e12)
_speedups = st.floats(min_value=1.0, max_value=1e4)


class TestOptimalPacketSize:
    """The Experiment B.1 rule that replaces ``chunk/16``."""

    # (chunk, disk, nic) of the benchmarks/e2e rigs and of the Fig. 11
    # testbed, with the packet REPORT.md §fig11's sweeps found fastest
    # on each; the last row is the paper's own Section III profile.
    @pytest.mark.parametrize(
        "chunk, disk, nic, expected",
        [
            pytest.param(mib(1), 100e9, 125e9, 512 * KIB, id="unthrottled"),
            pytest.param(mib(1), 100e6, 10e6, 128 * KIB, id="nic10"),
            pytest.param(mib(1) // 4, 400e6, 40e6, 128 * KIB, id="nic40"),
            pytest.param(mib(2), 10e6, 44e6, 128 * KIB, id="fig11-testbed"),
            pytest.param(
                mib(64), mb_per_s(100), gbit_per_s(1), mib(2), id="paper"
            ),
        ],
    )
    def test_tabulated_rigs(self, chunk, disk, nic, expected):
        assert optimal_packet_size(BandwidthProfile(chunk, disk, nic)) == expected

    def test_fig11_rig_keeps_chunk_over_16(self):
        profile = BandwidthProfile(mib(2), 10e6, 44e6)
        assert optimal_packet_size(profile) == profile.chunk_size // 16

    @given(chunk=_chunks, disk=_rates, nic=_rates)
    def test_power_of_two_within_bounds(self, chunk, disk, nic):
        packet = optimal_packet_size(BandwidthProfile(chunk, disk, nic))
        assert MIN_PACKET_SIZE <= packet <= chunk
        assert packet & (packet - 1) == 0

    @given(
        chunk=_chunks, disk=_rates, nic=_rates,
        faster_disk=_speedups, faster_nic=_speedups, bigger=_speedups,
    )
    def test_monotone(self, chunk, disk, nic, faster_disk, faster_nic, bigger):
        base = BandwidthProfile(chunk, disk, nic)
        packet = optimal_packet_size(base)
        assert optimal_packet_size(
            base.with_(disk_bandwidth=disk * faster_disk)
        ) >= packet
        assert optimal_packet_size(
            base.with_(network_bandwidth=nic * faster_nic)
        ) >= packet
        assert optimal_packet_size(
            base.with_(chunk_size=int(chunk * bigger))
        ) >= packet

    def test_tiny_chunk_is_one_minimum_packet(self):
        assert optimal_packet_size(BandwidthProfile(1000, 1e9, 1e9)) == (
            MIN_PACKET_SIZE
        )

    def test_transport_limit_caps_the_choice(self):
        profile = BandwidthProfile(mib(1), 100e9, 125e9)
        assert optimal_packet_size(profile, max_packet=300 * KIB) == 256 * KIB
        assert optimal_packet_size(profile, max_packet=mib(8)) == 512 * KIB
