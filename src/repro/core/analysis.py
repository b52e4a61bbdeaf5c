"""Section III: mathematical analysis of predictive repair.

Implements Equations (1)-(6) of the paper verbatim:

* Eq. (4): per-chunk migration time
  ``t_m = c/b_d + c/b_n + c/b_d``;
* Eq. (5): per-chunk reconstruction time, scattered repair
  ``t_r = c/b_d + k*c/b_n + c/b_d``;
* Eq. (6): per-chunk reconstruction time, hot-standby repair
  ``t_r = c/b_d + G*k*c/(h*b_n) + G*c/(h*b_d)``;
* Eq. (1): ``T(x) = max(x*t_m, (U-x)/G * t_r)``;
* Eq. (2): optimal predictive time ``T_P = U*t_r*t_m / (G*t_m + t_r)``;
* Eq. (3): reactive time ``T_R = U*t_r/G``.

The LRC extension (Section III, last paragraph) is supported by the
``k_prime`` parameter: substitute ``G' <= (M-1)/k'`` and ``k'`` into
the equations.

Bandwidths are bytes/second and the chunk size is bytes; the module
exposes :func:`mb_per_s`, :func:`gbit_per_s` and :func:`mib` helpers to
write configurations in the paper's units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


def mb_per_s(x: float) -> float:
    """Megabytes/second -> bytes/second (the paper's disk unit)."""
    return x * 1e6


def gbit_per_s(x: float) -> float:
    """Gigabits/second -> bytes/second (the paper's network unit)."""
    return x * 1e9 / 8.0


def mib(x: float) -> int:
    """Mebibytes -> bytes (chunk sizes: 64 MB chunks are 64 MiB)."""
    return int(x * 1024 * 1024)


@dataclass(frozen=True)
class BandwidthProfile:
    """Cluster resource parameters of the analysis (Section III).

    Attributes:
        chunk_size: chunk size ``c`` in bytes.
        disk_bandwidth: per-node disk bandwidth ``b_d`` in bytes/s.
        network_bandwidth: per-node network bandwidth ``b_n`` in bytes/s.
    """

    chunk_size: int = mib(64)
    disk_bandwidth: float = mb_per_s(100)
    network_bandwidth: float = gbit_per_s(1)

    def __post_init__(self):
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.disk_bandwidth <= 0 or self.network_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")

    def with_(self, **kwargs) -> "BandwidthProfile":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)

    @property
    def disk_time(self) -> float:
        """Time to read or write one chunk from/to disk, c/b_d."""
        return self.chunk_size / self.disk_bandwidth

    @property
    def network_time(self) -> float:
        """Time to move one chunk over one NIC, c/b_n."""
        return self.chunk_size / self.network_bandwidth


#: Default configuration of the paper's analysis (Section III):
#: M=100, U=1000, c=64MB, b_d=100MB/s, b_n=1Gb/s, RS(9,6), h=3.
PAPER_DEFAULT_PROFILE = BandwidthProfile()


#: Critical-path seconds one more packet per stream adds to a repair
#: round, and the rate of the stage every packet crosses in memory
#: whatever the devices are (the chunk reads, two CRC32s, a star
#: destination's k GF accumulations, the staged writes — behind a
#: read-ahead and a staging-writer thread once a chunk is cut into
#: packets — all agents of a host sharing one interpreter).  Measured,
#: not derived: ``PACKET_COST`` is the least-squares fit of ``T(p)``
#: below to the end-to-end sweep of the unthrottled in-memory rig
#: (``make packet-sweep WORKLOAD=drain-cpu-mem``; REPORT.md §fig11 has
#: the table it was read off).  ``MEMORY_BANDWIDTH`` is the 173 MB/s
#: that sweep fitted once the GF math was native, with the two CRC32
#: passes the native fold then took off the stage (≈ 0.8 ns a byte):
#: since then the sweep's optimum is the whole 1 MiB chunk, so there
#: is no interior optimum left to fit (DESIGN.md §13).
PACKET_COST = 3.0e-3
MEMORY_BANDWIDTH = 200e6
#: No packet is smaller than this, whatever the devices are.
MIN_PACKET_SIZE = 4096


def optimal_packet_size(
    profile: BandwidthProfile, max_packet: Optional[int] = None
) -> int:
    """Transfer granularity that minimises a round's pipelined time.

    The paper's Experiment B.1 trade: a stream of ``c/p`` packets pays
    :data:`PACKET_COST` per packet, and its first packet crosses source
    disk, link, memory and destination disk one after the other before
    the stages overlap, so a round takes::

        T(p) = (c/p) * PACKET_COST + p * (2/b_d + 1/b_n + 1/b_mem) + const

    which is least at ``p* = sqrt(PACKET_COST * c / (2/b_d + 1/b_n +
    1/b_mem))``.  ``p*`` is rounded to the nearest power of two and
    clamped to ``[MIN_PACKET_SIZE, c]`` — and to ``max_packet``, the
    largest payload the transport can carry in one frame, when given.
    Non-decreasing in the chunk size and in every bandwidth.
    """
    fill = (
        2.0 / profile.disk_bandwidth
        + 1.0 / profile.network_bandwidth
        + 1.0 / MEMORY_BANDWIDTH
    )
    ideal = (PACKET_COST * profile.chunk_size / fill) ** 0.5
    packet = _floor_power_of_two(ideal)
    if ideal * ideal > 2.0 * packet * packet:  # nearer 2p on a log scale
        packet *= 2
    ceiling = profile.chunk_size
    if max_packet is not None:
        ceiling = min(ceiling, max_packet)
    return max(min(packet, _floor_power_of_two(ceiling)), MIN_PACKET_SIZE)


def _floor_power_of_two(x: float) -> int:
    """Largest power of two <= max(x, 1)."""
    return 1 << (max(int(x), 1).bit_length() - 1)


@dataclass(frozen=True)
class AnalyticalModel:
    """Closed-form repair-time model for one STF node.

    Args:
        num_nodes: cluster size ``M`` (storage nodes incl. the STF one).
        k: reconstruction fan-in of the code (RS: ``k``).
        profile: bandwidth/chunk-size parameters.
        hot_standby: number of hot-standby nodes ``h``; ``None`` selects
            the scattered-repair equations.
        k_prime: repair fan-in override for repair-efficient codes
            (LRC: ``k/l``; MSR: ``d``); defaults to ``k``.
        traffic_fraction: fraction of a chunk each helper transmits.
            1.0 for RS and LRC (helpers send whole chunks); ``1/α``
            for MSR codes whose helpers send one sub-symbol (the
            paper's "amount of repair traffic is less than the total
            size of k chunks" family).
    """

    num_nodes: int
    k: int
    profile: BandwidthProfile = PAPER_DEFAULT_PROFILE
    hot_standby: Optional[int] = None
    k_prime: Optional[int] = None
    traffic_fraction: float = 1.0

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.hot_standby is not None and self.hot_standby < 1:
            raise ValueError("hot_standby must be >= 1 when set")
        if self.k_prime is not None and self.k_prime < 1:
            raise ValueError("k_prime must be >= 1 when set")
        if not 0 < self.traffic_fraction <= 1:
            raise ValueError("traffic_fraction must be in (0, 1]")

    @property
    def repair_fanin(self) -> int:
        """Chunks read per reconstruction: k, or k' for LRC-style codes."""
        return self.k_prime if self.k_prime is not None else self.k

    @classmethod
    def for_codec(
        cls,
        codec,
        num_nodes: int,
        profile: BandwidthProfile = PAPER_DEFAULT_PROFILE,
        hot_standby: Optional[int] = None,
    ) -> "AnalyticalModel":
        """Model parameterized by a codec's cheapest repair recipe.

        Works for RS (k helpers, whole chunks), LRC (a local repair's
        k' = k/l helpers, whole chunks) and MSR (d helpers, 1/α of a
        chunk each).
        """
        recipe = min(
            map(codec.repair_recipe, range(codec.n)), key=lambda r: r.fanin
        )
        return cls(
            num_nodes=num_nodes,
            k=codec.k,
            profile=profile,
            hot_standby=hot_standby,
            k_prime=recipe.fanin,
            traffic_fraction=recipe.traffic,
        )

    @property
    def is_hot_standby(self) -> bool:
        return self.hot_standby is not None

    def max_groups(self) -> int:
        """Maximum parallel reconstruction groups G = floor((M-1)/k')."""
        groups = (self.num_nodes - 1) // self.repair_fanin
        if groups < 1:
            raise ValueError(
                f"cluster too small: M-1={self.num_nodes - 1} < k={self.repair_fanin}"
            )
        return groups

    # -- Eq. (4) -------------------------------------------------------
    def migration_time(self) -> float:
        """Per-chunk migration time t_m (read + transmit + write)."""
        p = self.profile
        return p.disk_time + p.network_time + p.disk_time

    # -- Eq. (5)/(6) ---------------------------------------------------
    def reconstruction_time(self, groups: Optional[int] = None) -> float:
        """Per-round reconstruction time t_r for ``groups`` parallel groups.

        For scattered repair t_r does not depend on the number of
        groups (Eq. 5); for hot-standby repair the standby nodes'
        ingest makes it grow with G (Eq. 6).
        """
        p = self.profile
        traffic = self.repair_fanin * self.traffic_fraction
        if not self.is_hot_standby:
            return p.disk_time + traffic * p.network_time + p.disk_time
        G = self.max_groups() if groups is None else groups
        h = self.hot_standby
        return (
            p.disk_time
            + (G * traffic / h) * p.network_time
            + (G / h) * p.disk_time
        )

    # -- Eq. (1) -------------------------------------------------------
    def total_time(self, x: float, total_chunks: float) -> float:
        """T(x): repair time when ``x`` chunks migrate and the rest
        reconstruct, both running in parallel."""
        if not 0 <= x <= total_chunks:
            raise ValueError(f"x={x} outside [0, U={total_chunks}]")
        G = self.max_groups()
        t_m = self.migration_time()
        t_r = self.reconstruction_time()
        return max(x * t_m, (total_chunks - x) / G * t_r)

    def optimal_migration_chunks(self, total_chunks: float) -> float:
        """The x that minimizes T(x): x = U*t_r / (G*t_m + t_r)."""
        G = self.max_groups()
        t_m = self.migration_time()
        t_r = self.reconstruction_time()
        return total_chunks * t_r / (G * t_m + t_r)

    # -- Eq. (2) -------------------------------------------------------
    def predictive_time(self, total_chunks: float) -> float:
        """Optimal predictive repair time T_P = U*t_r*t_m/(G*t_m + t_r)."""
        G = self.max_groups()
        t_m = self.migration_time()
        t_r = self.reconstruction_time()
        return total_chunks * t_r * t_m / (G * t_m + t_r)

    # -- Eq. (3) -------------------------------------------------------
    def reactive_time(self, total_chunks: float) -> float:
        """Reactive (reconstruction-only) repair time T_R = U*t_r/G."""
        G = self.max_groups()
        return total_chunks * self.reconstruction_time() / G

    def migration_only_time(self, total_chunks: float) -> float:
        """Migration-only repair time U * t_m (sequential off one node)."""
        return total_chunks * self.migration_time()

    # -- per-chunk views (what the paper's figures plot) ----------------
    def predictive_time_per_chunk(self) -> float:
        """T_P / U — independent of U."""
        return self.predictive_time(1.0)

    def reactive_time_per_chunk(self) -> float:
        """T_R / U — independent of U."""
        return self.reactive_time(1.0)

    def migration_only_time_per_chunk(self) -> float:
        return self.migration_time()

    def reduction_over_reactive(self) -> float:
        """Fractional repair-time reduction of predictive vs reactive.

        The paper quotes e.g. 33.1% for RS(16,12) scattered and 41.3%
        for h=3 hot-standby.
        """
        reactive = self.reactive_time_per_chunk()
        predictive = self.predictive_time_per_chunk()
        return 1.0 - predictive / reactive
