"""Reproductions of every figure in the paper's evaluation.

Each ``figN_*`` function regenerates the corresponding figure:

* Figures 2-3 — Section III mathematical analysis (closed form).
* Figures 8-10 — Section VI-A large-scale simulation (planners +
  discrete-event simulator).
* Figures 11-14 — Section VI-B testbed experiments, on the emulated
  local testbed (see DESIGN.md for the EC2 substitution and scaling).
* Figure 15 — Algorithm 1 microbenchmarks.

Scaling notes (also in EXPERIMENTS.md):

* Simulations default to 400 stripes instead of the paper's 1,000 and
  average fewer runs; Figure 10 (both the paper's and ours) shows the
  stripe count stops mattering past ~400.
* Testbed runs scale 64 MB chunks to 256 KiB and EC2's measured
  142 MB/s disk / 5 Gb/s network to 25 MB/s / 110 MB/s — the same
  bn/bd ratio — so every run finishes in seconds while preserving the
  bottleneck structure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.cluster import StorageCluster
from ..core.analysis import (
    AnalyticalModel,
    BandwidthProfile,
    gbit_per_s,
    mb_per_s,
    mib,
)
from ..core.plan import RepairScenario
from ..core.planner import (
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
    model_for,
)
from ..core.reconstruction_sets import ReconstructionSetFinder
from ..ec.codec import make_codec
from ..runtime.testbed import EmulatedTestbed
from ..sim.cost_model import evaluate_plan
from ..sim.workload import (
    SimulationConfig,
    build_cluster_with_stf,
    fixed_stf_chunk_count,
)
from .harness import Experiment, Panel, average_runs

OPTIMUM = "optimum"
FASTPR = "fastpr"
RECONSTRUCTION = "reconstruction"
MIGRATION = "migration"

#: paper's coding schemes: QFS, Facebook f4, Azure.
PAPER_CODES: Tuple[Tuple[int, int], ...] = ((9, 6), (14, 10), (16, 12))

#: simulations: fewer stripes/runs than the paper (see module docstring).
DEFAULT_SIM_STRIPES = 400
DEFAULT_SIM_RUNS = 3

#: testbed: fewer averaged runs than the paper's five.
DEFAULT_TESTBED_RUNS = 2


# ----------------------------------------------------------------------
# Figures 2-3: mathematical analysis
# ----------------------------------------------------------------------


def fig2_math_scattered() -> Experiment:
    """Figure 2: analysis of scattered repair (4 panels)."""
    exp = Experiment("fig2", "Mathematical analysis in scattered repair")

    panel = Panel("Fig 2(a) — varying M", "# of nodes")
    for num_nodes in range(20, 101, 10):
        model = AnalyticalModel(num_nodes=num_nodes, k=6)
        panel.add_point(num_nodes, _analysis_point(model))
    exp.panels.append(panel)

    panel = Panel("Fig 2(b) — varying RS(n,k)", "erasure code")
    for n, k in PAPER_CODES:
        model = AnalyticalModel(num_nodes=100, k=k)
        panel.add_point(f"RS({n},{k})", _analysis_point(model))
    exp.panels.append(panel)

    panel = Panel("Fig 2(c) — varying disk bandwidth", "bd (MB/s)")
    for bd in (100, 200, 300, 400, 500):
        profile = BandwidthProfile(disk_bandwidth=mb_per_s(bd))
        model = AnalyticalModel(num_nodes=100, k=6, profile=profile)
        panel.add_point(bd, _analysis_point(model))
    exp.panels.append(panel)

    panel = Panel("Fig 2(d) — varying network bandwidth", "bn (Gb/s)")
    for bn in (0.5, 1, 2, 5, 10):
        profile = BandwidthProfile(network_bandwidth=gbit_per_s(bn))
        model = AnalyticalModel(num_nodes=100, k=6, profile=profile)
        panel.add_point(bn, _analysis_point(model))
    exp.panels.append(panel)
    return exp


def fig3_math_hotstandby() -> Experiment:
    """Figure 3: analysis of hot-standby repair (2 panels)."""
    exp = Experiment("fig3", "Mathematical analysis in hot-standby repair")

    panel = Panel("Fig 3(a) — varying M", "# of nodes")
    for num_nodes in range(20, 101, 10):
        model = AnalyticalModel(num_nodes=num_nodes, k=6, hot_standby=3)
        panel.add_point(num_nodes, _analysis_point(model))
    exp.panels.append(panel)

    panel = Panel("Fig 3(b) — varying h", "# of hot-standby nodes")
    for h in range(3, 10):
        model = AnalyticalModel(num_nodes=100, k=6, hot_standby=h)
        panel.add_point(h, _analysis_point(model))
    exp.panels.append(panel)
    return exp


def _analysis_point(model: AnalyticalModel) -> Dict[str, float]:
    return {
        "predictive": model.predictive_time_per_chunk(),
        "reactive": model.reactive_time_per_chunk(),
    }


# ----------------------------------------------------------------------
# Figures 8-10: large-scale simulation
# ----------------------------------------------------------------------


def sim_group_size(num_nodes: int, k: int) -> int:
    """Chunk-group size for Algorithm 1 in simulations (Section IV-D).

    Four rounds' worth of maximum parallelism keeps set quality while
    bounding Algorithm 1's polynomial blow-up at small M (large |C|).
    """
    return max(4 * ((num_nodes - 1) // k), 24)


def simulate_point(
    config: SimulationConfig,
    scenario: RepairScenario,
    runs: int = DEFAULT_SIM_RUNS,
    include_migration: bool = True,
) -> Dict[str, float]:
    """Average per-chunk repair times of all approaches at one config."""
    labels = [OPTIMUM, FASTPR, RECONSTRUCTION] + (
        [MIGRATION] if include_migration else []
    )
    acc: Dict[str, List[float]] = {label: [] for label in labels}
    base_seed = config.seed if config.seed is not None else 0
    for run in range(runs):
        cfg = config.with_(seed=base_seed + 101 * run)
        cluster, stf = build_cluster_with_stf(cfg)
        group = sim_group_size(cfg.num_nodes, cfg.k)
        planners = [
            FastPRPlanner(scenario=scenario, seed=run, group_size=group),
            ReconstructionOnlyPlanner(scenario=scenario, seed=run, group_size=group),
        ]
        if include_migration:
            planners.append(MigrationOnlyPlanner(scenario=scenario))
        for planner in planners:
            plan = planner.plan(cluster, stf)
            result = evaluate_plan(cluster, plan)
            acc[planner.name].append(result.time_per_chunk)
        model = model_for(cluster, scenario, cfg.k)
        acc[OPTIMUM].append(model.predictive_time_per_chunk())
    return {label: average_runs(values) for label, values in acc.items()}


def fig8_sim_scattered(
    runs: int = DEFAULT_SIM_RUNS, num_stripes: int = DEFAULT_SIM_STRIPES
) -> Experiment:
    """Figure 8 / Experiment A.1: simulated scattered repair."""
    exp = Experiment("fig8", "Simulation: scattered repair (Experiment A.1)")
    base = SimulationConfig(num_stripes=num_stripes, seed=11)
    scenario = RepairScenario.SCATTERED

    panel = Panel("Fig 8(a) — varying M", "# of nodes")
    for num_nodes in (20, 40, 60, 80, 100):
        cfg = base.with_(num_nodes=num_nodes)
        panel.add_point(num_nodes, simulate_point(cfg, scenario, runs))
    exp.panels.append(panel)

    panel = Panel("Fig 8(b) — varying RS(n,k)", "erasure code")
    for n, k in PAPER_CODES:
        cfg = base.with_(n=n, k=k)
        panel.add_point(f"RS({n},{k})", simulate_point(cfg, scenario, runs))
    exp.panels.append(panel)

    panel = Panel("Fig 8(c) — varying disk bandwidth", "bd (MB/s)")
    for bd in (100, 200, 300, 400, 500):
        cfg = base.with_(disk_bandwidth=mb_per_s(bd))
        panel.add_point(bd, simulate_point(cfg, scenario, runs))
    exp.panels.append(panel)

    panel = Panel("Fig 8(d) — varying network bandwidth", "bn (Gb/s)")
    for bn in (0.5, 1, 2, 5, 10):
        cfg = base.with_(network_bandwidth=gbit_per_s(bn))
        panel.add_point(bn, simulate_point(cfg, scenario, runs))
    exp.panels.append(panel)
    return exp


def fig9_sim_hotstandby(
    runs: int = DEFAULT_SIM_RUNS, num_stripes: int = DEFAULT_SIM_STRIPES
) -> Experiment:
    """Figure 9 / Experiment A.2: simulated hot-standby repair."""
    exp = Experiment("fig9", "Simulation: hot-standby repair (Experiment A.2)")
    base = SimulationConfig(num_stripes=num_stripes, seed=23)
    scenario = RepairScenario.HOT_STANDBY

    panel = Panel("Fig 9(a) — varying M", "# of nodes")
    for num_nodes in (20, 40, 60, 80, 100):
        cfg = base.with_(num_nodes=num_nodes)
        panel.add_point(num_nodes, simulate_point(cfg, scenario, runs))
    exp.panels.append(panel)

    panel = Panel("Fig 9(b) — varying h", "# of hot-standby nodes")
    for h in range(3, 10):
        cfg = base.with_(num_hot_standby=h)
        panel.add_point(h, simulate_point(cfg, scenario, runs))
    exp.panels.append(panel)
    return exp


def fig10_stripes(runs: int = DEFAULT_SIM_RUNS) -> Experiment:
    """Figure 10 / Experiment A.3: impact of the number of stripes."""
    exp = Experiment("fig10", "Simulation: impact of the number of stripes")
    for scenario, title in (
        (RepairScenario.SCATTERED, "Fig 10(a) — scattered repair"),
        (RepairScenario.HOT_STANDBY, "Fig 10(b) — hot-standby repair"),
    ):
        panel = Panel(title, "# of stripes")
        for num_stripes in (200, 400, 600, 800, 1000):
            cfg = SimulationConfig(num_stripes=num_stripes, seed=37)
            point = simulate_point(cfg, scenario, runs, include_migration=False)
            panel.add_point(
                num_stripes,
                {OPTIMUM: point[OPTIMUM], FASTPR: point[FASTPR]},
            )
        exp.panels.append(panel)
    return exp


# ----------------------------------------------------------------------
# Figures 11-14: emulated testbed
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TestbedConfig:
    """Scaled-down counterpart of the paper's EC2 deployment.

    The paper: 21 storage instances + 3 hot-standbys, RS(9,6), 64 MB
    chunks, 4 MB packets, 142 MB/s disk, 5 Gb/s network, STF node fixed
    at 50 chunks.  Scaled: 2 MiB chunks (1/32), bandwidths reduced to
    keep runs in seconds while preserving the EC2 network/disk ratio
    bn/bd ≈ 4.4, and 10 STF chunks.  The chunk size is kept large
    enough that emulated transfer times dominate Python's per-packet
    overhead (smaller scales invert the Experiment B.1 pipelining
    effect and penalize high-fan-in reconstruction).
    """

    num_nodes: int = 21
    num_hot_standby: int = 3
    stf_chunks: int = 10
    extra_stripes: int = 20
    n: int = 9
    k: int = 6
    chunk_size: int = 2 * 1024 * 1024
    #: the paper's 4 MB at 1/32 scale; None lets the testbed choose
    packet_size: Optional[int] = 128 * 1024
    disk_bandwidth: float = 10e6  # stands in for EC2's 142 MB/s
    network_bandwidth: float = 44e6  # stands in for EC2's 5 Gb/s
    seed: int = 0

    def with_(self, **kwargs) -> "TestbedConfig":
        return replace(self, **kwargs)


def testbed_point(
    config: TestbedConfig,
    scenario: RepairScenario,
    runs: int = DEFAULT_TESTBED_RUNS,
    packet_size: Optional[int] = None,
    verify: bool = True,
) -> Dict[str, float]:
    """Average per-chunk wall-clock repair times on the emulated testbed."""
    acc: Dict[str, List[float]] = {
        FASTPR: [],
        RECONSTRUCTION: [],
        MIGRATION: [],
    }
    for run in range(runs):
        sim_cfg = SimulationConfig(
            num_nodes=config.num_nodes,
            num_stripes=config.stf_chunks + config.extra_stripes,
            n=config.n,
            k=config.k,
            num_hot_standby=config.num_hot_standby,
            chunk_size=config.chunk_size,
            disk_bandwidth=config.disk_bandwidth,
            network_bandwidth=config.network_bandwidth,
            seed=config.seed + 97 * run,
        )
        cluster, stf = fixed_stf_chunk_count(sim_cfg, config.stf_chunks)
        codec = make_codec(f"rs({config.n},{config.k})")
        planners = [
            FastPRPlanner(scenario=scenario, seed=run),
            ReconstructionOnlyPlanner(scenario=scenario, seed=run),
            MigrationOnlyPlanner(scenario=scenario),
        ]
        with EmulatedTestbed(
            cluster,
            codec,
            packet_size=config.packet_size,
        ) as testbed:
            testbed.load_random_data(seed=sim_cfg.seed)
            for planner in planners:
                plan = planner.plan(cluster, stf)
                result = testbed.execute(plan, packet_size=packet_size)
                if verify:
                    testbed.verify_plan(plan)
                acc[planner.name].append(result.time_per_chunk)
    return {label: average_runs(values) for label, values in acc.items()}


def _both_scenarios(
    title_prefix: str,
    xlabel: str,
    points: Sequence[Tuple[str, TestbedConfig, Optional[int]]],
    runs: int,
) -> List[Panel]:
    panels = []
    for scenario, suffix in (
        (RepairScenario.SCATTERED, "scattered repair"),
        (RepairScenario.HOT_STANDBY, "hot-standby repair"),
    ):
        panel = Panel(f"{title_prefix} — {suffix}", xlabel)
        for xtick, config, packet_override in points:
            panel.add_point(
                xtick, testbed_point(config, scenario, runs, packet_override)
            )
        panels.append(panel)
    return panels


def fig11_packet_size(runs: int = DEFAULT_TESTBED_RUNS) -> Experiment:
    """Figure 11 / Experiment B.1: impact of the packet size.

    The paper's 1/4/16/64 MB packets map to chunk/64, chunk/16,
    chunk/4 and chunk-sized packets (64 MB packets = no pipelining).
    The ``auto`` point passes no packet size at all, so it shows where
    :func:`~repro.core.analysis.optimal_packet_size` lands on the curve.
    """
    exp = Experiment("fig11", "Testbed: impact of the packet size (B.1)")
    config = TestbedConfig()
    chunk = config.chunk_size
    points = [
        (label, config, packet)
        for label, packet in (
            ("1MB(scaled)", chunk // 64),
            ("4MB(scaled)", chunk // 16),
            ("16MB(scaled)", chunk // 4),
            ("64MB(scaled)", chunk),
        )
    ]
    points.append(("auto", config.with_(packet_size=None), None))
    exp.panels.extend(_both_scenarios("Fig 11", "packet size", points, runs))
    return exp


def fig12_chunk_size(runs: int = DEFAULT_TESTBED_RUNS) -> Experiment:
    """Figure 12 / Experiment B.2: impact of the chunk size.

    32/64/128 MB chunks map to 128/256/512 KiB at the 1/256 scale; the
    packet size stays fixed (the paper fixes 4 MB).
    """
    exp = Experiment("fig12", "Testbed: impact of the chunk size (B.2)")
    base = TestbedConfig()
    points = [
        (label, base.with_(chunk_size=size), None)
        for label, size in (
            ("32MB(scaled)", 1024 * 1024),
            ("64MB(scaled)", 2048 * 1024),
            ("128MB(scaled)", 4096 * 1024),
        )
    ]
    exp.panels.extend(_both_scenarios("Fig 12", "chunk size", points, runs))
    return exp


def fig13_codes(runs: int = DEFAULT_TESTBED_RUNS) -> Experiment:
    """Figure 13 / Experiment B.3: impact of different erasure codes."""
    exp = Experiment("fig13", "Testbed: impact of erasure codes (B.3)")
    base = TestbedConfig()
    points = [
        (f"RS({n},{k})", base.with_(n=n, k=k), None) for n, k in PAPER_CODES
    ]
    exp.panels.extend(_both_scenarios("Fig 13", "erasure code", points, runs))
    return exp


def fig14_bandwidth(runs: int = DEFAULT_TESTBED_RUNS) -> Experiment:
    """Figure 14 / Experiment B.4: impact of network bandwidth.

    EC2's 0.5/1/5 Gb/s map to 4.4/8.8/44 MB/s emulated rates (same
    ratios to the emulated disk bandwidth as on EC2).
    """
    exp = Experiment("fig14", "Testbed: impact of network bandwidth (B.4)")
    base = TestbedConfig()
    points = [
        ("0.5Gb/s(scaled)", base.with_(network_bandwidth=4.4e6), None),
        ("1Gb/s(scaled)", base.with_(network_bandwidth=8.8e6), None),
        ("5Gb/s(scaled)", base.with_(network_bandwidth=44e6), None),
    ]
    exp.panels.extend(
        _both_scenarios("Fig 14", "network bandwidth", points, runs)
    )
    return exp


# ----------------------------------------------------------------------
# Figure 15: Algorithm 1 microbenchmarks
# ----------------------------------------------------------------------


def fig15_microbench(
    sizes: Sequence[int] = (20, 40, 60, 80, 100),
    runs: int = 3,
) -> Experiment:
    """Figure 15 / Experiment B.5: Algorithm 1 microbenchmarks.

    Panel (a): reduction of d_opt (with swap optimization) over d_ini
    (initial greedy only).  Panel (b): Algorithm 1 running time.  The
    paper sweeps 100-1,000 repaired chunks with its C++ prototype; the
    Python sweep is scaled to 20-100 chunks (the growth shape, not the
    absolute times, is the comparable quantity).
    """
    exp = Experiment("fig15", "Microbenchmarks of Algorithm 1 (B.5)")
    panel_a = Panel(
        "Fig 15(a) — reduction of d_opt over d_ini",
        "# of repaired chunks",
        ylabel="reduction fraction",
    )
    panel_b = Panel(
        "Fig 15(b) — running time of Algorithm 1",
        "# of repaired chunks",
        ylabel="seconds",
    )
    for num_chunks in sizes:
        reductions: List[float] = []
        timings: List[float] = []
        for run in range(runs):
            cfg = SimulationConfig(
                num_nodes=100,
                num_stripes=num_chunks + 200,
                seed=13 + 97 * run,
            )
            cluster, stf = fixed_stf_chunk_count(cfg, num_chunks)
            finder_ini = ReconstructionSetFinder(cluster, stf, optimize=False)
            d_ini = len(finder_ini.find_all())
            finder_opt = ReconstructionSetFinder(cluster, stf, optimize=True)
            started = time.perf_counter()
            d_opt = len(finder_opt.find_all())
            timings.append(time.perf_counter() - started)
            reductions.append(1.0 - d_opt / d_ini)
        panel_a.add_point(num_chunks, {"reduction": average_runs(reductions)})
        panel_b.add_point(num_chunks, {"algorithm1": average_runs(timings)})
    exp.panels.append(panel_a)
    exp.panels.append(panel_b)
    return exp


def hotpath_codec(
    batches: Sequence[int] = (1, 4, 16, 64),
    chunk_bytes: int = 4096,
    scheme: str = "rs(9,6)",
    repeats: int = 3,
) -> Experiment:
    """Batched codec hot path vs the per-stripe loop it replaced.

    Sweeps the stripe batch size at a fixed chunk size and reports
    encode/decode throughput (MB of source data per second) for the
    old per-stripe calls against ``encode_batch``/``decode_batch``.
    The batched entry points fold the whole window into one wide
    GF(256) matrix product (DESIGN.md §13).  Small chunks are the
    interesting regime: a 4 KiB region costs the kernel well under a
    microsecond, so the per-stripe loop is all per-call overhead and
    only the widened batch is kernel-bound.
    """
    import random

    codec = make_codec(scheme)
    rng = random.Random(7)
    exp = Experiment(
        "hotpath_codec", f"Batched vs per-stripe codec hot path [{scheme}]"
    )
    panel_enc = Panel(
        "Encode — per-stripe loop vs encode_batch",
        "stripes per batch",
        ylabel="MB/s of source data",
    )
    panel_dec = Panel(
        "Decode (1 lost chunk) — per-stripe loop vs decode_batch",
        "stripes per batch",
        ylabel="MB/s of helper data",
    )
    mb = 1024 * 1024

    def best(fn) -> float:
        elapsed = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            elapsed = min(elapsed, time.perf_counter() - started)
        return elapsed

    for batch in batches:
        stripes = [
            [rng.randbytes(chunk_bytes) for _ in range(codec.k)]
            for _ in range(batch)
        ]
        data_mb = batch * codec.k * chunk_bytes / mb
        t_loop = best(lambda: [codec.encode(s) for s in stripes])
        t_batch = best(lambda: codec.encode_batch(stripes))
        panel_enc.add_point(
            batch,
            {"per_stripe": data_mb / t_loop, "batched": data_mb / t_batch},
        )

        coded = codec.encode_batch(stripes)
        # predictive repair's common case: one failed chunk, identical
        # erasure set across the window, k helpers per stripe.
        available = [
            {i: chunks[i] for i in range(1, codec.n)} for chunks in coded
        ]
        wanted = [0]
        t_loop = best(lambda: [codec.decode(a, wanted) for a in available])
        t_batch = best(lambda: codec.decode_batch(available, wanted))
        panel_dec.add_point(
            batch,
            {"per_stripe": data_mb / t_loop, "batched": data_mb / t_batch},
        )
    exp.panels.append(panel_enc)
    exp.panels.append(panel_dec)
    return exp


#: registry used by the CLI and the bench files
ALL_EXPERIMENTS = {
    "fig2": fig2_math_scattered,
    "fig3": fig3_math_hotstandby,
    "fig8": fig8_sim_scattered,
    "fig9": fig9_sim_hotstandby,
    "fig10": fig10_stripes,
    "fig11": fig11_packet_size,
    "fig12": fig12_chunk_size,
    "fig13": fig13_codes,
    "fig14": fig14_bandwidth,
    "fig15": fig15_microbench,
    "hotpath_codec": hotpath_codec,
}
