"""Extension bench: Algorithm 1 at disk scale (Experiment B.5 beyond 1,000 chunks).

The paper's C++ Algorithm 1 grows polynomially (0.84 s at 100 repaired
chunks, 254.63 s at 1,000), and Section IV-D bounds it by running the
algorithm per chunk group.  The finder's exact skips (count exits, the
F_i pruning of the swap phase, the matcher's reachability pre-check;
DESIGN.md's Algorithm 1 row) return the same sets in the same order,
so here the whole STF node is one group.  This bench records, against
the STF node's chunk count:

* the FastPR plan's seconds, up to 10^4 chunks at M = 20 and 100-500
  chunks at M = 100;
* the set count d: d_opt for the whole node (``group_size=None``)
  against d_opt per ``sim_group_size`` group, against d_ini (initial
  greedy only), against the parallelism bound ceil(|C| / floor((M-1)/k)).

The set counts are seeded and independent of the host, so they go to
``planner_scale.json``, which CI byte-compares with its committed copy;
the seconds are the host's and go to ``planner_scale_time.json``.
"""

import math
import time
from typing import Tuple

from conftest import run_once

from repro.bench.experiments import sim_group_size
from repro.bench.harness import Experiment, Panel
from repro.core.planner import FastPRPlanner
from repro.core.reconstruction_sets import ReconstructionSetFinder
from repro.sim.workload import SimulationConfig, fixed_stf_chunk_count

SWEEPS = {20: (100, 300, 1000, 3000, 10000), 100: (100, 200, 300, 400, 500)}
K = 6


def planner_scale() -> Tuple[Experiment, Experiment]:
    title = "Algorithm 1 at disk scale (B.5)"
    counts_exp = Experiment("planner_scale", title)
    times_exp = Experiment("planner_scale_time", title)
    for num_nodes, sizes in SWEEPS.items():
        group = sim_group_size(num_nodes, K)
        sets = Panel(
            f"M = {num_nodes} — reconstruction sets d "
            f"(groups of {group} chunks)",
            "# of STF chunks",
            ylabel="sets",
        )
        seconds = Panel(
            f"M = {num_nodes} — FastPR plan time",
            "# of STF chunks",
            ylabel="seconds",
        )
        for num_chunks in sizes:
            config = SimulationConfig(
                num_nodes=num_nodes,
                num_stripes=num_chunks,
                num_hot_standby=0,
                seed=7,
            )
            cluster, stf = fixed_stf_chunk_count(config, num_chunks)
            counts, times = {}, {}
            for label, group_size in (("whole_node", None), ("grouped", group)):
                planner = FastPRPlanner(seed=0, group_size=group_size)
                started = time.perf_counter()
                planner.plan(cluster, stf)
                times[label] = time.perf_counter() - started
                counts[label] = len(planner.last_stats.initial_sets_sizes)
            d_ini = len(
                ReconstructionSetFinder(cluster, stf, optimize=False).find_all()
            )
            sets.add_point(
                num_chunks,
                {
                    "d_opt": counts["whole_node"],
                    "d_opt_grouped": counts["grouped"],
                    "d_ini": d_ini,
                    "lower_bound": math.ceil(
                        num_chunks / ((num_nodes - 1) // K)
                    ),
                },
            )
            seconds.add_point(num_chunks, times)
        counts_exp.panels.append(sets)
        times_exp.panels.append(seconds)
    return counts_exp, times_exp


def test_planner_scale(benchmark, save_result):
    counts_exp, times_exp = run_once(benchmark, planner_scale)
    save_result(counts_exp)
    save_result(times_exp)

    for panel in counts_exp.panels:
        d_opt = panel.values_of("d_opt")
        for opt, grouped, ini, bound in zip(
            d_opt,
            panel.values_of("d_opt_grouped"),
            panel.values_of("d_ini"),
            panel.values_of("lower_bound"),
        ):
            assert bound <= opt <= ini, (panel.title, bound, opt, ini)
            assert opt <= grouped, (panel.title, opt, grouped)

    m20 = times_exp.panel("M = 20 — FastPR plan time")
    assert m20.xticks[-1] == "10000"
    # A whole 10^4-chunk node plans in well under a minute.
    assert m20.values_of("whole_node")[-1] < 60.0
