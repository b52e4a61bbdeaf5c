"""Figure 15 / Experiment B.5: Algorithm 1 microbenchmarks.

Paper claims reproduced here:

* the swap-optimization phase reduces the number of reconstruction
  sets: d_opt < d_ini on average (paper: ~13% fewer);
* Algorithm 1's running time grows polynomially with the number of
  repaired chunks (the paper's C++ run goes 0.84 s -> 254.63 s over
  100 -> 1,000 chunks; our Python sweep is scaled to 40-120 chunks and
  asserts the superlinear growth shape on the matcher's step count,
  which, unlike seconds, does not move with the host's load).
"""

from conftest import run_once

from repro.bench.experiments import fig15_microbench
from repro.bench.harness import Experiment

SIZES = (40, 80, 120)
RUNS = 2


def test_fig15_microbench(benchmark, save_result):
    exp = run_once(benchmark, fig15_microbench, sizes=SIZES, runs=RUNS)
    panel_a = exp.panel("Fig 15(a) — reduction of d_opt over d_ini")
    panel_b = exp.panel("Fig 15(b) — running time of Algorithm 1")
    panel_c = exp.panel("Fig 15(c) — matcher steps of Algorithm 1")
    # Panels (a) and (c) are seeded counts, panel (b) the host's
    # seconds: one file each, so CI can byte-compare fig15.json with
    # its committed copy.
    save_result(Experiment(exp.experiment_id, exp.title, [panel_a, panel_c]))
    save_result(Experiment("fig15_time", exp.title, [panel_b]))

    reductions = panel_a.values_of("reduction")
    assert all(r >= 0 for r in reductions), "optimization never hurts"
    assert max(reductions) > 0.0, "optimization should help somewhere"
    mean_reduction = sum(reductions) / len(reductions)
    assert mean_reduction > 0.02, f"mean reduction {mean_reduction:.1%}"

    steps = panel_c.values_of("matcher_steps")
    # Superlinear growth: tripling |C| should cost far more than 3x.
    assert steps[-1] > steps[0] * 6, (
        f"expected superlinear growth, got {steps}"
    )
