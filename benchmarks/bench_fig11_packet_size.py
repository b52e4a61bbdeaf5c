"""Figure 11 / Experiment B.1: impact of the packet size (testbed).

Paper claims reproduced here:

* multi-threaded packet pipelining cuts repair time: chunk-sized
  packets (no pipelining) are slower than small packets (paper: 31.4%
  reduction from 64 MB to 4 MB packets for FastPR);
* FastPR beats both baselines at every packet size.

Ours, not the paper's: the ``auto`` point (no packet size given, so
``repro.core.analysis.optimal_packet_size`` chooses) sits on the
figure's minimum.
"""

from conftest import run_once

from repro.bench.experiments import fig11_packet_size

RUNS = 1


def test_fig11_packet_size(benchmark, save_result):
    exp = run_once(benchmark, fig11_packet_size, runs=RUNS)
    save_result(exp)

    for panel in exp.panels:
        fastpr = panel.values_of("fastpr")
        swept, auto = fastpr[:-1], fastpr[-1]
        assert panel.xticks[-1] == "auto"
        # Chunk-sized packets (last swept tick) slower than
        # 4MB-equivalent packets (second tick) for FastPR.
        assert swept[-1] > swept[1] * 1.02, (
            f"{panel.title}: pipelining should help "
            f"({swept[-1]:.4f} !> {swept[1]:.4f})"
        )
        assert auto <= min(swept) * 1.05, (
            f"{panel.title}: the chosen packet size is off the minimum "
            f"({auto:.4f} vs {min(swept):.4f})"
        )
        for i in range(len(panel.xticks)):
            assert fastpr[i] <= panel.values_of("reconstruction")[i] * 1.10
            assert fastpr[i] <= panel.values_of("migration")[i] * 1.10
