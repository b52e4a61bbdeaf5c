"""Extension bench: repair-efficient code families (Section II-A / III).

The paper argues FastPR applies to any code with reduced repair fan-in
or traffic.  This bench compares the three implemented families through
the Section III analysis and measures the codecs' raw encode/repair
throughput on real bytes.

Families at comparable storage overhead (~1.33-1.5x):

* RS(14,10) — k = 10 helpers, 10 chunks of repair traffic;
* LRC(12,2,2) — k' = 6 local helpers, 6 chunks of traffic;
* MSR(19,10) — d = 18 helpers, but only 2 chunks of traffic.
"""

import numpy as np
from conftest import RESULTS_DIR, run_once

from repro.bench.harness import Experiment, Panel
from repro.core.analysis import AnalyticalModel
from repro.ec import make_codec

SCHEMES = ("rs(14,10)", "lrc(12,2,2)", "msr(19,10)")


def run_family_analysis() -> Experiment:
    exp = Experiment(
        "codec_families",
        "Predictive repair across code families (analysis, M=100)",
    )
    panel = Panel("Per-chunk repair time by family", "code family")
    for scheme in SCHEMES:
        codec = make_codec(scheme)
        model = AnalyticalModel.for_codec(codec, num_nodes=100)
        panel.add_point(
            scheme,
            {
                "reactive": model.reactive_time_per_chunk(),
                "predictive": model.predictive_time_per_chunk(),
                "traffic_chunks": model.repair_fanin * model.traffic_fraction,
            },
        )
    exp.panels.append(panel)
    return exp


def test_family_analysis(benchmark, save_result):
    exp = run_once(benchmark, run_family_analysis)
    save_result(exp)
    panel = exp.panels[0]
    reactive = dict(zip(panel.xticks, panel.values_of("reactive")))
    predictive = dict(zip(panel.xticks, panel.values_of("predictive")))
    traffic = dict(zip(panel.xticks, panel.values_of("traffic_chunks")))
    # Repair traffic ordering: MSR << LRC < RS.
    assert traffic["msr(19,10)"] < traffic["lrc(12,2,2)"] < traffic["rs(14,10)"]
    # Reduced traffic translates into faster reactive repair.
    assert reactive["lrc(12,2,2)"] < reactive["rs(14,10)"]
    assert reactive["msr(19,10)"] < reactive["rs(14,10)"]
    # Predictive repair helps every family.
    for scheme in SCHEMES:
        assert predictive[scheme] < reactive[scheme]


def _encode_payload(codec, size=1 << 16):
    rng = np.random.default_rng(3)
    return [
        rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        for _ in range(codec.k)
    ]


def test_rs_encode_throughput(benchmark):
    codec = make_codec("rs(14,10)")
    data = _encode_payload(codec, size=1 << 16)
    coded = benchmark(codec.encode, data)
    assert len(coded) == 14


def test_lrc_encode_throughput(benchmark):
    codec = make_codec("lrc(12,2,2)")
    data = _encode_payload(codec, size=1 << 16)
    coded = benchmark(codec.encode, data)
    assert len(coded) == 16


def test_msr_encode_throughput(benchmark):
    codec = make_codec("msr(19,10)")
    # MSR chunk size must divide by alpha = 9.
    data = _encode_payload(codec, size=9 * 7000)
    coded = benchmark(codec.encode, data)
    assert len(coded) == 19


def test_single_repair_throughput(benchmark):
    """Streaming RS repair of one chunk (the runtime's hot path)."""
    from repro.ec.galois import gf_addmul_bytes

    codec = make_codec("rs(9,6)")
    data = _encode_payload(codec, size=1 << 18)
    coded = codec.encode(data)
    helpers = list(range(1, 7))
    coeffs = codec.recovery_coefficients(0, helpers)
    chunks = {
        h: np.frombuffer(coded[h], dtype=np.uint8) for h in helpers
    }

    def repair():
        acc = np.zeros(1 << 18, dtype=np.uint8)
        for h in helpers:
            gf_addmul_bytes(acc, coeffs[h], chunks[h])
        return acc

    rebuilt = benchmark(repair)
    assert rebuilt.tobytes() == coded[0]
