#!/usr/bin/env python3
"""LRC extension of the Section III analysis, plus a codec demo.

The paper generalizes its predictive-repair analysis to Locally
Repairable Codes: with ``l`` local groups a single-chunk repair reads
only ``k' = k/l`` helpers, so ``G' <= (M-1)/k'`` groups reconstruct in
parallel.  This example (i) exercises the LRC codec on real bytes and
(ii) reproduces the analysis with ``k'`` substituted into Eqs. (2)-(6).

Run:
    python examples/lrc_analysis.py
"""

import os

from repro.core import AnalyticalModel
from repro.ec import LocalReconstructionCodec, make_codec


def codec_demo() -> None:
    print("=== LRC(12, 2, 2) codec demo ===")
    codec = make_codec("lrc(12,2,2)")
    assert isinstance(codec, LocalReconstructionCodec)
    data = [os.urandom(4096) for _ in range(codec.k)]
    coded = codec.encode(data)
    print(
        f"n={codec.n} k={codec.k} local groups={codec.l} "
        f"globals={codec.g} overhead={codec.storage_overhead:.2f}x"
    )

    # Local repair: one lost data chunk costs k/l = 6 reads, not 12.
    lost = 3
    helpers = list(codec.repair_recipe(lost).candidates)
    rebuilt = codec.decode(
        {i: coded[i] for i in helpers}, [lost]
    )
    assert rebuilt[lost] == coded[lost]
    print(
        f"repaired chunk {lost} from {len(helpers)} local helpers "
        f"{helpers} (RS(14,12) would need 12)"
    )

    # A global parity reads k of the data chunks and the other globals.
    recipe = codec.repair_recipe(codec.n - 1)
    print(
        f"global parity {codec.n - 1} reads {recipe.fanin} of "
        f"{list(recipe.candidates)}"
    )

    # Degraded repair: a broken local group falls back to globals.
    missing = [0, 1]
    available = {i: coded[i] for i in range(codec.n) if i not in missing}
    rebuilt = codec.decode(available, missing)
    assert all(rebuilt[i] == coded[i] for i in missing)
    print(f"degraded decode of chunks {missing} via global parities: OK")


def analysis_demo() -> None:
    print("\n=== Predictive repair analysis: RS(16,12) vs LRC(12,2,2) ===")
    M = 100
    rs = AnalyticalModel(num_nodes=M, k=12)
    lrc = AnalyticalModel(num_nodes=M, k=12, k_prime=6)
    rows = [
        ("reactive (Eq. 3)", rs.reactive_time_per_chunk(),
         lrc.reactive_time_per_chunk()),
        ("optimal predictive (Eq. 2)", rs.predictive_time_per_chunk(),
         lrc.predictive_time_per_chunk()),
    ]
    print(f"{'metric':28s} {'RS(16,12)':>10s} {'LRC k_prime=6':>14s}")
    for label, rs_val, lrc_val in rows:
        print(f"{label:28s} {rs_val:>10.3f} {lrc_val:>14.3f}")
    print(
        f"\npredictive gain over reactive: RS "
        f"{rs.reduction_over_reactive():.1%}, LRC "
        f"{lrc.reduction_over_reactive():.1%}"
    )
    print(
        "LRC repairs are cheaper overall (k'=6 helpers), and predictive "
        "repair still buys a double-digit reduction on top."
    )


if __name__ == "__main__":
    codec_demo()
    analysis_demo()
