"""Hot-path codec microbench: batched vs per-stripe encode/decode.

Sibling of the Figure 15 microbench, but for this repository's own
optimization rather than a paper figure: the ``encode_batch`` /
``decode_batch`` entry points (DESIGN.md §13) fold a window of stripes
into one wide GF(256) matrix product.  At repair packet sizes (4 KiB)
the per-stripe loop pays Python call overhead per stripe around a
sub-microsecond kernel, so batching must win clearly once the window is
wide.
"""

from conftest import run_once

from repro.bench.experiments import hotpath_codec

BATCHES = (1, 4, 16, 64)


def test_hotpath_codec(benchmark, save_result):
    exp = run_once(benchmark, hotpath_codec, batches=BATCHES)
    save_result(exp)

    for title in (
        "Encode — per-stripe loop vs encode_batch",
        "Decode (1 lost chunk) — per-stripe loop vs decode_batch",
    ):
        panel = exp.panel(title)
        loop = panel.values_of("per_stripe")
        batched = panel.values_of("batched")
        # Wide windows amortize per-call overhead: the batched path
        # must beat the loop it replaced.
        assert batched[-1] > 1.2 * loop[-1], (
            f"{title}: batched {batched[-1]:.1f} MB/s vs "
            f"per-stripe {loop[-1]:.1f} MB/s at batch {BATCHES[-1]}"
        )
        # A batch of one is the same work modulo dispatch; it must not
        # regress badly against the direct call.
        assert batched[0] > 0.5 * loop[0]
