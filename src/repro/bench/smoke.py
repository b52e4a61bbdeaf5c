"""One instrumented repair, summarized as ``BENCH_repair_rounds.json``.

CI's ``bench-smoke`` job runs this module against a small synthetic
cluster and uploads the result as an artifact, so every commit carries
a machine-readable record of what one repair round actually costs on
the emulated testbed: per-round durations, the migration versus
reconstruction split, and the headline transport/agent counters.  The
document rides on :class:`repro.core.serde.Schema`, and the generated
file is schema-validated before it is written — an empty or malformed
run fails the job instead of uploading garbage.

The module also measures the socket transport itself: a loopback
:class:`~repro.net.TcpNetwork` streams DataPacket frames at 64 KiB and
1 MiB payloads, and the frames/s + MB/s land in
``BENCH_net_throughput.json`` — so a wire-codec or socket-path
regression shows up as a number, not a hunch.

The hot-path sweep (``--hotpath``) goes further: GF(256) kernel GB/s,
plus single-stream and parallel DataPacket throughput on *every*
transport backend (in-memory, TCP, shared-memory rings), with the
pre-PR loopback TCP numbers embedded as a fixed baseline so the
committed ``BENCH_hotpath.json`` carries its own speedup evidence.
``--fail-on-regression`` turns the committed documents into a gate:
re-running against a schema-identical config that comes out more than
the tolerance slower exits non-zero (``make bench-smoke``).

Usage::

    python -m repro.bench.smoke -o BENCH_repair_rounds.json \
        --net-output BENCH_net_throughput.json \
        --hotpath BENCH_hotpath.json --fail-on-regression
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from ..core.serde import Schema

#: Counters copied verbatim into the bench document.  A short, stable
#: list — the full registry goes to ``--metrics-out`` on real runs; the
#: bench file only tracks the totals worth eyeballing across commits.
_HEADLINE_COUNTERS = (
    "repair_actions_total",
    "repair_retries_total",
    "repair_replans_total",
    "agent_bytes_sent_total",
    "agent_bytes_received_total",
    "transport_bytes_sent_total",
)

BENCH_SCHEMA = Schema(
    "bench-repair-rounds",
    version=1,
    fields=("config", "result", "rounds", "counters"),
    required=("config", "result", "rounds", "counters"),
)


def run_smoke(seed: int = 7) -> dict:
    """Run one small instrumented repair and return the bench document.

    The cluster shape matches the test fixtures (12 nodes, RS(5,3),
    64 KiB chunks) but with enough stripes that the repair spans
    multiple rounds, so the per-round breakdown is never trivial.
    """
    from ..cluster import StorageCluster
    from ..core.plan import RepairScenario
    from ..core.planner import FastPRPlanner
    from ..ec import make_codec
    from ..obs import MetricsRegistry, Tracer, breakdown_from_trace
    from ..runtime.testbed import EmulatedTestbed

    nodes, stripes, stf = 12, 20, 2
    codec = make_codec("rs(5,3)")
    cluster = StorageCluster.random(
        nodes, stripes, codec.n, codec.k, seed=seed, chunk_size=1 << 16
    )
    cluster.node(stf).mark_soon_to_fail()
    plan = FastPRPlanner(
        scenario=RepairScenario.SCATTERED, seed=seed
    ).plan(cluster, stf)
    plan.validate(cluster)

    metrics = MetricsRegistry()
    tracer = Tracer()
    with EmulatedTestbed(
        cluster, codec, metrics=metrics, tracer=tracer
    ) as testbed:
        testbed.load_random_data(seed=seed)
        result = testbed.execute(plan)
        testbed.verify_plan(plan, result)

    breakdown = breakdown_from_trace(tracer.to_dict())
    counters = {
        metric.name: metric.total()
        for metric in metrics
        if metric.name in _HEADLINE_COUNTERS
    }
    body = {
        "config": {
            "nodes": nodes,
            "stripes": stripes,
            "code": f"rs({codec.n},{codec.k})",
            "chunk_size": cluster.chunk_size,
            "seed": seed,
            "stf": stf,
            "scenario": RepairScenario.SCATTERED.value,
        },
        "result": {
            "chunks_repaired": result.chunks_repaired,
            "total_time_s": result.total_time,
            "bytes_transferred": result.bytes_transferred,
            "retries": result.retries,
            "replans": result.replans,
        },
        "rounds": [r.to_dict() for r in breakdown.rounds],
        "counters": counters,
    }
    return BENCH_SCHEMA.dump(body)


def validate(document: dict) -> dict:
    """Schema-check a bench document; reject empty-round runs."""
    body = BENCH_SCHEMA.load(document)
    if not body["rounds"]:
        raise ValueError("bench document has no repair rounds")
    if body["result"]["chunks_repaired"] <= 0:
        raise ValueError("bench repair recovered no chunks")
    return body


NET_BENCH_SCHEMA = Schema(
    "bench-net-throughput",
    version=1,
    fields=("transport", "runs", "pipelining"),
    required=("transport", "runs"),
)

#: payload sizes the throughput sweep always covers
_NET_PAYLOAD_SIZES = (1 << 16, 1 << 20)  # 64 KiB, 1 MiB


def run_net_throughput(
    sizes: Sequence[int] = _NET_PAYLOAD_SIZES, frames: int = 32
) -> dict:
    """Stream frames over a loopback TCP socket; return the bench doc.

    Endpoints attach unthrottled (``bandwidth=None``), so the numbers
    measure the wire codec + blocking-socket path, not the emulated NIC.
    """
    from ..net import TcpNetwork
    from ..runtime.messages import DataPacket

    runs = []
    for size in sizes:
        net = TcpNetwork(send_queue_capacity=128)
        try:
            net.attach(0, None)
            net.attach(1, None)
            host, port = net.listen()
            net.add_peer(1, host, port)
            payload = bytes(size)
            inbox = net.endpoint(1).inbox
            # one warm-up frame establishes the connection off the clock
            net.send(0, 1, DataPacket(0, 0, 0, 0, payload))
            inbox.get(timeout=60)
            started = time.perf_counter()
            for i in range(frames):
                net.send(0, 1, DataPacket(0, 0, 0, i * size, payload))
            for _ in range(frames):
                inbox.get(timeout=60)
            elapsed = time.perf_counter() - started
        finally:
            net.close()
        runs.append(
            {
                "payload_bytes": size,
                "frames": frames,
                "seconds": elapsed,
                "frames_per_s": frames / elapsed,
                "mb_per_s": frames * size / elapsed / 1e6,
            }
        )
    return NET_BENCH_SCHEMA.dump({"transport": "tcp-loopback", "runs": runs})


def validate_net(document: dict) -> dict:
    """Schema-check a net-throughput document; reject empty sweeps."""
    body = NET_BENCH_SCHEMA.load(document)
    if not body["runs"]:
        raise ValueError("net bench document has no runs")
    for run in body["runs"]:
        if run["frames"] <= 0 or run["mb_per_s"] <= 0:
            raise ValueError(f"degenerate net bench run: {run}")
    pipelining = body.get("pipelining")
    if pipelining is not None:
        for mode in ("star", "chain"):
            if pipelining[mode]["seconds"] <= 0:
                raise ValueError(f"degenerate pipelining {mode} run")
        if pipelining["chunks"] <= 0:
            raise ValueError("pipelining bench repaired no chunks")
    return body


#: the chained-repair latency gate: chain must finish in at most this
#: fraction of the star (store-and-forward) run on the same plan
_MAX_CHAIN_RATIO = 0.5


def run_pipelining_bench(
    slices: int = 16,
    seed: int = 7,
    chunk_bytes: int = 4 << 20,
    network_mb_s: float = 40.0,
    stripes: int = 4,
) -> dict:
    """Chained versus store-and-forward repair on a bandwidth-bound rig.

    An in-memory RS(9,6) testbed with the NIC as the bottleneck
    (4 MiB chunks at 40 MB/s links, disks an order of magnitude
    faster) runs the *same* reconstruction plan twice through
    :class:`repro.RepairSession`: once star (every helper fans in to
    the destination, whose ingest serializes ``k`` uploads) and once
    chained with slice-granular streaming (each helper adds its
    coefficient-scaled slice and forwards one stream).  Repair
    pipelining bounds the chained time by roughly ``1/k`` of the
    fan-in time plus the pipeline fill; the committed gate only
    demands ``chain <= 0.5 * star``, loose enough for scheduler noise
    and strict enough that losing the overlap (the whole point of the
    chain) fails the bench.
    """
    from ..cluster import StorageCluster
    from ..core.planner import ReconstructionOnlyPlanner
    from ..ec import make_codec
    from ..session import RepairSession

    codec = make_codec("rs(9,6)")
    cluster = StorageCluster.random(
        12,
        stripes,
        codec.n,
        codec.k,
        seed=seed,
        disk_bandwidth=10 * network_mb_s * 1e6,
        network_bandwidth=network_mb_s * 1e6,
        chunk_size=chunk_bytes,
    )
    stf = max(cluster.storage_node_ids(), key=cluster.load_of)
    cluster.node(stf).mark_soon_to_fail()
    plan = ReconstructionOnlyPlanner(seed=seed).plan(cluster, stf)
    summaries = {}
    for mode, num_slices in (("off", 0), ("chain", slices)):
        session = RepairSession(
            cluster,
            codec,
            plan,
            pipelining=mode,
            slices=num_slices,
            seed=seed,
        )
        summaries[mode] = session.run()
    star, chain = summaries["off"], summaries["chain"]
    return {
        "code": f"rs({codec.n},{codec.k})",
        "chunk_bytes": cluster.chunk_size,
        "chunks": star.chunks_repaired,
        "slices": slices,
        "network_mb_s": network_mb_s,
        "star": {"seconds": star.total_time},
        "chain": {"seconds": chain.total_time},
        # "speedup" in the name keeps the ratio out of the exact-match
        # comparability check (it varies run to run); the hard latency
        # gate below is what enforces the bound.
        "chain_vs_star_speedup": star.total_time / chain.total_time,
        "max_chain_ratio": _MAX_CHAIN_RATIO,
    }


def check_pipelining_gate(pipelining: dict) -> Optional[str]:
    """The chained-latency acceptance bar; a problem string or None."""
    ratio = pipelining["chain"]["seconds"] / pipelining["star"]["seconds"]
    limit = pipelining["max_chain_ratio"]
    if ratio > limit:
        return (
            f"chained repair ran at {ratio:.2f}x of store-and-forward "
            f"(gate: <= {limit:.2f}x); the chain lost its overlap"
        )
    return None


# ----------------------------------------------------------------------
# hot-path bench: GF kernels + per-transport repair-stream throughput
# ----------------------------------------------------------------------

HOTPATH_SCHEMA = Schema(
    "bench-hotpath",
    version=1,
    fields=("kernels", "transports", "baseline"),
    required=("kernels", "transports", "baseline"),
)

#: loopback TCP MB/s measured at the commit before the hot-path PR
#: (per-frame queue round-trips, payload joins, per-row GF loops) —
#: the fixed reference the committed speedups are computed against.
_PRE_PR_TCP_MB_S = {"65536": 83.5, "1048576": 163.1}

#: transports the hot-path sweep covers
_HOTPATH_TRANSPORTS = ("memory", "tcp", "shm")


def run_gf_kernels(buffer_bytes: int = 8 << 20, repeats: int = 3) -> dict:
    """Time the GF(256) region kernels; returns GB/s figures.

    ``kernel`` names the implementation that was timed
    (:data:`repro.ec.galois.KERNEL`).  Reported rates are input bytes
    over best-of-``repeats`` wall time:
    ``gf_mul_gb_s``/``gf_addmul_gb_s`` stream one flat buffer,
    ``gf_matmul_gb_s`` is the input rate of a parity-shaped (3, 6)
    coefficient matrix over six 1 MiB shards — the decode-side product
    the repair pipeline runs per stripe group.
    """
    import numpy as np

    from ..ec.galois import (
        KERNEL,
        gf_addmul_bytes,
        gf_matmul_bytes,
        gf_mul_bytes,
    )

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return min(times)

    data = np.tile(np.arange(256, dtype=np.uint8), buffer_bytes // 256)
    out = np.empty_like(data)
    acc = np.zeros_like(data)
    t_mul = best(lambda: gf_mul_bytes(37, data, out=out))
    t_addmul = best(lambda: gf_addmul_bytes(acc, 91, data))
    rows, shards_n, length = 3, 6, 1 << 20
    shards = np.tile(
        np.arange(256, dtype=np.uint8), shards_n * length // 256
    ).reshape(shards_n, length)
    matrix = np.arange(1, rows * shards_n + 1, dtype=np.uint8).reshape(
        rows, shards_n
    )
    t_matmul = best(lambda: gf_matmul_bytes(matrix, shards))
    return {
        "kernel": KERNEL,
        "buffer_bytes": buffer_bytes,
        "gf_mul_gb_s": buffer_bytes / t_mul / 1e9,
        "gf_addmul_gb_s": buffer_bytes / t_addmul / 1e9,
        "matmul_shape": [rows, shards_n, length],
        "gf_matmul_gb_s": shards_n * length / t_matmul / 1e9,
    }


def _make_loopback(transport: str, num_nodes: int):
    """A wired loopback network with nodes ``0..num_nodes-1`` attached.

    Odd node ids are registered as peers (tcp/shm), so every frame for
    them crosses the real backend; even ids send.  The in-memory fabric
    needs no wiring.
    """
    if transport == "memory":
        from ..runtime.transport import Network

        net = Network()
        for i in range(num_nodes):
            net.attach(i, None)
        return net
    if transport == "tcp":
        from ..net import TcpNetwork

        net = TcpNetwork(send_queue_capacity=128)
        for i in range(num_nodes):
            net.attach(i, None)
        host, port = net.listen()
        for i in range(1, num_nodes, 2):
            net.add_peer(i, host, port)
        return net
    if transport == "shm":
        from ..net import ShmNetwork

        net = ShmNetwork(ring_capacity=32 << 20)
        for i in range(num_nodes):
            net.attach(i, None)
        name = net.listen()
        for i in range(1, num_nodes, 2):
            net.add_peer(i, name)
        return net
    raise ValueError(f"unknown transport {transport!r}")


def _stream(net, src: int, dst: int, size: int, frames: int) -> float:
    """Send ``frames`` DataPackets src->dst and drain them; seconds."""
    from ..runtime.messages import DataPacket

    payload = bytes(size)
    inbox = net.endpoint(dst).inbox
    # one warm-up frame establishes the connection off the clock
    net.send(src, dst, DataPacket(0, 0, 0, 0, payload))
    inbox.get(timeout=120)
    started = time.perf_counter()
    for i in range(frames):
        net.send(src, dst, DataPacket(0, 0, 0, i * size, payload))
    for _ in range(frames):
        inbox.get(timeout=120)
    return time.perf_counter() - started


def run_transport_throughput(
    transport: str,
    sizes: Sequence[int] = _NET_PAYLOAD_SIZES,
    frames: int = 32,
    parallel_streams: int = 4,
    parallel_frames: int = 16,
    parallel_size: int = 1 << 20,
    repeats: int = 3,
) -> dict:
    """One transport's single-stream and parallel repair throughput.

    Single-stream replays ``run_net_throughput``'s shape per payload
    size; the parallel figure runs ``parallel_streams`` concurrent
    sender threads on disjoint node pairs of the *same* network —
    loopback TCP shares one event loop, shm shares one ring — and
    reports aggregate MB/s over wall time, which is what a multi-chunk
    repair round actually pushes through the backend.

    These figures gate commits (``--fail-on-regression``), so they are
    measured best-of-``repeats`` and small payloads stream at least
    8 MiB — scheduler hiccups must not read as regressions.
    """
    import threading as threading_mod

    single = []
    for size in sizes:
        n_frames = max(frames, (8 << 20) // size)
        net = _make_loopback(transport, 2)
        try:
            elapsed = min(
                _stream(net, 0, 1, size, n_frames) for _ in range(repeats)
            )
        finally:
            if hasattr(net, "close"):
                net.close()
        single.append(
            {
                "payload_bytes": size,
                "frames": n_frames,
                "seconds": elapsed,
                "frames_per_s": n_frames / elapsed,
                "mb_per_s": n_frames * size / elapsed / 1e6,
            }
        )
    net = _make_loopback(transport, 2 * parallel_streams)
    errors: list = []

    def worker(pair: int) -> None:
        try:
            _stream(net, 2 * pair, 2 * pair + 1, parallel_size, parallel_frames)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    try:
        threads = [
            threading_mod.Thread(target=worker, args=(pair,))
            for pair in range(parallel_streams)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    finally:
        if hasattr(net, "close"):
            net.close()
    if errors:
        raise errors[0]
    total = parallel_streams * parallel_frames * parallel_size
    return {
        "transport": transport,
        "single": single,
        "parallel": {
            "streams": parallel_streams,
            "payload_bytes": parallel_size,
            "frames": parallel_frames,
            "seconds": elapsed,
            "mb_per_s": total / elapsed / 1e6,
        },
    }


def run_hotpath(frames: int = 32, parallel_streams: int = 4) -> dict:
    """The hot-path bench document (``BENCH_hotpath.json``).

    GF kernel GB/s plus single-stream and parallel DataPacket
    throughput on every transport backend, with the pre-PR loopback TCP
    numbers embedded as the fixed baseline and the measured speedup
    computed against them.
    """
    from ..net import shm_available

    kernels = run_gf_kernels()
    transports = []
    for transport in _HOTPATH_TRANSPORTS:
        if transport == "shm" and not shm_available():
            continue
        transports.append(
            run_transport_throughput(
                transport, frames=frames, parallel_streams=parallel_streams
            )
        )
    tcp = next(t for t in transports if t["transport"] == "tcp")
    speedup = {}
    for run in tcp["single"]:
        key = str(run["payload_bytes"])
        if key in _PRE_PR_TCP_MB_S:
            speedup[key] = run["mb_per_s"] / _PRE_PR_TCP_MB_S[key]
    return HOTPATH_SCHEMA.dump(
        {
            "kernels": kernels,
            "transports": transports,
            "baseline": {
                "pre_pr_tcp_mb_per_s": dict(_PRE_PR_TCP_MB_S),
                "tcp_speedup": speedup,
            },
        }
    )


def validate_hotpath(document: dict) -> dict:
    """Schema-check a hot-path document; reject degenerate sweeps."""
    body = HOTPATH_SCHEMA.load(document)
    for key in ("gf_mul_gb_s", "gf_addmul_gb_s", "gf_matmul_gb_s"):
        if body["kernels"].get(key, 0) <= 0:
            raise ValueError(f"degenerate kernel rate {key}")
    if not body["transports"]:
        raise ValueError("hotpath document covers no transports")
    for entry in body["transports"]:
        if not entry["single"] or entry["parallel"]["mb_per_s"] <= 0:
            raise ValueError(
                f"degenerate throughput for {entry['transport']!r}"
            )
        for run in entry["single"]:
            if run["mb_per_s"] <= 0:
                raise ValueError(f"degenerate single-stream run: {run}")
    if not body["baseline"].get("tcp_speedup"):
        raise ValueError("hotpath document computed no baseline speedup")
    return body


# ----------------------------------------------------------------------
# regression gate: committed bench documents must not get slower
# ----------------------------------------------------------------------

#: leaf suffixes that are performance figures (higher is better)
_PERF_SUFFIXES = ("mb_per_s", "frames_per_s", "_gb_s")

#: path components that vary run-to-run and are neither config nor a
#: gated performance figure
_VOLATILE_COMPONENTS = ("seconds", "speedup", "total_time")


def _numeric_leaves(node, path="") -> dict:
    out = {}
    if isinstance(node, dict):
        for key in node:
            out.update(_numeric_leaves(node[key], f"{path}.{key}"))
    elif isinstance(node, (list, tuple)):
        for i, item in enumerate(node):
            out.update(_numeric_leaves(item, f"{path}[{i}]"))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[path] = float(node)
    return out


def check_regressions(
    old: dict, new: dict, tolerance: float = 0.30
) -> list:
    """Compare two bench documents; list perf figures that regressed.

    Only *schema-identical configs* gate: the documents must carry the
    same schema version, and every shared non-volatile, non-perf
    numeric leaf (payload sizes, frame counts, matrix shapes, embedded
    baselines) must match exactly — otherwise the sweep measured
    something else and the result is ``[]`` (not comparable, not a
    failure).  A perf leaf regresses when the new value drops more than
    ``tolerance`` below the committed one.
    """

    def is_perf(path: str) -> bool:
        return path.endswith(_PERF_SUFFIXES)

    def is_volatile(path: str) -> bool:
        return any(part in path for part in _VOLATILE_COMPONENTS)

    if old.get("version") != new.get("version"):
        return []
    old_leaves = _numeric_leaves(old)
    new_leaves = _numeric_leaves(new)
    shared = set(old_leaves) & set(new_leaves)
    for path in shared:
        if is_perf(path) or is_volatile(path):
            continue
        if old_leaves[path] != new_leaves[path]:
            return []  # different config: not comparable
    problems = []
    for path in sorted(shared):
        if not is_perf(path):
            continue
        committed, measured = old_leaves[path], new_leaves[path]
        if committed > 0 and measured < committed * (1 - tolerance):
            problems.append(
                f"{path}: {measured:.2f} is more than {tolerance:.0%} "
                f"below the committed {committed:.2f}"
            )
    return problems


DURABILITY_SCHEMA = Schema(
    "bench-durability",
    version=1,
    fields=("config", "processes"),
    required=("config", "processes"),
)


def run_durability(trials: int = 50, years: float = 1.0, seed: int = 7) -> dict:
    """Monte-Carlo durability study; returns ``BENCH_durability.json``.

    CI's ``lifetime-sim`` job runs this with the defaults: 50 trials of
    one simulated year on an RS(9,6) cluster under two failure
    processes — Weibull renewals and SMART-trace replay through the
    threshold predictor — each with predictive repair on and off, plus
    latent sector errors surfaced by a 14-day scrub cycle.  The
    acceptance bar (:func:`validate_durability`) is zero lost stripes
    across every predictive-mode trial.
    """
    from ..failure.predictor import ThresholdPredictor
    from ..failure.smart import SmartTraceGenerator
    from ..sim.lifetime import (
        LifetimeConfig,
        TraceReplayProcess,
        WeibullFailureProcess,
        durability_study,
    )

    config = LifetimeConfig(
        num_disks=30,
        num_stripes=120,
        n=9,
        k=6,
        years=years,
        repair_concurrency=2,
        latent_errors_per_disk_year=0.3,
        scrub_interval_days=14.0,
    )
    traces = SmartTraceGenerator(
        num_disks=60, annual_failure_rate=0.12, seed=seed
    ).generate()
    processes = [
        WeibullFailureProcess(annual_failure_rate=0.08),
        TraceReplayProcess(traces, ThresholdPredictor()),
    ]
    entries = durability_study(processes, config, trials=trials, seed=seed)
    return DURABILITY_SCHEMA.dump(
        {
            "config": {
                "trials": trials,
                "years": years,
                "seed": seed,
                "disks": config.num_disks,
                "stripes": config.num_stripes,
                "code": f"rs({config.n},{config.k})",
                "repair_concurrency": config.repair_concurrency,
                "latent_errors_per_disk_year": (
                    config.latent_errors_per_disk_year
                ),
                "scrub_interval_days": config.scrub_interval_days,
            },
            "processes": entries,
        }
    )


def validate_durability(document: dict, require_zero_loss: bool = True) -> dict:
    """Schema-check a durability document; enforce the zero-loss bar.

    Args:
        require_zero_loss: assert that every process shows zero lost
            stripes with predictive repair on (the CI acceptance bar).
    """
    body = DURABILITY_SCHEMA.load(document)
    if not body["processes"]:
        raise ValueError("durability document covers no failure processes")
    for entry in body["processes"]:
        for mode in ("predictive", "reactive"):
            if mode not in entry:
                raise ValueError(
                    f"process {entry.get('process')!r} lacks a {mode} run"
                )
            if entry[mode]["trials"] <= 0:
                raise ValueError(
                    f"process {entry.get('process')!r} {mode} ran no trials"
                )
        if entry["predictive"]["disk_failures"] <= 0:
            raise ValueError(
                f"process {entry.get('process')!r} produced no disk "
                "failures; the study measured nothing"
            )
        if (
            require_zero_loss
            and entry["predictive"]["lost_stripe_probability"] > 0
        ):
            raise ValueError(
                f"process {entry.get('process')!r} lost stripes with "
                "predictive repair on: P(loss)="
                f"{entry['predictive']['lost_stripe_probability']:.4f}"
            )
    return body


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="cluster/data RNG seed"
    )
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_repair_rounds.json",
        help="where to write the bench document",
    )
    parser.add_argument(
        "--net-output",
        default="BENCH_net_throughput.json",
        help="where to write the loopback TCP throughput document "
        "('' skips the sweep)",
    )
    parser.add_argument(
        "--net-frames",
        type=int,
        default=32,
        help="frames streamed per payload size in the throughput sweep",
    )
    parser.add_argument(
        "--pipelining",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="measure chained vs store-and-forward repair latency on a "
        "bandwidth-bound RS(9,6) rig and embed the section in the net "
        "throughput document (--no-pipelining skips it)",
    )
    parser.add_argument(
        "--pipelining-slices",
        type=int,
        default=16,
        help="slices per chunk in the chained pipelining bench",
    )
    parser.add_argument(
        "--durability-output",
        default="",
        help="where to write the Monte-Carlo durability document "
        "('' skips the study)",
    )
    parser.add_argument(
        "--durability-trials",
        type=int,
        default=50,
        help="lifetime trials per (process, mode) cell of the study",
    )
    parser.add_argument(
        "--durability-years",
        type=float,
        default=1.0,
        help="simulated years per lifetime trial",
    )
    parser.add_argument(
        "--durability-only",
        action="store_true",
        help="run only the durability study (skip repair + net benches)",
    )
    parser.add_argument(
        "--hotpath",
        nargs="?",
        const="BENCH_hotpath.json",
        default="",
        metavar="PATH",
        help="write the hot-path bench (GF kernel GB/s, per-transport "
        "single-stream + parallel throughput, pre-PR baseline speedup); "
        "default path BENCH_hotpath.json",
    )
    parser.add_argument(
        "--profile-out",
        default="",
        metavar="PREFIX",
        help="profile the instrumented repair under cProfile; writes "
        "PREFIX.prof (binary, flamegraph-able) and PREFIX.txt (pstats "
        "top functions by cumulative time)",
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="before overwriting a committed bench document, compare "
        "perf figures on schema-identical configs and exit non-zero "
        "when any drops more than --regression-tolerance",
    )
    parser.add_argument(
        "--regression-tolerance",
        type=float,
        default=0.30,
        help="fractional slowdown tolerated by --fail-on-regression",
    )
    args = parser.parse_args(argv)
    if args.durability_only and not args.durability_output:
        args.durability_output = "BENCH_durability.json"
    if args.durability_output:
        durability = run_durability(
            trials=args.durability_trials,
            years=args.durability_years,
            seed=args.seed,
        )
        validate_durability(durability)
        with open(args.durability_output, "w") as f:
            json.dump(durability, f, indent=2, sort_keys=True)
            f.write("\n")
        for entry in durability["processes"]:
            print(
                f"wrote {args.durability_output}: {entry['process']} "
                f"P(loss) predictive="
                f"{entry['predictive']['lost_stripe_probability']:.4f} "
                f"reactive="
                f"{entry['reactive']['lost_stripe_probability']:.4f}, "
                "chunk-days at risk "
                f"{entry['predictive']['mean_chunk_days_at_risk']:.1f} vs "
                f"{entry['reactive']['mean_chunk_days_at_risk']:.1f}"
            )
        if args.durability_only:
            return 0
    regressions = []

    def gate(path: str, new_doc: dict) -> None:
        """Collect regressions against the committed document at path."""
        if not args.fail_on_regression:
            return
        try:
            with open(path) as f:
                committed = json.load(f)
        except (OSError, json.JSONDecodeError):
            return  # nothing committed yet, or unreadable: nothing to gate
        for problem in check_regressions(
            committed, new_doc, tolerance=args.regression_tolerance
        ):
            regressions.append(f"{path}: {problem}")

    if args.profile_out:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        document = run_smoke(seed=args.seed)
        profiler.disable()
        profiler.dump_stats(args.profile_out + ".prof")
        with open(args.profile_out + ".txt", "w") as f:
            stats = pstats.Stats(profiler, stream=f)
            stats.sort_stats("cumulative").print_stats(60)
        print(
            f"wrote profile to {args.profile_out}.prof and "
            f"{args.profile_out}.txt"
        )
    else:
        document = run_smoke(seed=args.seed)
    validate(document)
    with open(args.output, "w") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    rounds = document["rounds"]
    print(
        f"wrote {args.output}: {document['result']['chunks_repaired']} "
        f"chunks over {len(rounds)} rounds, "
        f"{document['result']['total_time_s']:.2f}s total"
    )
    if args.net_output:
        net_doc = run_net_throughput(frames=args.net_frames)
        if args.pipelining:
            net_doc["pipelining"] = run_pipelining_bench(
                slices=args.pipelining_slices, seed=args.seed
            )
        validate_net(net_doc)
        gate(args.net_output, net_doc)
        if args.fail_on_regression and "pipelining" in net_doc:
            problem = check_pipelining_gate(net_doc["pipelining"])
            if problem is not None:
                regressions.append(f"{args.net_output}: {problem}")
        with open(args.net_output, "w") as f:
            json.dump(net_doc, f, indent=2, sort_keys=True)
            f.write("\n")
        for run in net_doc["runs"]:
            print(
                f"wrote {args.net_output}: {run['payload_bytes']} B frames "
                f"at {run['frames_per_s']:.0f} frames/s, "
                f"{run['mb_per_s']:.1f} MB/s"
            )
        if "pipelining" in net_doc:
            section = net_doc["pipelining"]
            print(
                f"wrote {args.net_output}: pipelining {section['code']} "
                f"{section['chunks']} chunks of "
                f"{section['chunk_bytes'] >> 20} MiB — star "
                f"{section['star']['seconds']:.2f}s, chain "
                f"{section['chain']['seconds']:.2f}s "
                f"({section['chain_vs_star_speedup']:.1f}x, gate "
                f"<= {section['max_chain_ratio']:.2f}x of star)"
            )
    if args.hotpath:
        hotpath_doc = run_hotpath(frames=args.net_frames)
        validate_hotpath(hotpath_doc)
        gate(args.hotpath, hotpath_doc)
        with open(args.hotpath, "w") as f:
            json.dump(hotpath_doc, f, indent=2, sort_keys=True)
            f.write("\n")
        kernels = hotpath_doc["kernels"]
        print(
            f"wrote {args.hotpath}: {kernels['kernel']} kernel, gf_mul "
            f"{kernels['gf_mul_gb_s']:.2f} GB/s, gf_matmul "
            f"{kernels['gf_matmul_gb_s']:.2f} GB/s"
        )
        for entry in hotpath_doc["transports"]:
            best = max(run["mb_per_s"] for run in entry["single"])
            print(
                f"  {entry['transport']}: single-stream up to "
                f"{best:.1f} MB/s, {entry['parallel']['streams']} streams "
                f"{entry['parallel']['mb_per_s']:.1f} MB/s aggregate"
            )
        for size, factor in sorted(
            hotpath_doc["baseline"]["tcp_speedup"].items(), key=lambda i: int(i[0])
        ):
            print(f"  tcp speedup vs pre-PR @{size} B: {factor:.2f}x")
    if regressions:
        for problem in regressions:
            print(f"bench regression: {problem}", file=sys.stderr)
        print(
            f"{len(regressions)} bench figure(s) regressed beyond "
            f"{args.regression_tolerance:.0%}; failing",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
