"""Per-layer probes: time each layer's public calls from outside.

Each probe exercises one layer alone, single-threaded, at the sizes of
the workload that asked for it (its chunk size; packets are a
sixteenth of a chunk, the testbed's default).  A probe's number is a
*unit cost* — it tells how fast the layer is when nothing else runs —
and feeds the busy-seconds budget, which multiplies unit costs by the
counts the registry saw during the drains.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from repro import FastPRPlanner, RepairScenario, TcpNetwork
from repro.ec import gf_matmul_bytes
from repro.gateway import ManifestStore, ObjectManifest, StripeRef, digest
from repro.net import decode_frame, encode_frame_parts
from repro.runtime import (
    ChunkStore,
    DataPacket,
    Network,
    Ping,
    RateLimiter,
    RepairJournal,
    RoundStarted,
)
from repro.sim import evaluate_plan

from stats import median
from workloads import TOPOLOGY_SEED, Rig

#: each probe repeats its call for about this long ...
PROBE_SECONDS = 0.12
#: ... in this many timed batches, and reports the median batch
PROBE_BATCHES = 5


def _per_call(call: Callable[[], object], seconds: float) -> float:
    """Median seconds per ``call()`` over a few timed batches."""
    call()  # warm caches and lazy tables off the clock
    started = time.perf_counter()
    call()
    once = max(time.perf_counter() - started, 1e-7)
    per_batch = max(int(seconds / PROBE_BATCHES / once), 1)
    batches = []
    for _ in range(PROBE_BATCHES):
        started = time.perf_counter()
        for _ in range(per_batch):
            call()
        batches.append((time.perf_counter() - started) / per_batch)
    return median(batches)


def _stream_seconds(net, size: int, frames: int) -> float:
    """Seconds to push ``frames`` DataPackets 0 -> 1 and drain them."""
    payload = bytes(size)
    inbox = net.endpoint(1).inbox
    net.send(0, 1, DataPacket(0, 0, 0, 0, payload))  # connect off the clock
    inbox.get(timeout=60)
    started = time.perf_counter()
    for index in range(frames):
        net.send(0, 1, DataPacket(0, 0, 0, index * size, payload))
    for _ in range(frames):
        inbox.get(timeout=60)
    return time.perf_counter() - started


def run_probes(rig: Rig, workdir: Path, effort: float = 1.0) -> Dict[str, float]:
    """Every probe metric, at ``rig``'s sizes, one tracer span per probe.

    ``effort`` scales how long each probe repeats (``--quick`` lowers it).
    """
    chunk = rig.shape.chunk
    packet = max(chunk // 16, 4096)
    codec = rig.codec
    k = codec.k
    out: Dict[str, float] = {}

    def probe(name: str):
        return rig.tracer.span("probe", probe=name)

    def timed(call: Callable[[], object]) -> float:
        return _per_call(call, PROBE_SECONDS * effort)

    # -- ec ------------------------------------------------------------
    rng = random.Random(rig.seed)
    data = [rng.randbytes(chunk) for _ in range(k)]
    coded = codec.encode(data)
    survivors = {index: coded[index] for index in range(1, k + 1)}
    with probe("ec.decode"):
        seconds = timed(lambda: codec.decode(survivors, [0]))
    out["ec.decode_mb_s"] = k * chunk / seconds / 1e6
    with probe("ec.encode"):
        seconds = timed(lambda: codec.encode_batch([data]))
    out["ec.encode_mb_s"] = k * chunk / seconds / 1e6
    matrix = np.arange(1, 3 * k + 1, dtype=np.uint8).reshape(3, k)
    shards = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(k, chunk)
    with probe("ec.gf_matmul"):
        seconds = timed(lambda: gf_matmul_bytes(matrix, shards))
    out["ec.gf_matmul_gb_s"] = k * chunk / seconds / 1e9

    # -- core / sim ----------------------------------------------------
    planner = FastPRPlanner(
        scenario=RepairScenario.SCATTERED, seed=TOPOLOGY_SEED
    )
    with probe("core.plan"):
        out["core.plan_s"] = timed(
            lambda: planner.plan(rig.cluster, rig.stf)
        )
    star = rig.plans["star"]
    out["core.plan_rounds"] = len(star.rounds)
    out["core.plan_reconstructions"] = sum(
        len(r.reconstructions) for r in star.rounds
    )
    out["core.plan_migrations"] = sum(len(r.migrations) for r in star.rounds)
    with probe("sim.model"):
        out["sim.model_s"] = evaluate_plan(rig.cluster, star).total_time
    out["sim.chain_model_s"] = (
        evaluate_plan(rig.cluster, rig.plans["chain"]).total_time
        if "chain" in rig.plans
        else 0.0
    )

    # -- runtime.datanode ----------------------------------------------
    store = ChunkStore(workdir / "probe-node", 0, RateLimiter(None))
    packets = [
        (offset, coded[0][offset : offset + packet])
        for offset in range(0, chunk, packet)
    ]

    def write_promote() -> None:
        for offset, payload in packets:
            store.write_packet(0, offset, payload, chunk, staged=True)
        store.promote(0)

    with probe("datanode.write_promote"):
        out["datanode.write_promote_mb_s"] = (
            chunk / timed(write_promote) / 1e6
        )
    buffer = bytearray(packet)

    def read_chunk() -> None:
        for offset, _ in packets:
            store.read_packet_into(0, offset, buffer)

    with probe("datanode.read"):
        out["datanode.read_mb_s"] = chunk / timed(read_chunk) / 1e6

    # -- runtime.journal -----------------------------------------------
    with RepairJournal(
        workdir / "probe.journal", fsync=rig.config.journal_fsync
    ) as journal:
        with probe("journal.append"):
            out["journal.append_fsync_ms"] = 1e3 * timed(
                lambda: journal.append(RoundStarted(0, 0))
            )

    # -- runtime.transport / net ---------------------------------------
    frames = max(int(effort * (8 << 20)) // packet, 16)
    memory = Network()
    for node in (0, 1):
        memory.attach(node, None)
    with probe("transport.mem_stream"):
        seconds = median(
            [_stream_seconds(memory, packet, frames) for _ in range(3)]
        )
    out["transport.mem_stream_mb_s"] = frames * packet / seconds / 1e6

    message = DataPacket(0, 0, 0, 0, coded[0][:packet])
    with probe("wire.encode"):
        out["wire.encode_us"] = 1e6 * timed(
            lambda: encode_frame_parts(0, 1, message)
        )
    frame = b"".join(encode_frame_parts(0, 1, message))
    with probe("wire.decode"):
        out["wire.decode_us"] = 1e6 * timed(lambda: decode_frame(frame))
    control = Ping(nonce=1)
    with probe("wire.encode_ctrl"):
        out["wire.encode_ctrl_us"] = 1e6 * timed(
            lambda: encode_frame_parts(0, 1, control)
        )

    tcp = TcpNetwork()
    try:
        for node in (0, 1):
            tcp.attach(node, None)
        host, port = tcp.listen()
        tcp.add_peer(1, host, port)
        with probe("tcp.stream"):
            seconds = median(
                [_stream_seconds(tcp, packet, frames) for _ in range(3)]
            )
    finally:
        tcp.close()
    out["tcp.stream_mb_s"] = frames * packet / seconds / 1e6

    # -- gateway.store -------------------------------------------------
    manifests = ManifestStore(workdir / "probe-manifests")
    blob = b"".join(data)
    manifests.save(
        ObjectManifest(
            key="probe",
            size=len(blob),
            chunk_size=chunk,
            n=codec.n,
            k=k,
            sha256=digest(blob),
            stripes=(StripeRef(0, tuple(range(codec.n))),),
        )
    )
    with probe("store.manifest_load"):
        out["store.manifest_load_us"] = 1e6 * timed(
            lambda: manifests.load("probe")
        )
    with probe("store.sha256"):
        out["store.sha256_mb_s"] = len(blob) / timed(
            lambda: digest(blob)
        ) / 1e6
    return out
