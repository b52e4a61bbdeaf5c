#!/usr/bin/env python3
"""What happens when prediction misses: degraded reads + reactive repair.

A node dies with no warning.  Until reactive repair finishes, clients
reading objects with a chunk on it pay the degraded-read penalty —
fetch k survivors and decode — the cost FastPR's predictive repair
avoids.  This example PUTs a few objects through the gateway's
``ObjectStore``, measures that penalty on the emulated testbed, runs
the reactive (reconstruction-only) repair of the dead node, and shows
GETs returning to direct reads.

Run:
    python examples/degraded_reads_and_reactive_repair.py
"""

import time

from repro import EmulatedTestbed, ObjectStore, make_codec
from repro.cluster import StorageCluster
from repro.core import apply_plan, plan_failed_node_repair

CHUNK = 512 * 1024


def timed_gets(store, keys):
    """GET every key; returns (seconds, degraded stripes decoded)."""
    started = time.perf_counter()
    degraded = sum(store.get_result(key).degraded_stripes for key in keys)
    return time.perf_counter() - started, degraded


def main() -> None:
    cluster = StorageCluster.random(
        num_nodes=12,
        num_stripes=0,
        n=9,
        k=6,
        seed=2,
        disk_bandwidth=50e6,
        network_bandwidth=220e6,
        chunk_size=CHUNK,
    )
    codec = make_codec("rs(9,6)")

    with EmulatedTestbed(cluster, codec, packet_size=64 * 1024) as testbed:
        with ObjectStore(
            cluster,
            codec,
            testbed.network,
            bandwidth=cluster.network_bandwidth,
            chunk_size=CHUNK,
        ) as store:
            keys = [f"object/{i}" for i in range(6)]
            for i, key in enumerate(keys):
                store.put(key, bytes([i]) * (codec.k * CHUNK))
            # The node holding the most *data* chunks hurts the most.
            data_chunks = [
                node
                for key in keys
                for ref in store.stat(key).stripes
                for node in ref.placement[: codec.k]
            ]
            victim = max(set(data_chunks), key=data_chunks.count)

            # 1. Healthy GETs.
            seconds, degraded = timed_gets(store, keys)
            print(
                f"healthy: {len(keys)} GETs in {seconds:.2f}s, "
                f"{degraded} degraded stripes"
            )

            # 2. The node dies without warning (a missed prediction).
            cluster.node(victim).mark_failed()
            seconds, degraded = timed_gets(store, keys)
            print(
                f"after node {victim} failed: same GETs take {seconds:.2f}s, "
                f"{degraded} stripes decoded around the dead node"
            )

            # 3. Reactive repair (the paper's fallback for missed failures).
            plan = plan_failed_node_repair(cluster, victim, seed=0)
            result = testbed.execute(plan)
            apply_plan(cluster, plan)
            print(
                f"reactive repair: {plan.total_chunks} chunks reconstructed "
                f"in {result.total_time:.2f}s over {plan.num_rounds} rounds"
            )

            # 4. GETs are direct again (metadata points at the new
            #    copies; every GET is sha256-checked against its PUT).
            seconds, degraded = timed_gets(store, keys)
            print(
                f"after repair: {len(keys)} GETs in {seconds:.2f}s, "
                f"{degraded} degraded stripes — no decoding needed"
            )


if __name__ == "__main__":
    main()
