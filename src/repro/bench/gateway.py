"""Foreground GET latency under repair, as ``BENCH_gateway.json``.

The question the gateway exists to answer: what does a repair do to
the *client*?  This bench stands up an in-memory RS(9,6) testbed with
a :class:`~repro.gateway.ObjectStore` attached to the same emulated
network, PUTs a handful of objects, then measures GET latency in four
regimes:

- ``idle`` — no repair traffic at all (the baseline);
- ``predictive`` — a FastPR soon-to-fail repair runs concurrently,
  with the :class:`~repro.gateway.TrafficArbiter` pacing repair on the
  links the GETs' bytes cross (and only there);
- ``predictive_unarbitrated`` — the same repair with the arbiter
  disabled, to show what the floor is worth and what it costs;
- ``reactive`` — the node is already dead: the same GETs now decode
  around the hole (degraded reads) while a reconstruction-only repair
  runs.

Each regime reports p50/p99 latency, GET goodput and the degraded-read
count.  The committed document carries its own acceptance bars, one
per side of the arbiter's trade: ``p99(predictive) <= max_p99_ratio *
p99(idle)`` and ``repair_seconds(predictive) <= max_repair_ratio *
repair_seconds(predictive_unarbitrated)`` — if the arbiter stops
protecting foreground reads, or goes back to holding repair off links
no client is using, the bench exits non-zero instead of shipping the
regression.

Usage::

    python -m repro.bench.gateway -o BENCH_gateway.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import List, Optional

from ..core.serde import Schema

_FIELDS = ("config", "scenarios", "max_p99_ratio", "max_repair_ratio")
GATEWAY_BENCH_SCHEMA = Schema(
    "bench-gateway", version=2, fields=_FIELDS, required=_FIELDS
)

#: the acceptance bars: predictive-repair p99 within this factor of
#: idle, and the arbitrated repair within this factor of the
#: unarbitrated one
_MAX_P99_RATIO = 2.0
_MAX_REPAIR_RATIO = 1.25


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


def _summarize(latencies: List[float], payload_bytes: int) -> dict:
    total = sum(latencies)
    return {
        "gets": len(latencies),
        "p50_seconds": _percentile(latencies, 0.50),
        "p99_seconds": _percentile(latencies, 0.99),
        "mean_seconds": total / len(latencies),
        # MB/s of object bytes returned to the client
        "get_mb_per_s": (payload_bytes * len(latencies) / 1e6) / total,
    }


def run_gateway_bench(
    seed: int = 7,
    gets: int = 40,
    objects: int = 4,
    object_bytes: int = 3 << 18,
    chunk_bytes: int = 1 << 16,
    network_mb_s: float = 40.0,
    stripes: int = 96,
    client_floor: float = 0.7,
) -> dict:
    """Measure foreground GET latency idle vs under repair.

    A fresh rig is built per scenario (same seed, same placements) so
    repair state never bleeds between regimes.  The repair runs on a
    background thread through the testbed — exactly the path the
    RepairDaemon takes — while the foreground thread GETs objects
    round-robin through the gateway on the shared emulated network.
    """
    from ..cluster import StorageCluster
    from ..core.plan import RepairScenario
    from ..core.planner import FastPRPlanner, ReconstructionOnlyPlanner
    from ..ec import make_codec
    from ..gateway import ObjectStore, TrafficArbiter
    from ..obs import MetricsRegistry
    from ..runtime.testbed import EmulatedTestbed

    codec = make_codec("rs(9,6)")
    num_nodes = 12

    def build_rig(arbitrated: bool):
        cluster = StorageCluster.random(
            num_nodes,
            stripes,
            codec.n,
            codec.k,
            seed=seed,
            disk_bandwidth=10 * network_mb_s * 1e6,
            network_bandwidth=network_mb_s * 1e6,
            chunk_size=chunk_bytes,
        )
        arbiter = (
            TrafficArbiter(network_mb_s * 1e6, client_floor=client_floor)
            if arbitrated
            else None
        )
        metrics = MetricsRegistry()
        testbed = EmulatedTestbed(
            cluster, codec, metrics=metrics, arbiter=arbiter
        )
        return cluster, testbed, metrics

    def load_objects(cluster, testbed, metrics) -> ObjectStore:
        store = ObjectStore(
            cluster,
            codec,
            testbed.network,
            bandwidth=cluster.network_bandwidth,
            chunk_size=chunk_bytes,
            metrics=metrics,
        )
        payload = bytes(
            (seed + i) % 256 for i in range(object_bytes)
        )
        for index in range(objects):
            store.put(f"bench/object-{index}", payload)
        return store

    def measure(store, count: int) -> List[float]:
        latencies = []
        for i in range(count):
            key = f"bench/object-{i % objects}"
            start = time.perf_counter()
            data = store.get(key)
            latencies.append(time.perf_counter() - start)
            if len(data) != object_bytes:
                raise RuntimeError(
                    f"GET {key} returned {len(data)} of "
                    f"{object_bytes} bytes"
                )
        return latencies

    def degraded_total(metrics) -> int:
        for metric in metrics:
            if metric.name == "gateway_degraded_reads_total":
                return int(metric.total())
        return 0

    scenarios = {}

    # -- idle baseline -------------------------------------------------
    cluster, testbed, metrics = build_rig(arbitrated=True)
    with testbed:
        testbed.load_random_data(seed=seed)
        store = load_objects(cluster, testbed, metrics)
        latencies = measure(store, gets)
        store.close()
    scenarios["idle"] = dict(
        _summarize(latencies, object_bytes),
        degraded_gets=degraded_total(metrics),
        repair_seconds=0.0,
    )

    # -- repairs: predictive (arbitrated + not) and reactive -----------
    def pick_victim(store) -> int:
        """The node holding the most object *data* chunks.

        Failing this node maximizes degraded reads, so the reactive
        scenario actually exercises decode-around-the-hole instead of
        losing only parity chunks.
        """
        counts = {}
        for key in store.keys():
            for ref in store.stat(key).stripes:
                for node in ref.placement[: codec.k]:
                    counts[node] = counts.get(node, 0) + 1
        return max(counts, key=lambda node: (counts[node], node))

    def under_repair(name: str, arbitrated: bool, reactive: bool):
        cluster, testbed, metrics = build_rig(arbitrated=arbitrated)
        with testbed:
            testbed.load_random_data(seed=seed)
            store = load_objects(cluster, testbed, metrics)
            victim = pick_victim(store)
            if reactive:
                cluster.node(victim).mark_failed()
                plan = ReconstructionOnlyPlanner(seed=seed).plan(
                    cluster, victim
                )
            else:
                cluster.node(victim).mark_soon_to_fail()
                plan = FastPRPlanner(
                    scenario=RepairScenario.SCATTERED, seed=seed
                ).plan(cluster, victim)
            repair_error = []

            def run_repair():
                started = time.perf_counter()
                try:
                    testbed.execute(plan)
                except Exception as exc:  # pragma: no cover - surfaced
                    repair_error.append(exc)
                finally:
                    repair_error.append(time.perf_counter() - started)

            worker = threading.Thread(target=run_repair, name="bench-repair")
            worker.start()
            try:
                latencies = measure(store, gets)
            finally:
                worker.join()
                store.close()
            if repair_error and isinstance(repair_error[0], Exception):
                raise repair_error[0]
        scenarios[name] = dict(
            _summarize(latencies, object_bytes),
            degraded_gets=degraded_total(metrics),
            repair_seconds=float(repair_error[-1]),
        )

    under_repair("predictive", arbitrated=True, reactive=False)
    under_repair("predictive_unarbitrated", arbitrated=False, reactive=False)
    under_repair("reactive", arbitrated=True, reactive=True)

    body = {
        "config": {
            "nodes": num_nodes,
            "stripes": stripes,
            "code": f"rs({codec.n},{codec.k})",
            "chunk_bytes": chunk_bytes,
            "object_bytes": object_bytes,
            "objects": objects,
            "gets": gets,
            "network_mb_s": network_mb_s,
            "client_floor": client_floor,
            "seed": seed,
        },
        "scenarios": scenarios,
        "max_p99_ratio": _MAX_P99_RATIO,
        "max_repair_ratio": _MAX_REPAIR_RATIO,
    }
    return GATEWAY_BENCH_SCHEMA.dump(body)


def validate_gateway(document: dict) -> dict:
    """Schema-check the bench document; reject empty scenarios."""
    body = GATEWAY_BENCH_SCHEMA.load(document)
    for name in ("idle", "predictive", "predictive_unarbitrated",
                 "reactive"):
        section = body["scenarios"].get(name)
        if not section or section["gets"] <= 0:
            raise ValueError(f"gateway bench scenario {name!r} is empty")
    if body["scenarios"]["reactive"]["degraded_gets"] <= 0:
        raise ValueError(
            "reactive scenario performed no degraded reads — the "
            "victim node held none of the objects' data chunks"
        )
    return body


def check_gateway_gate(document: dict) -> Optional[str]:
    """The QoS acceptance bars; a problem string or None.

    Evaluated within a single run (the scenarios are measured seconds
    apart on the same host), never against numbers from another
    commit or host.  Two bars, one per
    side of the trade: GET p99 under arbitrated repair against idle,
    and the arbitrated repair's seconds against the unarbitrated one's.
    """
    scenarios = document["scenarios"]
    problems = []
    idle = scenarios["idle"]["p99_seconds"]
    repair = scenarios["predictive"]["p99_seconds"]
    limit = document["max_p99_ratio"]
    if repair > limit * idle:
        problems.append(
            f"p99 GET under predictive repair is {repair:.3f}s, more "
            f"than {limit:.1f}x the idle p99 of {idle:.3f}s; the "
            "arbiter is no longer holding the client floor"
        )
    arbitrated = scenarios["predictive"]["repair_seconds"]
    unarbitrated = scenarios["predictive_unarbitrated"]["repair_seconds"]
    limit = document["max_repair_ratio"]
    if arbitrated > limit * unarbitrated:
        problems.append(
            f"predictive repair took {arbitrated:.3f}s behind the "
            f"arbiter, more than {limit:.2f}x the {unarbitrated:.3f}s "
            "it takes without; the arbiter is holding repair off links "
            "no client is using"
        )
    return "; ".join(problems) or None


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.gateway", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "-o", "--output", default="BENCH_gateway.json",
        help="where to write the bench document",
    )
    parser.add_argument(
        "--gets", type=int, default=30,
        help="foreground GETs measured per scenario",
    )
    parser.add_argument(
        "--client-floor", type=float, default=0.7,
        help="arbiter client bandwidth floor during repair scenarios",
    )
    args = parser.parse_args(argv)

    document = run_gateway_bench(
        seed=args.seed, gets=args.gets, client_floor=args.client_floor
    )
    validate_gateway(document)
    problem = check_gateway_gate(document)

    with open(args.output, "w") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    for name in ("idle", "predictive", "predictive_unarbitrated",
                 "reactive"):
        section = document["scenarios"][name]
        print(
            f"wrote {args.output}: {name} p50 "
            f"{section['p50_seconds'] * 1e3:.1f} ms, p99 "
            f"{section['p99_seconds'] * 1e3:.1f} ms, "
            f"{section['get_mb_per_s']:.1f} MB/s, "
            f"{section['degraded_gets']} degraded"
        )
    if problem is not None:
        print(f"gateway bench regression: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
