"""The paper's own simulator: compute round times from the cost model.

Section VI-A: "we remove all the actual operations of disk I/Os and
network transmission from the prototype, and simulate the operations by
computing their execution times based on the input network and disk
bandwidths."  Concretely, a round that reconstructs ``c_r`` chunks and
migrates ``c_m`` chunks takes

    max(c_m * t_m,  t_r(G = c_r))

with ``t_m`` from Eq. (4) and ``t_r`` from Eq. (5)/(6).  Like the
paper's analysis, this deliberately ignores the cross-method
interference the Section III modeling assumptions list (e.g. standby
nodes ingesting migration and reconstruction traffic at once).
``benchmarks/bench_ablation_contention.py`` measures what that leaves
out against the emulated runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.chunk import NodeId
from ..cluster.cluster import StorageCluster
from ..core.analysis import AnalyticalModel, BandwidthProfile
from ..core.plan import RepairPlan, RepairRound, RepairScenario
from ..core.planner import profile_from_cluster
from ..core.scheduling import ingress_streams


@dataclass
class RepairResult:
    """Modelled time and traffic of one repair plan."""

    total_time: float
    round_times: List[float] = field(default_factory=list)
    chunks_repaired: int = 0
    bytes_read: int = 0
    bytes_transferred: int = 0
    bytes_written: int = 0

    @property
    def time_per_chunk(self) -> float:
        """The metric every figure of the paper plots."""
        if self.chunks_repaired == 0:
            return 0.0
        return self.total_time / self.chunks_repaired


def evaluate_plan(
    cluster: StorageCluster,
    plan: RepairPlan,
    profile: Optional[BandwidthProfile] = None,
    link_scales: Optional[Dict[NodeId, float]] = None,
) -> RepairResult:
    """Compute a repair plan's time and traffic with the cost model.

    Each reconstruction is priced by the helpers it reads
    (``len(action.sources)`` whole chunks): ``k`` for RS, ``k'`` for an
    LRC local repair; a round takes the fan-in of its widest
    reconstruction.  An MSR plan's ``d`` helpers send ``1/α`` of a
    chunk each (its repair recipe's ``traffic``), so this over-prices
    it until regenerating repair runs through the runtime (ROADMAP
    item 6(b)).

    Args:
        cluster: supplies M, h, bandwidths and the chunk size.
        plan: the plan to time.
        profile: bandwidth override (defaults to the cluster's).
        link_scales: per-node NIC bandwidth scales in (0, 1] — the
            same numbers :meth:`~repro.runtime.faults.FaultPlan.\
link_bandwidths` feeds the runtime's chain ordering.  A *chained*
            (pipelined) repair streams through every helper link in
            series, so a round holding one has its network term
            divided by the least ``scale / ingress streams`` among its
            reconstruction nodes, with chains ordered exactly as the
            runtime orders them
            (:func:`~repro.core.scheduling.ingress_streams`); all-star
            rounds keep the paper's uniform-bandwidth model.
    """
    p = profile or profile_from_cluster(cluster)
    link_scales = link_scales or {}
    chunk = p.chunk_size
    hot_standby = None
    if plan.scenario is RepairScenario.HOT_STANDBY:
        hot_standby = cluster.num_hot_standby
    round_times = []
    bytes_read = bytes_transferred = bytes_written = 0
    for round_ in plan.rounds:
        t_round = 0.0
        if round_.reconstructions:
            reads = [len(a.sources) for a in round_.reconstructions]
            model = AnalyticalModel(
                num_nodes=cluster.num_storage_nodes,
                k=max(reads),
                profile=p,
                hot_standby=hot_standby,
            )
            chains = sum(a.pipelined for a in round_.reconstructions)
            if not chains:
                t_round = model.reconstruction_time(groups=round_.cr)
            elif hot_standby is None:
                # Repair pipelining: a chain moves one chunk's worth
                # through every hop instead of k into the destination,
                # so per chunk the cost collapses to read + transfer +
                # write (plus a per-hop packet drain the model
                # neglects).  Hops stream in series, so the round runs
                # at its least ingress worth: a slow link, or a NIC
                # split between a chain and another stream (k of them
                # at a destination healed back to star).
                streams = ingress_streams(round_.actions(), link_scales)
                net = p.network_time / _ingress_worth(
                    round_, streams, link_scales
                )
                t_round = p.disk_time + net + p.disk_time
            else:
                # Eq. (6)'s shape: the standby nodes split the round's
                # ingest (one stream per chain, one per helper read for
                # a star repair) and its writes evenly.
                net = p.network_time / _ingress_worth(round_, {}, link_scales)
                streams = sum(
                    1 if a.pipelined else len(a.sources)
                    for a in round_.reconstructions
                )
                t_round = (
                    p.disk_time
                    + (streams / hot_standby) * net
                    + (round_.cr / hot_standby) * p.disk_time
                )
            bytes_read += sum(reads) * chunk
            bytes_transferred += sum(reads) * chunk
            bytes_written += round_.cr * chunk
        if round_.migrations:
            # t_m only needs the profile; k is irrelevant but required.
            t_m = AnalyticalModel(
                num_nodes=cluster.num_storage_nodes, k=1, profile=p
            ).migration_time()
            t_round = max(t_round, round_.cm * t_m)
            bytes_read += round_.cm * chunk
            bytes_transferred += round_.cm * chunk
            bytes_written += round_.cm * chunk
        round_times.append(t_round)
    return RepairResult(
        total_time=sum(round_times),
        round_times=round_times,
        chunks_repaired=plan.total_chunks,
        bytes_read=bytes_read,
        bytes_transferred=bytes_transferred,
        bytes_written=bytes_written,
    )


def _ingress_worth(
    round_: RepairRound,
    streams: Dict[NodeId, int],
    link_scales: Dict[NodeId, float],
) -> float:
    """Least link scale / ingress streams among the nodes the round's
    reconstructions touch (the key
    :func:`~repro.core.scheduling.order_chain` sorts by)."""
    involved = set()
    for action in round_.reconstructions:
        involved.update(action.sources)
        involved.add(action.destination)
    return min(
        link_scales.get(node, 1.0) / (streams.get(node) or 1)
        for node in involved
    )
