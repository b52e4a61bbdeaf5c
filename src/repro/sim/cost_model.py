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

The event-driven :class:`~repro.sim.simulator.RepairSimulator` charges
that contention and is kept as an ablation — `benchmarks/
bench_ablation_contention.py` quantifies the difference.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cluster.chunk import NodeId
from ..cluster.cluster import StorageCluster
from ..core.analysis import AnalyticalModel, BandwidthProfile
from ..core.plan import RepairPlan, RepairScenario
from ..core.planner import profile_from_cluster
from ..core.scheduling import ingress_streams
from .simulator import RepairResult


class CostModelSimulator:
    """Evaluates a repair plan with the Section III cost model.

    Args:
        cluster: supplies M, h, bandwidths and the chunk size.
        profile: bandwidth override (defaults to the cluster's).
        k_prime: repair fan-in override for repair-efficient codes.
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

    def __init__(
        self,
        cluster: StorageCluster,
        profile: Optional[BandwidthProfile] = None,
        k_prime: Optional[int] = None,
        link_scales: Optional[Dict[NodeId, float]] = None,
    ):
        self.cluster = cluster
        self.profile = profile or profile_from_cluster(cluster)
        self.k_prime = k_prime
        self.link_scales = link_scales or {}

    def run(self, plan: RepairPlan) -> RepairResult:
        """Compute the plan's repair time and traffic."""
        p = self.profile
        chunk = p.chunk_size
        hot_standby = None
        if plan.scenario is RepairScenario.HOT_STANDBY:
            hot_standby = self.cluster.num_hot_standby
        round_times = []
        bytes_read = bytes_transferred = bytes_written = 0
        for round_ in plan.rounds:
            t_round = 0.0
            if round_.reconstructions:
                k = self._round_k(round_)
                model = AnalyticalModel(
                    num_nodes=self.cluster.num_storage_nodes,
                    k=k,
                    profile=self.profile,
                    hot_standby=hot_standby,
                    k_prime=self.k_prime,
                )
                fanin = model.repair_fanin
                chains = sum(a.pipelined for a in round_.reconstructions)
                if not chains:
                    t_round = model.reconstruction_time(groups=round_.cr)
                elif hot_standby is None:
                    # Repair pipelining: a chain moves one chunk's worth
                    # through every hop instead of k into the
                    # destination, so per chunk the cost collapses to
                    # read + transfer + write (plus a per-hop packet
                    # drain the model neglects).  Hops stream in
                    # series, so the round runs at its least ingress
                    # worth: a slow link, or a NIC split between a
                    # chain and another stream (k of them at a
                    # destination healed back to star).
                    streams = ingress_streams(
                        round_.actions(), self.link_scales
                    )
                    net = p.network_time / self._ingress_worth(round_, streams)
                    t_round = p.disk_time + net + p.disk_time
                else:
                    # Eq. (6)'s shape: the standby nodes split the
                    # round's ingest (one stream per chain, k per star
                    # repair) and its writes evenly.
                    net = p.network_time / self._ingress_worth(round_, {})
                    streams = chains + fanin * (round_.cr - chains)
                    t_round = (
                        p.disk_time
                        + (streams / hot_standby) * net
                        + (round_.cr / hot_standby) * p.disk_time
                    )
                bytes_read += round_.cr * fanin * chunk
                bytes_transferred += round_.cr * fanin * chunk
                bytes_written += round_.cr * chunk
            if round_.migrations:
                t_m = self._migration_model().migration_time()
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

    def _ingress_worth(self, round_, streams: Dict[NodeId, int]) -> float:
        """Least link scale / ingress streams among the nodes the
        round's reconstructions touch (the key
        :func:`~repro.core.scheduling.order_chain` sorts by)."""
        involved = set()
        for action in round_.reconstructions:
            involved.update(action.sources)
            involved.add(action.destination)
        return min(
            self.link_scales.get(node, 1.0) / (streams.get(node) or 1)
            for node in involved
        )

    def _round_k(self, round_) -> int:
        ks = {
            self.cluster.stripe(a.stripe_id).k for a in round_.reconstructions
        }
        if len(ks) != 1:
            raise ValueError(f"mixed k values in one round: {sorted(ks)}")
        return ks.pop()

    def _migration_model(self) -> AnalyticalModel:
        # t_m only needs the profile; k is irrelevant but required.
        return AnalyticalModel(
            num_nodes=self.cluster.num_storage_nodes,
            k=1,
            profile=self.profile,
        )


def evaluate_plan(
    cluster: StorageCluster,
    plan: RepairPlan,
    profile: Optional[BandwidthProfile] = None,
    k_prime: Optional[int] = None,
    link_scales: Optional[Dict[NodeId, float]] = None,
) -> RepairResult:
    """One-call convenience wrapper around :class:`CostModelSimulator`."""
    return CostModelSimulator(
        cluster, profile=profile, k_prime=k_prime, link_scales=link_scales
    ).run(plan)
