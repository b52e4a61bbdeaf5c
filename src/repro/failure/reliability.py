"""Window-of-vulnerability analysis.

The paper's case for minimizing repair time (Section II-B): "Minimizing
the repair time is critical for reducing the window of vulnerability,
especially when failures are correlated and subsequent failures appear
sooner after the first failure [Schroeder & Gibson]".  This module
makes that argument quantitative with a Monte-Carlo estimator:

given a repair plan and its (simulated or measured) timing, sample
correlated follow-up node failures and count how often a stripe loses
more chunks than its code tolerates before its STF chunk is repaired.

Comparing the estimator across planners shows the reliability payoff
of FastPR's shorter repairs, and comparing predictive vs reactive
start times shows the payoff of acting before the failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..cluster.chunk import NodeId
from ..cluster.cluster import StorageCluster
from ..core.plan import RepairPlan

#: seconds per year, for annualized failure rates
SECONDS_PER_YEAR = 365.25 * 24 * 3600


@dataclass(frozen=True)
class ReliabilityConfig:
    """Failure process parameters.

    Attributes:
        annual_failure_rate: per-node baseline AFR (field studies
            report 1-9%; default 4%).
        correlation_factor: hazard multiplier while a repair is in
            flight — correlated failures arrive sooner after a first
            failure (the paper cites Schroeder & Gibson); 1.0 disables
            correlation.
        trials: Monte-Carlo repetitions.
        seed: RNG seed.
    """

    annual_failure_rate: float = 0.04
    correlation_factor: float = 10.0
    trials: int = 2000
    seed: Optional[int] = None

    @property
    def hazard_per_second(self) -> float:
        """Exponential failure rate per node during the repair window."""
        base = self.annual_failure_rate / SECONDS_PER_YEAR
        return base * self.correlation_factor


@dataclass(frozen=True)
class VulnerabilityReport:
    """Monte-Carlo estimate of data-loss exposure during one repair."""

    loss_probability: float
    expected_lost_stripes: float
    trials: int
    repair_time: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"P(data loss)={self.loss_probability:.2e}, "
            f"E[lost stripes]={self.expected_lost_stripes:.2e} "
            f"over a {self.repair_time:.0f}s repair"
        )


def chunk_completion_times(
    plan: RepairPlan, round_times
) -> Dict[Tuple[int, int], float]:
    """Map each repaired chunk to the virtual time its round finishes.

    Rounds are barriers, so a chunk becomes safe when its round's last
    transfer completes.
    """
    if len(round_times) != len(plan.rounds):
        raise ValueError(
            f"{len(round_times)} round times for {len(plan.rounds)} rounds"
        )
    completion: Dict[Tuple[int, int], float] = {}
    elapsed = 0.0
    for round_, duration in zip(plan.rounds, round_times):
        elapsed += duration
        for action in round_.actions():
            completion[(action.stripe_id, action.chunk_index)] = elapsed
    return completion


def estimate_vulnerability(
    cluster: StorageCluster,
    plan: RepairPlan,
    round_times,
    stf_failure_time: float,
    config: ReliabilityConfig = ReliabilityConfig(),
) -> VulnerabilityReport:
    """Monte-Carlo data-loss probability during one repair.

    Args:
        cluster: metadata (stripe placements and tolerances).
        plan: the repair plan being executed from virtual time 0.
        round_times: per-round durations (e.g. from
            :func:`repro.sim.evaluate_plan`).
        stf_failure_time: when the STF node actually dies, measured
            from repair start.  ``0`` models reactive repair (the node
            is already gone); a positive value models predictive repair
            with that much lead; ``inf`` models a false alarm.
        config: failure process parameters.

    A stripe loses data in a trial iff, at some point before its STF
    chunk's repair completes, more than ``n - k`` of its chunk holders
    have failed (the unrepaired STF chunk counts as failed once the STF
    node dies).
    """
    completion = chunk_completion_times(plan, round_times)
    if not completion:
        return VulnerabilityReport(0.0, 0.0, config.trials, 0.0)
    repair_time = max(completion.values())
    # Pre-compute, per affected stripe: completion time, other holders,
    # and the failure budget.
    stripes = []
    for (stripe_id, chunk_index), done_at in completion.items():
        stripe = cluster.stripe(stripe_id)
        others = [n for n in stripe.placement if n != plan.stf_node]
        stripes.append((done_at, others, stripe.n - stripe.k))
    rng = random.Random(config.seed)
    hazard = config.hazard_per_second
    all_nodes = sorted(
        {n for _, others, _ in stripes for n in others}
    )
    loss_trials = 0
    lost_stripes_total = 0
    for _ in range(config.trials):
        # Sample each relevant node's failure time once per trial.
        fail_at = {
            node: rng.expovariate(hazard) if hazard > 0 else math.inf
            for node in all_nodes
        }
        lost_here = 0
        for done_at, others, budget in stripes:
            failures = sum(1 for node in others if fail_at[node] < done_at)
            if stf_failure_time < done_at:
                failures += 1
            if failures > budget:
                lost_here += 1
        if lost_here:
            loss_trials += 1
            lost_stripes_total += lost_here
    return VulnerabilityReport(
        loss_probability=loss_trials / config.trials,
        expected_lost_stripes=lost_stripes_total / config.trials,
        trials=config.trials,
        repair_time=repair_time,
    )


def compare_predictive_vs_reactive(
    cluster: StorageCluster,
    plan: RepairPlan,
    round_times,
    lead_time: float,
    config: ReliabilityConfig = ReliabilityConfig(),
) -> Tuple[VulnerabilityReport, VulnerabilityReport]:
    """Exposure with ``lead_time`` of warning vs none at all.

    Returns ``(predictive, reactive)`` reports for the same plan and
    timing — the reliability argument for predictive repair in one
    call.
    """
    predictive = estimate_vulnerability(
        cluster, plan, round_times, stf_failure_time=lead_time, config=config
    )
    reactive = estimate_vulnerability(
        cluster, plan, round_times, stf_failure_time=0.0, config=config
    )
    return predictive, reactive
