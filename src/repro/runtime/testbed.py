"""The emulated testbed: our stand-in for the paper's EC2 deployment.

The paper evaluates FastPR on 25 EC2 instances running HDFS.  Offline,
we substitute a local multi-threaded deployment: every node is an
:class:`~repro.runtime.agent.Agent` with an on-disk chunk store and
emulated disk/NIC bandwidths, all hosted in this process.  Real chunk
bytes are encoded, transferred packet by packet, decoded with GF(2^8)
arithmetic, and verified after repair — the full data path of the
prototype, at scaled-down chunk sizes and bandwidths (see DESIGN.md,
substitutions).

The testbed only *hosts* the agents.  The coordinator's side of a
repair — fault injector, journal, coordinator incarnations, shards,
verification — is the :class:`~repro.runtime.driver.RepairDriver` it
inherits, the same one that drives agent processes over tcp or shm.

Fault injection: pass a :class:`~repro.runtime.faults.FaultPlan` (or
call :meth:`EmulatedTestbed.crash_node`) to kill nodes mid-repair,
drop/corrupt/duplicate packets, or degrade NICs — the coordinator's
supervised state machine then retries and replans until every chunk is
repaired or provably unrepairable.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from pathlib import Path
from typing import Optional

from ..cluster.cluster import StorageCluster
from ..cluster.topology import RackTopology
from ..ec.codec import ErasureCodec
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .agent import AgentError
from .config import RuntimeConfig
from .driver import (  # noqa: F401 - what verify_plan raises, for callers
    ChunkMismatch,
    RepairDriver,
    VerificationError,
    host_agent,
    mismatch_error,
)
from .faults import FaultPlan
from .transport import Network


class EmulatedTestbed(RepairDriver):
    """A local cluster of agents with bandwidth emulation.

    Keywords not listed here are :class:`RepairDriver`'s.

    Args:
        cluster: metadata (placements, bandwidths, chunk size).  The
            cluster's ``disk_bandwidth``/``network_bandwidth`` become
            the emulated rates; the chunk size is used verbatim, so
            scale it down (e.g. 1 MiB) for fast runs.
        workdir: directory for chunk files; a temp dir by default.
        config: runtime timeouts/retry policy (defaults are
            production-like; tests pass tighter ones).
        metrics, tracer: shared :class:`~repro.obs.MetricsRegistry` /
            :class:`~repro.obs.Tracer` of the whole run (coordinator,
            agents, transport, journal); fresh ones (the tracer
            enabled, wall-clock) are created when omitted and are
            always available as :attr:`metrics` / :attr:`tracer`.
        network: alternative transport backend (e.g. a loopback-wired
            :class:`repro.net.TcpNetwork`); the testbed attaches every
            node to it.  Defaults to a fresh in-memory
            :class:`~repro.runtime.transport.Network`.
        arbiter: optional :class:`repro.gateway.TrafficArbiter` —
            installed on the network so repair traffic cannot starve
            client GETs.
    """

    def __init__(
        self,
        cluster: StorageCluster,
        codec: ErasureCodec,
        packet_size: Optional[int] = None,
        workdir: Optional[Path] = None,
        config: Optional[RuntimeConfig] = None,
        faults: Optional[FaultPlan] = None,
        journal_path: Optional[Path] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        network: Optional[Network] = None,
        topology: Optional[RackTopology] = None,
        arbiter=None,
    ):
        if packet_size:  # 0 or None: the driver picks the size
            # Rejected before any store, thread or temp dir exists.
            self._fitting(packet_size)
        self._own_workdir = workdir is None
        workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="fastpr-"))
        config = config or RuntimeConfig()
        metrics = metrics if metrics is not None else MetricsRegistry()
        tracer = tracer if tracer is not None else Tracer()
        if network is None:
            network = Network(
                metrics=metrics, inbox_capacity=config.inbox_capacity
            )
        if arbiter is not None:
            network.arbiter = arbiter
        #: set at shutdown; interrupts every throttled sleep in flight
        self._stop = threading.Event()
        agents = {
            node_id: host_agent(
                network,
                cluster,
                workdir,
                node_id,
                config=config,
                metrics=metrics,
                tracer=tracer,
                stop=self._stop,
            )
            for node_id in sorted(cluster.nodes)
        }
        super().__init__(
            network,
            cluster,
            codec,
            workdir,
            packet_size=packet_size,
            config=config,
            journal_path=journal_path,
            metrics=metrics,
            tracer=tracer,
            faults=faults,
            topology=topology,
            agents=agents,
        )
        self.build()
        self._started = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._stop.clear()
        for agent in self.agents.values():
            agent.start(heartbeat=self.faults is not None)
        self._started = True

    def shutdown(self, check_errors: bool = True) -> None:
        """Stop every agent; surfaces recorded agent errors.

        Args:
            check_errors: assert that no surviving agent recorded an
                unreported error (crashed nodes are excused — a dead
                process files no reports).
        """
        self._stop.set()  # interrupt every throttled sleep in flight
        for agent in self.agents.values():
            agent.stop()
        self.close()
        self._started = False
        errors = {
            node_id: agent.errors
            for node_id, agent in self.agents.items()
            if agent.errors and not agent.crashed
        }
        if self._own_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
        if check_errors and errors:
            summary = "; ".join(
                f"node {node_id}: {errs[0]!r}" for node_id, errs in errors.items()
            )
            raise AgentError(f"agents recorded unhandled errors: {summary}")

    def __enter__(self) -> "EmulatedTestbed":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        # Don't let the teardown error check shadow an in-flight one.
        self.shutdown(check_errors=exc[0] is None)

    def _supervised(self, run):
        if not self._started:
            raise RuntimeError("call start() (or use as a context manager) first")
        return super()._supervised(run)
