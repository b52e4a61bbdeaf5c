"""Runtime tuning knobs for the coordinator/agent testbed.

Every timeout that used to be a magic constant in the runtime lives
here, so tests can run with tight deadlines and production-like runs
can relax them.  The coordinator derives its *per-round* deadlines
from the Section III cost model (see
:meth:`~repro.runtime.coordinator.CoordinatorState.estimate`); the
values below bound and scale those estimates rather than replacing
them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..core.serde import Schema

#: shared serde protocol (all fields optional: defaults fill gaps)
RUNTIME_CONFIG_SCHEMA = Schema(
    kind="RuntimeConfig",
    version=1,
    fields=(
        "ack_timeout",
        "join_timeout",
        "deadline_margin",
        "min_deadline",
        "max_retries",
        "backoff_base",
        "backoff_factor",
        "backoff_cap",
        "probe_timeout",
        "heartbeat_interval",
        "poll_interval",
        "journal_fsync",
        "lease_timeout",
        "inventory_timeout",
        "inbox_capacity",
        "send_queue_capacity",
        "connect_timeout",
        "drain_timeout",
        "pipeline_slices",
    ),
    implicit_version=1,
)


@dataclass(frozen=True)
class RuntimeConfig:
    """Timeouts, retry policy and health-check cadence of the runtime.

    Attributes:
        ack_timeout: ceiling (seconds) a sending agent waits for the
            destination's ``WriteComplete`` before NACKing the
            coordinator.  Also bounds a chain stage's wait for its
            upstream partial sum.
        join_timeout: seconds :meth:`Agent.stop` waits for each worker
            thread to exit.
        deadline_margin: multiplier applied to the cost-model estimate
            of a round's duration to obtain the coordinator's ACK
            deadline (covers emulation jitter and benign contention).
        min_deadline: floor (seconds) for any coordinator wait, so tiny
            test chunks do not produce sub-millisecond deadlines.
        max_retries: bounded per-action retries for transient faults
            (lost/corrupt packets, spurious NACKs) before the repair
            fails.
        backoff_base: first retry backoff (seconds).
        backoff_factor: exponential growth factor of the backoff.
        backoff_cap: upper bound (seconds) on a single backoff sleep.
        probe_timeout: seconds the coordinator waits for ``Pong``
            replies when deciding whether a silent node is dead.
        heartbeat_interval: agent -> coordinator heartbeat period in
            seconds; ``0`` disables heartbeats.
        poll_interval: granularity (seconds) of the coordinator's
            inbox polls and the agents' cancellable waits.
        journal_fsync: repair-journal durability policy — ``"always"``
            fsyncs every appended record, ``"never"`` leaves flushing
            to the OS (see :class:`repro.runtime.journal.RepairJournal`).
        lease_timeout: seconds a shard coordinator may go without
            renewing its liveness lease before the multi-coordinator
            supervisor declares it wedged and hands the shard to a
            successor (see :class:`repro.runtime.multicoord.MultiCoordinator`).
        inventory_timeout: seconds a recovering coordinator waits for
            :class:`~repro.runtime.messages.InventoryReply` messages
            when reconciling the journal against agent stores.
        inbox_capacity: bound on every endpoint's inbox queue; ``0``
            means unbounded.  A full inbox blocks the sender — the
            same backpressure an OS socket buffer exerts — so overload
            behaves identically on the in-memory and TCP backends.
        send_queue_capacity: bound on each TCP peer's outgoing frame
            queue; a full queue blocks the sending thread until the
            writer drains (per-peer backpressure over sockets).
        connect_timeout: total seconds a TCP peer connection may spend
            reconnecting (with exponential backoff) before frames to
            that peer are dropped as undeliverable.
        drain_timeout: seconds :meth:`TcpNetwork.close` waits for each
            peer's queued frames to flush before force-closing.
        pipeline_slices: slices per chunk along a repair chain.  A
            slice is a packet: with ``N > 0`` the coordinator sizes a
            chained reconstruction's packets at ``ceil(chunk / N)``
            bytes; ``0`` gives chains the run's packet size, like star
            and migration streams.
    """

    ack_timeout: float = 120.0
    join_timeout: float = 30.0
    deadline_margin: float = 4.0
    min_deadline: float = 5.0
    max_retries: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0
    probe_timeout: float = 2.0
    heartbeat_interval: float = 0.5
    poll_interval: float = 0.25
    journal_fsync: str = "always"
    lease_timeout: float = 10.0
    inventory_timeout: float = 5.0
    inbox_capacity: int = 0
    send_queue_capacity: int = 64
    connect_timeout: float = 30.0
    drain_timeout: float = 10.0
    pipeline_slices: int = 0

    def __post_init__(self):
        if self.ack_timeout <= 0 or self.min_deadline <= 0:
            raise ValueError("timeouts must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.deadline_margin < 1.0:
            raise ValueError("deadline_margin must be >= 1")
        if self.journal_fsync not in ("always", "never"):
            raise ValueError("journal_fsync must be 'always' or 'never'")
        if self.inventory_timeout <= 0:
            raise ValueError("inventory_timeout must be positive")
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if self.inbox_capacity < 0:
            raise ValueError("inbox_capacity must be non-negative (0 = unbounded)")
        if self.send_queue_capacity < 1:
            raise ValueError("send_queue_capacity must be positive")
        if self.connect_timeout <= 0 or self.drain_timeout <= 0:
            raise ValueError("net timeouts must be positive")
        if self.pipeline_slices < 0:
            raise ValueError(
                "pipeline_slices must be non-negative (0 = packet-granular)"
            )

    def backoff(self, retry: int) -> float:
        """Backoff before the ``retry``-th reissue (1-based)."""
        delay = self.backoff_base * self.backoff_factor ** max(retry - 1, 0)
        return min(delay, self.backoff_cap)

    def to_dict(self) -> dict:
        """Versioned JSON form (ops configs, metrics-out provenance)."""
        return RUNTIME_CONFIG_SCHEMA.dump(asdict(self))

    @classmethod
    def from_dict(cls, document: dict) -> "RuntimeConfig":
        """Inverse of :meth:`to_dict`; omitted fields keep defaults,
        unknown keys raise so config-file typos surface."""
        return cls(**RUNTIME_CONFIG_SCHEMA.load(document))


#: defaults used when no config is passed anywhere
DEFAULT_CONFIG = RuntimeConfig()
