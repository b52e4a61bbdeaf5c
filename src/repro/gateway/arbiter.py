"""QoS arbitration between client, repair, and scrub traffic, per link.

The testbed's NIC :class:`~repro.runtime.throttle.RateLimiter`s emulate
*capacity*; they are deliberately class-blind, so a repair storm that
keeps every NIC busy starves foreground GETs — exactly the failure mode
predictive repair exists to avoid (PAPER.md).  The
:class:`TrafficArbiter` adds the missing policy layer: every throttled
transfer is classified by its message's ``TRAFFIC_CLASS`` attribute
(``"client"`` for gateway chunk ops, ``"repair"`` for
:class:`~repro.runtime.messages.DataPacket`, ``"scrub"`` for the
daemon's verification sweeps) and names the *links* it is about to
reserve — ``(node, "out")`` for a sender's egress NIC, ``(node, "in")``
for a receiver's ingress.  All arbiter state is keyed by link: a repair
transfer is paced by what the foreground leaves on *its* NICs, not by
what any client is doing anywhere in the cluster (the static core of
the available-bandwidth-aware repair scheduling of Zhou et al.,
arXiv:2011.01410).

A client admit is never delayed.  It marks each of its links
*client-busy* for as long as its bytes need at the floor rate::

    busy_until = max(now, busy_until) + nbytes / (client_floor * rate)

so a link whose client demand reaches the floor is busy continuously,
one that carries less is busy for the matching share of the time, and
one no client byte touches is never busy.  Background classes hold one
token bucket per (class, link) that refills at ``rate`` while the link
is idle and at ``(1 - client_floor) * rate`` while it is client-busy;
a transfer waits for the slowest of its links.

Invariants (DESIGN.md §15):

* client transfers are admitted with zero added latency, always —
  arbitration policy must not tax the traffic it exists to protect;
* on every link, the background classes together get
  ``rate - min(client demand, client_floor * rate)``: at most
  ``(1 - client_floor) * rate`` where clients use their floor, the
  full line rate where they use nothing;
* the arbiter is *work-conserving*, also within one transfer: a wait
  computed at the clamped rate is never slept past the moment the
  link's client goes idle, and an idle background class lends its
  split of a link to the busy one;
* admission never reorders within a (class, link).

The arbiter sits *in front of* the NIC limiters (transports call
:meth:`TrafficArbiter.admit` before reserving NIC time), so capacity
emulation stays exact; the arbiter only decides *when* a background
transfer may start competing for the NIC.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

#: every traffic class the arbiter knows about
CLASSES = ("client", "repair", "scrub")

#: the classes that are paced; the client class never is
BACKGROUND = tuple(cls for cls in CLASSES if cls != "client")

#: class assumed for messages without a ``TRAFFIC_CLASS`` attribute
DEFAULT_CLASS = "repair"

#: a *background* class seen on a link in the last this-many seconds
#: still holds its split of that link (client busyness has no such
#: window: it is the link's ``busy_until``)
BUSY_WINDOW = 0.25

#: one NIC direction: ``(node id, "out")`` egress, ``(node id, "in")``
#: ingress
Link = Tuple[Hashable, str]

#: a shortfall the link makes up in this many seconds is rounding
_EPSILON = 1e-6


def traffic_class(message) -> str:
    """The arbitration class of a wire message (``TRAFFIC_CLASS``)."""
    cls = getattr(type(message), "TRAFFIC_CLASS", DEFAULT_CLASS)
    return cls if cls in CLASSES else DEFAULT_CLASS


class _Bucket:
    """One background class's token account on one link.

    Kept as two running totals instead of a token count so that every
    waiter can hold a *ticket* (the value of ``demand`` after its own
    bytes) and re-check ``supply >= ticket`` as often as it likes while
    later transfers keep queueing behind it.
    """

    __slots__ = ("supply", "demand", "refilled", "busy_seen")

    def __init__(self) -> None:
        self.supply = 0.0  #: bytes the link has offered this class
        self.demand = 0.0  #: bytes this class has asked of the link
        #: when ``supply`` was last brought up to date — by a transfer
        #: of the class entering or re-checking its wait, so also the
        #: last moment the class was seen on the link
        self.refilled: Optional[float] = None
        #: the link's client-busy seconds elapsed by then
        self.busy_seen = 0.0


class _LinkState:
    """Client busyness and the background buckets of one link."""

    __slots__ = ("busy_until", "busy_total", "buckets")

    def __init__(self) -> None:
        self.busy_until = 0.0
        #: client-busy seconds ever granted; the part of it that has
        #: already elapsed at ``t`` is ``busy_elapsed(t)``
        self.busy_total = 0.0
        self.buckets: Dict[str, _Bucket] = {}

    def busy_elapsed(self, now: float) -> float:
        return self.busy_total - max(self.busy_until - now, 0.0)


class TrafficArbiter:
    """Per-link traffic classifier with a client bandwidth floor.

    Args:
        rate: rate of every link in bytes/second that the buckets
            refill against — normally the testbed's per-node NIC
            bandwidth.  ``None`` or ``inf`` disables arbitration
            entirely.
        client_floor: fraction of a link's ``rate`` withheld from
            background classes while clients use it (0 ≤ floor < 1);
            0 never clamps.
        burst: bucket depth in bytes; a background class may burst
            this far ahead of its refill on a link before admission
            starts delaying it.  Defaults to 0.1 s of line rate (min
            256 KiB).
        metrics: optional :class:`~repro.obs.MetricsRegistry`; records
            ``arbiter_bytes_total`` / ``arbiter_wait_seconds`` /
            ``arbiter_active_flows``, all labeled by ``cls`` only, and
            ``arbiter_link_wait_seconds{cls,node,dir}`` — the delay
            each link imposed on each background transfer.
        stop: optional shutdown event; a set event aborts any
            admission wait immediately.
    """

    #: with :meth:`_sleep`, replaceable per instance so tests can run
    #: the pacing arithmetic in virtual time
    _clock = staticmethod(time.monotonic)

    def __init__(
        self,
        rate: Optional[float],
        client_floor: float = 0.5,
        burst: Optional[float] = None,
        metrics=None,
        stop: Optional[threading.Event] = None,
    ):
        if not 0.0 <= client_floor < 1.0:
            raise ValueError(
                f"client_floor must be in [0, 1), got {client_floor}"
            )
        self.rate = rate
        self.client_floor = client_floor
        if burst is None and rate is not None and rate != float("inf"):
            burst = max(rate * 0.1, 256 * 1024)
        self.burst = burst or 0.0
        self.stop = stop
        self._lock = threading.Lock()
        self._flows: Dict[str, int] = {cls: 0 for cls in CLASSES}
        self._links: Dict[Link, _LinkState] = {}
        self._bytes = None
        self._wait = None
        self._link_wait = None
        self._flow_gauge = None
        if metrics is not None:
            self._bytes = metrics.counter(
                "arbiter_bytes_total",
                "bytes admitted per traffic class",
            )
            self._wait = metrics.histogram(
                "arbiter_wait_seconds",
                "admission delay imposed per transfer",
            )
            self._link_wait = metrics.histogram(
                "arbiter_link_wait_seconds",
                "admission delay each link imposed per background transfer",
            )
            self._flow_gauge = metrics.gauge(
                "arbiter_active_flows",
                "registered flows per traffic class",
            )

    @property
    def disabled(self) -> bool:
        return self.rate is None or self.rate == float("inf")

    # ------------------------------------------------------------------
    # flow registration

    @contextmanager
    def register(self, cls: str):
        """Count a flow of class ``cls`` active for the context's span.

        Repair sessions and the daemon wrap their work in this so a
        background class keeps its split of every link even between
        packets (scrub moves no bytes through the transports at all).
        A ``"client"`` flow is accounting only — the
        ``arbiter_active_flows`` gauge — and clamps nothing: client
        busyness is what client *bytes* do to the links they cross.
        """
        if cls not in CLASSES:
            raise ValueError(f"unknown traffic class {cls!r}")
        self._count_flow(cls, +1)
        try:
            yield self
        finally:
            self._count_flow(cls, -1)

    def _count_flow(self, cls: str, step: int) -> None:
        with self._lock:
            self._flows[cls] += step
            flows = self._flows[cls]
        if self._flow_gauge is not None:
            self._flow_gauge.set(flows, cls=cls)

    def active_flows(self, cls: str) -> int:
        with self._lock:
            return self._flows[cls]

    # ------------------------------------------------------------------
    # admission

    def admit(
        self,
        message,
        nbytes: int,
        links: Sequence[Link],
        stop: Optional[threading.Event] = None,
    ) -> float:
        """Admit a transfer over ``links``; background sleeps when over-share.

        Client-class transfers are admitted immediately (their bytes
        just mark ``links`` client-busy, which clamps the background
        refill there).  A background transfer waits until every one of
        its links has offered its class the bytes; each sleep ends no
        later than the moment a clamping link's client goes idle, then
        the wait is re-evaluated.  Returns the admission delay imposed
        (seconds); the wait is interruptible by ``stop`` (or the
        arbiter's own stop event).
        """
        if self.disabled or nbytes <= 0:
            return 0.0
        cls = traffic_class(message)
        if cls == "client":
            self._mark_client_busy(links, nbytes)
            if self._bytes is not None:
                self._bytes.inc(nbytes, cls=cls)
                self._wait.observe(0.0, cls=cls)
            return 0.0
        event = stop or self.stop
        with self._lock:
            now = self._clock()
            waiting = [
                (key, *self._enqueue(cls, key, nbytes, now)) for key in links
            ]
        waited = 0.0
        link_waits: List[Tuple[Link, float]] = []
        while True:
            with self._lock:
                now = self._clock()
                needs = [
                    self._shortfall(cls, state, bucket, ticket, now)
                    for _, state, bucket, ticket in waiting
                ]
            short = []
            for entry, need in zip(waiting, needs):
                if need:
                    short.append(entry)
                else:
                    link_waits.append((entry[0], waited))
            waiting = short
            if not waiting:
                break
            # To the earliest moment any link can be done, so that each
            # link's wait is read off when it ends, not when the last does.
            pause = min(need for need in needs if need)
            waited += pause
            if self._sleep(pause, event):
                link_waits.extend((entry[0], waited) for entry in waiting)
                break
        if self._bytes is not None:
            self._bytes.inc(nbytes, cls=cls)
            self._wait.observe(waited, cls=cls)
            for (node, direction), seconds in link_waits:
                self._link_wait.observe(
                    seconds, cls=cls, node=node, dir=direction
                )
        return waited

    @staticmethod
    def _sleep(seconds: float, event: Optional[threading.Event]) -> bool:
        """Sleep ``seconds``; True when ``event`` cut the wait short."""
        if event is not None:
            return event.wait(timeout=seconds)
        time.sleep(seconds)
        return False

    def _mark_client_busy(self, links: Sequence[Link], nbytes: int) -> None:
        if not self.client_floor:
            return  # nothing is withheld for clients: never clamp
        seconds = nbytes / (self.client_floor * self.rate)
        with self._lock:
            now = self._clock()
            for key in links:
                state = self._link(key)
                state.busy_until = max(now, state.busy_until) + seconds
                state.busy_total += seconds

    def _link(self, key: Link) -> _LinkState:
        state = self._links.get(key)
        if state is None:
            state = self._links[key] = _LinkState()
        return state

    def _enqueue(
        self, cls: str, key: Link, nbytes: int, now: float
    ) -> Tuple[_LinkState, _Bucket, float]:
        """Queue ``nbytes`` of ``cls`` on a link (locked); its ticket."""
        state = self._link(key)
        bucket = state.buckets.get(cls)
        if bucket is None:
            bucket = state.buckets[cls] = _Bucket()
        self._refill(cls, state, bucket, now)
        bucket.demand += nbytes
        return state, bucket, bucket.demand

    def _share(self, cls: str, state: _LinkState, now: float) -> float:
        """``cls``'s split of a link's background budget (locked).

        The background classes that are busy on the link split it
        evenly; an idle one (no registered flow, no transfer entering
        or waiting here within :data:`BUSY_WINDOW`) lends its split to
        the others.
        """
        busy = 1
        for other in BACKGROUND:
            if other == cls:
                continue
            bucket = state.buckets.get(other)
            if self._flows[other] > 0 or (
                bucket is not None and now - bucket.refilled < BUSY_WINDOW
            ):
                busy += 1
        return 1.0 / busy

    def _refill(
        self, cls: str, state: _LinkState, bucket: _Bucket, now: float
    ) -> None:
        """Credit a bucket with what its link offered since last time.

        The link offers ``rate`` per second minus ``client_floor *
        rate`` for every second it was client-busy — exactly the
        client-busy seconds that *elapsed* in the interval, so demand
        below the floor costs the background no more than it uses.
        """
        busy = state.busy_elapsed(now)
        if bucket.refilled is None:
            bucket.supply = bucket.demand + self.burst
        else:
            offered = self.rate * self._share(cls, state, now) * (
                (now - bucket.refilled)
                - self.client_floor * (busy - bucket.busy_seen)
            )
            bucket.supply = min(
                bucket.supply + offered, bucket.demand + self.burst
            )
        bucket.refilled = now
        bucket.busy_seen = busy

    def _shortfall(
        self,
        cls: str,
        state: _LinkState,
        bucket: _Bucket,
        ticket: float,
        now: float,
    ) -> float:
        """Seconds until a link can have offered ``ticket`` (locked).

        0.0 once it has.  Otherwise a lower bound: while the link is
        client-busy it is the time at the clamped rate, cut off where
        the client goes idle — the caller sleeps that long and asks
        again.
        """
        self._refill(cls, state, bucket, now)
        rate = self.rate * self._share(cls, state, now)
        deficit = ticket - bucket.supply
        if deficit <= rate * _EPSILON:
            return 0.0
        if state.busy_until > now:
            return min(
                deficit / (rate * (1.0 - self.client_floor)),
                state.busy_until - now,
            )
        return deficit / rate
