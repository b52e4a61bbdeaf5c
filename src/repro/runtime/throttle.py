"""Bandwidth emulation via reservation-based rate limiters.

The testbed-substitute runtime moves real bytes between threads, but
emulates the paper's disk/network bandwidths (``b_d``, ``b_n``) with
rate limiters.  Each limiter models one serial device: a request for
``n`` bytes reserves the device for ``n / rate`` seconds starting when
the device next frees up, then sleeps until that reservation completes.
This is the serial-device assumption behind the cost model's
Eqs. (4)-(6), in wall-clock time.

Fairness (DESIGN.md §15): strict FIFO reservation lets one huge
reservation push ``_next_free`` far into the future, so a 4 KiB client
request queued behind a 100 MB repair reservation would wait out the
whole backlog.  Requests of at most ``small_grant_bytes`` therefore
take a *small-grant fast path* while a larger-than-small reservation
is still occupying the device: they are granted immediately (serialized
only against other small grants), and the device's tail is pushed back
by their duration instead — work-conserving, so the long-run rate is
unchanged; only the large flow's *future* reservations absorb the
delay.  With no large reservation pending the limiter behaves exactly
as before (pure FIFO), so repair-only workloads see identical timing.
"""

from __future__ import annotations

import threading
import time
from typing import Optional


class RateLimiter:
    """A serial device with a fixed byte rate.

    Args:
        rate: bytes per second; ``None`` or ``float('inf')`` disables
            throttling (used when loading fixtures).
        name: label for diagnostics.
        stop: optional shutdown event; a set event interrupts any
            throttled sleep immediately, so a testbed teardown never
            waits out emulated transfer time.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; when
            set, every :meth:`throttle` observes its wait into the
            ``ratelimiter_wait_seconds`` histogram and counts bytes
            into ``ratelimiter_bytes_total``, labeled by ``labels``.
        labels: metric labels identifying this device (e.g.
            ``{"device": "disk", "node": 3}``).
        small_grant_bytes: requests at most this large take the
            small-grant fast path while a larger reservation is still
            pending (see the module docstring); 0 disables it.
    """

    def __init__(
        self,
        rate: Optional[float],
        name: str = "",
        stop: Optional[threading.Event] = None,
        metrics=None,
        labels: Optional[dict] = None,
        small_grant_bytes: int = 256 * 1024,
    ):
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.name = name
        self.stop = stop
        self.small_grant_bytes = max(int(small_grant_bytes), 0)
        self._lock = threading.Lock()
        self._next_free = 0.0  # monotonic timestamp
        #: serializes concurrent small grants riding the fast path
        self._small_cursor = 0.0
        #: deadline of the newest larger-than-small reservation; the
        #: fast path is live only while this lies in the future
        self._large_until = 0.0
        #: cumulative bytes passed through (for throughput assertions)
        self.bytes_total = 0
        self.labels = dict(labels or {})
        self._wait_hist = None
        self._bytes_counter = None
        if metrics is not None:
            self._wait_hist = metrics.histogram(
                "ratelimiter_wait_seconds",
                "emulated-device reservation wait per throttled request",
            )
            self._bytes_counter = metrics.counter(
                "ratelimiter_bytes_total",
                "bytes passed through each emulated serial device",
            )

    @property
    def unlimited(self) -> bool:
        return self.rate is None or self.rate == float("inf")

    def reserve(self, nbytes: int) -> float:
        """Reserve the device for ``nbytes``; returns the wake deadline.

        Does not sleep; callers combine reservations (e.g. sender +
        receiver NIC) before sleeping via :func:`sleep_until`.

        A request of at most ``small_grant_bytes`` arriving while a
        larger reservation is still pending is granted out of FIFO
        order with a wait bounded by its own duration (plus any queued
        small grants); the device tail is extended by the same amount,
        conserving the long-run rate.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        now = time.monotonic()
        if self.unlimited:
            return now
        duration = nbytes / self.rate
        with self._lock:
            if self._small_fastpath(nbytes, now):
                start = max(now, self._small_cursor)
                deadline = start + duration
                self._small_cursor = deadline
                self._next_free += duration  # the backlog pays the time
                self.bytes_total += nbytes
                return deadline
            start = max(now, self._next_free)
            deadline = start + duration
            self._next_free = deadline
            if nbytes > self.small_grant_bytes:
                self._large_until = deadline
            self.bytes_total += nbytes
            return deadline

    def _small_fastpath(self, nbytes: int, now: float) -> bool:
        """True when ``nbytes`` may jump the queue (lock must be held)."""
        return (
            0 < self.small_grant_bytes >= nbytes
            and self._large_until > now
        )

    def throttle(self, nbytes: int) -> None:
        """Reserve and sleep until the reservation completes.

        The sleep is interruptible via the limiter's ``stop`` event.
        """
        deadline = self.reserve(nbytes)
        if self._wait_hist is not None:
            self._wait_hist.observe(
                max(deadline - time.monotonic(), 0.0), **self.labels
            )
            self._bytes_counter.inc(nbytes, **self.labels)
        sleep_until(deadline, stop=self.stop)


def sleep_until(
    deadline: float, stop: Optional[threading.Event] = None
) -> None:
    """Sleep until a ``time.monotonic`` deadline (no-op if past).

    With ``stop`` set, the wait aborts as soon as the event fires —
    shutdown must not block on emulated bandwidth reservations.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return
    if stop is not None:
        stop.wait(timeout=remaining)
    else:
        time.sleep(remaining)


def reserve_transfer(
    sender: RateLimiter, receiver: RateLimiter, nbytes: int
) -> float:
    """Reserve a transfer occupying both NICs; returns the deadline.

    Both devices are held for the same window, whose length is set by
    the slower of the two rates — the semantics the analysis assumes
    for its single ``c/b_n`` terms.
    """
    if sender.unlimited and receiver.unlimited:
        return time.monotonic()
    rates = [lim.rate for lim in (sender, receiver) if not lim.unlimited]
    duration = nbytes / min(rates)
    # Lock in a fixed global order to avoid deadlock.
    first, second = sorted((sender, receiver), key=id)
    with first._lock:
        with second._lock:
            now = time.monotonic()
            limited = [lim for lim in (sender, receiver) if not lim.unlimited]
            # Small-grant fast path (see RateLimiter.reserve): the
            # transfer may overtake a limiter's backlog only where a
            # large reservation is the thing in the way; on the other
            # limiter it queues normally.  Both NICs still cover the
            # identical [start, deadline] window.
            jumping = [
                lim for lim in limited if lim._small_fastpath(nbytes, now)
            ]
            if jumping:
                start = now
                for lim in limited:
                    if lim in jumping:
                        start = max(start, lim._small_cursor)
                    else:
                        start = max(start, lim._next_free)
                deadline = start + duration
                for lim in limited:
                    if lim in jumping:
                        lim._small_cursor = deadline
                        lim._next_free += duration  # backlog pays
                    else:
                        lim._next_free = deadline
                    lim.bytes_total += nbytes
                return deadline
            start = now
            for lim in limited:
                start = max(start, lim._next_free)
            deadline = start + duration
            for lim in limited:
                lim._next_free = deadline
                if nbytes > lim.small_grant_bytes:
                    lim._large_until = deadline
                lim.bytes_total += nbytes
            return deadline
