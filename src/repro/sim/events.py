"""A small discrete-event scheduler.

:class:`Simulation` runs callbacks at absolute virtual times, in time
order, for event-driven models (e.g. :mod:`repro.sim.lifetime`) that
react to point events — a disk failing, a scrub tick.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


class Simulation:
    """Runs scheduled callbacks in virtual time."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: List = []
        self._seq = itertools.count()

    def schedule_at(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute virtual time ``time``.

        Events at equal times fire in scheduling order.
        """
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self.now})"
            )
        heapq.heappush(self._queue, (max(time, self.now), next(self._seq), fn))

    def run(self) -> float:
        """Run until no events remain; returns the final virtual time."""
        while self._queue:
            time, _, fn = heapq.heappop(self._queue)
            if time < self.now - 1e-12:
                raise SimulationError("time went backwards")
            self.now = max(self.now, time)
            fn()
        return self.now

    def run_until(self, deadline: float) -> float:
        """Run events with ``time <= deadline``; advance ``now`` to it.

        Events scheduled beyond ``deadline`` stay queued for a later
        :meth:`run` / :meth:`run_until` call — the hook lifetime-mode
        uses to cut a simulated horizon without draining renewals that
        fall past it.
        """
        while self._queue and self._queue[0][0] <= deadline:
            time, _, fn = heapq.heappop(self._queue)
            self.now = max(self.now, time)
            fn()
        self.now = max(self.now, deadline)
        return self.now
