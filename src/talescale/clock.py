"""Deterministic discrete-event clock.

Everything in the simulated world — LRM queue waits, poll cycles, pilot
ticks, data transfers — schedules callbacks on a single shared clock, so a
run is a pure function of its inputs. Events fire in (time, sequence)
order; insertion sequence breaks ties, which makes interleavings
reproducible without any wall-clock dependence.

Two calling contexts exist:

* driver context (test code, CLI): may advance the clock, and synchronous
  operation costs (``consume``) really move time forward;
* event context (callbacks fired by the clock): may schedule further
  events but must never advance time; ``consume`` is a no-op there, since
  a scheduled callback is instantaneous by construction.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    fn: Callable[[], None] = field(compare=False)
    canceled: bool = field(default=False, compare=False)


class EventHandle:
    __slots__ = ("_event",)

    def __init__(self, event: _Event):
        self._event = event

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def canceled(self) -> bool:
        return self._event.canceled


class SimClock:
    def __init__(self):
        self._now = 0.0
        self._heap: list[_Event] = []
        self._seq = itertools.count()
        self._dispatching = False

    @property
    def now(self) -> float:
        return self._now

    @property
    def dispatching(self) -> bool:
        return self._dispatching

    def at(self, time: float, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` at absolute simulated time; never in the past."""
        if time < self._now:
            raise ValueError(f"cannot schedule event at {time} before now={self._now}")
        ev = _Event(time, next(self._seq), fn)
        heapq.heappush(self._heap, ev)
        return EventHandle(ev)

    def after(self, delay: float, fn: Callable[[], None]) -> EventHandle:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        return self.at(self._now + delay, fn)

    def cancel(self, handle: EventHandle) -> None:
        handle._event.canceled = True

    def run_until(self, horizon: float) -> None:
        """Fire every event with time <= horizon, then set now = horizon.

        Time never decreases: a horizon in the past is a no-op.
        """
        if self._dispatching:
            raise RuntimeError("clock cannot be advanced from inside an event callback")
        if horizon < self._now:
            return
        while self._heap and self._heap[0].time <= horizon:
            ev = heapq.heappop(self._heap)
            if ev.canceled:
                continue
            self._now = ev.time
            self._dispatching = True
            try:
                ev.fn()
            finally:
                self._dispatching = False
        self._now = max(self._now, horizon)

    def advance(self, dt: float) -> None:
        self.run_until(self._now + dt)

    def consume(self, dt: float) -> None:
        """Charge a synchronous operation cost.

        Advances the clock in driver context; no-op while dispatching.
        """
        if dt < 0:
            raise ValueError("cost must be >= 0")
        if not self._dispatching and dt > 0:
            self.run_until(self._now + dt)

    def step(self) -> bool:
        """Fire the single next event, if any. Returns False when idle."""
        while self._heap and self._heap[0].canceled:
            heapq.heappop(self._heap)
        if not self._heap:
            return False
        self.run_until(self._heap[0].time)
        return True
