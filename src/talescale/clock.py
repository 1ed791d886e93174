"""Deterministic discrete-event clock.

Everything in the simulated world — LRM queue waits, poll cycles, pilot
ticks, data transfers — schedules callbacks on a single shared clock, so a
run is a pure function of its inputs. Events fire in (time, sequence)
order; insertion sequence breaks ties, which makes interleavings
reproducible without any wall-clock dependence.

The heap holds ``(time, seq, handle)`` tuples, so ordering is a native
tuple compare and ``seq`` is unique: the handle itself is never compared.
A canceled event stays in the heap as a tombstone until it is popped, but
the clock counts its live (pending, uncanceled) events and rebuilds the
heap without tombstones as soon as they outnumber the live ones. That
keeps the heap within twice the live events; since (time, seq) keys are
unique, the rebuild cannot change the firing order.

Two calling contexts exist:

* driver context (test code, CLI): may advance the clock, and synchronous
  operation costs (``consume``) really move time forward;
* event context (callbacks fired by the clock): may schedule further
  events but must never advance time; ``consume`` is a no-op there, since
  a scheduled callback is instantaneous by construction.

Grid events, scheduled with a ``grid`` tag, are the poll and pool ticks
on one interval grid; after an instant that fired only them, ``on_quiet``
may ``run_ahead`` them past points where they would only repeat
(``World._run_ahead`` states the rule). A stretch costs O(1) in its length:
its points are a lazy ``_Grid``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from typing import Callable

from .errors import ValidationError


def grid_after(now: float, interval: float) -> float:
    """The first point of the ``interval`` grid strictly after ``now``.

    The one grid rule: middleware pollers and pilot-pool ticks both land on
    these points, so events of the two meet at bit-identical times. When
    ``now / interval`` rounds down (0.6 / 0.1 gives 5.999...), the formula's
    point can be ``now`` itself; then the point one cell later is taken.
    Where ``interval`` is below the float spacing at ``now`` (5 s at 1e17),
    that point is ``now`` too: no grid event could move time on, so this
    raises ``ValidationError``.
    """
    cell = math.floor(now / interval)
    point = cell * interval + interval
    if not point > now:
        point = (cell + 1) * interval + interval
        if not point > now:
            raise ValidationError(f"a {interval!r} s grid has no point after t={now!r}: "
                                  f"the interval is below the float spacing there")
    return point


class _Grid:
    """Points of one ``interval`` grid, in order: ``start``, then the point
    ``cell * interval + interval`` of each cell in ``cells``. A read-only
    sequence that stores none of them: its length, its items (``-1``
    too), its heads (``grid[:n]``) and its iteration compute the floats on
    use, so a stretch of any length costs O(1) until it is iterated. The
    iteration runs at C level: one ``map`` multiplies, one adds (the
    ``operator`` functions cost less per call than bound ``float``
    methods)."""

    __slots__ = ("start", "cells", "interval")

    def __init__(self, start: float, cells: range, interval: float):
        self.start, self.cells, self.interval = start, cells, interval

    def __len__(self) -> int:
        return len(self.cells) + 1

    def __getitem__(self, index):
        if type(index) is slice:  # only heads are taken
            head = range(len(self.cells) + 1)[index]
            if head.start or head.step != 1:
                raise ValueError("a grid gives only its heads")
            return _Grid(self.start, self.cells[:len(head) - 1], self.interval) if head else ()
        if index < 0:
            index += len(self.cells) + 1
            if index < 0:
                raise IndexError("grid index out of range")
        # past the end, the cells raise IndexError
        return self.cells[index - 1] * self.interval + self.interval if index else self.start

    def __iter__(self):
        interval = itertools.repeat(self.interval)
        return itertools.chain((self.start,), map(
            operator.add, map(operator.mul, self.cells, interval), interval))


def _grid_points(start: float, interval: float, limit: float) -> tuple[_Grid | tuple, float]:
    """The points of the ``interval`` grid from ``start``, one of them, on
    that lie before ``limit`` (a ``_Grid``, or ``()`` when none does), and
    the first point that does not.

    Each point is ``grid_after`` of the one before. A grid point is
    ``cell * interval + interval`` for an integer cell, and while cells stay
    below 2**49 (any grid a run can walk) ``grid_after`` of it is the next
    cell's point: ``point / interval`` is within rounding of ``cell + 1``,
    so the formula gives that point, or the point itself and then the next.
    So the points after ``start`` are those of consecutive cells, from the
    one ``round`` finds for ``grid_after(start)``. Points grow with their
    cell, so the first cell whose point is not before ``limit`` is found
    from ``limit / interval`` and corrected by at most a step or two.
    """
    if start >= limit:
        return (), start
    first = round(grid_after(start, interval) / interval) - 1
    end = max(first, math.ceil(limit / interval) - 1)
    while end > first and (end - 1) * interval + interval >= limit:
        end -= 1
    while end * interval + interval < limit:
        end += 1
    return _Grid(start, range(first, end), interval), end * interval + interval


class EventHandle:
    """One scheduled callback; pending while ``_fn`` is set. ``grid`` is a
    grid event's tag, None for any other event."""

    __slots__ = ("_fn", "grid")

    def __init__(self, fn: Callable[[], None], grid=None):
        self._fn: Callable[[], None] | None = fn
        self.grid = grid


class SimClock:
    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._live = 0  # heap entries still pending; the rest are tombstones
        self._seq = itertools.count()
        self._dispatching = False
        # Called with run_until's horizon after an instant that fired grid
        # events only; see run_ahead.
        self.on_quiet: Callable[[float], None] | None = None

    @property
    def now(self) -> float:
        return self._now

    def at(self, time: float, fn: Callable[[], None], grid=None) -> EventHandle:
        """Schedule ``fn`` at absolute simulated time; never in the past.
        A ``grid`` tag makes it a grid event (see ``run_ahead``).

        A NaN time is refused too: it compares false with every key, so
        on the heap it would stop the events behind it from firing.
        """
        if not time >= self._now:
            raise ValueError(f"cannot schedule event at {time} before now={self._now}")
        handle = EventHandle(fn, grid)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        self._live += 1
        return handle

    def after(self, delay: float, fn: Callable[[], None]) -> EventHandle:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        return self.at(self._now + delay, fn)

    def cancel(self, handle: EventHandle) -> None:
        if handle._fn is not None:  # neither fired nor canceled before
            handle._fn = None
            self._live -= 1
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones once they outnumber live events.

        In place, because ``run_until`` may be iterating this very list.
        """
        heap = self._heap
        if len(heap) > 2 * self._live:
            heap[:] = [entry for entry in heap if entry[2]._fn is not None]
            heapq.heapify(heap)

    def run_until(self, horizon: float) -> None:
        """Fire every event with time <= horizon, then set now = horizon.
        After an instant that fired grid events only, call ``on_quiet``.

        Time never decreases: a horizon in the past is a no-op.
        """
        if self._dispatching:
            raise RuntimeError("clock cannot be advanced from inside an event callback")
        if horizon < self._now:
            return
        heap, on_quiet = self._heap, self.on_quiet
        loud = None  # the last instant that fired an event other than a grid one
        while heap and heap[0][0] <= horizon:
            time, _, handle = heapq.heappop(heap)
            fn = handle._fn
            if fn is None:
                continue
            handle._fn = None
            self._live -= 1
            self._now = time
            self._dispatching = True
            try:
                fn()
            finally:
                self._dispatching = False
            if handle.grid is None:
                loud = time
            elif loud != time and on_quiet is not None and heap and heap[0][0] > time:
                on_quiet(horizon)
        self._now = max(self._now, horizon)
        self._compact()

    def run_ahead(self, stop: float, interval: float, plan) -> None:
        """Move the group of grid events at the head of the heap forward
        along the ``interval`` grid, past the points ``plan`` lets it skip.

        The group is the pending grid events at the earliest pending time,
        in firing order; another event at that time leaves it empty.
        ``plan(tags)`` gets the group's tags and returns None to leave it
        where it is, or ``(until, step)``. ``step`` gets the grid points
        from the group's time on that lie before ``stop``, ``until`` and the
        next event outside the group, as a lazy ``_Grid`` (``()`` when there
        are none) that it may keep, and returns how many of them, from the
        first, it stood in for. Those are skipped: ``now`` ends at the
        last of them, and the group is queued again, in its firing order,
        at the first point not skipped, after the events already pending at
        that time, as a re-arm would be.
        """
        heap, group = self._heap, []
        while heap:
            time, _, handle = heap[0]
            if handle._fn is not None:  # else a tombstone, dropped here
                if handle.grid is None or (group and time != group[0][0]):
                    break
                group.append(heap[0])
            heapq.heappop(heap)
        if not group:
            return
        start = point = group[0][0]
        limit = min(stop, heap[0][0]) if heap else stop
        answer = plan([handle.grid for _, _, handle in group]) if start < limit else None
        if answer is not None:
            until, step = answer
            points, point = _grid_points(start, interval, min(limit, until))
            made = step(points)
            if made:
                self._now = points[made - 1]
            if made < len(points):
                point = points[made]
        if point == start:
            for entry in group:
                heapq.heappush(heap, entry)
        else:
            for _, _, handle in group:
                heapq.heappush(heap, (point, next(self._seq), handle))

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
        heap = self._heap
        while heap and heap[0][2]._fn is None:
            heapq.heappop(heap)
        if not heap:
            return False
        self.run_until(heap[0][0])
        return True
