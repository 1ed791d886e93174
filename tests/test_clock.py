import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from talescale.clock import SimClock, _grid_points, grid_after
from talescale.errors import ValidationError
from talescale.middleware import JobSpec

from conftest import batch_world


def test_events_fire_in_time_then_insertion_order():
    clock = SimClock()
    fired = []
    clock.at(5.0, lambda: fired.append("b"))
    clock.at(1.0, lambda: fired.append("a"))
    clock.at(5.0, lambda: fired.append("c"))  # same time, later insertion
    clock.run_until(10.0)
    assert fired == ["a", "b", "c"]
    assert clock.now == 10.0


def test_run_until_is_inclusive_and_monotone():
    clock = SimClock()
    fired = []
    clock.at(5.0, lambda: fired.append(1))
    clock.run_until(5.0)
    assert fired == [1]
    clock.run_until(3.0)  # past horizon: no-op, time never decreases
    assert clock.now == 5.0


def test_cannot_schedule_in_the_past():
    clock = SimClock()
    clock.run_until(10.0)
    with pytest.raises(ValueError):
        clock.at(9.0, lambda: None)


def test_nan_time_is_refused_and_the_clock_keeps_running():
    # A NaN key compares false with every other one, so on the heap it would
    # keep the events behind it from firing.
    clock = SimClock()
    fired = []
    for t in (1.0, 2.0, 3.0, 5.0, 7.0, 8.0, 9.0):
        clock.at(t, lambda t=t: fired.append(t))
    with pytest.raises(ValueError):
        clock.at(float("nan"), lambda: fired.append("nan"))
    with pytest.raises(ValueError):
        clock.after(float("nan"), lambda: fired.append("nan"))
    clock.run_until(100.0)
    assert fired == [1.0, 2.0, 3.0, 5.0, 7.0, 8.0, 9.0]


def test_cancel_prevents_firing():
    clock = SimClock()
    fired = []
    handle = clock.at(1.0, lambda: fired.append(1))
    clock.cancel(handle)
    clock.run_until(2.0)
    assert fired == []
    assert handle._fn is None


def test_consume_advances_only_in_driver_context():
    clock = SimClock()
    seen = {}

    def inside():
        clock.consume(100.0)  # no-op while dispatching
        seen["t"] = clock.now

    clock.at(1.0, inside)
    clock.consume(2.0)
    assert seen["t"] == 1.0
    assert clock.now == 2.0


def test_no_reentrant_advance():
    clock = SimClock()
    errors = []

    def inside():
        try:
            clock.run_until(50.0)
        except RuntimeError as exc:
            errors.append(exc)

    clock.at(1.0, inside)
    clock.run_until(2.0)
    assert len(errors) == 1


def test_events_scheduled_during_dispatch_run_in_same_pass():
    clock = SimClock()
    fired = []
    clock.at(1.0, lambda: clock.after(1.0, lambda: fired.append("child")))
    clock.run_until(3.0)
    assert fired == ["child"]


def test_step_processes_single_event():
    clock = SimClock()
    fired = []
    clock.at(1.0, lambda: fired.append(1))
    clock.at(2.0, lambda: fired.append(2))
    assert clock.step()
    assert fired == [1]
    assert clock.step()
    assert fired == [1, 2]
    assert not clock.step()
    # a canceled head event is skipped: the step runs the next live one
    clock.cancel(clock.at(3.0, lambda: fired.append(3)))
    clock.at(4.0, lambda: fired.append(4))
    assert clock.step()
    assert fired == [1, 2, 4]
    assert clock.now == 4.0


def _live(clock):
    """Live events, recounted from the heap rather than read from the clock."""
    return sum(1 for _, _, handle in clock._heap if handle._fn is not None)


def test_cancel_counts_once_and_not_after_firing():
    clock = SimClock()
    fired = clock.at(1.0, lambda: None)
    pending = clock.at(5.0, lambda: None)
    clock.run_until(2.0)
    clock.cancel(fired)  # already fired: the live count must not move
    assert clock._live == 1 == _live(clock)
    clock.cancel(pending)
    clock.cancel(pending)  # already canceled
    assert clock._live == 0 == _live(clock)
    assert pending._fn is None


def test_cancel_churn_keeps_tombstones_bounded():
    # Every job is submitted and canceled at once on a queue whose start
    # events lie far in the future: without compaction their tombstones
    # pile up (3,833 of them after 4,000 s, with no live event left).
    world = batch_world(queue={"distribution": "exponential", "params": {"mean": 50_000.0}})
    clock = world.clock
    for _ in range(4_000):
        handle = world.middleware.submit(JobSpec(resource="hpc-1", command=("sleep", "1")))
        world.middleware.cancel(handle)
        clock.advance(1.0)
        live = _live(clock)
        assert clock._live == live
        assert len(clock._heap) <= 2 * live + 1
    clock.advance(10.0)
    assert world.middleware.active_pollers == 0
    assert len(clock._heap) == clock._live == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["at", "cancel", "run"]),
                          st.integers(0, 30), st.integers(0, 10**6)), max_size=80))
def test_compaction_never_changes_firing_order(ops):
    # The model: advancing to a horizon fires every pending event at or
    # before it, in (time, insertion) order; a cancel only hits pending ones.
    clock = SimClock()
    fired, handles = [], []
    model, model_fired = [], []  # model[key] = [time, pending]

    def model_run(horizon):
        due = sorted((when, key) for key, (when, pending) in enumerate(model)
                     if pending and when <= horizon)
        for _, key in due:
            model[key][1] = False
            model_fired.append(key)

    for op, t, pick in ops:
        if op == "at":
            key = len(model)
            handles.append(clock.at(clock.now + t, lambda key=key: fired.append(key)))
            model.append([clock.now + t, True])
        elif op == "cancel" and handles:
            key = pick % len(handles)
            clock.cancel(handles[key])
            model[key][1] = False
        elif op == "run":
            model_run(clock.now + t)
            clock.advance(t)
        assert fired == model_fired
        assert clock._live == _live(clock) == sum(pending for _, pending in model)
        assert len(clock._heap) <= 2 * _live(clock) + 1
    model_run(clock.now + 100.0)
    clock.advance(100.0)
    assert fired == model_fired
    assert clock._live == 0


def test_grid_after_is_strictly_after():
    assert grid_after(0.0, 5.0) == 5.0
    assert grid_after(5.0, 5.0) == 10.0
    assert grid_after(7.3, 5.0) == 10.0
    assert 0.7 <= grid_after(0.6, 0.1) < 0.7 + 1e-12
    assert grid_after(1e16, 5.0) == 1e16 + 4.0  # 1e16 + 5, at a float spacing of 2


@pytest.mark.parametrize("now, interval", [(1e17, 5.0), (2.0 ** 55, 1.0), (1e300, 1.0)])
def test_grid_after_refuses_a_grid_that_cannot_advance(now, interval):
    # the interval is below the float spacing at now: every point it gives is now
    message = f"{interval!r} s grid has no point after t={now!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        grid_after(now, interval)


def _cell_formula(now, interval):
    """The grid rule's formula on its own, which may give ``now`` itself."""
    return math.floor(now / interval) * interval + interval


@settings(max_examples=2000, deadline=None)
@given(now=st.floats(0.0, 1e9), interval=st.floats(1e-6, 1e6))
@example(now=0.6, interval=0.1)  # 0.6 / 0.1 is 5.999...
def test_grid_after_is_after_now_and_keeps_every_point_the_formula_gets_right(now, interval):
    point = grid_after(now, interval)
    assert point > now
    if _cell_formula(now, interval) > now:
        assert point == _cell_formula(now, interval)


@pytest.mark.parametrize("interval", [0.1, 0.3, 0.7, 1.1, 2.9, 0.05, 5.0])
def test_grid_points_walk_forward_from_zero(interval):
    point, points = 0.0, []
    for _ in range(2000):
        point = grid_after(point, interval)
        points.append(point)
    assert all(a < b for a, b in zip(points, points[1:]))
    assert points[-1] == pytest.approx(2000 * interval)


def _walked(start, interval, limit):
    """The grid points from ``start`` on that lie before ``limit``, each
    ``grid_after`` of the one before, and the first that does not."""
    points, point = [], start
    while point < limit:
        points.append(point)
        point = grid_after(point, interval)
    return points, point


@settings(max_examples=1000, deadline=None)
@given(now=st.floats(0.0, 1e7), interval=st.floats(1e-3, 1e3), steps=st.floats(0.0, 300.0))
@example(now=0.6, interval=0.1, steps=40.0)  # the formula gives back 0.6 itself
@example(now=0.0, interval=0.3, steps=2000.0)
@example(now=5.0, interval=5.0, steps=0.0)  # nothing before the limit
def test_a_run_ahead_walks_the_points_grid_after_gives(now, interval, steps):
    # The grid is lazy: every way a run-ahead reads it must give the walk's floats.
    start = grid_after(now, interval)
    limit = start + steps * interval
    grid, after = _grid_points(start, interval, limit)
    points, walked_after = _walked(start, interval, limit)
    assert after == walked_after
    assert list(grid) == points
    assert len(grid) == len(points)
    assert [grid[i] for i in range(-len(points), len(points))] == points + points
    for i in (len(points), -len(points) - 1):
        with pytest.raises(IndexError):
            grid[i]
    for n in range(len(points) + 2):
        assert list(grid[:n]) == points[:n]
        assert len(grid[:n]) == len(points[:n])
