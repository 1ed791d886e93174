"""The benchmark's layer contract.

``perfbench/`` reaches into the program from outside: its tracer wraps
class and module attributes by name, and its workloads read a few more.
A change that removes one of those names, or moves a wrapped method off
the class that defines it, breaks the benchmark; these tests fail first.
"""

import importlib
from pathlib import Path

from talescale.middleware import JobSpec, JobState
from talescale.trace import TraceEvent

from conftest import batch_world

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _own(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_every_layer_boundary_and_puts_it_back(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # undone at teardown, with load_program's entry
    run = importlib.import_module("run")
    tracer_module = importlib.import_module("tracer")
    modules = run.load_program()
    tracer = tracer_module.Tracer()
    try:
        # A missing name raises here, and so does a method that is only
        # inherited: class attributes are wrapped through the class __dict__.
        tracer_module.install(tracer, modules)
        patched = list(tracer._patched)
        unwrapped = [attr for owner, attr, original in patched if _own(owner, attr) is original]
        # The size functions read attributes only a traced run reaches,
        # such as the middleware's per-resource states.
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 1.0}},
                            pools=[{"resource": "hpc-1", "min_warm": 1, "max_size": 2}])
        world.middleware.submit(JobSpec("hpc-1", ("sleep", "1")))
        world.clock.run_until(20.0)
    finally:
        tracer.uninstall()
    assert patched and unwrapped == []
    assert tracer.stats["middleware.poll_cycle"].calls > 0
    assert tracer.stats["pilots.refresh"].calls > 0
    assert [attr for owner, attr, original in patched if _own(owner, attr) is not original] == []


def test_names_the_workloads_read_exist():
    world = batch_world(queue={"distribution": "fixed", "params": {"value": 1.0}})
    handle = world.middleware.submit(JobSpec("hpc-1", ("sleep", "1")))
    world.clock.run_until(20.0)
    assert world.middleware.status(handle).state == JobState.COMPLETED
    events = list(world.trace)
    assert events and all(isinstance(ev, TraceEvent) for ev in events)
    assert "job_transition" in {ev.kind for ev in events}
    assert world.transport.handshake_count == 1
    assert world.middleware.poll_failures == 0
