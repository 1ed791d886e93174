"""The benchmark's layer contract.

``perfbench/`` reaches into the program from outside: its tracer wraps
class and module attributes by name, and its workloads read a few more.
A change that removes one of those names, or moves a wrapped method off
the class that defines it, breaks the benchmark; these tests fail first.
"""

import importlib
from pathlib import Path

import pytest

from talescale.digest import digest_bytes
from talescale.dms import CacheState, TransferSource
from talescale.errors import ChecksumMismatchError
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
    # One LRM of each dialect, built before the install: it must still reach
    # the wrapper of each tool it runs, so it may not bind them ahead of a call.
    lrm_worlds = [batch_world(queue={"distribution": "fixed", "params": {"value": 1.0}}, resources=[
        {"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch", "dialect": dialect,
         "allows_incoming_connections": False, "node_count": 8, "queue": "q"}])
        for dialect in ("sim-pbs", "sim-slurm")]
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
        for lrm_world in lrm_worlds:
            handle = lrm_world.middleware.submit(JobSpec("hpc-1", ("sleep", "100")))
            lrm_world.clock.run_until(20.0)
            lrm_world.middleware.cancel(handle)
            lrm_world.clock.run_until(40.0)
            assert lrm_world.middleware.status(handle).state == JobState.CANCELED
    finally:
        tracer.uninstall()
    assert patched and unwrapped == []
    assert tracer.stats["middleware.poll_cycle"].calls > 0
    assert tracer.stats["pilots.refresh"].calls > 0
    tools = {tool: tracer.stats[f"cluster.execute.{tool}"].calls
             for tool in ("qsub", "qstat", "sbatch", "sacct", "cancel")}
    assert all(tools.values()), tools
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
    # tale_launch injects corruption into fetches, pins the latest tales'
    # datasets and reads the cache's entries, bytes and transfer log.
    uri = "doi:10.5072/ds00000"
    world = batch_world(cache={"capacity_bytes": 100, "bandwidth_bytes_per_s": 10.0, "datasets": [
        {"uri": uri, "size_bytes": 40, "checksum": digest_bytes(uri.encode())}]})
    cache, ref = world.cache, world.catalog.get(uri)
    cache.inject_corruption(uri)
    with pytest.raises(ChecksumMismatchError):
        cache.open(ref)
    assert cache.entries.get(uri).state != CacheState.RESIDENT
    cache.open(ref)
    assert cache.entries.get(uri).state == CacheState.RESIDENT and len(cache.entries) == 1
    cache.pin(uri)
    cache.unpin(uri)
    assert cache.resident_bytes() == 40 and cache.capacity_bytes == 100
    assert [(r.uri, r.source, r.bytes) for r in cache.transfer_log] == [
        (uri, TransferSource.REMOTE_REPO, 40)]
