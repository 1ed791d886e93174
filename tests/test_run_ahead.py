"""Run-ahead against the same runs with it switched off.

Between two backend events a World runs its quiet stretches ahead
(``World._run_ahead``): each poll that must repeat costs one trace record,
not a clock dispatch. Run-ahead has no option; these tests switch it off by
monkeypatch and require the same trace bytes, job states and sessions, and
they fail if it silently stops running ahead.
"""

import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from talescale import cluster, middleware
from talescale.cli import main
from talescale.digest import digest_bytes
from talescale.errors import SessionError, TransportError
from talescale.middleware import JobSpec, JobState
from talescale.world import World, load_config


def no_run_ahead(world, horizon):
    pass


@st.composite
def knobs(draw):
    """The shape of one random world; ``build`` draws its details from ``seed``."""
    return {
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "interval": draw(st.sampled_from((5.0, 2.5, 7.5))),
        # idle_ttl_s as a multiple of the poll interval; None: sessions never lapse
        "ttl": draw(st.sampled_from((None, 0.5, 1.0, 1.6, 60.0))),
        "dialects": draw(st.lists(st.sampled_from(("sim-pbs", "sim-slurm")),
                                  min_size=1, max_size=3)),
        "pool": draw(st.booleans()),
        "maintenance": draw(st.sampled_from((None, "hold", "fail"))),
        "failures": draw(st.integers(0, 6)),
        "cancels": draw(st.integers(0, 3)),
        "datasets": draw(st.integers(0, 4)),
        "drive": draw(st.sampled_from(("run", "advance", "step"))),
        # 0: every kept status answer is patched on a write, and every edit
        # read as one, however short the output; None: the sizes they pay from
        "edit_min": draw(st.sampled_from((0, None))),
        # what a transition listener does on a job's Running, inside the
        # cycle that applies it: submit to the next resource, cancel a job
        # there, or poll it (a nested cycle when it is the same resource)
        "listener": draw(st.sampled_from((None, "submit", "cancel", "poll"))),
    }


def build(k):
    """A pooled or batch world over ``k["dialects"]``, with scripted jobs,
    workloads, cancels and dataset opens, and failures injected by clock
    events; returns it with its horizon."""
    rng = random.Random(k["seed"])
    interval, horizon = k["interval"], rng.choice((800.0, 1500.0, 2500.0))
    resources, queues = [], {}
    for i, dialect in enumerate(k["dialects"]):
        queue = rng.choice((
            {"distribution": "fixed", "params": {"value": rng.choice((0.0, 10.0, 97.5))}},
            {"distribution": "exponential", "params": {"mean": rng.choice((20.0, 120.0, 600.0))}}))
        if i == 0 and k["maintenance"]:
            start = rng.uniform(0.0, horizon / 2)
            queue = dict(queue, maintenance_windows=[[start, start + rng.uniform(50.0, 400.0)]],
                         maintenance_policy=k["maintenance"])
        queues[f"q{i}"] = queue
        resources.append({"name": f"r{i}", "kind": "hpc_cluster", "lrm": "batch", "node_count": 4,
                          "allows_incoming_connections": False, "queue": f"q{i}",
                          "dialect": dialect})
    names = [resource["name"] for resource in resources]
    datasets = [{"uri": f"doi:d{i}", "size_bytes": rng.randint(10, 80),
                 "checksum": digest_bytes(f"doi:d{i}".encode())} for i in range(k["datasets"])]

    def t():
        return interval * rng.randint(1, int(horizon / interval)) if rng.random() < 0.4 \
            else rng.uniform(0.0, horizon)

    actions = []
    for i in range(rng.randint(0, 10)):
        command = ["sleep", str(rng.choice((1, 5, 30, 97.5, 400)))] if rng.random() < 0.8 \
            else ["fail", str(rng.choice((3, 40))), "2"]
        if k["pool"] and rng.random() < 0.5:
            actions.append({"op": "workload", "t": t(), "resource": "r0", "command": command,
                            "tale_id": f"w{i}", "via_pool": rng.random() < 0.85})
        else:
            actions.append({"op": "submit_jobs", "t": t(), "resource": rng.choice(names),
                            "count": rng.randint(1, 3), "spacing": rng.choice((0.0, 1.3, interval)),
                            "command": command, "credential": rng.choice(("alice", "bob"))})
    for _ in range(k["cancels"]):
        actions.append({"op": "cancel", "t": t(), "job_index": rng.randint(0, 4)})
    for dataset in datasets:
        actions.append({"op": "open_dataset", "t": t(), "uri": dataset["uri"]})
    if datasets and rng.random() < 0.5:
        actions.append({"op": "prefetch", "t": t()})
    config = {
        "resources": resources, "queues": queues,
        "cache": {"capacity_bytes": 150, "bandwidth_bytes_per_s": rng.choice((1.0, 5.0)),
                  "datasets": datasets},
        "scenario": {"poll_interval_s": interval,
                     "idle_ttl_s": k["ttl"] and k["ttl"] * interval,
                     "credentials": ["user", "alice", "bob"], "actions": actions},
    }
    if k["pool"]:
        config["pools"] = [{"resource": "r0", "min_warm": rng.randint(1, 2), "max_size": 3,
                            "pilot_walltime_s": rng.choice((50.0, 300.0, 2000.0))}]
    world = World(load_config(config), k["seed"] % 1000)
    if k["listener"]:
        world.middleware.add_transition_listener(writer(k["listener"], world, names, rng))
    transport = world.transport
    for _ in range(k["failures"]):
        kind, count = rng.choice(("transport", "handshake")), rng.choice((1, 2))
        world.clock.at(t(), lambda kind=kind, count=count: transport.inject_failure(kind, count))
    return world, horizon, rng


def writer(kind, world, names, rng):
    """A transition listener that, on a job's Running, submits to the next
    resource of ``names`` after the job's own, cancels that resource's
    oldest active job, or polls it; a few times only."""
    mw, left = world.middleware, [rng.randint(1, 6)]

    def on_transition(spec, job_id, previous, state, t):
        if state is not JobState.RUNNING or not left[0]:
            return
        left[0] -= 1
        other = names[(names.index(spec.resource) + 1) % len(names)]
        try:
            if kind == "submit":
                mw.submit(JobSpec(resource=other, command=("sleep", "12"), credential="bob"))
            elif kind == "cancel":
                active = mw._active[other].active
                if active:
                    mw.cancel(next(iter(active)))
            else:
                mw.poll_cycle(other)
        except (TransportError, SessionError):
            pass  # a lost cancel
    return on_transition


def drive(k, world, horizon, rng):
    """Run the world to its horizon: in one call, in random advances with
    driver-context submits, cancels, polls and injected failures between
    them, or one event at a time for a while first."""
    world.start()
    clock, mw = world.clock, world.middleware
    if k["drive"] == "step":
        for _ in range(rng.randint(0, 300)):
            if not clock.step() or clock.now >= horizon:
                break
    elif k["drive"] == "advance":
        handles = []
        while clock.now < horizon:
            op = rng.random()
            try:
                if op < 0.15:
                    handles.append(mw.submit(JobSpec(
                        resource=rng.choice(list(world.clusters)),
                        command=("sleep", str(rng.choice((2, 20, 300)))),
                        credential=rng.choice(("alice", "bob")))))
                elif op < 0.2 and handles:
                    mw.cancel(rng.choice(handles))
                elif op < 0.25:
                    world.transport.inject_failure(rng.choice(("transport", "handshake")))
                elif op < 0.3:
                    mw.poll_cycle(rng.choice(list(world.clusters)))
            except (TransportError, SessionError):
                pass  # a lost cancel
            clock.run_until(min(horizon, clock.now + rng.choice((0.3, 5.0, 60.0, 400.0))))
    clock.run_until(horizon)


def outcome(k):
    with pytest.MonkeyPatch.context() as mp:
        if k["edit_min"] is not None:
            mp.setattr(cluster, "_PATCH_MIN_CHARS", k["edit_min"])
            mp.setattr(middleware, "_EDIT_MIN_CHARS", k["edit_min"])
        world, horizon, rng = build(k)
        drive(k, world, horizon, rng)
    mw = world.middleware
    jobs = [record["job_id"] for record in world.trace.records("job_submitted")]
    return (world.trace.to_ndjson(), {job: mw.status(job) for job in jobs},
            dict(world.transport._sessions), world.clock.now)


@settings(max_examples=60, deadline=None)
@given(knobs())
# A job held in a "hold" window is canceled at 293.7 s: the LRM patches its
# kept answer, the middleware reads the next output as that edit, and quiet
# stretches of repeated polls follow.
@example({"seed": 1, "interval": 5.0, "ttl": None, "dialects": ["sim-slurm"], "pool": False,
          "maintenance": "hold", "failures": 0, "cancels": 3, "datasets": 0, "drive": "run",
          "edit_min": 0, "listener": None})
# A listener writes inside a grid instant: a submit to the other resource,
# and a cancel on the only one. Each fails once such a write leaves the
# written resource's next poll marked to repeat.
@example({"seed": 2, "interval": 5.0, "ttl": None, "dialects": ["sim-slurm", "sim-pbs"],
          "pool": False, "maintenance": None, "failures": 0, "cancels": 0, "datasets": 0,
          "drive": "run", "edit_min": None, "listener": "submit"})
@example({"seed": 3, "interval": 5.0, "ttl": None, "dialects": ["sim-pbs"], "pool": False,
          "maintenance": None, "failures": 0, "cancels": 0, "datasets": 0, "drive": "run",
          "edit_min": None, "listener": "cancel"})
def test_run_ahead_changes_no_trace_byte_job_state_or_session(k):
    ahead = outcome(k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(World, "_run_ahead", no_run_ahead)
        plain = outcome(k)
    assert ahead[0] == plain[0]
    assert ahead[1:] == plain[1:]


@pytest.mark.parametrize("interval", [0.1, 0.3])
def test_a_poll_interval_whose_quotients_round_down_runs_to_its_horizon(interval):
    # 0.6 / 0.1 gives 5.999..., where the grid formula alone gives back 0.6
    # itself: a run-ahead stepping along the grid from 0.6 never got past it.
    def run():
        world = World(load_config({
            "resources": [{"name": name, "kind": "hpc_cluster", "lrm": "batch", "queue": "q",
                           "dialect": dialect, "node_count": 4,
                           "allows_incoming_connections": False}
                          for name, dialect in (("slurm-1", "sim-slurm"), ("pbs-1", "sim-pbs"))],
            "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
            "pools": [{"resource": "pbs-1", "min_warm": 1, "max_size": 2,
                       "pilot_walltime_s": 20.0}],
            "scenario": {"poll_interval_s": interval, "actions": [
                {"op": "submit_jobs", "t": 0.2, "resource": "slurm-1", "count": 3,
                 "spacing": 0.7, "command": ["sleep", "5"]},
                {"op": "workload", "t": 3.0, "resource": "pbs-1", "command": ["sleep", "2"],
                 "tale_id": "w1"}]},
        }), 0)
        world.run(60.0)
        return world

    ahead = run()
    assert ahead.clock.now == 60.0
    records = ahead.middleware._records.values()
    assert [r.state for r in records if r.spec.resource == "slurm-1"] == [JobState.COMPLETED] * 3
    assert ahead.trace.count("workload_started") == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(World, "_run_ahead", no_run_ahead)
        assert run().trace.to_ndjson() == ahead.trace.to_ndjson()


def soak_world(seed):
    """pilot_soak's shape: one sim-pbs resource with a slow queue, a pool of
    2 to 4 pilots with a 300 s walltime, and 150 workloads over 90,000 s."""
    rng = random.Random(seed)
    return World(load_config({
        "resources": [{"name": "pbs-p", "kind": "hpc_cluster", "lrm": "batch", "queue": "slow",
                       "dialect": "sim-pbs", "node_count": 16,
                       "allows_incoming_connections": False}],
        "queues": {"slow": {"distribution": "exponential", "params": {"mean": 600.0}}},
        "pools": [{"resource": "pbs-p", "min_warm": 2, "max_size": 4, "pilot_walltime_s": 300.0}],
        "scenario": {"poll_interval_s": 5.0, "actions": [
            {"op": "workload", "t": rng.uniform(0.0, 90_000.0), "resource": "pbs-p",
             "command": ["sleep", f"{rng.uniform(30.0, 120.0):.1f}"], "tale_id": f"w{i:04d}"}
            for i in range(150)]},
    }), seed)


def test_a_long_pooled_run_polls_through_the_clock_under_a_tenth_of_the_time():
    world = soak_world(3)
    mw, cycles = world.middleware, [0]
    poll_cycle = mw.poll_cycle

    def counted(resource):
        cycles[0] += 1
        return poll_cycle(resource)

    mw.poll_cycle = counted
    world.run(100_000.0)
    polls = sum(r["verb"] == "batch_status" for r in world.trace.records("transport_call"))
    assert polls > 19_000  # one per 5 s grid point while pilots are live
    assert cycles[0] < 0.1 * polls


def test_a_quiet_stretch_starts_at_the_first_poll_that_would_repeat():
    # Stepped as perfbench's pilot_soak steps it, every 1000 s. A poll whose
    # output is the one already applied only proves what the cycle before it
    # could tell: 201 of 1,259 cycles do here, 910 of 1,968 when a stretch
    # started only after such a poll.
    world = soak_world(3)
    mw, counts = world.middleware, {"cycles": 0, "repeats": 0}
    poll_cycle = mw.poll_cycle

    def counted(resource):
        state = mw._active[resource]
        before, failed = state.applied_output, world.trace.count("poll_failed")
        polled = bool(state.active)
        applied = poll_cycle(resource)
        counts["cycles"] += 1
        counts["repeats"] += (polled and before is not None and state.applied_output is before
                              and world.trace.count("poll_failed") == failed)
        return applied

    mw.poll_cycle = counted
    world.start()
    for k in range(1, 101):
        world.clock.run_until(k * 1000.0)
    assert counts["repeats"] <= 250
    assert counts["cycles"] <= 1_350


def test_job_status_far_into_a_session_prints_the_same_with_and_without_run_ahead(
        tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "resources": [{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch", "node_count": 8,
                       "allows_incoming_connections": False, "queue": "q"}],
        "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
    }))
    session = ["--config", str(config), "--session", str(tmp_path / "session.json")]
    assert main(["job", "submit", *session, "--resource", "hpc-1",
                 "--command", "sleep 10000000"]) == 0
    assert main(["job", "tick", *session, "--dt", "1000000"]) == 0
    capsys.readouterr()
    status = ["job", "status", *session, "--id", "j000001", "--format", "json"]
    assert main(status) == 0
    ahead = capsys.readouterr().out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(World, "_run_ahead", no_run_ahead)
        assert main(status) == 0
    assert capsys.readouterr().out == ahead
    assert json.loads(ahead)["state"] == "Running"


def talescale_opcodes(fn) -> int:
    """The Python opcodes ``fn()`` executes in frames of talescale's modules."""
    count = [0]

    def local(frame, event, arg):
        if event == "opcode":
            count[0] += 1
        return local

    def on_call(frame, event, arg):
        if frame.f_globals.get("__name__", "").startswith("talescale."):
            frame.f_trace_opcodes = True
            return local
        return None

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(before)
    return count[0]


def quiet_status_costs(tmp_path, capsys, measure) -> list:
    """``measure(fn)`` for the ``job status`` of one running job on a 1 s
    fixed queue, polled every 5 s, in sessions ticked to 10^5, 10^6 and
    10^7 s: ``fn`` replays one quiet stretch of 2 * 10^4 to 2 * 10^6 polls."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "resources": [{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch", "node_count": 8,
                       "allows_incoming_connections": False, "queue": "q"}],
        "queues": {"q": {"distribution": "fixed", "params": {"value": 1.0}}},
    }))
    costs = []
    for horizon in (10 ** 5, 10 ** 6, 10 ** 7):
        session = ["--config", str(config), "--session", str(tmp_path / f"{horizon}.json")]
        assert main(["job", "submit", *session, "--resource", "hpc-1",
                     "--command", "sleep 100000000"]) == 0
        assert main(["job", "tick", *session, "--dt", str(horizon)]) == 0
        capsys.readouterr()
        status = ["job", "status", *session, "--id", "j000001", "--format", "json"]
        exits = []
        costs.append(measure(lambda: exits.append(main(status))))
        assert exits == [0]
        assert json.loads(capsys.readouterr().out)["state"] == "Running"
    return costs


def test_job_status_does_the_same_python_work_however_long_its_quiet_stretch(
        tmp_path, capsys):
    counts = quiet_status_costs(tmp_path, capsys, talescale_opcodes)
    assert counts[0] == counts[1] == counts[2]


def peak_bytes(fn) -> int:
    """The ``tracemalloc`` peak of ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_job_status_peaks_at_the_same_memory_however_long_its_quiet_stretch(
        tmp_path, capsys):
    # A stretch's records are one run: one trace entry, whatever its length.
    peaks = quiet_status_costs(tmp_path, capsys, peak_bytes)
    assert max(peaks) - min(peaks) < 2 ** 20, peaks
