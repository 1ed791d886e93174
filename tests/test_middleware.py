import random
import re
import statistics
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from talescale import cluster, middleware
from talescale.cluster import SimulatedLrm
from talescale.dialects import ADAPTERS
from talescale.digest import short_digest
from talescale.errors import (
    SessionError,
    TransportError,
    UnknownCredentialError,
    UnknownJobError,
    UnknownResourceError,
    ValidationError,
)
from talescale.middleware import (
    _BACKEND_TO_CLIENT,
    JobSpec,
    JobState,
    LEGAL_TRANSITIONS,
    TERMINAL_STATES,
    LrmMiddleware,
)
from talescale.world import World, load_config

from conftest import batch_world


def spec(resource="hpc-1", command=("sleep", "30"), credential="user", **kw):
    return JobSpec(resource=resource, command=command, credential=credential, **kw)


def transport_calls(world, verb=None):
    return [ev for ev in world.trace if ev.kind == "transport_call"
            and (verb is None or ev.fields["verb"] == verb)]


class TestSubmit:
    def test_submit_returns_submitted_then_queued_on_next_cycle(self):
        world = batch_world()
        handle = world.middleware.submit(spec())
        assert world.middleware.status(handle).state == JobState.SUBMITTED
        world.clock.run_until(5.0)
        assert world.middleware.status(handle).state == JobState.QUEUED

    def test_mpi_to_non_mpi_resource_rejected(self):
        world = batch_world()
        with pytest.raises(ValidationError, match="MPI"):
            world.middleware.submit(spec(mpi=True))

    def test_unknown_resource_rejected(self):
        world = batch_world()
        with pytest.raises(UnknownResourceError):
            world.middleware.submit(spec(resource="nowhere"))

    def test_unknown_credential_rejected(self):
        world = batch_world()
        with pytest.raises(UnknownCredentialError):
            world.middleware.submit(spec(credential="nobody"))

    def test_too_many_nodes_rejected(self):
        world = batch_world()
        with pytest.raises(ValidationError, match="nodes"):
            world.middleware.submit(spec(node_count=100))

    def test_many_submits_get_distinct_ids(self):
        world = batch_world()
        ids = {world.middleware.submit(spec()).job_id for _ in range(500)}
        assert len(ids) == 500

    def test_submit_latency_independent_of_queue_wait(self):
        # instrumented clock oracle: compare return-time deltas under
        # queue-wait means of 1 s and 10,000 s
        medians = []
        for mean in (1.0, 10_000.0):
            world = batch_world(queue={"distribution": "exponential", "params": {"mean": mean}})
            latencies = []
            for _ in range(100):
                before = world.clock.now
                world.middleware.submit(spec())
                latencies.append(world.clock.now - before)
            medians.append(statistics.median(latencies))
        assert medians[0] > 0
        assert abs(medians[0] - medians[1]) / max(medians) < 0.10


class TestStatus:
    def test_status_is_local_only(self):
        world = batch_world()
        handle = world.middleware.submit(spec())
        world.clock.run_until(7.0)
        before = len(transport_calls(world))
        for _ in range(1000):
            world.middleware.status(handle)
        assert len(transport_calls(world)) == before

    def test_unknown_handle_rejected(self):
        world = batch_world()
        with pytest.raises(UnknownJobError):
            world.middleware.status("j999999")

    def test_completed_state_carries_exit_code(self):
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 10.0}})
        handle = world.middleware.submit(spec(command=("sleep", "5")))
        world.clock.run_until(30.0)
        status = world.middleware.status(handle)
        assert status.state == JobState.COMPLETED
        assert status.exit_code == 0

    def test_failing_command_reports_failure(self):
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 1.0}})
        handle = world.middleware.submit(spec(command=("fail", "2", "3")))
        world.clock.run_until(20.0)
        status = world.middleware.status(handle)
        assert status.state == JobState.FAILED
        assert status.exit_code == 3


class TestPolling:
    def test_hundred_jobs_one_query_per_cycle(self):
        world = batch_world()
        for _ in range(100):
            world.middleware.submit(spec())
        before = world.metrics().backend_queries["hpc-1"]
        world.middleware.poll_cycle("hpc-1")
        assert world.metrics().backend_queries["hpc-1"] == before + 1

    def test_no_jobs_no_query(self):
        world = batch_world()
        assert world.middleware.poll_cycle("hpc-1") == []
        assert world.metrics().backend_queries["hpc-1"] == 0

    def test_four_resources_twelve_cycles_each(self):
        resources = [
            {"name": f"hpc-{i}", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 4, "queue": "q"}
            for i in range(4)
        ]
        world = batch_world(resources=resources,
                            queue={"distribution": "fixed", "params": {"value": 10_000.0}})
        for i in range(4):
            world.middleware.submit(spec(resource=f"hpc-{i}"))
        world.clock.run_until(60.0)
        queries = world.metrics().backend_queries
        assert [queries[f"hpc-{i}"] for i in range(4)] == [12, 12, 12, 12]

    def test_transport_failure_defers_transitions(self):
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 1.0}})
        handle = world.middleware.submit(spec())
        world.transport.inject_failure("transport", count=1)
        world.clock.run_until(5.0)  # this cycle fails
        assert world.middleware.status(handle).state == JobState.SUBMITTED
        assert world.middleware.poll_failures == 1
        world.clock.run_until(10.0)  # retried next cycle
        assert world.middleware.status(handle).state in (JobState.QUEUED, JobState.RUNNING)

    def test_poller_stops_when_jobs_terminal(self):
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 1.0}})
        world.middleware.submit(spec(command=("sleep", "2")))
        assert world.middleware.active_pollers == 1
        world.clock.run_until(60.0)
        assert world.middleware.active_pollers == 0

    def test_only_jobs_with_a_native_id_are_polled(self):
        # poll_cycle reads native ids without a None check: a job enters the
        # active set only once parse_submit has given it one
        world = batch_world()
        world.transport.inject_failure("transport", count=1)
        lost = world.middleware.submit(spec())
        kept = world.middleware.submit(spec())
        active = world.middleware._active["hpc-1"].active
        assert lost.job_id not in active and kept.job_id in active
        assert all(world.middleware._records[j].native_id is not None for j in active)
        world.clock.run_until(5.0)
        assert world.middleware.status(kept).state == JobState.QUEUED


def _mixed_world(seed):
    """Both dialects, a holding and a failing maintenance window, two
    credentials, a short session TTL and slow handshakes and round trips, so
    that calls made outside clock callbacks often cross poll ticks."""
    resources = [
        {"name": name, "kind": "hpc_cluster", "lrm": "batch",
         "allows_incoming_connections": False, "node_count": 8,
         "queue": queue, "dialect": dialect}
        for name, queue, dialect in [("pbs", "fast", "sim-pbs"), ("slurm", "fast", "sim-slurm"),
                                     ("pbs-hold", "hold", "sim-pbs"),
                                     ("slurm-fail", "fail", "sim-slurm")]
    ]
    world = World(load_config({
        "resources": resources,
        "queues": {
            "fast": {"distribution": "exponential", "params": {"mean": 8.0}},
            "hold": {"distribution": "exponential", "params": {"mean": 8.0},
                     "maintenance_windows": [[40.0, 160.0]]},
            "fail": {"distribution": "exponential", "params": {"mean": 8.0},
                     "maintenance_windows": [[60.0, 140.0]], "maintenance_policy": "fail"},
        },
        "scenario": {"credentials": ["alice", "bob"], "idle_ttl_s": 8.0,
                     "handshake_s": 2.0, "transport_rtt_s": 0.5},
    }), seed)
    world.start()
    return world


MIXED_NAMES = ("pbs", "slurm", "pbs-hold", "slurm-fail")


def _drive(world, seed):
    """400 random steps on a _mixed_world, then 1000 s to let every job end:
    submits, direct and scheduled cancels, injected transport and handshake
    failures, poll cycles called from outside the clock, and clock advances.
    Returns the handles submitted."""
    mw, rng = world.middleware, random.Random(seed)

    def cancel(handle):
        try:
            mw.cancel(handle)
        except (TransportError, SessionError):
            pass  # a lost cancel: the job ends on its own

    handles = []
    for _ in range(400):
        op = rng.random()
        if op < 0.35:
            command = (("sleep", str(rng.randint(1, 40))) if rng.random() < 0.8
                       else ("fail", str(rng.randint(1, 20)), str(rng.randint(1, 3))))
            handles.append(mw.submit(JobSpec(
                resource=rng.choice(MIXED_NAMES), command=command,
                credential=rng.choice(("alice", "bob")))))
        elif op < 0.42 and handles:
            cancel(rng.choice(handles))
        elif op < 0.47 and handles:
            world.clock.after(rng.uniform(0.0, 20.0),
                              lambda h=rng.choice(handles): cancel(h))
        elif op < 0.52:
            world.transport.inject_failure(rng.choice(("transport", "handshake")))
        elif op < 0.75:
            mw.poll_cycle(rng.choice(MIXED_NAMES))
        else:
            world.clock.advance(rng.uniform(0.0, 15.0))
    world.clock.advance(1000.0)
    return handles


class CountingDict(dict):
    """A dict that counts reads by key."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def _slurm_world(queue):
    """One sim-slurm resource whose calls take no simulated time."""
    return batch_world(
        queue=queue,
        resources=[{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
                    "allows_incoming_connections": False, "node_count": 8,
                    "queue": "q", "dialect": "sim-slurm"}],
        scenario={"transport_rtt_s": 0.0},
    )


def _scripted_status_world(dialect="sim-pbs", jobs=2):
    """A world with ``jobs`` queued jobs on one ``dialect`` resource, whose
    status queries are answered from the returned list, first entry first."""
    world = batch_world(resources=[{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
                                    "allows_incoming_connections": False, "queue": "q",
                                    "dialect": dialect}],
                        scenario={"transport_rtt_s": 0.0})
    for _ in range(jobs):
        world.middleware.submit(spec())
    lrm, answers = world.clusters["hpc-1"], []
    execute = lrm.execute
    lrm.execute = lambda payload: (answers.pop(0) if payload.startswith(("qstat", "sacct"))
                                   else execute(payload))
    return world, answers


def _qstat(*letters):
    return "\n".join(f"Job Id: {i}.hpc-1\n    job_state = {letter}"
                     for i, letter in enumerate(letters, 1))


class TestIncrementalPoll:
    """poll_cycle applies only the observations that changed since its last
    successful cycle; these pin that it still ends where a full pass would."""

    def test_records_match_the_backend_after_every_successful_poll(self):
        checked = nested = failed_polls = 0
        for seed in range(6):
            world = _mixed_world(seed)
            mw = world.middleware
            poll_cycle, depth = mw.poll_cycle, [0]
            call, polled_as = world.transport.call, {}

            def recording_call(resource, credential, verb, payload, *digest):
                if verb == "batch_status":
                    polled_as[resource] = credential
                return call(resource, credential, verb, payload, *digest)

            world.transport.call = recording_call

            def checked_poll(resource):
                nonlocal checked, nested
                polled = [(job_id, mw._records[job_id].native_id)
                          for job_id in mw._active[resource].active]
                failures = world.trace.count("poll_failed")
                depth[0] += 1
                try:
                    applied = poll_cycle(resource)
                finally:
                    depth[0] -= 1
                if polled and world.trace.count("poll_failed") == failures:
                    assert polled_as[resource] == min(
                        mw._records[job_id].spec.credential for job_id, _ in polled)
                    backend = world.clusters[resource].jobs
                    for job_id, native_id in polled:
                        expected = _BACKEND_TO_CLIENT[backend[native_id].state]
                        assert mw.status(job_id).state is expected, (seed, resource, job_id)
                    checked += 1
                    nested += depth[0] > 0
                return applied

            mw.poll_cycle = checked_poll

            handles = _drive(world, seed)
            failed_polls += world.trace.count("poll_failed")

            assert mw.active_pollers == 0
            for handle in handles:
                status = mw.status(handle)
                assert status.state in TERMINAL_STATES, (seed, handle)
                states = [state for state, _ in status.transitions]
                assert all(b in LEGAL_TRANSITIONS[a] for a, b in zip(states, states[1:]))
        # every path the invariant must survive was taken
        assert checked > 1000 and nested > 20 and failed_polls > 20

    @pytest.mark.parametrize("seed", range(3))
    def test_kept_status_answers_change_no_trace_byte_or_cycle_result(self, seed, monkeypatch):
        # The LRM's last status answer, the middleware's kept status payload
        # with its digest, and its last applied output are each reused, whole
        # or extended, only when the answer cannot differ. The same run with
        # all three dropped before every call must give the same trace bytes
        # and cycle results.
        # Dropping the applied output also stops every run-ahead, which makes
        # repeated polls without calling poll_cycle, so both twins run with
        # run-ahead off; a third run, with it on, gives the same trace bytes.
        def run():
            world = _mixed_world(seed)
            mw, nest = world.middleware, random.Random(seed + 100)
            poll_cycle, results, depth = mw.poll_cycle, [], [0]
            work = Counter()
            for adapter in {state.adapter for state in mw._active.values()}:
                parse, parse_unit = adapter.parse_status, adapter.parse_unit
                adapter.parse_status = lambda output, parse=parse: (
                    work.update(["parse"]) or parse(output))
                adapter.parse_unit = lambda unit, parse_unit=parse_unit: (
                    work.update(["unit"]) or parse_unit(unit))
            for lrm in world.clusters.values():
                for tool in ("_qstat", "_sacct"):
                    render = getattr(lrm, tool)
                    setattr(lrm, tool, lambda args, render=render: (
                        work.update(["render"]) or render(args)))

            def recorded(resource):
                work["nested"] += depth[0] > 0
                depth[0] += 1
                try:
                    applied = poll_cycle(resource)
                finally:
                    depth[0] -= 1
                results.append((world.clock.now, resource, applied))
                return applied

            def poll_from_a_callback(spec, job_id, previous, state, t):
                if depth[0] < 3 and nest.random() < 0.1:
                    mw.poll_cycle(nest.choice(MIXED_NAMES))

            mw.poll_cycle = recorded
            mw.add_transition_listener(poll_from_a_callback)
            _drive(world, seed)
            return world.trace.to_ndjson(), results, work

        # every kept answer is patched on a write, and every edit read as one,
        # however short the output
        monkeypatch.setattr(cluster, "_PATCH_MIN_CHARS", 0)
        monkeypatch.setattr(middleware, "_EDIT_MIN_CHARS", 0)
        ahead = run()
        monkeypatch.setattr(World, "_run_ahead", lambda world, horizon: None)
        kept = run()

        def forgetting(method, forget):
            def call(self, *args):
                forget(self)
                return method(self, *args)
            return call

        def forget_answer(lrm):
            lrm._answer = None
            lrm._notes.clear()

        monkeypatch.setattr(SimulatedLrm, "execute",
                            forgetting(SimulatedLrm.execute, forget_answer))

        def forget_outputs_and_units(mw):
            for state in mw._active.values():
                state.listing = state.hasher = state.payload = None
                state.applied_output = None
                state.kept.clear()
                state.kept_ids.clear()
                state.departed.clear()
                state.canceled.clear()

        monkeypatch.setattr(LrmMiddleware, "poll_cycle", forgetting(
            LrmMiddleware.poll_cycle, forget_outputs_and_units))
        plain = run()

        assert ahead[0] == kept[0] == plain[0]
        assert len(ahead[1]) < len(kept[1])  # the run-ahead made some polls
        assert kept[1] == plain[1]
        assert kept[2]["nested"] == plain[2]["nested"] > 10
        # the shortcuts were taken: fewer parses and renders than cycles, and
        # fewer units parsed than a run that parses every unit of each output
        assert kept[2]["parse"] < plain[2]["parse"] * 0.75
        assert kept[2]["render"] < plain[2]["render"] * 0.75
        assert kept[2]["unit"] < plain[2]["unit"] * 0.5

    def test_a_stale_answer_is_refused_even_when_it_repeats_a_kept_one(self):
        # The simulated LRM never answers back in time, so only a scripted
        # backend can show what a kept output may stand for: the latest
        # observation, fully applied. A cycle nested in another's callbacks
        # must not skip against the output kept before the outer cycle.
        world, answers = _scripted_status_world()
        mw = world.middleware
        answers.append(_qstat("Q", "Q"))
        assert len(mw.poll_cycle("hpc-1")) == 2

        nested = []

        def poll_once_running(spec, job_id, previous, state, t):
            if state is JobState.RUNNING and not nested:
                nested.append(job_id)
                mw.poll_cycle("hpc-1")

        mw.add_transition_listener(poll_once_running)
        answers += [_qstat("R", "Q"), _qstat("Q", "Q")]  # the nested answer goes back
        with pytest.raises(ValidationError, match="no legal path"):
            mw.poll_cycle("hpc-1")

    def test_an_outer_cycle_keeps_no_output_a_nested_cycle_superseded(self):
        world, answers = _scripted_status_world()
        mw = world.middleware
        answers.append(_qstat("Q", "Q"))
        mw.poll_cycle("hpc-1")
        nested = []

        def poll_once_running(spec, job_id, previous, state, t):
            if state is JobState.RUNNING and not nested:
                nested.append(job_id)
                nested.extend(mw.poll_cycle("hpc-1"))

        mw.add_transition_listener(poll_once_running)
        answers += [_qstat("R", "Q"), _qstat("R", "R")]
        assert mw.poll_cycle("hpc-1") == [("j000001", JobState.QUEUED, JobState.RUNNING)]
        assert nested == ["j000001", ("j000002", JobState.QUEUED, JobState.RUNNING)]
        # the outer answer again: the second job would go back, which is refused
        answers.append(_qstat("R", "Q"))
        with pytest.raises(ValidationError, match="no legal path"):
            mw.poll_cycle("hpc-1")

    def test_an_outer_cycle_stops_once_a_nested_cycle_applied_a_newer_observation(self):
        # Driver context: the nested poll's round trip moves the clock past
        # the second job's finish, so the outer cycle's own observation of
        # that job (Running) is older than the one already applied.
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 10.0}},
                            scenario={"transport_rtt_s": 0.5, "poll_interval_s": 100.0})
        mw = world.middleware
        handles = [mw.submit(spec(command=("sleep", seconds))) for seconds in ("100", "1")]
        world.clock.run_until(5.0)
        assert len(mw.poll_cycle("hpc-1")) == 2
        world.clock.run_until(11.6)
        nested = []

        def poll_once_running(spec, job_id, previous, state, t):
            if state is JobState.RUNNING and not nested:
                nested.append(job_id)
                nested.extend(mw.poll_cycle("hpc-1"))

        mw.add_transition_listener(poll_once_running)
        assert mw.poll_cycle("hpc-1") == [("j000001", JobState.QUEUED, JobState.RUNNING)]
        assert nested == ["j000001", ("j000002", JobState.QUEUED, JobState.COMPLETED)]
        assert [mw.status(h).state for h in handles] == [JobState.RUNNING, JobState.COMPLETED]

    def test_an_unchanged_cycle_reads_no_job_record(self):
        world = _slurm_world({"distribution": "fixed", "params": {"value": 10.0},
                              "maintenance_windows": [[0.0, 10_000.0]]})
        mw = world.middleware
        handles = [mw.submit(spec()) for _ in range(2000)]
        assert len(mw.poll_cycle("hpc-1")) == 2000  # Submitted -> Queued, each
        mw._records = CountingDict(mw._records)
        queries = world.metrics().backend_queries["hpc-1"]

        assert mw.poll_cycle("hpc-1") == []
        assert mw._records.reads == 0
        assert world.metrics().backend_queries["hpc-1"] == queries + 1

        mw.cancel(handles[7])
        mw._records.reads = 0
        assert mw.poll_cycle("hpc-1") == [(handles[7].job_id, JobState.QUEUED,
                                           JobState.CANCELED)]
        assert mw._records.reads == 1
        assert len(mw._active["hpc-1"]) == 1999

    def test_payload_keeps_job_id_order_past_j999999(self):
        world = _slurm_world({"distribution": "fixed", "params": {"value": 20.0}})
        mw = world.middleware
        payloads = []
        call = world.transport.call

        def recording_call(resource, credential, verb, payload, *digest):
            if verb == "batch_status":
                payloads.append(payload)
            return call(resource, credential, verb, payload, *digest)

        world.transport.call = recording_call
        mw._counter = 999_990
        job_ids = [mw.submit(spec(command=("sleep", str(5 * (i % 3) + 1)))).job_id
                   for i in range(8)]
        world.clock.run_until(22.0)  # some start, some finish
        job_ids += [mw.submit(spec()).job_id for _ in range(8)]
        assert "j999999" in job_ids and "j1000000" in job_ids
        active = [j for j in sorted(job_ids) if mw.status(j).state not in TERMINAL_STATES]
        mw.poll_cycle("hpc-1")
        natives = [mw._records[j].native_id for j in active]
        assert payloads[-1].split()[1] == "--jobs=" + ",".join(natives)
        assert list(mw._active["hpc-1"].active) == [
            j for j in active if mw.status(j).state not in TERMINAL_STATES]


def _held_world(dialect):
    """One ``dialect`` resource whose jobs all wait in a maintenance window,
    with calls that take no simulated time."""
    return batch_world(
        queue={"distribution": "fixed", "params": {"value": 10.0},
               "maintenance_windows": [[0.0, 1e9]]},
        resources=[{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
                    "allows_incoming_connections": False, "node_count": 8,
                    "queue": "q", "dialect": dialect}],
        scenario={"transport_rtt_s": 0.0},
    )


def _status_outputs(world):
    """Record the whole output of each status call through ``world``'s transport."""
    outputs, call = [], world.transport.call

    def recording_call(resource, credential, verb, payload, *digest):
        output = call(resource, credential, verb, payload, *digest)
        if verb == "batch_status":
            outputs.append(output)
        return output

    world.transport.call = recording_call
    return outputs


def _counting(adapter):
    """Record each output ``adapter`` splits and each unit it parses."""
    outputs, units = [], []
    parse_status, parse_unit = adapter.parse_status, adapter.parse_unit
    adapter.parse_status = lambda output: outputs.append(output) or parse_status(output)
    adapter.parse_unit = lambda unit: units.append(unit) or parse_unit(unit)
    return outputs, units


def _storm_world(seed, forget=False):
    """job_storm's shape, smaller: a held resource of each dialect, in a
    maintenance window that outlasts the run, whose ids pile up in every
    poll, beside a fast one of each; Poisson submits with a share of fail
    commands, cancels at later random times (most on held jobs), and
    injected transport failures. With ``forget``, each poll cycle first drops
    every resource's kept status payload and hasher. Returns the world, run
    to its horizon, and the number of status payloads made afresh."""
    resources = [{"name": name, "kind": "hpc_cluster", "lrm": "batch",
                  "allows_incoming_connections": False, "node_count": 8,
                  "queue": queue, "dialect": dialect}
                 for name, queue, dialect in [("pbs-a", "fast", "sim-pbs"),
                                              ("slurm-c", "fast", "sim-slurm"),
                                              ("pbs-maint", "held", "sim-pbs"),
                                              ("slurm-maint", "held", "sim-slurm")]]
    world = World(load_config({
        "resources": resources,
        "queues": {"fast": {"distribution": "exponential", "params": {"mean": 20.0}},
                   "held": {"distribution": "exponential", "params": {"mean": 20.0},
                            "maintenance_windows": [[0.0, 1e6]]}},
        "scenario": {"credentials": ["alice", "bob"]},
    }), seed)
    world.start()
    mw, rng = world.middleware, random.Random(seed)
    made = Counter()
    for adapter in {state.adapter for state in mw._active.values()}:
        def counted(ids, format_status=adapter.format_status):
            made[0] += 1
            return format_status(ids)
        adapter.format_status = counted
    if forget:
        poll_cycle = mw.poll_cycle

        def forgetful(resource):
            for state in mw._active.values():
                state.listing = state.hasher = state.payload = None
            return poll_cycle(resource)
        mw.poll_cycle = forgetful

    def cancel(handle):
        try:
            mw.cancel(handle)
        except (TransportError, SessionError):
            pass  # a lost cancel: the job stays held

    def submit(resource, command, cancel_after):
        handle = mw.submit(JobSpec(resource, command, rng.choice(("alice", "bob"))))
        if cancel_after is not None:
            world.clock.after(cancel_after, lambda: cancel(handle))

    t = 0.0
    for _ in range(700):
        t += rng.expovariate(2.0)
        resource = rng.choice(("pbs-maint", "slurm-maint") * 3 + ("pbs-a", "slurm-c") * 2)
        command = (("fail", str(rng.randint(1, 30)), "2") if rng.random() < 0.2
                   else ("sleep", str(rng.randint(1, 60))))
        cancel_after = rng.uniform(1.0, 100.0) if rng.random() < 0.08 else None
        world.clock.at(t, lambda r=resource, c=command, a=cancel_after: submit(r, c, a))
        if rng.random() < 0.01:
            world.clock.at(t, world.transport.inject_failure)
    world.clock.run_until(t + 200.0)
    return world, made[0]


class TestKeptStatusPayload:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_kept_payload_gives_the_trace_of_one_made_every_cycle(self, seed):
        kept, fresh_made = _storm_world(seed)
        forgot, forgot_made = _storm_world(seed, forget=True)
        assert kept.trace.to_ndjson() == forgot.trace.to_ndjson()
        assert kept.trace.count("job_transition") > 1500 and kept.trace.count("poll_failed")
        # most payloads were extended, not made afresh
        assert fresh_made < forgot_made / 2

    @settings(max_examples=300, deadline=None)
    @given(dialect=st.sampled_from(sorted(ADAPTERS)), start=st.sampled_from([1, 999_990]),
           ops=st.lists(st.one_of(st.tuples(st.just("add"), st.integers(1, 4)),
                                  st.tuples(st.just("cut"), st.integers(0, 100)),
                                  st.tuples(st.just("poll"), st.just(0))), max_size=40))
    def test_a_kept_payload_and_digest_equal_a_fresh_one(self, dialect, start, ops):
        # past j999999 a new job id sorts first, and the payload is made afresh
        adapter = ADAPTERS[dialect]()
        state = middleware._ResourceState(adapter)
        records, serial = [], start
        for op, n in [*ops, ("poll", 0)]:
            if op == "add":
                for _ in range(n):
                    native_id = f"{serial}.c\xa0\xe9" if dialect == "sim-pbs" else str(serial)
                    record = middleware._JobRecord(job_id=f"j{serial:06d}", spec=spec(),
                                                   native_id=native_id)
                    state.activate(record)
                    records.append(record)
                    serial += 1
            elif op == "cut" and records:
                state.deactivate(records.pop(n % len(records)))
            elif op == "poll" and records:
                payload, digest = state.status_payload()
                ids = [r.native_id for r in sorted(records, key=lambda r: r.job_id)]
                assert payload == adapter.format_status(ids)
                assert digest == short_digest(payload.encode())


class TestUnitWork:
    """A cycle parses only the status units it has not applied before."""

    @pytest.mark.parametrize("dialect", ["sim-pbs", "sim-slurm"])
    def test_a_cycle_parses_the_changed_units_not_every_held_job(self, dialect):
        world = _held_world(dialect)
        mw = world.middleware
        outputs, units = _counting(mw._active["hpc-1"].adapter)
        handles = [mw.submit(spec()) for _ in range(500)]
        assert len(mw.poll_cycle("hpc-1")) == 500 and len(units) == 500
        for k in (1, 7, 40):
            units.clear()
            handles += [mw.submit(spec()) for _ in range(k)]
            assert mw.poll_cycle("hpc-1") == [(h.job_id, JobState.SUBMITTED, JobState.QUEUED)
                                              for h in handles[-k:]]
            assert len(units) == k  # not 500 + k
        mw.cancel(handles[3])
        units.clear()
        assert mw.poll_cycle("hpc-1") == [(handles[3].job_id, JobState.QUEUED, JobState.CANCELED)]
        assert len(units) == 1
        # the next poll no longer names the job: a new output, and no unit to parse
        units.clear()
        parsed = len(outputs)
        assert mw.poll_cycle("hpc-1") == []
        assert len(outputs) == parsed + 1 and units == []
        assert len(mw._active["hpc-1"].kept) == len(handles) - 1

    @pytest.mark.parametrize("dialect", ["sim-pbs", "sim-slurm"])
    def test_kept_units_stay_within_the_last_applied_output(self, dialect):
        # 100 held jobs, and one job that ends at each of 2,000 polls
        world = _held_world(dialect)
        mw = world.middleware
        adapter = mw._active["hpc-1"].adapter
        outputs = _status_outputs(world)
        for _ in range(100):
            mw.submit(spec())
        mw.poll_cycle("hpc-1")
        for _ in range(2000):
            job = mw.submit(spec())
            mw.cancel(job)
            assert mw.poll_cycle("hpc-1") == [(job.job_id, JobState.SUBMITTED, JobState.CANCELED)]
            state = mw._active["hpc-1"]
            kept = state.kept
            assert kept <= set(adapter.parse_status(outputs[-1])) and len(kept) == 100
            assert set(state.kept_ids) <= set(state.job_ids)

    @pytest.mark.parametrize("dialect", ["sim-pbs", "sim-slurm"])
    def test_a_poll_that_adds_k_jobs_to_2000_held_ones_costs_k_lookups_and_k_units(self, dialect):
        world = _held_world(dialect)
        mw, lrm = world.middleware, world.clusters["hpc-1"]
        adapter = mw._active["hpc-1"].adapter
        split, parse_status = [], adapter.parse_status
        adapter.parse_status = lambda output: split.append(parse_status(output)) or split[-1]
        _, units = _counting(adapter)
        handles = [mw.submit(spec()) for _ in range(2000)]
        mw.poll_cycle("hpc-1")
        lrm.jobs = CountingDict(lrm.jobs)
        for k in (1, 12, 40):
            handles += [mw.submit(spec()) for _ in range(k)]
            lrm.jobs.reads, split[:], units[:] = 0, [], []
            assert mw.poll_cycle("hpc-1") == [(h.job_id, JobState.SUBMITTED, JobState.QUEUED)
                                              for h in handles[-k:]]
            assert lrm.jobs.reads == k  # not 2000 + k
            assert [len(parsed) for parsed in split] == [k] and len(units) == k

    @pytest.mark.parametrize("c, k", [(1, 1), (1, 12), (3, 1), (3, 12)])
    @pytest.mark.parametrize("dialect", ["sim-pbs", "sim-slurm"])
    def test_the_two_polls_after_c_of_2000_held_jobs_are_canceled_cost_the_changed_jobs(
            self, dialect, c, k):
        world = _held_world(dialect)
        mw, lrm = world.middleware, world.clusters["hpc-1"]
        adapter = mw._active["hpc-1"].adapter
        texts, units = _counting(adapter)
        payloads, call = [], world.transport.call

        def recording_call(resource, credential, verb, payload, *digest):
            if verb == "batch_status":
                payloads.append(payload)
            return call(resource, credential, verb, payload, *digest)

        world.transport.call = recording_call
        handles = [mw.submit(spec()) for _ in range(2000)]
        mw.poll_cycle("hpc-1")
        canceled = handles[100::700][:c]  # from the middle of the output
        natives = [mw._records[h.job_id].native_id for h in canceled]
        line = cluster._qstat_block if dialect == "sim-pbs" else cluster._sacct_line
        lines = [line(lrm.jobs[native_id]) for native_id in natives]
        for handle in canceled:
            mw.cancel(handle)
        lines += [line(lrm.jobs[native_id]) for native_id in natives]
        lrm.jobs = CountingDict(lrm.jobs)
        for poll in range(2):
            handles += [mw.submit(spec()) for _ in range(k)]
            lrm.jobs.reads, units[:], texts[:] = 0, [], []
            expected = [(h.job_id, JobState.SUBMITTED, JobState.QUEUED) for h in handles[-k:]]
            if poll == 0:
                expected = sorted(expected + [(h.job_id, JobState.QUEUED, JobState.CANCELED)
                                              for h in canceled])
            assert mw.poll_cycle("hpc-1") == expected
            # not 2000 + k reads and units
            assert lrm.jobs.reads <= (c + k if poll == 0 else k)
            assert len(units) == (c + k if poll == 0 else k)
        # the second poll names neither the canceled jobs nor their units
        assert not set(natives) & set(payloads[-1].replace("=", " ").replace(",", " ").split())
        assert not any(line in text for line in lines for text in texts)
        assert all(mw.status(h).state is JobState.CANCELED for h in canceled)

    def test_a_cycle_where_1000_kept_jobs_change_scans_the_units_a_few_times(self):
        world = batch_world(
            queue={"distribution": "fixed", "params": {"value": 10.0},
                   "maintenance_windows": [[0.0, 100.0]]},
            resources=[{"name": "hpc-1", "kind": "hpc_cluster", "lrm": "batch",
                        "allows_incoming_connections": False, "node_count": 8,
                        "queue": "q", "dialect": "sim-slurm"}],
            scenario={"transport_rtt_s": 0.0, "poll_interval_s": 10_000.0})
        mw = world.middleware
        handles = [mw.submit(spec(command=("sleep", "1000"))) for _ in range(1000)]
        assert len(mw.poll_cycle("hpc-1")) == 1000
        world.clock.run_until(200.0)  # the window ends, and every held job starts

        class ScanCounting(list):
            scans = 0

            def _scan(name):
                def scan(self, *args):
                    ScanCounting.scans += 1
                    return getattr(list, name)(self, *args)
                return scan

            __iter__, __reversed__, __contains__, __getitem__, index, count = map(
                _scan, ("__iter__", "__reversed__", "__contains__", "__getitem__", "index",
                        "count"))
            del _scan

        adapter = mw._active["hpc-1"].adapter
        parse_status = adapter.parse_status
        adapter.parse_status = lambda output: ScanCounting(parse_status(output))
        assert mw.poll_cycle("hpc-1") == [(h.job_id, JobState.QUEUED, JobState.RUNNING)
                                          for h in handles]
        assert ScanCounting.scans <= 4  # not one or more per changed job

    def test_of_two_units_naming_one_job_the_later_with_a_state_wins(self):
        world, answers = _scripted_status_world()
        mw = world.middleware
        (q1, r1), (q2, r2) = ([f"Job Id: {i}.hpc-1\n    job_state = {x}" for x in "QR"]
                              for i in (1, 2))
        answers.append("\n".join([q1, q2]))
        assert len(mw.poll_cycle("hpc-1")) == 2
        # a fresh unit before the kept one, or before its last copy, loses to it
        answers.append("\n".join([r1, q1, q2]))
        assert mw.poll_cycle("hpc-1") == []
        answers.append("\n".join([q1, r1, q1, q2]))
        assert mw.poll_cycle("hpc-1") == []
        # after it, the fresh unit wins, and the kept one is forgotten
        answers.append("\n".join([q1, r1, q2]))
        assert mw.poll_cycle("hpc-1") == [("j000001", JobState.QUEUED, JobState.RUNNING)]
        answers.append("\n".join([q1, q2]))
        with pytest.raises(ValidationError, match="no legal path"):
            mw.poll_cycle("hpc-1")
        # a later unit that reports no state does not count
        answers.append("\n".join([r1, r2, "Job Id: 2.hpc-1\n    job_state = Z"]))
        assert mw.poll_cycle("hpc-1") == [("j000002", JobState.QUEUED, JobState.RUNNING)]

    def test_past_eight_changed_known_jobs_the_later_unit_still_wins(self):
        # more than eight known jobs change in one cycle: one position map decides
        world, answers = _scripted_status_world(jobs=12)
        mw = world.middleware
        q, r = ([f"Job Id: {i}.hpc-1\n    job_state = {x}" for i in range(1, 13)] for x in "QR")
        answers.append("\n".join(q))
        assert len(mw.poll_cycle("hpc-1")) == 12
        answers.append("\n".join(r + q))  # each fresh unit comes before the kept one
        assert mw.poll_cycle("hpc-1") == []
        answers.append("\n".join(r[1:] + q + r[:1]))  # but job 1's now comes after it
        assert mw.poll_cycle("hpc-1") == [("j000001", JobState.QUEUED, JobState.RUNNING)]


def _full_parse_poll(mw, observed, resource_name):
    """``poll_cycle`` as it was before cycles kept units, the reference for
    the test below: parse every unit of the output, then diff the whole
    observation with the last one, kept per resource in ``observed``.
    (The payload re-sort past j999999 and the transport-failure branch are
    left out: the test meets neither.)"""
    state = mw._active[resource_name]
    if not state.active:
        return []
    adapter = state.adapter
    command = adapter.format_status(list(state.active.values()))
    output = mw.transport.call(resource_name, min(state.credentials),
                               "batch_status", command)
    if output == state.applied_output:
        return []
    state.applied_output = None
    now = dict(filter(None, map(adapter.parse_unit, adapter.parse_status(output))))
    last = observed.get(resource_name, {})
    changed = [(native_id, state_code) for native_id, state_code in now.items()
               if last.get(native_id) != state_code]
    observed[resource_name] = now
    job_ids = state.job_ids
    pending = []
    for native_id, state_code in changed:
        del now[native_id]
        if native_id in job_ids:
            pending.append((job_ids[native_id], native_id, state_code))
    pending.sort()
    applied = []
    for job_id, native_id, state_code in pending:
        if observed[resource_name] is not now:
            break
        record = mw._records[job_id]
        target = _BACKEND_TO_CLIENT[state_code[0]]
        before = record.state
        if target is not before:
            mw._advance_to(record, target, exit_code=state_code[1])
            applied.append((job_id, before, record.state))
        now[native_id] = state_code
    if observed[resource_name] is now:
        state.applied_output = output
    return applied


def _units(stateful, stateless, malformed):
    """A unit that reports a state four times in six, else one that reports
    none or a malformed one: a malformed unit fails its whole cycle."""
    return st.integers(0, 5).flatmap(
        lambda i: stateful if i > 1 else stateless if i else malformed)


# Status units for three scripted jobs (native ids 1 to 3) and one unknown
# job (9): ones that report a state, ones that report none, and
# malformed ones.
_IDS = st.sampled_from("1239")
_STATUS_UNITS = {
    "sim-slurm": _units(
        st.builds("{}|{}|{}:0".format, _IDS,
                  st.sampled_from(["PENDING", "RUNNING", "COMPLETED", "FAILED", "CANCELLED"]),
                  st.sampled_from("02")),
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["1|BOGUS|0:0", "2|RUNNING", "3|FAILED|x:0"]),
    ),
    "sim-pbs": _units(
        st.builds("Job Id: {}.hpc-1\n    {}".format, _IDS,
                  st.sampled_from(["job_state = Q", "job_state = R", "job_state = F\n    exit_status = 0",
                                   "job_state = F\n    exit_status = 2",
                                   "job_state = F\n    exit_status = 271"])),
        st.sampled_from(["Job Id: 1.hpc-1\n    job_state = Z", "Job Id:\n    job_state = Q",
                         "Job Id: 2.hpc-1"]),
        st.sampled_from(["Job Id: 3.hpc-1\n    exit_status = x"]),
    ),
}


@st.composite
def _polls(draw):
    """A dialect and the outputs of successive polls. Most outputs after the
    first extend the one before: by more units after a line break, or, in
    PBS, by lines that go on its last block. Others replace or cut one of its
    units or lines, as an LRM answers after a cancel or once a job left the
    poll, with more units after it or none. A Slurm output may end in a CR or
    a blank line, so that an extension does not start a new line."""
    dialect = draw(st.sampled_from(sorted(_STATUS_UNITS)))
    units = st.lists(_STATUS_UNITS[dialect], max_size=8).map("\n".join)
    outputs, pieces = [], []
    for _ in range(draw(st.integers(1, 8))):
        added = draw(units)
        how = draw(st.integers(0, 7)) if outputs else 0
        if how >= 4 and pieces:  # replace or cut one piece of the one before
            i = draw(st.integers(0, len(pieces) - 1))
            pieces[i:i + 1] = [] if how >= 6 else [draw(_STATUS_UNITS[dialect]) if how == 4 else
                                                  draw(_restated(dialect, pieces[i]))]
            tail = draw(st.sampled_from(["", added]))
            added = "\n".join(filter(None, ["\n".join(pieces), tail]))
        elif how:
            if dialect == "sim-pbs" and not draw(st.integers(0, 4)):  # no new Job Id: block
                added = "\n".join(filter(None, ["    job_state = R", added]))
            added = outputs[-1] + "\n" + added
        if dialect == "sim-slurm":
            added += draw(st.sampled_from(["", "", "", "\r", "\n", "\r\n"]))
        outputs.append(added)
        pieces = re.split("\n(?=Job Id:)" if dialect == "sim-pbs" else "\n", added)
    return dialect, outputs


def _restated(dialect, piece):
    """A unit naming the job ``piece`` names, with a drawn state."""
    if dialect == "sim-slurm":
        return st.builds("{}|{}|{}:0".format, st.just(piece.split("|")[0]),
                         st.sampled_from(["PENDING", "RUNNING", "COMPLETED", "CANCELLED"]),
                         st.sampled_from("02"))
    return st.builds("{}\n    {}".format, st.just(piece.split("\n")[0]),
                     st.sampled_from(["job_state = R", "job_state = F\n    exit_status = 271"]))


def _vanished(dialect, before, after):
    """The native ids of the units ``before`` holds more often than ``after``."""
    adapter = ADAPTERS[dialect]()
    gone = Counter(adapter.parse_status(before)) - Counter(adapter.parse_status(after))
    return sorted({(unit.split("|") if dialect == "sim-slurm" else unit.split("\n"))[0].strip()
                   for unit in gone} - {""})


class TestKeptUnitsAgainstAFullParse:
    @settings(max_examples=800, deadline=None)
    @given(polls=_polls(), nest=st.booleans(), arrivals=st.lists(st.integers(0, 7), max_size=2),
           cancels=st.sampled_from([True, True, False]))
    @example(polls=("sim-slurm", ["1|PENDING|0:0", "1|PENDING|0:0\n1|RUNNING|0:0",
                                  "1|PENDING|0:0"]), nest=False, arrivals=[], cancels=False)
    @example(polls=("sim-slurm", ["1|PENDING|0:0\n2|PENDING|0:0",
                                  "1|RUNNING|0:0\n2|PENDING|0:0\n2|PENDING|0:0",
                                  "1|RUNNING|2:0\n2|RUNNING|0:0"]),
             nest=True, arrivals=[], cancels=False)
    # a cycle nested in the Running step applies a unit of a job that then ends
    @example(polls=("sim-pbs", ["Job Id: 1.hpc-1\n    job_state = F\n    exit_status = 0",
                                "Job Id: 1.hpc-1\n    job_state = R"]),
             nest=True, arrivals=[], cancels=False)
    # job 3 is named before it is submitted, and the extension names it no more
    @example(polls=("sim-slurm", ["1|PENDING|0:0\n3|RUNNING|0:0",
                                  "1|PENDING|0:0\n3|RUNNING|0:0\n2|PENDING|0:0"]),
             nest=False, arrivals=[1], cancels=False)
    # after job 3 is submitted, the extension repeats a unit of the prefix,
    # then moves another job on
    @example(polls=("sim-pbs", ["Job Id: 2.hpc-1\n    job_state = R\nJob Id: 1.hpc-1\n    job_state = Q",
                                "Job Id: 2.hpc-1\n    job_state = R\nJob Id: 1.hpc-1\n    job_state = Q"
                                "\nJob Id: 2.hpc-1\n    job_state = R\nJob Id: 1.hpc-1\n    job_state = R"]),
             nest=False, arrivals=[1], cancels=False)
    # after job 3 is submitted, job 1's block goes on with an exit status:
    # the output extends the one before, but not at the start of a unit
    @example(polls=("sim-pbs", ["Job Id: 1.hpc-1\n    job_state = R",
                                "Job Id: 1.hpc-1\n    job_state = R\n    exit_status = 0"]),
             nest=False, arrivals=[1], cancels=False)
    # job 1 is named twice, and a cancel replaces the copy a later one outdates
    @example(polls=("sim-slurm", ["1|PENDING|0:0\n2|PENDING|0:0\n1|PENDING|0:0",
                                  "1|CANCELLED|0:0\n2|PENDING|0:0\n1|PENDING|0:0"]),
             nest=False, arrivals=[], cancels=True)
    # job 1's kept unit is a substring of job 11's in the output a cancel of job 1 edits
    @example(polls=("sim-slurm", ["1|PENDING|0:0\n2|PENDING|0:0",
                                  "11|PENDING|0:0\n2|PENDING|0:0",
                                  "11|CANCELLED|0:0\n2|RUNNING|0:0"]),
             nest=False, arrivals=[], cancels=True)
    # the unit in canceled job 1's place names job 2, whose kept unit comes later and wins
    @example(polls=("sim-slurm", ["1|PENDING|0:0\n2|PENDING|0:0", "2|RUNNING|0:0\n2|PENDING|0:0"]),
             nest=False, arrivals=[], cancels=True)
    # in PBS blocks: a cancel replaces job 2's, job 1's leaves, and job 3's follows
    @example(polls=("sim-pbs", ["Job Id: 2.hpc-1\n    job_state = Q\nJob Id: 1.hpc-1"
                                "\n    job_state = F\n    exit_status = 0"
                                "\nJob Id: 3.hpc-1\n    job_state = Q",
                                "Job Id: 2.hpc-1\n    job_state = F\n    exit_status = 271"
                                "\nJob Id: 3.hpc-1\n    job_state = Q"
                                "\nJob Id: 3.hpc-1\n    job_state = R"]),
             nest=False, arrivals=[], cancels=True)
    # a cancel replaces job 1's kept block with one that gives no state, so
    # job 1's first block, which the kept one outdated, applies again
    @example(polls=("sim-pbs", ["Job Id: 1.hpc-1\n    job_state = Q\nJob Id: 1.hpc-1\n    job_state = Z",
                                "Job Id: 1.hpc-1\n    job_state = Q\nJob Id: 1.hpc-1\n    job_state = Z"
                                "\n    job_state = R",
                                "Job Id: 1.hpc-1\n    job_state = Q\nJob Id: 1.hpc-1\n    job_state = Z"]),
             nest=False, arrivals=[], cancels=True)
    def test_same_cycle_results_and_errors_as_parsing_every_unit(self, polls, nest, arrivals,
                                                                 cancels):
        # ``arrivals`` submits one more job before each poll it names; the
        # jobs submitted before the first poll make three in all. With
        # ``cancels``, each job whose unit the next output leaves out or
        # replaces is canceled before that poll. Every edit is read as one,
        # however short the output.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(middleware, "_EDIT_MIN_CHARS", 0)
            self._check(polls, nest, arrivals, cancels)

    @staticmethod
    def _check(polls, nest, arrivals, cancels):
        dialect, outputs = polls
        runs = []
        for full in (False, True):
            world, answers = _scripted_status_world(dialect, jobs=3 - len(arrivals))
            # each job starts running once at most, so at most 3 polls are nested
            answers += outputs + outputs[-1:] * 3
            mw = world.middleware
            if full:
                observed = {}
                mw.poll_cycle = lambda resource: _full_parse_poll(mw, observed, resource)
            returned = _status_outputs(world)
            depth, results = [0], []

            def poll_when_running(spec, job_id, previous, state, t):
                if nest and state is JobState.RUNNING and depth[0] < 2:
                    depth[0] += 1
                    try:
                        results.append(("nested", mw.poll_cycle("hpc-1")))
                    finally:
                        depth[0] -= 1

            mw.add_transition_listener(poll_when_running)
            for i, _ in enumerate(outputs):
                for _ in range(arrivals.count(i)):
                    mw.submit(spec())
                for native_id in _vanished(dialect, *outputs[i - 1:i + 1]) if cancels and i else ():
                    for record in mw._records.values():
                        if record.native_id == native_id and record.state not in TERMINAL_STATES:
                            mw.cancel(record.job_id)
                try:
                    results.append(mw.poll_cycle("hpc-1"))
                except (ValidationError, ValueError, KeyError) as exc:
                    results.append((type(exc), str(exc)))
                else:
                    if not full:  # at most one kept unit per active job, within the output
                        state = mw._active["hpc-1"]
                        kept, kept_ids = state.kept, state.kept_ids
                        assert kept <= set(kept_ids.values())
                        assert kept_ids.keys() <= state.job_ids.keys()
                        assert len(kept) <= len(state.adapter.parse_status(returned[-1]))
                results.append([(r.state, r.exit_code, tuple(r.transitions))
                                for r in mw._records.values()])
            runs.append((results, world.trace.to_ndjson()))
        assert runs[0] == runs[1]


def transitions_of(world, job_id):
    """Add a transition listener; the list it fills with ``job_id``'s
    (state, t) transitions, in order."""
    seen = []
    world.middleware.add_transition_listener(
        lambda spec, job, previous, state, t: seen.append((state, t)) if job == job_id else None)
    return seen


class TestTransitionListeners:
    def test_full_lifecycle_replay(self):
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 6.0}})
        handle = world.middleware.submit(spec(command=("sleep", "4")))
        seen = transitions_of(world, handle.job_id)
        world.clock.run_until(30.0)
        assert [s for s, _ in seen] == [JobState.QUEUED, JobState.RUNNING, JobState.COMPLETED]
        assert seen == list(world.middleware.status(handle).transitions[2:])

    def test_two_listeners_see_identical_sequences(self):
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 6.0}})
        handle = world.middleware.submit(spec(command=("sleep", "4")))
        seen_a = transitions_of(world, handle.job_id)
        seen_b = transitions_of(world, handle.job_id)
        world.clock.run_until(30.0)
        assert seen_a == seen_b and seen_a

    def test_terminal_job_reports_terminal_then_nothing_more(self):
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 1.0}})
        handle = world.middleware.submit(spec(command=("sleep", "1")))
        world.clock.run_until(30.0)
        status = world.middleware.status(handle)
        assert status.state == JobState.COMPLETED
        assert status.transitions[-1][0] == JobState.COMPLETED
        seen = transitions_of(world, handle.job_id)
        world.clock.run_until(60.0)
        assert seen == []
        assert world.middleware.status(handle) == status

    def test_listener_count_does_not_change_poller_count(self):
        world = batch_world()
        handle = world.middleware.submit(spec())
        for _ in range(1000):
            transitions_of(world, handle.job_id)
        assert world.middleware.active_pollers == 1


class TestCancel:
    def test_cancel_queued_job(self):
        world = batch_world()
        handle = world.middleware.submit(spec())
        world.clock.run_until(5.0)
        ack = world.middleware.cancel(handle)
        assert not ack.noop
        world.clock.run_until(10.0)
        assert world.middleware.status(handle).state == JobState.CANCELED

    def test_cancel_terminal_is_idempotent_noop(self):
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 1.0}})
        handle = world.middleware.submit(spec(command=("sleep", "1")))
        world.clock.run_until(30.0)
        assert world.middleware.status(handle).state == JobState.COMPLETED
        ack = world.middleware.cancel(handle)
        assert ack.noop
        assert world.middleware.status(handle).state == JobState.COMPLETED

    def test_cancel_running_job(self):
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 1.0}})
        handle = world.middleware.submit(spec(command=("sleep", "1000")))
        world.clock.run_until(10.0)
        assert world.middleware.status(handle).state == JobState.RUNNING
        world.middleware.cancel(handle)
        world.clock.run_until(20.0)
        assert world.middleware.status(handle).state == JobState.CANCELED


class TestSessions:
    def test_session_frugality_three_pairs(self):
        resources = [
            {"name": f"hpc-{i}", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "node_count": 4, "queue": "q"}
            for i in range(2)
        ]
        world = batch_world(
            resources=resources,
            queue={"distribution": "fixed", "params": {"value": 100_000.0}},
            scenario={"idle_ttl_s": None, "credentials": ["alice", "bob"]},
        )
        pairs = [("hpc-0", "alice"), ("hpc-0", "bob"), ("hpc-1", "alice")]
        for i in range(500):
            resource, credential = pairs[i % 3]
            world.middleware.submit(spec(resource=resource, credential=credential))
        assert world.transport.handshake_count == 3

    def test_idle_ttl_forces_rehandshake(self):
        # Operations spaced beyond the TTL re-handshake every time; note a
        # live poller would keep the session warm, so there are no jobs here.
        world = batch_world(scenario={"idle_ttl_s": 10.0})
        ops = 6
        for _ in range(ops):
            world.transport.acquire_session("hpc-1", "user")
            world.clock.advance(15.0)
        assert world.transport.handshake_count == ops

    def test_polling_keeps_a_session_warm(self):
        world = batch_world(
            queue={"distribution": "fixed", "params": {"value": 100_000.0}},
            scenario={"idle_ttl_s": 10.0},
        )
        world.middleware.submit(spec())
        world.clock.run_until(100.0)  # polls every 5 s reuse the session
        assert world.transport.handshake_count == 1

    def test_distinct_credentials_distinct_sessions(self):
        world = batch_world(scenario={"credentials": ["alice", "bob"]})
        world.transport.acquire_session("hpc-1", "alice")
        assert world.transport.handshake_count == 1
        world.transport.acquire_session("hpc-1", "bob")
        assert world.transport.handshake_count == 2
        # both sessions are live: neither pair handshakes again
        world.transport.acquire_session("hpc-1", "alice")
        world.transport.acquire_session("hpc-1", "bob")
        assert world.transport.handshake_count == 2

    def test_a_session_idle_past_its_ttl_is_not_live(self):
        world = batch_world(scenario={"idle_ttl_s": 10.0})
        world.transport.acquire_session("hpc-1", "user")
        assert world.transport.handshake_count == 1
        world.transport.acquire_session("hpc-1", "user")  # still live: no handshake
        assert world.transport.handshake_count == 1
        world.clock.run_until(100.0)
        world.transport.acquire_session("hpc-1", "user")  # idled out: re-handshakes
        assert world.transport.handshake_count == 2
        world.transport.acquire_session("hpc-1", "user")  # live again
        assert world.transport.handshake_count == 2

    def test_handshake_failure_fails_submit_with_cause_and_backoff(self):
        world = batch_world()
        world.transport.inject_failure("handshake", count=1)
        handle = world.middleware.submit(spec())
        status = world.middleware.status(handle)
        assert status.state == JobState.FAILED
        assert "handshake" in status.cause
        with pytest.raises(SessionError, match="backoff"):
            world.transport.acquire_session("hpc-1", "user")
        world.clock.advance(31.0)  # backoff over
        world.transport.acquire_session("hpc-1", "user")

    def test_pending_handshake_failure_does_not_hold_back_a_transport_failure(self):
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 1000.0}})
        world.middleware.submit(spec())  # opens the session; polls keep it live
        world.transport.inject_failure("handshake", count=1)
        world.transport.inject_failure("transport", count=1)
        world.clock.run_until(100.0)
        assert world.middleware.poll_failures == 1
        assert world.transport.handshake_count == 1
        # the job ends near t=1030; once the session idles out, the next
        # handshake takes the pending handshake failure
        world.clock.run_until(2000.0)
        with pytest.raises(SessionError, match="handshake"):
            world.transport.acquire_session("hpc-1", "user")

    @pytest.mark.parametrize("count", [-1, 1.5, 0.5, True, "1", None])
    def test_a_failure_count_that_is_not_an_int_at_least_0_is_rejected(self, count):
        # a fractional count would leave a pending count below zero that
        # fails every later call
        world = batch_world(queue={"distribution": "fixed", "params": {"value": 1.0}})
        with pytest.raises(ValueError, match="failure count"):
            world.transport.inject_failure("transport", count)
        handles = [world.middleware.submit(spec()) for _ in range(5)]
        assert [world.middleware.status(h).state for h in handles] == [JobState.SUBMITTED] * 5
        assert world.trace.count("transport_failed") == 0


class TestDialects:
    def test_pbs_command_strings_in_transport_log(self):
        world = batch_world()
        world.middleware.submit(spec(command=("sleep", "30")))
        submit_calls = transport_calls(world, "submit")
        assert submit_calls[0].fields["payload_digest"] == short_digest(
            b"qsub -l nodes=1 -N j000001 -- sleep 30")
        world.clock.run_until(5.0)
        status_calls = transport_calls(world, "batch_status")
        assert status_calls[0].fields["payload_digest"] == short_digest(b"qstat -f 1.hpc-1")

    def test_slurm_dialect_coexists_and_routes_by_resource(self):
        resources = [
            {"name": "pbs-1", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "queue": "q", "dialect": "sim-pbs"},
            {"name": "slurm-1", "kind": "hpc_cluster", "lrm": "batch",
             "allows_incoming_connections": False, "queue": "q", "dialect": "sim-slurm"},
        ]
        world = batch_world(resources=resources,
                            queue={"distribution": "fixed", "params": {"value": 2.0}})
        h1 = world.middleware.submit(spec(resource="pbs-1"))
        h2 = world.middleware.submit(spec(resource="slurm-1"))
        digests = {ev.fields["resource"]: ev.fields["payload_digest"]
                   for ev in transport_calls(world, "submit")}
        assert digests["pbs-1"] == short_digest(b"qsub -l nodes=1 -N j000001 -- sleep 30")
        assert digests["slurm-1"] == short_digest(
            b"sbatch --nodes=1 --job-name=j000002 --wrap 'sleep 30'")
        world.clock.run_until(40.0)
        assert world.middleware.status(h1).state == JobState.COMPLETED
        assert world.middleware.status(h2).state == JobState.COMPLETED


class TestStateMachine:
    def test_observed_transitions_are_legal(self):
        world = batch_world(queue={"distribution": "exponential", "params": {"mean": 5.0}})
        handles = [world.middleware.submit(spec(command=("sleep", "3"))) for _ in range(50)]
        world.clock.run_until(200.0)
        for handle in handles:
            transitions = world.middleware.status(handle).transitions
            for (a, _), (b, _) in zip(transitions, transitions[1:]):
                assert b in LEGAL_TRANSITIONS[a], f"illegal {a} -> {b}"
            assert transitions[-1][0] in TERMINAL_STATES
