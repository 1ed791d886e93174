import hashlib
import random
from collections import Counter

import pytest

from talescale.digest import short_digest
from talescale.errors import ValidationError
from talescale.middleware import JobSpec, JobState
from talescale.pilots import PilotPool, PoolPolicy, SlotState
from talescale.world import World, load_config

from conftest import batch_world


def pool_world(min_warm=2, max_size=4, walltime=50_000.0, queue=None, **kw):
    return batch_world(
        queue=queue or {"distribution": "fixed", "params": {"value": 600.0}},
        pools=[{"resource": "hpc-1", "min_warm": min_warm, "max_size": max_size,
                "pilot_walltime_s": walltime}],
        **kw,
    )


def workload(command=("sleep", "30")):
    return JobSpec(resource="hpc-1", command=command, credential="user", tale_id="t1")


FAST_QUEUE = {"distribution": "fixed", "params": {"value": 10.0}}


def submit_calls(world):
    return [ev for ev in world.trace
            if ev.kind == "transport_call" and ev.fields["verb"] == "submit"]


def events(world, kind):
    return [ev for ev in world.trace if ev.kind == kind]


class TestConfigure:
    def test_min_warm_pilots_submitted(self):
        world = pool_world(min_warm=2)
        payloads = [f"qsub -l nodes=1 -N j00000{i} -- pilot-shim 50000.0" for i in (1, 2)]
        assert [ev.fields["payload_digest"] for ev in submit_calls(world)] == [
            short_digest(p.encode()) for p in payloads]

    def test_min_warm_zero_no_submissions(self):
        world = pool_world(min_warm=0)
        assert submit_calls(world) == []

    def test_max_size_below_min_warm_rejected(self):
        with pytest.raises(ValidationError):
            PoolPolicy(resource="hpc-1", min_warm=3, max_size=2)

    def test_replenish_threshold_above_min_warm_rejected(self):
        with pytest.raises(ValidationError):
            PoolPolicy(resource="hpc-1", min_warm=1, max_size=3, replenish_threshold=2)

    def test_pool_on_unknown_resource_rejected(self):
        from talescale.errors import ConfigError
        with pytest.raises(ConfigError, match="nowhere.*|pool"):
            batch_world(pools=[{"resource": "nowhere", "min_warm": 1}])


class TestClaim:
    def test_warm_claim_is_instant(self):
        world = pool_world()
        world.clock.run_until(700.0)  # pilots through the 600 s queue
        pool = world.pools["hpc-1"]
        assert pool.counts()[SlotState.WARM] == 2
        before = world.clock.now
        kind, slot = world.submit_workload(workload())
        assert kind == "pilot"
        assert slot.state == SlotState.CLAIMED
        # start latency is dispatch overhead only, well under a second
        assert world.workload_latencies == [pool.dispatch_overhead_s]
        # only the replenish submission's transport cost elapsed
        assert world.clock.now - before <= 0.1

    def test_empty_pool_returns_none_and_fallback_waits(self):
        world = pool_world(min_warm=0)
        kind, handle = world.submit_workload(workload())
        assert kind == "lrm"
        world.clock.run_until(700.0)
        # direct submit experienced roughly the configured 600 s wait
        assert world.workload_latencies[-1] == pytest.approx(600.0, rel=0.02)

    def test_one_warm_slot_single_winner(self):
        world = pool_world(min_warm=1, max_size=1)
        world.clock.run_until(700.0)
        pool = world.pools["hpc-1"]
        first = pool.claim(workload())
        second = pool.claim(workload())
        assert first is not None
        assert second is None

    def test_resource_mismatch_rejected(self):
        world = pool_world()
        world.clock.run_until(700.0)
        with pytest.raises(ValidationError):
            world.pools["hpc-1"].claim(JobSpec(resource="elsewhere", command=("sleep", "1")))

    def test_oversized_workload_rejected(self):
        # a pilot holds one node: a 4-node workload is cold, and the pool is left as it was
        world = pool_world()
        world.clock.run_until(700.0)
        pool = world.pools["hpc-1"]
        before = pool.counts()
        assert pool.claim(JobSpec(resource="hpc-1", command=("sleep", "1"), node_count=4)) is None
        assert pool.counts() == before

    def test_a_scenario_workload_wider_than_a_pilot_goes_to_the_lrm(self):
        world = pool_world(scenario={"actions": [
            {"op": "workload", "t": 100, "resource": "hpc-1", "node_count": 4}]})
        world.clock.run_until(1000.0)
        started = events(world, "workload_started")
        assert [(ev.fields["via"], ev.fields["latency"]) for ev in started] == [("lrm", 600.0)]
        assert world.pools["hpc-1"].counts()[SlotState.CLAIMED] == 0

    def test_slot_claimed_at_most_once(self):
        world = pool_world()
        world.clock.run_until(700.0)
        pool = world.pools["hpc-1"]
        slot = pool.claim(workload())
        claimed = [s for s in pool.slots if s.state == SlotState.CLAIMED]
        assert claimed == [slot]
        world.clock.run_until(5000.0)
        # released after its single workload, never warm or re-claimed
        assert slot.state == SlotState.EXPIRED
        assert [ev.fields.get("slot") for ev in events(world, "workload_started")].count(
            slot.slot_id) == 1

    def test_released_slot_frees_capacity(self):
        world = pool_world(min_warm=1, max_size=1, queue=FAST_QUEUE)
        pool = world.pools["hpc-1"]
        world.clock.run_until(20.0)
        slot = pool.claim(workload(command=("sleep", "5")))
        assert slot is not None
        assert pool.replenish() == []  # cap holds while the workload runs
        world.clock.run_until(100.0)  # workload done, slot released, pool refilled
        assert [(ev.fields["slot"], ev.fields["reason"])
                for ev in events(world, "pilot_expired")] == [(slot.slot_id, "released")]
        assert slot not in pool.slots
        counts = pool.counts()
        assert counts[SlotState.PENDING] + counts[SlotState.WARM] == 1

    def test_lost_release_cancel_still_retires_the_slot(self):
        world = pool_world(min_warm=1, max_size=2, walltime=1000.0, queue=FAST_QUEUE)
        pool = world.pools["hpc-1"]
        world.clock.run_until(20.0)
        kind, slot = world.submit_workload(workload(command=("sleep", "5")))
        assert kind == "pilot"
        # after the t=25 poll, so the release's cancel at t=25.2 is the call that fails
        world.clock.at(25.1, world.transport.inject_failure)
        world.clock.run_until(2000.0)
        assert events(world, "transport_failed")[0].t == pytest.approx(25.2)
        released = [ev for ev in events(world, "pilot_expired")
                    if ev.fields["slot"] == slot.slot_id]
        assert [(ev.t, ev.fields["reason"]) for ev in released] == [
            (pytest.approx(25.2), "released")]
        assert slot.state == SlotState.EXPIRED
        assert slot not in pool.slots
        # the orphaned pilot runs out its walltime on the backend
        assert world.middleware.status(slot.handle).state == JobState.COMPLETED


class TestReplenish:
    def test_refills_to_min_warm(self):
        world = pool_world(min_warm=2)
        pool = world.pools["hpc-1"]
        counts = pool.counts()
        assert counts[SlotState.PENDING] == 2
        assert pool.replenish() == []  # warm+pending already at min_warm

    def test_cap_blocks_submissions(self):
        world = pool_world(min_warm=2, max_size=2)
        pool = world.pools["hpc-1"]
        world.clock.run_until(700.0)
        pool.claim(workload())
        pool.claim(workload())
        # claimed slots still count against max_size
        assert pool.replenish() == []
        assert pool.counts()[SlotState.CLAIMED] == len(pool.slots) == 2

    def test_claim_triggers_replenish(self):
        world = pool_world(min_warm=2, max_size=8)
        world.clock.run_until(700.0)
        pool = world.pools["hpc-1"]
        submits_before = len(submit_calls(world))
        pool.claim(workload())
        assert len(submit_calls(world)) == submits_before + 1

    def test_submit_failure_recorded_and_retried(self):
        world = pool_world(min_warm=0)
        pool = world.pools["hpc-1"]
        object.__setattr__(pool.policy, "min_warm", 1)
        world.transport.inject_failure("transport", count=1)
        pool.replenish()
        assert [ev.fields["slot"] for ev in events(world, "pilot_submit_failed")] == [0]
        assert pool.slots == []
        pool.replenish()  # retry succeeds under the next slot id
        assert pool.counts()[SlotState.PENDING] == 1
        assert [slot.slot_id for slot in pool.slots] == [1]


class TestExpire:
    def test_walltime_expiry_and_restoration(self):
        world = pool_world(min_warm=1, max_size=4, walltime=1000.0, queue=FAST_QUEUE)
        pool = world.pools["hpc-1"]
        world.clock.run_until(20.0)
        assert pool.counts()[SlotState.WARM] == 1
        world.clock.run_until(2000.0)
        # trace oracle: an expiry happened and replenish restored min_warm
        assert events(world, "pilot_expired")
        assert pool.counts()[SlotState.WARM] >= 1

    def test_expire_is_age_based(self):
        # Two failed polls hide the pilot's completion at t=110, so only its
        # age (warm since t=10, walltime 100 s) can retire it.
        world = pool_world(min_warm=1, walltime=100.0, queue=FAST_QUEUE)
        pool = world.pools["hpc-1"]
        world.clock.run_until(20.0)
        [slot] = pool.slots
        assert slot.warmed_at == 10.0
        world.clock.at(107.0, lambda: world.transport.inject_failure("transport", count=2))
        world.clock.run_until(110.0)
        assert slot in pool.slots  # an age of exactly the walltime is not past it
        world.clock.run_until(115.0)
        assert slot not in pool.slots
        assert [(ev.t, ev.fields["reason"]) for ev in events(world, "pilot_expired")] == [
            (115.0, "walltime")]

    def test_infinite_walltime_never_expires(self):
        world = pool_world(min_warm=1, walltime=float("inf"), queue=FAST_QUEUE)
        pool = world.pools["hpc-1"]
        world.clock.run_until(5_000.0)
        [slot] = pool.slots
        assert slot.state == SlotState.WARM and slot.warmed_at == 10.0
        assert events(world, "pilot_expired") == []


class TestWiring:
    def test_pool_built_on_a_bare_middleware_follows_its_pilots(self):
        # The pool hears of its pilots' transitions from the middleware
        # itself; no owner has to pass them on.
        world = batch_world(queue=FAST_QUEUE)
        pool = PilotPool(world.clock, world.middleware,
                         PoolPolicy(resource="hpc-1", min_warm=1, pilot_walltime_s=100.0),
                         world.trace)
        world.clock.run_until(300.0)
        assert [(ev.t, ev.kind, ev.fields["slot"], ev.fields.get("reason"))
                for ev in world.trace if ev.kind.startswith("pilot_")] == [
            (0.55, "pilot_submitted", 0, None), (15.0, "pilot_warm", 0, None),
            (115.0, "pilot_expired", 0, "Completed"), (115.0, "pilot_submitted", 1, None),
            (125.0, "pilot_warm", 1, None), (225.0, "pilot_expired", 1, "Completed"),
            (225.0, "pilot_submitted", 2, None), (235.0, "pilot_warm", 2, None)]
        assert [slot.state for slot in pool.slots] == [SlotState.WARM]


class TestConservation:
    def test_slot_states_partition_all_pilots(self):
        world = pool_world(min_warm=2, max_size=6, walltime=800.0,
                           queue={"distribution": "exponential", "params": {"mean": 300.0}})
        pool = world.pools["hpc-1"]
        checkpoints = [500.0, 1500.0, 3000.0, 6000.0]
        for t in checkpoints:
            world.clock.run_until(t)
            if pool.counts()[SlotState.WARM]:
                pool.claim(workload())
            assert sum(pool.counts().values()) == len(pool.slots) <= pool.policy.max_size
            # every submitted slot is live or retired exactly once, never both
            live = {slot.slot_id for slot in pool.slots}
            submitted = {ev.fields["slot"] for ev in events(world, "pilot_submitted")}
            retired = [ev.fields["slot"] for ev in events(world, "pilot_expired")]
            assert len(retired) == len(set(retired))
            assert live.isdisjoint(retired)
            assert live | set(retired) == submitted

    def test_long_run_holds_only_live_slots(self):
        world = pool_world(min_warm=2, max_size=4, walltime=300.0,
                           queue={"distribution": "exponential", "params": {"mean": 60.0}})
        pool = world.pools["hpc-1"]
        for step in range(1, 401):
            world.clock.run_until(step * 100.0)
            if step % 3 == 0:
                world.submit_workload(workload())
            assert len(pool.slots) <= pool.policy.max_size
        assert len(events(world, "pilot_expired")) >= 200


def random_pooled_world(seed):
    """A seeded random world with a pilot pool on ``hpc-1``, and the horizon
    to run it to.

    Most worlds add a second batch resource ``hpc-2`` on the same poll grid,
    some with a pool of their own. Workloads arrive from scenario actions
    and from a chain of arrivals scheduled mid-run, some on grid points and
    some off them. Transport and handshake failures are injected at random
    times, before the bootstrap replenish, and just before some workloads'
    releases, so that their cancel is lost.
    """
    rng = random.Random(f"pool-equivalence|{seed}")
    interval = rng.choice((5.0, 5.0, 5.0, 7.5, 2.5))
    horizon = rng.choice((800.0, 1500.0, 2500.0))

    def on_grid():
        return interval * rng.randint(1, int(horizon / interval))

    def queue():
        kind = rng.choice(("fixed", "fixed", "exponential", "uniform"))
        if kind == "fixed":
            return {"distribution": kind,
                    "params": {"value": rng.choice((0.0, 10.0, 15.0, 37.3, 600.0))}}
        if kind == "uniform":
            return {"distribution": kind, "params": {"low": 0.0, "high": rng.choice((20.0, 200.0))}}
        return {"distribution": kind, "params": {"mean": rng.choice((30.0, 120.0, 600.0))}}

    def policy(resource):
        # min_warm 0, max_size == min_warm and replenish_threshold 0 all occur
        min_warm = rng.choice((0, 1, 1, 2, 2, 3))
        out = {"resource": resource, "min_warm": min_warm,
               "max_size": min_warm + rng.choice((0, 0, 1, 2, 3)) or 1,
               "pilot_walltime_s": rng.choice((20.0, 50.0, 100.0, 317.3, 2000.0))}
        if min_warm and rng.random() < 0.5:
            out["replenish_threshold"] = rng.randint(0, min_warm)
        return out

    def resource(name, queue_name):
        return {"name": name, "kind": "hpc_cluster", "lrm": "batch", "node_count": 16,
                "allows_incoming_connections": False, "queue": queue_name,
                "dialect": rng.choice(("sim-pbs", "sim-slurm"))}

    resources, queues, pools = [resource("hpc-1", "q1")], {"q1": queue()}, [policy("hpc-1")]
    second = rng.random() < 0.75
    if second:
        resources.append(resource("hpc-2", "q2"))
        queues["q2"] = queue()
        if rng.random() < 0.3:
            pools.append(policy("hpc-2"))
    actions = []
    for i in range(rng.randint(0, 12)):
        actions.append({"op": "workload", "resource": "hpc-1", "tale_id": f"a{i}",
                        "t": on_grid() if rng.random() < 0.5 else rng.uniform(0.0, horizon),
                        "via_pool": rng.random() < 0.85,
                        "command": ["sleep", str(rng.choice((1, 4, 5, 30, 97.5, 400)))]})
    if second:
        for i in range(rng.randint(0, 8)):
            actions.append({"op": "submit_jobs", "resource": "hpc-2", "count": rng.randint(1, 3),
                            "t": on_grid() if rng.random() < 0.3 else rng.uniform(0.0, horizon),
                            "spacing": rng.choice((0.0, 1.3, 5.0)),
                            "command": ["sleep", str(rng.choice((3, 10, 45.5)))]})
        if rng.random() < 0.3:
            actions.append({"op": "cancel", "t": rng.uniform(0.0, horizon), "job_index": 0})
    world = World(load_config({
        "resources": resources, "queues": queues, "pools": pools,
        "scenario": {"poll_interval_s": interval, "actions": actions},
    }), seed)
    clock, transport = world.clock, world.transport
    if rng.random() < 0.2:
        transport.inject_failure("transport")  # fails the bootstrap replenish's first submit
    arrivals = rng.randint(0, 40)

    def arrive(i):
        if i == arrivals:
            return
        runtime = rng.choice((2.0, 5.0, 20.0, 60.0))
        if rng.random() < 0.15:
            transport.inject_failure(rng.choice(("transport", "handshake")))
        world.submit_workload(JobSpec(resource="hpc-2" if second and rng.random() < 0.3 else "hpc-1",
                                      command=("sleep", str(runtime)), tale_id=f"c{i}"),
                              via_pool=rng.random() < 0.9)
        if rng.random() < 0.25:  # the transport call of this workload's release
            clock.at(clock.now + 0.2 + runtime - 0.01, transport.inject_failure)
        at = clock.now + rng.choice((interval, 2 * interval, rng.uniform(0.1, 200.0),
                                     rng.uniform(0.1, 20.0)))
        if rng.random() < 0.4:
            at = interval * (at // interval + 1)
        clock.at(at, lambda: arrive(i + 1))

    clock.at(rng.uniform(0.0, 50.0), lambda: arrive(0))
    for _ in range(rng.randint(0, 10)):
        clock.at(rng.uniform(0.0, horizon),
                 lambda: transport.inject_failure(rng.choice(("transport", "handshake")),
                                                  count=rng.choice((1, 2, 2, 3))))
    world.start()
    return world, horizon


def pool_paths(world):
    """The pool paths one random world's trace went through."""
    seen = Counter()
    previous = None
    for ev in world.trace:
        if ev.kind == "pilot_submit_failed":
            seen["bootstrap submit failed" if ev.t == 0.0 else "replenish retried"] += 1
        elif ev.kind == "pilot_expired" and ev.fields["reason"] == "walltime":
            seen["walltime expiry"] += 1
        elif ev.kind == "pilot_expired" and ev.fields["reason"] == "released" and (
                previous.kind == "transport_failed" and previous.fields["verb"] == "cancel"):
            seen["lost release cancel"] += 1
        elif ev.kind == "pilot_submitted" and ev.fields["resource"] == "hpc-2":
            seen["second pool"] += 1
        elif ev.kind == "transport_call" and ev.fields["resource"] == "hpc-2":
            seen["second resource"] += 1
        previous = ev
    return seen


class TestEquivalence:
    def test_random_pooled_worlds_trace_bytes(self):
        # Pinned from the pool that ticked at every poll interval: waking
        # only on changes must leave every byte of every trace in place,
        # including where a pool tick falls among other events at a grid point.
        digest, seen = hashlib.sha256(), Counter()
        for seed in range(200):
            world, horizon = random_pooled_world(seed)
            world.clock.run_until(horizon)
            digest.update(world.trace.to_ndjson())
            seen.update(pool_paths(world))
        assert len(seen) == 6 and min(seen.values()) >= 5, seen
        assert digest.hexdigest() == (
            "36e3f5dbbeb49cc7722df5849fa51cb8c8c0a2c6e9daf057d5a90dfd363be9da")
