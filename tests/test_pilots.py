import pytest

from talescale.digest import short_digest
from talescale.errors import ValidationError
from talescale.middleware import JobSpec, JobState
from talescale.pilots import PoolPolicy, SlotState

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
        world = pool_world()
        world.clock.run_until(700.0)
        with pytest.raises(ValidationError, match="nodes"):
            world.pools["hpc-1"].claim(JobSpec(resource="hpc-1", command=("sleep", "1"),
                                               node_count=4))

    def test_slot_claimed_at_most_once(self):
        world = pool_world()
        world.clock.run_until(700.0)
        pool = world.pools["hpc-1"]
        slot = pool.claim(workload())
        claimed = [s for s in pool.slots if s.state == SlotState.CLAIMED]
        assert claimed == [slot]
        owner = slot.claimed_by
        world.clock.run_until(5000.0)
        # released after its single workload, never warm or re-claimed
        assert slot.state == SlotState.EXPIRED
        assert slot.claimed_by == owner

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
