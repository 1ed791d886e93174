"""Pilot-job pool: placeholder jobs that hide queue wait.

Pilots are ordinary batch jobs submitted through the middleware. Once one
is running it marks its slot warm and sits idle; claiming a warm slot
starts the real workload after only the dispatch overhead, no queue wait.
The pool keeps min_warm slots warm-or-pending, never exceeds max_size
live slots, and retires warm slots whose walltime ran out.

``PilotPool.slots`` holds the live slots only (pending, warm or claimed),
oldest first. A retired slot leaves the list.

The pool's tick event sits on the middleware's poll grid, but a tick
works only when it has something to do. The pool listens to the
middleware's job transitions and wakes the next tick when one of its
pilots started or ended, and when a claim, a release or a failed
replenish submit leaves it short of min_warm with room to submit; ticks
past the oldest warm slot's walltime deadline work too. A working tick
visits only the slots whose pilots changed, so its cost depends on
neither the pool's history nor the time since the last one; an idle tick
only schedules the next. The tick event is scheduled just as when every
tick worked, so it keeps its place among equal-time events and traces
are the same.

The tick is a grid event; its tag answers a run-ahead (``World._run_ahead``)
with the walltime deadline before which an idle tick stays idle.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .clock import grid_after
from .cluster import runtime_of_command
from .errors import SessionError, TransportError, ValidationError, check_keys, check_number
from .middleware import JobHandle, JobSpec, JobState, LrmMiddleware, TERMINAL_STATES


class SlotState(str, enum.Enum):
    PENDING = "pending"
    WARM = "warm"
    CLAIMED = "claimed"
    EXPIRED = "expired"


@dataclass(frozen=True)
class PoolPolicy:
    resource: str
    min_warm: int = 1
    max_size: int = 4
    pilot_walltime_s: float = 3600.0
    replenish_threshold: int | None = None
    pilot_nodes: int = 1
    credential: str = "pilot-svc"

    def __post_init__(self):
        section = f"pool on {self.resource!r}"
        check_number(section, "min_warm", self.min_warm, integer=True)
        if check_number(section, "max_size", self.max_size, integer=True) < self.min_warm:
            raise ValidationError("max_size must be >= min_warm")
        check_number(section, "pilot_walltime_s", self.pilot_walltime_s, above=True, infinite=True)
        check_number(section, "pilot_nodes", self.pilot_nodes, 1, integer=True)
        if not isinstance(self.credential, str):
            raise ValidationError(f"{section} credential must be a string, got {self.credential!r}")
        threshold = self.min_warm if self.replenish_threshold is None else self.replenish_threshold
        if check_number(section, "replenish_threshold", threshold, integer=True) > self.min_warm:
            raise ValidationError("replenish_threshold must be <= min_warm")
        object.__setattr__(self, "replenish_threshold", threshold)

    @classmethod
    def from_dict(cls, raw: dict) -> "PoolPolicy":
        check_keys("pool", raw, cls.__dataclass_fields__, ("resource",), ("resource",))
        return cls(**raw)


@dataclass
class PilotSlot:
    slot_id: int
    handle: JobHandle
    state: SlotState = SlotState.PENDING
    warmed_at: float | None = None


class PilotPool:
    def __init__(self, clock, middleware: LrmMiddleware, policy: PoolPolicy,
                 trace, dispatch_overhead_s: float = 0.2):
        if policy.resource not in middleware.resources:
            raise ValidationError(f"pool references unknown resource {policy.resource!r}")
        self.clock = clock
        self.middleware = middleware
        self.policy = policy
        self.trace = trace
        self.dispatch_overhead_s = dispatch_overhead_s
        self.slots: list[PilotSlot] = []
        self._by_job: dict[str, PilotSlot] = {}  # live slots by pilot job id
        # slot id -> live slot whose pilot started or ended since refresh
        self._touched: dict[int, PilotSlot] = {}
        self._woken = False  # the next grid tick has work, the deadline aside
        self._expires_at = math.inf  # no warm slot is past its walltime before this
        self._slot_ids = itertools.count()
        middleware.transport.register_credential(policy.credential)
        middleware.add_transition_listener(self._job_changed)
        self.replenish()
        self._schedule_tick()
        self._rearm()

    def counts(self) -> dict[SlotState, int]:
        """Live slots per live state."""
        out = dict.fromkeys((SlotState.PENDING, SlotState.WARM, SlotState.CLAIMED), 0)
        for slot in self.slots:
            out[slot.state] += 1
        return out

    def _short(self) -> bool:
        """Below min_warm warm-or-pending, with room under max_size to submit."""
        counts = self.counts()
        return (counts[SlotState.WARM] + counts[SlotState.PENDING] < self.policy.min_warm
                and len(self.slots) < self.policy.max_size)

    # -- operations ------------------------------------------------------------

    def replenish(self) -> list[JobHandle]:
        """Top the pool up to min_warm warm-or-pending, capped at max_size."""
        submitted: list[JobHandle] = []
        while self._short():
            spec = JobSpec(
                resource=self.policy.resource,
                command=("pilot-shim", str(self.policy.pilot_walltime_s)),
                credential=self.policy.credential,
                node_count=self.policy.pilot_nodes,
            )
            handle = self.middleware.submit(spec)
            slot_id = next(self._slot_ids)
            if self.middleware.status(handle).state == JobState.FAILED:
                # Submission failed; retry on a later replenish tick.
                self.trace.emit("pilot_submit_failed", resource=self.policy.resource,
                                slot=slot_id)
                break
            slot = PilotSlot(slot_id=slot_id, handle=handle)
            self.slots.append(slot)
            self._by_job[handle.job_id] = slot
            submitted.append(handle)
            self.trace.emit("pilot_submitted", resource=self.policy.resource,
                            slot=slot_id, job_id=handle.job_id)
        return submitted

    def _job_changed(self, spec: JobSpec, job_id: str, previous: JobState,
                     state: JobState, t: float) -> None:
        """Note a pilot that started or ended, for the next tick's refresh."""
        slot = self._by_job.get(job_id)
        if slot is None or slot.state == SlotState.CLAIMED:
            return  # a claimed slot leaves through its release alone
        if state == JobState.RUNNING or state in TERMINAL_STATES:
            self._touched[slot.slot_id] = slot
            self._woken = True

    def refresh(self) -> None:
        """Sync slot states with the middleware's view of the pilot jobs
        that started or ended since the last refresh."""
        touched, self._touched = self._touched, {}
        for _, slot in sorted(touched.items()):
            state = self.middleware.status(slot.handle).state
            if state in TERMINAL_STATES:
                self._retire(slot, state.value)
            elif state == JobState.RUNNING and slot.state == SlotState.PENDING:
                slot.state = SlotState.WARM
                slot.warmed_at = self.clock.now
                self.trace.emit("pilot_warm", resource=self.policy.resource,
                                slot=slot.slot_id)

    def expire(self) -> list[PilotSlot]:
        """Retire warm slots older than the pilot walltime, once the oldest
        one's deadline has come; claimed slots never expire through this path."""
        if self.clock.now < self._expires_at:
            return []
        expired = [
            slot for slot in self.slots
            if slot.state == SlotState.WARM
            and self.clock.now - slot.warmed_at > self.policy.pilot_walltime_s
        ]
        for slot in expired:
            self._retire(slot, "walltime")
        if expired:  # a submit that fails here is retried by the tick's own replenish
            self.replenish()
        return expired

    def claim(self, workload: JobSpec) -> PilotSlot | None:
        """Hand the oldest warm slot to a workload, or None when cold.

        A workload needing more nodes than a pilot holds is cold, and the
        pool is left as it was. A slot is claimed by at most one workload,
        ever; the workload starts after the dispatch overhead with no queue
        wait.
        """
        if workload.resource != self.policy.resource:
            raise ValidationError(
                f"workload targets {workload.resource!r}, pool holds {self.policy.resource!r}"
            )
        if workload.node_count > self.policy.pilot_nodes:
            return None
        self.refresh()
        warm = [s for s in self.slots if s.state == SlotState.WARM]
        if not warm:
            return None
        slot = min(warm, key=lambda s: s.warmed_at)
        slot.state = SlotState.CLAIMED
        start_at = self.clock.now + self.dispatch_overhead_s
        runtime, exit_code = runtime_of_command(
            workload.command,
            self.middleware.resources[self.policy.resource].queue_model.default_runtime_s,
        )
        slot_id = slot.slot_id
        self.clock.at(start_at, lambda: self.trace.emit(
            "workload_started", resource=self.policy.resource, via="pilot",
            slot=slot_id, latency=self.dispatch_overhead_s, tale_id=workload.tale_id))
        def finish():
            self.trace.emit("workload_finished", resource=self.policy.resource,
                            via="pilot", slot=slot_id, exit_code=exit_code,
                            tale_id=workload.tale_id)
            self._release(slot)
        self.clock.at(start_at + runtime, finish)
        counts = self.counts()
        if counts[SlotState.WARM] + counts[SlotState.PENDING] <= self.policy.replenish_threshold:
            self.replenish()
        self._rearm()
        return slot

    def _release(self, slot: PilotSlot) -> None:
        """Retire a claimed slot once its workload is done.

        A slot serves exactly one workload; releasing cancels the backing
        pilot job and frees max_size headroom for replenishment. A cancel
        lost in transit still retires the slot: the orphaned pilot runs
        out its walltime on the backend.
        """
        try:
            self.middleware.cancel(slot.handle)
        except (TransportError, SessionError):
            pass
        self._retire(slot, "released")
        self._rearm()

    def _retire(self, slot: PilotSlot, reason: str) -> None:
        """The one way a slot leaves the pool."""
        slot.state = SlotState.EXPIRED
        self.slots.remove(slot)
        del self._by_job[slot.handle.job_id]
        self._touched.pop(slot.slot_id, None)
        self.trace.emit("pilot_expired", resource=self.policy.resource,
                        slot=slot.slot_id, reason=reason)

    # -- ticking -----------------------------------------------------------

    def _rearm(self) -> None:
        """Wake the next grid tick when replenish has work (a submit failed,
        or a claim or release left the pool short), and move the walltime
        deadline to the oldest warm slot's."""
        if self._short():
            self._woken = True
        warm = [slot.warmed_at for slot in self.slots if slot.state == SlotState.WARM]
        self._expires_at = min(warm) + self.policy.pilot_walltime_s if warm else math.inf

    def _schedule_tick(self) -> None:
        # Same grid as the middleware poller, same clock.
        self.clock.at(grid_after(self.clock.now, self.middleware.poll_interval_s),
                      self._on_grid, grid=self._quiet)

    def _on_grid(self) -> None:
        if self._woken or self.clock.now >= self._expires_at:
            self._tick()
        self._schedule_tick()

    def _quiet(self):
        """The pool's answer to a run-ahead: None when woken; else its
        walltime deadline, before which its ticks stay idle, and no calls to
        make again. Only a tick clears ``_woken``, so an unwoken pool's next
        tick is idle whether its last one worked or not."""
        if self._woken:
            return None
        return self._expires_at, ()

    def _tick(self) -> None:
        self._woken = False
        self.refresh()
        self.expire()
        self.replenish()
        self._rearm()
