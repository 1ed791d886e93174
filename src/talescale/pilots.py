"""Pilot-job pool: placeholder jobs that hide queue wait.

Pilots are ordinary batch jobs submitted through the middleware. Once one
is running it marks its slot warm and sits idle; claiming a warm slot
starts the real workload after only the dispatch overhead, no queue wait.
The pool keeps min_warm slots warm-or-pending, never exceeds max_size
live slots, and retires warm slots whose walltime ran out.

``PilotPool.slots`` holds the live slots only (pending, warm or claimed),
oldest first. A retired slot leaves the list, so a pool tick costs the
same however many slots the pool has had before.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .cluster import runtime_of_command
from .errors import SessionError, TransportError, ValidationError
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
        if self.min_warm < 0:
            raise ValidationError("min_warm must be >= 0")
        if self.max_size < self.min_warm:
            raise ValidationError("max_size must be >= min_warm")
        if self.pilot_walltime_s <= 0:
            raise ValidationError("pilot walltime must be > 0")
        threshold = self.min_warm if self.replenish_threshold is None else self.replenish_threshold
        if threshold > self.min_warm:
            raise ValidationError("replenish_threshold must be <= min_warm")
        object.__setattr__(self, "replenish_threshold", threshold)

    @classmethod
    def from_dict(cls, raw: dict) -> "PoolPolicy":
        return cls(**raw)


@dataclass
class PilotSlot:
    slot_id: int
    handle: JobHandle
    state: SlotState = SlotState.PENDING
    warmed_at: float | None = None
    claimed_by: str | None = None


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
        self._slot_ids = itertools.count()
        middleware.register_credential(policy.credential)
        self.replenish()
        self._schedule_tick()

    def counts(self) -> dict[SlotState, int]:
        """Live slots per live state."""
        out = dict.fromkeys((SlotState.PENDING, SlotState.WARM, SlotState.CLAIMED), 0)
        for slot in self.slots:
            out[slot.state] += 1
        return out

    # -- operations ------------------------------------------------------------

    def replenish(self) -> list[JobHandle]:
        """Top the pool up to min_warm warm-or-pending, capped at max_size."""
        submitted: list[JobHandle] = []
        while True:
            counts = self.counts()
            if counts[SlotState.WARM] + counts[SlotState.PENDING] >= self.policy.min_warm:
                break
            if len(self.slots) >= self.policy.max_size:
                break
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
            self.slots.append(PilotSlot(slot_id=slot_id, handle=handle))
            submitted.append(handle)
            self.trace.emit("pilot_submitted", resource=self.policy.resource,
                            slot=slot_id, job_id=handle.job_id)
        return submitted

    def refresh(self) -> None:
        """Sync slot states with the middleware's view of the pilot jobs."""
        for slot in list(self.slots):
            if slot.state == SlotState.CLAIMED:
                continue
            state = self.middleware.status(slot.handle).state
            if state in TERMINAL_STATES:
                self._retire(slot, state.value)
            elif state == JobState.RUNNING and slot.state == SlotState.PENDING:
                slot.state = SlotState.WARM
                slot.warmed_at = self.clock.now
                self.trace.emit("pilot_warm", resource=self.policy.resource,
                                slot=slot.slot_id)

    def expire(self) -> list[PilotSlot]:
        """Retire warm slots older than the pilot walltime; claimed slots never
        expire through this path."""
        expired = [
            slot for slot in self.slots
            if slot.state == SlotState.WARM
            and self.clock.now - slot.warmed_at > self.policy.pilot_walltime_s
        ]
        for slot in expired:
            self._retire(slot, "walltime")
        if expired:
            self.replenish()
        return expired

    def claim(self, workload: JobSpec) -> PilotSlot | None:
        """Hand the oldest warm slot to a workload, or None when cold.

        A slot is claimed by at most one workload, ever; the workload
        starts after the dispatch overhead with no queue wait.
        """
        if workload.resource != self.policy.resource:
            raise ValidationError(
                f"workload targets {workload.resource!r}, pool holds {self.policy.resource!r}"
            )
        if workload.node_count > self.policy.pilot_nodes:
            raise ValidationError(
                f"workload needs {workload.node_count} nodes; a pilot holds {self.policy.pilot_nodes}"
            )
        self.refresh()
        warm = [s for s in self.slots if s.state == SlotState.WARM]
        if not warm:
            return None
        slot = min(warm, key=lambda s: s.warmed_at)
        slot.state = SlotState.CLAIMED
        slot.claimed_by = workload.tale_id or f"workload@{self.clock.now}"
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

    def _retire(self, slot: PilotSlot, reason: str) -> None:
        """The one way a slot leaves the pool."""
        slot.state = SlotState.EXPIRED
        self.slots.remove(slot)
        self.trace.emit("pilot_expired", resource=self.policy.resource,
                        slot=slot.slot_id, reason=reason)

    # -- ticking -----------------------------------------------------------

    def _schedule_tick(self) -> None:
        # Same cadence as the middleware poller, same clock.
        interval = self.middleware.poll_interval_s
        next_tick = math.floor(self.clock.now / interval) * interval + interval
        self.clock.at(next_tick, self._tick)

    def _tick(self) -> None:
        self.refresh()
        self.expire()
        self.replenish()
        self._schedule_tick()
