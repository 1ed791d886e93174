"""Pilot-job pool: placeholder jobs that hide queue wait.

Pilots are ordinary batch jobs submitted through the middleware. Once one
is running it marks its slot warm and sits idle; claiming a warm slot
starts the real workload after only the dispatch overhead, no queue wait.
The pool keeps min_warm slots warm-or-pending, never exceeds max_size
non-expired slots, and retires warm slots whose walltime ran out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .cluster import runtime_of_command
from .errors import ValidationError
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
    submitted_at: float = 0.0
    warmed_at: float | None = None
    claimed_by: str | None = None
    claimed_at: float | None = None


class PilotPool:
    def __init__(self, clock, middleware: LrmMiddleware, policy: PoolPolicy,
                 trace, dispatch_overhead_s: float = 0.2,
                 latency_sink: list | None = None):
        if policy.resource not in middleware.resources:
            raise ValidationError(f"pool references unknown resource {policy.resource!r}")
        self.clock = clock
        self.middleware = middleware
        self.policy = policy
        self.trace = trace
        self.dispatch_overhead_s = dispatch_overhead_s
        self.latency_sink = latency_sink if latency_sink is not None else []
        self.slots: list[PilotSlot] = []
        self.pending_retries = 0
        middleware.register_credential(policy.credential)
        self.replenish()
        self._schedule_tick()

    # -- views ---------------------------------------------------------------

    def counts(self) -> dict[SlotState, int]:
        out = {state: 0 for state in SlotState}
        for slot in self.slots:
            out[slot.state] += 1
        return out

    @property
    def warm_count(self) -> int:
        return sum(1 for s in self.slots if s.state == SlotState.WARM)

    def nonexpired(self) -> int:
        return sum(1 for s in self.slots if s.state != SlotState.EXPIRED)

    # -- operations ------------------------------------------------------------

    def replenish(self) -> list[JobHandle]:
        """Top the pool up to min_warm warm-or-pending, capped at max_size."""
        submitted: list[JobHandle] = []
        while True:
            counts = self.counts()
            if counts[SlotState.WARM] + counts[SlotState.PENDING] >= self.policy.min_warm:
                break
            if self.nonexpired() >= self.policy.max_size:
                break
            spec = JobSpec(
                resource=self.policy.resource,
                command=("pilot-shim", str(self.policy.pilot_walltime_s)),
                credential=self.policy.credential,
                node_count=self.policy.pilot_nodes,
            )
            handle = self.middleware.submit(spec)
            slot = PilotSlot(
                slot_id=len(self.slots), handle=handle, submitted_at=self.clock.now,
            )
            self.slots.append(slot)
            if self.middleware.status(handle).state == JobState.FAILED:
                # Submission failed; retry on a later replenish tick.
                slot.state = SlotState.EXPIRED
                self.pending_retries += 1
                self.trace.emit("pilot_submit_failed", resource=self.policy.resource,
                                slot=slot.slot_id)
                break
            submitted.append(handle)
            self.trace.emit("pilot_submitted", resource=self.policy.resource,
                            slot=slot.slot_id, job_id=handle.job_id)
        return submitted

    def refresh(self) -> None:
        """Sync slot states with the middleware's view of the pilot jobs."""
        for slot in self.slots:
            if slot.state == SlotState.PENDING:
                state = self.middleware.status(slot.handle).state
                if state == JobState.RUNNING:
                    slot.state = SlotState.WARM
                    slot.warmed_at = self.clock.now
                    self.trace.emit("pilot_warm", resource=self.policy.resource,
                                    slot=slot.slot_id)
                elif state in TERMINAL_STATES:
                    slot.state = SlotState.EXPIRED
                    self.trace.emit("pilot_expired", resource=self.policy.resource,
                                    slot=slot.slot_id, reason=state.value)
            elif slot.state == SlotState.WARM:
                state = self.middleware.status(slot.handle).state
                if state in TERMINAL_STATES:
                    slot.state = SlotState.EXPIRED
                    self.trace.emit("pilot_expired", resource=self.policy.resource,
                                    slot=slot.slot_id, reason=state.value)

    def expire(self, now: float | None = None) -> list[PilotSlot]:
        """Retire warm slots older than the pilot walltime; claimed slots never
        expire through this path."""
        now = self.clock.now if now is None else now
        expired = []
        for slot in self.slots:
            if slot.state == SlotState.WARM and slot.warmed_at is not None:
                if now - slot.warmed_at > self.policy.pilot_walltime_s:
                    slot.state = SlotState.EXPIRED
                    expired.append(slot)
                    self.trace.emit("pilot_expired", resource=self.policy.resource,
                                    slot=slot.slot_id, reason="walltime")
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
        slot.claimed_at = self.clock.now
        start_at = self.clock.now + self.dispatch_overhead_s
        runtime, exit_code = runtime_of_command(
            workload.command,
            self.middleware.resources[self.policy.resource].queue_model.default_runtime_s,
        )
        latency = self.dispatch_overhead_s
        self.latency_sink.append(latency)
        slot_id = slot.slot_id
        self.clock.at(start_at, lambda: self.trace.emit(
            "workload_started", resource=self.policy.resource, via="pilot",
            slot=slot_id, latency=latency, tale_id=workload.tale_id))
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
        pilot job and frees max_size headroom for replenishment.
        """
        if slot.state != SlotState.CLAIMED:
            return
        slot.state = SlotState.EXPIRED
        self.middleware.cancel(slot.handle)
        self.trace.emit("pilot_expired", resource=self.policy.resource,
                        slot=slot.slot_id, reason="released")

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
