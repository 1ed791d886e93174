"""Asynchronous job-submission middleware over pluggable LRM dialects.

Design constraints, each of which is load-bearing for scale:

* submit returns as soon as the remote side acknowledges the request —
  never when the job starts — so client latency is independent of queue
  wait;
* status answers from the local state cache and never touches the
  backend;
* a single per-resource poller issues ONE aggregated status query per
  cycle covering every non-terminal job, however many there are, and only
  while there is something to poll (no per-job control flows);
* a cycle parses only the status units (one per job) not applied before,
  so its Python-level work is proportional to the jobs that changed; the
  part proportional to every active job (splitting the output, finding its
  new units) runs inside C-level ``str``, ``set`` and ``itertools``
  operations. The status payload and its digest are kept and extended by
  the jobs that arrived (``_ResourceState.status_payload``), and made
  afresh only after a job left or one arrived out of job-id order. An
  output equal to the last one applied is
  not parsed at all, and one read as it with units added, canceled jobs'
  units replaced and departed jobs' units cut (``dialects.read_edit``; the
  edits only past ``_EDIT_MIN_CHARS`` of applied output) is parsed from the
  added and replacing units alone (``_ResourceState.pending``);
* sessions are reused across operations per (resource, credential) pair.

A poller's tick is a grid event; its tag answers a run-ahead
(``World._run_ahead``) with the call a poll that would repeat makes again.

The dialect adapters live in a plain dict, ``dialects``, one per name in
``talescale.dialects.ADAPTERS``, keyed by the dialect name a resource
descriptor carries.

Client job states move only along the legal edges
Created -> Submitted -> Queued -> Running -> {Completed, Failed, Canceled},
plus Queued -> Canceled and Submitted -> Failed; a poll that observes a
later backend state replays the intermediate transitions in order.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field
from itertools import count, filterfalse
from typing import Callable

from .clock import grid_after
from .cluster import runtime_of_command
from .dialects import ADAPTERS, DialectAdapter, read_edit
from .digest import SHORT_LENGTH
from .errors import (
    SessionError,
    TransportError,
    UnknownDialectError,
    UnknownJobError,
    UnknownResourceError,
    ValidationError,
)
from .resources import ResourceDescriptor


class JobState(str, enum.Enum):
    CREATED = "Created"
    SUBMITTED = "Submitted"
    QUEUED = "Queued"
    RUNNING = "Running"
    COMPLETED = "Completed"
    FAILED = "Failed"
    CANCELED = "Canceled"


TERMINAL_STATES = frozenset({JobState.COMPLETED, JobState.FAILED, JobState.CANCELED})

LEGAL_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.CREATED: frozenset({JobState.SUBMITTED}),
    JobState.SUBMITTED: frozenset({JobState.QUEUED, JobState.FAILED}),
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELED}),
    JobState.RUNNING: frozenset({JobState.COMPLETED, JobState.FAILED, JobState.CANCELED}),
    JobState.COMPLETED: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELED: frozenset(),
}

_FORWARD = {JobState.CREATED: JobState.SUBMITTED, JobState.SUBMITTED: JobState.QUEUED,
            JobState.QUEUED: JobState.RUNNING}

_BACKEND_TO_CLIENT = {
    "queued": JobState.QUEUED,
    "running": JobState.RUNNING,
    "completed": JobState.COMPLETED,
    "failed": JobState.FAILED,
    "canceled": JobState.CANCELED,
}


@dataclass(frozen=True)
class JobSpec:
    resource: str
    command: tuple[str, ...]
    credential: str = "user"
    tale_id: str | None = None
    node_count: int = 1
    mpi: bool = False

    def __post_init__(self):
        object.__setattr__(self, "command", tuple(self.command))
        runtime_of_command(self.command, 0.0)  # rejects a malformed runtime or exit code
        if self.node_count < 1:
            raise ValidationError("node_count must be >= 1")


@dataclass(frozen=True)
class JobHandle:
    job_id: str
    resource: str


@dataclass(frozen=True)
class JobStatus:
    state: JobState
    exit_code: int | None
    transitions: tuple[tuple[JobState, float], ...]
    cause: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


@dataclass(frozen=True)
class CancelAck:
    job_id: str
    noop: bool


@dataclass
class _JobRecord:
    job_id: str
    spec: JobSpec
    state: JobState = JobState.CREATED
    exit_code: int | None = None
    cause: str | None = None
    native_id: str | None = None
    transitions: list[tuple[JobState, float]] = field(default_factory=list)


@dataclass(slots=True)
class _ResourceState:
    """One resource's polling state, over its non-terminal jobs. ``len()``
    counts the active jobs; perfbench sizes a poll cycle by it.

    Invariants: a job is in ``active`` (job id -> native id) and in its
    inverse ``job_ids`` once ``parse_submit`` has set its native id. ``kept``,
    the status units applied to active records, is a subset of
    ``kept_ids.values()``, and ``kept_ids.keys()`` of the active native ids.
    ``active`` is in job-id string order (the order of the status payload)
    unless ``unsorted`` is set. Since the last cycle that parsed an output,
    ``arrivals`` holds the native ids activated, and ``departed`` the ones
    that left ``active``, each with the unit it last applied. ``canceled``
    holds the active native ids a cancel was sent for.
    """
    active: dict[str, str] = field(default_factory=dict)
    job_ids: dict[str, str] = field(default_factory=dict)
    credentials: dict[str, int] = field(default_factory=dict)  # credential -> its active jobs
    unsorted: bool = False
    arrivals: list[str] = field(default_factory=list)
    departed: dict[str, str] = field(default_factory=dict)  # native id -> its last unit
    canceled: set[str] = field(default_factory=set)
    kept: set[str] = field(default_factory=set)
    kept_ids: dict[str, str] = field(default_factory=dict)  # native id -> its kept unit
    latest: list | None = None  # the pending list of the latest cycle that parsed
    applied_output: str | None = None  # the output last fully applied
    # The next poll repeats the applied output while nothing writes: the last
    # cycle applied all of its output, and no job arrived, left or was
    # canceled during it or since.
    repeated: bool = False
    poller: object = None  # the scheduled poll tick's EventHandle
    # The status payload, kept: ``listing`` is its text up to the end of the
    # id list, ``hasher`` a sha256 fed with that text, ``unlisted`` the
    # native ids activated since, and ``payload`` the payload with its short
    # digest while no job arrived. ``listing`` is None while the payload must
    # be made afresh: at first, after a departure, and after an arrival out
    # of job-id order.
    listing: str | None = None
    hasher: object = None
    unlisted: list[str] = field(default_factory=list)
    payload: tuple[str, str] | None = None

    def __len__(self) -> int:
        return len(self.active)

    def activate(self, record: _JobRecord) -> None:
        active = self.active
        # Ids are j%06d, so each new id sorts last up to j999999; past it
        # string order and submit order part, and the next cycle re-sorts.
        if active and record.job_id < next(reversed(active)):
            self.unsorted = True
            self.listing = None
        active[record.job_id] = record.native_id
        self.job_ids[record.native_id] = record.job_id
        self.arrivals.append(record.native_id)
        if self.listing is not None:
            self.unlisted.append(record.native_id)
        self.payload = None
        self.repeated = False
        credentials = self.credentials
        credentials[record.spec.credential] = credentials.get(record.spec.credential, 0) + 1

    def deactivate(self, record: _JobRecord) -> None:
        if self.active.pop(record.job_id, None) is None:
            return  # never active: its submit failed
        del self.job_ids[record.native_id]
        self.kept.discard(self.kept_ids.pop(record.native_id, None))
        self.canceled.discard(record.native_id)
        self.listing = self.payload = None
        self.repeated = False
        left = self.credentials.pop(record.spec.credential) - 1
        if left:
            self.credentials[record.spec.credential] = left

    def status_payload(self, adapter: DialectAdapter) -> tuple[str, str]:
        """The status command naming the active jobs in job-id order, and its
        ``short_digest``. The kept one is extended by the jobs activated
        since, and its digest by feeding the kept hasher their ids and a copy
        of it the tail; it is made afresh only when ``listing`` is None."""
        if self.payload is not None:
            return self.payload
        tail = adapter.status_tail
        if self.listing is None:
            if self.unsorted:
                self.unsorted = False
                self.active = dict(sorted(self.active.items()))
            payload = adapter.format_status(list(self.active.values()))
            self.listing = payload[:len(payload) - len(tail)]
            self.hasher = hashlib.sha256(self.listing.encode())
            self.unlisted = []
        elif self.unlisted:
            more = adapter.id_sep + adapter.id_sep.join(self.unlisted)
            self.listing += more
            self.hasher.update(more.encode())
            self.unlisted = []
        hasher = self.hasher
        if tail:
            hasher = hasher.copy()
            hasher.update(tail.encode())
        self.payload = (self.listing + tail, hasher.hexdigest()[:SHORT_LENGTH])
        return self.payload

    def pending(self, adapter: DialectAdapter, output: str, applied: str | None) -> list:
        """Sorted ``(job id, native id, (state, exit code), unit)`` for the fresh
        units of ``output`` naming active jobs; forgets the kept units it outdates.

        ``applied`` is the output last fully applied, or None. When
        ``read_edit`` reads ``output`` as ``applied`` edited, only the
        replacing and added units are parsed: the rest is applied already,
        unless it names a job activated since. A full parse applies such a
        unit, so one is made when a job activated since has no unit with a
        state in the parsed text and its native id occurs in ``applied``. One
        is made too when a replacing unit neither stays its job's kept unit
        nor changes that job, where an untouched unit naming the job would
        apply. Without edits or arrivals the poll names no job the last one
        did not, and a full parse is made.
        """
        kept, kept_ids, job_ids = self.kept, self.kept_ids, self.job_ids
        text, arrivals, departed = output, self.arrivals, self.departed
        if arrivals:
            self.arrivals = []
        if departed:
            self.departed = {}
        edits = replaced = ()
        if applied is not None and len(applied) >= _EDIT_MIN_CHARS and (departed or self.canceled):
            edits = [(unit, native_id) for native_id in self.canceled
                     if (unit := kept_ids.get(native_id)) is not None]
            edits += [(unit, None) for unit in departed.values()]
        if applied is not None and (edits or arrivals):
            found = read_edit(adapter.unit_start, output, applied, edits)
            if found is not None:  # parse the replacing units, then the added ones
                replaced, added = found
                text = ("".join([adapter.unit_start + unit for unit, _ in replaced]) + added)[1:]
        while True:  # the edits and extension, then all of output if they cannot stand alone
            units = adapter.parse_status(text)
            fresh = [*filterfalse(kept.__contains__, units)]
            # native id -> (state and exit code, unit), the last fresh unit winning
            changed = {parsed[0]: (parsed[1], unit)
                       for unit in fresh if (parsed := adapter.parse_unit(unit))}
            if text is output or (
                    (not replaced or _in_place(replaced, units, changed, kept_ids))
                    and not any(native_id not in changed and native_id in job_ids
                                and native_id in applied for native_id in arrivals)):
                break
            text = output
        # A known job changed: forget its kept unit, unless that comes later and
        # wins. A few such jobs each scan the units for it; past that, one map
        # of last positions costs less than their scans.
        outdated = changed.keys() & kept_ids.keys()
        last = dict(zip(units, count())) if len(outdated) > _SCANS_PER_MAP else None
        for native_id in outdated:
            old, unit = kept_ids[native_id], changed[native_id][1]
            if last is None:
                later = old in units and units[::-1].index(old) < units[::-1].index(unit)
            else:
                later = last.get(old, -1) > last[unit]
            if later:
                del changed[native_id]
            else:
                kept.discard(kept_ids.pop(native_id))
        # A kept unit left the whole output, or repeats. An edit leaves the
        # untouched ones, and a replaced one goes with its job's next change.
        if text is output and len(units) - len(fresh) != len(kept):
            kept.intersection_update(units)
        return sorted((job_ids[native_id], native_id, state_code, unit)
                      for native_id, (state_code, unit) in changed.items()
                      if native_id in job_ids)  # else no longer active


def _in_place(replaced: list, units: list, changed: dict, kept_ids: dict) -> bool:
    """Whether the replacing units are the first of ``units``, one each, and
    each is still the kept unit of the job whose unit it replaced, or the
    one ``changed`` took for that job."""
    first = [unit for unit, _ in replaced]
    return (len({*first}) == len(first) and units[:len(first)] == first
            and all(unit == kept_ids[native_id] or changed.get(native_id, (0, None))[1] == unit
                    for unit, native_id in replaced))


# Below this many characters of applied output, a full parse of the next one
# costs less than reading it as an edit (2-CPU VM, the two parses after a
# cancel: 32 against 35 us at 96 PBS jobs, 3,398 characters; 39 against 35 us
# at 128, 4,534 characters).
_EDIT_MIN_CHARS = 4000

# A map of last positions costs about as much as this many scans of the
# units (2,100 units on a 2-CPU VM: 165 us, against 21 us a scan). A map on
# every cycle where a known job changes cost job_storm 4% of its ops per second.
_SCANS_PER_MAP = 8


class LrmMiddleware:
    def __init__(self, clock, transport, trace, poll_interval_s: float = 5.0):
        if poll_interval_s <= 0:
            raise ValidationError("poll interval must be > 0")
        self.clock = clock
        self.transport = transport
        self.trace = trace
        self.dialects: dict[str, DialectAdapter] = {
            name: adapter() for name, adapter in ADAPTERS.items()}
        self.poll_interval_s = poll_interval_s
        self._transition_listeners: list[Callable] = []
        self.resources: dict[str, ResourceDescriptor] = {}
        self._records: dict[str, _JobRecord] = {}
        self._active: dict[str, _ResourceState] = {}
        self._counter = 0

    # -- registry -----------------------------------------------------------

    def register_resource(self, resource: ResourceDescriptor) -> None:
        self.resources[resource.name] = resource
        self._active.setdefault(resource.name, _ResourceState())

    def _adapter(self, resource: ResourceDescriptor) -> DialectAdapter:
        adapter = self.dialects.get(resource.dialect)
        if adapter is None:
            raise UnknownDialectError(f"no dialect adapter registered for {resource.dialect!r}")
        return adapter

    @property
    def active_pollers(self) -> int:
        return sum(state.poller is not None for state in self._active.values())

    @property
    def poll_failures(self) -> int:
        """Failed poll cycles so far, as counted by the trace."""
        return self.trace.count("poll_failed")

    # -- lifecycle ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobHandle:
        """Submit a job; returns after one acknowledged transport round trip."""
        resource = self.resources.get(spec.resource)
        if resource is None:
            raise UnknownResourceError(f"unknown resource {spec.resource!r}")
        if resource.lrm != "batch":
            raise ValidationError(f"resource {spec.resource!r} has no batch LRM")
        if spec.mpi and not resource.mpi_capable:
            raise ValidationError(f"resource {spec.resource!r} is not MPI capable")
        if spec.node_count > resource.node_count:
            raise ValidationError(
                f"job wants {spec.node_count} nodes, {spec.resource!r} has {resource.node_count}"
            )
        adapter = self._adapter(resource)

        self._counter += 1
        job_id = f"j{self._counter:06d}"
        record = _JobRecord(job_id=job_id, spec=spec)
        record.transitions.append((JobState.CREATED, self.clock.now))
        self._records[job_id] = record

        command = adapter.format_submit(list(spec.command), spec.node_count, job_id)
        try:
            output = self.transport.call(spec.resource, spec.credential, "submit", command)
        except (TransportError, SessionError) as exc:
            self._apply(record, JobState.SUBMITTED)
            self._apply(record, JobState.FAILED, cause=str(exc))
        else:
            record.native_id = adapter.parse_submit(output)
            self._apply(record, JobState.SUBMITTED)
            self._active[spec.resource].activate(record)
            self._ensure_poller(spec.resource)
        handle = JobHandle(job_id=job_id, resource=spec.resource)
        self.trace.emit("job_submitted", job_id=job_id, resource=spec.resource,
                        credential=spec.credential, tale_id=spec.tale_id)
        return handle

    def status(self, handle: JobHandle | str) -> JobStatus:
        """Answered purely from the local cache; never queries the backend."""
        record = self._record(handle)
        return JobStatus(
            state=record.state, exit_code=record.exit_code,
            transitions=tuple(record.transitions), cause=record.cause,
        )

    def add_transition_listener(self, listener: Callable) -> None:
        """Call ``listener(spec, job_id, previous, state, t)`` on every job
        transition; listeners run in the order they were added."""
        self._transition_listeners.append(listener)

    def cancel(self, handle: JobHandle | str) -> CancelAck:
        """Idempotent: terminal jobs acknowledge without a transport call."""
        record = self._record(handle)
        if record.state in TERMINAL_STATES:
            return CancelAck(job_id=record.job_id, noop=True)
        resource = self.resources[record.spec.resource]
        adapter = self._adapter(resource)
        self.transport.call(
            record.spec.resource, record.spec.credential, "cancel",
            adapter.format_cancel(record.native_id),
        )
        state = self._active[record.spec.resource]
        state.canceled.add(record.native_id)
        state.repeated = False
        # State flips to Canceled at the next poll confirmation.
        return CancelAck(job_id=record.job_id, noop=False)

    # -- polling ------------------------------------------------------------

    def poll_cycle(self, resource_name: str) -> list[tuple[str, JobState, JobState]]:
        """One aggregated backend query covering all non-terminal jobs.

        Transport failure leaves every job untouched; the next cycle
        retries (at-least-once status semantics).

        Invariant: after a successful cycle, every active record whose job
        the backend reported has the mapped state of its latest observation.
        So a unit kept from an earlier cycle needs no work: a cycle parses
        the output's other units in output order (the first malformed one
        raises before anything is applied) and applies them in job-id
        order. Of two units naming one job, the later with a state wins.

        The output a cycle parsed is kept once the cycle has applied all of
        it and is still the resource's latest. An equal output is then
        answered with ``[]`` unparsed: its difference could only name jobs
        that are no longer active. One that extends it at a unit boundary
        after jobs were added is parsed from the extension
        (``_ResourceState.pending``). A cycle drops the kept output before
        it applies anything, and a unit joins the kept ones only once its
        record is visited, so a cycle nested in its callbacks never skips
        against a half-applied one. Once a nested cycle has parsed a newer
        output, the outer one applies nothing more of its own, older one.
        """
        state = self._active.get(resource_name)
        if state is None or not state.active:
            return []
        adapter = self._adapter(self.resources[resource_name])
        command, digest = state.status_payload(adapter)
        state.repeated = False
        try:
            output = self.transport.call(resource_name, min(state.credentials),
                                         "batch_status", command, digest)
        except (TransportError, SessionError) as exc:
            self.trace.emit("poll_failed", resource=resource_name, reason=str(exc))
            return []
        applied_output = state.applied_output
        if output == applied_output:
            state.repeated = True
            return []
        state.applied_output = None
        pending = state.latest = state.pending(adapter, output, applied_output)
        state.repeated = True  # until a job arrives, leaves or is canceled
        applied: list[tuple[str, JobState, JobState]] = []
        for job_id, native_id, state_code, unit in pending:
            record = self._records[job_id]
            target = _BACKEND_TO_CLIENT[state_code[0]]
            before = record.state
            if target is not before:
                self._advance_to(record, target, exit_code=state_code[1])
                applied.append((job_id, before, record.state))
            if state.latest is not pending:
                break  # a nested cycle parsed a newer output; ours is stale
            if native_id in state.job_ids:
                state.kept.add(unit)
                state.kept_ids[native_id] = unit
            else:  # it ended: the next output may cut its unit
                state.departed[native_id] = unit
        if state.latest is pending:
            state.applied_output = output
        else:
            state.repeated = False
        return applied

    def _ensure_poller(self, resource_name: str) -> None:
        state = self._active[resource_name]
        if state.poller is None and state.active:
            # Grid-aligned ticks: cycle boundaries land on the interval grid
            # regardless of when the first job arrived.
            state.poller = self.clock.at(
                grid_after(self.clock.now, self.poll_interval_s),
                lambda: self._poll_tick(resource_name),
                grid=lambda: self._quiet_poll(resource_name),
            )

    def _poll_tick(self, resource_name: str) -> None:
        self._active[resource_name].poller = None
        self.poll_cycle(resource_name)
        self._ensure_poller(resource_name)

    def _quiet_poll(self, resource_name: str):
        """The poller's answer to a run-ahead: None unless its next poll
        repeats the applied output (``_ResourceState.repeated``); else no
        deadline of its own, and the one call each next poll makes again
        while nothing writes to the backend."""
        state = self._active[resource_name]
        if not state.repeated:
            return None
        return math.inf, ((resource_name, min(state.credentials), "batch_status"),)

    # -- state machine ---------------------------------------------------------

    def _record(self, handle: JobHandle | str) -> _JobRecord:
        job_id = handle.job_id if isinstance(handle, JobHandle) else handle
        record = self._records.get(job_id)
        if record is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return record

    def _advance_to(self, record: _JobRecord, target: JobState,
                    exit_code: int | None = None) -> None:
        while (current := record.state) != target:
            step = target if target in LEGAL_TRANSITIONS[current] else _FORWARD.get(current)
            if step is None:
                raise ValidationError(f"no legal path from {current} to {target}")
            self._apply(record, step, exit_code=exit_code if step == target else None)

    def _apply(self, record: _JobRecord, state: JobState,
               exit_code: int | None = None, cause: str | None = None) -> None:
        if state not in LEGAL_TRANSITIONS[record.state]:
            raise ValidationError(f"illegal transition {record.state} -> {state}")
        previous = record.state
        record.state = state
        if exit_code is not None:
            record.exit_code = exit_code
        if cause is not None:
            record.cause = cause
        record.transitions.append((state, self.clock.now))
        if state in TERMINAL_STATES:
            self._active[record.spec.resource].deactivate(record)
        self.trace.emit("job_transition", job_id=record.job_id,
                        resource=record.spec.resource,
                        from_state=previous.value, to_state=state.value,
                        exit_code=record.exit_code if state in TERMINAL_STATES else None)
        for listener in self._transition_listeners:
            listener(record.spec, record.job_id, previous, state, self.clock.now)
