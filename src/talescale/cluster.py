"""Simulated batch cluster: the far side of the transport.

Each batch resource gets one SimulatedLrm, a queue of native jobs driven
by the shared clock. The shell entry point accepts the same command
strings a real cluster of the resource's dialect would (qsub/qstat/qdel on
a PBS one, sbatch/sacct/scancel on a Slurm one), so the dialect adapters
are exercised end to end: what they format is what gets parsed here, and
what this emits is what they parse back.

Job runtimes come from a tiny command convention::

    sleep N        run N simulated seconds, exit 0
    fail N [code]  run N simulated seconds, exit code (default 1)
    pilot-shim N   placeholder pilot: run for its walltime N
    frontend ...   interactive frontend: runs until the horizon

Anything else runs for the queue model's default runtime.

Each native job carries the line its LRM's status tool reports for it,
re-rendered at each write of its state, so a status query joins stored
lines at C level instead of formatting every held job again. The LRM keeps
its last status answer, and answers a query whose id list ``read_edit``
reads as the kept one's with ids appended and ended ids cut by editing that
answer with ``splice``: written jobs' lines replaced, ended ones cut,
appended ones added. So a poll costs the jobs that were added, written or
left out, not one lookup per held job.

Command lines are split with ``dialects.shell_words`` (``shlex.split``
semantics). A submit is read by its dialect's ``read_submit``, the reader
of the text its ``format_submit`` writes; a command line that cannot be
read raises ``TransportError``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import filterfalse
from operator import attrgetter, methodcaller

from .dialects import (ADAPTERS, PBS_KILL_EXIT, SimPbsAdapter, SimSlurmAdapter, read_edit,
                       shell_words, splice)
from .errors import TransportError, ValidationError
from .queues import QueueModel, adjust_for_maintenance
from .resources import ResourceDescriptor

FRONTEND_RUNTIME_S = 10.0 ** 9

_SACCT_STATE = {neutral: native for native, neutral in SimSlurmAdapter._STATE_MAP.items()}

def _runtime(word) -> float:
    try:
        runtime = float(word)
    except (TypeError, ValueError):
        runtime = math.nan
    if not runtime >= 0:  # NaN too; an infinite runtime never ends
        raise ValidationError(f"job command runtime must be a number at least 0, got {word!r:.200}")
    return runtime


def runtime_of_command(command: list[str] | tuple[str, ...], default_runtime_s: float) -> tuple[float, int]:
    """(runtime seconds, exit code) implied by a job command; a runtime that is
    not a number at least 0, or an exit code that is not an integer, is a
    ValidationError."""
    if not command:
        return default_runtime_s, 0
    head = command[0]
    if head == "sleep" and len(command) > 1:
        return _runtime(command[1]), 0
    if head == "fail":
        runtime = _runtime(command[1]) if len(command) > 1 else default_runtime_s
        try:
            code = int(command[2]) if len(command) > 2 else 1
        except (TypeError, ValueError):
            raise ValidationError(
                f"job command exit code must be an integer, got {command[2]!r:.200}") from None
        return runtime, code
    if head == "pilot-shim" and len(command) > 1:
        return _runtime(command[1]), 0
    if head == "frontend":
        return FRONTEND_RUNTIME_S, 0
    return default_runtime_s, 0


def _sacct_line(job: "NativeJob") -> str:
    """What ``sacct`` reports for ``job``."""
    code = job.exit_code if job.exit_code is not None else 0
    return f"{job.native_id}|{_SACCT_STATE[job.state]}|{code}:0"


def _qstat_block(job: "NativeJob") -> str:
    """What ``qstat -f`` reports for ``job``."""
    state = job.state
    if state == "queued":
        pbs = "job_state = Q"
    elif state == "running":
        pbs = "job_state = R"
    else:
        exit_status = PBS_KILL_EXIT if state == "canceled" else job.exit_code
        pbs = f"job_state = F\n    exit_status = {exit_status}"
    return f"Job Id: {job.native_id}\n    {pbs}"


@dataclass
class NativeJob:
    native_id: str
    name: str
    command: tuple[str, ...]
    node_count: int
    state: str = "queued"  # queued | running | completed | failed | canceled
    exit_code: int | None = None
    # the one pending clock event: the start while queued, the finish while
    # running or held by a maintenance window
    _handle: object = field(default=None, repr=False)
    # what the LRM's own status tool reports for the job; SimulatedLrm._write
    # renders it from state and exit_code
    line: str = field(default="", repr=False)


_IS_OPTION = methodcaller("startswith", "-")
_LINE = attrgetter("line")
# The characters that end a shlex word outside quotes.
_SHLEX_SPACES = " \t\r\n"
_ENDED = frozenset({"completed", "failed", "canceled"})  # the states a job ends in
# Below this many characters of output, rendering a status answer afresh
# costs less than patching the kept one (2-CPU VM: about 27 against 26 us for
# the two answers after a cancel at 32 PBS jobs, 1,126 characters; 45
# against 28 us at 64 jobs), so a write drops a smaller answer.
_PATCH_MIN_CHARS = 1500


def _has_quote(text: str) -> bool:
    """Whether ``text`` holds a quote or a backslash."""
    return "'" in text or '"' in text or "\\" in text


class SimulatedLrm:
    """One cluster's local resource manager."""

    def __init__(self, clock, resource: ResourceDescriptor, rng, trace):
        if resource.queue_model is None:
            raise ValueError(f"batch resource {resource.name!r} needs a queue model")
        self.clock = clock
        self.resource = resource
        self.queue_model: QueueModel = resource.queue_model
        self.rng = rng
        self.trace = trace
        self.jobs: dict[str, NativeJob] = {}
        self._counter = 0
        pbs = resource.dialect == SimPbsAdapter.name
        self._dialect = ADAPTERS[resource.dialect]()  # reads the submits
        self._tools = ("qsub", "qstat", "qdel") if pbs else ("sbatch", "sacct", "scancel")
        self._submit_head = self._tools[0] + " "  # shlex's first word is then the submit tool
        self._render = _qstat_block if pbs else _sacct_line  # a job's status line
        # The last status answer, while no job write but a noted one can have
        # changed it: (payload, output, whether every id it named was a job,
        # {native id: line} for the lines in it that report an end, where it
        # was patched or extended).
        self._answer: tuple[str, str, bool, dict[str, str]] | None = None
        # native id -> its line in the kept answer, for each job written since
        self._notes: dict[str, str] = {}

    # -- shell ---------------------------------------------------------------

    def execute(self, payload: str) -> str:
        """Run one command line of this LRM's dialect: its submit, status or
        cancel tool. Any other is an unknown command."""
        submit, status, cancel = self._tools
        # each tool's method is looked up at the call, where a wrapper may stand
        if payload.startswith(self._submit_head):
            return getattr(self, "_" + submit)(payload)
        answer = self._answer
        if answer is not None:
            if answer[0] == payload and not self._notes:
                return answer[1]
            # the same payload with notes, or one that appends ids (a longer one) or
            # leaves out ended ones
            if payload.startswith(self._tools[1]) and (
                    len(payload) > len(answer[0]) or answer[3] or answer[0] == payload):
                output = self._from_kept(payload, answer)
                if output is not None:
                    return output
        try:
            argv = shell_words(payload)
        except ValueError as exc:
            raise TransportError(f"unreadable command on {self.resource.name}: {exc}") from None
        if not argv:
            raise TransportError("empty command")
        tool = argv[0]
        if tool == status:
            return self._status(payload, getattr(self, "_" + tool)(argv[1:]))
        if tool == submit:
            return getattr(self, "_" + tool)(payload)
        if tool == cancel:
            return self._cancel_cmd(argv[1:])
        raise TransportError(f"unknown command {tool!r} on {self.resource.name}")

    def _id_list(self, payload: str) -> tuple[str, int, int] | None:
        """The separator and the bounds of a status payload's id list: all of
        a qstat payload, or the last ``--jobs=`` word's ids in a sacct one.
        None when quotes or backslashes may hide where words end, or a sacct
        payload has no such word."""
        if _has_quote(payload):
            return None
        if self._tools[1] == "qstat":
            return " ", 0, len(payload)
        start = payload.rfind("--jobs=")
        if start < 1 or payload[start - 1] not in _SHLEX_SPACES:  # none, or inside a word
            return None
        ends = [end for space in _SHLEX_SPACES if (end := payload.find(space, start)) >= 0]
        return ",", start + len("--jobs="), min(ends, default=len(payload))

    def _from_kept(self, payload: str, answer: tuple) -> str | None:
        """The answer to a status command from the kept ``answer``: its id
        list read as the kept one's with ids appended, or, past
        ``_PATCH_MIN_CHARS``, with every id the answer reports ended cut too;
        None when it is neither."""
        last, output, known, ended = answer
        found = self._id_list(last)
        if found is None:
            return None
        sep, start, end = found
        stop = len(payload) - len(last) + end  # where an edited id list ends in payload
        if stop < start or not payload.startswith(last[:start]) or not payload.endswith(last[end:]):
            return None
        kept, ids = sep + last[start:end], sep + payload[start:stop]
        read, cut = read_edit(sep, ids, kept, ()), {}
        if read is None and ended and len(output) >= _PATCH_MIN_CHARS:
            read, cut, ended = read_edit(sep, ids, kept, [(i, None) for i in ended]), ended, {}
        if read is None:
            return None
        added = read[1]
        if sep == " ":  # qstat's appended words but options; after a space, shlex splits them alone
            added = [*filterfalse(_IS_OPTION, shell_words(added))]
        elif _has_quote(added) or any(map(added.__contains__, _SHLEX_SPACES)):
            return None
        else:
            added = added.split(",")[1:]
        notes = self._notes
        if notes or cut:
            written = {native_id: self.jobs[native_id] for native_id in notes}
            edits = [(old, written[native_id].line) for native_id, old in notes.items()]
            edits += [(line, None) for line in cut.values()]
            output = splice(output, "\n", edits)
            if output is None:
                return None
            ended = ended | {native_id: job.line for native_id, job in written.items()
                             if job.state in _ENDED}
        return self._status(payload, added, (output, known, ended))

    def _status(self, payload: str, ids: Iterable[str], base: tuple | None = None) -> str:
        """Answer a status command naming ``ids``, after the lines of ``base``,
        (output, known, ended) of a kept answer it extends, and keep the answer."""
        jobs = [*map(self.jobs.get, ids)]
        output = "\n".join(map(_LINE, filter(None, jobs)))
        if base is None:
            self._answer = (payload, output, all(jobs), {})
        else:
            before, known, ended = base
            output = f"{before}\n{output}" if before and output else before or output
            if len(output) >= _PATCH_MIN_CHARS:  # else no cut is made
                ended = ended | {job.native_id: job.line for job in jobs
                                 if job and job.state in _ENDED}
            self._answer = (payload, output, known and all(jobs), ended)
        if self._notes:
            self._notes.clear()
        return output

    def _read_submit(self, payload: str) -> tuple[int, str, list[str]]:
        try:
            return self._dialect.read_submit(payload)
        except ValueError as exc:
            raise TransportError(f"unreadable submit on {self.resource.name}: {exc}") from None

    def _qsub(self, payload: str) -> str:
        nodes, name, command = self._read_submit(payload)
        self._counter += 1
        native_id = f"{self._counter}.{self.resource.name}"
        self._enqueue(native_id, name, command, nodes)
        return native_id

    def _sbatch(self, payload: str) -> str:
        nodes, name, command = self._read_submit(payload)
        self._counter += 1
        native_id = str(self._counter)
        self._enqueue(native_id, name, command, nodes)
        return f"Submitted batch job {native_id}"

    def _qstat(self, args: list[str]) -> Iterator[str]:
        """The ids a qstat command names."""
        return filterfalse(_IS_OPTION, args)

    def _sacct(self, args: list[str]) -> list[str]:
        """The ids a sacct command names."""
        ids: list[str] = []
        for arg in args:
            if arg.startswith("--jobs="):
                ids = arg.split("=", 1)[1].split(",")
        return ids

    def _cancel_cmd(self, args: list[str]) -> str:
        for native_id in args:
            if native_id in self.jobs:
                self.cancel(native_id)
        return ""

    # -- lifecycle -------------------------------------------------------------

    def _enqueue(self, native_id: str, name: str, command: list[str], nodes: int) -> None:
        if self._answer is not None and not self._answer[2]:
            self._answer = None  # it may name the new job
            self._notes.clear()
        job = NativeJob(native_id=native_id, name=name, command=tuple(command), node_count=nodes)
        job.line = self._render(job)
        self.jobs[native_id] = job
        wait, held = self._wait_for(self.clock.now)
        self.trace.emit("backend_job_queued", resource=self.resource.name,
                        native_id=native_id, name=name, nodes=nodes, wait=wait)
        if held and self.queue_model.maintenance_policy == "fail":
            # Reject submissions that would start inside a maintenance window.
            job._handle = self.clock.at(self.clock.now, lambda: self._finish(native_id, "canceled"))
            return
        job._handle = self.clock.at(self.clock.now + wait, lambda: self._start(native_id))

    def _write(self, job: NativeJob, state: str) -> None:
        """Move ``job`` to ``state`` and render its line again, noting its
        old line while an answer is kept."""
        answer = self._answer
        if answer is not None:
            if len(answer[1]) >= _PATCH_MIN_CHARS:
                self._notes.setdefault(job.native_id, job.line)
            else:
                self._answer = None  # no notes are kept for it
        job.state = state
        job.line = self._render(job)

    def _wait_for(self, submit_time: float) -> tuple[float, bool]:
        raw = self.queue_model.sample(self.rng)
        wait = adjust_for_maintenance(self.queue_model, submit_time, raw)
        return wait, wait > raw

    def _start(self, native_id: str) -> None:
        job = self.jobs[native_id]
        if job.state != "queued":
            return
        runtime, exit_code = runtime_of_command(job.command, self.queue_model.default_runtime_s)
        final = "completed" if exit_code == 0 else "failed"
        job.exit_code = exit_code
        self._write(job, "running")
        self.trace.emit("backend_job_started", resource=self.resource.name,
                        native_id=native_id, name=job.name, nodes=job.node_count)
        job._handle = self.clock.at(self.clock.now + runtime, lambda: self._finish(native_id, final))

    def _finish(self, native_id: str, state: str) -> None:
        job = self.jobs[native_id]
        if job.state not in ("queued", "running"):
            return
        if state == "canceled":
            job.exit_code = None
        self._write(job, state)
        self.trace.emit("backend_job_finished", resource=self.resource.name,
                        native_id=native_id, name=job.name, state=state,
                        exit_code=job.exit_code)

    def cancel(self, native_id: str) -> None:
        job = self.jobs.get(native_id)
        if job is None or job.state in _ENDED:
            return
        self.clock.cancel(job._handle)
        self._finish(native_id, "canceled")

