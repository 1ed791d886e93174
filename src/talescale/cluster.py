"""Simulated batch cluster: the far side of the transport.

Each batch resource gets one SimulatedLrm, a queue of native jobs driven
by the shared clock. The shell entry point accepts the same command
strings a real cluster would (qsub/qstat/qdel and sbatch/sacct/scancel),
so the dialect adapters are exercised end to end: what they format is
what gets parsed here, and what this emits is what they parse back.

Job runtimes come from a tiny command convention::

    sleep N        run N simulated seconds, exit 0
    fail N [code]  run N simulated seconds, exit code (default 1)
    pilot-shim N   placeholder pilot: run for its walltime N
    frontend ...   interactive frontend: runs until the horizon

Anything else runs for the queue model's default runtime.

Each native job carries the text ``sacct`` and ``qstat`` report for it,
re-rendered at each write of its state, so a status query joins stored
lines at C level instead of formatting every held job again. The LRM
also keeps its last status answer: the command line, the output, and
whether every id it named was a job. A job start or finish (which a
cancel goes through) drops it, and so does an enqueue unless every named
id was a job already. While it is kept, a status command equal to the
last one returns the stored output without tokenizing or rendering
anything, and one that only appends ids to the last one's id list
returns the stored output and the lines of the appended ids, so a poll
that adds k jobs to the last costs k lookups, not one per held job.

Command lines are tokenized with ``shlex.split`` semantics, always.
``_argv`` takes ``str.split`` as a fast path only for payloads on which
the two cannot differ: no quote, no backslash, and no whitespace other
than the space, tab, CR and LF that shlex splits on. ``str.split`` also
splits on vertical tab, form feed, the separators U+001C to U+001F,
no-break space and other Unicode spaces, which shlex keeps inside a word,
and PBS ids embed resource names, which may hold any of them. The test
runs in C over kilobyte status payloads: ``in`` for the quotes and the
backslash, and, since ``isascii`` answers in O(1), ``in`` for the six
ASCII characters of that kind; only a payload that is not ASCII is
searched with a regex. A payload whose only quoting is balanced single
quotes (as every ``sbatch --wrap`` carries), or that holds such a
character, is split by one regex instead: a word runs to the next space,
tab, CR or LF outside quotes, and shlex would only drop its quote
characters.
"""

from __future__ import annotations

import math
import re
import shlex
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import filterfalse
from operator import attrgetter, methodcaller

from .dialects import PBS_KILL_EXIT, SimSlurmAdapter
from .errors import TransportError, ValidationError
from .queues import QueueModel, adjust_for_maintenance
from .resources import ResourceDescriptor

FRONTEND_RUNTIME_S = 10.0 ** 9

_SACCT_STATE = {neutral: native for native, neutral in SimSlurmAdapter._STATE_MAP.items()}

# Any character str.split splits on and shlex keeps inside a word.
_WORD_SPACE = re.compile(r"[^\S \t\r\n]")
# One shlex word when the only quotes are single ones: unquoted characters
# other than shlex's whitespace, and whole '...' runs.
_SINGLE_QUOTED_WORD = re.compile(r"(?:[^ \t\r\n']|'[^']*')+")


def _has_word_space(payload: str) -> bool:
    """Whether ``payload`` holds a character str.split splits on and shlex
    keeps inside a word; ``isascii`` takes O(1), and each ``in`` one memchr."""
    if payload.isascii():
        return ("\x0b" in payload or "\x0c" in payload or "\x1c" in payload
                or "\x1d" in payload or "\x1e" in payload or "\x1f" in payload)
    return _WORD_SPACE.search(payload) is not None


def _argv(payload: str) -> list[str]:
    """``shlex.split(payload)``, without shlex where it cannot differ."""
    quotes = payload.count("'")
    if quotes % 2 or '"' in payload or "\\" in payload:
        return shlex.split(payload)
    if quotes or _has_word_space(payload):
        return [word.replace("'", "") for word in _SINGLE_QUOTED_WORD.findall(payload)]
    return payload.split()


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
    # what sacct and qstat report for the job, rendered from state and
    # exit_code by set_state
    sacct_line: str = field(default="", repr=False)
    qstat_block: str = field(default="", repr=False)

    def __post_init__(self):
        self.set_state(self.state)

    def set_state(self, state: str) -> None:
        self.state = state
        code = self.exit_code if self.exit_code is not None else 0
        self.sacct_line = f"{self.native_id}|{_SACCT_STATE[state]}|{code}:0"
        if state == "queued":
            pbs = "job_state = Q"
        elif state == "running":
            pbs = "job_state = R"
        else:
            exit_status = PBS_KILL_EXIT if state == "canceled" else self.exit_code
            pbs = f"job_state = F\n    exit_status = {exit_status}"
        self.qstat_block = f"Job Id: {self.native_id}\n    {pbs}"


_SACCT_LINE = attrgetter("sacct_line")
_QSTAT_BLOCK = attrgetter("qstat_block")
_IS_OPTION = methodcaller("startswith", "-")
# The characters that end a shlex word outside quotes.
_SHLEX_SPACES = " \t\r\n"
# Per status tool: what separates appended ids, and the line of one job.
_ID_SEPARATOR = {"qstat": " ", "sacct": ","}
_STATUS_LINE = {"qstat": _QSTAT_BLOCK, "sacct": _SACCT_LINE}


def _has_quote(text: str) -> bool:
    """Whether ``text`` holds a quote or a backslash."""
    return "'" in text or '"' in text or "\\" in text


def _added_ids(tool: str, last: str, payload: str) -> list[str] | None:
    """The ids ``payload`` appends to the id list of ``last``, a ``tool``
    command: ``payload`` is ``last`` with the tool's id separator and more
    ids inserted where its id list ends (the payload's end for qstat, the
    end of the last ``--jobs=`` word for sacct). None when it is not, or
    when quotes or backslashes may hide where words end."""
    cut = len(last) if tool == "qstat" else _jobs_word_end(last)
    if (cut is None or payload[cut] != _ID_SEPARATOR[tool] or _has_quote(payload)
            or not payload.startswith(last[:cut]) or not payload.endswith(last[cut:])):
        return None
    added = payload[cut + 1:len(payload) - len(last) + cut]
    if tool == "qstat":  # the appended words, split as _argv would; qstat skips options
        return None if _has_word_space(added) else [*filterfalse(_IS_OPTION, added.split())]
    # more of the --jobs= word: no whitespace may end it
    return None if any(map(added.__contains__, _SHLEX_SPACES)) else added.split(",")


def _jobs_word_end(payload: str) -> int | None:
    """Where the last ``--jobs=`` word of a sacct payload ends; None when
    there is no such word."""
    start = payload.rfind("--jobs=")
    if start < 1 or payload[start - 1] not in _SHLEX_SPACES:  # none, or inside a word
        return None
    ends = [end for space in _SHLEX_SPACES if (end := payload.find(space, start)) >= 0]
    return min(ends, default=len(payload))


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
        # The last qstat or sacct answer, while no job write can have changed
        # it: (payload, tool, output, whether every id it named was a job).
        self._answer: tuple[str, str, str, bool] | None = None

    # -- shell ---------------------------------------------------------------

    def execute(self, payload: str) -> str:
        """Run one LRM command line; both PBS and Slurm tools are installed."""
        answer = self._answer
        if answer is not None:
            if answer[0] == payload:
                return answer[2]
            if len(payload) > len(answer[0]) and payload.startswith(answer[1]):
                added = _added_ids(answer[1], answer[0], payload)
                if added is not None:
                    return self._status(payload, answer[1], added, answer)
        argv = _argv(payload)
        if not argv:
            raise TransportError("empty command")
        tool = argv[0]
        if tool == "qsub":
            return self._qsub(argv[1:])
        if tool == "sbatch":
            return self._sbatch(argv[1:])
        if tool in ("qdel", "scancel"):
            return self._cancel_cmd(argv[1:])
        if tool == "qstat":
            return self._status(payload, tool, self._qstat(argv[1:]))
        if tool == "sacct":
            return self._status(payload, tool, self._sacct(argv[1:]))
        raise TransportError(f"unknown command {tool!r} on {self.resource.name}")

    def _status(self, payload: str, tool: str, ids: Iterable[str],
                base: tuple | None = None) -> str:
        """Answer a status command naming ``ids``, after the ids of the answer
        ``base`` when it extends that, and keep the answer."""
        jobs = [*map(self.jobs.get, ids)]
        output = "\n".join(map(_STATUS_LINE[tool], filter(None, jobs)))
        known = all(jobs)
        if base is not None:
            before = base[2]
            known = known and base[3]
            output = f"{before}\n{output}" if before and output else before or output
        self._answer = (payload, tool, output, known)
        return output

    def _qsub(self, args: list[str]) -> str:
        nodes, name, command = 1, "job", []
        i = 0
        while i < len(args):
            if args[i] == "-l" and i + 1 < len(args) and args[i + 1].startswith("nodes="):
                nodes = int(args[i + 1].split("=", 1)[1])
                i += 2
            elif args[i] == "-N" and i + 1 < len(args):
                name = args[i + 1]
                i += 2
            elif args[i] == "--":
                command = args[i + 1:]
                break
            else:
                i += 1
        self._counter += 1
        native_id = f"{self._counter}.{self.resource.name}"
        self._enqueue(native_id, name, command, nodes)
        return native_id

    def _sbatch(self, args: list[str]) -> str:
        nodes, name, command = 1, "job", []
        for arg in args:
            if arg.startswith("--nodes="):
                nodes = int(arg.split("=", 1)[1])
            elif arg.startswith("--job-name="):
                name = arg.split("=", 1)[1]
        if "--wrap" in args:
            command = _argv(args[args.index("--wrap") + 1])
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
        if self._answer is not None and not self._answer[3]:
            self._answer = None  # it may name the new job
        job = NativeJob(native_id=native_id, name=name, command=tuple(command), node_count=nodes)
        self.jobs[native_id] = job
        wait, held = self._wait_for(self.clock.now)
        self.trace.emit("backend_job_queued", resource=self.resource.name,
                        native_id=native_id, name=name, nodes=nodes, wait=wait)
        if held and self.queue_model.maintenance_policy == "fail":
            # Reject submissions that would start inside a maintenance window.
            job._handle = self.clock.at(self.clock.now, lambda: self._finish(native_id, "canceled"))
            return
        job._handle = self.clock.at(self.clock.now + wait, lambda: self._start(native_id))

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
        self._answer = None
        job.set_state("running")
        self.trace.emit("backend_job_started", resource=self.resource.name,
                        native_id=native_id, name=job.name, nodes=job.node_count)
        job._handle = self.clock.at(self.clock.now + runtime, lambda: self._finish(native_id, final))

    def _finish(self, native_id: str, state: str) -> None:
        job = self.jobs[native_id]
        if job.state not in ("queued", "running"):
            return
        if state == "canceled":
            job.exit_code = None
        self._answer = None
        job.set_state(state)
        self.trace.emit("backend_job_finished", resource=self.resource.name,
                        native_id=native_id, name=job.name, state=state,
                        exit_code=job.exit_code)

    def cancel(self, native_id: str) -> None:
        job = self.jobs.get(native_id)
        if job is None or job.state in ("completed", "failed", "canceled"):
            return
        self.clock.cancel(job._handle)
        self._finish(native_id, "canceled")

