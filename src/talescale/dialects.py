"""LRM dialect adapters.

The middleware speaks three fixed internal verbs — submit, batch_status,
cancel — and an adapter translates each into the command string a
particular queuing system expects, then parses that system's output back
into neutral job states. Swapping the adapter is the whole longevity
story: the internal API never moves.

Neutral backend states: queued, running, completed, failed, canceled.
"""

from __future__ import annotations

import re
import shlex
from itertools import filterfalse

from .errors import DuplicateError, UnknownDialectError

# PBS reports a kill with exit_status 271; adapters map it to "canceled".
PBS_KILL_EXIT = 271


class DialectAdapter:
    name: str = "abstract"

    def format_submit(self, command: list[str], node_count: int, job_name: str) -> str:
        raise NotImplementedError

    def parse_submit(self, output: str) -> str:
        raise NotImplementedError

    def format_status(self, native_ids: list[str]) -> str:
        raise NotImplementedError

    def parse_status(self, output: str) -> dict[str, tuple[str, int | None]]:
        raise NotImplementedError

    def format_cancel(self, native_id: str) -> str:
        raise NotImplementedError


class SimPbsAdapter(DialectAdapter):
    name = "sim-pbs"

    def format_submit(self, command, node_count, job_name):
        return f"qsub -l nodes={node_count} -N {job_name} -- {shlex.join(command)}"

    def parse_submit(self, output):
        return output.strip()

    def format_status(self, native_ids):
        return "qstat -f " + " ".join(native_ids)

    def parse_status(self, output):
        # Native ids embed the resource name, which may hold any character
        # but a newline: the id is the rest of its line, and lines end only
        # at "\n" (str.splitlines also breaks at \x0b, \x85 and others).
        states: dict[str, tuple[str, int | None]] = {}
        current = None
        for line in output.split("\n"):
            if line.startswith("Job Id:"):
                current = line[7:].lstrip(" \t") or None
                continue
            if current is None:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key == "job_state":
                letter = value.strip()
                if letter == "Q":
                    states[current] = ("queued", None)
                elif letter == "R":
                    states[current] = ("running", None)
            elif key == "exit_status":
                code = int(value)
                if code == PBS_KILL_EXIT:
                    states[current] = ("canceled", None)
                elif code == 0:
                    states[current] = ("completed", 0)
                else:
                    states[current] = ("failed", code)
        return states

    def format_cancel(self, native_id):
        return f"qdel {native_id}"


class SimSlurmAdapter(DialectAdapter):
    name = "sim-slurm"

    _STATE_MAP = {
        "PENDING": "queued",
        "RUNNING": "running",
        "COMPLETED": "completed",
        "FAILED": "failed",
        "CANCELLED": "canceled",
    }

    def __init__(self):
        # status line -> (native id, (state, code)). A poll reports every held
        # job, and nearly every line is the same as in the poll before.
        self._lines: dict[str, tuple[str, tuple[str, int | None]]] = {}
        self._widest = 0  # most lines one poll has reported

    def format_submit(self, command, node_count, job_name):
        wrapped = shlex.join(command)
        return f"sbatch --nodes={node_count} --job-name={job_name} --wrap {shlex.quote(wrapped)}"

    def parse_submit(self, output):
        m = re.match(r"^Submitted batch job (\S+)", output.strip())
        if not m:
            raise ValueError(f"unparseable sbatch output: {output!r}")
        return m.group(1)

    def format_status(self, native_ids):
        joined = ",".join(native_ids)
        return f"sacct --jobs={joined} --format=JobID,State,ExitCode --noheader --parsable2"

    def parse_status(self, output):
        lines = output.splitlines()
        memo = self._lines
        self._widest = max(self._widest, len(lines))
        if len(memo) > 2 * self._widest + 1024:
            memo.clear()  # forget lines no poll reports any more
        # misses in line order, so the first malformed line is the one raised
        for line in filterfalse(memo.__contains__, lines):
            if not line.strip():  # blank lines are skipped; they are rare, so no memo
                return dict(self._parse_line(each) for each in lines if each.strip())
            memo[line] = self._parse_line(line)
        return dict(map(memo.__getitem__, lines))

    def _parse_line(self, line):
        job_id, state, exitcode = line.split("|")
        neutral = self._STATE_MAP[state]
        code = None
        if neutral in ("completed", "failed"):
            code = int(exitcode.split(":")[0])
        return job_id, (neutral, code)

    def format_cancel(self, native_id):
        return f"scancel {native_id}"


class DialectRegistry:
    def __init__(self):
        self._adapters: dict[str, DialectAdapter] = {}

    def register(self, name: str, adapter: DialectAdapter) -> None:
        if name in self._adapters:
            raise DuplicateError(f"dialect {name!r} already registered")
        self._adapters[name] = adapter

    def get(self, name: str | None) -> DialectAdapter:
        if name is None or name not in self._adapters:
            raise UnknownDialectError(f"no dialect adapter registered for {name!r}")
        return self._adapters[name]

    def __contains__(self, name: str) -> bool:
        return name in self._adapters


def default_registry() -> DialectRegistry:
    registry = DialectRegistry()
    registry.register("sim-pbs", SimPbsAdapter())
    registry.register("sim-slurm", SimSlurmAdapter())
    return registry
