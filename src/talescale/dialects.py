"""LRM dialect adapters.

The middleware speaks three fixed internal verbs — submit, batch_status,
cancel — and an adapter translates each into the command string a
particular queuing system expects, then parses that system's output back
into neutral job states. Swapping the adapter is the whole longevity
story: the internal API never moves.

Neutral backend states: queued, running, completed, failed, canceled.

A status output splits into one unit per job: a Slurm line, or a PBS
``Job Id:`` block. ``parse_status`` returns an output's units in output
order, and ``parse_unit`` reads one unit as ``(native id, (state, exit
code))``, or ``None`` for a unit that reports no state. A poll reports every
held job and nearly every unit is the same as in the poll before, so the
middleware keeps the units it has applied and parses only the others.
``unit_start`` is the text at which a unit after the first starts, a line
break and what follows it. An output that extends another at this text
splits, after that line break, into the units it adds to the other's; in
Slurm they may differ by an empty line, a unit that reports no state.

The edit rule, which both sides of the wire use to answer or read a poll
from the one before (``splice`` writes an edited text, ``read_edit`` reads
a text as one). A text is framed by a line break before it and a separator
``sep`` after it, and a unit is what lies between two separators in the
frame: a line for a line break, a PBS block for ``unit_start`` (the frame's
line break starts the first one's), an id of a status command's id list
when the list is given after one separator. An edit names a unit and
replaces it with one unit or cuts it. A unit to replace must occur at most
once and is left alone when absent; a unit to cut must occur exactly once;
no two edits may touch one unit. Units may be added after the last.
"""

from __future__ import annotations

import re
import shlex
from operator import itemgetter

# PBS reports a kill with exit_status 271; adapters map it to "canceled".
PBS_KILL_EXIT = 271


class DialectAdapter:
    name: str = "abstract"
    unit_start: str

    def format_submit(self, command: list[str], node_count: int, job_name: str) -> str:
        raise NotImplementedError

    def parse_submit(self, output: str) -> str:
        raise NotImplementedError

    def format_status(self, native_ids: list[str]) -> str:
        raise NotImplementedError

    def parse_status(self, output: str) -> list[str]:
        raise NotImplementedError

    def parse_unit(self, unit: str) -> tuple[str, tuple[str, int | None]] | None:
        raise NotImplementedError

    def format_cancel(self, native_id: str) -> str:
        raise NotImplementedError


class SimPbsAdapter(DialectAdapter):
    name = "sim-pbs"
    unit_start = "\nJob Id:"

    _LETTERS = {"Q": ("queued", None), "R": ("running", None)}

    def format_submit(self, command, node_count, job_name):
        return f"qsub -l nodes={node_count} -N {job_name} -- {shlex.join(command)}"

    def parse_submit(self, output):
        return output.strip()

    def format_status(self, native_ids):
        return "qstat -f " + " ".join(native_ids)

    def parse_status(self, output):
        return ("\n" + output).split("\nJob Id:")[1:]

    def parse_unit(self, block):
        # Native ids embed the resource name, which may hold any character
        # but a newline: the id is the rest of its line, and lines end only
        # at "\n" (str.splitlines also breaks at \x0b, \x85 and others).
        native_id, *lines = block.split("\n")
        native_id = native_id.lstrip(" \t")
        if not native_id:
            return None
        state = None
        for line in lines:
            key, _, value = line.partition("=")
            key = key.strip()
            if key == "job_state":
                state = self._LETTERS.get(value.strip(), state)
            elif key == "exit_status":
                code = int(value)
                state = (("canceled", None) if code == PBS_KILL_EXIT
                         else ("failed", code) if code else ("completed", 0))
        return state and (native_id, state)

    def format_cancel(self, native_id):
        return f"qdel {native_id}"


class SimSlurmAdapter(DialectAdapter):
    name = "sim-slurm"
    unit_start = "\n"

    _STATE_MAP = {
        "PENDING": "queued",
        "RUNNING": "running",
        "COMPLETED": "completed",
        "FAILED": "failed",
        "CANCELLED": "canceled",
    }

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
        return output.splitlines()

    def parse_unit(self, line):
        if not line.strip():
            return None
        job_id, state, exitcode = line.split("|")
        neutral = self._STATE_MAP[state]
        code = None
        if neutral in ("completed", "failed"):
            code = int(exitcode.split(":")[0])
        return job_id, (neutral, code)

    def format_cancel(self, native_id):
        return f"scancel {native_id}"


# Every dialect name a resource may carry, with its adapter class; resource
# descriptors check their dialect against it, and the middleware holds one
# adapter per name.
ADAPTERS = {adapter.name: adapter for adapter in (SimPbsAdapter, SimSlurmAdapter)}


def _spots(framed: str, sep: str, edits) -> list[tuple[int, int, object]] | None:
    """Where each ``(unit, new)`` edit falls in ``framed`` by the edit rule,
    in text order: the start and end of ``sep + unit``, and ``new`` (None
    for a cut). None when the rule refuses the edits."""
    if not edits:
        return []
    spots = []
    for unit, new in edits:
        needle = f"{sep}{unit}{sep}"
        at = framed.find(needle)
        if at < 0 and new is not None:
            continue
        if at < 0 or framed.find(needle, at + 1) >= 0:
            return None
        spots.append((at, at + len(sep) + len(unit), new))
    spots.sort(key=itemgetter(0))
    pos = 0
    for at, end, _ in spots:
        if at < pos:
            return None
        pos = end
    return spots


def splice(text: str, sep: str, edits) -> str | None:
    """``text`` with each ``(unit, new)`` edit made: the unit replaced with
    ``new``, or cut when ``new`` is None. None when the edit rule refuses
    the edits."""
    framed = f"\n{text}{sep}"
    spots = _spots(framed, sep, edits)
    if spots is None:
        return None
    pieces, pos = [], 0
    for at, end, new in spots:
        pieces += framed[pos:at], "" if new is None else sep + new
        pos = end
    pieces.append(framed[pos:])
    return "".join(pieces)[1:-len(sep)]


def read_edit(sep: str, new: str, old: str, edits) -> tuple[list, str] | None:
    """Read ``new`` as ``old`` with ``edits`` made and units added.

    Each edit is ``(unit, tag)``: a unit of ``old`` that ``new`` replaces
    with one unit, or cuts when ``tag`` is None. Every untouched piece of
    ``old`` is compared with ``new`` at C level. Returns each replacing
    unit with its edit's tag, in text order, and the added text: the added
    units, each after ``sep``. None when ``new`` is not read so.
    """
    framed, seen = f"\n{old}{sep}", f"\n{new}{sep}"
    spots = _spots(framed, sep, edits)
    if spots is None:
        return None
    replaced, pos, cur = [], 0, 0
    for at, end, tag in spots:
        if not seen.startswith(framed[pos:at], cur):
            return None
        cur, pos = cur + at - pos, end
        if tag is not None:  # the replacing unit runs to the next separator
            if not seen.startswith(sep, cur):
                return None
            after = seen.find(sep, cur + len(sep))
            replaced.append((seen[cur + len(sep):after], tag))
            cur = after
    if not seen.startswith(framed[pos:], cur):
        return None
    cur += len(framed) - pos - len(sep)
    return replaced, seen[cur:-len(sep)]
