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

The submit grammar. Each adapter writes its submit text (``format_submit``)
and reads it back (``read_submit``), as the simulated LRM does: the text is
shell words, quoted by ``shlex`` and split by ``shell_words``. When every
command word is shell-safe (``shlex.quote`` leaves it as it is), the text is
written without shlex, byte for byte as shlex writes it, and read back by
one compiled ``fullmatch``. Any other text, such as a hand-written one with
its options in another order, takes the general route: the words are split
and read option by option. A text neither route reads raises ValueError.
"""

from __future__ import annotations

import re
import shlex
from operator import itemgetter

# PBS reports a kill with exit_status 271; adapters map it to "canceled".
PBS_KILL_EXIT = 271

# Command lines are split with ``shlex.split`` semantics, always.
# ``shell_words`` takes ``str.split`` only for texts on which the two cannot
# differ: no quote, no backslash, and no whitespace other than the space,
# tab, CR and LF that shlex splits on. ``str.split`` also splits on vertical
# tab, form feed, the separators U+001C to U+001F, no-break space and other
# Unicode spaces, which shlex keeps inside a word, and PBS ids embed
# resource names, which may hold any of them. The test runs in C over
# kilobyte status payloads: ``in`` for the quotes and the backslash, and,
# since ``isascii`` answers in O(1), ``in`` for the six ASCII characters of
# that kind; only a text that is not ASCII is searched with a regex. Every
# other text, such as a submit with a quoted command, goes to shlex.

# Any character str.split splits on and shlex keeps inside a word.
_WORD_SPACE = re.compile(r"[^\S \t\r\n]")


def _has_word_space(text: str) -> bool:
    """Whether ``text`` holds a character str.split splits on and shlex
    keeps inside a word; ``isascii`` takes O(1), and each ``in`` one memchr."""
    if text.isascii():
        return ("\x0b" in text or "\x0c" in text or "\x1c" in text
                or "\x1d" in text or "\x1e" in text or "\x1f" in text)
    return _WORD_SPACE.search(text) is not None


def shell_words(text: str) -> list[str]:
    """``shlex.split(text)``, without shlex where it cannot differ."""
    if "'" in text or '"' in text or "\\" in text or _has_word_space(text):
        return shlex.split(text)
    return text.split()


# A word shlex.quote leaves as it is; the canonical submit text holds only these.
_SAFE = r"[\w@%+=:,./-]+"
_is_safe = re.compile(_SAFE, re.ASCII).fullmatch
# Safe words joined by single spaces, or none.
_SAFE_WORDS = rf"(?:{_SAFE}(?: {_SAFE})*)?"


def _node_count(text: str) -> int:
    nodes = int(text)
    if nodes < 1:
        raise ValueError(f"a job needs at least 1 node, got {text!r:.200}")
    return nodes


class DialectAdapter:
    name: str = "abstract"
    unit_start: str
    # A status command is its id list, the ids joined by ``id_sep`` after a
    # fixed head, then ``status_tail``.
    id_sep: str
    status_tail: str

    def format_submit(self, command: list[str], node_count: int, job_name: str) -> str:
        raise NotImplementedError

    def read_submit(self, payload: str) -> tuple[int, str, list[str]]:
        """``(node count, job name, command)`` of a submit text, as this
        dialect's LRM reads it; ValueError when it cannot be read."""
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
    id_sep = " "
    status_tail = ""

    _LETTERS = {"Q": ("queued", None), "R": ("running", None)}
    _SUBMIT = re.compile(rf"qsub -l nodes=([1-9][0-9]*) -N ({_SAFE}) -- ({_SAFE_WORDS})", re.ASCII)

    def format_submit(self, command, node_count, job_name):
        words = " ".join(command) if all(map(_is_safe, command)) else shlex.join(command)
        return f"qsub -l nodes={node_count} -N {job_name} -- {words}"

    def read_submit(self, payload):
        # -l nodes=N and -N NAME; every word after -- is the command
        if (m := self._SUBMIT.fullmatch(payload)) is not None:
            return int(m[1]), m[2], m[3].split()
        words = shell_words(payload)
        if words[:1] != ["qsub"]:
            raise ValueError("not a qsub command")
        nodes, name, command = 1, "job", []
        i = 1
        while i < len(words):
            word = words[i]
            if word == "--":
                command = words[i + 1:]
                break
            if word == "-l" and i + 1 < len(words) and words[i + 1].startswith("nodes="):
                nodes = _node_count(words[i + 1][len("nodes="):])
                i += 2
            elif word == "-N" and i + 1 < len(words):
                name = words[i + 1]
                i += 2
            else:
                i += 1
        return nodes, name, command

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
    id_sep = ","
    status_tail = " --format=JobID,State,ExitCode --noheader --parsable2"

    _STATE_MAP = {
        "PENDING": "queued",
        "RUNNING": "running",
        "COMPLETED": "completed",
        "FAILED": "failed",
        "CANCELLED": "canceled",
    }

    # The command is one word, its words joined and quoted as shlex would:
    # several safe words in single quotes, one as it is, none as ''.
    _SUBMIT = re.compile(rf"sbatch --nodes=([1-9][0-9]*) --job-name=({_SAFE}) "
                         rf"--wrap (?:'({_SAFE_WORDS})'|({_SAFE}))", re.ASCII)
    _SUBMITTED = re.compile(r"Submitted batch job (\S+)")

    def format_submit(self, command, node_count, job_name):
        if all(map(_is_safe, command)):
            wrapped = " ".join(command)
            wrapped = f"'{wrapped}'" if len(command) > 1 else wrapped or "''"
        else:
            wrapped = shlex.quote(shlex.join(command))
        return f"sbatch --nodes={node_count} --job-name={job_name} --wrap {wrapped}"

    def read_submit(self, payload):
        # the words before --wrap are options; the one after it is the command
        if (m := self._SUBMIT.fullmatch(payload)) is not None:
            return int(m[1]), m[2], (m[3] or m[4] or "").split()
        words = shell_words(payload)
        if words[:1] != ["sbatch"]:
            raise ValueError("not an sbatch command")
        wrap = words.index("--wrap") if "--wrap" in words else len(words)
        after = words[wrap + 1:]
        if wrap < len(words) and len(after) != 1:
            raise ValueError("--wrap takes one word, the command, and ends the options")
        nodes, name = 1, "job"
        for word in words[1:wrap]:
            key, eq, value = word.partition("=")
            if eq and key == "--nodes":
                nodes = _node_count(value)
            elif eq and key == "--job-name":
                name = value
        return nodes, name, shell_words(after[0]) if after else []

    def parse_submit(self, output):
        m = self._SUBMITTED.match(output.strip())
        if not m:
            raise ValueError(f"unparseable sbatch output: {output!r}")
        return m.group(1)

    def format_status(self, native_ids):
        return "sacct --jobs=" + ",".join(native_ids) + self.status_tail

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
