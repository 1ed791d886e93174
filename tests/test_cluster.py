import random
import re
import shlex

import pytest
from hypothesis import example, given, settings, strategies as st

from talescale.clock import SimClock
from talescale import cluster
from talescale.cluster import SimulatedLrm
from talescale.dialects import shell_words
from talescale.dialects import PBS_KILL_EXIT, SimPbsAdapter, SimSlurmAdapter
from talescale.errors import TransportError
from talescale.queues import QueueModel
from talescale.resources import ResourceDescriptor
from talescale.trace import TraceLog

# Characters where shlex and str.split could part ways: shlex's own
# whitespace, every other character str.split treats as whitespace, quotes,
# the escape character, and plain word characters.
_TRICKY = (" \t\r\n" "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u3000"
           "'\"\\" "ab1.-=,|#")
# shlex's 4 spaces, the 6 other ASCII characters str.split splits on, 3
# non-ASCII spaces, the quotes, the escape, '#', and word characters
_PAYLOAD_ALPHABET = (" \t\r\n" "\x0b\x0c\x1c\x1d\x1e\x1f" "\x85\xa0\u2003"
                     "'\"\\#" "abcxyz0189,=-")


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, KeyError) as exc:
        return type(exc)


class TestTokenizer:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(), st.text(alphabet=st.sampled_from(_TRICKY))))
    @example("qstat -f 1.a\x0b2.a")
    @example("sbatch --wrap 'sleep 1")
    @example("qdel 1.a\\")
    @example("sbatch --wrap 'sleep 12.5'")
    @example("a'b c'd")
    @example("''")
    def test_same_argv_as_shlex_or_same_error(self, text):
        assert _outcome(shell_words, text) == _outcome(shlex.split, text)

    @settings(max_examples=300, deadline=None)
    @given(head=st.text(alphabet=st.sampled_from("abc0189,=- "), min_size=1, max_size=20),
           tail=st.text(alphabet=st.sampled_from(_PAYLOAD_ALPHABET), max_size=40),
           repeats=st.integers(0, 200), at_start=st.booleans())
    def test_long_payloads_same_argv_as_shlex_or_same_error(self, head, tail, repeats, at_start):
        # status payloads run to kilobytes of plain ids; the one character
        # that decides the split may sit at either end of them
        body = head * (1025 // len(head) + repeats)
        payload = tail + body if at_start else body + tail
        assert _outcome(shell_words, payload) == _outcome(shlex.split, payload)

    def test_vertical_tab_stays_inside_a_word(self):
        # str.split() would give four tokens here
        assert shell_words("qstat -f 1.a\x0b2.a") == ["qstat", "-f", "1.a\x0b2.a"]


def _states(adapter, output):
    """Every state an output reports: each of its units parsed, in output
    order, the later unit naming a job winning."""
    return dict(filter(None, map(adapter.parse_unit, adapter.parse_status(output))))


def _plain_sacct_parse(output):
    """What SimSlurmAdapter reads from a whole sacct output, one line at a
    time, with no units."""
    states = {}
    for line in output.splitlines():
        if not line.strip():
            continue
        job_id, state, exitcode = line.split("|")
        neutral = SimSlurmAdapter._STATE_MAP[state]
        code = int(exitcode.split(":")[0]) if neutral in ("completed", "failed") else None
        states[job_id] = (neutral, code)
    return states


_SACCT_LINE = st.one_of(
    st.builds("{}|{}|{}:0".format, st.sampled_from(["1", "2", "17", " 3", "4\x0b5"]),
              st.sampled_from([*SimSlurmAdapter._STATE_MAP, "BOGUS"]),
              st.sampled_from(["0", "3", "271", "x"])),
    st.text(alphabet=st.sampled_from("12|:PENDIG \t\x0b")),
)


class TestSlurmStatusParse:
    adapter = SimSlurmAdapter()

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_SACCT_LINE, max_size=8), st.sampled_from(["\n", "\r\n", "\x0b"]))
    @example(["1|PENDING|0:0", "", "2|FAILED|3:0"], "\n")
    @example(["1|PENDING|0:0", "2|RUNNING"], "\n")
    def test_same_states_as_a_plain_parse_or_same_error(self, lines, newline):
        output = newline.join(lines)
        assert (_outcome(lambda text: _states(self.adapter, text), output)
                == _outcome(_plain_sacct_parse, output))


def _plain_qstat_parse(output):
    """What SimPbsAdapter reads from a whole qstat output, one line at a
    time, with no units."""
    states = {}
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


# Lines of qstat -f output: "Job Id:" lines with empty, padded, repeated or
# odd ids; job_state with known and unknown letters; exit_status with good
# and malformed codes; and free text, so some text comes before any Job Id.
_QSTAT_LINE = st.one_of(
    st.builds("Job Id:{}".format, st.sampled_from(["", " ", "\t", " 1.a", "2.a", " 1.a\r",
                                                   "3.b\x0b4", " \xa0"])),
    st.builds("    job_state = {}".format, st.sampled_from(["Q", "R", "C", "E", "", "Q\r"])),
    st.builds("    exit_status = {}".format, st.sampled_from(["0", "3", "271", "-1", "x", "",
                                                               " 7\r"])),
    st.text(alphabet=st.sampled_from("Job Id:=\r \t12QR_state")),
)


class TestPbsStatusParse:
    adapter = SimPbsAdapter()

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_QSTAT_LINE, max_size=10), st.sampled_from(["\n", "\r\n"]))
    @example(["Job Id:", "    exit_status = x", "Job Id: 1.a", "    job_state = R"], "\n")
    @example(["junk", "    exit_status = 3", "Job Id: 1.a", "    exit_status = 0"], "\n")
    @example(["Job Id: 1.a", "    job_state = R", "Job Id: 2.a", "    job_state = Q",
              "Job Id: 1.a", "    job_state = Z"], "\n")
    @example(["Job Id: 1.a", "    exit_status = 1.5"], "\r\n")
    def test_same_states_as_a_plain_parse_or_same_error(self, lines, newline):
        output = newline.join(lines)
        assert (_outcome(lambda text: _states(self.adapter, text), output)
                == _outcome(_plain_qstat_parse, output))


def _lrm(name, adapter):
    resource = ResourceDescriptor(
        name=name, kind="hpc_cluster", lrm="batch", allows_incoming_connections=False,
        node_count=4, dialect=adapter.name,
        queue_model=QueueModel("fixed", {"value": 10.0}),
    )
    clock = SimClock()
    return clock, SimulatedLrm(clock, resource, random.Random(0), TraceLog(clock))


@pytest.mark.parametrize("adapter, name", [
    (SimPbsAdapter(), "pbs\xa0east"),
    (SimPbsAdapter(), "pbs\u3000x\x0by\x85z"),
    (SimSlurmAdapter(), "slurm\xa0east"),
], ids=["pbs-nbsp", "pbs-unicode-spaces", "slurm"])
def test_status_round_trip(adapter, name):
    clock, lrm = _lrm(name, adapter)

    def submit(*command):
        return adapter.parse_submit(lrm.execute(adapter.format_submit(list(command), 1, "j")))

    done, failed, running, canceled = (submit("sleep", "1"), submit("fail", "1", "3"),
                                       submit("sleep", "100"), submit("sleep", "1"))
    lrm.execute(adapter.format_cancel(canceled))
    clock.run_until(12.0)
    queued = submit("sleep", "1")
    ids = [done, failed, running, canceled, queued]
    if adapter.name == "sim-pbs":
        assert all(native_id.endswith("." + name) for native_id in ids)

    observed = _states(adapter, lrm.execute(adapter.format_status(ids)))
    assert observed == {
        done: ("completed", 0),
        failed: ("failed", 3),
        running: ("running", None),
        canceled: ("canceled", None),
        queued: ("queued", None),
    }
    assert {i: observed[i][0] for i in ids} == {i: lrm.jobs[i].state for i in ids}


# Command words where the two sides could part: quotes, backslashes, option
# words of both dialects, --wrap and --, empty words, spaces inside a word,
# non-ASCII spaces, and plain shell-safe words.
_COMMAND_WORD = st.one_of(
    st.sampled_from(["sleep", "fail", "1", "12.5", "--nodes=5", "--nodes=5x", "--job-name=evil",
                     "--wrap", "--", "-l", "nodes=2", "-N", "", "'", '"', "\\", "a b", "it's",
                     "\xa0", "x\u3000y", "\x0b", "sbatch"]),
    st.text(alphabet=st.sampled_from(_PAYLOAD_ALPHABET + "@%+:/_ \u2003"), max_size=6))
# What format_submit writes a job name as: one shell-safe word, as the middleware's job ids are.
_JOB_NAME = st.from_regex(r"[\w@%+=:,./-]{1,8}", fullmatch=True).filter(str.isascii)
_NEVER = re.compile(r"(?!)")


def _reference_submit(adapter, command, nodes, name):
    """The submit text as shlex writes it."""
    if adapter.name == "sim-pbs":
        return f"qsub -l nodes={nodes} -N {name} -- {shlex.join(command)}"
    return f"sbatch --nodes={nodes} --job-name={name} --wrap {shlex.quote(shlex.join(command))}"


def _variants(adapter, command, nodes, name):
    """Other texts of the same submit, outside the canonical form: options
    reordered, quoted or unknown ones added, spaces and tabs doubled, and no
    node count (one node); each with the (nodes, name, command) it means."""
    if adapter.name == "sim-pbs":
        tail = ["--", *map(shlex.quote, command)]
        texts = [(["qsub", "-N", name, "-l", f"nodes={nodes}", *tail], nodes),
                 (["qsub", "-q", "batch", "-l", f"'nodes={nodes}'", "-N", name, *tail], nodes),
                 (["qsub", "-N", name, *tail], 1)]
    else:
        tail = ["--wrap", shlex.quote(shlex.join(command))]
        texts = [(["sbatch", f"--job-name={name}", f"--nodes={nodes}", *tail], nodes),
                 (["sbatch", "--partition=x", f"'--nodes={nodes}'", f"--job-name={name}", *tail],
                  nodes),
                 (["sbatch", f"--job-name={name}", *tail], 1)]
    return [(sep.join(words), (n, name, command)) for words, n in texts for sep in (" ", " \t ")]


class TestSubmitGrammar:
    """Each dialect's format_submit writes what shlex would, and its LRM reads
    back the job it describes, by the one-match reader or the general route."""

    @settings(max_examples=400, deadline=None)
    @given(pbs=st.booleans(), command=st.lists(_COMMAND_WORD, max_size=5),
           nodes=st.integers(1, 10 ** 6), name=_JOB_NAME)
    @example(pbs=False, command=["--nodes=5"], nodes=1, name="j000001")
    @example(pbs=False, command=["--job-name=evil"], nodes=1, name="j000001")
    @example(pbs=False, command=["sleep", "--wrap"], nodes=2, name="j")
    @example(pbs=True, command=["--", "-l", "nodes=2"], nodes=1, name="j")
    @example(pbs=False, command=[], nodes=1, name="j")
    @example(pbs=True, command=[], nodes=1, name="j")
    @example(pbs=False, command=[""], nodes=1, name="j")
    def test_submit_text_is_shlex_s_and_reads_back_as_the_job(self, pbs, command, nodes, name):
        adapter = SimPbsAdapter() if pbs else SimSlurmAdapter()
        general = type(adapter)()
        general._SUBMIT = _NEVER  # the general route alone
        payload = adapter.format_submit(command, nodes, name)
        assert payload == _reference_submit(adapter, command, nodes, name)
        job = (nodes, name, command)
        assert adapter.read_submit(payload) == general.read_submit(payload) == job
        # the one-match reader takes it exactly when no word needs quoting
        safe = all(re.fullmatch(r"[\w@%+=:,./-]+", word, re.ASCII) for word in command)
        assert (adapter._SUBMIT.fullmatch(payload) is not None) == safe
        for variant, meant in [(payload, job), *_variants(adapter, command, nodes, name)]:
            assert variant == payload or adapter._SUBMIT.fullmatch(variant) is None
            assert adapter.read_submit(variant) == meant
            clock, lrm = _lrm("c", adapter)
            native_id = adapter.parse_submit(lrm.execute(variant))
            queued = lrm.jobs[native_id]
            assert (queued.node_count, queued.name, list(queued.command)) == meant


@pytest.mark.parametrize("command", [["--nodes=5"], ["--job-name=evil"], ["--nodes=5x"],
                                     ["sleep", "1", "--wrap", "x"]])
def test_sbatch_reads_no_option_after_wrap(command):
    adapter = SimSlurmAdapter()
    clock, lrm = _lrm("c", adapter)
    native_id = adapter.parse_submit(lrm.execute(adapter.format_submit(command, 1, "j1")))
    job = lrm.jobs[native_id]
    assert (job.node_count, job.name, job.command) == (1, "j1", tuple(command))


@pytest.mark.parametrize("payload", [
    "qsub -l nodes=x -N j -- sleep 1", "qsub -l nodes=0 -N j -- sleep 1",
    "qsub -N j -- sleep 'a", "sbatch --nodes=5x --job-name=j --wrap 'sleep 1'",
    "sbatch --nodes=0 --wrap 'sleep 1'", "sbatch --job-name=j --wrap",
    "sbatch --wrap 'sleep 1' extra", "sbatch --wrap \"'\"", "sbatch --wrap 'sleep 1",
    "qstat -f '1.c", "sacct --jobs=\"1", "scancel 1\\"])
def test_a_command_line_the_lrm_cannot_read_is_a_transport_error(payload):
    pbs = payload.startswith("q")
    adapter = SimPbsAdapter() if pbs else SimSlurmAdapter()
    clock, lrm = _lrm("c", adapter)
    with pytest.raises(TransportError):
        lrm.execute(payload)
    assert lrm.jobs == {} and lrm._counter == 0


def _held_lrm(policy):
    """A Slurm LRM whose every submission lands in a maintenance window."""
    resource = ResourceDescriptor(
        name="maint", kind="hpc_cluster", lrm="batch", allows_incoming_connections=False,
        dialect="sim-slurm", queue_model=QueueModel("fixed", {"value": 10.0}, maintenance_windows=((0.0, 1000.0),),
                               maintenance_policy=policy),
    )
    clock = SimClock()
    return clock, SimulatedLrm(clock, resource, random.Random(0), TraceLog(clock))


@pytest.mark.parametrize("setup", ["queued", "running", "maintenance_fail", "maintenance_hold"])
def test_cancel_drops_the_jobs_one_pending_event(setup):
    if setup.startswith("maintenance"):
        clock, lrm = _held_lrm(setup.split("_")[1])
    else:
        clock, lrm = _lrm("c", SimSlurmAdapter())
    native_id = lrm.execute("sbatch --job-name=j --wrap 'sleep 100'").split()[-1]
    if setup == "running":
        clock.run_until(10.0)
    assert lrm.jobs[native_id].state == ("running" if setup == "running" else "queued")
    live = clock._live
    lrm.cancel(native_id)
    assert clock._live == live - 1
    finished = [ev.fields for ev in lrm.trace if ev.kind == "backend_job_finished"]
    assert [(f["native_id"], f["state"]) for f in finished] == [(native_id, "canceled")]
    clock.run_until(5000.0)  # nothing left to fire for the job
    assert lrm.trace.count("backend_job_finished") == 1
    assert lrm.trace.count("backend_job_started") == (setup == "running")


def _line(adapter):
    """What renders a job's status line in ``adapter``'s dialect."""
    return cluster._qstat_block if adapter.name == "sim-pbs" else cluster._sacct_line


def _counted_lrm(adapter):
    """An LRM whose jobs wait 10 s, the list its status renders append to,
    and a submit helper."""
    clock, lrm = _lrm("c", adapter)
    renders = []
    for tool in ("_qstat", "_sacct"):
        render = getattr(lrm, tool)
        setattr(lrm, tool, lambda args, render=render: renders.append(args) or render(args))

    def submit(*command):
        return adapter.parse_submit(lrm.execute(adapter.format_submit(list(command), 1, "j")))

    return clock, lrm, renders, submit


@pytest.mark.parametrize("write", ["enqueue", "start", "finish", "cancel_queued",
                                   "cancel_running"])
@pytest.mark.parametrize("adapter", [SimPbsAdapter(), SimSlurmAdapter()], ids=["pbs", "slurm"])
def test_a_job_write_between_equal_status_queries_renders_again(adapter, write):
    clock, lrm, renders, submit = _counted_lrm(adapter)
    first = submit("sleep", "5")
    query = adapter.format_status([first, first.replace("1", "2", 1)])  # the next id, too
    if write in ("finish", "cancel_running"):
        clock.run_until(10.0)
    before = lrm.execute(query)
    assert lrm.execute(query) is before and len(renders) == 1  # kept, not rendered

    if write == "enqueue":
        submit("sleep", "5")
    elif write == "start":
        clock.run_until(10.0)
    elif write == "finish":
        clock.run_until(15.0)
    else:
        lrm.execute(adapter.format_cancel(first))
    after = lrm.execute(query)
    assert after != before and len(renders) == 2
    assert after == "\n".join(map(_line(adapter), lrm.jobs.values()))


@pytest.mark.parametrize("write", ["start", "finish", "cancel_queued", "cancel_running"])
@pytest.mark.parametrize("adapter", [SimPbsAdapter(), SimSlurmAdapter()], ids=["pbs", "slurm"])
def test_a_job_write_swaps_its_line_in_a_large_kept_answer(adapter, write):
    # past _PATCH_MIN_CHARS of output, a written job's line is swapped, and a
    # query that then leaves the ended job out has its line cut: no render
    clock, lrm, renders, submit = _counted_lrm(adapter)
    ids = [submit("sleep", "5") for _ in range(200)]
    line = _line(adapter)
    if write in ("finish", "cancel_running"):
        clock.run_until(10.0)
    before = lrm.execute(adapter.format_status(ids))
    assert len(before) >= cluster._PATCH_MIN_CHARS and len(renders) == 1
    if write == "start":
        clock.run_until(10.0)
    elif write == "finish":
        clock.run_until(15.0)
    else:
        lrm.execute(adapter.format_cancel(ids[50]))
    after = lrm.execute(adapter.format_status(ids))
    assert after != before and after == "\n".join(line(lrm.jobs[i]) for i in ids)
    ended = [i for i in ids if lrm.jobs[i].state in ("completed", "canceled")]
    assert bool(ended) == (write != "start") and len(renders) == 1
    left = [i for i in ids if i not in ended]
    assert lrm.execute(adapter.format_status(left)) == "\n".join(line(lrm.jobs[i]) for i in left)
    assert len(renders) == 1


@pytest.mark.parametrize("adapter", [SimPbsAdapter(), SimSlurmAdapter()], ids=["pbs", "slurm"])
def test_a_failed_command_keeps_the_last_status_answer(adapter):
    clock, lrm, renders, submit = _counted_lrm(adapter)
    ids = [submit("sleep", "5"), submit("sleep", "5")]
    query = adapter.format_status(ids)
    before = lrm.execute(query)
    # the other dialect's tools are unknown commands here, as any other is
    other = SimSlurmAdapter() if adapter.name == "sim-pbs" else SimPbsAdapter()
    foreign = [other.format_status(ids), other.format_submit(["sleep", "5"], 1, "j"),
               other.format_cancel(ids[0])]
    for payload in ("", " \t", "frobnicate 1", *foreign):
        with pytest.raises(TransportError):
            lrm.execute(payload)
    assert lrm.execute(query) is before
    # a cancel of an id the LRM never issued writes nothing either
    assert lrm.execute(adapter.format_cancel("99")) == ""
    assert lrm.execute(query) is before
    assert len(renders) == 1


def test_a_status_command_whose_words_after_the_id_list_change_is_answered_afresh():
    # the ids go on, but a later --jobs= word of the same length replaces them
    adapter = SimSlurmAdapter()
    clock, lrm = _lrm("c", adapter)
    for _ in range(2):
        lrm.execute(adapter.format_submit(["sleep", "5"], 1, "j"))
    assert lrm.execute("sacct --jobs=1 --noheader") == "1|PENDING|0:0"
    assert lrm.execute("sacct --jobs=1,2 --jobs=345") == ""


# Forms of a job's id a status query may name that tokenize otherwise: with
# characters that quote, escape, end or split a word, as an option qstat
# skips, and inside another word.
_ODD_FORMS = ["'{}'", '"{}"', "'{} {}'", "{}\\ x", "{} {}", "{},{}", "-{}", "{}\x0b", "x{}", ""]

_LRM_OPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(["1", "5", "30"])),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 5.0, 10.0, 40.0])),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.sampled_from(["again", "again", "again", "append", "append", "ahead", "odd",
                               "drop", "all", "only", "trailer", "raw", "ended", "ended",
                               "ended"]),
              st.integers(1, 3), st.sampled_from(_ODD_FORMS)),
    st.tuples(st.sampled_from(["again", "ended"]), st.just(1), st.just("")),
), max_size=40)


def _q(how, n=1, form=""):
    return (how, n, form)


def _own(pbs):
    """A pinned example's LRM dialect, and every answer patched."""
    return {"pbs": pbs, "patch_min": 0}


@settings(max_examples=500, deadline=None)
@given(ops=_LRM_OPS, pbs=st.booleans(),
       patch_min=st.sampled_from([0, 0, cluster._PATCH_MIN_CHARS]))
# an unknown id, then a known one appended, and then the unknown one enqueued
@example(ops=[("submit", "5"), _q("all"), _q("ahead"), _q("append"), ("submit", "5"), _q("again")],
         **_own(False))
# a quote, or a quoted space, in the appended ids or before them
@example(ops=[("submit", "5"), _q("all"), _q("odd", form="'{}'")], **_own(False))
@example(ops=[("submit", "5"), _q("odd", form="'{} {}'"), _q("append")], **_own(False))
# an id appended to a trailing word that holds "--jobs=", quoted or not, or after a space
@example(ops=[("submit", "5"), _q("all"), _q("trailer"), _q("raw")], **_own(False))
@example(ops=[("submit", "5"), _q("all"), _q("trailer", n=2), _q("raw")], **_own(False))
@example(ops=[("submit", "5"), _q("all"), _q("odd", form="{} {}")], **_own(False))
# an appended id that str.split would end at a character shlex keeps in it
@example(ops=[("submit", "5"), _q("all"), _q("odd", form="{}\x0b")], **_own(True))
# a written job named twice: its line occurs twice in the kept answer
@example(ops=[("submit", "30"), _q("odd", form="{},{}"), ("advance", 10.0), _q("again")],
         **_own(False))
# job 1 starts while the kept answer names job 11 only, whose line holds job 1's
@example(ops=[("submit", "30"), ("advance", 5.0), *[("submit", "30")] * 10, _q("only"),
              ("advance", 5.0), _q("again")], **_own(False))
# a PBS block of two lines becomes one of three, then leaves the query, which
# goes on with an id appended
@example(ops=[("submit", "30"), ("submit", "30"), _q("all"), ("cancel", 0), _q("again"),
              ("submit", "30"), _q("ended", n=2)], **_own(True))
def test_kept_status_answers_match_a_plain_render(ops, pbs, patch_min):
    # Queries repeat, extend or drop the ids of the one before, across job
    # starts, finishes and cancels, and name ids before they are enqueued.
    # An "ended" query leaves out the ids of jobs that ended, as a poll does.
    # A "trailer" query ends in an option that holds "--jobs=", and a "raw" one
    # appends an id to the last payload's text. Each answer must be the one the
    # LRM renders with no answer kept. With ``patch_min`` 0, every kept answer is patched on a
    # write, however short.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_PATCH_MIN_CHARS", patch_min)
        _check_kept_answers(ops, pbs)


def _check_kept_answers(ops, pbs):
    adapter = SimPbsAdapter() if pbs else SimSlurmAdapter()
    line = _line(adapter)
    clock, lrm = _lrm("c", adapter)
    named, payload = [], None
    for op, *args in ops:
        if op == "submit":
            lrm.execute(adapter.format_submit(["sleep", args[0]], 1, "j"))
            continue
        if op == "advance":
            clock.advance(args[0])
            continue
        known = list(lrm.jobs)
        some = known[args[0] % len(known)] if known else "1"
        if op == "cancel":
            lrm.execute(adapter.format_cancel(some))
            continue
        n, form = args
        if op == "append":
            named += known[-n:]
        elif op == "ahead":  # ids the next submits get
            named += [f"{lrm._counter + i}{'.c' if pbs else ''}" for i in range(1, n + 1)]
        elif op == "odd":
            named.append(form.format(some, some))
        elif op == "drop":
            named = named[n:]
        elif op == "all":
            named = known
        elif op == "only":
            named = known[-n:]
        elif op == "ended":  # every id of a job that ended, or (n = 3) the first one
            ended = [i for i in named if i in lrm.jobs and lrm.jobs[i].state in (
                "completed", "failed", "canceled")][:1 if n == 3 else None]
            named = [i for i in named if i not in ended] + known[-1:] * (n == 2)
        if op == "raw" and payload is not None:
            payload += (" " if pbs else ",") + some
        else:
            trailer = (" -x--jobs={}", " '-x --jobs={}'")[n % 2].format(some)
            payload = adapter.format_status(named) + (trailer if op == "trailer" else "")
        kept = lrm._answer, lrm._notes
        lrm._answer, lrm._notes = None, {}
        plain = _outcome(lrm.execute, payload)
        lrm._answer, lrm._notes = kept
        assert _outcome(lrm.execute, payload) == plain
        if op != "raw" and all(i in known or i.rstrip(".c").isdigit() for i in named):
            assert plain == "\n".join(line(lrm.jobs[i]) for i in named if i in lrm.jobs)
