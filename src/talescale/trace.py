"""Append-only run trace.

Every component writes its observable actions here; the trace is the
ground truth that counters and acceptance checks are recounted against.
Serialized as ndjson, one ``{"t": ..., "seq": ..., "kind": ..., ...}``
object per line, with sorted keys so identical runs produce identical
bytes.

Two things are stored, in emit order, one entry per call in the log and
one in its kind's list. ``emit`` stores a plain record: the keyword dict it
was called with, with ``t``, ``seq`` and ``kind`` set on it. ``emit_each``
stores a run: the records of a repeated call as one object (its kind, its
fields dicts, its times and its first ``seq``), which builds no dict per
record, so a run of any length costs one entry. ``seq`` counts records, not
entries. A reader that needs some kinds (``ScenarioMetrics.from_trace``,
``Transport.log_text``, ``DmsCache.transfer_log``) reads them with
``records(kind)`` or ``tally(kind)`` and never scans the rest. Iterating
the log yields ``TraceEvent`` views, built on demand.

Nothing is encoded at emit. ``to_ndjson`` writes every line from the
template of its record's shape: its key tuple, in insertion order, compiled
once per process. The sorted key text is literal; an exact ``str``,
``int``, ``float``, ``bool`` or ``None`` value is written by ``json``'s
rules, and any other value by the ``json`` encoder. A run's shape has its
values written once per fields dict, leaving ``seq`` and ``t`` open. The
text of a time is made once per instant: records of one instant share the
clock's ``now`` object.

Every kind is declared once in ``KINDS``, with the layer that emits it and
its field names; ``emit`` does not check them, the tests do.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterable, Iterator

# The encoder for values the templates do not write: json.dumps with these
# options would build a new, identically configured JSONEncoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

if c_make_encoder is None:
    _encode = _ENCODER.encode
else:
    # JSONEncoder.encode builds a C encoder per call; build it once, with the
    # arguments iterencode(..., _one_shot=True) passes, but for the
    # circularity markers: a shared markers dict would be module state every
    # call mutates, and without it a circular field fails with RecursionError
    # instead of ValueError. Trace fields are never circular.
    _c_encoder = c_make_encoder(
        None, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
        _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
        _ENCODER.skipkeys, _ENCODER.allow_nan)

    def _encode(value: Any) -> str:
        return "".join(_c_encoder(value, 0))


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float, float_repr=float.__repr__, word=_FLOAT_WORDS.get) -> str:
    text = float_repr(value)
    return word(text, text)


# The JSON text of a value of each exact atom type, by json's rules.
_ATOM_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
              bool: {False: "false", True: "true"}.__getitem__, type(None): lambda _: "null"}


def _text(value: Any, atom=_ATOM_TEXT.get) -> str:
    """``value``'s JSON text as the encoder writes it inside a record: an
    atom of an exact type by ``json``'s rules, anything else (a ``str`` or
    ``int`` subclass, a container) by the encoder itself."""
    return atom(type(value), _encode)(value)


def _template(keys: tuple[str, ...]):
    """The line template of one key tuple, in the record's insertion order:
    ``render(record, t_text)`` writes a record of this shape given its
    time's text. It is generated code whose names are positions only: the
    text around the values (``{"a":``, ``,"b":``, ..., ``}``) comes in as
    arguments, as ``dataclasses`` and ``namedtuple`` build theirs, so no key
    or value text is ever source. It inlines ``_text``'s two commonest
    cases, an exact ``str`` and an exact ``int``, and writes ``seq``
    directly."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    literals = [("," if n else "{") + encode_basestring_ascii(keys[i]) + ":"
                for n, i in enumerate(order)] + ["}"]
    holes = [f"v{i}" if keys[i] == "seq" else "t_text" if keys[i] == "t" else
             f"e(v{i}) if type(v{i}) is str else v{i} if type(v{i}) is int else x(v{i})"
             for i in order]
    names = [f"p{n}" for n in range(len(literals))]
    line = "".join(f"{{{p}}}{{{hole}}}" for p, hole in zip(names, holes)) + f"{{{names[-1]}}}"
    source = (f"def make(e, x, {', '.join(names)}):\n"
              f" def render(record, t_text):\n"
              f"  {''.join(f'v{i}, ' for i in range(len(keys)))}= record.values()\n"
              f"  return f'{line}'\n"
              f" return render\n")
    namespace: dict[str, Any] = {}
    exec(source, {}, namespace)
    return namespace["make"](encode_basestring_ascii, _text, *literals)


class _Shapes(dict):
    """Each key tuple's template, compiled on first use and kept for the
    process: compiling one takes 0.25-0.5 ms, and a template depends on its
    keys alone, so logs that share it write the same text. Declared kinds
    give a few dozen; the bound only keeps arbitrary keys from growing it."""

    def __missing__(self, keys: tuple[str, ...]):
        if len(self) >= 4096:
            self.clear()
        render = self[keys] = _template(keys)
        return render


_SHAPES = _Shapes()


def _record_lines(records: list[dict[str, Any]]) -> Iterator[str]:
    """Each plain record's line, from its shape's template. The time's text
    is made once per instant, while ``t`` is the previous record's object:
    records of one instant share the clock's ``now``. Never ``==``: ``0.0
    == -0.0`` and ``5 == 5.0``, but their text differs."""
    shapes, last, t_text = _SHAPES, object(), ""
    for record in records:
        t = record["t"]
        if t is not last:
            last, t_text = t, _text(t)
        yield shapes[tuple(record)](record, t_text)


# Keys every record carries beside its fields.
_HEADER = frozenset(("t", "seq", "kind"))


@dataclass(frozen=True)
class TraceKind:
    """A declared event kind: the layer that emits it, and the field names
    its events carry. A kind emitted on two paths lists one shape each."""

    layer: str
    shapes: tuple[tuple[str, ...], ...]


def _kind(layer: str, *shapes: tuple[str, ...]) -> TraceKind:
    return TraceKind(layer, shapes)


KINDS: dict[str, TraceKind] = {
    "handshake": _kind("transport", ("resource", "credential")),
    "handshake_failed": _kind("transport", ("resource", "credential")),
    "transport_call": _kind("transport", ("resource", "credential", "verb", "payload_digest")),
    "transport_failed": _kind("transport", ("resource", "credential", "verb")),
    "backend_job_queued": _kind("cluster", ("resource", "native_id", "name", "nodes", "wait")),
    "backend_job_started": _kind("cluster", ("resource", "native_id", "name", "nodes")),
    "backend_job_finished": _kind("cluster",
                                  ("resource", "native_id", "name", "state", "exit_code")),
    "job_submitted": _kind("middleware", ("job_id", "resource", "credential", "tale_id")),
    "job_transition": _kind("middleware",
                            ("job_id", "resource", "from_state", "to_state", "exit_code")),
    "poll_failed": _kind("middleware", ("resource", "reason")),
    "pilot_submitted": _kind("pilots", ("resource", "slot", "job_id")),
    "pilot_submit_failed": _kind("pilots", ("resource", "slot")),
    "pilot_warm": _kind("pilots", ("resource", "slot")),
    "pilot_expired": _kind("pilots", ("resource", "slot", "reason")),
    # The world starts a workload on the LRM; the pool starts one on a pilot
    # slot on the world's behalf.
    "workload_started": _kind("world", ("resource", "via", "latency", "tale_id", "job_id"),
                              ("resource", "via", "slot", "latency", "tale_id")),
    "workload_finished": _kind("pilots", ("resource", "via", "slot", "exit_code", "tale_id")),
    "mount": _kind("world", ("uri", "resource")),
    "cache_hit": _kind("dms", ("uri",)),
    "cache_evict": _kind("dms", ("uri", "bytes")),
    "transfer_start": _kind("dms", ("uri", "bytes", "source")),
    "transfer_complete": _kind("dms", ("uri", "bytes", "source")),
    "transfer_failed": _kind("dms", ("uri", "reason")),
    "route_registered": _kind("proxy", ("tale_id", "public_path", "resource")),
    "route_deregistered": _kind("proxy", ("tale_id",)),
    "proxy_forward": _kind("proxy", ("public_path", "tale_id", "resource", "node", "port",
                                     "request_bytes", "response_bytes",
                                     "request_digest", "response_digest")),
    "frontend_ready": _kind("measure", ("model", "resource", "time_to_frontend_s")),
}


@dataclass(frozen=True)
class TraceEvent:
    """A read-only view of one record."""

    t: float
    seq: int
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)


class _Run:
    """``emit_each``'s record of one call: the ``kind`` records with each of
    ``events``' fields at each of ``times`` in turn, numbered from ``seq``.
    ``times`` is a sized, iterable sequence, kept as it is: a list, or a
    run-ahead's lazy grid, whose floats are made only when the run is read
    or written. ``events`` may be shared with the caller; nothing here
    changes it."""

    __slots__ = ("kind", "events", "times", "seq")

    def __init__(self, kind: str, events: list[dict[str, Any]], times, seq: int):
        self.kind, self.events, self.times, self.seq = kind, events, times, seq

    def __len__(self) -> int:
        return len(self.times) * len(self.events)

    def expand(self) -> Iterator[tuple[float, int, dict[str, Any]]]:
        """Each record's time, ``seq`` and fields, in emit order."""
        seq = self.seq
        for t in self.times:
            for fields in self.events:
                yield t, seq, fields
                seq += 1

    def lines(self) -> list[str]:
        """The run's ndjson lines, as ``to_ndjson`` writes plain records:
        each fields dict's line is rendered once with a NUL for ``seq`` and
        for ``t`` and split there (JSON text escapes every NUL it holds), and
        each time's text is made once, at C level when every time is a
        finite float: ``float.__repr__`` is json's rule for those."""
        try:
            times = list(map(float.__repr__, self.times))
        except TypeError:  # a time that is not a float
            times = None
        if times is None or not _FLOAT_WORDS.keys().isdisjoint(times):
            times = list(map(_text, self.times))
        step, end = len(self.events), self.seq + len(self)
        out: list[str] = [""] * len(self)
        for i, fields in enumerate(self.events):
            record = {**fields, "t": None, "seq": "\0", "kind": self.kind}
            head, middle, tail = _SHAPES[tuple(record)](record, "\0").split("\0")
            out[i::step] = [f"{head}{seq}{middle}{t}{tail}"
                            for seq, t in zip(range(self.seq + i, end, step), times)]
        return out


class TraceLog:
    def __init__(self, clock):
        self._clock = clock
        self._seq = 0  # records emitted so far
        self._records: list[dict[str, Any] | _Run] = []
        self._by_kind: defaultdict[str, list[dict[str, Any] | _Run]] = defaultdict(list)
        self._run_extra = defaultdict(int)  # by kind: run records beyond one per run
        self._run_at: list[int] = []  # each run's index in _records

    def emit(self, kind: str, **fields: Any) -> None:
        fields["t"] = self._clock.now
        fields["seq"] = self._seq
        self._seq += 1
        fields["kind"] = kind
        self._records.append(fields)
        self._by_kind[kind].append(fields)

    def emit_each(self, times, kind: str, events: list[dict[str, Any]]) -> None:
        """At each of ``times`` in turn, emit one ``kind`` event with each of
        ``events``' fields, in order: the records ``emit`` would make if
        called so with the clock at each time. They are stored as one run,
        which keeps ``times`` and ``events`` as they are; the caller must
        not change them after."""
        run = _Run(kind, events, times, self._seq)
        if size := len(run):
            self._seq += size
            self._run_extra[kind] += size - 1
            self._run_at.append(len(self._records))
            self._records.append(run)
            self._by_kind[kind].append(run)

    def count(self, kind: str) -> int:
        """Events of ``kind`` emitted so far."""
        return len(self._by_kind.get(kind, ())) + self._run_extra.get(kind, 0)

    def records(self, kind: str) -> list[dict[str, Any]]:
        """The records of ``kind``, in emit order: ``t``, ``seq`` and
        ``kind`` beside the event's fields. A plain record is the log's own
        dict, which a reader must not change; a run's records are built
        fresh, so a reader that only counts should use ``tally``."""
        out = []
        for entry in self._by_kind.get(kind, ()):
            if type(entry) is dict:
                out.append(entry)
            else:
                out += ({**fields, "t": t, "seq": seq, "kind": kind}
                        for t, seq, fields in entry.expand())
        return out

    def tally(self, kind: str) -> Iterator[tuple[dict[str, Any], int]]:
        """The records of ``kind`` as (fields, repeats) pairs, for a reader
        that counts fields: each plain record once, and each of a run's
        fields dicts (without ``t``, ``seq`` and ``kind``) with its run's
        number of times. No run is expanded; no dict may be changed."""
        for entry in self._by_kind.get(kind, ()):
            if type(entry) is dict:
                yield entry, 1
            else:
                times = len(entry.times)
                for fields in entry.events:
                    yield fields, times

    def __iter__(self) -> Iterator[TraceEvent]:
        for entry in self._records:
            if type(entry) is dict:
                yield TraceEvent(entry["t"], entry["seq"], entry["kind"],
                                 {k: v for k, v in entry.items() if k not in _HEADER})
            else:
                for t, seq, fields in entry.expand():
                    yield TraceEvent(t, seq, entry.kind, dict(fields))

    def __len__(self) -> int:
        return self._seq

    def to_ndjson(self) -> bytes:
        """The trace as ndjson: each record's line, as ``json.dumps(record,
        sort_keys=True, separators=(",", ":"))`` would write it, from its
        shape's template (see the module docstring), and a final newline."""
        if not self._records:
            return b""
        # Joined from a generator, so no list of lines outlives the join.
        return "\n".join(chain.from_iterable(self._line_groups())).encode("utf-8")

    def _line_groups(self) -> Iterator[Iterable[str]]:
        """The trace's lines, grouped: stretches of plain records between
        the runs' lines; then one empty line, for the final newline."""
        records, start = self._records, 0
        for at in self._run_at:
            yield _record_lines(records[start:at])
            yield records[at].lines()
            start = at + 1
        yield _record_lines(records[start:])
        yield ("",)

    def write(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_ndjson())
