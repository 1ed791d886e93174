"""Append-only run trace.

Every component writes its observable actions here; the trace is the
ground truth that counters and acceptance checks are recounted against.
Serialized as ndjson, one ``{"t": ..., "seq": ..., "kind": ..., ...}``
object per line, with sorted keys so identical runs produce identical
bytes.

What is stored is one plain record per event: the keyword dict ``emit``
was called with, with ``t``, ``seq`` and ``kind`` set on it. Each record
sits in the log and in its kind's list, so ``count(kind)`` is a length and
a reader that needs some kinds (``ScenarioMetrics.from_trace``,
``Transport.log_text``, ``DmsCache.transfer_log``) reads them with
``records(kind)`` and never scans the rest. Nothing is encoded at emit:
``to_ndjson`` encodes every record once, when the trace is written.
Iterating the log yields ``TraceEvent`` views, built on demand.

Every kind is declared once in ``KINDS``, with the layer that emits it and
its field names; ``emit`` does not check them, the tests do.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterator

# One encoder for every event: json.dumps with these options would build a
# new, identically configured JSONEncoder per call.
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

    def _encode(record: dict) -> str:
        return "".join(_c_encoder(record, 0))


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


class TraceLog:
    def __init__(self, clock):
        self._clock = clock
        self._records: list[dict[str, Any]] = []
        self._by_kind: defaultdict[str, list[dict[str, Any]]] = defaultdict(list)

    def emit(self, kind: str, **fields: Any) -> None:
        fields["t"] = self._clock.now
        fields["seq"] = len(self._records)
        fields["kind"] = kind
        self._records.append(fields)
        self._by_kind[kind].append(fields)

    def emit_each(self, times, kind: str, events: list[dict[str, Any]]) -> None:
        """At each of ``times`` in turn, emit one ``kind`` event with each of
        ``events``' fields, in order: the records ``emit`` would make if
        called so with the clock at each time."""
        records, same_kind = self._records, self._by_kind[kind]
        for t in times:
            for fields in events:
                record = {**fields, "t": t, "seq": len(records), "kind": kind}
                records.append(record)
                same_kind.append(record)

    def count(self, kind: str) -> int:
        """Events of ``kind`` emitted so far."""
        return len(self._by_kind.get(kind, ()))

    def records(self, kind: str) -> list[dict[str, Any]]:
        """The records of ``kind``, in emit order: ``t``, ``seq`` and
        ``kind`` beside the event's fields. The dicts are the log's own;
        a reader must not change them."""
        return list(self._by_kind.get(kind, ()))

    def __iter__(self) -> Iterator[TraceEvent]:
        for record in self._records:
            yield TraceEvent(record["t"], record["seq"], record["kind"],
                             {k: v for k, v in record.items() if k not in _HEADER})

    def __len__(self) -> int:
        return len(self._records)

    def to_ndjson(self) -> bytes:
        if not self._records:
            return b""
        return ("\n".join(map(_encode, self._records)) + "\n").encode("utf-8")

    def write(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_ndjson())
