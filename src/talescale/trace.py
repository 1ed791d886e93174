"""Append-only run trace.

Every component writes its observable actions here; the trace is the
ground truth that counters and acceptance checks are recounted against.
Serialized as ndjson, one ``{"t": ..., "seq": ..., "kind": ..., ...}``
object per line, with sorted keys so identical runs produce identical
bytes. The log counts its events per kind as they are emitted, so a
counter read from it is O(1).
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class TraceEvent:
    t: float
    seq: int
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        record = {"t": self.t, "seq": self.seq, "kind": self.kind}
        record.update(self.fields)
        return _encode(record)


class TraceLog:
    def __init__(self, clock):
        self._clock = clock
        self._events: list[TraceEvent] = []
        self._counts: dict[str, int] = {}

    def emit(self, kind: str, **fields: Any) -> TraceEvent:
        ev = TraceEvent(t=self._clock.now, seq=len(self._events), kind=kind, fields=fields)
        self._events.append(ev)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        return ev

    def count(self, kind: str) -> int:
        """Events of ``kind`` emitted so far."""
        return self._counts.get(kind, 0)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def to_ndjson(self) -> bytes:
        return ("\n".join(ev.to_json() for ev in self._events) + "\n").encode("utf-8") if self._events else b""

    def write(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_ndjson())
