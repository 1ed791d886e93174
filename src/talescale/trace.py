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
from typing import Any, Iterator

# One encoder for every event: json.dumps with these options would build a
# new, identically configured JSONEncoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TraceEvent:
    t: float
    seq: int
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        record = {"t": self.t, "seq": self.seq, "kind": self.kind}
        record.update(self.fields)
        return _ENCODER.encode(record)


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
