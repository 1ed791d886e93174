"""Run metrics and report emission.

The event trace is the one record of a run. ScenarioMetrics is reduced
from it by ``ScenarioMetrics.from_trace``, which reads only the kinds it
counts (``TraceLog.records`` and ``TraceLog.tally``) and never scans the
rest or expands a run of repeated polls; no component keeps a counter of
its own beside it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .errors import ValidationError

CSV_HEADER = ("model", "seed", "time_to_frontend_s", "queries", "handshakes", "transfers")

REPORT_FORMATS = ("table", "json", "csv")


@dataclass
class ScenarioMetrics:
    time_to_frontend: dict[str, list[float]] = field(default_factory=dict)
    backend_queries: dict[str, int] = field(default_factory=dict)
    handshakes: int = 0
    transfers: int = 0
    transfer_bytes: int = 0
    poll_failures: int = 0
    workload_start_latencies: list[float] = field(default_factory=list)

    @classmethod
    def from_trace(cls, trace, batch_resources, workload_start_latencies) -> "ScenarioMetrics":
        """Reduce the trace to metrics, reading only the kinds they count.

        Every name in ``batch_resources`` gets a query count, 0 included.
        ``workload_start_latencies`` is taken as given: ``World`` records
        a pilot claim's latency when it claims, before the claim's
        ``workload_started`` event fires, and a frontend launched on a
        pilot has that event but is not a workload start.
        """
        m = cls(backend_queries=dict.fromkeys(batch_resources, 0),
                workload_start_latencies=list(workload_start_latencies))
        for r, times in trace.tally("transport_call"):
            if r["verb"] == "batch_status":
                m.backend_queries[r["resource"]] += times
        m.handshakes = trace.count("handshake")
        transfers = trace.records("transfer_complete")
        m.transfers = len(transfers)
        m.transfer_bytes = sum(r["bytes"] for r in transfers)
        m.poll_failures = trace.count("poll_failed")
        for r in trace.records("frontend_ready"):
            m.time_to_frontend.setdefault(r["model"], []).append(r["time_to_frontend_s"])
        return m

    def rows(self, seed: int) -> list["ReportRow"]:
        """One row per frontend launch, by model, then in trace order; the
        counters are the run's totals."""
        queries = sum(self.backend_queries.values())
        return [ReportRow(model, seed, value, queries, self.handshakes, self.transfers)
                for model, values in sorted(self.time_to_frontend.items())
                for value in values]

    def to_dict(self) -> dict:
        return {
            "time_to_frontend": {k: list(v) for k, v in sorted(self.time_to_frontend.items())},
            "backend_queries": dict(sorted(self.backend_queries.items())),
            "handshakes": self.handshakes,
            "transfers": self.transfers,
            "transfer_bytes": self.transfer_bytes,
            "poll_failures": self.poll_failures,
            "workload_start_latencies": list(self.workload_start_latencies),
        }


@dataclass(frozen=True)
class ReportRow:
    model: str
    seed: int
    time_to_frontend_s: float
    queries: int
    handshakes: int
    transfers: int

    def as_tuple(self):
        return (self.model, self.seed, self.time_to_frontend_s,
                self.queries, self.handshakes, self.transfers)

    def to_dict(self) -> dict:
        return dict(zip(CSV_HEADER, self.as_tuple()))


def emit_report(rows: list[ReportRow], fmt: str = "table") -> bytes:
    """Render report rows with stable column order; deterministic bytes."""
    if fmt not in REPORT_FORMATS:
        raise ValidationError(f"unknown report format {fmt!r}; use one of {REPORT_FORMATS}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_tuple())
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        return (json.dumps([r.to_dict() for r in rows], sort_keys=True, indent=2) + "\n").encode()
    # fixed-width text table
    cells = [list(map(str, CSV_HEADER))] + [list(map(str, r.as_tuple())) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(CSV_HEADER))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return ("\n".join(lines) + "\n").encode("utf-8")

