"""Outside-in tracer for the talescale benchmark.

Wraps public functions of the talescale modules at class or module level,
from the benchmark's own files; nothing under ``src/`` knows it exists.
Each wrapped call becomes a span (name, start, end, parent, size, id) kept
in memory; the hottest names are only aggregated (count plus self time) so
the tracing overhead stays small enough to report.  ``uninstall`` puts
every original attribute back.

Self time is a span's duration minus the time its wrapped child spans
cover.  Sizes are recorded per call where the workload's input size drives
the cost (ids per status poll, slots per pilot tick, entries per cache
operation, resources per placement), and per-call self time is bucketed
by decade of that size.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

# Spans beyond this many are counted in the statistics but not kept, so a
# long traced run cannot grow memory without bound.
MAX_SPANS = 100_000


class NameStats:
    __slots__ = ("calls", "self_s", "failed", "yes", "sizes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.yes = 0
        self.sizes: list[int] = []


def size_bucket(n: int) -> int:
    """Decade of a size: 1 for up to 10, 2 for up to 100, 3 for up to 1k ..."""
    return max(1, math.ceil(math.log10(n))) if n > 0 else 1


def bucket_label(decade: int) -> str:
    return "<=" + {1: "10", 2: "100", 3: "1k", 4: "10k", 5: "100k"}.get(decade, f"1e{decade}")


class Tracer:
    def __init__(self):
        self.stats: dict[str, NameStats] = defaultdict(NameStats)
        self.bucket_self: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        self.spans: list[tuple] = []
        self.dropped = 0
        self.context: str | None = None  # current launch / round id, set by the workload
        self._stack: list[list] = []  # open frames: [span_id, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, size=None, ident=None,
             outcome=None, aggregate: bool = False) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``size(*args)`` gives the call's input size, ``ident(args, result)``
        the job or launch id, ``outcome(result)`` whether the call produced
        something (counted as ``yes``).  Aggregated names keep no spans.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        stats = self.stats[name]
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            n = size(*args, **kwargs) if size is not None else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            result = None
            ok = False
            t0 = perf()
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                stats.calls += 1
                stats.self_s += own
                if not ok:
                    stats.failed += 1
                elif outcome is not None and outcome(result):
                    stats.yes += 1
                if n is not None:
                    stats.sizes.append(n)
                    cell = tracer.bucket_self[(name, size_bucket(n))]
                    cell[0] += 1
                    cell[1] += own
                if not aggregate:
                    if len(tracer.spans) < MAX_SPANS:
                        who = ident(args, result) if ident is not None and ok else tracer.context
                        parent = stack[-1][0] if stack else 0
                        tracer.spans.append((frame[0], parent, name, t0, t1, own, n, who))
                    else:
                        tracer.dropped += 1

        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for span_id, parent, name, t0, t1, own, n, who in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                    "start": t0, "end": t1, "self_s": own,
                                    "size": n, "ctx": who}, separators=(",", ":")) + "\n")


def install(tracer: Tracer, talescale_modules) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    m = talescale_modules
    w = tracer.wrap
    # clock
    w(m.clock.SimClock, "run_until", "clock.run_until")
    w(m.clock.SimClock, "at", "clock.at", aggregate=True)
    w(m.clock.SimClock, "cancel", "clock.cancel", aggregate=True)
    # trace
    w(m.trace.TraceLog, "emit", "trace.emit", aggregate=True)
    w(m.trace.TraceLog, "to_ndjson", "trace.to_ndjson")
    # transport
    w(m.transport.Transport, "call", "transport.call")
    # cluster: the shell entry point and one span per tool
    w(m.cluster.SimulatedLrm, "execute", "cluster.execute")
    for tool in ("qsub", "sbatch", "qstat", "sacct"):
        w(m.cluster.SimulatedLrm, "_" + tool, f"cluster.execute.{tool}")
    w(m.cluster.SimulatedLrm, "_cancel_cmd", "cluster.execute.cancel")
    # dialects
    ids_in_output = {
        m.dialects.SimPbsAdapter: lambda self, output: output.count("Job Id:"),
        m.dialects.SimSlurmAdapter: lambda self, output: output.count("\n") + 1 if output else 0,
    }
    for cls, ids_in in ids_in_output.items():
        prefix = f"dialects.{cls.name}"
        w(cls, "format_submit", f"{prefix}.format_submit")
        w(cls, "format_status", f"{prefix}.format_status",
          size=lambda self, ids: len(ids))
        w(cls, "parse_status", f"{prefix}.parse_status", size=ids_in)
    # middleware
    mw = m.middleware.LrmMiddleware
    w(mw, "submit", "middleware.submit", ident=lambda a, r: r.job_id)
    w(mw, "poll_cycle", "middleware.poll_cycle",
      size=lambda self, resource: len(self._active.get(resource, ())))
    w(mw, "status", "middleware.status", aggregate=True)
    w(mw, "cancel", "middleware.cancel", ident=lambda a, r: r.job_id)
    # pilots
    pool = m.pilots.PilotPool
    w(pool, "refresh", "pilots.refresh", size=lambda self: len(self.slots))
    w(pool, "expire", "pilots.expire", size=lambda self, now=None: len(self.slots))
    w(pool, "replenish", "pilots.replenish")
    w(pool, "claim", "pilots.claim", outcome=lambda slot: slot is not None,
      ident=lambda a, r: a[1].tale_id)
    # dms
    cache = m.dms.DmsCache
    w(cache, "open", "dms.open", size=lambda self, ref: len(self.entries))
    w(cache, "evict", "dms.evict", size=lambda self, needed: len(self.entries))
    w(cache, "stage_in", "dms.stage_in")
    # planner: plan_placement calls enumerate_feasible_models through the
    # planner module's globals, so both are patched there
    w(m.planner, "plan_placement", "planner.plan_placement",
      size=lambda req, inventory, *a, **k: len(inventory))
    w(m.planner, "enumerate_feasible_models", "planner.enumerate_feasible_models")
    # proxy
    w(m.proxy.ProxyRegistry, "route", "proxy.route")
    w(m.proxy.ProxyRegistry, "register_endpoint", "proxy.register_endpoint")
    # world
    world = m.world.World
    w(world, "__init__", "world.init")
    w(world, "submit_workload", "world.submit_workload")
    w(world, "apply_staging", "world.apply_staging")
    w(world, "metrics", "world.metrics")
    # tale
    w(m.tale, "create_tale", "tale.create_tale")
    w(m.tale, "build_manifest", "tale.build_manifest")
    # archive
    w(m.archive, "export_tale", "archive.export_tale")
    w(m.archive, "import_tale", "archive.import_tale")
    # digest: other modules bound these names at import time, so the
    # wrapper goes into each importing module's namespace too
    for mod in (m.digest, m.archive):
        w(mod, "digest_bytes", "digest.digest_bytes", aggregate=True)
    for mod in (m.digest, m.transport, m.proxy):
        w(mod, "short_digest", "digest.short_digest", aggregate=True)
