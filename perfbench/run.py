#!/usr/bin/env python3
"""Run one talescale benchmark workload for one seed.

    python3 perfbench/run.py --workload job_storm --seed 1 --seconds 10 --trace 0

``--trace 0`` is the timed run with tracing off: it prints the end-to-end
metrics.  ``--trace 1`` makes an untraced reference pass, then repeats the
same rounds with every layer boundary wrapped: it prints the per-layer
metrics, each layer's share of the traced wall time and the tracing
overhead, and fails the determinism gate if any traced round's trace
differs from its untraced twin.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full report (and, when traced, the spans) is written under
``perfbench/out/``.  Run it from the root of a checkout: the program under
test is imported from ``src/`` of the same checkout, never from elsewhere.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from meter import Meter
from tracer import Tracer, bucket_label, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5

perf = time.perf_counter

# name -> unit; the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
    "tail_step_ms": "ms",
    "cost_growth": "ratio",
    "trace_kb_per_op": "KB",
}

LAYERS = ("clock", "trace", "transport", "cluster", "dialects", "middleware", "pilots",
          "dms", "planner", "proxy", "world", "tale", "archive", "digest")
DIALECTS = ("sim-pbs", "sim-slurm")
CALLS = ("clock.run_until", "clock.at", "clock.cancel", "trace.emit", "transport.call",
         "cluster.execute", "middleware.submit", "middleware.poll_cycle", "middleware.status",
         "middleware.cancel", "pilots.refresh", "pilots.claim", "dms.open", "dms.evict",
         "dms.stage_in", "planner.plan_placement", "proxy.route", "proxy.register_endpoint",
         "archive.export_tale", "archive.import_tale", "digest.digest_bytes",
         "digest.short_digest")
SELF = (("clock.run_until", "trace.emit", "trace.to_ndjson", "transport.call", "cluster.execute")
        + tuple(f"cluster.execute.{t}" for t in ("qsub", "sbatch", "qstat", "sacct", "cancel"))
        + tuple(f"dialects.{d}.{f}" for d in DIALECTS
                for f in ("format_submit", "format_status", "parse_status"))
        + ("middleware.submit", "middleware.poll_cycle", "middleware.status",
           "pilots.refresh", "pilots.expire", "pilots.replenish", "pilots.claim",
           "dms.open", "dms.evict", "planner.plan_placement", "planner.enumerate_feasible_models",
           "proxy.route", "world.init", "world.submit_workload", "world.apply_staging",
           "world.metrics", "tale.create_tale", "tale.build_manifest", "archive.export_tale",
           "archive.import_tale", "digest.digest_bytes", "digest.short_digest"))
# Counters the workloads read from the simulated world after each round.
ROUND_COUNTERS = {"transport.handshakes": "count", "middleware.poll_failures": "count",
                  "trace.bytes": "B", "pilots.slots": "count", "dms.evicted": "count",
                  "dms.entries": "count", "dms.checksum_failures": "count",
                  "archive.bytes": "B"}
# Counters that describe a world's final size, not work done: reported as the
# largest round, not the sum.
SIZE_COUNTERS = {"pilots.slots", "dms.entries"}

PER_LAYER = {f"{layer}.share_pct": "%" for layer in LAYERS}
PER_LAYER.update({f"{name}.calls": "count" for name in CALLS})
PER_LAYER.update({f"{name}.self_pct": "%" for name in SELF})
PER_LAYER.update(ROUND_COUNTERS)
PER_LAYER.update({
    "transport.call.failed": "count",
    "middleware.poll_cycle.batch_p50": "count",
    "middleware.poll_cycle.batch_max": "count",
    "dialects.sim-pbs.parse_status.ids": "count",
    "dialects.sim-slurm.parse_status.ids": "count",
    "pilots.claim.warm_ratio": "ratio",
    "dms.hit_ratio": "ratio",
    "trace_overhead": "ratio",
})


def load_program():
    """Import talescale from this checkout's ``src/``; refuse anything else."""
    package = ROOT / "src" / "talescale"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no talescale sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import talescale
    if Path(talescale.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: talescale imported from {talescale.__file__}, not {package}")
    from talescale import (archive, clock, cluster, dialects, digest, dms, middleware, pilots,
                           planner, proxy, tale, trace, transport, world)
    return argparse.Namespace(**{m.__name__.rsplit(".", 1)[1]: m for m in (
        archive, clock, cluster, dialects, digest, dms, middleware, pilots, planner, proxy,
        tale, trace, transport, world)})


def check_manifest() -> None:
    """The metric names this file emits must be the ones BENCHMARK.json lists."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != ours:
            raise SystemExit(f"perfbench: {key} metrics differ from BENCHMARK.json: "
                             f"{sorted(set(listed.items()) ^ set(ours.items()))}")


# -- rounds ------------------------------------------------------------------


def run_rounds(wl, seed, workdir, *, budget_s=None, count=None, tracer=None):
    """Build, run and check rounds 0, 1, ... until the budget or count is used.

    Returns the rounds and each round's build-plus-run wall time.
    """
    rounds, walls = [], []
    begin = perf()
    while True:
        r = len(rounds)
        gc.collect()
        if tracer is not None:
            tracer.context = f"round-{r}"
        t0 = perf()
        state = wl.build(seed, r, workdir)
        state["tracer"] = tracer
        rnd = wl.run(state)
        walls.append(perf() - t0)
        wl.check(state, rnd)
        rounds.append(rnd)
        if count is not None:
            if len(rounds) >= count:
                break
        else:
            elapsed = perf() - begin
            # stop at the budget, or earlier when one more round would overrun it by a lot
            if elapsed >= budget_s or elapsed * (1 + 1 / len(rounds)) > 1.25 * budget_s:
                break
    return rounds, walls


def setup_samples(wl, seed, workdir) -> list[float]:
    """Set-up seconds at reference speed, one per repeated build of round 0."""
    meter = Meter(wl.kernel)
    for _ in range(SETUP_REPEATS):
        gc.collect()
        meter.time("setup", wl.build, seed, 0, workdir)
    meter.close()
    return [s for _, s in meter.scaled()]


def quarter(steps) -> int:
    return max(1, round(len(steps) / 4))


def head(steps) -> float:
    """Median step of the first quarter of a round."""
    return statistics.median(steps[:quarter(steps)])


def tail(steps) -> float:
    """Median step of the last quarter of a round."""
    return statistics.median(steps[-quarter(steps):])


def p95(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[94]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds, setups) -> dict:
    steps = [s for r in rounds for s in r.steps]
    ops = sum(r.ops for r in rounds)
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": ops / sum(r.timed_s for r in rounds),
        "step_p50_ms": statistics.median(steps) * 1e3,
        "step_p95_ms": p95(steps) * 1e3,
        "tail_step_ms": statistics.median(tail(r.steps) for r in rounds) * 1e3,
        "cost_growth": statistics.median(tail(r.steps) / head(r.steps) for r in rounds),
        "trace_kb_per_op": sum(r.record_bytes for r in rounds) / max(ops, 1) / 1e3,
    }


def named_metrics(wl, rounds, setups, e2e) -> list[tuple[str, float, str, int]]:
    """The figures the workload is about, by name, with unit and sample count."""
    ops = sum(r.ops for r in rounds)
    timed = sum(r.timed_s for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    sim = lambda key: sum(r.sim[key] for r in rounds)
    steps = [s for r in rounds for s in r.steps]
    out = [("setup_s", e2e["setup_s"], "s", len(setups)),
           ("peak_rss_mb", e2e["peak_rss_mb"], "MB", 1),
           ("error_ratio", sum(r.failed for r in rounds) / attempted, "ratio", attempted),
           ("expected_outcomes", sum(r.expected for r in rounds), "count", attempted)]
    if wl.name in ("job_storm", "pilot_soak"):
        out.append(("sim_s_per_wall_s", sum(r.sim_s for r in rounds) / timed, "sim s/s", len(rounds)))
        out.append(("backend_calls_per_job", sim("transport_calls") / sim("jobs_submitted"),
                    "calls/job", sim("jobs_submitted")))
    if wl.name == "job_storm":
        out.append(("jobs_per_s", ops / timed, "1/s", ops))
    elif wl.name == "pilot_soak":
        out.append(("tail_ms_per_ksim", e2e["tail_step_ms"] * 1000.0 / wl.STEP_S, "ms/ksim",
                    sum(quarter(r.steps) for r in rounds)))
        out.append(("cost_growth", e2e["cost_growth"], "ratio", len(rounds)))
        starts = [x for r in rounds for x in r.sim["start_latencies"]]
        deciles = statistics.quantiles(starts, n=10, method="inclusive")
        out.append(("start_p50_sim_s", statistics.median(starts), "sim s", len(starts)))
        out.append(("start_p90_sim_s", deciles[8], "sim s", len(starts)))
    elif wl.name == "tale_launch":
        out.append(("launches_per_s", ops / timed, "1/s", ops))
        out.append(("launch_p50_ms", statistics.median(steps) * 1e3, "ms", len(steps)))
        out.append(("launch_p95_ms", p95(steps) * 1e3, "ms", len(steps)))
        out.append(("wan_bytes_per_launch", sim("wan_bytes") / ops, "B", ops))
    elif wl.name == "tale_archive":
        export_s = [x for r in rounds for x in r.sim["export_s"]]
        import_s = [x for r in rounds for x in r.sim["import_s"]]
        mb = rounds[0].sim["workspace_bytes"] / 1e6
        out.append(("export_mb_per_s", mb * len(export_s) / sum(export_s), "MB/s", len(export_s)))
        out.append(("import_mb_per_s", mb * len(import_s) / sum(import_s), "MB/s", len(import_s)))
    return out


# -- traced run ----------------------------------------------------------------


def per_layer(tracer, rounds, traced_wall, overhead) -> dict:
    stats = tracer.stats
    pct = lambda seconds: 100.0 * seconds / traced_wall
    out = {}
    for layer in LAYERS:
        out[f"{layer}.share_pct"] = pct(sum(s.self_s for n, s in stats.items()
                                            if n.split(".", 1)[0] == layer))
    for name in CALLS:
        out[f"{name}.calls"] = stats[name].calls
    for name in SELF:
        out[f"{name}.self_pct"] = pct(stats[name].self_s)
    for key in ROUND_COUNTERS:
        values = [r.counters.get(key, 0) for r in rounds]
        out[key] = max(values) if key in SIZE_COUNTERS else sum(values)
    batches = stats["middleware.poll_cycle"].sizes
    claims = stats["pilots.claim"]
    hits = sum(r.counters.get("dms.hits", 0) for r in rounds)
    opens = sum(r.counters.get("dms.opens", 0) for r in rounds)
    out.update({
        "transport.call.failed": stats["transport.call"].failed,
        "middleware.poll_cycle.batch_p50": statistics.median(batches) if batches else 0,
        "middleware.poll_cycle.batch_max": max(batches, default=0),
        "dialects.sim-pbs.parse_status.ids": sum(stats["dialects.sim-pbs.parse_status"].sizes),
        "dialects.sim-slurm.parse_status.ids": sum(stats["dialects.sim-slurm.parse_status"].sizes),
        "pilots.claim.warm_ratio": claims.yes / claims.calls if claims.calls else 0.0,
        "dms.hit_ratio": hits / opens if opens else 0.0,
        "trace_overhead": overhead,
    })
    return out


def layer_report(tracer) -> dict:
    """Every wrapped name's calls and self seconds, plus size buckets."""
    names = {n: {"calls": s.calls, "self_s": s.self_s, "failed": s.failed}
             for n, s in sorted(tracer.stats.items()) if s.calls}
    buckets = {}
    for (name, decade), (calls, self_s) in sorted(tracer.bucket_self.items()):
        buckets.setdefault(name, {})[bucket_label(decade)] = {
            "calls": calls, "self_us_per_call": 1e6 * self_s / calls}
    return {"names": names, "size_buckets": buckets}


# -- main ------------------------------------------------------------------------


def give_up(rounds) -> int:
    """No operation of some round completed: nothing to measure, so no result."""
    for p in (p for r in rounds for p in r.problems):
        print(f"PROBLEM: {p}", file=sys.stderr)
    print("perfbench: a round completed no operation; no result", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = load_program()
    check_manifest()
    import workloads  # imports talescale, so only after load_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "op": wl.op, "step": wl.step}
    lines = []
    try:
        if args.trace == 0:
            setups = setup_samples(wl, args.seed, workdir)
            rounds, _ = run_rounds(wl, args.seed, workdir, budget_s=args.seconds)
            if not all(r.steps for r in rounds):
                return give_up(rounds)
            metrics = end_to_end(rounds, setups)
            units = END_TO_END
            named = named_metrics(wl, rounds, setups, metrics)
            report["named"] = {n: {"value": v, "unit": u, "n": k} for n, v, u, k in named}
            lines += [f"{n:<24} {v:>14.6g} {u:<10} n={k}" for n, v, u, k in named]
            gate = []
        else:
            wl.build(args.seed, 0, workdir)  # one-time work stays out of both passes
            reference, _ = run_rounds(wl, args.seed, workdir, budget_s=args.seconds / 2)
            tracer = Tracer()
            install(tracer, modules)
            try:
                rounds, walls = run_rounds(wl, args.seed, workdir, count=len(reference),
                                           tracer=tracer)
            finally:
                tracer.uninstall()
            if not all(r.steps for r in rounds):
                return give_up(rounds)
            # scaled timed phases, so machine speed swings between the passes cancel
            overhead = sum(r.timed_s for r in rounds) / sum(r.timed_s for r in reference)
            metrics = per_layer(tracer, rounds, sum(walls), overhead)
            units = PER_LAYER
            gate = [f"round {i}: untraced {a.trace_sha[:16]} != traced {b.trace_sha[:16]}"
                    for i, (a, b) in enumerate(zip(reference, rounds))
                    if a.trace_sha != b.trace_sha]
            report["layers"] = layer_report(tracer)
            report["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}
            tracer.write_spans(OUT / f"spans-{wl.name}.ndjson")  # the latest traced run only
            lines += [f"{k:<44} {metrics[k]:>10.3f} %" for k in PER_LAYER if k.endswith("share_pct")]
            lines.append(f"{'other (benchmark, unwrapped)':<44} "
                         f"{100 - sum(metrics[f'{l}.share_pct'] for l in LAYERS):>10.3f} %")
            lines.append(f"{'trace_overhead':<44} {overhead:>10.3f} x")
            for name, buckets in report["layers"]["size_buckets"].items():
                cells = "  ".join(f"{b}: {c['self_us_per_call']:.1f}us x{c['calls']}"
                                  for b, c in buckets.items())
                lines.append(f"size {name:<39} {cells}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems] + gate
    lines.append(f"determinism: {len(rounds)} rounds, trace sha256 {rounds[0].trace_sha[:16]}, "
                 f"{rounds[0].trace_bytes} bytes, {rounds[0].trace_events} events"
                 + (" (traced == untraced)" if args.trace and not gate else ""))
    lines += [f"PROBLEM: {p}" for p in problems]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    report.update(result, rounds=len(rounds), problems=problems,
                  timed_s={"scaled": sum(r.timed_s for r in rounds),
                           "raw": sum(r.raw_s for r in rounds)},
                  round_figures=[{k: v for k, v in r.sim.items() if not isinstance(v, list)}
                                 for r in rounds],
                  traces=[{"sha256": r.trace_sha, "bytes": r.trace_bytes,
                           "events": r.trace_events} for r in rounds],
                  machine={"nproc": os.cpu_count(), "python": sys.version.split()[0],
                           "workdir": str(workdir.relative_to(ROOT))})
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: op = {wl.op}, step = {wl.step}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
