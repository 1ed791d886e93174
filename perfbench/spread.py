#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/spread.py --workload job_storm --seeds 1-10 [--seconds 15]
        [--record perfbench/results/BENCH_x.json --label "what was measured"]

Runs ``run.py`` once per seed, one after another, and prints for each
end-to-end metric the median, the quartiles and the interquartile range
as a share of the median (``statistics.quantiles(values, n=4)``), next to
the metric's bound.  A spread above a third of the bound is flagged.
``--record`` adds the workload's figures to a trajectory file (created if
missing), together with the per-workload figures of each run's report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    named: dict[str, list[float]] = {}
    machine = {}
    seeds = seeds_from(args.seeds)
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs NOT correct", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        report_path = ROOT / "perfbench" / "out" / f"report-{args.workload}-seed{seed}-trace0.json"
        report = json.loads(report_path.read_text())
        machine = report["machine"]
        for name, m in report["named"].items():
            named.setdefault(f"{name} [{m['unit']}]", []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}"
                                          for k, m in result["metrics"].items()), flush=True)
    worst = 0.0
    summary = {}
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[metric["name"]] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                                   "spread": spread, "values": vals}
        flag = "" if spread < metric["bound"] / 3 else "  <-- above a third of the bound"
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{args.workload:<13} {metric['name']:<16} median {med:<12.5g} "
              f"q1 {q1:<12.5g} q3 {q3:<12.5g} spread {spread:6.3f} bound {metric['bound']}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.record:
        trajectory = json.loads(args.record.read_text()) if args.record.is_file() else {}
        trajectory.update(label=args.label or trajectory.get("label", ""), machine=machine,
                          run_seconds=seconds)
        trajectory.setdefault("workloads", {})[args.workload] = {
            "seeds": seeds, "end_to_end": summary,
            "named_medians": {k: statistics.median(v) for k, v in named.items()}}
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
