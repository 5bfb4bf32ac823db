#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/repeat.py --runs 10 [--workload nin-b1 ...] [--json out.json]

For every workload and metric this prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), beside the metric's bound from
``BENCHMARK.json``.  Seeds are 1..runs, one fresh process per run.  With
``--traced`` one traced run per workload adds the per-layer metrics and
the tracing overhead.  Each spread is given for the host-speed-scaled
figures the benchmark reports and for the unscaled ones.
``perfbench/baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, out: str) -> tuple[dict, float]:
    """One run; returns the record it wrote and its wall time."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), "--out", out],
        capture_output=True, text=True, timeout=180, check=True,
    )
    record = json.loads((Path(out) / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return record, time.perf_counter() - start


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--json", help="also write the values and summary here")
    args = parser.parse_args(argv)

    report = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        records, walls = [], []
        for seed in range(1, args.runs + 1):
            record, wall = run(workload, seed, 0, args.out)
            records.append(record)
            walls.append(wall)
        entry = {"env": records[-1]["env"],
                 "correct": all(r["result"]["correct"] for r in records),
                 "run_wall_s": walls, "end_to_end": {}}
        for metric in SPEC["end_to_end"]:
            s = summary([r["result"]["metrics"][metric["name"]]["value"] for r in records])
            raw = summary([r["raw"]["metrics"][metric["name"]] for r in records])
            s.update(unit=metric["unit"], bound=metric["bound"], unscaled=raw)
            entry["end_to_end"][metric["name"]] = s
            steady = steady and (metric["name"] == "setup_s" or s["spread"] <= metric["bound"])
            print(f"{workload:24} {metric['name']:16} median {s['median']:12.5g} "
                  f"{metric['unit']:4} spread {s['spread']:6.3f} bound {metric['bound']:.2f}"
                  f" (unscaled {raw['median']:.5g}, spread {raw['spread']:.3f})"
                  f"{'' if s['spread'] < metric['bound'] / 3 else '  (over a third of the bound)'}")
        figures = records[0]["workload_figures"]
        entry["workload_figures"] = {
            name: summary([r["workload_figures"][name] for r in records]) for name in figures}
        for name, s in entry["workload_figures"].items():
            print(f"{workload:24} {name:16} median {s['median']:12.5g} spread {s['spread']:6.3f}")
        if args.traced:
            traced, _ = run(workload, 1, 1, args.out)
            per_layer = traced["result"]["metrics"]
            entry["per_layer_seed1"] = per_layer
            entry["conv_table_seed1"] = traced["conv_table"]
            entry["tracing_overhead"] = (records[0]["result"]["metrics"]["images_per_s"]["value"]
                                         / per_layer["trace.images_per_s"]["value"] - 1)
            print(f"{workload:24} tracing overhead {100 * entry['tracing_overhead']:.1f}% (seed 1)")
        print(f"{workload:24} correct={entry['correct']} "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        report["workloads"][workload] = entry
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
