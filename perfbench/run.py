#!/usr/bin/env python3
"""bcnn benchmark: end-to-end metrics untraced, per-layer metrics traced.

One run measures one workload:

    python3 perfbench/run.py --workload nin-b1 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the engine's public functions are
wrapped (see ``spans.py``) and the result holds the per-layer metrics.  The
last line of standard output is the result as one JSON object; the lines
before it give the environment and every metric with its unit.  Results,
conv tables, SLR records and spans are also written under ``--out``.

Without ``--workload`` every workload runs untraced and then traced, each
in its own process, and the tracing overhead is reported.

The program is measured as one process with one client and one BLAS thread.
Times and rates are scaled to a fixed host speed measured by a reference
computation run between operations (``hostspeed.py``), because the shared
host's own speed drifts by more than the bounds; the raw figures are printed
as comments and kept in the result file.  Per-layer span times are raw.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 180
# Figures of one workload only; the result carries them among the per-layer
# metrics, and an untraced run prints them as comments.
WORKLOAD_FIGURES = {"train_steps_per_s": "1/s", "slr_iter_s": "s"}


def import_bcnn() -> dict:
    """Import the engine from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bcnn" / "__init__.py").is_file():
        sys.exit(f"error: no bcnn sources under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"bcnn.{name}")
               for name in ("models", "training", "slr", "model_io", "accel")}
    if Path(modules["models"].__file__).resolve().parent != src / "bcnn":
        sys.exit(f"error: bcnn was imported from {modules['models'].__file__}")
    return modules


def environment() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def timings(m, host_scaled: bool = True) -> dict:
    """Latencies, set-up times and rates of a run, scaled to the reference host speed."""
    speed = m.speed
    op_scale = speed.scale if host_scaled else (lambda index: 1.0)
    loop = speed.loop_scale(m.loop_probe) if host_scaled else 1.0
    figures = {
        "latencies_ms": [1e3 * s * op_scale(j) for s, j in zip(m.latencies_s, m.latency_probes)],
        "setup_s": [s * op_scale(j) for s, j in zip(m.setup_s, m.setup_probes)],
        "images_per_s": m.images / speed.loop_time(m.loop_probe, scaled=host_scaled),
    }
    if "train_steps_per_s" in m.extra:
        figures["train_steps_per_s"] = m.extra["train_steps_per_s"] / loop
        figures["slr_iter_s"] = m.extra["slr_iter_s"] * loop
    return figures


def end_to_end_metrics(t: dict) -> dict:
    return {
        "setup_s": statistics.median(t["setup_s"]),
        "latency_p50_ms": float(np.percentile(t["latencies_ms"], 50)),
        "latency_p90_ms": float(np.percentile(t["latencies_ms"], 90)),
        "images_per_s": t["images_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def conv_table(bc: dict, m, spans) -> list[dict]:
    """Measured ms of each conv of the forward beside its predicted cycles."""
    from spans import conv_calls_by_position

    accel = bc["accel"]
    binary_layers = list(bc["models"].iter_binary_convs(m.model)) if m.model else []
    rows = []
    for kind in ("layers.fp_conv", "binary_ops.conv"):
        for pos, calls in conv_calls_by_position(spans, kind).items():
            g = calls[0].attrs["geometry"]
            _, _, h, w = calls[0].attrs["in_shape"]
            h_out, w_out = g.out_hw(h, w)
            active = g.out_channels
            if kind == "binary_ops.conv" and pos < len(binary_layers):
                active = int(bc["models"].active_output_channels(binary_layers[pos]).sum())
            total_ms = 1e3 * sum(s.duration for s in calls)
            images = sum(s.attrs["in_shape"][0] for s in calls)
            rows.append({
                "kind": kind, "position": pos, "calls": len(calls), "images": images,
                "in_channels": g.in_channels, "out_channels": g.out_channels,
                "active_out_channels": active, "kernel": list(g.kernel),
                "stride": list(g.stride), "padding": list(g.padding), "input_hw": [h, w],
                "ms": total_ms / len(calls), "ms_per_image": total_ms / images,
                "word_ops_per_image": (4 * g.out_channels * h_out * w_out * g.kernel[0]
                                       * g.kernel[1] * -(-g.in_channels // 64)),
                "rows_per_image": g.out_channels * h_out * w_out,
                "active_rows_per_image": active * h_out * w_out,
                "predicted_cycles": accel.conv_cycles(g, (h, w), accel.KernelConfig()),
            })
    for key, rank in (("ms_per_image", "rank_by_ms"), ("predicted_cycles", "rank_by_cycles")):
        for r, row in enumerate(sorted(rows, key=lambda row: -row[key]), start=1):
            row[rank] = r
    return rows


def per_layer_metrics(bc: dict, m, t: dict, tracer, table) -> dict:
    from spans import layer_stats

    stats = layer_stats(tracer.spans)

    def ms(name, key="ms"):
        return stats[name][key] if name in stats else 0.0

    forwards = stats.get("models.forward", {}).get("calls", 0)

    def per_forward(name):
        return stats[name]["calls"] / forwards if forwards and name in stats else 0.0

    binary = [row for row in table if row["kind"] == "binary_ops.conv"]
    images = sum(s.attrs["images"] for s in tracer.spans
                 if s.name == "models.forward" and s.request != "setup")
    word_ops = sum(r["word_ops_per_image"] * r["images"] for r in binary)
    rows = sum(r["rows_per_image"] for r in binary)
    history = m.extra.get("slr_records", [])
    return {
        "binary_ops.conv_ms": ms("binary_ops.conv"),
        "binary_ops.conv_calls": per_forward("binary_ops.conv"),
        "binary_ops.word_ops": word_ops / images if images else 0.0,
        "binary_ops.useful_row_ratio":
            sum(r["active_rows_per_image"] for r in binary) / rows if rows else 0.0,
        "binary_ops.binarize_ms": ms("binary_ops.binarize"),
        "tensors.pack_ms": ms("tensors.pack"),
        "tensors.pack_calls": per_forward("tensors.pack"),
        "layers.fp_conv_ms": ms("layers.fp_conv"),
        "layers.cgbn_ms": ms("layers.cgbn"),
        "layers.pool_ms": ms("layers.pool"),
        "layers.dense_ms": ms("layers.dense"),
        "models.forward_ms": ms("models.forward"),
        "models.self_ms": ms("models.forward", "self_ms"),
        "training.train_step_ms": ms("training.train_step"),
        "training.batch_loss_ms": ms("training.batch_loss"),
        "training.evaluate_ms": ms("training.evaluate"),
        "slr.step_ms": ms("slr.step"),
        "slr.self_ms": ms("slr.step", "self_ms"),
        "slr.project_ms": ms("slr.project"),
        "slr.fired1": sum(r["fired1"] for r in history) / len(history) if history else 0.0,
        "slr.fired2": sum(r["fired2"] for r in history) / len(history) if history else 0.0,
        "model_io.save_ms": ms("model_io.save"),
        "model_io.load_ms": ms("model_io.load"),
        "model_io.file_bytes": m.extra.get("file_bytes", 0),
        "accel.predicted_cycles":
            bc["accel"].stack_cycles(m.model, bc["accel"].KernelConfig()) if m.model else 0,
        "train_steps_per_s": t.get("train_steps_per_s", 0.0),
        "slr_iter_s": t.get("slr_iter_s", 0.0),
        "failed_ratio": m.failed / m.attempted,
        "trace.images_per_s": t["images_per_s"],
    }


def slr_trace_records(m, tracer) -> list[dict]:
    """SLR history records, each with the wall time of its ``slr.step`` span."""
    steps = [s for s in tracer.spans if s.name == "slr.step"]
    return [dict(rec, wall_s=span.duration)
            for rec, span in zip(m.extra.get("slr_records", []), steps)]


def run_one(args) -> int:
    bc = import_bcnn()
    from hostspeed import REFERENCE_MS
    from spans import Tracer, layer_stats
    from workloads import FULL, SMOKE, WORKLOADS

    env = environment()
    tracer = Tracer()
    workload = WORKLOADS[args.workload]
    sizes = SMOKE if args.smoke else FULL
    if args.trace:
        with tracer.installed(bc):
            m = workload(bc, args.seed, args.seconds, sizes, tracer)
    else:
        m = workload(bc, args.seed, args.seconds, sizes, tracer)
    if not m.latencies_s:
        print("\n".join(m.errors), file=sys.stderr)
        sys.exit(f"error: no operation of {args.workload} succeeded")

    section = "per_layer" if args.trace else "end_to_end"
    scaled, raw = timings(m), timings(m, host_scaled=False)
    table = conv_table(bc, m, tracer.spans) if args.trace else []
    values = (per_layer_metrics(bc, m, scaled, tracer, table) if args.trace
              else end_to_end_metrics(scaled))
    raw_values = {} if args.trace else end_to_end_metrics(raw)
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in SPEC[section]}
    result = {"correct": m.failed == 0, "attempted": m.attempted,
              "failed": m.failed, "metrics": metrics}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env, "result": result,
        "samples": len(m.latencies_s), "setup_s_samples": scaled["setup_s"],
        "latencies_ms": scaled["latencies_ms"],
        "host_speed": {"reference_ms": REFERENCE_MS, "probes_ms": m.speed.samples_ms,
                       "loop_scale": m.speed.loop_scale(m.loop_probe)},
        "raw": {"metrics": raw_values, "setup_s_samples": raw["setup_s"],
                "latencies_ms": raw["latencies_ms"], "images_per_s": raw["images_per_s"]},
        "checks_passed": Counter(name for name, ok in m.checks if ok),
        "checks_failed": Counter(name for name, ok in m.checks if not ok),
        "checks_attempted": len(m.checks), "errors": m.errors[:10],
        "workload_figures": {name: scaled[name] for name in WORKLOAD_FIGURES
                             if name in scaled},
    }
    if args.trace:
        record.update(conv_table=table, slr_records=slr_trace_records(m, tracer),
                      layers=layer_stats(tracer.spans))
        tracer.write_jsonl(out / f"{stem}.spans.jsonl")
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print("# env " + json.dumps(env))
    print(f"# {args.workload}: {len(m.latencies_s)} timed operations, "
          f"{len(m.checks)} correctness checks, {m.failed} failed")
    print(f"# host speed: reference median {statistics.median(m.speed.samples_ms):.3f} ms "
          f"over {len(m.speed.samples_ms)} probes, figures scaled to {REFERENCE_MS} ms")
    for name, metric in metrics.items():
        print(f"{name:32} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        for name, value in record["workload_figures"].items():
            print(f"# untraced {name} {value:.6g} {WORKLOAD_FIGURES[name]}")
        for name, value in raw_values.items():
            print(f"# unscaled {name} {value:.6g} {metrics[name]['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    ok = True
    for spec in SPEC["workloads"]:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", spec["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"# {spec['name']} trace={trace}: exit code {proc.returncode}")
                ok = False
                continue
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and results[trace]["correct"]
        if len(results) == 2:
            plain = results[0]["metrics"]["images_per_s"]["value"]
            traced = results[1]["metrics"]["trace.images_per_s"]["value"]
            print(f"# {spec['name']}: tracing overhead {100 * (plain / traced - 1):.1f}% "
                  f"({plain:.3f} untraced vs {traced:.3f} traced images/s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload; without it, run all, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result, conv-table and span files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to check that every metric and gate is produced")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
