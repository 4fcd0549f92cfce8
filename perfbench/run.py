"""tropclust benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mthm-batch --seed 1 --seconds 18 --trace 0

Inputs are made from the seed before any timed process starts.  With
``--trace 0`` the workload runs in PROCESSES fresh interpreters one after
another, each timing its own stream of whole rounds sized to an equal share
of ``--seconds`` on the reference machine, then SETUP_ONLY more that only
set up, and the run prints every end-to-end metric.  With ``--trace 1`` one
untraced process runs a stream sized to half of ``--seconds``, then a
traced process runs the very same operations, and the run prints the
per-layer metrics.  Fresh processes matter: the package keeps
process-global memos, so repeating an instance in one process would time
the memo, not the program.  Every time is taken at the reference speed
(see worker.SpeedProbe).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result, with the environment, the instance manifests, the cache sizes
and (traced) every per-layer metric or the reason it is absent, goes to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, CATALOG_PATH, ROOT, SRC, SourceMissing, import_tropclust

PROCESSES = 3
# Further processes per run that only set up, so that setup_s is a median
# over PROCESSES + SETUP_ONLY set-ups.
SETUP_ONLY = 6
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(BENCH_DIR, "out")
# Every process of a run must have ended this long after the run started.
RUN_LIMIT_S = 170.0

# Per-layer time metrics: metric -> the span whose self time it sums.
SPAN_METRICS = {
    "jsonio.load_s": "jsonio.load",
    "jsonio.dump_s": "jsonio.dump",
    "polytopes.minkowski_spec_s": "polytopes.minkowski_spec",
    "polytopes.chart_inequalities_s": "polytopes.chart_inequalities",
    "polytopes.coordinate_bounds_s": "polytopes.coordinate_bounds",
    "basis.product_expand_s": "basis.product_expand",
    "basis.basis_laurent_s": "basis.basis_laurent",
    "atlas.expand_in_x_chart_s": "atlas.expand_in_x_chart",
    "atlas.mutation_words_s": "atlas.mutation_words",
    "laurent.is_positive_s": "laurent.is_positive",
    "polygon.triangulations_s": "polygon.triangulations",
}
# Per-layer counts: metric -> (unit, the span that must have run for it).
COUNT_METRICS = {
    "jsonio.bytes_out": ("B", "jsonio.dump"),
    "polytopes.rows": ("count", "polytopes.chart_inequalities"),
    "polytopes.box_volume": ("count", "polytopes.coordinate_bounds"),
    "polytopes.points_found": ("count", "polytopes.lattice_points"),
    "basis.expansion_terms": ("count", "basis.product_expand"),
    "atlas.charts": ("count", "atlas.expand_in_x_chart"),
    "laurent.chart_terms": ("count", "atlas.expand_in_x_chart"),
}
# The per-layer metrics of the last output line (BENCHMARK.json's per_layer):
# the ones an optimisation of the layers is likely to move and that every
# workload's traced run can report.  A layer the workload does not call
# reports 0 there; the result file and the printed lines say why instead.
FINAL_PER_LAYER = {
    "jsonio.load_s": "s",
    "weighted_graphs.stats_hits": "count",
    "weighted_graphs.stats_misses": "count",
    "weighted_graphs.stats_cache_size": "count",
    "polytopes.rows": "count",
    "polytopes.box_volume": "count",
    "polytopes.points_per_box": "frac",
    "basis.split_memo_size": "count",
    "trace.overhead_frac": "frac",
}


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "tropclust")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def write_stream(workload, seed, stream, rounds, catalog, run_dir):
    """Make one process's inputs and manifest; return the stream directory."""
    directory = os.path.join(run_dir, f"stream-{stream}")
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for inst in workload.generate(seed, stream, rounds, catalog):
        with open(os.path.join(directory, inst["file"]), "w", encoding="utf-8") as fh:
            fh.write(inst.pop("text"))
        manifest.append(inst)
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return directory, manifest


def run_worker(workload, directory, result_path, deadline, flag=None):
    """Run one fresh worker process, killed at the monotonic ``deadline``;
    return its result and set-up time.  ``flag`` is ``--trace`` or
    ``--setup-only``."""
    cmd = [sys.executable, WORKER, "--workload", workload.name, "--dir", directory,
           "--result", result_path] + ([flag] if flag else [])
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    # Interpreter start, before the worker's probe runs, is taken at the
    # speed the probe then finds for the rest of set-up.
    result["setup_raw_s"] = result["born"] - spawned + result["setup_s"]
    result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
    return result


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density over their
    ranks (midpoint rule, eight points per rank).  A single order statistic
    jumps when the quantile falls in a gap between two clusters of instance
    costs, as the median of atlas-positivity does (hexagons of 19.7 and
    23.1 ms meet there); this estimate moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    points = 8
    total = weighted = 0.0
    for i, value in enumerate(ordered):
        weight = 0.0
        for k in range(points):
            t = (i + (k + 0.5) / points) / n
            weight += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += weight
        weighted += weight * value
    return weighted / total


def tail(latencies):
    """The latency at the highest percentile with at least ten samples
    beyond it, and that percentile (the maximum below eleven samples)."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0
    return quantile(latencies, (n - 10) / n), 100.0 * (n - 10) / n


def scaled(result):
    """The process's latencies in seconds at the reference speed: each
    operation's time times the scale its SpeedProbe measured over it."""
    return [op["latency_s"] * op["scale"] for op in result["ops"]]


def end_to_end(results, setup_only):
    per_process = [scaled(r) for r in results]
    latencies = [t for times in per_process for t in times]
    unscaled = [op["latency_s"] for r in results for op in r["ops"]]
    n = len(latencies)
    # Each process's tail, then their mean: each process has its own
    # instances and order, and pooling them would put the tail among the
    # few dearest instances of the whole run, which move from seed to seed.
    tails = [(tail(times), len(times)) for times in per_process]
    setups = [r["setup_s"] for r in results + setup_only]
    raw_setups = [r["setup_raw_s"] for r in results + setup_only]
    return {
        "ops_per_s": (n / sum(latencies), "1/s",
                      f"{n} operations over {sum(latencies):.3f} s scaled; unscaled "
                      f"{n / sum(unscaled):.4f}"),
        "op_p50_ms": (1000 * quantile(latencies, 0.5), "ms",
                      f"{n} samples; plain median {1000 * statistics.median(latencies):.3f}, "
                      f"unscaled {1000 * quantile(unscaled, 0.5):.3f}"),
        "op_tail_ms": (1000 * statistics.mean(value for (value, _), _ in tails), "ms",
                       f"mean of {len(tails)} processes' tails: "
                       + ", ".join(f"{1000 * value:.2f} ms at p{pct:.2f} of {count}"
                                   for (value, pct), count in tails)),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB",
                        f"largest of {len(results)} processes"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} processes: "
                    + ", ".join(f"{s:.4f}" for s in setups)
                    + f"; unscaled {statistics.median(raw_setups):.4f}"),
    }


def self_times(spans):
    """Total self time per span name: duration minus direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for (name, start, end, _parent, _op), inner in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


def per_layer(traced, untraced):
    """Every per-layer metric: {name: {value, unit, derived, note}} or
    {name: {absent: reason}}."""
    spans = [tuple(s) for s in traced["spans"]]
    times = self_times(spans)
    counts = traced["counts"]
    calls = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    out = {}

    def absent(metric, span):
        out[metric] = {"absent": f"this workload makes no {span} call"}

    for metric, span in SPAN_METRICS.items():
        if span in times:
            out[metric] = {"value": times[span], "unit": "s", "derived": False,
                           "note": f"self time of {calls[span]} calls"}
        else:
            absent(metric, span)
    for metric, (unit, span) in COUNT_METRICS.items():
        if span in times:
            out[metric] = {"value": counts.get(metric, 0), "unit": unit, "derived": False}
        else:
            absent(metric, span)

    if "polytopes.lattice_points" in times:
        found = counts.get("polytopes.points_found", 0)
        out["polytopes.scan_s"] = {
            "value": times["polytopes.lattice_points"]
            - times.get("polytopes.chart_inequalities", 0.0)
            - times.get("polytopes.coordinate_bounds", 0.0),
            "unit": "s", "derived": True,
            "note": "lattice_points minus the chart_inequalities and "
                    "coordinate_bounds calls it repeats internally",
        }
        out["laminations.from_coords_calls"] = {
            "value": found, "unit": "count", "derived": True,
            "note": "lattice_points builds one lamination per point found",
        }
        sampled = counts.get("laminations.sampled", 0)
        for metric, span in (("laminations.from_coords_s", "laminations.lamination_from_coords"),
                             ("laminations.chart_coords_s", "laminations.chart_coords")):
            out[metric] = {
                "value": times[span] / sampled * found if sampled else 0.0,
                "unit": "s", "derived": True,
                "note": f"mean of {sampled} sampled calls on output points "
                        f"times the {found} points found",
            }
        volume = counts.get("polytopes.box_volume", 0)
        if volume:
            out["polytopes.points_per_box"] = {
                "value": found / volume, "unit": "frac", "derived": True,
                "note": f"{found} points found in boxes holding {volume} lattice points",
            }
        else:
            out["polytopes.points_per_box"] = {"absent": "no coordinate_bounds box"}
    else:
        for metric in ("polytopes.scan_s", "laminations.from_coords_calls",
                       "laminations.from_coords_s", "laminations.chart_coords_s",
                       "polytopes.points_per_box"):
            absent(metric, "polytopes.lattice_points")

    info = traced["stats_cache_info"]
    for key, metric in (("hits", "stats_hits"), ("misses", "stats_misses"),
                        ("currsize", "stats_cache_size")):
        out[f"weighted_graphs.{metric}"] = (
            {"value": info[key], "unit": "count", "derived": False}
            if info else {"absent": "weighted_graphs.stats has no cache_info"}
        )
    memo = traced["caches"]["basis._SPLIT_MEMO"]
    out["basis.split_memo_size"] = (
        {"value": memo, "unit": "count", "derived": False,
         "note": "len(basis._SPLIT_MEMO) after the traced loop"}
        if memo is not None else {"absent": "basis._SPLIT_MEMO does not exist"}
    )
    traced_s, untraced_s = sum(scaled(traced)), sum(scaled(untraced))
    out["trace.overhead_frac"] = {
        "value": traced_s / untraced_s - 1.0, "unit": "frac",
        "derived": False,
        "note": f"traced {traced_s:.3f} s against untraced {untraced_s:.3f} s "
                f"on the same operations, both at the reference speed",
    }
    return out


def run_processes(args, workload, catalog, run_dir):
    """Make each process's inputs and run it; return results, manifests
    and the results of the set-up-only processes."""
    deadline = time.monotonic() + RUN_LIMIT_S
    share = args.seconds / (2 if args.trace else PROCESSES)
    rounds = max(workload.min_rounds, round(share / workload.round_s))
    results, manifests = [], []
    for stream in range(1 if args.trace else PROCESSES):
        directory, manifest = write_stream(workload, args.seed, stream, rounds,
                                           catalog, run_dir)
        path = os.path.join(run_dir, f"result-{stream}.json")
        results.append(run_worker(workload, directory, path, deadline))
        manifests.append(manifest)
    if args.trace:
        path = os.path.join(run_dir, "result-traced.json")
        results.append(run_worker(workload, directory, path, deadline, "--trace"))
        manifests.append(manifest)
        return results, manifests, []
    setups = [run_worker(workload, directory, os.path.join(run_dir, f"setup-{k}.json"),
                         deadline, "--setup-only")
              for k in range(SETUP_ONLY)]
    return results, manifests, setups


def report(args, workload, env, tag, results, manifests, setups) -> int:
    """Aggregate, write the result file and print the metrics."""
    attempted = sum(len(r["ops"]) for r in results)
    if not attempted:
        print("no operation ran", file=sys.stderr)
        return 1
    operations = [[dict(manifest[op["index"]], **op) for op in r["ops"]]
                  for r, manifest in zip(results, manifests)]
    failures = [op for ops in operations for op in ops if op["failure"]]
    doc = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "environment": env, "attempted": attempted,
           "failed": len(failures), "failures": failures[:20],
           "caches": [r["caches"] for r in results], "operations": operations}

    lines = [f"{workload.name} seed {args.seed}: {attempted} operations in "
             f"{len(results)} processes, {len(failures)} failed"]
    if args.trace:
        layers = per_layer(results[1], results[0])
        doc["per_layer"] = layers
        doc["cache_sizes_after_traced_run"] = results[1]["caches"]
        with open(os.path.join(OUT_DIR, f"{tag}-spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": results[1]["spans"]}, fh)
        for name, m in sorted(layers.items()):
            if "absent" in m:
                lines.append(f"{name}: absent ({m['absent']})")
            else:
                kind = "derived, " if m["derived"] else ""
                note = f" ({kind}{m['note']})" if "note" in m else ""
                lines.append(f"{name} = {m['value']} {m['unit']}{note}")
        for name, size in results[1]["caches"].items():
            lines.append(f"cache {name}: {size} entries")
        final = {name: {"value": layers[name].get("value", 0), "unit": unit}
                 for name, unit in FINAL_PER_LAYER.items()}
    else:
        e2e = end_to_end(results, setups)
        doc["end_to_end"] = {k: {"value": v, "unit": u, "note": note}
                             for k, (v, u, note) in e2e.items()}
        for name, (value, unit, note) in e2e.items():
            lines.append(f"{name} = {value} {unit} ({note})")
        final = {name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()}
    lines.append(f"failed_frac = {len(failures) / attempted} ({len(failures)} of "
                 f"{attempted} attempted)")
    lines.append(f"environment: python {env['python']}, nproc {env['nproc']}, "
                 f"{env['platform']}, commit {env['commit']}, "
                 f"source sha256 {env['source_sha256'][:16]}")
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": final}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_tropclust()
        with open(CATALOG_PATH, encoding="utf-8") as fh:
            catalog = json.load(fh)
    except (SourceMissing, OSError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT_DIR, f"run-{tag}-{os.getpid()}")
    try:
        results, manifests, setups = run_processes(args, workload, catalog, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return report(args, workload, env, tag, results, manifests, setups)


if __name__ == "__main__":
    sys.exit(main())
