"""One benchmark process: set up, time operations in a closed loop, check.

    python3 perfbench/worker.py --workload W --dir D --result R [--trace | --setup-only]

Set-up is interpreter start, ``import tropclust`` and reading the manifest
and every input file of ``D``.  Then one caller runs the instances in
manifest order, each after the previous one has returned.  A SpeedProbe
runs through set-up and through every operation, so each time comes with
the host's speed while it was taken.  Outputs are checked after the loop,
outside the timed region.  With ``--trace`` every operation runs as the
benchmark's own sequence of public library calls, with a span around each
call; spans stay in memory and go to the result file at the end.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import sys
import time
from collections import Counter
from fractions import Fraction

from common import import_tropclust

# SpeedProbe: the slice's steps of tuple-keyed and of frozenset-keyed,
# Fraction-valued dict work, its time at the reference speed (on the
# reference machine, a 2-core x86-64 VM with Python 3.11, the slice takes
# 100-180 us as the host's load changes) and the wall time between slices.
PROBE_STEPS = 150
PROBE_FRACTION_STEPS = 15
PROBE_REF_S = 120e-6
PROBE_PERIOD_S = 0.002


class Tracer:
    """Spans (name, start, end, parent, operation) and counters."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._first = set()

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, self.clock(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def first(self, key) -> bool:
        """True the first time ``key`` is seen in this process."""
        if key in self._first:
            return False
        self._first.add(key)
        return True


def cache_sizes(n_gons):
    """Entries held by the package's process-global memos; None where the
    memo does not exist (any more)."""
    from tropclust import atlas, basis, polygon, weighted_graphs

    def lru(fn):
        info = getattr(fn, "cache_info", None)
        return info().currsize if info else None

    def size(module, attr):
        table = getattr(module, attr, None)
        return len(table) if table is not None else None

    fan_lattice = getattr(basis, "_fan_lattice", None)
    sizes = {
        "basis._SPLIT_MEMO": size(basis, "_SPLIT_MEMO"),
        "atlas._EXPAND_CACHE": size(atlas, "_EXPAND_CACHE"),
        "weighted_graphs.stats": lru(getattr(weighted_graphs, "stats", None)),
        "polygon.triangulations": lru(getattr(polygon, "triangulations", None)),
        "polygon._flip_path": lru(getattr(polygon, "_flip_path", None)),
        "atlas.mutation_words": lru(getattr(atlas, "mutation_words", None)),
        "basis._fan_lattice": lru(fan_lattice),
    }
    # The memo holds one lattice per polygon size the process has used.
    built = sizes["basis._fan_lattice"]
    sizes["MonomialLattice._cache (fan lattices)"] = (
        sum(len(getattr(fan_lattice(n), "_cache", ())) for n in n_gons) if built else built
    )
    return sizes


class SpeedProbe:
    """How fast the shared machine runs while an operation does.

    The host's speed changes by up to half within milliseconds (other
    tenants on the same cores), so a latency alone says as much about the
    host as about the program.  Every PROBE_PERIOD_S of wall time, and once
    before and after each timed interval, SIGALRM runs a fixed slice of
    pure-Python work (dicts keyed by tuples and frozensets, integer and
    Fraction arithmetic, as in the package) with the collector off, so the
    package's heap does not leak into it, and records how long the slice
    took.  ``clock()`` is ``perf_counter`` minus the time spent in slices,
    so the probe's own work is in no latency and no span.  ``stop()``
    returns the mean of PROBE_REF_S over the slice times since
    ``start()``: a program time times it is that time at the reference
    speed.  Between ``stop()`` and the next ``start()`` no signal comes.
    """

    def __init__(self):
        self.spent = 0.0
        self.samples = []
        self._busy = False
        signal.signal(signal.SIGALRM, self._tick)

    def _slice(self):
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        table = {}
        for i in range(PROBE_STEPS):
            key = (i % 251, i % 241)
            table[key] = table.get(key, 0) + i * i % 7
        for i in range(PROBE_FRACTION_STEPS):
            key = frozenset({(i, i + 1), (i + 2, i % 5)})
            table[key] = table.get(key, Fraction(0)) + Fraction(len(key), 3)
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:
            self._slice()

    def clock(self) -> float:
        """perf_counter without the probe's own slices."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def start(self):
        self.samples = []
        self._slice()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> float:
        """End the interval; return its scale."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._slice()
        return sum(PROBE_REF_S / t for t in self.samples) / len(self.samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up, to time set-up once more")
    args = parser.parse_args(argv)

    born = time.monotonic()
    probe = SpeedProbe()
    probe.start()
    setup_start = probe.clock()
    import_tropclust()
    import tropclust.cli  # noqa: F401  (the timed operations' entry point)
    from tropclust import weighted_graphs
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    with open(os.path.join(args.dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for inst in manifest:
        with open(os.path.join(args.dir, inst["file"]), "rb") as fh:
            fh.read()
    setup_s = probe.clock() - setup_start
    setup_scale = probe.stop()
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"born": born, "setup_s": setup_s, "setup_scale": setup_scale}, fh)
        return 0

    tracer = Tracer(probe.clock) if args.trace else None
    done, seen_groups = [], set()
    for inst in manifest:
        if inst["group"] is not None:
            if inst["group"] in seen_groups:
                continue
            seen_groups.add(inst["group"])
        in_path = os.path.join(args.dir, inst["file"])
        out_path = os.path.join(args.dir, "out-" + inst["file"])
        probe.start()
        start = probe.clock()
        try:
            if tracer:
                tracer.op = inst["index"]
                with tracer.span("op"):
                    result = workload.traced(inst, in_path, out_path, tracer)
            else:
                result = workload.run(inst, in_path, out_path)
            error = None
        except Exception as exc:  # an escaping exception fails the operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = probe.clock() - start
        scale = probe.stop()
        done.append([inst, latency, scale, len(probe.samples), result, error])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stats_fn = getattr(weighted_graphs, "stats", None)
    stats_info = stats_fn.cache_info()._asdict() if hasattr(stats_fn, "cache_info") else None
    caches = cache_sizes(sorted({inst["n_gon"] for inst, *_ in done}))

    ops = []
    for inst, latency, scale, samples, result, error in done:
        in_path = os.path.join(args.dir, inst["file"])
        out_path = os.path.join(args.dir, "out-" + inst["file"])
        if error is None:
            try:
                error = workload.check(inst, in_path, out_path, result)
            except Exception as exc:  # an unreadable output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        ops.append({"index": inst["index"], "n_gon": inst["n_gon"],
                    "latency_s": latency, "scale": scale, "probe_samples": samples,
                    "failure": error})

    doc = {
        "born": born,
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "ops": ops,
        "rss_mb": rss_mb,
        "caches": caches,
        "stats_cache_info": stats_info,
    }
    if tracer:
        doc["spans"] = tracer.spans
        doc["counts"] = dict(tracer.counts)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
