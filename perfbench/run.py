"""Repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan|serve|shard --seed N \\
        --seconds S --trace 0|1

The run repeats fixed-size episodes of the workload for about ``S``
seconds (always at least one), drawing each episode's inputs from
``--seed``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer ones with ``--trace 1`` (a separate run, with every layer
boundary wrapped by :mod:`tracing`).  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBES_PER_BOUNDARY = 3  # machine-speed probes between episodes

#: every per-layer metric of a traced run, with its unit
PER_LAYER_UNITS = {
    "compiled.calls": "count",
    "compiled.busy_s": "s",
    "arborescence.calls": "count",
    "arborescence.busy_s": "s",
    "arborescence.max_s": "s",
    "solvers.calls": "count",
    "solvers.self_s": "s",
    "trajectory.self_s": "s",
    "trajectory.replayed_points": "count",
    "trajectory.live_points": "count",
    "plantree.append.calls": "count",
    "plantree.append.busy_s": "s",
    "plantree.rehome.busy_s": "s",
    "plantree.detach.busy_s": "s",
    "plantree.to_plan.busy_s": "s",
    "engine.resolves": "count",
    "engine.ingest.self_s": "s",
    "engine.retire.self_s": "s",
    "router.self_s": "s",
    "router.union_graph.busy_s": "s",
    "router.stitches": "count",
    "vcs.diff.calls": "count",
    "vcs.diff.busy_s": "s",
    "store.sync.calls": "count",
    "store.sync.self_s": "s",
    "store.checkout.busy_s": "s",
    "store.checkout.in_sync_busy_s": "s",
    "store.bytes_written_per_user_byte": "ratio",
    "store.chain_depth_mean": "count",
    "trace.coverage": "ratio",
    "trace.spans": "count",
    "trace.ops_per_s": "1/s",
    "trace.op_p50_ms": "ms",
    "api.msr_solve.mean_s": "s",
    "api.bmr_solve.mean_s": "s",
    "api.sweep.mean_s": "s",
    "api.ingest.p50_ms": "ms",
    "api.ingest.p99_ms": "ms",
    "api.checkout.p50_ms": "ms",
    "api.checkout.p99_ms": "ms",
    "api.retire.p95_ms": "ms",
    "api.stitch.median_s": "s",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: statistic of one kind of op's latencies, by per-layer metric suffix
API_STATS = {
    "mean_s": statistics.fmean,
    "median_s": statistics.median,
    "p50_ms": lambda lat: percentile(lat, 0.50) * 1e3,
    "p95_ms": lambda lat: percentile(lat, 0.95) * 1e3,
    "p99_ms": lambda lat: percentile(lat, 0.99) * 1e3,
}


def end_to_end(tally, k: float) -> dict[str, tuple[float, str]]:
    """Latencies, throughput and plan totals pool every episode of the
    run; set-up time is the median episode's.  ``k`` scales times to
    the reference machine speed (see :mod:`speed`)."""
    eps = tally.episodes
    op_s = [t for ep in eps for t in ep.op_s()]
    solves = [t for ep in eps for t in ep.msr_solve_s]
    materialized = sum(ep.materialized for ep in eps)
    return {
        "setup_s": (k * statistics.median(ep.setup_s for ep in eps), "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        ),
        "ops_per_s": (len(op_s) / (k * sum(ep.wall_s for ep in eps)), "1/s"),
        "op_p50_ms": (k * percentile(op_s, 0.50) * 1e3, "ms"),
        "op_p95_ms": (k * percentile(op_s, 0.95) * 1e3, "ms"),
        "msr_solve_s": (k * statistics.fmean(solves), "s"),
        "retrieval_ratio": (sum(ep.retrieval for ep in eps) / materialized, "ratio"),
        "storage_ratio": (sum(ep.storage for ep in eps) / materialized, "ratio"),
    }


def per_layer(tally, tracer, k: float) -> dict[str, tuple[float, str]]:
    """Layer metrics from the spans (raw seconds), counters, and the
    latency of each kind of op (scaled like the end-to-end times; 0
    where the workload has no such op)."""
    from tracing import layer_metrics
    from workloads import CHECK_RUN

    spans = [s for s in tracer.spans if s[5] != CHECK_RUN]
    layers = layer_metrics(spans, sum(ep.thread_wall_s for ep in tally.episodes))
    traced = end_to_end(tally, k)
    c = tally.counters
    layers.update({
        "trajectory.replayed_points": c.get("trajectory.replayed_points", 0.0),
        "trajectory.live_points": c.get("trajectory.live_points", 0.0),
        "engine.resolves": c.get("engine.resolves", 0.0),
        "router.stitches": c.get("router.stitches", 0.0),
        "store.bytes_written_per_user_byte": (
            c.get("store.bytes_written", 0.0) / c.get("store.user_bytes", 1.0)
        ),
        "store.chain_depth_mean": (
            c.get("store.chain_depth_sum", 0.0) / c.get("store.chain_depth_n", 1.0)
        ),
        # the traced run's own end-to-end figures; against the untraced
        # run's on the same seed they give the tracing overhead
        "trace.ops_per_s": traced["ops_per_s"][0],
        "trace.op_p50_ms": traced["op_p50_ms"][0],
    })
    for name in PER_LAYER_UNITS:
        if name.startswith("api."):
            _, kind, stat = name.split(".")
            lat = [t for ep in tally.episodes for t in ep.ops.get(kind, ())]
            layers[name] = k * API_STATS[stat](lat) if lat else 0.0
    return {name: (float(layers[name]), unit) for name, unit in PER_LAYER_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("plan", "serve", "shard"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from speed import probe, scale
    from tracing import Tracer, install
    from workloads import WORKLOADS, Tally, episode_seed

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    run, threads = WORKLOADS[args.workload]
    # the single-threaded probe tracks single-threaded workloads only;
    # two writers sharing the interpreter lock are reported unscaled
    probing = threads == 1
    tally = Tally()
    probes = [probe() for _ in range(PROBES_PER_BOUNDARY if probing else 0)]
    start = time.perf_counter()
    episode = 0
    while True:
        if tracer is not None:
            tracer.set_run(str(episode))
        run(episode_seed(args.workload, args.seed, episode), tally, tracer)
        episode += 1
        gc.collect()  # the last episode's garbage, outside any timing
        if probing:
            probes += [probe() for _ in range(PROBES_PER_BOUNDARY)]
        # start another episode only if one of average length still fits
        elapsed = time.perf_counter() - start
        if elapsed * (episode + 1) / episode > args.seconds:
            break

    k = scale(probes) if probing else 1.0
    metrics = per_layer(tally, tracer, k) if tracer is not None else end_to_end(tally, k)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
