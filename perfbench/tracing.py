"""Span tracing from outside the program, for the traced benchmark run.

The benchmark wraps calls into each layer's public functions in its own
process only; the program itself is not instrumented.  Every wrapped
call records one span ``(name, start, end, parent, run)``: ``parent``
is the id of the enclosing span on the same thread (``-1`` at the top)
and ``run`` labels the episode and writer thread.  Spans stay in memory
and are reduced to per-layer metrics once, when the run ends.

Hazards, kept here because the traced run lives here:

* The tracer wraps ``VersionGraph.compile`` and ``CompiledGraph.refresh``
  but never calls them itself.  Calling ``engine.graph.compile()``
  between operations while retirement tombstones were pending compacted
  the compiled slot space under the live plan tree; the next
  ``retire_version`` then raised ``KeyError`` in ``CompiledGraph.edge_id``.
  That is a program defect, left for a correctness change; a tracer must
  observe calls the program makes, never add its own.
* ``IngestEngine`` and ``ShardRouter`` bind their solver kernel from
  ``ENGINE_KERNELS`` at construction, so the kernels are wrapped in that
  table before any engine is built.  ``min_storage_parent_edges`` and
  ``snapshot_delta_bytes_pair`` are imported at call time by their
  callers, so patching the module attribute is enough for them.
* Wrappers are installed on classes and modules for the whole process
  and are never removed: the traced run is a separate process.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "install", "layer_metrics"]

#: span name -> layer it belongs to.  The layer's self time is the sum
#: over its spans of the span's duration minus its direct children's.
LAYERS = {
    "compile": "compiled",
    "refresh": "compiled",
    "min_storage_parent_edges": "arborescence",
    "lmg_array": "solvers",
    "lmg_all_array": "solvers",
    "mp_array": "solvers",
    "bmr_lmg_array": "solvers",
    "mp_local_array": "solvers",
    "sweep_greedy": "trajectory",
    "append_version": "plantree",
    "rehome_subtree": "plantree",
    "detach_version": "plantree",
    "to_plan": "plantree",
    "engine.ingest_version": "engine",
    "engine.ingest_commit": "engine",
    "engine.retire_version": "engine",
    "router.ingest_version": "router",
    "router.retire_version": "router",
    "router.union_graph": "router",
    "router.stitch": "router",
    "snapshot_delta_bytes_pair": "vcs",
    "store.sync": "store",
    "store.checkout": "store",
}


class Tracer:
    """In-memory span recorder shared by every thread of one run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int, str]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def set_run(self, run: str) -> None:
        """Label this thread's following spans (episode / writer)."""
        self._local.run = run

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records a span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                # list.append is atomic under the interpreter lock
                self.spans.append(
                    (name, t0, t1, parent, span_id, getattr(local, "run", ""))
                )

        return traced


def _patch(owner, attr: str, tracer: Tracer, name: str) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in :data:`LAYERS` for this process.

    Must run before any engine or router is constructed (they bind
    their kernel from the registry at construction).
    """
    import repro.fastgraph as fastgraph
    import repro.fastgraph.arborescence as arborescence
    import repro.fastgraph.solvers as solvers
    import repro.fastgraph.trajectory as trajectory
    import repro.vcs.build as vcs_build
    from repro.algorithms import registry
    from repro.core.graph import VersionGraph
    from repro.engine import IngestEngine, ShardRouter
    from repro.fastgraph import ArrayPlanTree, CompiledGraph
    from repro.store import MaterializationStore

    _patch(VersionGraph, "compile", tracer, "compile")
    _patch(CompiledGraph, "refresh", tracer, "refresh")
    _patch(arborescence, "min_storage_parent_edges", tracer, "min_storage_parent_edges")

    kernels = {}
    for name in ("lmg_array", "lmg_all_array", "mp_array", "bmr_lmg_array", "mp_local_array"):
        wrapped = tracer.wrap(name, getattr(solvers, name))
        kernels[getattr(solvers, name)] = wrapped
        setattr(solvers, name, wrapped)  # mp_local_array -> mp_array
        setattr(fastgraph, name, wrapped)  # the benchmark's own calls
    for key, fn in list(registry.ENGINE_KERNELS.items()):
        registry.ENGINE_KERNELS[key] = kernels[fn]
    fastgraph.sweep_greedy = tracer.wrap("sweep_greedy", trajectory.sweep_greedy)

    for attr in ("append_version", "rehome_subtree", "detach_version", "to_plan"):
        _patch(ArrayPlanTree, attr, tracer, attr)
    for attr in ("ingest_version", "ingest_commit", "retire_version"):
        _patch(IngestEngine, attr, tracer, f"engine.{attr}")
    for attr in ("ingest_version", "retire_version", "union_graph", "stitch"):
        _patch(ShardRouter, attr, tracer, f"router.{attr}")
    _patch(vcs_build, "snapshot_delta_bytes_pair", tracer, "snapshot_delta_bytes_pair")
    _patch(MaterializationStore, "sync", tracer, "store.sync")
    _patch(MaterializationStore, "checkout", tracer, "store.checkout")


def layer_metrics(spans, thread_wall_s: float) -> dict[str, float]:
    """Reduce spans to the per-layer metrics (seconds and counts).

    ``thread_wall_s`` is the timed wall time summed over the threads
    that issued operations; ``trace.coverage`` is the share of it that
    the layers' self times account for.
    """
    child = defaultdict(float)
    name_of = {}
    for name, t0, t1, parent, span_id, _run in spans:
        name_of[span_id] = name
        if parent >= 0:
            child[parent] += t1 - t0
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    peak = defaultdict(float)
    layer_self = defaultdict(float)
    in_sync_checkout = 0.0
    client_checkout = 0.0
    for name, t0, t1, parent, span_id, _run in spans:
        dur = t1 - t0
        calls[name] += 1
        busy[name] += dur
        own = dur - child[span_id]
        self_s[name] += own
        layer_self[LAYERS[name]] += own
        peak[name] = max(peak[name], dur)
        if name == "store.checkout":
            if parent >= 0 and name_of.get(parent) == "store.sync":
                in_sync_checkout += dur
            elif parent < 0:
                client_checkout += dur

    def total(kind, *names):
        return float(sum(kind[n] for n in names))

    kernels = ("lmg_array", "lmg_all_array", "mp_array", "bmr_lmg_array", "mp_local_array")
    return {
        "compiled.calls": total(calls, "compile", "refresh"),
        "compiled.busy_s": total(busy, "compile", "refresh"),
        "arborescence.calls": total(calls, "min_storage_parent_edges"),
        "arborescence.busy_s": total(busy, "min_storage_parent_edges"),
        "arborescence.max_s": peak["min_storage_parent_edges"],
        "solvers.calls": total(calls, *kernels),
        "solvers.self_s": layer_self["solvers"],
        "trajectory.self_s": layer_self["trajectory"],
        "plantree.append.calls": total(calls, "append_version"),
        "plantree.append.busy_s": total(busy, "append_version"),
        "plantree.rehome.busy_s": total(busy, "rehome_subtree"),
        "plantree.detach.busy_s": total(busy, "detach_version"),
        "plantree.to_plan.busy_s": total(busy, "to_plan"),
        "engine.ingest.self_s": total(self_s, "engine.ingest_version", "engine.ingest_commit"),
        "engine.retire.self_s": total(self_s, "engine.retire_version"),
        "router.self_s": layer_self["router"],
        "router.union_graph.busy_s": total(busy, "router.union_graph"),
        "vcs.diff.calls": total(calls, "snapshot_delta_bytes_pair"),
        "vcs.diff.busy_s": total(busy, "snapshot_delta_bytes_pair"),
        "store.sync.calls": total(calls, "store.sync"),
        "store.sync.self_s": total(self_s, "store.sync"),
        "store.checkout.busy_s": client_checkout,
        "store.checkout.in_sync_busy_s": in_sync_checkout,
        "trace.spans": float(len(spans)),
        "trace.coverage": sum(layer_self.values()) / max(thread_wall_s, 1e-12),
    }
