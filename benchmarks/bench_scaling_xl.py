"""XL scaling tier: the incremental greedy kernels at scale.

Times the incremental array kernels of :mod:`repro.fastgraph.solvers`
at sizes the dict reference cannot reach, and checks every plan they
produce.  Every tier times the min-storage start tree
(``edmonds_seconds``, the walk-driven contraction of
:mod:`repro.fastgraph.arborescence`, seconds at 100k versions); tiers
of at most ``ORACLE_MAX_NODES`` versions also run the dict
:func:`~repro.algorithms.arborescence.min_storage_arborescence` and
record whether the parent maps are equal (``start_identical``).  Three
panels per tier, written to ``BENCH_xl.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_scaling_xl.py          # 20k + 100k
    PYTHONPATH=src python benchmarks/bench_scaling_xl.py --smoke  # CI, < 60 s

* **solve** — LMG / LMG-All / BMR-LMG from the tier's *shared*
  min-storage start.  Each row records absolute kernel seconds, plan
  feasibility under the independent
  :func:`~repro.core.problems.evaluate_plan`, and whether
  :meth:`~repro.fastgraph.plantree.ArrayPlanTree.check_invariants`
  holds.  Tiers of at most ``ORACLE_MAX_NODES``
  versions (the smoke tier) also run the dict reference at the same
  budget and record whether its parent map equals the kernel's.
* **sweep** — a budget-grid LMG sweep via trajectory replay, reusing
  the tier's start edges (absolute seconds, untracked).
* **ingest** — online append throughput: new versions folded into the
  compiled arrays through the mutation-event path (untracked).

Tiers above ``SOLVE_CAP`` (the 100k tier) time the start tree, then
run the BMR family (O(V) materialized start) with capped rounds plus
the ingest panel, proving capability at scale.  Gating happens on the
smoke variant: CI runs ``--smoke`` (writing ``BENCH_xl_smoke.json``)
and feeds it to ``repro-versioning bench-check`` against the committed
baseline — see docs/benchmarks.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms.arborescence import min_storage_arborescence
from repro.algorithms.bmr_greedy import bmr_lmg
from repro.algorithms.lmg import lmg
from repro.algorithms.lmg_all import lmg_all
from repro.core.graph import GraphError
from repro.core.problems import evaluate_plan
from repro.core.tolerance import within_budget_recomputed
from repro.fastgraph import sweep_greedy
from repro.fastgraph.arborescence import min_storage_parent_edges
from repro.fastgraph.plantree import ArrayPlanTree
from repro.fastgraph.solvers import (
    _bmr_default_rounds,
    _bmr_run,
    _lmg_all_default_rounds,
    _lmg_all_run,
    _lmg_candidates,
    _lmg_default_rounds,
    _lmg_run,
    _materialized_array_tree,
)
from repro.gen.presets import PRESETS

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_xl.json"

#: Natural preset used for scaling (bidirectional branch/merge history).
PRESET = "996.ICU"

FULL_SIZES = (20000, 100000)
SMOKE_SIZES = (1000,)

#: Largest tier that runs the solve and sweep panels; larger tiers time
#: the start tree and run capability panels only.
SOLVE_CAP = 20000

#: Tiers up to this size also run the dict reference arborescence and
#: solvers (seconds at 1000 versions, minutes beyond 2000) as the
#: plan-identity oracle.
ORACLE_MAX_NODES = 1000

#: Move cap for the capability tiers (full BMR rounds at 100k versions
#: would apply ~100k moves; the panel only needs a stable rate sample).
CAPABILITY_ROUNDS = 20000

#: Versions appended by the ingest panel.
INGEST_APPENDS = 2000


def _build(nodes: int):
    preset = PRESETS[PRESET]
    return preset.build(scale=nodes / preset.n_commits)


def _time(fn, *args, **kwargs) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _invariants_hold(tree: ArrayPlanTree) -> bool:
    try:
        tree.check_invariants()
    except GraphError:
        return False
    return True


def solve_panel(graph, cg, start_edges, *, oracle: bool) -> list[dict]:
    """The three greedy kernels from a shared start, each plan checked.

    With ``oracle`` the dict reference solves the same budget and the
    row records whether the two parent maps are equal.
    """
    base = ArrayPlanTree(cg, start_edges)
    budget = base.total_storage * 2.0
    # materialized retrieval is 0 everywhere (stored-in-full versions
    # reconstruct for free), so the cap must come from the delta edges:
    # twice the worst single-delta retrieval admits real chains while
    # still rejecting most deep ones, keeping the greedy loop busy
    retrieval_budget = float(cg.edge_retrieval.max()) * 2.0
    # LMG gets a work-representative budget: 10% of the way from the
    # minimum-storage start to full materialization.  A small multiple
    # of the start admits only a handful of moves at this scale, which
    # times kernel setup instead of the greedy loop.
    full_storage = float(cg.edge_storage[cg.aux_edge].sum())
    lmg_budget = base.total_storage + 0.1 * (full_storage - base.total_storage)

    cases = [
        (
            "lmg",
            lambda: ArrayPlanTree(cg, start_edges),
            lambda t: _lmg_run(
                cg, t, _lmg_candidates(cg, t), lmg_budget, _lmg_default_rounds(cg)
            ),
            lmg,
            "storage",
            lmg_budget,
        ),
        (
            "lmg-all",
            lambda: ArrayPlanTree(cg, start_edges),
            lambda t: _lmg_all_run(cg, t, budget, _lmg_all_default_rounds(cg)),
            lmg_all,
            "storage",
            budget,
        ),
        (
            "bmr-lmg",
            lambda: _materialized_array_tree(cg),
            lambda t: _bmr_run(cg, t, retrieval_budget, _bmr_default_rounds(cg)),
            bmr_lmg,
            "max_retrieval",
            retrieval_budget,
        ),
    ]
    rows = []
    for name, make_tree, run, reference, budgeted, b in cases:
        tree = make_tree()
        secs, _ = _time(run, tree)
        score = evaluate_plan(graph, tree.to_plan())
        row = {
            "solver": name,
            "budget": b,
            "incremental_seconds": secs,
            "feasible": bool(within_budget_recomputed(getattr(score, budgeted), b)),
            "invariants_ok": _invariants_hold(tree),
            "storage": tree.total_storage,
            "retrieval": tree.total_retrieval,
        }
        status = "feasible" if row["feasible"] and row["invariants_ok"] else "BROKEN"
        if oracle:
            row["oracle_seconds"], ref = _time(reference, graph, b)
            row["plans_identical"] = ref.parent == tree.parent_map()
            status += ", = dict" if row["plans_identical"] else ", PLAN MISMATCH"
        rows.append(row)
        print(f"  solve   {name:<8} incr={secs:8.2f}s [{status}]", flush=True)
    return rows


def sweep_panel(cg, start_edges) -> dict:
    """Budget-grid LMG sweep through trajectory replay.

    The timed sweep builds its own start tree, as every caller's does.
    """
    base = ArrayPlanTree(cg, start_edges).total_storage
    budgets = [base * f for f in (1.05, 1.2, 1.4, 1.7, 2.0, 2.5, 3.0, 4.0)]
    secs, entries = _time(sweep_greedy, cg, "msr", "lmg", budgets)
    print(f"  sweep   lmg x{len(budgets)} budgets in {secs:8.2f}s", flush=True)
    return {
        "solver": "lmg",
        "points": len(budgets),
        "sweep_seconds": secs,
        "monotone_storage": all(
            a.score is not None
            and b.score is not None
            and a.score.storage <= b.score.storage + 1e-9
            for a, b in zip(entries, entries[1:])
        ),
    }


def capability_panel(cg) -> dict:
    """Capped BMR run for tiers above the solve panel's size."""
    tree = _materialized_array_tree(cg)
    retrieval_budget = float(cg.edge_retrieval.max()) * 2.0
    rounds = min(CAPABILITY_ROUNDS, _bmr_default_rounds(cg))
    secs, applied = _time(_bmr_run, cg, tree, retrieval_budget, rounds)
    print(
        f"  bmr-cap {applied} moves in {secs:8.2f}s "
        f"({applied / secs if secs > 0 else 0.0:,.0f} moves/s)",
        flush=True,
    )
    return {
        "solver": "bmr-lmg",
        "rounds_cap": rounds,
        "moves_applied": int(applied),
        "seconds": secs,
        "moves_per_second": applied / secs if secs > 0 else None,
        "storage": tree.total_storage,
    }


def ingest_panel(graph, appends: int) -> dict:
    """Online append throughput through the compiled mutation path."""
    graph.compile()
    prev = next(iter(graph.versions))  # chain the appends off one tip
    t0 = time.perf_counter()
    for i in range(appends):
        v = f"xl-ingest-{i}"
        graph.add_version(v, 10.0)
        graph.add_delta(prev, v, 3.0, 1.0)
        prev = v
    cg = graph.compile()  # folds the pending appends into the arrays
    secs = time.perf_counter() - t0
    print(
        f"  ingest  {appends} appends in {secs:8.2f}s "
        f"({appends / secs if secs > 0 else 0.0:,.0f}/s)",
        flush=True,
    )
    return {
        "appends": appends,
        "seconds": secs,
        "appends_per_second": appends / secs if secs > 0 else None,
        "versions_after": cg.n,
    }


def bench_tier(nodes: int) -> dict:
    g = _build(nodes)
    cg = g.compile()
    print(f"{PRESET} n={cg.n} m={cg.num_edges} (index {cg.index_dtype})", flush=True)
    tier: dict = {
        "nodes": cg.n,
        "edges": cg.num_edges,
        "index_dtype": str(np.dtype(cg.index_dtype)),
    }
    ed_s, start_edges = _time(min_storage_parent_edges, cg)
    print(f"  edmonds start in {ed_s:8.2f}s", flush=True)
    tier["edmonds_seconds"] = ed_s
    oracle = nodes <= ORACLE_MAX_NODES
    if oracle:
        ref_s, ref = _time(min_storage_arborescence, cg.graph)
        tier["start_identical"] = ref == {
            cg.nodes[v]: cg.node_of(int(cg.edge_src[e])) for v, e in start_edges
        }
        same = "= dict" if tier["start_identical"] else "START MISMATCH"
        print(f"  edmonds dict reference in {ref_s:8.2f}s [{same}]", flush=True)
    if nodes <= SOLVE_CAP:
        tier["solve"] = solve_panel(g, cg, start_edges, oracle=oracle)
        tier["sweep"] = sweep_panel(cg, start_edges)
    else:
        tier["capability"] = capability_panel(cg)
    tier["ingest"] = ingest_panel(g, INGEST_APPENDS)
    return tier


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one small tier only (CI smoke run, < 60 s); writes "
        "BENCH_xl_smoke.json unless --out is given",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="*",
        default=None,
        help="explicit tier sizes (overrides --smoke)",
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    sizes = args.sizes or (SMOKE_SIZES if args.smoke else FULL_SIZES)
    out = args.out or str(
        REPO_ROOT / ("BENCH_xl_smoke.json" if args.smoke else "BENCH_xl.json")
    )

    tiers = [bench_tier(n) for n in sizes]

    # gate flags cover every solve row: feasibility and invariants on
    # every tier, plan identity on the tiers that ran the dict oracle
    rows = [r for t in tiers for r in t.get("solve", [])]
    payload: dict = {"preset": PRESET, "sizes": list(sizes), "tiers": tiers}
    starts = [t["start_identical"] for t in tiers if "start_identical" in t]
    if starts:
        payload["start_identical"] = all(starts)
    if rows:
        payload["gate_nodes"] = max(t["nodes"] for t in tiers if "solve" in t)
        payload["all_plans_feasible"] = all(
            r["feasible"] and r["invariants_ok"] for r in rows
        )
        checked = [r["plans_identical"] for r in rows if "plans_identical" in r]
        if checked:
            payload["all_plans_identical"] = all(checked)
    Path(out).write_text(json.dumps(payload, indent=1))
    print(f"wrote {out}")
    if not payload.get("start_identical", True):
        print("FAIL: start tree differs from the dict arborescence", file=sys.stderr)
        return 1
    if not payload.get("all_plans_feasible", True):
        print("FAIL: infeasible plan or broken tree invariants", file=sys.stderr)
        return 1
    if not payload.get("all_plans_identical", True):
        print("FAIL: incremental kernel differs from the dict reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
