"""DP-MSR — the practical frontier DP for MinSum Retrieval (Section 6.2).

On a bidirectional tree, every storage plan partitions the tree into
connected components, each owning exactly one materialized *center*;
a version's retrieval cost is the unique tree-path cost from its
component's center.  The DP walks the tree bottom-up with state

    ``D[v][u]`` — the Pareto frontier of ``(storage, total retrieval)``
    over partial plans of the subtree ``T[v]`` in which ``v`` belongs to
    a component centered at ``u``

where ``u`` ranges over *all* tree nodes: ``u = v`` materializes ``v``
(charging ``s_v``), ``u`` inside ``T[v]`` charges the up-edge from the
child subtree holding ``u``, and ``u`` outside charges the down-edge
from ``v``'s parent; in each case ``v``'s own retrieval contribution is
the tree distance ``dist(u, v)``.  Folding a child ``w`` into ``v``
combines frontiers: if ``u ∈ T[w]`` the child *must* share the center
(``D[w][u]``), otherwise the child either joins ``v``'s component
(``D[w][u]``) or resolves independently (``BEST[w] = min over centers
x ∈ T[w] of D[w][x]``).

This is equivalent to the paper's ``(k, γ, ρ)`` state of Section 5.1 —
the dependency count ``k`` is the slope of ``D[v][u]`` as a function of
``dist(u, v)`` — but the component-center form needs no binarization
and vectorizes as NumPy frontier algebra.

Fidelity to Section 6.2's three modifications:

1. *storage* (not retrieval) is the discretized axis — frontiers are
   thinned on geometric storage buckets (:class:`ThinningGrid`);
2. geometric discretization — ditto;
3. pruning — frontier points above ``storage_cap`` are discarded.

With ``ticks=None`` the DP is **exact** on bidirectional trees (the
test-suite checks it against brute force); on general digraphs the
Section-6.2 tree extraction applies first, making it a heuristic.
Like the paper's implementation, one run yields the *entire*
storage/retrieval trade-off curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.graph import GraphError, Node, VersionGraph
from ..core.tolerance import self_check_tol, within_budget, within_budget_recomputed
from ..core.problems import PlanScore, evaluate_plan
from ..core.solution import StoragePlan
from .dp_bmr import TreeIndex, _map_back, _orient, extract_index
from .frontier import Frontier, ThinningGrid, merge_frontiers

__all__ = ["DPMSRSolver", "DPMSRResult", "dp_msr", "dp_msr_frontier"]


@dataclass(frozen=True)
class DPMSRResult:
    """A reconstructed plan plus its exact re-evaluated score."""

    plan: StoragePlan
    score: PlanScore
    frontier: Frontier


class DPMSRSolver:
    """Reusable DP-MSR engine over one (extracted) bidirectional tree.

    Parameters
    ----------
    graph:
        Base version graph.  Bidirectional trees are solved directly
        (exactly, when ``ticks=None``); anything else goes through the
        Section-6.2 tree extraction.
    ticks:
        Number of geometric storage buckets per frontier (None = exact).
    storage_cap:
        Pruning threshold; defaults to the total materialization cost
        (beyond which "store everything" with zero retrieval dominates).
    keep_tables:
        Retain per-node DP tables so plans can be reconstructed for any
        budget (uses O(n^2) frontier memory — fine below ~300 nodes).
    """

    def __init__(
        self,
        graph: VersionGraph,
        *,
        root: Node | None = None,
        index: TreeIndex | None = None,
        ticks: int | None = 64,
        storage_cap: float | None = None,
        keep_tables: bool = False,
    ):
        self.graph = graph
        if index is None:
            if graph.is_bidirectional_tree():
                root_ = root if root is not None else min(graph.versions, key=str)
                index = TreeIndex(graph, root_, _orient(graph, root_))
            else:
                index = extract_index(graph, root)
        self.index = index
        self.tree = index.graph
        cap = storage_cap if storage_cap is not None else self.tree.total_version_storage()
        if ticks is None:
            # exact mode; apply cap-only pruning when explicitly requested
            self.grid = (
                None
                if storage_cap is None
                else ThinningGrid(cap=cap, max_points=1_000_000_000)
            )
        else:
            self.grid = ThinningGrid(cap=cap, max_points=ticks)
        self.cap = cap
        self.keep_tables = keep_tables
        self.tables: dict[Node, dict[Node, Frontier]] = {}
        self._frontier: Frontier | None = None

    # ------------------------------------------------------------------
    def frontier(self) -> Frontier:
        """Run the DP (once) and return the root trade-off frontier."""
        if self._frontier is None:
            self._frontier = self._run()
        return self._frontier

    def _init_row(self, v: Node, u: Node) -> Frontier:
        tree, index = self.tree, self.index
        if u == v:
            return Frontier.single(tree.storage_cost(v), 0.0, self.grid)
        pred = index.pred_on_path(u, v)
        return Frontier.single(
            tree.delta(pred, v).storage, index.path_cost[u][v], self.grid
        )

    def _run(self) -> Frontier:
        index, grid = self.index, self.grid
        nodes = index.nodes
        tables = self.tables
        for v in index.post_order:
            rows = {u: self._init_row(v, u) for u in nodes}
            for w in index.children[v]:
                dw = tables[w] if self.keep_tables else tables.pop(w)
                inside = set(index.subtree_nodes(w))
                best_w = merge_frontiers((dw[x] for x in inside), grid)
                for u in nodes:
                    c = dw[u] if u in inside else dw[u].union(best_w, grid)
                    rows[u] = rows[u].combine(c, grid)
            tables[v] = rows
        root_rows = tables[index.root]
        result = merge_frontiers(root_rows.values(), grid)
        if not self.keep_tables:
            tables.clear()
        return result

    # ------------------------------------------------------------------
    # plan reconstruction
    # ------------------------------------------------------------------
    def plan_for_budget(self, storage_budget: float) -> StoragePlan:
        """Reconstruct the plan realizing the frontier point at ``budget``.

        Requires ``keep_tables=True``.  The reconstruction re-runs each
        node's fold sequence and splits the chosen point back into child
        contributions by exact-sum matching.  Raises a plain
        ``ValueError`` when ``storage_budget`` is below the minimum
        achievable storage, and :class:`GraphError` for internal or
        structural failures.
        """
        if not self.keep_tables:
            raise GraphError("plan reconstruction requires keep_tables=True")
        self.frontier()
        index = self.index
        root_rows = self.tables[index.root]
        best: tuple[float, float, Node] | None = None
        for u, f in root_rows.items():
            p = f.best_point_within(storage_budget)
            if p is not None and (best is None or p[1] < best[1]):
                best = (p[0], p[1], u)
        if best is None:
            # plain ValueError (not GraphError): this is budget
            # infeasibility, not a structural problem with the input
            raise ValueError(
                f"storage budget {storage_budget} below the minimum achievable "
                f"storage on the extracted tree"
            )
        sto, ret, u = best
        materialized: list[Node] = []
        edges: list[tuple[Node, Node]] = []
        stack: list[tuple[Node, Node, float, float]] = [(index.root, u, sto, ret)]
        while stack:
            v, u, sto, ret = stack.pop()
            if u == v:
                materialized.append(v)
            else:
                edges.append((index.pred_on_path(u, v), v))
            stack.extend(self._decompose(v, u, sto, ret))
        plan = StoragePlan.of(materialized, edges)
        return _map_back(self.graph, self.tree, plan)

    def _decompose(
        self, v: Node, u: Node, sto: float, ret: float
    ) -> list[tuple[Node, Node, float, float]]:
        """Split point (sto, ret) of D[v][u] into child assignments."""
        index, grid = self.index, self.grid
        children = index.children[v]
        if not children:
            return []
        # Rebuild the fold sequence exactly as _run did.
        contribs: list[dict] = []
        acc = [self._init_row(v, u)]
        for w in children:
            dw = self.tables[w]
            inside = set(index.subtree_nodes(w))
            if u in inside:
                c = dw[u]
            else:
                best_w = merge_frontiers((dw[x] for x in inside), grid)
                c = dw[u].union(best_w, grid)
            contribs.append({"w": w, "frontier": c, "inside": inside})
            acc.append(acc[-1].combine(c, grid))
        # Backtrack: peel children off the accumulated point.
        out: list[tuple[Node, Node, float, float]] = []
        target = (sto, ret)
        for i in range(len(children), 0, -1):
            prev, c = acc[i - 1], contribs[i - 1]["frontier"]
            pair = _split_sum(prev, c, target)
            if pair is None:
                raise GraphError(
                    f"reconstruction failed at {v!r} (child {contribs[i-1]['w']!r})"
                )
            (psto, pret), (csto, cret) = pair
            w = contribs[i - 1]["w"]
            inside = contribs[i - 1]["inside"]
            cu = self._locate_center(w, u, inside, csto, cret)
            out.append((w, cu, csto, cret))
            target = (psto, pret)
        return out

    def _locate_center(
        self, w: Node, u: Node, inside: set[Node], sto: float, ret: float
    ) -> Node:
        """Which center realizes point (sto, ret) of child ``w``'s slot?"""
        dw = self.tables[w]
        if u in inside:
            return u
        if _contains_point(dw[u], sto, ret):
            return u
        for x in self.index.subtree_nodes(w):
            if _contains_point(dw[x], sto, ret):
                return x
        raise GraphError(f"no center realizes point ({sto}, {ret}) at {w!r}")


def _contains_point(f: Frontier, sto: float, ret: float) -> bool:
    if f.is_empty:
        return False
    i = np.searchsorted(f.sto, sto - self_check_tol(sto))
    j = np.searchsorted(f.sto, sto + self_check_tol(sto), side="right")
    if i >= j:
        return False
    return bool(np.any(np.abs(f.ret[i:j] - ret) <= self_check_tol(ret)))


def _split_sum(
    a: Frontier, b: Frontier, target: tuple[float, float]
) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Find points p ∈ a, q ∈ b with p + q == target (within tolerance)."""
    ts, tr = target
    s = a.sto[:, None] + b.sto[None, :]
    r = a.ret[:, None] + b.ret[None, :]
    hit = (np.abs(s - ts) <= self_check_tol(ts)) & (np.abs(r - tr) <= self_check_tol(tr))
    idx = np.argwhere(hit)
    if idx.shape[0] == 0:
        return None
    i, j = idx[0]
    return (float(a.sto[i]), float(a.ret[i])), (float(b.sto[j]), float(b.ret[j]))


# ----------------------------------------------------------------------
# functional API
# ----------------------------------------------------------------------
def dp_msr_frontier(
    graph: VersionGraph,
    *,
    root: Node | None = None,
    index: TreeIndex | None = None,
    ticks: int | None = 64,
    storage_cap: float | None = None,
) -> Frontier:
    """The full storage/retrieval trade-off curve in one DP run.

    This is how the Figure 10-12 sweeps use DP-MSR: the paper plots its
    run time "as a horizontal line over the full range for storage
    constraint" because a single run serves every budget.
    """
    solver = DPMSRSolver(
        graph, root=root, index=index, ticks=ticks, storage_cap=storage_cap
    )
    return solver.frontier()


def dp_msr(
    graph: VersionGraph,
    storage_budget: float,
    *,
    root: Node | None = None,
    index: TreeIndex | None = None,
    ticks: int | None = 64,
) -> DPMSRResult:
    """Solve one MSR instance and reconstruct the plan.

    The returned score re-evaluates the plan on the *original* graph
    (Dijkstra may find cheaper retrieval paths than the extracted tree,
    so ``score.sum_retrieval`` can beat the frontier's estimate).
    """
    solver = DPMSRSolver(
        graph,
        root=root,
        index=index,
        ticks=ticks,
        storage_cap=storage_budget,
        keep_tables=True,
    )
    frontier = solver.frontier()
    plan = solver.plan_for_budget(storage_budget)
    score = evaluate_plan(graph, plan)
    # evaluate_plan re-sums storage in a different association order
    # than the frontier accumulator; validate with recomputation slack
    if not within_budget_recomputed(score.storage, storage_budget):
        raise GraphError(
            f"DP-MSR produced an over-budget plan ({score.storage} > {storage_budget})"
        )
    return DPMSRResult(plan=plan, score=score, frontier=frontier)
