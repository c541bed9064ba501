"""Minimum spanning arborescence (Chu-Liu/Edmonds), from scratch.

The arborescence rooted at the auxiliary root and weighted by *storage*
cost is Problem 1 of Table 1 — the minimum-storage plan — and the
starting configuration of both LMG (Algorithm 1 line 7) and LMG-All
(Algorithm 7 line 2).  Weighted by ``storage + retrieval`` it is the
tree-extraction step of the DP heuristics (Section 6.2 step 1).

The implementation is the classic contraction algorithm:

1. every non-root node picks its cheapest incoming edge;
2. if the picked edges are acyclic they form the answer;
3. otherwise a cycle is contracted into a super-node, edge weights into
   the cycle are reduced by the weight of the cycle edge they would
   displace, and the algorithm repeats on the contracted graph; the
   cycles are then unrolled innermost-last, each dropping the one cycle
   edge displaced by the contracted level's choice.

The contraction loop is iterative (bidirectional graphs contract one
2-cycle per level, so natural graphs reach O(V) levels — a recursive
formulation overflows the interpreter stack around 1k versions), and
cycle discovery scans nodes in deterministic first-seen edge order so
the same graph yields the same arborescence in every process regardless
of hash randomization.  O(V·E): this is the reference oracle, and
:mod:`repro.fastgraph.arborescence` returns the same parent map from a
single walk-driven contraction pass (every cycle contracted once, O(E)
memory) for the solver hot paths.  Tests cross-check against
``networkx.minimum_spanning_arborescence``.
"""

from __future__ import annotations

from typing import Callable

from ..core.graph import AUX, Delta, GraphError, Node, VersionGraph
from ..core.solution import PlanTree

__all__ = [
    "minimum_arborescence",
    "min_storage_arborescence",
    "min_storage_plan_tree",
    "extract_tree_parent_map",
    "Weight",
]

Weight = Callable[[Node, Node, Delta], float]


def storage_weight(u: Node, v: Node, d: Delta) -> float:
    """Default weight: the delta's storage cost (Problem 1 / LMG init)."""
    return d.storage


def storage_plus_retrieval_weight(u: Node, v: Node, d: Delta) -> float:
    """Tree-extraction weight of Section 6.2: ``s_e + r_e``."""
    return d.storage + d.retrieval


def minimum_arborescence(
    graph: VersionGraph,
    root: Node,
    weight: Weight = storage_weight,
) -> dict[Node, Node]:
    """Parent map of the minimum arborescence of ``graph`` rooted at ``root``.

    Raises :class:`GraphError` when some node is unreachable from the
    root.  Deterministic: ties are broken by edge insertion order.  The
    returned map is keyed in **graph insertion order**, so downstream
    float accumulations over it (``PlanTree`` storage/retrieval totals)
    are reproducible and bit-identical to the fastgraph kernels, which
    consume parent maps in node-index order.
    """
    nodes = [v for v in graph.versions]
    if root not in graph:
        raise GraphError(f"root {root!r} not in graph")

    # Edge list with original endpoints; weights precomputed once.
    edges: list[tuple[Node, Node, float]] = []
    for u, v, d in graph.deltas():
        if v == root:
            continue  # edges into the root are never useful
        edges.append((u, v, weight(u, v, d)))

    parent_of = _edmonds(edges)
    missing = [v for v in nodes if v != root and v not in parent_of]
    if missing:
        raise GraphError(f"nodes unreachable from root: {missing[:5]!r}")
    return {v: parent_of[v] for v in nodes if v != root}


def _best_incoming(
    edges: list[tuple[Node, Node, float]],
) -> dict[Node, tuple[Node, float, int]]:
    """Cheapest incoming edge per node; ties keep the earliest edge."""
    best_in: dict[Node, tuple[Node, float, int]] = {}
    for idx, (u, v, w) in enumerate(edges):
        if u == v:
            continue
        cur = best_in.get(v)
        if cur is None or w < cur[1]:
            best_in[v] = (u, w, idx)
    return best_in


def _first_cycle(best_in: dict[Node, tuple[Node, float, int]]) -> list[Node] | None:
    """First cycle among the picked edges, scanning starts in ``best_in``
    insertion order (= first-seen edge order) so the choice — and with it
    the whole arborescence — is identical in every process, independent
    of hash randomization."""
    color: dict[Node, int] = {}
    for start in best_in:
        if start in color:
            continue
        path = []
        x: Node = start
        while x in best_in and x not in color:
            color[x] = 1  # on current path
            path.append(x)
            x = best_in[x][0]
        cycle = None
        if x in color and color[x] == 1:
            # found a cycle: suffix of path starting at x
            cycle = path[path.index(x):]
        for y in path:
            color[y] = 2
        if cycle:
            return cycle
    return None


def _edmonds(edges: list[tuple[Node, Node, float]]) -> dict[Node, Node]:
    """Iterative Chu-Liu/Edmonds on an explicit edge list.

    ``edges`` entries are ``(u, v, w)``; returns ``{v: u}`` over the
    *original* node ids.  The caller must pre-filter edges into the
    intended root (the root is simply the node that never appears as a
    destination).  Super-nodes created by contraction are tuples from an
    internal counter to avoid clashing with user node ids.  The
    contraction phase records one level per contracted cycle; the unroll
    phase then walks the levels innermost-first.
    """
    # -- contraction phase: one cycle per level -------------------------
    levels: list[
        tuple[
            dict[Node, tuple[Node, float, int]],  # best_in at this level
            list[Node],  # contracted cycle
            list[tuple[Node, Node, float]],  # relabeled edges
            dict[int, tuple[Node, Node]],  # new edge idx -> pre-relabel endpoints
            Node,  # super node id
        ]
    ] = []
    while True:
        best_in = _best_incoming(edges)
        cycle = _first_cycle(best_in)
        if cycle is None:
            result = {v: u for v, (u, w, i) in best_in.items()}
            break

        cyc_set = set(cycle)
        super_node: Node = ("__cyc__", len(levels), len(cycle))
        new_edges: list[tuple[Node, Node, float]] = []
        # bookkeeping: for each relabeled edge remember the endpoints at
        # this level so the unroll can translate choices back down.
        into_cycle: dict[int, tuple[Node, Node]] = {}
        for u, v, w in edges:
            if u in cyc_set and v in cyc_set:
                continue
            if v in cyc_set:
                # displaced cycle edge is best_in[v]
                reduced = w - best_in[v][1]
                new_edges.append((u, super_node, reduced))
                into_cycle[len(new_edges) - 1] = (u, v)
            elif u in cyc_set:
                new_edges.append((super_node, v, w))
                into_cycle[len(new_edges) - 1] = (u, v)
            else:
                new_edges.append((u, v, w))
                into_cycle[len(new_edges) - 1] = (u, v)
        levels.append((best_in, cycle, new_edges, into_cycle, super_node))
        edges = new_edges

    # -- unroll phase: translate each level's choices back down ---------
    # For each (u_new, v_new) edge of the contracted answer pick the
    # matching new_edges entry with minimal weight (that is the edge the
    # contracted level effectively used).
    for best_in, cycle, new_edges, into_cycle, super_node in reversed(levels):
        sub = result
        result = {}
        entered_at: Node | None = None
        chosen: dict[tuple[Node, Node], tuple[Node, Node, float]] = {}
        for idx, (u_new, v_new, w) in enumerate(new_edges):
            key = (u_new, v_new)
            orig_u, orig_v = into_cycle[idx]
            cur = chosen.get(key)
            if cur is None or w < cur[2]:
                chosen[key] = (orig_u, orig_v, w)
        for v_new, u_new in sub.items():
            orig_u, orig_v, _ = chosen[(u_new, v_new)]
            result[orig_v] = orig_u
            if v_new == super_node:
                entered_at = orig_v

        # cycle edges: keep all but the one displaced by the entering edge
        for v in cycle:
            if v != entered_at:
                result[v] = best_in[v][0]
    return result


def min_storage_arborescence(graph: VersionGraph) -> dict[Node, Node]:
    """Minimum-storage parent map on the extended graph (Problem 1).

    Accepts either a base graph (extended automatically) or an already
    extended graph.
    """
    ext = graph if graph.has_aux else graph.extended()
    return minimum_arborescence(ext, AUX, storage_weight)


def min_storage_plan_tree(graph: VersionGraph) -> PlanTree:
    """The minimum-storage configuration as a mutable :class:`PlanTree`."""
    ext = graph if graph.has_aux else graph.extended()
    return PlanTree(ext, min_storage_arborescence(ext))


def extract_tree_parent_map(
    graph: VersionGraph, root: Node | None = None
) -> tuple[Node, dict[Node, Node]]:
    """Section 6.2 step 1: min arborescence under ``s + r`` weights.

    ``graph`` must be a base (non-extended) version graph.  When ``root``
    is None the version with the smallest materialization cost is used
    ("fix a node v_root as root").  Returns ``(root, parent_map)``; the
    map covers every version except the root.  Raises
    :class:`GraphError` when some version is unreachable from the root —
    natural and ER graphs are bidirectional, so this only happens on
    degenerate inputs.
    """
    if graph.has_aux:
        raise GraphError("tree extraction expects the base graph, not the extended one")
    if root is not None:
        return root, minimum_arborescence(graph, root, storage_plus_retrieval_weight)
    # Prefer the cheapest version as root, but purely-directed graphs may
    # not be spannable from it — fall back through versions by storage
    # cost until one spans (bidirectional graphs always succeed first).
    last_err: GraphError | None = None
    for cand in sorted(graph.versions, key=lambda v: (graph.storage_cost(v), str(v))):
        try:
            return cand, minimum_arborescence(graph, cand, storage_plus_retrieval_weight)
        except GraphError as err:
            last_err = err
    raise GraphError(f"no version spans the graph: {last_err}")
