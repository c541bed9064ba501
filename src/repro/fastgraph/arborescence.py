"""Walk-driven Chu-Liu/Edmonds over compiled graphs.

The dict reference (:mod:`repro.algorithms.arborescence`) contracts one
cycle per level and re-scans every edge per level; bidirectional version
graphs contract O(V) cycles, so it costs O(V·E).  This module computes
the same arborescence with one contraction pass (Tarjan 1977):

* **Containers.**  A container is a version or a contracted cycle.  It
  holds its live in-edges as two arrays, reduced weight and edge id.
  Its *choice* is the minimum reduced weight, the smallest edge id
  winning a tie: the reference's "ties keep the earliest edge" rule.
* **Walk.**  From every version, follow choices to the next container
  (``cont`` maps each version to its outermost container).  A walk that
  reaches the root, a finished container or a container with no
  in-edges marks its path finished.  A walk that closes a cycle
  contracts it: each member's entries are reduced by that member's own
  choice weight (one float subtraction per nesting level, exactly the
  reference's ``(w - a) - b``), entries from inside the cycle are
  dropped, and the new container picks its choice and continues the
  walk.
* **Expand.**  A forest root is entered by its choice.  Every container
  on the path from that edge's head up to the root is entered by the
  same edge; each sibling met on the way becomes a forest root entered
  by its own choice.  This is O(containers) work.

Why the contraction order does not matter: a container's choice depends
only on its own in-edges, and contracting a cycle changes neither the
in-edges nor the reduced weights of any container outside it.  So every
cycle among the choices stays a cycle until it is contracted, whatever
is contracted first, and the family of contracted sets — with every
member's reduced weights — is the one the reference's first-cycle scan
builds.  Memory stays O(E): a container's arrays are released once it
is contracted.

Output is the **same arborescence** the dict implementation returns —
same parent per version, pinned by the fastgraph equivalence suites.
"""

from __future__ import annotations

import numpy as np

from ..core.graph import GraphError
from .compiled import CompiledGraph

__all__ = ["min_storage_parent_edges"]


def min_storage_parent_edges(cg: CompiledGraph) -> list[tuple[int, int]]:
    """Minimum-storage arborescence of the extended graph, as
    ``(version index, parent edge id)`` pairs rooted at AUX.

    Plan-identical to ``min_storage_arborescence`` on ``cg.graph``.
    Raises :class:`GraphError` when some version is unreachable.
    """
    n, root = cg.n, cg.aux
    src = cg.edge_src.astype(np.int64)
    eids = np.nonzero(cg.edge_dst != root)[0]  # edges into the root never help
    dst = cg.edge_dst[eids].astype(np.int64)
    order = np.argsort(dst, kind="stable")  # per head, in edge-id order
    in_e = eids[order]
    in_w = cg.edge_storage[in_e]
    ptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n + 1), out=ptr[1:])
    # a version with no in-edge is the only way to end without a parent:
    # a cycle the root cannot enter still keeps its members' choices
    missing = [cg.nodes[v] for v in np.nonzero(ptr[1 : n + 1] == ptr[:n])[0]]
    if missing:
        raise GraphError(f"nodes unreachable from root: {missing[:5]!r}")

    # per-container state; ids 0..n are the versions (n = root), then
    # cycles.  A version's entries are its slice of the in-edge CSR.
    entries: list = [None] * (n + 1)  # cycle -> (reduced weights, edge ids)
    versions: list = [None] * (n + 1)  # cycle -> the versions inside it
    members: list = [None] * (n + 1)  # cycle -> its member containers
    up = [-1] * (n + 1)  # enclosing container
    choice_w = [0.0] * (n + 1)
    choice_e = [-1] * (n + 1)
    for v in range(n):
        w = in_w[ptr[v] : ptr[v + 1]]
        k = int(np.argmin(w))  # first minimum = earliest edge id
        choice_w[v], choice_e[v] = w[k], int(in_e[ptr[v] + k])
    cont = np.arange(n + 1, dtype=np.int64)
    state = [0] * (n + 1)  # 0 unvisited, 1 on the walk, 2 finished
    state[root] = 2
    at = [0] * (n + 1)  # position on the current walk

    def contract(cycle: list[int]) -> int:
        c = len(up)
        ws, es, vs = [], [], []
        for m in cycle:
            if m < n:
                w, e, v = in_w[ptr[m] : ptr[m + 1]], in_e[ptr[m] : ptr[m + 1]], [m]
            else:
                (w, e), v = entries[m], versions[m]
                entries[m] = versions[m] = None  # released: O(E) memory
            ws.append(w - choice_w[m])  # one rounding step per nesting level
            es.append(e)
            vs.append(v)
            up[m] = c
        nodes = np.concatenate(vs)
        cont[nodes] = c
        w, e = np.concatenate(ws), np.concatenate(es)
        live = cont[src[e]] != c  # drop the edges from inside the cycle
        w, e = w[live], e[live]
        entries.append((w, e))
        members.append(cycle)
        versions.append(nodes)
        up.append(-1)
        state.append(1)
        at.append(0)
        if len(w):
            best = w.min()
            choice_w.append(best)
            choice_e.append(int(e[w == best].min()))
        else:  # a cycle the root cannot enter keeps every member's choice
            choice_w.append(0.0)
            choice_e.append(-1)
        return c

    for s in range(n):
        x = int(cont[s])
        if state[x]:
            continue
        path: list[int] = []
        while True:
            state[x] = 1
            at[x] = len(path)
            path.append(x)
            if choice_e[x] < 0:
                break
            y = int(cont[src[choice_e[x]]])
            if state[y] == 0:
                x = y
            elif state[y] == 2:
                break
            else:
                k = at[y]
                x = contract(path[k:])
                del path[k:]
        for x in path:
            state[x] = 2

    parent = np.full(n, -1, dtype=np.int64)
    stack = [c for c in range(len(up)) if up[c] < 0 and c != root]
    while stack:
        r = stack.pop()
        e = choice_e[r]
        if e < 0:
            stack.extend(members[r])
            continue
        x = int(cg.edge_dst[e])
        parent[x] = e
        while x != r:
            c = up[x]
            stack.extend(m for m in members[c] if m != x)
            x = c
    return [(v, int(parent[v])) for v in range(n)]
