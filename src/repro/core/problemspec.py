"""Problem families as first-class objects: the :class:`ProblemSpec`.

The paper's MSR (storage budget, minimize total retrieval) and BMR
(retrieval budget, minimize total storage) are two faces of one
bicriteria storage/recreation tradeoff.  Before this module existed the
codebase served them through parallel, copy-adjacent tracks — twin
registry tables, twin sweep engines, ``if problem == "bmr"`` branches
in the ingest engine and the CLI — so every new feature had to be built
twice.  A :class:`ProblemSpec` captures everything that actually
differs between the families:

* which aggregate the **budget** caps (``budget_kind``) and which one
  the solver **minimizes** (``objective_kind``), with extraction
  helpers for plan trees and :class:`~repro.core.problems.PlanScore`;
* the **feasibility predicate**, routed through the shared
  :mod:`repro.core.tolerance` helpers so every layer keeps bit-equal
  admission semantics;
* the **attach-feasibility rule** and **staleness metric** the online
  ingest engine applies per arrival;
* the trajectory-replay semantics budget-grid sweeps need (what value
  a recorded move is checked against, whether the greedy loop halts
  once the budget is reached);
* an **online lower bound** on the budget scale, maintained
  incrementally from the mutation-event stream, which is what makes
  ``budget_factor`` work for both families.

Every layer — registry, trajectory sweeps, ingest engine, parallel
sweeps, bench harness, CLI — is parameterized by the spec.  Adding a
new problem family means writing one spec subclass plus its kernels
and registering them; no layer grows a new branch (see
``docs/algorithms.md`` for the how-to).

This module is deliberately the **only** place in ``src/repro`` where
per-problem behavior is defined by problem identity; a repo-level grep
for ``problem == "bmr"`` outside it must come back empty.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Protocol

from .graph import Node, VersionGraph
from .tolerance import within_budget

__all__ = [
    "ProblemSpec",
    "LowerBoundTracker",
    "MSR_SPEC",
    "BMR_SPEC",
    "SPECS",
    "get_spec",
]


class LowerBoundTracker(Protocol):
    """Online lower bound on a problem family's natural budget scale.

    Fed from the :class:`~repro.core.graph.GraphMutation` event stream;
    ``value()`` must stay O(log) amortized so the ingest engine can
    evaluate ``budget_factor`` budgets per arrival.
    """

    def add_version(self, v: Node, storage: float) -> None:
        """Account a brand-new version."""

    def add_delta(
        self, v: Node, storage: float, retrieval: float, node_storage: float
    ) -> None:
        """Account a new delta into ``v`` (``node_storage`` = ``s_v``)."""

    def remove_delta(
        self, v: Node, storage: float, retrieval: float, graph: VersionGraph
    ) -> None:
        """Un-account the removed delta into ``v`` with the given old costs.

        ``graph`` is the post-removal graph, consulted only when the
        removed edge was the one backing ``v``'s tracked aggregate (a
        bounded rescan of ``v``'s surviving predecessors).
        """

    def remove_version(self, v: Node) -> None:
        """Un-account retired version ``v`` (its deltas already removed)."""

    def rebuild(self, graph: VersionGraph) -> None:
        """Recompute from scratch (after cost updates)."""

    def value(self) -> float:
        """The current lower bound."""


class _StorageLowerBound:
    """Online lower bound on the minimum-storage arborescence (MSR).

    ``LB = sum_v min_in(v) + min_v (s_v - min_in(v))`` where
    ``min_in(v)`` is the cheapest incoming edge storage of ``v``
    (materialization included): every node pays at least its cheapest
    in-edge, and at least one node must materialize.  The sum is kept
    incrementally; the materialization-gap term lives in an
    authoritative dict plus a lazy-deletion min-heap (gaps only grow as
    cheaper deltas arrive, so the first heap top matching the dict is
    the true minimum).
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._min_in: dict[Node, float] = {}
        self._min_in_sum = 0.0
        self._gap: dict[Node, float] = {}
        self._heap: list[tuple[float, int, Node]] = []
        self._seq = 0

    def _push_gap(self, v: Node, gap: float) -> None:
        self._gap[v] = gap
        heapq.heappush(self._heap, (gap, self._seq, v))
        self._seq += 1

    def add_version(self, v: Node, storage: float) -> None:
        """Account a brand-new version (cheapest in-edge = materialize)."""
        self._min_in[v] = storage
        self._min_in_sum += storage
        self._push_gap(v, 0.0)  # min_in == s_v on arrival

    def add_delta(
        self, v: Node, storage: float, retrieval: float, node_storage: float
    ) -> None:
        """Account a new delta into ``v`` (``node_storage`` = ``s_v``)."""
        cur = self._min_in.get(v)
        if cur is not None and storage < cur:
            self._min_in_sum += storage - cur
            self._min_in[v] = storage
            self._push_gap(v, node_storage - storage)

    def remove_delta(
        self, v: Node, storage: float, retrieval: float, graph: VersionGraph
    ) -> None:
        """Un-account a removed delta into ``v`` (old costs supplied).

        Only a removal of the *current* cheapest in-edge can move the
        bound; then ``v``'s surviving predecessors are rescanned
        (bounded by ``in_degree(v)``, not the graph).
        """
        cur = self._min_in.get(v)
        if cur is None or storage > cur:
            return  # removed edge was not the tracked minimum
        s_v = graph.storage_cost(v)
        new_min = min(
            (d.storage for d in graph.predecessors(v).values()),
            default=math.inf,
        )
        new_min = min(new_min, s_v)
        if new_min != cur:
            self._min_in_sum += new_min - cur
            self._min_in[v] = new_min
            self._push_gap(v, s_v - new_min)

    def remove_version(self, v: Node) -> None:
        """Un-account retired version ``v`` (its deltas already removed)."""
        cur = self._min_in.pop(v, None)
        if cur is not None:
            self._min_in_sum -= cur
        self._gap.pop(v, None)  # heap entries go stale; value() skips them

    def rebuild(self, graph: VersionGraph) -> None:
        """Recompute from scratch (after cost updates)."""
        self._reset()
        for v in graph.versions:
            min_in = min(
                (d.storage for d in graph.predecessors(v).values()),
                default=float("inf"),
            )
            min_in = min(min_in, graph.storage_cost(v))
            self._min_in[v] = min_in
            self._min_in_sum += min_in
            self._push_gap(v, graph.storage_cost(v) - min_in)

    def value(self) -> float:
        """Current ``sum_v min_in(v) + min_v (s_v - min_in(v))``."""
        heap, gaps = self._heap, self._gap
        gap = 0.0
        while heap:
            g, _, v = heap[0]
            if gaps.get(v) == g:
                gap = g
                break
            heapq.heappop(heap)  # stale: this node's gap has grown since
        return self._min_in_sum + gap


class _RetrievalLowerBound:
    """Online lower bound on the useful retrieval-budget scale (BMR).

    ``LB = max_v min{ r(e) : e is a delta into v with s(e) < s_v }``
    (0 for versions whose cheapest storage option is materialization).
    Any plan serving a retrieval budget below ``bound(v)`` cannot reach
    ``v`` through a strictly-cheaper-than-materialization delta — a
    delta parent edge already contributes its own retrieval to ``v`` —
    so ``v`` is forced to pay its full materialization storage.  ``LB``
    is therefore the smallest retrieval budget at which every version
    *could* take its cheapest-storage in-edge; ``budget_factor``
    multiples of it open progressively deeper delta chains.

    Per-version bounds move non-monotonically (0 until the first
    qualifying delta, then a shrinking minimum), so the maximum is kept
    as an authoritative dict plus a lazy-deletion max-heap.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._bound: dict[Node, float] = {}  # only versions with a qualifying delta
        self._heap: list[tuple[float, int, Node]] = []
        self._seq = 0

    def add_version(self, v: Node, storage: float) -> None:
        """Account a brand-new version (no qualifying deltas yet)."""
        # nothing to track until a strictly-cheaper delta arrives

    def add_delta(
        self, v: Node, storage: float, retrieval: float, node_storage: float
    ) -> None:
        """Account a new delta into ``v`` (``node_storage`` = ``s_v``)."""
        if storage >= node_storage:
            return  # not cheaper than materializing: never forces retrieval
        cur = self._bound.get(v, math.inf)
        if retrieval < cur:
            self._bound[v] = retrieval
            heapq.heappush(self._heap, (-retrieval, self._seq, v))
            self._seq += 1

    def remove_delta(
        self, v: Node, storage: float, retrieval: float, graph: VersionGraph
    ) -> None:
        """Un-account a removed delta into ``v`` (old costs supplied).

        Only a removal matching ``v``'s tracked minimum can move the
        bound; then the surviving qualifying predecessors are rescanned
        (bounded by ``in_degree(v)``).
        """
        if self._bound.get(v) != retrieval:
            return  # removed edge was not (tied with) the tracked minimum
        s_v = graph.storage_cost(v)
        bound = min(
            (
                d.retrieval
                for d in graph.predecessors(v).values()
                if d.storage < s_v
            ),
            default=math.inf,
        )
        if math.isfinite(bound):
            if bound != self._bound[v]:
                self._bound[v] = bound
                heapq.heappush(self._heap, (-bound, self._seq, v))
                self._seq += 1
        else:
            del self._bound[v]  # heap entries go stale; value() skips them

    def remove_version(self, v: Node) -> None:
        """Un-account retired version ``v`` (its deltas already removed)."""
        self._bound.pop(v, None)  # heap entries go stale; value() skips them

    def rebuild(self, graph: VersionGraph) -> None:
        """Recompute from scratch (after cost updates)."""
        self._reset()
        for v in graph.versions:
            s_v = graph.storage_cost(v)
            bound = min(
                (
                    d.retrieval
                    for d in graph.predecessors(v).values()
                    if d.storage < s_v
                ),
                default=math.inf,
            )
            if math.isfinite(bound):
                self._bound[v] = bound
                heapq.heappush(self._heap, (-bound, self._seq, v))
                self._seq += 1

    def value(self) -> float:
        """Current ``max_v bound(v)`` via lazy heap deletion."""
        heap, bounds = self._heap, self._bound
        while heap:
            neg, _, v = heap[0]
            if bounds.get(v) == -neg:
                return -neg
            heapq.heappop(heap)  # stale: this node's bound has shrunk since
        return 0.0


class ProblemSpec:
    """One problem family of the bicriteria storage/retrieval tradeoff.

    Subclasses define the per-family policies; the two shipped
    instances are :data:`MSR_SPEC` and :data:`BMR_SPEC`, addressed by
    name through :func:`get_spec`.  All comparisons route through
    :mod:`repro.core.tolerance`, so every layer parameterized by a spec
    inherits the shared admission semantics.
    """

    #: Problem name — the registry / CLI / engine identifier.
    name: str

    #: Which aggregate the budget caps: ``"storage"`` or ``"retrieval"``.
    budget_kind: str

    #: Which aggregate the solvers minimize.
    objective_kind: str

    #: Human label for objective panels (Markdown tables, plots).
    objective_label: str

    #: Default solver for :class:`repro.engine.IngestEngine`.
    default_engine_solver: str

    #: Default solver list for CLI / harness sweep panels.
    default_panel_solvers: tuple[str, ...]

    #: Default auto-grid span factor for budget grids.
    default_grid_span: float

    #: True when the greedy loop stops scanning once the constrained
    #: accumulator reaches the budget (MSR's storage accumulator);
    #: trajectory replay mirrors the same early stop.
    replay_halts_on_budget: bool

    def tree_objective(self, tree: Any) -> float:
        """The objective value of a plan tree (``ArrayPlanTree``-like)."""
        raise NotImplementedError

    def score_objective(self, score: Any) -> float:
        """The objective component of a :class:`~repro.core.problems.PlanScore`."""
        raise NotImplementedError

    def score_constrained(self, score: Any) -> float:
        """The budget-capped component of a ``PlanScore``."""
        raise NotImplementedError

    def replay_feasible(self, value: float, budget: float) -> bool:
        """Admission check replayed against a recorded per-move value.

        The trajectory sweep records, for every applied greedy move,
        exactly the quantity the live kernel checked against its budget
        (MSR: plan storage after the move; BMR: the moved subtree's
        post-move max retrieval).  Replaying that value through the
        shared tolerance is bit-equal to the fresh run's own check.
        """
        return within_budget(value, budget)

    def sweep_floor(self, tree: Any) -> float:
        """Smallest constrained value reachable from ``tree``'s state.

        Grid budgets that fail ``replay_feasible(sweep_floor(start), b)``
        are infeasible for the whole family (MSR: budget below the
        minimum-storage arborescence; BMR: negative retrieval budget).
        """
        raise NotImplementedError

    def attach_feasible(
        self, tree: Any, budget: float, new_retrieval: float, edge_storage: float
    ) -> bool:
        """Whether greedy-attaching an arrival through an edge is feasible.

        ``new_retrieval`` is the arrival's own resulting retrieval cost
        and ``edge_storage`` the candidate edge's storage.  Arrivals are
        leaves, so no other version's retrieval changes.
        """
        raise NotImplementedError

    def attach_cost(self, edge_storage: float, new_retrieval: float) -> float:
        """Objective cost a greedy attach adds (the staleness increment)."""
        raise NotImplementedError

    def lower_bound_tracker(self) -> LowerBoundTracker:
        """A fresh online lower-bound tracker for ``budget_factor`` mode.

        The returned object maintains a lower bound on the family's
        natural budget scale from the mutation-event stream:
        ``add_version(v, storage)``, ``add_delta(v, storage, retrieval,
        node_storage)``, ``rebuild(graph)``, ``value()``.
        """
        raise NotImplementedError


class _MSRSpec(ProblemSpec):
    """MinSum Retrieval: storage budget, minimize total retrieval."""

    name = "msr"
    budget_kind = "storage"
    objective_kind = "retrieval"
    objective_label = "sum retrieval"
    default_engine_solver = "lmg"
    default_panel_solvers = ("lmg", "lmg-all", "dp-msr")
    default_grid_span = 4.0
    replay_halts_on_budget = True

    def tree_objective(self, tree: Any) -> float:
        """Total retrieval of the plan tree."""
        return tree.total_retrieval

    def score_objective(self, score: Any) -> float:
        """``score.sum_retrieval``."""
        return score.sum_retrieval

    def score_constrained(self, score: Any) -> float:
        """``score.storage`` (what the MSR budget caps)."""
        return score.storage

    def sweep_floor(self, tree: Any) -> float:
        """The start tree's total storage (the minimum-storage start)."""
        return tree.total_storage

    def attach_feasible(
        self, tree: Any, budget: float, new_retrieval: float, edge_storage: float
    ) -> bool:
        """Plan storage after the attach must stay within the budget."""
        return within_budget(tree.total_storage + edge_storage, budget)

    def attach_cost(self, edge_storage: float, new_retrieval: float) -> float:
        """Attaches add the arrival's retrieval to the MSR objective."""
        return new_retrieval

    def lower_bound_tracker(self) -> _StorageLowerBound:
        """Online min-storage lower bound (cheapest in-edges + gap)."""
        return _StorageLowerBound()


class _BMRSpec(ProblemSpec):
    """BoundedMax Retrieval: retrieval budget, minimize total storage."""

    name = "bmr"
    budget_kind = "retrieval"
    objective_kind = "storage"
    objective_label = "storage"
    default_engine_solver = "mp-local"
    default_panel_solvers = ("mp", "mp-local", "bmr-lmg", "dp-bmr")
    default_grid_span = 6.0
    replay_halts_on_budget = False

    def tree_objective(self, tree: Any) -> float:
        """Total storage of the plan tree."""
        return tree.total_storage

    def score_objective(self, score: Any) -> float:
        """``score.storage``."""
        return score.storage

    def score_constrained(self, score: Any) -> float:
        """``score.max_retrieval`` (what the BMR budget caps)."""
        return score.max_retrieval

    def sweep_floor(self, tree: Any) -> float:
        """0.0 — the all-materialized start has max retrieval zero."""
        return 0.0

    def attach_feasible(
        self, tree: Any, budget: float, new_retrieval: float, edge_storage: float
    ) -> bool:
        """The arrival's own retrieval must stay within the budget.

        The arrival is a leaf, so no other version's retrieval moves;
        materialization (retrieval 0) is always feasible for
        non-negative budgets.
        """
        return within_budget(new_retrieval, budget)

    def attach_cost(self, edge_storage: float, new_retrieval: float) -> float:
        """Attaches add the chosen edge's storage to the BMR objective."""
        return edge_storage

    def lower_bound_tracker(self) -> _RetrievalLowerBound:
        """Online retrieval-scale lower bound (see the tracker docs)."""
        return _RetrievalLowerBound()


#: The MSR family singleton.
MSR_SPEC = _MSRSpec()

#: The BMR family singleton.
BMR_SPEC = _BMRSpec()

#: Registered problem families by name.
SPECS: dict[str, ProblemSpec] = {"msr": MSR_SPEC, "bmr": BMR_SPEC}


def get_spec(problem: str | ProblemSpec) -> ProblemSpec:
    """Resolve a problem name (or pass a spec through) to its spec.

    Raises ``ValueError`` with the valid options for unknown names —
    the same message the ingest engine has always pinned.
    """
    if isinstance(problem, ProblemSpec):
        return problem
    try:
        return SPECS[problem]
    except KeyError:
        raise ValueError(
            f"unknown problem {problem!r}; options: {sorted(SPECS)}"
        ) from None
