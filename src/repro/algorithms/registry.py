"""Solver registry: ``(problem, name)`` -> budgeted solver callables.

Benchmarks, the CLI, the ingest engine and the parallel sweep workers
all address solvers by name, so the mapping lives in one place.  Since
the :class:`~repro.core.problemspec.ProblemSpec` refactor there is
**one** registry per addressing surface, keyed by ``(problem, name)``
with ``problem in repro.core.problemspec.SPECS``:

* :data:`SOLVERS` — plan-level solvers
  ``f(graph, budget) -> StoragePlan | None`` (None = the budget is
  infeasible for the family: below the minimum achievable storage for
  MSR, negative retrieval for BMR);
* :data:`SWEEPS` — whole-grid trajectory-replay sweeps
  ``f(graph, budgets, *, start_edges=None) -> list[SweepEntry]`` (one
  solver run for the entire budget grid; only greedy solvers with
  budget-monotone trajectories qualify);
* :data:`ENGINE_KERNELS` — tree-level kernels
  ``f(compiled_graph, budget) -> ArrayPlanTree`` for the online ingest
  engine (only kernels that run directly on a
  :class:`~repro.fastgraph.CompiledGraph` qualify; DP/ILP solvers have
  no array-tree form and are deliberately absent);
* :data:`BACKENDS` — explicit backend requests for the greedy family
  (``"array"`` kernels and the ``"dict"`` reference implementations).

Resolution goes through :func:`get_solver`, :func:`get_sweep` and
:func:`get_engine_solver`, all taking the problem name first.  Plain
names resolve to the **array** backend automatically (it is
plan-identical and much faster); pass ``backend="dict"`` to
:func:`get_solver` to keep the reference path, e.g. for
cross-validation::

    fast = get_solver("msr", "lmg")                  # array kernel
    ref = get_solver("msr", "lmg", backend="dict")   # reference path

Solvers without an array variant accept both backend names and resolve
to their single implementation.  The DP entries rebuild their tree
index per call; sweep code that wants index reuse calls the solver
classes directly (see :mod:`repro.bench.figures`).  The array kernels
reuse the compiled graph cached on the :class:`VersionGraph` itself
(``graph.compile()``), so repeated calls on one graph compile once.
"""

from __future__ import annotations

from ..core.graph import GraphError, VersionGraph
from ..core.problemspec import SPECS, get_spec
from ..core.solution import StoragePlan
from ..fastgraph import (
    bmr_lmg_array,
    lmg_all_array,
    lmg_array,
    mp_array,
    mp_local_array,
    sweep_greedy,
)
from .bmr_greedy import bmr_lmg, mp_local
from .dp_bmr import dp_bmr_heuristic
from .dp_msr import dp_msr
from .ilp import bmr_ilp, msr_ilp
from .lmg import lmg
from .lmg_all import lmg_all
from .mp import mp

__all__ = [
    "SOLVERS",
    "SWEEPS",
    "ENGINE_KERNELS",
    "BACKENDS",
    "get_solver",
    "get_sweep",
    "get_engine_solver",
    "sweep_start_edges",
]


def _lmg_dict(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return lmg(graph, budget).to_plan()
    except ValueError:
        return None


def _lmg_array(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return lmg_array(graph, budget).to_plan()
    except ValueError:
        return None


def _lmg_all_dict(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return lmg_all(graph, budget).to_plan()
    except ValueError:
        return None


def _lmg_all_array(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return lmg_all_array(graph, budget).to_plan()
    except ValueError:
        return None


def _dp_msr(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return dp_msr(graph, budget).plan
    except GraphError:
        return None


def _msr_ilp(graph: VersionGraph, budget: float) -> StoragePlan | None:
    return msr_ilp(graph, budget).plan


def _mp_dict(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return mp(graph, budget).to_plan()
    except ValueError:
        return None


def _mp_array(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return mp_array(graph, budget).to_plan()
    except ValueError:
        return None


def _dp_bmr(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return dp_bmr_heuristic(graph, budget).plan
    except GraphError:
        raise  # structural input problem, not a budget outcome
    except ValueError:
        return None


def _bmr_ilp(graph: VersionGraph, budget: float) -> StoragePlan | None:
    return bmr_ilp(graph, budget).plan


def _bmr_lmg_dict(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return bmr_lmg(graph, budget).to_plan()
    except ValueError:
        return None


def _bmr_lmg_array(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return bmr_lmg_array(graph, budget).to_plan()
    except ValueError:
        return None


def _mp_local_dict(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return mp_local(graph, budget).to_plan()
    except ValueError:
        return None


def _mp_local_array(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return mp_local_array(graph, budget).to_plan()
    except ValueError:
        return None


#: ``(problem, name)`` -> plan-level solver; greedy names resolve to
#: the array kernels.
SOLVERS = {
    ("msr", "lmg"): _lmg_array,
    ("msr", "lmg-all"): _lmg_all_array,
    ("msr", "dp-msr"): _dp_msr,
    ("msr", "ilp"): _msr_ilp,
    ("bmr", "mp"): _mp_array,
    ("bmr", "mp-local"): _mp_local_array,
    ("bmr", "bmr-lmg"): _bmr_lmg_array,
    ("bmr", "dp-bmr"): _dp_bmr,
    ("bmr", "ilp"): _bmr_ilp,
}


def _sweep_lmg(graph, budgets, *, start_edges=None):
    return sweep_greedy(graph, "msr", "lmg", budgets, start_edges=start_edges)


def _sweep_lmg_all(graph, budgets, *, start_edges=None):
    return sweep_greedy(graph, "msr", "lmg-all", budgets, start_edges=start_edges)


def _sweep_bmr_lmg(graph, budgets, *, start_edges=None):
    return sweep_greedy(graph, "bmr", "bmr-lmg", budgets, start_edges=start_edges)


#: ``(problem, name)`` -> whole-grid trajectory-replay sweep
#: ``f(graph, budgets, *, start_edges=None) -> list[SweepEntry]``.
#: Only greedy solvers with budget-monotone trajectories qualify (the
#: LMG family and ``bmr-lmg``).  The MP family is absent by design:
#: MP's Prim growth depends on the retrieval budget at every
#: relaxation, so runs at different budgets share no prefix (see
#: :mod:`repro.fastgraph.trajectory`).  ``start_edges`` ships a shared
#: Edmonds arborescence to MSR sweeps; families whose start tree is
#: budget-independent of it (BMR's all-materialized start) ignore it.
SWEEPS = {
    ("msr", "lmg"): _sweep_lmg,
    ("msr", "lmg-all"): _sweep_lmg_all,
    ("bmr", "bmr-lmg"): _sweep_bmr_lmg,
}


#: ``(problem, name)`` -> tree-level engine kernel
#: ``f(compiled_graph, budget) -> ArrayPlanTree``.  The ingest engine
#: (:mod:`repro.engine`) needs the *tree*, not the exported
#: :class:`StoragePlan`: between full re-solves it keeps attaching
#: arriving versions onto the live ``ArrayPlanTree``, and the
#: incremental attach / staleness bookkeeping work on the flat arrays.
ENGINE_KERNELS = {
    ("msr", "lmg"): lmg_array,
    ("msr", "lmg-all"): lmg_all_array,
    ("bmr", "mp"): mp_array,
    ("bmr", "mp-local"): mp_local_array,
    ("bmr", "bmr-lmg"): bmr_lmg_array,
}


#: ``(problem, name)`` -> backend -> callable, for explicit backend
#: requests (greedy family only); solvers without an entry resolve to
#: their single implementation.
BACKENDS = {
    ("msr", "lmg"): {"array": _lmg_array, "dict": _lmg_dict},
    ("msr", "lmg-all"): {"array": _lmg_all_array, "dict": _lmg_all_dict},
    ("bmr", "mp"): {"array": _mp_array, "dict": _mp_dict},
    ("bmr", "mp-local"): {"array": _mp_local_array, "dict": _mp_local_dict},
    ("bmr", "bmr-lmg"): {"array": _bmr_lmg_array, "dict": _bmr_lmg_dict},
}

_BACKEND_NAMES = ("array", "dict")


def _unknown_name(table: dict, problem: str, name: str, kind: str) -> KeyError:
    """The pinned unknown-name error: the valid options for ``problem``
    plus a cross-family hint when ``name`` belongs to the other family."""
    options = sorted(n for p, n in table if p == problem)
    others = [p for p in SPECS if p != problem]
    hint = (
        f" ({name!r} is a {others[0].upper()} {kind})"
        if len(others) == 1 and (others[0], name) in table
        else ""
    )
    return KeyError(
        f"unknown {problem.upper()} {kind} {name!r}; options: {options}{hint}"
    )


def get_solver(problem: str, name: str, backend: str | None = None):
    """Look up a plan-level solver for ``problem`` by ``name``.

    ``backend`` picks ``"array"`` or ``"dict"`` for the greedy family;
    solvers without that variant resolve to their single
    implementation.  Raises ``ValueError`` for unknown problems and
    ``KeyError`` — with a cross-family hint when the name belongs to
    the other family — for unknown solver names or backends.
    """
    problem = get_spec(problem).name
    if (problem, name) not in SOLVERS:
        raise _unknown_name(SOLVERS, problem, name, "solver")
    if backend is None:
        return SOLVERS[(problem, name)]
    if backend not in _BACKEND_NAMES:
        raise KeyError(
            f"unknown backend {backend!r}; options: {sorted(_BACKEND_NAMES)}"
        )
    return BACKENDS.get((problem, name), {}).get(backend, SOLVERS[(problem, name)])


def get_sweep(problem: str, name: str):
    """Whole-grid sweep for ``(problem, name)``, or ``None``.

    ``None`` means the solver has no trajectory-replay sweep and must
    be probed per budget (DP, ILP, the MP family).
    """
    problem = get_spec(problem).name
    return SWEEPS.get((problem, name))


def get_engine_solver(problem: str, name: str):
    """Tree-level solver for the ingest engine: ``(problem, name)``.

    Raises ``ValueError`` for unknown problems and ``KeyError`` with
    the valid options for unknown or non-engine-capable solver names.
    """
    if problem not in SPECS:
        raise ValueError(
            f"unknown engine problem {problem!r}; options: {sorted(SPECS)}"
        )
    try:
        return ENGINE_KERNELS[(problem, name)]
    except KeyError:
        raise _unknown_name(ENGINE_KERNELS, problem, name, "engine solver") from None


def sweep_start_edges(
    problem: str, graph: VersionGraph, solvers
) -> list | None:
    """The Edmonds start tree shared by a problem's trajectory sweeps.

    Returns ``(version index, parent edge id)`` pairs when the family's
    sweeps start from the minimum-storage arborescence and at least one
    requested solver has a trajectory sweep; ``None`` otherwise
    (per-budget solvers only, or families with budget-independent
    starts like BMR's all-materialized tree).
    """
    spec = get_spec(problem)
    if not spec.sweep_uses_start_tree:
        return None
    if not any(get_sweep(spec.name, s) is not None for s in solvers):
        return None
    from ..fastgraph.arborescence import min_storage_parent_edges

    return min_storage_parent_edges(graph.compile())
