"""Solver registry: ``(problem, name)`` -> budgeted solver callables.

Benchmarks, the CLI, the ingest engine and the parallel sweep workers
all address solvers by name, so the mapping lives in one place.  Since
the :class:`~repro.core.problemspec.ProblemSpec` refactor there is
**one** registry per addressing surface, keyed by ``(problem, name)``
with ``problem in repro.core.problemspec.SPECS``:

* :data:`SOLVERS` — plan-level solvers
  ``f(graph, budget) -> StoragePlan | None`` (None = the budget is
  infeasible for the family: below the minimum achievable storage for
  MSR, negative retrieval for BMR; a :class:`GraphError` is a
  structural input problem and propagates);
* :data:`SWEEPS` — whole-grid trajectory-replay sweeps
  ``f(graph, budgets) -> list[SweepEntry]`` (one solver run, from its
  own start tree, for the entire budget grid; only greedy solvers with
  budget-monotone trajectories qualify);
* :data:`ENGINE_KERNELS` — tree-level kernels
  ``f(compiled_graph, budget) -> ArrayPlanTree`` for the online ingest
  engine (only kernels that run directly on a
  :class:`~repro.fastgraph.CompiledGraph` qualify; DP/ILP solvers have
  no array-tree form and are deliberately absent);
* :data:`BACKENDS` — explicit backend requests for the greedy family
  (``"array"`` kernels and the ``"dict"`` reference implementations).

Each implementation is declared once.  A greedy solver is one
:data:`ENGINE_KERNELS` row (its array kernel) plus one
:data:`REFERENCE_KERNELS` row (its dict oracle); :data:`BACKENDS` and
the greedy rows of :data:`SOLVERS` are derived from them through one
tree-to-plan adapter.  A sweep is one
:data:`repro.fastgraph.TRAJECTORY_SOLVERS` row; :data:`SWEEPS` is
derived from that table.

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

import functools

from ..core.graph import GraphError, VersionGraph
from ..core.problemspec import SPECS, get_spec
from ..core.solution import StoragePlan
from ..fastgraph import (
    TRAJECTORY_SOLVERS,
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
    "REFERENCE_KERNELS",
    "get_solver",
    "get_sweep",
    "get_engine_solver",
]


def _none_if_infeasible(solve):
    """Plan-level solver from ``solve(graph, budget) -> StoragePlan``.

    A plain ``ValueError`` means the budget is infeasible for the family
    and becomes ``None``; a :class:`GraphError` is a structural problem
    with the input, not a budget outcome, and propagates.
    """

    @functools.wraps(solve)
    def solver(graph: VersionGraph, budget: float) -> StoragePlan | None:
        try:
            return solve(graph, budget)
        except GraphError:
            raise
        except ValueError:
            return None

    return solver


def _tree_solver(kernel):
    """Plan-level solver from a tree kernel ``f(graph, budget) -> tree``."""
    return _none_if_infeasible(lambda graph, budget: kernel(graph, budget).to_plan())


@_none_if_infeasible
def _dp_msr(graph: VersionGraph, budget: float) -> StoragePlan:
    return dp_msr(graph, budget).plan


@_none_if_infeasible
def _dp_bmr(graph: VersionGraph, budget: float) -> StoragePlan | None:
    return dp_bmr_heuristic(graph, budget).plan


def _msr_ilp(graph: VersionGraph, budget: float) -> StoragePlan | None:
    return msr_ilp(graph, budget).plan


def _bmr_ilp(graph: VersionGraph, budget: float) -> StoragePlan | None:
    return bmr_ilp(graph, budget).plan


#: ``(problem, name)`` -> tree-level array kernel
#: ``f(graph | compiled_graph, budget) -> ArrayPlanTree``, one row per
#: greedy solver.  The ingest engine (:mod:`repro.engine`) binds these
#: directly: between full re-solves it keeps attaching arriving
#: versions onto the live ``ArrayPlanTree``, and the incremental
#: attach / staleness bookkeeping work on the flat arrays.  DP/ILP
#: solvers have no array-tree form and are deliberately absent.
ENGINE_KERNELS = {
    ("msr", "lmg"): lmg_array,
    ("msr", "lmg-all"): lmg_all_array,
    ("bmr", "mp"): mp_array,
    ("bmr", "mp-local"): mp_local_array,
    ("bmr", "bmr-lmg"): bmr_lmg_array,
}

#: ``(problem, name)`` -> dict reference implementation (the oracle the
#: array kernel is plan-identical to), one row per greedy solver.
REFERENCE_KERNELS = {
    ("msr", "lmg"): lmg,
    ("msr", "lmg-all"): lmg_all,
    ("bmr", "mp"): mp,
    ("bmr", "mp-local"): mp_local,
    ("bmr", "bmr-lmg"): bmr_lmg,
}

#: ``(problem, name)`` -> backend -> plan-level solver, for explicit
#: backend requests (greedy family only); solvers without an entry
#: resolve to their single implementation.
BACKENDS = {
    key: {
        "array": _tree_solver(kernel),
        "dict": _tree_solver(REFERENCE_KERNELS[key]),
    }
    for key, kernel in ENGINE_KERNELS.items()
}

#: ``(problem, name)`` -> plan-level solver; greedy names resolve to
#: the array kernels.
SOLVERS = {
    **{key: backends["array"] for key, backends in BACKENDS.items()},
    ("msr", "dp-msr"): _dp_msr,
    ("msr", "ilp"): _msr_ilp,
    ("bmr", "dp-bmr"): _dp_bmr,
    ("bmr", "ilp"): _bmr_ilp,
}


def _grid_sweep(problem: str, name: str):
    """Whole-grid sweep ``f(graph, budgets) -> list[SweepEntry]``."""

    def grid_sweep(graph: VersionGraph, budgets: list[float]):
        return sweep_greedy(graph, problem, name, budgets)

    return grid_sweep


#: ``(problem, name)`` -> whole-grid trajectory-replay sweep
#: ``f(graph, budgets) -> list[SweepEntry]``, one per
#: :data:`~repro.fastgraph.TRAJECTORY_SOLVERS` row.  Only greedy
#: solvers with budget-monotone trajectories qualify (the LMG family
#: and ``bmr-lmg``).  The MP family is absent by design: MP's Prim
#: growth depends on the retrieval budget at every relaxation, so runs
#: at different budgets share no prefix (see
#: :mod:`repro.fastgraph.trajectory`).
SWEEPS = {key: _grid_sweep(*key) for key in TRAJECTORY_SOLVERS}

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

