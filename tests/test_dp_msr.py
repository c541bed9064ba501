"""Tests for DP-MSR: exact frontier, thinning, reconstruction, heuristic."""


import numpy as np
import pytest

from repro.core import MSR, GraphError, evaluate_plan
from repro.algorithms import (
    DPMSRSolver,
    brute_force_frontier,
    brute_force_solve,
    dp_msr,
    dp_msr_frontier,
    lmg,
    lmg_all,
    min_storage_plan_tree,
)
from repro.gen import natural_graph, random_bidirectional_tree, random_digraph


class TestExactFrontier:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_on_trees(self, seed):
        g = random_bidirectional_tree(6, seed=seed)
        f = dp_msr_frontier(g, ticks=None)
        bf = brute_force_frontier(g)
        assert len(f) == len(bf)
        for (s1, r1), (s2, r2) in zip(f.points(), bf):
            assert s1 == pytest.approx(s2)
            assert r1 == pytest.approx(r2)

    def test_frontier_endpoints(self):
        g = random_bidirectional_tree(8, seed=20)
        f = dp_msr_frontier(g, ticks=None)
        # cheapest point is the min-storage plan; most expensive ends at
        # zero retrieval (materialize everything)
        assert f.min_storage() == pytest.approx(min_storage_plan_tree(g).total_storage)
        assert f.ret[-1] == pytest.approx(0.0)
        assert f.sto[-1] <= g.total_version_storage() + 1e-9

    def test_single_node(self):
        from repro.core import VersionGraph

        g = VersionGraph()
        g.add_version("only", 42)
        f = dp_msr_frontier(g, ticks=None)
        assert f.points() == [(42.0, 0.0)]


class TestThinning:
    @pytest.mark.parametrize("seed", range(5))
    def test_thinned_points_are_achievable(self, seed):
        """Thinned frontier must be a subset-quality of the exact one:
        every thinned point is dominated-or-equal by the exact frontier
        and achievable (>= exact at the same budget)."""
        g = random_bidirectional_tree(12, seed=seed)
        fe = dp_msr_frontier(g, ticks=None)
        ft = dp_msr_frontier(g, ticks=16)
        for s, r in ft.points():
            exact_best = fe.best_retrieval_within(s)
            assert r >= exact_best - 1e-9
            # and the point is truly achievable: it appears in the exact set
            assert fe.dominates_point(s, r)

    def test_thinning_bounds_size(self):
        g = random_bidirectional_tree(40, seed=6)
        ft = dp_msr_frontier(g, ticks=16)
        assert len(ft) <= 17

    def test_quality_improves_with_ticks(self):
        g = random_bidirectional_tree(30, seed=7)
        fe = dp_msr_frontier(g, ticks=None)
        budget = (fe.min_storage() + g.total_version_storage()) / 2
        errs = []
        for ticks in (8, 32, 128):
            ft = dp_msr_frontier(g, ticks=ticks)
            errs.append(ft.best_retrieval_within(budget) - fe.best_retrieval_within(budget))
        assert errs[0] >= errs[-1] - 1e-9
        assert errs[-1] <= max(1e-9, 0.1 * max(fe.best_retrieval_within(budget), 1))

    def test_storage_cap_prunes(self):
        g = random_bidirectional_tree(15, seed=8)
        fe = dp_msr_frontier(g, ticks=None)
        cap = (fe.min_storage() + fe.sto[-1]) / 2
        fc = dp_msr_frontier(g, ticks=None, storage_cap=cap)
        assert fc.sto[-1] <= cap + 1e-9
        # below the cap the two frontiers agree
        assert fc.best_retrieval_within(cap) == pytest.approx(fe.best_retrieval_within(cap))


class TestReconstruction:
    @pytest.mark.parametrize("seed", range(8))
    def test_plan_realizes_frontier_point(self, seed):
        g = random_bidirectional_tree(8, seed=seed)
        total = g.total_version_storage()
        for frac in (0.35, 0.6, 1.0):
            budget = total * frac
            try:
                res = dp_msr(g, budget, ticks=None)
            except ValueError as err:
                assert not isinstance(err, GraphError)
                continue  # budget below min storage
            assert res.score.storage <= budget + 1e-6
            expected = res.frontier.best_retrieval_within(budget)
            # Dijkstra re-evaluation may only improve on the tree estimate
            assert res.score.sum_retrieval <= expected + 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_plan_matches_optimal_on_trees(self, seed):
        g = random_bidirectional_tree(6, seed=50 + seed)
        budget = g.total_version_storage() * 0.5
        opt = brute_force_solve(g, MSR(budget))
        if opt is None:
            return
        res = dp_msr(g, budget, ticks=None)
        assert res.score.sum_retrieval == pytest.approx(opt[1].sum_retrieval)

    def test_budget_below_min_raises(self):
        # budget infeasibility is a plain ValueError, not a GraphError
        # (which the registry reserves for structural failures)
        g = random_bidirectional_tree(6, seed=1)
        with pytest.raises(ValueError) as exc:
            dp_msr(g, min_storage_plan_tree(g).total_storage * 0.5, ticks=None)
        assert not isinstance(exc.value, GraphError)

    def test_reconstruction_with_thinning(self):
        g = random_bidirectional_tree(20, seed=9)
        budget = g.total_version_storage() * 0.7
        res = dp_msr(g, budget, ticks=24)
        assert res.score.storage <= budget + 1e-6
        assert res.plan.is_feasible(g)


class TestHeuristicOnGeneralGraphs:
    @pytest.mark.parametrize("seed", range(4))
    def test_feasible_on_digraphs(self, seed):
        g = random_digraph(10, extra_edge_prob=0.3, seed=seed)
        budget = g.total_version_storage() * 0.8
        res = dp_msr(g, budget, ticks=32)
        assert res.score.storage <= budget + 1e-6
        assert res.score.feasible_reconstruction

    def test_beats_lmg_on_natural_graph_low_budget(self):
        """The Figure-10 regime: tight budgets on natural graphs."""
        g = natural_graph(80, seed=3)
        base = min_storage_plan_tree(g).total_storage
        budget = base * 1.1
        f = dp_msr_frontier(g, ticks=96)
        r_dp = f.best_retrieval_within(budget)
        r_lmg = lmg(g, budget).total_retrieval
        assert r_dp <= r_lmg * 1.1

    def test_frontier_is_pareto(self):
        g = natural_graph(50, seed=4)
        f = dp_msr_frontier(g, ticks=48)
        f.check_invariants()


class TestSolverObject:
    def test_frontier_cached(self):
        g = random_bidirectional_tree(10, seed=11)
        s = DPMSRSolver(g, ticks=None)
        assert s.frontier() is s.frontier()

    def test_plan_requires_tables(self):
        g = random_bidirectional_tree(6, seed=12)
        s = DPMSRSolver(g, ticks=None, keep_tables=False)
        with pytest.raises(GraphError):
            s.plan_for_budget(10**9)

    def test_multiple_budgets_one_solver(self):
        g = random_bidirectional_tree(12, seed=13)
        s = DPMSRSolver(g, ticks=None, keep_tables=True)
        f = s.frontier()
        budgets = np.linspace(f.min_storage(), f.sto[-1], 5)
        rets = []
        for b in budgets:
            plan = s.plan_for_budget(float(b))
            score = evaluate_plan(g, plan)
            assert score.storage <= b + 1e-6
            rets.append(score.sum_retrieval)
        assert all(a >= b - 1e-9 for a, b in zip(rets, rets[1:]))
