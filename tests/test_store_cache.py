"""Checkout LRU cache: byte identity, replay savings, invalidation.

The cache trades a bounded number of decoded snapshots for shorter
delta replays — it must never change *what* checkout returns, only how
much of the chain it re-decodes:

* warm checkouts are byte-identical to cold ones (and to the repo);
* a warm sweep issues strictly fewer object-store reads — zero when
  every version fits in the cache;
* ``checkout_cache=0`` disables caching entirely;
* callers may mutate returned snapshots without poisoning the cache;
* ``sync`` evicts only the versions the new plan dropped — those can
  never be resurrected from cache, while every kept version stays warm
  (its bytes and digest do not change, only its parent edge);
* ``StoreOps`` counts a checkout served from the cache as a hit and
  every other checkout as a miss.
"""

import pytest

from repro.algorithms.registry import get_solver
from repro.store import (
    MaterializationStore,
    MemoryObjectStore,
    StoreError,
    plan_parent_map,
)
from repro.vcs import build_graph_from_repo

from helpers import cached_repo, cached_graph, storage_span_budget


class CountingObjectStore(MemoryObjectStore):
    """A backend that counts ``get`` calls (decode traffic)."""

    def __init__(self):
        super().__init__()
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return super().get(key)


def solved_plan(commits=40, seed=3):
    graph = cached_graph(commits, seed=seed)
    plan = get_solver("msr", "lmg", backend="array")(
        graph, storage_span_budget(graph, 2.0)
    )
    assert plan is not None
    return plan


def fresh_store(plan, repo, *, checkout_cache=64):
    objects = CountingObjectStore()
    store = MaterializationStore(objects, checkout_cache=checkout_cache)
    store.materialize(repo, plan)
    objects.gets = 0  # count checkout traffic only
    return store, objects


class TestCheckoutCache:
    def test_warm_equals_cold_equals_repo(self):
        repo = cached_repo(40, seed=3)
        plan = solved_plan(40, seed=3)
        cached, _ = fresh_store(plan, repo)
        cold, _ = fresh_store(plan, repo, checkout_cache=0)
        for commit in repo.commits:
            first = cached.checkout(commit.id)
            again = cached.checkout(commit.id)  # served from cache
            assert first == cold.checkout(commit.id) == commit.snapshot
            assert again == commit.snapshot

    def test_warm_sweep_reads_nothing(self):
        repo = cached_repo(40, seed=3)
        store, objects = fresh_store(plan := solved_plan(40, seed=3), repo)
        for commit in repo.commits:
            store.checkout(commit.id)
        cold_gets = objects.gets
        assert cold_gets > 0
        objects.gets = 0
        for commit in repo.commits:
            store.checkout(commit.id)
        # 40 versions, 64 slots: every snapshot is still resident
        assert objects.gets == 0

    def test_small_cache_serves_a_working_set(self):
        # 8 slots cannot hold a 40-version sweep, but they do hold the
        # access pattern the cache is for: repeated checkouts of a few
        # nearby versions (reviewing the tip of a branch)
        repo = cached_repo(40, seed=3)
        store, objects = fresh_store(
            solved_plan(40, seed=3), repo, checkout_cache=8
        )
        cold, cold_objects = fresh_store(
            solved_plan(40, seed=3), repo, checkout_cache=0
        )
        tip = [c.id for c in repo.commits[-6:]]
        for _ in range(3):
            for v in tip:
                store.checkout(v)
                cold.checkout(v)
        assert 0 < objects.gets < cold_objects.gets
        assert len(store._snap_cache) <= 8

    def test_zero_slots_disables_caching(self):
        repo = cached_repo(40, seed=3)
        store, objects = fresh_store(
            solved_plan(40, seed=3), repo, checkout_cache=0
        )
        for commit in repo.commits:
            store.checkout(commit.id)
        cold_gets = objects.gets
        objects.gets = 0
        for commit in repo.commits:
            store.checkout(commit.id)
        assert objects.gets == cold_gets
        assert not store._snap_cache
        assert (store.ops.cache_hits, store.ops.cache_misses) == (0, 80)

    def test_caller_mutation_does_not_poison_the_cache(self):
        repo = cached_repo(40, seed=3)
        store, _ = fresh_store(solved_plan(40, seed=3), repo)
        v = repo.commits[-1].id
        snap = store.checkout(v)
        snap["__evil__"] = ("mutated",)
        snap.clear()
        assert store.checkout(v) == repo.commits[-1].snapshot

    def test_sync_never_resurrects_a_dropped_version(self):
        repo = cached_repo(40, seed=3)
        store, _ = fresh_store(solved_plan(40, seed=3), repo)
        # warm the cache with every version, then migrate to a plan
        # that no longer covers one of them
        for commit in repo.commits:
            store.checkout(commit.id)
        graph = build_graph_from_repo(repo)  # private, mutable copy
        victim = next(
            v for v in graph.versions
            if all(p != v for c in repo.commits for p in c.parents)
        )
        graph.remove_version(victim)
        plan = get_solver("msr", "lmg", backend="array")(
            graph, storage_span_budget(graph, 3.0)
        )
        store.sync(plan)
        with pytest.raises(StoreError):
            store.checkout(victim)
        # survivors still check out byte-identically post-invalidation
        for commit in repo.commits:
            if commit.id != victim:
                assert store.checkout(commit.id) == commit.snapshot


class TestCacheSurvivesSync:
    def test_kept_versions_check_out_without_reads(self):
        repo = cached_repo(40, seed=3)
        graph = cached_graph(40, seed=3)
        old_plan = solved_plan(40, seed=3)
        new_plan = get_solver("msr", "lmg", backend="array")(
            graph, storage_span_budget(graph, 4.0)
        )
        old_parent = plan_parent_map(old_plan)
        new_parent = plan_parent_map(new_plan)
        # versions the sync keeps but re-parents: their cached snapshots
        # must outlive the edge they were reconstructed through
        moved = [v for v in new_parent if old_parent[v] != new_parent[v]]
        assert moved
        store, objects = fresh_store(old_plan, repo)
        for commit in repo.commits:
            store.checkout(commit.id)
        objects.gets = 0
        store.sync(new_plan)
        # every snapshot the new edges need is cached, and the GC marks
        # live blobs from its reference memo: the sync reads nothing
        assert objects.gets == 0
        for commit in repo.commits:
            assert store.checkout(commit.id) == commit.snapshot
        assert objects.gets == 0
        assert store.fsck() == []


class TestCacheCounters:
    def test_repeated_checkout_is_one_miss_then_one_hit(self):
        repo = cached_repo(40, seed=3)
        store, _ = fresh_store(solved_plan(40, seed=3), repo)
        v = repo.commits[-1].id
        store.checkout(v)
        assert (store.ops.cache_hits, store.ops.cache_misses) == (0, 1)
        store.checkout(v)
        assert (store.ops.cache_hits, store.ops.cache_misses) == (1, 1)
        snap = store.ops.snapshot()
        store.checkout(v)
        assert (snap.cache_hits, snap.cache_misses) == (1, 1)
        assert store.ops.cache_hits == 2
