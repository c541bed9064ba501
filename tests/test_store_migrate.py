"""Plan migration: rewrite exactly the tree diff, end in the scratch state.

Two invariants pin ``MaterializationStore.migrate``:

* **minimality** — the number of edges rewritten equals the symmetric
  difference of the two plans' edge sets (op-counter asserted, so a
  regression that silently re-materializes everything fails loudly);
* **equivalence** — the migrated store is object-for-object equal to a
  from-scratch materialization of the new plan: same records, same
  object keys, same object bytes (garbage fully collected).

The GC marks live blobs from a memo filled when objects are written,
so it is also pinned against the full mark-and-sweep scan over a chain
of syncs, including a reopened directory store whose memo starts cold.
"""

import pytest

from repro.algorithms.registry import get_solver
from repro.store import (
    FileObjectStore,
    MaterializationStore,
    StoreError,
    materialize,
    plan_parent_map,
)
from repro.store.codec import decode_delta, hash_object


def edge_set(plan):
    return {(p, v) for v, p in plan_parent_map(plan).items()}


def solve(graph, problem, solver, budget):
    plan = get_solver(problem, solver)(graph, budget)
    assert plan is not None
    return plan


def assert_stores_equal(migrated, scratch):
    """Object-for-object equality of two stores."""
    assert migrated.edge_set() == scratch.edge_set()
    assert {v: migrated.digest(v) for v in migrated.versions} == {
        v: scratch.digest(v) for v in scratch.versions
    }
    m_keys = set(migrated.objects.keys())
    s_keys = set(scratch.objects.keys())
    assert m_keys == s_keys, (
        f"stray objects: {m_keys - s_keys}, missing: {s_keys - m_keys}"
    )
    for key in s_keys:
        assert migrated.objects.get(key) == scratch.objects.get(key)


@pytest.mark.parametrize("span_a,span_b", [(2.0, 4.0), (4.0, 2.0), (2.0, 2.5)])
def test_migrate_equals_scratch(
    span_a, span_b, repo_factory, graph_factory, storage_budget
):
    repo = repo_factory(60, seed=3)
    graph = graph_factory(60, seed=3)
    plan_a = solve(graph, "msr", "lmg", storage_budget(graph, span=span_a))
    plan_b = solve(graph, "msr", "lmg", storage_budget(graph, span=span_b))

    store = materialize(repo, plan_a)
    report = store.migrate(plan_a, plan_b)
    scratch = materialize(repo, plan_b)

    diff = edge_set(plan_a) ^ edge_set(plan_b)
    assert report.edges_rewritten == len(diff)
    assert report.edges_written == len(edge_set(plan_b) - edge_set(plan_a))
    assert report.edges_deleted == len(edge_set(plan_a) - edge_set(plan_b))
    assert_stores_equal(store, scratch)
    assert store.fsck() == []

    for commit in repo.commits:
        assert store.checkout(commit.id) == commit.snapshot


def test_migrate_identity_is_noop(repo_factory, graph_factory, storage_budget):
    """Same plan in, zero edges rewritten, zero objects touched."""
    repo = repo_factory(40, seed=3)
    graph = graph_factory(40, seed=3)
    plan = solve(graph, "msr", "lmg", storage_budget(graph))

    store = materialize(repo, plan)
    before = set(store.objects.keys())
    report = store.migrate(plan, plan)

    assert report.edges_rewritten == 0
    assert report.edges_written == 0
    assert report.edges_deleted == 0
    assert report.objects_written == 0
    assert report.objects_deleted == 0
    assert set(store.objects.keys()) == before


def test_migrate_across_problem_families(
    repo_factory, graph_factory, storage_budget, retrieval_budget
):
    """An MSR store migrates cleanly onto a BMR plan for the same repo."""
    repo = repo_factory(60, seed=3)
    graph = graph_factory(60, seed=3)
    plan_msr = solve(graph, "msr", "lmg", storage_budget(graph))
    plan_bmr = solve(graph, "bmr", "mp-local", retrieval_budget(graph))

    store = materialize(repo, plan_msr)
    report = store.migrate(plan_msr, plan_bmr)
    scratch = materialize(repo, plan_bmr)

    assert report.edges_rewritten == len(edge_set(plan_msr) ^ edge_set(plan_bmr))
    assert_stores_equal(store, scratch)
    for commit in repo.commits:
        assert store.checkout(commit.id) == commit.snapshot


def test_migrate_rejects_stale_old_plan(
    repo_factory, graph_factory, storage_budget
):
    """``migrate`` refuses an old_plan that doesn't match the store."""
    repo = repo_factory(40, seed=3)
    graph = graph_factory(40, seed=3)
    plan_a = solve(graph, "msr", "lmg", storage_budget(graph, span=2.0))
    plan_b = solve(graph, "msr", "lmg", storage_budget(graph, span=4.0))
    if edge_set(plan_a) == edge_set(plan_b):
        pytest.skip("plans coincide on this instance")

    store = materialize(repo, plan_a)
    with pytest.raises(StoreError):
        store.migrate(plan_b, plan_a)


def test_migration_cheaper_than_rematerialization(
    repo_factory, graph_factory, storage_budget
):
    """A small budget nudge must not rewrite the whole tree."""
    repo = repo_factory(60, seed=3)
    graph = graph_factory(60, seed=3)
    plan_a = solve(graph, "msr", "lmg", storage_budget(graph, span=2.0))
    plan_b = solve(graph, "msr", "lmg", storage_budget(graph, span=2.2))

    store = materialize(repo, plan_a)
    report = store.migrate(plan_a, plan_b)
    assert report.edges_rewritten < len(repo.commits)


def test_gc_matches_full_scan_across_syncs(
    tmp_path, repo_factory, graph_factory, storage_budget
):
    """After every sync the object set is exactly the mark-and-sweep
    live set and a from-scratch build's, across a reopen and a stray."""
    repo = repo_factory(60, seed=3)
    graph = graph_factory(60, seed=3)
    plans = [
        solve(graph, "msr", "lmg", storage_budget(graph, span=span))
        for span in (2.0, 4.0, 2.5, 8.0, 3.0, 2.0)
    ]
    store = MaterializationStore.open(tmp_path)
    store.materialize(repo, plans[0])
    stray = hash_object("blob", b"stray\n")
    for i, plan in enumerate(plans[1:], start=1):
        if i == 3:
            # a fresh process: the reference memo starts cold, and a
            # stray object must still be collected
            store = MaterializationStore.open(tmp_path)
            assert isinstance(store.objects, FileObjectStore)
            assert store.objects.put(stray, b"stray\n")
        store.sync(plan)
        keys = set(store.objects.keys())
        live, findings = store._live_objects()
        assert not findings
        assert keys == live
        assert keys == set(materialize(repo, plan).objects.keys())
        assert stray not in keys
        assert store.fsck() == []
    for commit in repo.commits:
        assert store.checkout(commit.id) == commit.snapshot


def test_corrupt_kept_delta_keeps_its_blobs(
    repo_factory, graph_factory, storage_budget
):
    """The GC trusts the blobs a delta referenced when it was written.

    A delta corrupted in place no longer decodes, so a full scan cannot
    tell which blobs it created; the memoised GC still keeps them.  The
    corruption itself stays visible: fsck reports it and checkout
    refuses the version.
    """
    repo = repo_factory(60, seed=3)
    graph = graph_factory(60, seed=3)
    plan = solve(graph, "msr", "lmg", storage_budget(graph))
    store = materialize(repo, plan)
    live_before, _ = store._live_objects()

    def created_blobs(rec):
        return {
            e["blob"] for e in decode_delta(store.objects.get(rec.obj)).values()
            if e.get("op") == "create"
        }

    deltas = [
        (v, rec) for v, rec in sorted(store._records.items(), key=repr)
        if rec.kind == "delta" and created_blobs(rec)
    ]
    assert deltas
    for v, rec in deltas:
        blobs = created_blobs(rec)
        data = store.objects.get(rec.obj)
        store.objects.poke(rec.obj, data[:-1] + bytes([data[-1] ^ 0xFF]))
        scanned, _ = store._live_objects()
        if blobs - scanned:
            break
        store.objects.poke(rec.obj, data)  # blobs shared elsewhere
    else:
        pytest.fail("no delta creates a blob nothing else references")
    orphans = blobs - scanned

    report = store.sync(plan)
    assert report.objects_deleted == 0
    assert set(store.objects.keys()) == live_before
    assert orphans <= set(store.objects.keys())
    findings = store.fsck()
    assert any(
        f.code == "object-corrupt" and f.subject == rec.obj for f in findings
    )
    with pytest.raises(StoreError) as err:
        store.checkout(v)
    assert err.value.code == "object-corrupt"
