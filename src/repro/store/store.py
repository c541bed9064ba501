"""The plan executor: materialize / checkout / migrate / fsck.

A :class:`MaterializationStore` turns a solver's
:class:`~repro.core.solution.StoragePlan` into actual bytes on a
content-addressed :class:`~repro.store.objects.ObjectStore`:

* versions whose plan parent is AUX become **full objects** — one blob
  per file plus a manifest, all sha256-addressed and deduplicated;
* every other plan-tree edge ``(u, v)`` becomes a **delta object**
  (run-length Myers ops per changed file, created files stored as
  shared blobs);
* ``checkout(v)`` walks from ``v``'s nearest materialized ancestor
  down the recorded chain, verifying every object hash on load and the
  reconstructed snapshot's digest before returning — it raises
  :class:`~repro.store.codec.StoreError` rather than ever handing back
  wrong bytes;
* ``migrate(old_plan, new_plan)`` rewrites exactly the edges in the
  symmetric difference of the two trees (pinned by the
  :class:`StoreOps` counter) and garbage-collects unreferenced
  objects, leaving the store object-for-object equal to a from-scratch
  materialization of ``new_plan``.  Neither step re-reads an object
  the diff does not touch: the checkout cache keeps every version that
  stays in the plan, and the GC marks live blobs from a memo of the
  blob keys each record object references, filled when the object is
  written (or on first GC after :meth:`MaterializationStore.open`);
* ``fsck()`` re-hashes every object and walks every delta chain,
  reporting findings with the stable codes of :data:`FSCK_CODES`.

The store records, per version, its plan parent, the object realizing
the edge, and the snapshot digest — nothing else.  All dedup falls out
of content addressing; all integrity falls out of re-hashing on read.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ..core.graph import Node
from ..core.solution import StoragePlan
from ..vcs.repo import Repository, Snapshot
from .codec import (
    StoreError,
    apply_delta,
    blob_bytes,
    blob_lines,
    decode_delta,
    decode_manifest,
    encode_delta,
    encode_manifest,
    hash_object,
    snapshot_digest,
)
from .objects import FileObjectStore, MemoryObjectStore, ObjectStore

__all__ = [
    "MaterializationStore",
    "StoreOps",
    "MigrationReport",
    "FsckFinding",
    "FSCK_CODES",
    "plan_parent_map",
    "materialize",
]

META_NAME = "META.json"

#: The stable fsck finding codes (tests and the CLI rely on these).
FSCK_CODES = (
    "object-missing",
    "object-corrupt",
    "digest-mismatch",
    "delta-apply-failed",
    "tree-structure",
    "object-unreferenced",
)


@dataclass
class StoreOps:
    """Cumulative operation counters.

    The migration-cost odometer (edges, objects, bytes) plus checkout
    ``cache_hits`` (the version itself was cached) and ``cache_misses``.
    """

    edges_written: int = 0
    edges_deleted: int = 0
    objects_written: int = 0
    objects_deleted: int = 0
    bytes_written: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def snapshot(self) -> "StoreOps":
        """An independent copy of the current counters."""
        return replace(self)


@dataclass(frozen=True)
class MigrationReport:
    """What one ``migrate``/``sync`` actually touched."""

    edges_written: int
    edges_deleted: int
    objects_written: int
    objects_deleted: int

    @property
    def edges_rewritten(self) -> int:
        """Total edge churn — equals ``|old tree edges ^ new tree edges|``."""
        return self.edges_written + self.edges_deleted


@dataclass(frozen=True)
class FsckFinding:
    """One integrity problem: a stable ``code`` plus human detail."""

    code: str
    subject: str
    detail: str


@dataclass(frozen=True)
class _Record:
    """One version's realization: parent (None = materialized), object."""

    parent: Node | None
    kind: str  # "full" | "delta"
    obj: str

    @property
    def obj_kind(self) -> str:
        """The hash-tag kind of ``obj``: full records point at manifests."""
        return "manifest" if self.kind == "full" else "delta"

    def to_json(self, v: Node) -> list:
        """JSON row ``[v, parent, kind, obj]`` for META persistence."""
        return [v, self.parent, self.kind, self.obj]


def _object_refs(rec: _Record, data: bytes) -> tuple[str, ...]:
    """Blob keys a record object's hash-verified payload references."""
    if rec.kind == "full":
        return tuple(decode_manifest(data).values())
    return tuple(
        e["blob"] for e in decode_delta(data).values() if e.get("op") == "create"
    )


def plan_parent_map(plan: StoragePlan) -> dict[Node, Node | None]:
    """The tree shape of ``plan``: ``v -> parent`` (None = materialized).

    Raises :class:`StoreError` unless the plan is an arborescence —
    every version has exactly one incoming realization and every delta
    source is itself in the plan.  Solver output always qualifies
    (optimal plans are w.l.o.g. trees); hand-built general plans with
    redundant stored deltas do not.
    """
    parent: dict[Node, Node | None] = {v: None for v in plan.materialized}
    for u, v in sorted(plan.stored_deltas, key=repr):
        if v in plan.materialized:
            raise StoreError(
                f"plan is not a tree: {v!r} is materialized and delta-target"
            )
        if v in parent:
            raise StoreError(f"plan is not a tree: {v!r} has two stored deltas in")
        parent[v] = u
    for u, v in plan.stored_deltas:
        if u not in parent:
            raise StoreError(f"delta source {u!r} is not in the plan")
    return parent


def _topo_order(parent: dict[Node, Node | None]) -> list[Node]:
    """Root-first order of the plan tree; raises on cycles."""
    children: dict[Node | None, list[Node]] = {}
    for v, p in parent.items():
        children.setdefault(p, []).append(v)
    order: list[Node] = []
    stack = sorted(children.get(None, ()), key=repr, reverse=True)
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(sorted(children.get(x, ()), key=repr, reverse=True))
    if len(order) != len(parent):
        unreached = sorted((set(parent) - set(order)), key=repr)
        raise StoreError(
            f"plan tree has a cycle or unreachable versions: {unreached[:5]!r}"
        )
    return order


class MaterializationStore:
    """A content-addressed store executing one storage plan.

    Parameters
    ----------
    objects:
        Backend object store; defaults to a fresh
        :class:`~repro.store.objects.MemoryObjectStore`.  Pass a
        :class:`~repro.store.objects.FileObjectStore` (or use
        :meth:`open`) for a store that persists across processes.
    """

    def __init__(
        self,
        objects: ObjectStore | None = None,
        *,
        checkout_cache: int = 64,
    ) -> None:
        self.objects: ObjectStore = (
            objects if objects is not None else MemoryObjectStore()
        )
        self.ops = StoreOps()
        self.source: dict | None = None  # CLI provenance (seed, params)
        self._records: dict[Node, _Record] = {}
        self._digests: dict[Node, str] = {}
        self._meta_path: Path | None = None
        # LRU of digest-verified snapshots: repeated checkouts of nearby
        # versions replay only the chain suffix below the nearest cached
        # ancestor instead of re-decoding from the materialized root.
        # 0 disables.  sync/migrate evict exactly the versions that left
        # the plan: a version's bytes and digest never change while it
        # stays, only its parent edge does.
        self._cache_slots = int(checkout_cache)
        self._snap_cache: OrderedDict[Node, Snapshot] = OrderedDict()
        # record object key -> blob keys it references, so the GC marks
        # live blobs without reading objects; filled at write time, or
        # on first GC for objects loaded from disk
        self._refs: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, root: str | Path) -> "MaterializationStore":
        """A directory-backed store at ``root``, loading META if present."""
        root = Path(root)
        store = cls(FileObjectStore(root))
        store._meta_path = root / META_NAME
        if store._meta_path.exists():
            meta = json.loads(store._meta_path.read_text())
            store._records = {
                v: _Record(p, kind, obj)
                for v, p, kind, obj in meta["records"]
            }
            store._digests = {v: d for v, d in meta["digests"]}
            store.source = meta.get("source")
        return store

    def flush(self) -> None:
        """Write META (records, digests, provenance) for directory stores."""
        if self._meta_path is None:
            return
        meta = {
            "records": [r.to_json(v) for v, r in sorted(
                self._records.items(), key=lambda kv: repr(kv[0])
            )],
            "digests": [
                [v, d] for v, d in sorted(
                    self._digests.items(), key=lambda kv: repr(kv[0])
                )
            ],
            "source": self.source,
        }
        self._meta_path.write_text(json.dumps(meta, indent=1))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def versions(self) -> list[Node]:
        """Every version the store can check out."""
        return sorted(self._records, key=repr)

    def contains(self, v: Node) -> bool:
        """True when ``v`` is realized by the current plan."""
        return v in self._records

    def is_materialized(self, v: Node) -> bool:
        """True when ``v`` is stored in full (a plan-tree root)."""
        return self._records[v].parent is None

    def chain_depth(self, v: Node) -> int:
        """Number of deltas applied by ``checkout(v)`` (0 = materialized)."""
        depth = 0
        seen: set[Node] = set()
        x = v
        while True:
            rec = self._get_record(x)
            if rec.parent is None:
                return depth
            if x in seen:
                raise StoreError(f"parent chain of {v!r} contains a cycle")
            seen.add(x)
            x = rec.parent
            depth += 1

    def edge_set(self) -> set[tuple[Node | None, Node]]:
        """The realized tree edges as ``(parent or None, version)`` pairs."""
        return {(r.parent, v) for v, r in self._records.items()}

    def digest(self, v: Node) -> str:
        """The snapshot digest recorded for ``v`` at materialization."""
        self._get_record(v)
        return self._digests[v]

    def total_bytes(self) -> int:
        """Object-store footprint in bytes."""
        return self.objects.total_bytes()

    # ------------------------------------------------------------------
    # materialize
    # ------------------------------------------------------------------
    def materialize(self, repo: Repository | Callable[[Node], Snapshot],
                    plan: StoragePlan) -> None:
        """Execute ``plan``: store full objects and deltas for every version.

        ``repo`` is a :class:`~repro.vcs.repo.Repository` (versions are
        commit ids) or any ``version -> Snapshot`` callable.  The store
        must be empty — an existing store migrates instead.
        """
        if self._records:
            raise StoreError("store already holds a plan; use migrate()/sync()")
        fetch = _fetcher(repo)
        parent = plan_parent_map(plan)
        order = _topo_order(parent)
        snaps: dict[Node, Snapshot] = {}
        for v in order:
            snaps[v] = fetch(v)
        for v in order:
            p = parent[v]
            snap = snaps[v]
            self._digests[v] = snapshot_digest(snap)
            if p is None:
                self._records[v] = self._write_full(snap)
            else:
                self._records[v] = self._write_delta(p, snaps[p], snap)
            self.ops.edges_written += 1
        self.flush()

    def _put(self, key: str, data: bytes) -> str:
        if self.objects.put(key, data):
            self.ops.objects_written += 1
            self.ops.bytes_written += len(data)
        return key

    def _write_full(self, snap: Snapshot) -> _Record:
        manifest: dict[str, str] = {}
        for path, lines in snap.items():
            data = blob_bytes(tuple(lines))
            manifest[path] = self._put(hash_object("blob", data), data)
        payload = encode_manifest(manifest)
        key = self._put(hash_object("manifest", payload), payload)
        self._refs[key] = frozenset(manifest.values())
        return _Record(None, "full", key)

    def _write_delta(self, p: Node, base: Snapshot, snap: Snapshot) -> _Record:
        created: list[str] = []

        def blob_hash_of(path: str) -> str:
            data = blob_bytes(tuple(snap[path]))
            created.append(self._put(hash_object("blob", data), data))
            return created[-1]

        payload = encode_delta(base, snap, blob_hash_of=blob_hash_of)
        key = self._put(hash_object("delta", payload), payload)
        self._refs[key] = frozenset(created)
        return _Record(p, "delta", key)

    # ------------------------------------------------------------------
    # checkout
    # ------------------------------------------------------------------
    def _get_record(self, v: Node) -> _Record:
        try:
            return self._records[v]
        except KeyError:
            raise StoreError(f"version {v!r} is not in the store") from None

    def _load_object(self, kind: str, key: str) -> bytes:
        data = self.objects.get(key)
        if data is None:
            raise StoreError(
                f"missing {kind} object {key[:12]}…", code="object-missing"
            )
        if hash_object(kind, data) != key:
            raise StoreError(
                f"corrupt {kind} object {key[:12]}…", code="object-corrupt"
            )
        return data

    def _load_full(self, rec: _Record) -> Snapshot:
        manifest = decode_manifest(self._load_object("manifest", rec.obj))
        return {
            path: blob_lines(self._load_object("blob", bh))
            for path, bh in manifest.items()
        }

    def _apply_delta_record(self, rec: _Record, base: Snapshot) -> Snapshot:
        entries = decode_delta(self._load_object("delta", rec.obj))
        return apply_delta(
            base, entries,
            load_blob=lambda bh: self._load_object("blob", bh),
        )

    def _cache_get(self, v: Node) -> Snapshot | None:
        snap = self._snap_cache.get(v)
        if snap is not None:
            self._snap_cache.move_to_end(v)
        return snap

    def _cache_put(self, v: Node, snap: Snapshot) -> None:
        if self._cache_slots <= 0:
            return
        # a private copy: callers may mutate the snapshot they receive
        # (values are immutable line tuples, so shallow is enough)
        self._snap_cache[v] = dict(snap)
        self._snap_cache.move_to_end(v)
        while len(self._snap_cache) > self._cache_slots:
            self._snap_cache.popitem(last=False)

    def checkout(self, v: Node) -> Snapshot:
        """Reconstruct ``v``'s snapshot, verifying every byte on the way.

        Walks up to the nearest materialized — or LRU-cached — ancestor,
        loads/reuses its snapshot, replays the delta chain down to
        ``v``, and compares the result's digest against the one recorded
        at materialization.  Any missing object, hash mismatch,
        unreplayable delta or digest mismatch raises :class:`StoreError`
        — wrong bytes are never returned.

        Only digest-verified snapshots enter the cache (sized by the
        ``checkout_cache`` constructor argument), so a cached base is
        exactly as trustworthy as a freshly replayed one; repeated
        checkouts of nearby versions replay only the chain suffix
        instead of re-decoding from the materialized root.
        """
        cached = self._cache_get(v)
        if cached is not None:
            self.ops.cache_hits += 1
            return dict(cached)
        self.ops.cache_misses += 1
        chain: list[tuple[Node, _Record]] = []
        x = v
        seen: set[Node] = set()
        rec = self._get_record(x)
        base: Snapshot | None = None
        while rec.parent is not None:
            if x in seen:
                raise StoreError(f"parent chain of {v!r} contains a cycle")
            seen.add(x)
            chain.append((x, rec))
            x = rec.parent
            hit = self._cache_get(x)
            if hit is not None:
                base = dict(hit)  # verified when it entered the cache
                break
            rec = self._get_record(x)
        caching = self._cache_slots > 0
        if base is None:
            base = self._load_full(rec)
            d = self._digests.get(x) if caching else None
            if d is not None and snapshot_digest(base) == d:
                self._cache_put(x, base)
        snap = base
        for y, rec in reversed(chain):
            snap = self._apply_delta_record(rec, snap)
            if y == v:
                break  # the final digest check below gates caching v
            d = self._digests.get(y) if caching else None
            if d is not None and snapshot_digest(snap) == d:
                self._cache_put(y, snap)
        if snapshot_digest(snap) != self._digests[v]:
            raise StoreError(
                f"checkout of {v!r} does not match its recorded digest",
                code="digest-mismatch",
            )
        self._cache_put(v, snap)
        return snap

    # ------------------------------------------------------------------
    # migrate
    # ------------------------------------------------------------------
    def sync(
        self,
        plan: StoragePlan,
        *,
        fetch: Callable[[Node], Snapshot] | None = None,
    ) -> MigrationReport:
        """Migrate the store from its current tree to ``plan``'s tree.

        Only edges in the symmetric difference of the two edge sets are
        touched: new edges are written (snapshots reconstructed from the
        *current* store state, or ``fetch``-ed for versions the store
        has never seen), stale edges are dropped, and unreferenced
        objects are garbage-collected.  The result is object-for-object
        identical to materializing ``plan`` from scratch.  Cached
        snapshots of versions that stay in the plan survive; only the
        versions that left it are evicted.
        """
        new_parent = plan_parent_map(plan)
        _topo_order(new_parent)  # validates acyclicity up front
        old_edges = self.edge_set()
        new_edges = {(p, v) for v, p in new_parent.items()}
        added = new_edges - old_edges
        removed = old_edges - new_edges

        # resolve every snapshot an added edge needs BEFORE rewriting
        # records: reconstruction must run against the old tree
        need: set[Node] = set()
        for p, v in added:
            need.add(v)
            if p is not None:
                need.add(p)
        snaps: dict[Node, Snapshot] = {}
        for x in sorted(need, key=repr):
            if x in self._records:
                snaps[x] = self.checkout(x)
            elif fetch is not None:
                snaps[x] = fetch(x)
            else:
                raise StoreError(
                    f"version {x!r} is new to the store; pass fetch= to sync()"
                )

        objects_before = self.ops.objects_written
        records: dict[Node, _Record] = {}
        for v, p in new_parent.items():
            if (p, v) in added:
                if v not in self._digests or v not in self._records:
                    self._digests[v] = snapshot_digest(snaps[v])
                if p is None:
                    records[v] = self._write_full(snaps[v])
                else:
                    records[v] = self._write_delta(p, snaps[p], snaps[v])
            else:
                records[v] = self._records[v]
        self._records = records
        self._digests = {v: self._digests[v] for v in new_parent}
        # a cache hit must never resurrect a version the store dropped
        for v in [v for v in self._snap_cache if v not in new_parent]:
            del self._snap_cache[v]
        self.ops.edges_written += len(added)
        self.ops.edges_deleted += len(removed)
        deleted = self._gc()
        self.flush()
        return MigrationReport(
            edges_written=len(added),
            edges_deleted=len(removed),
            objects_written=self.ops.objects_written - objects_before,
            objects_deleted=deleted,
        )

    def migrate(
        self,
        old_plan: StoragePlan,
        new_plan: StoragePlan,
        *,
        fetch: Callable[[Node], Snapshot] | None = None,
    ) -> MigrationReport:
        """Rewrite the store from ``old_plan``'s tree to ``new_plan``'s.

        ``old_plan`` must match the store's current state exactly (the
        explicit two-plan form of :meth:`sync`, mirroring a background
        re-solve handing over old and new trees).
        """
        expected = {(p, v) for v, p in plan_parent_map(old_plan).items()}
        if expected != self.edge_set():
            raise StoreError("old_plan does not match the store's current tree")
        return self.sync(new_plan, fetch=fetch)

    def _live_objects(self) -> tuple[set[str], list[FsckFinding]]:
        """Transitively referenced object keys + reference problems.

        The full scan ``fsck`` trusts: it reads and re-hashes every
        record object instead of consulting the GC's reference memo.
        """
        live: set[str] = set()
        findings: list[FsckFinding] = []
        for v, rec in sorted(self._records.items(), key=lambda kv: repr(kv[0])):
            live.add(rec.obj)
            data = self.objects.get(rec.obj)
            if data is None:
                findings.append(FsckFinding(
                    "object-missing", rec.obj,
                    f"{rec.kind} object of version {v!r} is absent",
                ))
                continue
            if hash_object(rec.obj_kind, data) != rec.obj:
                # referenced blobs are unknowable from a corrupt payload
                continue
            live.update(_object_refs(rec, data))
        return live, findings

    def _gc(self) -> int:
        """Delete objects unreachable from the records; returns count.

        Live blobs come from the reference memo, so only record objects
        never seen by this process (loaded by :meth:`open`) are read —
        once, with the same hash check as :meth:`_live_objects`.  The
        memo is pruned to the live record objects.
        """
        live: set[str] = set()
        memo: dict[str, frozenset[str]] = {}
        for rec in self._records.values():
            live.add(rec.obj)
            refs = self._refs.get(rec.obj)
            if refs is None:
                data = self.objects.get(rec.obj)
                if data is None or hash_object(rec.obj_kind, data) != rec.obj:
                    continue  # referenced blobs are unknowable
                refs = frozenset(_object_refs(rec, data))
            memo[rec.obj] = refs
            live |= refs
        self._refs = memo
        dead = [k for k in self.objects.keys() if k not in live]
        for k in dead:
            self.objects.delete(k)
        self.ops.objects_deleted += len(dead)
        return len(dead)

    # ------------------------------------------------------------------
    # fsck
    # ------------------------------------------------------------------
    def fsck(self) -> list[FsckFinding]:
        """Full integrity walk; an empty list means the store is sound.

        Three passes: (1) every referenced object present and re-hashing
        to its key, plus unreferenced strays; (2) the record tree is
        acyclic with no dangling parents; (3) every delta chain replays
        from its materialized root and every version's reconstruction
        matches its recorded digest.  Finding codes are the stable
        :data:`FSCK_CODES` set.
        """
        findings: list[FsckFinding] = []

        # pass 1: object presence + hashes
        live, ref_findings = self._live_objects()
        findings.extend(ref_findings)
        for v, rec in sorted(self._records.items(), key=lambda kv: repr(kv[0])):
            data = self.objects.get(rec.obj)
            if data is None:
                continue  # already reported by _live_objects
            if hash_object(rec.obj_kind, data) != rec.obj:
                findings.append(FsckFinding(
                    "object-corrupt", rec.obj,
                    f"{rec.kind} object of version {v!r} fails its hash",
                ))
                continue
            for bh in _object_refs(rec, data):
                blob = self.objects.get(bh)
                if blob is None:
                    findings.append(FsckFinding(
                        "object-missing", bh,
                        f"blob referenced by version {v!r} is absent",
                    ))
                elif hash_object("blob", blob) != bh:
                    findings.append(FsckFinding(
                        "object-corrupt", bh,
                        f"blob referenced by version {v!r} fails its hash",
                    ))
        for key in self.objects.keys():
            if key not in live:
                findings.append(FsckFinding(
                    "object-unreferenced", key,
                    "object is not referenced by any record",
                ))

        # pass 2: tree structure
        parent = {v: r.parent for v, r in self._records.items()}
        for v, p in parent.items():
            if p is not None and p not in parent:
                findings.append(FsckFinding(
                    "tree-structure", repr(v),
                    f"parent {p!r} of version {v!r} has no record",
                ))
        try:
            order = _topo_order(parent)
        except StoreError as err:
            findings.append(FsckFinding("tree-structure", "<tree>", str(err)))
            return findings

        # pass 3: replay every chain root-first, verify digests
        snaps: dict[Node, Snapshot | None] = {}
        for v in order:
            rec = self._records[v]
            try:
                if rec.parent is None:
                    snap = self._load_full(rec)
                else:
                    base = snaps.get(rec.parent)
                    if base is None:
                        snaps[v] = None  # ancestor already failed
                        continue
                    snap = self._apply_delta_record(rec, base)
            except StoreError as err:
                code = err.code or "delta-apply-failed"
                findings.append(FsckFinding(code, repr(v), str(err)))
                snaps[v] = None
                continue
            snaps[v] = snap
            if snapshot_digest(snap) != self._digests.get(v):
                findings.append(FsckFinding(
                    "digest-mismatch", repr(v),
                    f"reconstruction of {v!r} does not match its digest",
                ))
        return findings


def _fetcher(repo: Repository | Callable[[Node], Snapshot]):
    """Normalize a Repository or callable into ``v -> Snapshot``."""
    if isinstance(repo, Repository):
        return lambda v: repo.commits[v].snapshot
    return repo


def materialize(
    repo: Repository | Callable[[Node], Snapshot],
    plan: StoragePlan,
    *,
    objects: ObjectStore | None = None,
) -> MaterializationStore:
    """Build a fresh store executing ``plan`` over ``repo``'s bytes."""
    store = MaterializationStore(objects)
    store.materialize(repo, plan)
    return store
