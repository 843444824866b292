"""The dynamic granular locking protocol (paper §3.3--§3.8, Table 3).

Each operation follows the same skeleton:

1. **Plan** (under the structure latch): traverse the tree read-only,
   compute which granules the operation touches and -- for writers --
   which granules it would grow, shrink or split.
2. **Lock**: request every lock of Table 3 *conditionally*.  On the first
   one that would block, drop the latch, wait *unconditionally* (this is
   where deadlock detection may abort us), then restart from step 1 --
   the tree may have moved while we slept.  Locks already granted are
   kept: commit-duration ones are needed or harmless, short-duration ones
   die with the operation.
3. **Apply**: perform the structure modification atomically (latch held;
   in the simulator there is additionally no context switch here).
4. **Post-locks**: the locks Table 3 prescribes *after* a split or growth
   (IX on the split halves, inherited S locks).  These can block only on
   transactions that were already active inside the granule, so they are
   taken unconditionally outside the latch.

The latch models the physical-consistency protocol the paper assumes from
its reference [12]: it keeps structure modifications atomic; it is never
held across a lock wait.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.granules import GranuleRef, GranuleSet
from repro.core.policy import InsertionPolicy
from repro.geometry import Rect, Region
from repro.lock.manager import LockManager
from repro.lock.modes import LockDuration, LockMode
from repro.lock.resource import ResourceId
from repro.rtree.entry import LeafEntry, ObjectId
from repro.rtree.report import SMOReport
from repro.rtree.tree import InsertPlan, RTree, RTreeError
from repro.storage.page import PageId

#: one lock requirement: (resource, mode, duration)
Want = Tuple[ResourceId, LockMode, LockDuration]

T = TypeVar("T")

S, X, IX, SIX = LockMode.S, LockMode.X, LockMode.IX, LockMode.SIX
SHORT, COMMIT = LockDuration.SHORT, LockDuration.COMMIT

#: Table 3, one row per operation kind: every (namespace, mode, duration)
#: triple the protocol may legitimately request while executing that kind
#: (including the post-split and inherited-coverage variants).  This is
#: the single source of truth for lock-pattern conformance: the online
#: auditor (:mod:`repro.obs.auditor`), which every stress run carries,
#: checks the live event stream against it, so a protocol change that
#: widens a row updates the check at once.  Keys are the operation-kind
#: strings carried by ``op.begin`` events; ``physical_delete`` covers the
#: §3.7 deferred-delete system transactions, which run outside operation
#: spans.
TABLE3_ALLOWED: dict = {
    "read_scan": {("leaf", S, COMMIT), ("ext", S, COMMIT)},
    "read_single": {("obj", S, COMMIT)},
    "update_single": {("leaf", IX, COMMIT), ("obj", X, COMMIT)},
    "update_scan": {
        ("leaf", SIX, COMMIT),
        ("ext", SIX, COMMIT),
        ("leaf", S, COMMIT),
        ("ext", S, COMMIT),
        ("obj", X, COMMIT),
    },
    "insert": {
        ("leaf", IX, COMMIT),
        ("obj", X, COMMIT),
        # short fences: target SIX before a split, policy IX overlap set,
        # SIX on deforming external granules
        ("leaf", SIX, SHORT),
        ("leaf", IX, SHORT),
        ("ext", IX, SHORT),
        ("ext", SIX, SHORT),
        # post-split / inherited coverage
        ("leaf", SIX, COMMIT),
        ("leaf", S, COMMIT),
        ("ext", S, COMMIT),
    },
    # logical delete; the absent path degenerates to a ReadScan
    "delete": {
        ("leaf", IX, COMMIT),
        ("obj", X, COMMIT),
        ("leaf", S, COMMIT),
        ("ext", S, COMMIT),
    },
    # Table 3 "Delete (Deferred)": elimination fences, orphan-reinsertion
    # fences, and the ordinary-insert locks of §3.7 re-insertions
    # (including their post-split rows).
    "physical_delete": {
        ("leaf", IX, SHORT),
        ("leaf", SIX, SHORT),
        ("ext", IX, SHORT),
        ("ext", SIX, SHORT),
        ("obj", X, COMMIT),
        ("leaf", IX, COMMIT),
        ("leaf", SIX, COMMIT),
        ("leaf", S, COMMIT),
        ("ext", S, COMMIT),
    },
}

#: object-lock mode each operation must hold on its target when it finds
#: it (the "first touch takes the object lock" rule of Table 3; the
#: auditor's ``first-touch`` rule)
TABLE3_REQUIRED_OBJ_MODE: dict = {
    "insert": X,
    "delete": X,
    "update_single": X,
    "read_single": S,
}


@dataclass
class OpContext:
    """One operation's lock record, and the lock requests every index's
    operations make through it.

    Every index follows one skeleton: plan under its latch, request the
    lock set with :meth:`acquire_conditional`, and on the first blocker
    drop the latch, :meth:`wait_for` it, and plan again (the structure
    may have moved while the transaction slept).  Locks taken after a
    modification, or by an index that does not revalidate, go through
    :meth:`acquire_all`.  What the transaction holds is the lock
    manager's record alone (:meth:`LockManager.holds_covering`): a want
    some held unit already covers is not requested.  The context lists
    this operation's own grants and counts its waits."""

    lm: LockManager
    txn_id: Hashable
    #: every lock granted during this operation, in grant order; it becomes
    #: ``OpResult.locks_taken``, the index's per-mode lock statistics and
    #: the simulated ``lock_op`` charge of ``spawn_clients`` (a want the
    #: transaction already holds is neither requested nor listed)
    taken: List[Want] = field(default_factory=list)
    waits: int = 0
    restarts: int = 0

    def acquire_conditional(self, wants: Sequence[Want]) -> Optional[Want]:
        """Grab what is instantly grantable; return the first blocker.

        Wants are requested in one global order, (namespace, key): every
        transaction requesting its lock set in the same total order
        cannot deadlock with another doing the same -- waits still
        happen, cycles mostly do not."""
        lm, txn_id = self.lm, self.txn_id
        for want in sorted(wants, key=lambda w: (w[0].namespace.value, repr(w[0].key))):
            resource, mode, duration = want
            if lm.holds_covering(txn_id, resource, mode, duration):
                continue
            if not lm.acquire(txn_id, resource, mode, duration, conditional=True):
                return want
            self.taken.append(want)
        return None

    def wait_for(self, want: Want) -> None:
        """Unconditional acquisition (outside the latch).  May raise
        :class:`~repro.lock.manager.DeadlockError`."""
        resource, mode, duration = want
        self.waits += 1
        self.lm.acquire(self.txn_id, resource, mode, duration, conditional=False)
        self.taken.append(want)

    def acquire_all(self, wants: Sequence[Want]) -> None:
        """Take every want in the given order, waiting as needed."""
        lm, txn_id = self.lm, self.txn_id
        for want in wants:
            resource, mode, duration = want
            if lm.holds_covering(txn_id, resource, mode, duration):
                continue
            if lm.acquire(txn_id, resource, mode, duration, conditional=True):
                self.taken.append(want)
            else:
                self.wait_for(want)


class GranuleLockProtocol:
    """Implements Table 3 over one R-tree and one lock manager."""

    def __init__(
        self,
        tree: RTree,
        lock_manager: LockManager,
        policy: InsertionPolicy = InsertionPolicy.ON_GROWTH,
    ) -> None:
        self.tree = tree
        self.granules = GranuleSet(tree)
        self.lm = lock_manager
        self.policy = policy
        #: physical-consistency latch (see module docstring)
        self.latch = threading.RLock()
        #: the protocol's one observation seam, with the lock manager's
        #: ``obs_sink`` signature ``(event, **fields)``: ``op.phase``
        #: (``txn``, ``tag``, ``resource``) at every yield point --
        #: operation loop heads, restarts (``resource`` is the blocked
        #: want's resource, as a string) and the post-lock phase -- and
        #: ``granule.*`` after each structure modification.  Every call
        #: site is OUTSIDE the latch and all lock-manager mutexes, so,
        #: unlike an :class:`~repro.obs.tracer.EventTracer` sink, this
        #: sink may block (context-switch the simulator) or raise (an
        #: injected fault) without deadlocking the protocol.  ``None``
        #: (production) costs one attribute test per seam.
        self.obs_sink: Optional[Callable[..., None]] = None

    # ------------------------------------------------------------------
    # lock plumbing
    # ------------------------------------------------------------------

    def end_operation(self, ctx: OpContext) -> None:
        """Release the operation's short-duration locks."""
        self.lm.end_operation(ctx.txn_id)

    def _restart(self, ctx: OpContext, blocked: Optional[Want] = None) -> None:
        """One operation restart (outside the latch): count it and yield.

        ``blocked`` is the lock want that forced the restart; its resource
        travels with the yield so observers see *why* the operation is
        starting over.
        """
        ctx.restarts += 1
        self._yield("restart", ctx, blocked[0] if blocked is not None else None)

    def _yield(self, tag: str, ctx: OpContext, resource: Optional[ResourceId] = None) -> None:
        sink = self.obs_sink
        if sink is not None:
            sink(
                "op.phase",
                txn=ctx.txn_id,
                tag=tag,
                resource=None if resource is None else repr(resource),
            )

    def _trace_report(self, ctx: OpContext, report: SMOReport) -> None:
        """Emit the granule-shape events of one structure modification."""
        sink = self.obs_sink
        if sink is None:
            return

        def _bounds(rect) -> Optional[List[List[float]]]:
            return None if rect is None else [list(pair) for pair in rect]

        txn = ctx.txn_id
        for g in report.growth:
            sink(
                "granule.grow",
                txn=txn,
                page=g.page_id,
                level=g.level,
                grew=g.grew,
                old_mbr=_bounds(g.old_mbr),
                new_mbr=_bounds(g.new_mbr),
                parent=g.parent,
            )
        for split in report.splits:
            sink(
                "granule.split",
                txn=txn,
                old=split.old_id,
                left=split.left_id,
                right=split.right_id,
                level=split.level,
            )
        for page_id in report.eliminated:
            sink("granule.eliminate", txn=txn, page=page_id)
        for record in report.reinserted:
            sink(
                "granule.reinsert",
                txn=txn,
                oid=record.entry.oid,
                target_page=record.target_page,
                target_level=0,
            )

    # ------------------------------------------------------------------
    # ReadScan / the shared scan-locking loop (Table 3: S on all
    # overlapping granules, commit duration)
    # ------------------------------------------------------------------

    def _scan_granted(
        self, ctx: OpContext, predicate: Rect, then: Callable[[List[GranuleRef]], T]
    ) -> T:
        """Commit-duration S locks on every granule overlapping the
        predicate; once all are granted, return ``then(refs)`` evaluated in
        the same latch hold.  A blocked want restarts the loop, which
        recomputes the granules."""
        while True:
            self._yield("scan", ctx)
            with self.latch:
                refs = self.granules.overlapping(predicate)
                wants: List[Want] = [(ref.resource, S, COMMIT) for ref in refs]
                blocked = ctx.acquire_conditional(wants)
                if blocked is None:
                    return then(refs)
            self._restart(ctx, blocked)
            ctx.wait_for(blocked)

    def lock_scan(self, ctx: OpContext, predicate: Rect) -> List[GranuleRef]:
        """Commit-duration S locks on every granule overlapping the predicate."""
        return self._scan_granted(ctx, predicate, lambda refs: refs)

    def execute_scan(self, ctx: OpContext, predicate: Rect) -> List[LeafEntry]:
        """Lock then read; tombstoned entries are logically absent.

        One traversal: the granule walk has already read every non-leaf
        node the search needs, so only the locked leaf granules are read.
        """
        return self._scan_granted(
            ctx, predicate, lambda refs: self._read_leaf_granules(refs, predicate)
        )

    def _read_leaf_granules(self, refs: Sequence[GranuleRef], predicate: Rect) -> List[LeafEntry]:
        """The live entries overlapping the predicate on the refs' leaves."""
        return self.tree.search_leaves([ref.page_id for ref in refs if ref.is_leaf], predicate)

    # ------------------------------------------------------------------
    # UpdateScan (Table 3: SIX on the minimal covering set, S on the
    # remaining overlapping granules, X on each updated object)
    # ------------------------------------------------------------------

    def lock_update_scan(self, ctx: OpContext, predicate: Rect) -> List[LeafEntry]:
        while True:
            self._yield("update_scan", ctx)
            with self.latch:
                cover, rest = self.granules.covering(predicate)
                wants: List[Want] = [(ref.resource, SIX, COMMIT) for ref in cover]
                wants += [(ref.resource, S, COMMIT) for ref in rest]
                blocked = ctx.acquire_conditional(wants)
                if blocked is None:
                    matches = self._read_leaf_granules(cover + rest, predicate)
                    object_wants: List[Want] = [
                        (ResourceId.obj(e.oid), X, COMMIT) for e in matches
                    ]
                    blocked = ctx.acquire_conditional(object_wants)
                    if blocked is None:
                        return matches
            self._restart(ctx, blocked)
            ctx.wait_for(blocked)

    # ------------------------------------------------------------------
    # ReadSingle / UpdateSingle
    # ------------------------------------------------------------------

    def lock_read_single(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> Optional[LeafEntry]:
        """Table 3: S on the object only (no granule locks).

        A ReadSingle that finds nothing takes no locks and gets no
        stability guarantee -- exactly the paper's contract.
        """
        while True:
            self._yield("read_single", ctx)
            with self.latch:
                located = self.tree.find_entry(oid, rect)
                if located is None:
                    return None
                _leaf_id, entry = located
                want: Want = (ResourceId.obj(oid), S, COMMIT)
                blocked = ctx.acquire_conditional([want])
                if blocked is None:
                    # The S lock excludes writers, so the tombstone state
                    # we see now is settled.
                    return None if entry.tombstone else entry
            self._restart(ctx, blocked)
            ctx.wait_for(blocked)

    def lock_update_single(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> Optional[LeafEntry]:
        """Table 3: IX on the granule containing the object, X on the object."""
        while True:
            self._yield("update_single", ctx)
            with self.latch:
                located = self.tree.find_entry(oid, rect)
                if located is None:
                    return None
                leaf_id, entry = located
                wants: List[Want] = [
                    (ResourceId.leaf(leaf_id), IX, COMMIT),
                    (ResourceId.obj(oid), X, COMMIT),
                ]
                blocked = ctx.acquire_conditional(wants)
                if blocked is None:
                    return None if entry.tombstone else entry
            self._restart(ctx, blocked)
            ctx.wait_for(blocked)

    # ------------------------------------------------------------------
    # Insert (§3.3 -- §3.5)
    # ------------------------------------------------------------------

    def insert(
        self,
        ctx: OpContext,
        oid: ObjectId,
        rect: Rect,
        on_applied: Optional[Callable[[], None]] = None,
    ) -> Tuple[Optional[InsertPlan], SMOReport]:
        """Lock per Table 3, apply the insertion, take the post-split locks.

        Inserting an object whose previous incarnation is tombstoned (its
        deleter committed, the deferred physical delete has not run yet)
        *revives* the entry in place: same locks as the no-boundary-change
        insert row, no geometry moves at all.

        ``on_applied`` fires the moment the tree is actually modified --
        the caller arms its undo action there, so an abort between the
        modification and the post-split locks still rolls the object back.
        """
        while True:
            self._yield("insert", ctx)
            with self.latch:
                located = self.tree.find_entry(oid, rect)
                if located is not None:
                    leaf_id, entry = located
                    wants: List[Want] = [
                        (ResourceId.leaf(leaf_id), IX, COMMIT),
                        (ResourceId.obj(oid), X, COMMIT),
                    ]
                    blocked = ctx.acquire_conditional(wants)
                    if blocked is None:
                        # The X lock settles the tombstone state: an active
                        # deleter would still hold its own X on the object.
                        if not entry.tombstone:
                            raise RTreeError(f"duplicate object id {oid!r}")
                        self.tree.set_tombstone(oid, rect, False, located)
                        if on_applied is not None:
                            on_applied()
                        return None, SMOReport(target_leaf=leaf_id)
                else:
                    plan = self.tree.plan_insert(rect)
                    wants = self._insert_wants(ctx, plan, oid, rect)
                    blocked = ctx.acquire_conditional(wants)
                    if blocked is None:
                        inherit_from = self._highest_inherited_ext(ctx, plan)
                        # The locate above found no entry for the object
                        # in this latch hold: the tree inserts along the plan.
                        report = self.tree.insert(oid, rect, plan)
                        if on_applied is not None:
                            on_applied()
                        post = self._post_insert_wants(ctx, plan, report, inherit_from)
                        break
            self._restart(ctx, blocked)
            ctx.wait_for(blocked)
        self._trace_report(ctx, report)
        # Post-mutation locks: taken outside the latch because they may
        # wait on transactions already active inside the granule.
        self._yield("insert.post", ctx)
        ctx.acquire_all(post)
        return plan, report

    def _insert_wants(
        self, ctx: OpContext, plan: InsertPlan, oid: ObjectId, rect: Rect
    ) -> List[Want]:
        wants: List[Want] = []
        leaf_res = ResourceId.leaf(plan.leaf_id)
        if plan.leaf_splits:
            # §3.5: a short SIX (not IX) on the granule about to split --
            # it conflicts with every other holder, so nobody's lock on g
            # can be orphaned by the split.
            wants.append((leaf_res, SIX, SHORT))
        else:
            # Cover-for-insert: one commit-duration IX on the granule that
            # will cover the object.
            wants.append((leaf_res, IX, COMMIT))
        wants.append((ResourceId.obj(oid), X, COMMIT))

        if self.policy is InsertionPolicy.NAIVE:
            # §3.2's naive strategy: nothing fences searchers that lose
            # coverage to granule growth.  Unsound by design (see policy
            # docs); used to reproduce the Figure 2/3 counterexamples.
            return wants

        # Policy-dependent short IX locks that fence old searchers (§3.3/§3.4).
        for ref in self._policy_overlap_set(ctx, plan, rect):
            if ref.resource == leaf_res:
                continue
            wants.append((ref.resource, IX, SHORT))

        # Short SIX on every external granule that will change (§3.3): no
        # transaction may be holding a lock on an external granule we are
        # about to deform.
        for page_id in plan.changed_external_parents:
            wants.append((ResourceId.ext(page_id), SIX, SHORT))
        return wants

    def _policy_overlap_set(
        self, ctx: OpContext, plan: InsertPlan, rect: Rect
    ) -> List[GranuleRef]:
        """The granules the insertion policy requires short IX locks on."""
        if self.policy is InsertionPolicy.ALL_PATHS:
            # Base protocol: all granules overlapping the inserted object.
            return self.granules.overlapping(rect)
        if not plan.changes_boundaries:
            # Modified policy, no boundary movement: no extra locks at all.
            return []
        # Modified policy: granules overlapping the region the target
        # granule grows into (new MBR minus old MBR).
        if plan.leaf_old_mbr is None:
            growth: Region | Rect = rect
        else:
            new_mbr = plan.leaf_old_mbr.union(rect)
            growth = Region.difference(new_mbr, [plan.leaf_old_mbr])
        refs = self.granules.overlapping(growth)
        if self.policy is InsertionPolicy.ON_GROWTH_ACTIVE_SEARCHERS:
            # Only fence granules that actually have a conflicting holder
            # (an active searcher); quiet paths cost nothing.  (The paper
            # proposes, but did not implement, additionally skipping the
            # page reads down quiet paths; we keep the traversal I/O and
            # save the locks.)
            refs = [
                ref
                for ref in refs
                if self.lm.has_conflicting_holder(ref.resource, IX, ignore=(ctx.txn_id,))
            ]
        return refs

    def _highest_inherited_ext(self, ctx: OpContext, plan: InsertPlan) -> Optional[int]:
        """Footnote (y) of Table 3: if the inserter itself holds a commit
        S lock on an external granule that is about to shrink, the
        growing/splitting granules must inherit that coverage.  Returns the
        index into ``plan.path_ids`` of the highest such ancestor."""
        highest: Optional[int] = None
        for page_id in plan.changed_external_parents:
            if self.lm.holds_covering(ctx.txn_id, ResourceId.ext(page_id), S, COMMIT):
                idx = plan.path_ids.index(page_id)
                if highest is None or idx < highest:
                    highest = idx
        return highest

    def _post_insert_wants(
        self,
        ctx: OpContext,
        plan: InsertPlan,
        report: SMOReport,
        inherit_from: Optional[int],
    ) -> List[Want]:
        wants: List[Want] = []
        holds = self.lm.holds_covering
        held_s_on_leaf = holds(ctx.txn_id, ResourceId.leaf(plan.leaf_id), S, COMMIT)

        for split in report.splits:
            if split.level == 0:
                # §3.5: after the leaf split, IX on both halves protects
                # the inserted object wherever it landed.
                wants.append((ResourceId.leaf(split.left_id), IX, COMMIT))
                wants.append((ResourceId.leaf(split.right_id), IX, COMMIT))
                if held_s_on_leaf:
                    # The inserter's own S coverage of g: SIX on both
                    # halves plus S on ext(parent) covers g's old extent.
                    parent = self.tree.node(split.left_id, count_io=False).parent_id
                    wants.append((ResourceId.leaf(split.left_id), SIX, COMMIT))
                    wants.append((ResourceId.leaf(split.right_id), SIX, COMMIT))
                    wants.append((ResourceId.ext(parent), S, COMMIT))
            else:
                # A non-leaf split replaces ext(N) by ext(N1), ext(N2); a
                # transaction holding S on ext(N) re-covers via both plus
                # ext(parent) (§3.5).
                if holds(ctx.txn_id, ResourceId.ext(split.old_id), S, COMMIT):
                    parent = self.tree.node(split.left_id, count_io=False).parent_id
                    wants.append((ResourceId.ext(split.left_id), S, COMMIT))
                    wants.append((ResourceId.ext(split.right_id), S, COMMIT))
                    wants.append((ResourceId.ext(parent), S, COMMIT))

        if inherit_from is not None:
            # The region the inserter lost from ext(P) is now covered by
            # the external granules of the path below P plus the leaf
            # granule; S locks there restore the coverage.
            for page_id in plan.path_ids[inherit_from + 1 : -1]:
                if self.tree.pager.exists(page_id):
                    wants.append((ResourceId.ext(page_id), S, COMMIT))
            for split in report.splits:
                if split.level == 0:
                    wants.append((ResourceId.leaf(split.left_id), S, COMMIT))
                    wants.append((ResourceId.leaf(split.right_id), S, COMMIT))
                    break
            else:
                if self.tree.pager.exists(plan.leaf_id):
                    wants.append((ResourceId.leaf(plan.leaf_id), S, COMMIT))
        return wants

    # ------------------------------------------------------------------
    # Logical delete (§3.6)
    # ------------------------------------------------------------------

    def logical_delete(
        self, ctx: OpContext, oid: ObjectId, rect: Rect
    ) -> Optional[PageId]:
        """Tombstone the object under commit IX on its granule + X on it.

        Returns the leaf page id, or ``None`` when the object does not
        exist -- in which case the deleter takes S locks on all granules
        overlapping the object, "just like a ReadScan with the object as
        the scan predicate", so nobody can insert it while we are active.
        """
        scanned_absent = False
        while True:
            self._yield("delete", ctx)
            blocked: Optional[Want] = None
            with self.latch:
                located = self.tree.find_entry(oid, rect)
                if located is not None:
                    leaf_id, entry = located
                    wants: List[Want] = [
                        (ResourceId.leaf(leaf_id), IX, COMMIT),
                        (ResourceId.obj(oid), X, COMMIT),
                    ]
                    blocked = ctx.acquire_conditional(wants)
                    if blocked is None:
                        if entry.tombstone:
                            # Logically deleted by a committed transaction
                            # whose physical delete has not run yet: the
                            # object does not logically exist.
                            located = None
                        else:
                            self.tree.set_tombstone(oid, rect, True, located)
                            return leaf_id
                if located is None and scanned_absent:
                    # The S locks from the previous iteration are held and
                    # the object (still) does not exist: done.
                    return None
            if blocked is not None:
                self._restart(ctx, blocked)
                ctx.wait_for(blocked)
                continue
            # Object absent: take S on all granules overlapping it ("just
            # like a ReadScan with the object as the scan predicate"), then
            # re-check -- somebody may have inserted it while we waited.
            self.lock_scan(ctx, rect)
            scanned_absent = True

    # ------------------------------------------------------------------
    # Deferred physical delete (§3.7) -- run by a maintenance transaction
    # ------------------------------------------------------------------

    def physical_delete(self, ctx: OpContext, oid: ObjectId, rect: Rect) -> Optional[SMOReport]:
        """Remove a (committed) tombstone from the tree, per Table 3's
        "Delete (Deferred)" row.  Returns ``None`` if the entry is gone."""
        while True:
            self._yield("physical_delete", ctx)
            with self.latch:
                plan = self.tree.plan_delete(oid, rect)
                if plan is None:
                    return None  # gone already
                entry = self.tree.node(plan.leaf_id, count_io=False).find_entry(oid)
                assert entry is not None
                if not entry.tombstone:
                    # *Revived* by a re-insertion of the same object after
                    # the deleter committed: nothing to reclaim.
                    return None
                wants: List[Want] = []
                leaf_res = ResourceId.leaf(plan.leaf_id)
                if plan.underflows:
                    # Node elimination destroys the granule: the SIX lock
                    # fences even IX holders (§3.7).
                    wants.append((leaf_res, SIX, SHORT))
                else:
                    wants.append((leaf_res, IX, SHORT))
                wants.append((ResourceId.obj(oid), X, COMMIT))
                for page_id in plan.changed_external_parents:
                    wants.append((ResourceId.ext(page_id), SIX, SHORT))
                # Table 3's "locks for reinsertion of orphan entries":
                # short IX on every granule overlapping an orphan's
                # rectangle fences scanners of those regions until every
                # orphan is back in the tree.
                for orphan_rect in plan.orphan_rects:
                    for ref in self.granules.overlapping(orphan_rect):
                        wants.append((ref.resource, IX, SHORT))
                blocked = ctx.acquire_conditional(wants)
                if blocked is None:
                    report = self.tree.delete(oid, rect, collect_orphans=True, plan=plan)
                    break
            self._restart(ctx, blocked)
            ctx.wait_for(blocked)
        # Trace the main modification now: the orphan re-insertions below
        # trace their own sub-reports before they are merged in.
        self._trace_report(ctx, report)

        # Re-insert every orphan under its own insert locks (§3.7: "similar
        # to an ordinary insert operation").  The short IX fences taken
        # above stay held until end_operation, so no scanner can observe
        # the tree while an orphan is out of it.  If a re-insertion lock
        # wait aborts this (maintenance) transaction, the remaining orphans
        # are put back structurally anyway -- losing committed data to a
        # deadlock in a cleanup pass is never acceptable; the IX fences
        # still shield the affected regions until end_operation.
        pending = list(report.orphans)
        try:
            while pending:
                entry, target_level = pending[0]
                sub = self._reinsert(ctx, entry, target_level)
                pending.pop(0)
                report.merge(sub)
        except BaseException:
            with self.latch:
                for entry, target_level in pending:
                    report.merge(self.tree.reinsert_entry(entry, target_level))
            report.orphans.clear()
            raise
        report.orphans.clear()
        return report

    def _reinsert(self, ctx: OpContext, entry, target_level: int) -> SMOReport:
        """One orphan re-insertion with ordinary insert locking (§3.7).

        Data entries (target level 0) take IX on the receiving granule;
        subtree entries take SIX on the receiving node's external granule
        (which shrinks as the new child carves into it).  No object X lock
        is taken -- the object's content is untouched, only its location
        changes.
        """
        while True:
            self._yield("reinsert", ctx)
            with self.latch:
                plan = self.tree.plan_insert(entry.rect, target_level=target_level)
                wants: List[Want] = []
                if target_level == 0:
                    target_res = ResourceId.leaf(plan.leaf_id)
                    wants.append((target_res, SIX if plan.leaf_splits else IX, SHORT))
                else:
                    target_res = ResourceId.ext(plan.leaf_id)
                    wants.append((target_res, SIX, SHORT))
                for ref in self._policy_overlap_set(ctx, plan, entry.rect):
                    if ref.resource != target_res:
                        wants.append((ref.resource, IX, SHORT))
                for page_id in plan.changed_external_parents:
                    wants.append((ResourceId.ext(page_id), SIX, SHORT))
                blocked = ctx.acquire_conditional(wants)
                if blocked is None:
                    report = self.tree.reinsert_entry(entry, target_level, plan)
                    post = self._post_insert_wants(ctx, plan, report, None)
                    break
            self._restart(ctx, blocked)
            ctx.wait_for(blocked)
        self._trace_report(ctx, report)
        if target_level > 0 and self.obs_sink is not None:
            # Child-entry re-insertions produce no ReinsertRecord (those
            # are data-entry-only); emit the event directly.
            self.obs_sink(
                "granule.reinsert",
                txn=ctx.txn_id,
                oid=None,
                target_page=plan.leaf_id,
                target_level=target_level,
            )
        self._yield("reinsert.post", ctx)
        ctx.acquire_all(post)
        return report
