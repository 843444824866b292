"""One locate per single-object operation.

The protocol locates an object (one object-directory probe plus the leaf
read) or plans its path (ChooseLeaf, or the delete path: the locate plus
the leaf's parent pointers) under the structure latch; the structure
modification then reuses that locate instead of searching again.  These
tests pin the page fetches (``logical_reads``) of each search run on its
own, check that an operation spends exactly those, and check that a plan
the tree moved under is refused.
"""

import pytest

from repro.core import PhantomProtectedRTree
from repro.rtree.tree import RTree, RTreeConfig, RTreeError

from tests.conftest import UNIT, random_objects, rect


def build_index() -> PhantomProtectedRTree:
    index = PhantomProtectedRTree(RTreeConfig(max_entries=8, universe=UNIT))
    with index.transaction() as txn:
        for oid, r in random_objects(300, seed=5):
            index.insert(txn, oid, r)
    return index


def reads(index: PhantomProtectedRTree, action) -> int:
    before = index.stats.logical_reads
    action()
    return index.stats.logical_reads - before


def roomy_leaf(tree: RTree):
    """A leaf with room for one more entry and a non-degenerate MBR."""
    return next(
        leaf
        for leaf in tree.iter_leaves()
        if len(leaf.entries) < tree.config.max_entries and leaf.mbr().area() > 0
    )


class TestOneLocate:
    def test_fresh_insert_reads_one_findleaf_and_one_chooseleaf(self):
        index = build_index()
        tree = index.tree
        (lo_x, hi_x), (lo_y, hi_y) = roomy_leaf(tree).mbr()
        cx, cy = (lo_x + hi_x) / 2, (lo_y + hi_y) / 2
        obj = rect(cx, cy, cx + (hi_x - lo_x) / 10, cy + (hi_y - lo_y) / 10)
        oid = 10_000
        findleaf = reads(index, lambda: tree.find_entry(oid, obj))
        holder = []
        chooseleaf = reads(index, lambda: holder.append(tree.plan_insert(obj)))
        (plan,) = holder
        # no boundary moves, so the on-growth policy adds no granule walk
        assert not plan.changes_boundaries and not plan.leaf_splits
        assert findleaf == 1  # the directory probe finds no entry
        assert chooseleaf == tree.height

        with index.transaction() as txn:
            spent = reads(index, lambda: index.insert(txn, oid, obj))
        assert spent == findleaf + chooseleaf
        assert tree.find_entry(oid, obj) is not None

    def test_found_logical_delete_reads_one_findleaf(self):
        index = build_index()
        oid, r = random_objects(300, seed=5)[123]
        findleaf = reads(index, lambda: index.tree.find_entry(oid, r))
        assert findleaf == 2  # the directory probe and the leaf
        with index.transaction() as txn:
            holder = []
            spent = reads(index, lambda: holder.append(index.delete(txn, oid, r)))
        assert holder[0].found
        assert spent == findleaf
        assert index.tree.find_entry(oid, r)[1].tombstone

    def test_deferred_physical_delete_runs_one_path_search(self):
        index = build_index()
        tree = index.tree
        # a leaf that keeps its minimum fill: no elimination, no orphans
        leaf = next(l for l in tree.iter_leaves() if len(l.entries) > tree.config.min_entries)
        victim = leaf.entries[0]
        with index.transaction() as txn:
            assert index.delete(txn, victim.oid, victim.rect).found
        holder = []
        path_search = reads(index, lambda: holder.append(tree.plan_delete(victim.oid, victim.rect)))
        assert not holder[0].underflows and not holder[0].orphan_rects
        # the locate, then one parent pointer per level above the leaf
        assert path_search == 1 + tree.height

        spent = reads(index, index.vacuum)
        assert spent == path_search
        assert tree.find_entry(victim.oid, victim.rect) is None


class TestPlanGuards:
    def make_tree(self) -> RTree:
        tree = RTree(RTreeConfig(max_entries=6, universe=UNIT))
        for oid, r in random_objects(80, seed=2):
            tree.insert(oid, r)
        return tree

    def test_stale_insert_plan_is_refused(self):
        tree = self.make_tree()
        obj = rect(0.5, 0.5, 0.51, 0.51)
        plan = tree.plan_insert(obj)
        tree.pager.write(plan.path_ids[-1])  # a page-version bump
        assert not tree.plan_is_current(plan.versions)
        size = tree.size
        with pytest.raises(RTreeError, match="stale plan"):
            tree.insert(999, obj, plan)
        assert tree.size == size
        assert tree.find_entry(999, obj) is None

    def test_stale_delete_plan_is_refused(self):
        tree = self.make_tree()
        oid, r = random_objects(80, seed=2)[7]
        plan = tree.plan_delete(oid, r)
        tree.pager.write(plan.path_ids[0])
        with pytest.raises(RTreeError, match="stale plan"):
            tree.delete(oid, r, plan=plan)
        assert tree.find_entry(oid, r) is not None

    def test_plan_for_another_rectangle_is_refused(self):
        tree = self.make_tree()
        plan = tree.plan_insert(rect(0.1, 0.1, 0.2, 0.2))
        with pytest.raises(RTreeError):
            tree.insert(999, rect(0.8, 0.8, 0.9, 0.9), plan)

    def test_stale_locate_is_refused(self):
        tree = self.make_tree()
        oid, r = random_objects(80, seed=2)[3]
        leaf_id, entry = tree.find_entry(oid, r)
        other = next(l.page_id for l in tree.iter_leaves() if l.page_id != leaf_id)
        with pytest.raises(RTreeError, match="stale locate"):
            tree.set_tombstone(oid, r, True, (other, entry))
        assert not entry.tombstone

    def test_public_insert_still_rejects_a_duplicate_oid(self):
        tree = self.make_tree()
        oid, r = random_objects(80, seed=2)[0]
        with pytest.raises(RTreeError, match="duplicate"):
            tree.insert(oid, r)
