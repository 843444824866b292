"""One traversal per scan: a ReadScan or UpdateScan reads each non-leaf
node once (the granule walk) and then only the leaves it locked, and
wrong-dimension rectangles are rejected where they enter."""

import pytest

from repro.baselines import ObjectLockIndex, PredicateLockIndex, TreeLockIndex
from repro.core import PhantomProtectedRTree
from repro.geometry import Rect
from repro.lock.resource import Namespace
from repro.rtree.bulk import load_many
from repro.rtree.tree import RTree, RTreeConfig
from repro.storage import BufferPool, PageManager

from tests.conftest import UNIT, random_objects


def _walk_interior(tree: RTree, predicate: Rect) -> int:
    """Non-leaf nodes the granule walk visits, counted without I/O."""
    visited = 0
    stack = [tree.pager.peek(tree.root_id).payload]
    while stack:
        node = stack.pop()
        visited += 1
        if node.level > 1:
            stack.extend(
                tree.pager.peek(e.child_id).payload
                for e in node.entries
                if e.rect.intersects(predicate)
            )
    return visited


def _leaf_granules_locked(result) -> int:
    return len({r for r, _mode, _dur in result.locks_taken if r.namespace is Namespace.LEAF})


@pytest.fixture
def index():
    pager = PageManager(buffer_pool=BufferPool(capacity=100_000))
    idx = PhantomProtectedRTree(RTreeConfig(max_entries=6, universe=UNIT), pager=pager)
    load_many(idx.tree, random_objects(800, seed=5, extent=0.03))
    assert idx.tree.height >= 4
    return idx


PREDICATES = [
    Rect((0.2, 0.3), (0.45, 0.5)),
    Rect((0.0, 0.0), (1.0, 1.0)),
    Rect.from_point((0.61, 0.37)),
]


@pytest.mark.parametrize("predicate", PREDICATES)
def test_read_scan_reads_walk_plus_locked_leaves(index, predicate):
    txn = index.begin()
    before = index.stats.logical_reads
    result = index.read_scan(txn, predicate)
    fetched = index.stats.logical_reads - before
    index.commit(txn)
    assert fetched == _walk_interior(index.tree, predicate) + _leaf_granules_locked(result)


@pytest.mark.parametrize("predicate", PREDICATES)
def test_update_scan_reads_walk_plus_locked_leaves(index, predicate):
    txn = index.begin()
    before = index.stats.logical_reads
    result = index.update_scan(txn, predicate, lambda oid, rect, old: "u")
    fetched = index.stats.logical_reads - before
    index.commit(txn)
    assert fetched == _walk_interior(index.tree, predicate) + _leaf_granules_locked(result)


class TestDimensionChecks:
    CUBE = Rect((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))

    @pytest.mark.parametrize(
        "call",
        [
            lambda tree, r: tree.search(r),
            lambda tree, r: tree.find_entry("a", r),
            lambda tree, r: tree.overlapping_leaf_ids(r),
            lambda tree, r: tree.plan_insert(r),
            lambda tree, r: tree.plan_delete("a", r),
            lambda tree, r: tree.delete("a", r),
        ],
        ids=["search", "find_entry", "overlapping_leaf_ids", "plan_insert", "plan_delete", "delete"],
    )
    def test_rtree_entry_points_reject_wrong_dimension(self, call):
        tree = RTree(RTreeConfig(max_entries=4, universe=UNIT))
        tree.insert("a", Rect((0.1, 0.1), (0.2, 0.2)))
        with pytest.raises(ValueError, match="dimension"):
            call(tree, self.CUBE)
        assert tree.find_entry("a", Rect((0.1, 0.1), (0.2, 0.2))) is not None

    @pytest.mark.parametrize("cls", [TreeLockIndex, PredicateLockIndex, ObjectLockIndex])
    @pytest.mark.parametrize(
        "call",
        [
            lambda idx, txn, r: idx.delete(txn, "a", r),
            lambda idx, txn, r: idx.read_single(txn, "a", r),
            lambda idx, txn, r: idx.update_single(txn, "a", r, None),
            lambda idx, txn, r: idx.read_scan(txn, r),
        ],
        ids=["delete", "read_single", "update_single", "read_scan"],
    )
    def test_baseline_operations_reject_wrong_dimension(self, cls, call):
        # The 3-D rect agrees with the stored 2-D one on its first two
        # axes, so only a dimension check stops a lookup from matching it.
        stored = Rect((0.1, 0.1), (0.2, 0.2))
        idx = cls(RTreeConfig(max_entries=4, universe=UNIT))
        with idx.transaction() as txn:
            idx.insert(txn, "a", stored)
        txn = idx.begin()
        with pytest.raises(ValueError, match="dimension"):
            call(idx, txn, Rect((0.1, 0.1, 0.0), (0.2, 0.2, 1.0)))
        idx.abort(txn)
        assert [e.oid for e in idx.tree.search(stored)] == ["a"]

    @pytest.mark.parametrize(
        "call",
        [
            lambda idx, txn, r: idx.read_scan(txn, r),
            lambda idx, txn, r: idx.update_scan(txn, r, lambda *a: None),
            lambda idx, txn, r: idx.insert(txn, "z", r),
            lambda idx, txn, r: idx.delete(txn, "a", r),
            lambda idx, txn, r: idx.read_single(txn, "a", r),
            lambda idx, txn, r: idx.update_single(txn, "a", r, None),
        ],
        ids=["read_scan", "update_scan", "insert", "delete", "read_single", "update_single"],
    )
    def test_index_operations_reject_wrong_dimension(self, call):
        idx = PhantomProtectedRTree(RTreeConfig(max_entries=4, universe=UNIT))
        with idx.transaction() as txn:
            for oid, r in random_objects(20, seed=1):
                idx.insert(txn, oid, r)
        txn = idx.begin()
        with pytest.raises(ValueError, match="dimension"):
            call(idx, txn, self.CUBE)
        assert txn.is_active
        idx.commit(txn)
