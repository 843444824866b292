"""The whole stack is dimension-generic: 1-D, 3-D and 4-D smoke tests.

The paper develops the protocol for 2-D figures but nothing in it is
dimension-specific; neither is this implementation.  These tests run the
full transactional stack in other dimensionalities.
"""

import random

import pytest

from repro.core import PhantomProtectedRTree
from repro.geometry import Rect
from repro.rtree import RTree, RTreeConfig, validate_tree


def make_universe(dim):
    return Rect([0.0] * dim, [1.0] * dim)


def random_box(rng, dim, extent=0.05):
    lo = [rng.random() * (1 - extent) for _ in range(dim)]
    hi = [v + rng.random() * extent for v in lo]
    return Rect(lo, hi)


@pytest.mark.parametrize("dim", [1, 3, 4])
class TestNDimensional:
    def test_rtree_roundtrip(self, dim):
        rng = random.Random(dim)
        tree = RTree(RTreeConfig(max_entries=6, universe=make_universe(dim)))
        objects = {i: random_box(rng, dim) for i in range(300)}
        for oid, rect in objects.items():
            tree.insert(oid, rect)
        validate_tree(tree)
        probe = random_box(rng, dim, extent=0.4)
        got = sorted(e.oid for e in tree.search(probe))
        want = sorted(oid for oid, r in objects.items() if r.intersects(probe))
        assert got == want
        for oid in list(objects)[:150]:
            tree.delete(oid, objects.pop(oid))
        validate_tree(tree)

    def test_granules_cover_space(self, dim):
        rng = random.Random(dim + 10)
        index = PhantomProtectedRTree(
            RTreeConfig(max_entries=5, universe=make_universe(dim))
        )
        with index.transaction() as txn:
            for i in range(150):
                index.insert(txn, i, random_box(rng, dim))
        assert index.granules.loose_entries() == []
        if dim < 4:
            # The global subtraction's cost explodes with the dimension
            # (tens of seconds in 4-D); the local check above is exact.
            assert index.granules.coverage_leftover().is_empty()

    def test_transactional_scan_protocol(self, dim):
        rng = random.Random(dim + 20)
        index = PhantomProtectedRTree(
            RTreeConfig(max_entries=5, universe=make_universe(dim))
        )
        objects = {i: random_box(rng, dim) for i in range(120)}
        with index.transaction() as txn:
            for oid, rect in objects.items():
                index.insert(txn, oid, rect)
        probe = random_box(rng, dim, extent=0.5)
        with index.transaction() as txn:
            result = index.read_scan(txn, probe)
            assert result.locks_taken, "scan must take granule locks"
        want = sorted(str(oid) for oid, r in objects.items() if r.intersects(probe))
        assert sorted(map(str, result.oids)) == want

    def test_deletes_and_vacuum(self, dim):
        rng = random.Random(dim + 30)
        index = PhantomProtectedRTree(
            RTreeConfig(max_entries=5, universe=make_universe(dim))
        )
        objects = {i: random_box(rng, dim) for i in range(100)}
        with index.transaction() as txn:
            for oid, rect in objects.items():
                index.insert(txn, oid, rect)
        with index.transaction() as txn:
            for oid in list(objects)[:60]:
                index.delete(txn, oid, objects[oid])
        assert index.vacuum() == 60
        validate_tree(index.tree)
        assert index.tree.size == 40
