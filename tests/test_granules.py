"""Unit tests for granule geometry (§3.1)."""

import random

import pytest

from repro.core.granules import GranuleSet
from repro.geometry import Rect, Region
from repro.lock.resource import Namespace
from repro.rtree import RTree, RTreeConfig

from tests.conftest import TEN, build_manual_tree, random_objects, rect


def two_leaf_tree():
    cfg = RTreeConfig(max_entries=4, universe=TEN)
    return build_manual_tree(
        cfg,
        leaves=[
            [("a", rect(1, 1, 2, 2)), ("b", rect(3, 3, 4, 4))],  # BR (1,1)-(4,4)
            [("c", rect(6, 6, 7, 7)), ("d", rect(8, 8, 9, 9))],  # BR (6,6)-(9,9)
        ],
    )


class TestExternalRegion:
    def test_root_external_extends_to_universe(self):
        tree, names = two_leaf_tree()
        gs = GranuleSet(tree)
        root = tree.node(names["root"], count_io=False)
        ext = gs.external_region(root)
        # = universe minus the two leaf BRs
        assert ext.area() == pytest.approx(100 - 9 - 9)
        assert ext.contains_point((5, 5))
        assert not ext.contains_point((1.5, 1.5))

    def test_non_root_external_is_within_own_mbr(self):
        cfg = RTreeConfig(max_entries=4, universe=TEN)
        tree, names = build_manual_tree(
            cfg,
            leaves=[
                [("a", rect(0, 0, 1, 1))],
                [("b", rect(2, 2, 3, 3))],
                [("c", rect(7, 7, 8, 8))],
                [("d", rect(9, 9, 10, 10))],
            ],
            grouping=[[0, 1], [2, 3]],
        )
        gs = GranuleSet(tree)
        mid = tree.node(names["mid0"], count_io=False)
        ext = gs.external_region(mid)
        # mid0 space is (0,0)-(3,3); minus leaves
        assert ext.area() == pytest.approx(9 - 1 - 1)
        assert ext.contains_point((1.5, 0.5))
        assert not ext.contains_point((5, 5))  # outside mid0's space


class TestOverlapping:
    def test_predicate_inside_one_leaf(self):
        tree, names = two_leaf_tree()
        gs = GranuleSet(tree)
        refs = gs.overlapping(rect(1.2, 1.2, 1.8, 1.8))
        assert [(r.resource.namespace, r.page_id) for r in refs] == [
            (Namespace.LEAF, names["leaf0"])
        ]

    def test_predicate_in_dead_space_hits_only_external(self):
        tree, names = two_leaf_tree()
        gs = GranuleSet(tree)
        refs = gs.overlapping(rect(4.5, 0.5, 5.5, 1.5))
        assert [(r.resource.namespace, r.page_id) for r in refs] == [
            (Namespace.EXT, names["root"])
        ]

    def test_predicate_spanning_everything(self):
        tree, names = two_leaf_tree()
        gs = GranuleSet(tree)
        refs = gs.overlapping(rect(0, 0, 10, 10))
        kinds = {(r.resource.namespace, r.page_id) for r in refs}
        assert kinds == {
            (Namespace.LEAF, names["leaf0"]),
            (Namespace.LEAF, names["leaf1"]),
            (Namespace.EXT, names["root"]),
        }

    def test_point_predicate_on_dead_space(self):
        tree, names = two_leaf_tree()
        gs = GranuleSet(tree)
        refs = gs.overlapping(Rect.from_point((5.0, 5.0)))
        assert [(r.resource.namespace, r.page_id) for r in refs] == [
            (Namespace.EXT, names["root"])
        ]

    def test_region_predicate(self):
        tree, names = two_leaf_tree()
        gs = GranuleSet(tree)
        region = Region([rect(1.2, 1.2, 1.5, 1.5), rect(8.2, 8.2, 8.5, 8.5)])
        refs = gs.overlapping(region)
        pages = {r.page_id for r in refs}
        assert pages == {names["leaf0"], names["leaf1"]}

    def test_single_leaf_root_tree(self):
        tree = RTree(RTreeConfig(max_entries=4, universe=TEN))
        tree.insert("a", rect(1, 1, 2, 2))
        gs = GranuleSet(tree)
        refs = gs.overlapping(rect(8, 8, 9, 9))
        # degenerate tree: the lone leaf granule stands for all of space
        assert len(refs) == 1 and refs[0].is_leaf


class TestCovering:
    def test_cover_plus_rest_equals_overlapping(self):
        tree, _ = two_leaf_tree()
        gs = GranuleSet(tree)
        predicate = rect(0, 0, 10, 10)
        cover, rest = gs.covering(predicate)
        all_refs = gs.overlapping(predicate)
        assert {r.resource for r in cover} | {r.resource for r in rest} == {
            r.resource for r in all_refs
        }
        assert not ({r.resource for r in cover} & {r.resource for r in rest})

    def test_cover_geometrically_covers_predicate(self):
        tree, _ = two_leaf_tree()
        gs = GranuleSet(tree)
        predicate = rect(1.5, 1.5, 7.5, 7.5)
        cover, _rest = gs.covering(predicate)
        remaining = Region.from_rect(predicate)
        for ref in cover:
            node = tree.node(ref.page_id, count_io=False)
            if ref.is_leaf:
                remaining = remaining.subtract([node.mbr()])
            else:
                remaining = remaining.subtract(gs.external_region(node).parts)
        assert remaining.is_empty()

    def test_interior_predicate_needs_single_granule(self):
        tree, names = two_leaf_tree()
        gs = GranuleSet(tree)
        cover, rest = gs.covering(rect(1.1, 1.1, 1.4, 1.4))
        assert [r.page_id for r in cover] == [names["leaf0"]]
        assert rest == []


class TestCoverageInvariant:
    def test_manual_tree_tiles_universe(self):
        tree, _ = two_leaf_tree()
        gs = GranuleSet(tree)
        assert gs.coverage_leftover().is_empty()

    @pytest.mark.parametrize("n", [0, 1, 10, 200, 800])
    def test_grown_tree_tiles_universe(self, n):
        tree = RTree(RTreeConfig(max_entries=5))
        for oid, r in random_objects(n, seed=n):
            tree.insert(oid, r)
        gs = GranuleSet(tree)
        assert gs.coverage_leftover().is_empty()
        assert gs.loose_entries() == []

    def test_coverage_after_deletions(self):
        tree = RTree(RTreeConfig(max_entries=5))
        objects = random_objects(300, seed=4)
        for oid, r in objects:
            tree.insert(oid, r)
        for oid, r in objects[:200]:
            tree.delete(oid, r)
        gs = GranuleSet(tree)
        assert gs.coverage_leftover().is_empty()
        assert gs.loose_entries() == []

    def test_granule_count(self):
        tree, _ = two_leaf_tree()
        gs = GranuleSet(tree)
        assert gs.granule_count() == (2, 1)

    def test_local_check_flags_what_the_global_check_flags(self):
        """Loosen one non-leaf entry past its child's MBR: the node-local
        check flags every such tree, so in particular every one whose
        loosening the global subtraction finds as a gap."""
        global_flags = 0
        for seed in range(30):
            rng = random.Random(seed)
            tree = RTree(RTreeConfig(max_entries=4))
            for oid, r in random_objects(60, seed=seed, extent=0.1):
                tree.insert(oid, r)
            gs = GranuleSet(tree)
            assert gs.loose_entries() == [] and gs.coverage_leftover().is_empty()
            node = rng.choice([n for n in tree.iter_nodes() if not n.is_leaf])
            i = rng.randrange(len(node.entries))
            entry = node.entries[i]
            old = entry.rect
            lo = [max(0.0, v - 0.2 * rng.random()) for v in old.lo]
            hi = [min(1.0, v + 0.2 * rng.random()) for v in old.hi]
            node.set_child_rect(entry.child_id, Rect(lo, hi))
            assert entry.rect != old
            if not gs.coverage_leftover().is_empty():
                global_flags += 1
            assert gs.loose_entries() == [(node.page_id, node.entries[i].rect)]
        assert global_flags > 0, "no loosening opened a gap the global check sees"

    def test_root_entry_outside_the_universe_is_flagged(self):
        tree = RTree(RTreeConfig(max_entries=4))
        for oid, r in random_objects(20, seed=1):
            tree.insert(oid, r)
        tree.insert("out", rect(0.9, 0.9, 1.5, 1.5))
        root = tree.root(count_io=False)
        (entry,) = [e for e in root.entries if e.rect.hi[0] > 1.0]
        assert GranuleSet(tree).loose_entries() == [(root.page_id, entry.rect)]
