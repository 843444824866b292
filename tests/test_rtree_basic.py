"""Unit tests for R-tree construction, search and structural invariants."""

import random

import pytest

from repro.geometry import Rect
from repro.rtree import RTree, RTreeConfig, validate_tree
from repro.rtree.tree import RTreeError

from tests.conftest import random_objects, rect


class TestConfig:
    def test_min_entries_derived(self):
        cfg = RTreeConfig(max_entries=10)
        assert cfg.min_entries == 4  # 40%

    def test_explicit_min_entries(self):
        cfg = RTreeConfig(max_entries=10, min_entries=5)
        assert cfg.min_entries == 5

    def test_min_over_half_rejected(self):
        with pytest.raises(ValueError):
            RTreeConfig(max_entries=10, min_entries=6)

    def test_tiny_fanout_rejected(self):
        with pytest.raises(ValueError):
            RTreeConfig(max_entries=3)

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError):
            RTreeConfig(max_entries=8, split_algorithm="bogus")


class TestInsertSearch:
    def test_empty_tree(self, unit_config):
        tree = RTree(unit_config)
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.search(Rect((0, 0), (1, 1))) == []

    def test_single_insert(self, unit_config):
        tree = RTree(unit_config)
        r = Rect((0.1, 0.1), (0.2, 0.2))
        report = tree.insert("a", r)
        assert report.target_leaf == tree.root_id
        assert len(tree) == 1
        assert [e.oid for e in tree.search(r)] == ["a"]

    def test_duplicate_oid_rejected(self, unit_config):
        tree = RTree(unit_config)
        r = Rect((0.1, 0.1), (0.2, 0.2))
        tree.insert("a", r)
        with pytest.raises(RTreeError, match="duplicate"):
            tree.insert("a", r)

    def test_dimension_mismatch_rejected(self, unit_config):
        tree = RTree(unit_config)
        with pytest.raises(RTreeError, match="dimension"):
            tree.insert("a", Rect((0, 0, 0), (1, 1, 1)))

    def test_root_split_grows_height(self, small_config):
        tree = RTree(small_config)
        for i in range(5):
            tree.insert(i, rect(i, i, i + 0.5, i + 0.5))
        assert tree.height == 2
        validate_tree(tree)

    @pytest.mark.parametrize("split", ["quadratic", "linear", "rstar", "greene"])
    def test_search_matches_brute_force(self, split):
        cfg = RTreeConfig(max_entries=6, split_algorithm=split)
        tree = RTree(cfg)
        objects = random_objects(400, seed=5)
        for oid, r in objects:
            tree.insert(oid, r)
        validate_tree(tree)
        rng = random.Random(9)
        for _ in range(25):
            x, y = rng.random() * 0.8, rng.random() * 0.8
            q = Rect((x, y), (x + 0.2, y + 0.2))
            got = sorted(e.oid for e in tree.search(q))
            want = sorted(oid for oid, r in objects if r.intersects(q))
            assert got == want

    def test_point_query(self, unit_config):
        tree = RTree(unit_config)
        tree.insert("a", Rect((0.2, 0.2), (0.4, 0.4)))
        tree.insert("b", Rect((0.5, 0.5), (0.7, 0.7)))
        assert [e.oid for e in tree.search_point((0.3, 0.3))] == ["a"]
        assert tree.search_point((0.45, 0.45)) == []

    def test_find_entry(self, unit_config):
        tree = RTree(unit_config)
        objects = random_objects(100, seed=1)
        for oid, r in objects:
            tree.insert(oid, r)
        for oid, r in objects[::10]:
            located = tree.find_entry(oid, r)
            assert located is not None
            assert located[1].oid == oid
        assert tree.find_entry("missing", Rect((0, 0), (1, 1))) is None

    def test_growth_records_reported(self, unit_config):
        tree = RTree(unit_config)
        tree.insert(0, Rect((0.4, 0.4), (0.5, 0.5)))
        report = tree.insert(1, Rect((0.1, 0.1), (0.2, 0.2)))
        leaf_growth = report.grown_leaf_record()
        assert leaf_growth is not None
        assert leaf_growth.grew
        assert report.changed_boundaries

    def test_no_boundary_change_inside_granule(self, unit_config):
        tree = RTree(unit_config)
        tree.insert(0, Rect((0.0, 0.0), (0.9, 0.9)))
        report = tree.insert(1, Rect((0.3, 0.3), (0.4, 0.4)))
        assert not report.changed_boundaries

    def test_index_entry_rects_tight_after_many_inserts(self):
        cfg = RTreeConfig(max_entries=5)
        tree = RTree(cfg)
        for oid, r in random_objects(300, seed=3):
            tree.insert(oid, r)
        validate_tree(tree)  # includes tight-MBR check


class TestOverlappingLeafIds:
    def test_reads_stop_above_leaves(self, unit_config):
        tree = RTree(unit_config)
        for oid, r in random_objects(300, seed=4):
            tree.insert(oid, r)
        assert tree.height >= 3
        read_ids = []
        real_read = tree.pager.read

        def read(page_id):
            read_ids.append(page_id)
            return real_read(page_id)

        tree.pager.read = read
        ids = tree.overlapping_leaf_ids(Rect((0.4, 0.4), (0.6, 0.6)))
        assert ids and read_ids
        # no leaf page may have been read: leaf overlap is decided one up
        assert not [pid for pid in read_ids if tree.pager.peek(pid).payload.is_leaf]

    def test_ids_match_leaf_geometry(self, unit_config):
        tree = RTree(unit_config)
        for oid, r in random_objects(300, seed=4):
            tree.insert(oid, r)
        q = Rect((0.1, 0.1), (0.3, 0.3))
        ids = set(tree.overlapping_leaf_ids(q))
        expected = {
            leaf.page_id
            for leaf in tree.iter_leaves()
            if leaf.mbr() is not None and leaf.mbr().intersects(q)
        }
        assert ids == expected


class TestNodeReads:
    def test_counted_read_is_one_logical_read(self, unit_config):
        tree = RTree(unit_config)
        for oid, r in random_objects(100, seed=5):
            tree.insert(oid, r)
        leaf = next(tree.iter_leaves())
        tree.pager.stats.reset()
        assert tree.node(leaf.page_id) is leaf
        assert tree.pager.stats.logical_reads == 1
        assert tree.node(leaf.page_id, count_io=False) is leaf
        assert tree.pager.stats.logical_reads == 1

    def test_counted_read_does_not_look_up_the_root(self, unit_config):
        # a counted read fetches its own page and nothing else: no peek
        # at the root to work out the tree height
        tree = RTree(unit_config)
        for oid, r in random_objects(100, seed=5):
            tree.insert(oid, r)
        leaf = next(tree.iter_leaves())
        peeked = []
        real_peek = tree.pager.peek

        def peek(page_id):
            peeked.append(page_id)
            return real_peek(page_id)

        tree.pager.peek = peek
        tree.node(leaf.page_id)
        assert peeked == []
