"""Granule geometry across root replacement (§3.7).

The delicate case is **root replacement by node elimination**:
``_shrink_root`` frees the old root page and promotes an existing child
page into the root role *without writing the child's page*.  From then on
the promoted page's covered space is the whole universe, not its MBR.
Granule geometry once came from a per-page cache keyed by page version,
where the promotion was the hazard; the walk now computes the geometry
on every call, and these tests hold it to the same bar.  Answering with the child's old, non-root space would shrink
the root external granule and let inserts into dead space proceed
unfenced.

These tests drive trees through grow/shrink/regrow cycles -- at the raw
R-tree level and through the full transactional index with deferred
physical deletes -- and require, at every root transition, the index's
long-lived :class:`GranuleSet` to agree with geometry computed fresh by
``Region.difference``: its external regions, its walk and its coverage.
"""

import random
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhantomProtectedRTree
from repro.core.granules import GranuleSet
from repro.geometry import Rect, Region
from repro.lock.resource import ResourceId
from repro.rtree import RTree, RTreeConfig
from repro.stress.oracle import reference_overlapping

UNIT = Rect((0.0, 0.0), (1.0, 1.0))

# corners, edge midpoints and a spread of boxes: most lie in dead space
# outside a clustered tree's children, where only ext(root) covers them
PROBES: List[Rect] = [
    Rect.from_point((x, y)) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)
] + [
    Rect((x, y), (x + 0.1, y + 0.1)) for x in (0.0, 0.3, 0.6, 0.9) for y in (0.0, 0.45, 0.9)
] + [UNIT]


def regions_equal(a: Region, b: Region) -> bool:
    return a.subtract(b.parts).is_empty() and b.subtract(a.parts).is_empty()


def fresh_external_region(tree: RTree, node) -> Region:
    space = UNIT if node.page_id == tree.root_id else node.mbr()
    if space is None:
        return Region()
    return Region.difference(space, node.child_rects())


def assert_geometry_matches_fresh(gs: GranuleSet) -> None:
    tree = gs.tree
    for node in tree.iter_nodes():
        if not node.is_leaf:
            got = gs.external_region(node)
            want = fresh_external_region(tree, node)
            assert regions_equal(got, want), (
                f"stale external region for page {node.page_id} (root={tree.root_id})"
            )
    for probe in PROBES:
        assert gs.overlapping(probe) == reference_overlapping(gs, probe), (
            f"walk disagrees on {probe} (root={tree.root_id})"
        )


def assert_root_fences_dead_space(gs: GranuleSet) -> None:
    """Every probe point outside all of the root's children must map to
    the root's external granule (or, for a leaf root, the lone leaf
    granule that stands for the whole space)."""
    tree = gs.tree
    root = tree.root(count_io=False)
    want = ResourceId.leaf(root.page_id) if root.is_leaf else ResourceId.ext(root.page_id)
    for probe in PROBES:
        if not probe.is_degenerate():
            continue
        if root.is_leaf or not any(r.intersects(probe) for r in root.child_rects()):
            assert want in {ref.resource for ref in gs.overlapping(probe)}, (
                f"{probe} in dead space is not fenced by the root (root={tree.root_id})"
            )


def clustered_rect(rng: random.Random) -> Rect:
    # clustered so deletions collapse whole subtrees (forcing eliminations)
    x = rng.uniform(0.0, 0.9)
    y = rng.uniform(0.0, 0.9)
    return Rect((x, y), (min(1.0, x + 0.05), min(1.0, y + 0.05)))


def test_shrink_promotes_child_without_version_bump():
    """The precise hazard: after ``_shrink_root`` the promoted child keeps
    its page unwritten, yet its covered space must flip to the universe."""
    tree = RTree(RTreeConfig(max_entries=4, universe=UNIT))
    gs = GranuleSet(tree)
    rng = random.Random(7)
    objects = {}
    for oid in range(24):
        r = clustered_rect(rng)
        tree.insert(oid, r)
        objects[oid] = r
    assert tree.height >= 2
    old_root = tree.root_id

    # probe every node, the future root included, while it is still a
    # plain interior/leaf node
    assert_geometry_matches_fresh(gs)

    # delete until the root collapses onto a promoted child
    replaced = False
    for oid, r in list(objects.items()):
        tree.delete(oid, r)
        del objects[oid]
        if tree.root_id != old_root:
            replaced = True
            root_node = tree.root()
            if not root_node.is_leaf:
                assert regions_equal(
                    gs.external_region(root_node),
                    Region.difference(UNIT, root_node.child_rects()),
                )
            assert_geometry_matches_fresh(gs)
            assert_root_fences_dead_space(gs)
            old_root = tree.root_id
    assert replaced, "scenario never exercised a root replacement"


def run_root_cycle(seed: int) -> None:
    """Grow to height>=2, shrink to a leaf root, regrow -- checking the
    geometry at every step and requiring actual root replacements."""
    rng = random.Random(seed)
    tree = RTree(RTreeConfig(max_entries=4, universe=UNIT))
    gs = GranuleSet(tree)
    objects = {}
    next_oid = 0
    root_ids = {tree.root_id}

    for _ in range(30):
        r = clustered_rect(rng)
        tree.insert(next_oid, r)
        objects[next_oid] = r
        next_oid += 1
        root_ids.add(tree.root_id)
        assert_geometry_matches_fresh(gs)
    assert tree.height >= 2

    # tear it all down: every underflow/elimination on the way must keep
    # the geometry honest, through the final promotion to a leaf root
    for oid, r in sorted(objects.items()):
        tree.delete(oid, r)
        root_ids.add(tree.root_id)
        assert_geometry_matches_fresh(gs)
        assert_root_fences_dead_space(gs)
    objects.clear()
    assert tree.height == 1

    # regrow: the root role moves again (new pages this time)
    for _ in range(15):
        r = clustered_rect(rng)
        tree.insert(next_oid, r)
        objects[next_oid] = r
        next_oid += 1
        root_ids.add(tree.root_id)
        assert_geometry_matches_fresh(gs)
    assert len(root_ids) >= 3, "scenario never replaced the root"
    assert gs.coverage_leftover().is_empty()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_cache_across_root_replacement_cycles(seed):
    run_root_cycle(seed)


def test_cache_across_deferred_delete_root_collapse():
    """Through the full index: logical deletes + vacuum's physical deletes
    (§3.7 node elimination) collapse the root while the protocol keeps
    probing granule geometry through its long-lived granule set."""
    index = PhantomProtectedRTree(RTreeConfig(max_entries=4, universe=UNIT))
    rng = random.Random(11)
    objects = {}
    with index.transaction("grow") as txn:
        for oid in range(20):
            r = clustered_rect(rng)
            index.insert(txn, oid, r)
            objects[oid] = r
    assert index.tree.height >= 2
    old_root = index.tree.root_id
    assert_geometry_matches_fresh(index.granules)

    with index.transaction("shrink") as txn:
        for oid, r in sorted(objects.items()):
            index.delete(txn, oid, r)
    removed = index.vacuum()
    assert removed == len(objects)
    assert index.tree.root_id != old_root or index.tree.height == 1

    assert_geometry_matches_fresh(index.granules)
    assert_root_fences_dead_space(index.granules)
    assert index.granules.coverage_leftover().is_empty()

    # regrow through the protocol and re-verify
    with index.transaction("regrow") as txn:
        for oid in range(100, 115):
            index.insert(txn, oid, clustered_rect(rng))
    assert_geometry_matches_fresh(index.granules)
    assert_root_fences_dead_space(index.granules)
    assert index.granules.coverage_leftover().is_empty()
