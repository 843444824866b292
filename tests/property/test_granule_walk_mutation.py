"""Granule geometry after random mutation sequences.

Granule geometry once came from a per-page cache; the walk now computes
it on every call, and this test holds the long-lived
:class:`GranuleSet` of one tree to the same obligation: after
*any* interleaving of inserts, deletes, splits and root growth/shrink,
its external regions equal a fresh ``Region.difference``, its walk
equals the reference walk and its granules cover the universe.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.granules import GranuleSet
from repro.geometry import Rect, Region
from repro.rtree import RTree, RTreeConfig
from repro.stress.oracle import reference_overlapping

UNIT = Rect((0.0, 0.0), (1.0, 1.0))


def regions_equal(a: Region, b: Region) -> bool:
    """Geometric (not representational) equality: symmetric difference
    is empty.  The two sides may tile the same set differently."""
    return a.subtract(b.parts).is_empty() and b.subtract(a.parts).is_empty()


def assert_geometry_matches_fresh(gs: GranuleSet, rng: random.Random) -> None:
    tree = gs.tree
    for node in tree.iter_nodes():
        if node.is_leaf:
            continue
        space = UNIT if node.page_id == tree.root_id else node.mbr()
        got = gs.external_region(node)
        want = Region.difference(space, node.child_rects())
        assert regions_equal(got, want), (
            f"wrong external region for page {node.page_id}: {got.parts} != {want.parts}"
        )
    for _ in range(6):
        probe = random_rect(rng, spread=0.4)
        assert gs.overlapping(probe) == reference_overlapping(gs, probe), probe


def random_rect(rng: random.Random, spread: float = 0.08) -> Rect:
    x = rng.uniform(0.0, 0.95)
    y = rng.uniform(0.0, 0.95)
    return Rect(
        (x, y), (min(1.0, x + rng.uniform(0, spread)), min(1.0, y + rng.uniform(0, spread)))
    )


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cached_external_regions_match_fresh_difference(seed):
    """Hypothesis-driven: ``external_region`` and the walk agree with a
    fresh ``Region.difference`` after every random mutation."""
    rng = random.Random(seed)
    tree = RTree(RTreeConfig(max_entries=4, universe=UNIT))
    gs = GranuleSet(tree)
    model = {}
    next_oid = 0
    for _ in range(40):
        if model and rng.random() < 0.4:
            oid = rng.choice(list(model))
            tree.delete(oid, model.pop(oid))
        else:
            r = random_rect(rng)
            tree.insert(next_oid, r)
            model[next_oid] = r
            next_oid += 1
        assert_geometry_matches_fresh(gs, rng)
        assert gs.coverage_leftover().is_empty()
