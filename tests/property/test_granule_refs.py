"""The granule walk hands out one :class:`GranuleRef` per page and kind.

A ref is built on a page's first walk and handed out again on every
later one.  After random inserts, deletes and vacuum passes (splits, root
growth, node elimination and root shrink all happen), every ref that
``overlapping()`` and ``covering()`` return must equal a freshly built
ref for the page's *current* level, and two walks in a row must return
the very same objects.  The pager never recycles a page id, so a freed
page's ref can only go unused, never stale.
"""

import random

import pytest

from repro.core import PhantomProtectedRTree
from repro.core.granules import GranuleRef
from repro.geometry import Rect
from repro.lock.resource import ResourceId
from repro.rtree.tree import RTreeConfig


def _box(rng: random.Random, dim: int, max_side: float) -> Rect:
    lo, hi = [], []
    for _ in range(dim):
        side = rng.random() * max_side
        start = rng.random() * (1.0 - side)
        lo.append(start)
        hi.append(start + side)
    return Rect(lo, hi)


def _fresh(tree, ref: GranuleRef) -> GranuleRef:
    pid = ref.page_id
    is_leaf = tree.pager.peek(pid).payload.is_leaf
    name = ResourceId.leaf(pid) if is_leaf else ResourceId.ext(pid)
    return GranuleRef(name, is_leaf, pid)


def _check_refs(index, rng: random.Random, dim: int) -> None:
    granules = index.protocol.granules
    everything = granules.overlapping(index.tree.config.universe)
    for ref in everything:
        assert ref == _fresh(index.tree, ref)
    probes = [_box(rng, dim, 0.5) for _ in range(2)]
    probes.append(Rect.from_point([rng.random() for _ in range(dim)]))
    for probe in probes:
        first = granules.overlapping(probe)
        second = granules.overlapping(probe)
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))
        cover, rest = granules.covering(probe)
        again_cover, again_rest = granules.covering(probe)
        assert all(a is b for a, b in zip(cover + rest, again_cover + again_rest))
        by_page = {(ref.page_id, ref.is_leaf): ref for ref in everything}
        for ref in first + cover + rest:
            assert by_page[ref.page_id, ref.is_leaf] is ref


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("fanout", [4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_refs_match_current_pages_through_mutations(dim, fanout, seed):
    rng = random.Random(seed * 100 + fanout * 10 + dim)
    universe = Rect((0.0,) * dim, (1.0,) * dim)
    index = PhantomProtectedRTree(RTreeConfig(max_entries=fanout, universe=universe))
    tree = index.tree
    live = {}
    next_oid = 0
    roots = {tree.root_id}
    max_height = tree.height
    for step in range(60):
        # Grow for the first half, then shrink: splits and root growth,
        # then node elimination and root shrink.
        delete_p = 0.2 if step < 30 else 0.8
        with index.transaction() as txn:
            for _ in range(rng.randrange(1, 5)):
                if live and rng.random() < delete_p:
                    oid = rng.choice(sorted(live))
                    index.delete(txn, oid, live.pop(oid))
                else:
                    live[next_oid] = _box(rng, dim, 0.1)
                    index.insert(txn, next_oid, live[next_oid])
                    next_oid += 1
        if step % 4 == 3:
            index.vacuum()
        roots.add(tree.root_id)
        max_height = max(max_height, tree.height)
        _check_refs(index, rng, dim)
    index.vacuum()
    _check_refs(index, rng, dim)
    stats = tree.pager.stats
    assert max_height >= 3, "root growth past one level must happen"
    assert len(roots) >= 3, "the root must be replaced more than once"
    assert stats.frees > 0, "node elimination must free pages"
    assert stats.allocations > len(roots), "non-root splits must happen"
