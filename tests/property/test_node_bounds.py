"""Property: every node's packed bounds stay in step with its entries.

Random insert and delete sequences in 2-D and 3-D, with small fanouts so
that splits, root growth, condensing and orphan re-insertion (in place,
or collected and re-inserted by the caller) all happen.  After every
step each node's ``bounds`` must hold its entries' boxes in entry order,
``Node.mbr`` must equal ``Rect.bounding`` over the entries, and a random
predicate's ``Node.overlapping`` must equal the brute-force filter.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.rtree import SPLIT_ALGORITHMS, RTree, RTreeConfig, validate_tree
from repro.rtree.bulk import bulk_load


def random_rect(rng: random.Random, dim: int) -> Rect:
    lo = [rng.random() * 0.9 for _ in range(dim)]
    return Rect(lo, [v + rng.random() * 0.1 for v in lo])


def check_nodes(tree: RTree, rng: random.Random, dim: int) -> None:
    predicate = random_rect(rng, dim).expanded(0.1 * rng.random())
    for node in tree.iter_nodes():
        unpacked = [v for e in node.entries for v in e.rect.lo + e.rect.hi]
        assert list(node.bounds) == unpacked
        if node.entries:
            assert node.mbr() == Rect.bounding(e.rect for e in node.entries)
        else:
            assert node.mbr() is None
        want = [e for e in node.entries if e.rect.intersects(predicate)]
        assert node.overlapping(predicate) == want


@given(
    dim=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=10_000),
    split=st.sampled_from(sorted(SPLIT_ALGORITHMS)),
    bulk=st.booleans(),
    collect_orphans=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_bounds_follow_every_structure_change(dim, seed, split, bulk, collect_orphans):
    rng = random.Random(seed)
    universe = Rect([0.0] * dim, [1.0] * dim)
    config = RTreeConfig(max_entries=4, split_algorithm=split, universe=universe)
    preload = [(oid, random_rect(rng, dim)) for oid in range(rng.randrange(40))]
    if bulk:
        tree = bulk_load(preload, config)
    else:
        tree = RTree(config)
        for oid, r in preload:
            tree.insert(oid, r)
    live = dict(preload)
    next_oid = len(preload)
    check_nodes(tree, rng, dim)
    for _ in range(60):
        if live and rng.random() < 0.45:
            oid = rng.choice(sorted(live))
            report = tree.delete(oid, live.pop(oid), collect_orphans=collect_orphans)
            for entry, level in report.orphans:
                tree.reinsert_entry(entry, level)
        else:
            r = random_rect(rng, dim)
            tree.insert(next_oid, r)
            live[next_oid] = r
            next_oid += 1
        check_nodes(tree, rng, dim)
    validate_tree(tree)
