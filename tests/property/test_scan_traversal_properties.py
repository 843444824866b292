"""Property: a one-traversal ReadScan / UpdateScan returns exactly the
brute-force live set -- single-leaf roots, point predicates, tombstoned
entries and 3-D trees included."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhantomProtectedRTree
from repro.geometry import Rect
from repro.rtree.tree import RTreeConfig


def _box(rng: random.Random, dim: int, max_side: float) -> Rect:
    lo, hi = [], []
    for _ in range(dim):
        side = rng.random() * max_side
        start = rng.random() * (1.0 - side)
        lo.append(start)
        hi.append(start + side)
    return Rect(lo, hi)


@given(
    dim=st.sampled_from([2, 3]),
    fanout=st.integers(min_value=4, max_value=8),
    n_objects=st.integers(min_value=0, max_value=90),
    deleted_frac=st.sampled_from([0.0, 0.3, 0.7]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_scans_return_brute_force_live_set(dim, fanout, n_objects, deleted_frac, seed):
    rng = random.Random(seed)
    universe = Rect((0.0,) * dim, (1.0,) * dim)
    index = PhantomProtectedRTree(RTreeConfig(max_entries=fanout, universe=universe))
    objects = {oid: _box(rng, dim, 0.2) for oid in range(n_objects)}
    with index.transaction() as txn:
        for oid, rect in objects.items():
            index.insert(txn, oid, rect)
    # Logical deletes leave tombstones in the leaves: no vacuum runs.
    live = dict(objects)
    with index.transaction() as txn:
        for oid in list(objects):
            if rng.random() < deleted_frac:
                index.delete(txn, oid, live.pop(oid))

    predicates = [_box(rng, dim, 0.6) for _ in range(3)]
    predicates.append(Rect.from_point([rng.random() for _ in range(dim)]))
    if objects:
        # A point exactly on a stored box's corner: closed-box contact.
        corner = objects[rng.randrange(n_objects)].lo
        predicates.append(Rect.from_point(corner))
    predicates.append(universe)

    for predicate in predicates:
        want = sorted(oid for oid, rect in live.items() if rect.intersects(predicate))
        with index.transaction() as txn:
            read = index.read_scan(txn, predicate)
            updated = index.update_scan(txn, predicate, lambda oid, rect, old: "seen")
        assert sorted(read.oids) == want
        assert sorted(updated.oids) == want
