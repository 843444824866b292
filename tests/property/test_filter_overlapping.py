"""Property: ``filter_overlapping`` keeps exactly the entries whose rect
``Rect.intersects`` the predicate, in their order, in 1-4 dimensions.

Coordinates come from a small integer grid, so faces and corners that
meet only on the boundary (closed contact) are common, as are point and
line predicates.  ``RTree.search_leaves`` and ``RTree.search``, which
read leaves through the filter, are checked against the same brute
force with tombstoned entries in the leaves.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, filter_overlapping
from repro.rtree import RTree, RTreeConfig
from repro.rtree.entry import LeafEntry

GRID = st.integers(min_value=0, max_value=4)


@st.composite
def grid_rects(draw, dim, degenerate_axes=0):
    """A box on the grid; the first ``degenerate_axes`` axes are flat."""
    lo, hi = [], []
    for axis in range(dim):
        a = draw(GRID)
        b = a if axis < degenerate_axes else draw(GRID)
        lo.append(min(a, b))
        hi.append(max(a, b))
    return Rect(lo, hi)


@st.composite
def predicates(draw, dim):
    """A box, a line (one free axis) or a point."""
    kind = draw(st.sampled_from(["box", "line", "point"]))
    flat = {"box": 0, "line": dim - 1, "point": dim}[kind]
    return draw(grid_rects(dim, degenerate_axes=flat))


def contacts(predicate: Rect):
    """Boxes that meet ``predicate`` only on its boundary: one past each
    face, and one on its top corner."""
    lo, hi = list(predicate.lo), list(predicate.hi)
    out = []
    for axis in range(predicate.dim):
        beyond_hi = list(hi)
        beyond_hi[axis] = hi[axis] + 1
        face_lo = list(lo)
        face_lo[axis] = hi[axis]
        out.append(Rect(face_lo, beyond_hi))  # shares the upper face
        below_lo = list(lo)
        below_lo[axis] = lo[axis] - 1
        face_hi = list(hi)
        face_hi[axis] = lo[axis]
        out.append(Rect(below_lo, face_hi))  # shares the lower face
    out.append(Rect(hi, [v + 1 for v in hi]))  # shares the top corner only
    return out


@st.composite
def cases(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    predicate = draw(predicates(dim))
    rects = draw(st.lists(grid_rects(dim), max_size=12))
    rects += contacts(predicate)
    order = draw(st.permutations(range(len(rects))))
    return predicate, [LeafEntry(i, rects[i]) for i in order]


@given(cases())
@settings(max_examples=300, deadline=None)
def test_filter_matches_intersects_in_order(case):
    predicate, entries = case
    got = filter_overlapping(entries, predicate)
    assert got == [e for e in entries if e.rect.intersects(predicate)]


@given(st.integers(min_value=1, max_value=4))
def test_closed_contact_counts(dim):
    predicate = Rect([1.0] * dim, [2.0] * dim)
    touching = [LeafEntry(i, r) for i, r in enumerate(contacts(predicate))]
    assert filter_overlapping(touching, predicate) == touching
    apart = LeafEntry("apart", Rect([2.5] * dim, [3.0] * dim))
    assert filter_overlapping([apart], predicate) == []


@given(
    dim=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    n_objects=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=40, deadline=None)
def test_leaf_reads_skip_tombstones_and_keep_order(dim, seed, n_objects):
    rng = random.Random(seed)
    universe = Rect([0.0] * dim, [8.0] * dim)
    tree = RTree(RTreeConfig(max_entries=4, universe=universe))
    for oid in range(n_objects):
        lo = [float(rng.randrange(8)) for _ in range(dim)]
        hi = [min(8.0, v + rng.randrange(3)) for v in lo]
        tree.insert(oid, Rect(lo, hi))
    for leaf in tree.iter_leaves():
        for entry in leaf.entries:
            entry.tombstone = rng.random() < 0.3
    leaves = list(tree.iter_leaves())
    leaf_ids = [leaf.page_id for leaf in leaves]
    for _ in range(4):
        lo = [float(rng.randrange(8)) for _ in range(dim)]
        hi = [v + rng.randrange(4) * rng.randrange(2) for v in lo]
        predicate = Rect(lo, hi)
        want = [
            e
            for leaf in leaves
            for e in leaf.entries
            if not e.tombstone and e.rect.intersects(predicate)
        ]
        assert tree.search_leaves(leaf_ids, predicate) == want
        every = tree.search(predicate, include_tombstones=True)
        assert sorted(e.oid for e in every) == sorted(
            e.oid for leaf in leaves for e in leaf.entries if e.rect.intersects(predicate)
        )
        assert sorted(e.oid for e in tree.search(predicate)) == sorted(e.oid for e in want)
