"""The lock path's granule walk against the ``Region.difference`` reference.

:meth:`GranuleSet.overlapping` decides external-granule overlap on the
predicate clipped to the node's space, without building the granule.
:func:`repro.stress.oracle.reference_overlapping` builds every external
region with ``Region.difference`` and intersects it.  Lock order drives
the schedule, so the two must return the same refs in the same order --
for every predicate kind, on trees driven through inserts, logical
deletes and vacuum (root growth and root shrink included), in 2-D and
3-D.  :meth:`GranuleSet.covering` must split that same set, and its cover
must contain the predicate.
"""

import random
from typing import Dict, List, Sequence, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhantomProtectedRTree
from repro.core.granules import GranuleSet
from repro.geometry import Rect, Region
from repro.rtree import RTreeConfig, validate_tree
from repro.stress.oracle import reference_overlapping


def _coord(rng: random.Random, snaps: Sequence[float]) -> float:
    """A coordinate, snapped to an entry boundary most of the time."""
    if snaps and rng.random() < 0.6:
        return rng.choice(snaps)
    return round(rng.random(), 2)


def probes(rng: random.Random, tree, dim: int, n: int) -> List[object]:
    """Points, axis-parallel lines, boundary-snapped rects and multi-part
    regions; most coordinates lie on some entry rect's boundary."""
    snaps = sorted(
        {c for node in tree.iter_nodes() for e in node.entries for c in e.rect.lo + e.rect.hi}
    )
    out: List[object] = []
    for i in range(n):
        lo = [_coord(rng, snaps) for _ in range(dim)]
        kind = i % 4
        if kind == 0:
            out.append(Rect.from_point(lo))
        elif kind == 1:
            hi = list(lo)
            axis = rng.randrange(dim)
            hi[axis] = max(lo[axis], _coord(rng, snaps))
            out.append(Rect(lo, hi))
        elif kind == 2:
            out.append(Rect(lo, [max(v, _coord(rng, snaps)) for v in lo]))
        else:
            a = Rect(lo, [min(1.0, v + 0.2 * rng.random()) for v in lo])
            point = [_coord(rng, snaps) for _ in range(dim)]
            out.append(Region([a, Rect.from_point(point)]))
    return out


def granule_geometry(gs: GranuleSet, ref) -> Sequence[Rect]:
    node = gs.tree.node(ref.page_id, count_io=False)
    if node.page_id == gs.tree.root_id and node.is_leaf:
        # the lone leaf granule stands for the whole embedded space
        return [gs.tree.config.universe]
    if ref.is_leaf:
        return [node.mbr()]
    return gs.external_region(node).parts


def check_tree(gs: GranuleSet, rng: random.Random, dim: int, n: int) -> None:
    universe = gs.tree.config.universe
    assert gs.overlapping(universe) == reference_overlapping(gs, universe)
    for predicate in probes(rng, gs.tree, dim, n):
        got = gs.overlapping(predicate)
        assert got == reference_overlapping(gs, predicate), predicate
        if not isinstance(predicate, Rect):
            continue
        cover, rest = gs.covering(predicate)
        assert {r.resource for r in cover} | {r.resource for r in rest} == {
            r.resource for r in got
        }
        assert len(cover) + len(rest) == len(got)
        remaining = Region.from_rect(predicate)
        for ref in cover:
            remaining = remaining.subtract(granule_geometry(gs, ref))
        assert remaining.is_empty(), f"cover of {predicate} leaves {remaining.parts}"


def run_sequence(seed: int, dim: int, steps: int = 12, probes_per_step: int = 12) -> None:
    """Grow the tree, churn it, empty it (the root collapses) and regrow
    it, checking the walk against the reference after every step."""
    rng = random.Random(seed)
    universe = Rect([0.0] * dim, [1.0] * dim)
    index = PhantomProtectedRTree(
        RTreeConfig(max_entries=rng.choice([4, 5, 8]), universe=universe)
    )
    objects: Dict[int, Rect] = {}
    next_oid = 0
    points = rng.random() < 0.3
    heights: List[int] = []
    roots: Set[int] = set()

    def insert_some(count: int) -> None:
        nonlocal next_oid
        with index.transaction() as txn:
            for _ in range(count):
                lo = [round(rng.random(), 2) for _ in range(dim)]
                hi = lo if points else [min(1.0, round(v + 0.15 * rng.random(), 2)) for v in lo]
                objects[next_oid] = Rect(lo, hi)
                index.insert(txn, next_oid, objects[next_oid])
                next_oid += 1

    def delete_some(count: int) -> None:
        with index.transaction() as txn:
            for oid in rng.sample(sorted(objects), min(count, len(objects))):
                index.delete(txn, oid, objects.pop(oid))

    plan = (
        [lambda: insert_some(rng.randint(8, 20))] * (steps // 2)
        + [lambda: delete_some(rng.randint(2, 8)), lambda: insert_some(rng.randint(2, 8))]
        + [lambda: delete_some(len(objects))]
        + [lambda: insert_some(rng.randint(3, 12))] * (steps // 3)
    )
    for step in plan:
        step()
        if rng.random() < 0.7 or not objects:
            index.vacuum()
        validate_tree(index.tree)
        heights.append(index.tree.height)
        roots.add(index.tree.root_id)
        check_tree(index.granules, rng, dim, probes_per_step)
    assert max(heights) >= 2 and min(heights[heights.index(max(heights)):]) == 1, heights
    assert len(roots) >= 3, "the root was never replaced"


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=12, deadline=None)
def test_walk_matches_reference_through_grow_and_shrink(seed, dim):
    run_sequence(seed, dim)


def test_walk_matches_reference_over_fixed_seeds():
    for seed in range(16):
        run_sequence(seed, 2 + seed % 2, steps=8, probes_per_step=8)


def test_point_on_a_child_face_touches_the_external_granule():
    """A point on the outer face of a leaf granule touches the root's
    external granule outside it: closed contact, not measured on the
    point clipped to the node's space (which the leaf's box covers)."""
    index = PhantomProtectedRTree(RTreeConfig(max_entries=4, universe=Rect((0, 0), (1, 1))))
    with index.transaction() as txn:
        for oid in range(5):
            index.insert(txn, oid, Rect((0.1 * oid, 0.1), (0.1 * oid + 0.05, 0.2)))
    gs = index.granules
    # the right face of the rightmost leaf, inside the universe and no
    # other leaf's box
    leaf_rect = max((e.rect for e in index.tree.root().entries), key=lambda r: r.hi[0])
    face_point = Rect.from_point((leaf_rect.hi[0], (leaf_rect.lo[1] + leaf_rect.hi[1]) / 2))
    refs = gs.overlapping(face_point)
    assert refs == reference_overlapping(gs, face_point)
    assert [r for r in refs if not r.is_leaf], "the face point must lock ext(root)"
