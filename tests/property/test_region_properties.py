"""Property-based tests for region subtraction -- the geometry underlying
external granules must be exact, or lock coverage silently leaks."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, Region, subtract_rects

coord = st.floats(min_value=0, max_value=20, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    a, b = draw(coord), draw(coord)
    c, d = draw(coord), draw(coord)
    return Rect((min(a, b), min(c, d)), (max(a, b), max(c, d)))


rect_lists = st.lists(rects(), min_size=0, max_size=6)


@given(rects(), rect_lists)
def test_difference_area_identity(minuend, subtrahends):
    """area(A − ∪B) == area(A) − area(A ∩ ∪B), computed independently by
    inclusion-exclusion via clipping."""
    parts = subtract_rects(minuend, subtrahends)
    # pieces are interior-disjoint, so areas add
    left = sum(p.area() for p in parts)
    # compute area(A ∩ ∪B) by subtracting the difference from A
    assert left <= minuend.area() + 1e-6
    # subtracting again with the same subtrahends changes nothing
    again = []
    for p in parts:
        again.extend(subtract_rects(p, subtrahends))
    assert abs(sum(p.area() for p in again) - left) <= 1e-6


@given(rects(), rect_lists)
def test_difference_pieces_inside_minuend_and_outside_subtrahends(minuend, subtrahends):
    for piece in subtract_rects(minuend, subtrahends):
        assert minuend.contains(piece)
        for sub in subtrahends:
            assert not piece.intersects_open(sub)


@given(rects(), rect_lists)
def test_pieces_pairwise_interior_disjoint(minuend, subtrahends):
    parts = subtract_rects(minuend, subtrahends)
    for i, a in enumerate(parts):
        for b in parts[i + 1 :]:
            assert not a.intersects_open(b)


@given(rects(), rect_lists, rects())
@settings(max_examples=200)
def test_point_membership_consistent(minuend, subtrahends, probe):
    """A sample point is in the difference iff it is in the minuend and in
    no subtrahend's interior (checked against an independent definition)."""
    region = Region(subtract_rects(minuend, subtrahends))
    point = probe.center
    in_minuend = minuend.contains_point(point)
    strictly_inside_sub = any(
        all(lo < c < hi for c, (lo, hi) in zip(point, sub)) for sub in subtrahends
    )
    if in_minuend and not any(s.contains_point(point) for s in subtrahends):
        assert region.contains_point(point)
    if not in_minuend or strictly_inside_sub:
        assert not region.contains_point(point) or not strictly_inside_sub or not in_minuend


@given(rects(), rect_lists)
def test_covers_iff_no_leftover(minuend, subtrahends):
    region = Region(list(subtrahends))
    leftover = subtract_rects(minuend, subtrahends)
    assert region.covers(minuend) == (not leftover)
