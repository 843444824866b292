"""Property-based tests for rectangle algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw, dim=2):
    los = []
    his = []
    for _ in range(dim):
        a = draw(coord)
        b = draw(coord)
        los.append(min(a, b))
        his.append(max(a, b))
    return Rect(los, his)


@given(rects(), rects())
def test_intersects_symmetric(a, b):
    assert a.intersects(b) == b.intersects(a)
    assert a.intersects_open(b) == b.intersects_open(a)


@given(rects(), rects())
def test_union_commutative_and_contains_both(a, b):
    u = a.union(b)
    assert u == b.union(a)
    assert u.contains(a) and u.contains(b)


@given(rects(), rects(), rects())
def test_union_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@given(rects(), rects())
def test_intersection_contained_in_both(a, b):
    inter = a.intersection(b)
    if inter is None:
        assert not a.intersects(b)
    else:
        assert a.contains(inter) and b.contains(inter)
        assert a.intersects(b)


@given(rects(), rects())
def test_enlargement_nonnegative(a, b):
    assert a.enlargement(b) >= 0.0


@given(rects(), rects())
def test_enlargement_zero_iff_area_preserved(a, b):
    if a.contains(b):
        assert a.enlargement(b) == 0.0


@given(rects())
def test_self_relations(a):
    assert a.intersects(a)
    assert a.contains(a)
    assert a.union(a) == a
    assert a.intersection(a) == a
    assert a.enlargement(a) == 0.0


@given(rects(), rects())
def test_overlap_area_bounded(a, b):
    overlap = a.overlap_area(b)
    assert 0.0 <= overlap <= min(a.area(), b.area()) + 1e-9


@given(rects(), rects())
def test_contains_implies_intersects(a, b):
    if a.contains(b):
        assert a.intersects(b)


@given(rects(), rects(), rects())
def test_contains_transitive(a, b, c):
    if a.contains(b) and b.contains(c):
        assert a.contains(c)


@given(rects())
@settings(max_examples=50)
def test_area_matches_sides(a):
    product = 1.0
    for axis in range(a.dim):
        product *= a.side(axis)
    assert abs(product - a.area()) <= 1e-6 * max(1.0, abs(product))


@given(rects(), st.floats(min_value=0, max_value=10, allow_nan=False))
def test_expand_contains_original(a, amount):
    assert a.expanded(amount).contains(a)


@st.composite
def same_dim_rects(draw, count=2):
    dim = draw(st.integers(min_value=1, max_value=4))
    return [draw(rects(dim)) for _ in range(count)]


def assert_validated_twin(derived, lo, hi):
    """``derived`` holds exactly what ``Rect(lo, hi)`` -- the validating
    constructor -- would: the same coordinates bit for bit, and the same
    hash."""
    twin = Rect(lo, hi)
    assert repr(derived.lo) == repr(twin.lo) and repr(derived.hi) == repr(twin.hi)
    assert derived == twin and hash(derived) == hash(twin)


@given(same_dim_rects())
def test_enlargement_is_exactly_union_area_minus_area(pair):
    a, b = pair
    assert a.enlargement(b) == a.union(b).area() - a.area()


@given(same_dim_rects())
def test_union_and_intersection_match_validating_constructor(pair):
    a, b = pair
    assert_validated_twin(
        a.union(b),
        [min(p, q) for p, q in zip(a.lo, b.lo)],
        [max(p, q) for p, q in zip(a.hi, b.hi)],
    )
    lo = [max(p, q) for p, q in zip(a.lo, b.lo)]
    hi = [min(p, q) for p, q in zip(a.hi, b.hi)]
    inter = a.intersection(b)
    if all(p <= q for p, q in zip(lo, hi)):
        assert_validated_twin(inter, lo, hi)
    else:
        assert inter is None


@given(same_dim_rects(count=5))
def test_bounding_matches_validating_constructor(boxes):
    assert_validated_twin(
        Rect.bounding(boxes),
        [min(r.lo[i] for r in boxes) for i in range(boxes[0].dim)],
        [max(r.hi[i] for r in boxes) for i in range(boxes[0].dim)],
    )
