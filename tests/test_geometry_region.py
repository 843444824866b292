"""Unit tests for the region algebra (external-granule geometry)."""

import pytest

from repro.geometry import Rect, Region, subtract_rects


class TestSubtraction:
    def test_disjoint_subtrahend_is_noop(self):
        parts = subtract_rects(Rect((0, 0), (1, 1)), [Rect((5, 5), (6, 6))])
        assert parts == [Rect((0, 0), (1, 1))]

    def test_full_cover_empties(self):
        parts = subtract_rects(Rect((1, 1), (2, 2)), [Rect((0, 0), (3, 3))])
        assert parts == []

    def test_hole_in_middle(self):
        parts = subtract_rects(Rect((0, 0), (3, 3)), [Rect((1, 1), (2, 2))])
        total = sum(p.area() for p in parts)
        assert total == pytest.approx(9 - 1)
        # pieces must be interior-disjoint
        for i, a in enumerate(parts):
            for b in parts[i + 1 :]:
                assert not a.intersects_open(b)

    def test_corner_overlap(self):
        parts = subtract_rects(Rect((0, 0), (2, 2)), [Rect((1, 1), (3, 3))])
        assert sum(p.area() for p in parts) == pytest.approx(4 - 1)

    def test_multiple_subtrahends(self):
        parts = subtract_rects(
            Rect((0, 0), (10, 10)), [Rect((0, 0), (5, 10)), Rect((5, 0), (10, 5))]
        )
        assert sum(p.area() for p in parts) == pytest.approx(25)
        region = Region(parts)
        assert region.contains_point((7, 7))
        assert not region.contains_point((2, 2))

    def test_exact_tiling_leaves_nothing(self):
        tiles = [
            Rect((0, 0), (5, 5)),
            Rect((5, 0), (10, 5)),
            Rect((0, 5), (5, 10)),
            Rect((5, 5), (10, 10)),
        ]
        assert subtract_rects(Rect((0, 0), (10, 10)), tiles) == []


class TestRegion:
    def test_empty(self):
        r = Region()
        assert r.is_empty()
        assert r.area() == 0.0
        assert not r.intersects(Rect((0, 0), (1, 1)))

    def test_difference_constructor(self):
        region = Region.difference(Rect((0, 0), (4, 4)), [Rect((0, 0), (2, 4))])
        assert region.area() == pytest.approx(8)
        assert region.intersects(Rect((3, 1), (3.5, 2)))
        assert not region.intersects_open(Rect((0, 0), (2, 4)))

    def test_covers(self):
        region = Region.difference(Rect((0, 0), (4, 4)), [Rect((1, 1), (2, 2))])
        assert region.covers(Rect((2.5, 2.5), (3.5, 3.5)))
        assert not region.covers(Rect((0.5, 0.5), (1.5, 1.5)))
        # covering up to measure zero: two tiles cover a rect spanning them
        two = Region([Rect((0, 0), (1, 2)), Rect((1, 0), (2, 2))])
        assert two.covers(Rect((0.5, 0.5), (1.5, 1.5)))

    def test_subtract_chain(self):
        region = Region.from_rect(Rect((0, 0), (3, 3)))
        region = region.subtract([Rect((0, 0), (1, 3))]).subtract([Rect((1, 0), (3, 1))])
        assert region.area() == pytest.approx(4)

    def test_intersects_open_vs_closed(self):
        region = Region([Rect((0, 0), (1, 1))])
        touching = Rect((1, 0), (2, 1))
        assert region.intersects(touching)
        assert not region.intersects_open(touching)

    def test_degenerate_point_membership(self):
        region = Region.difference(Rect((0, 0), (2, 2)), [Rect((0, 0), (1, 2))])
        assert region.contains_point((1.5, 1.0))
        assert not region.contains_point((0.5, 1.0))
