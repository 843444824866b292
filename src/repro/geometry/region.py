"""Region algebra: finite unions of disjoint axis-aligned rectangles.

External granules are generally non-rectangular: the external granule of a
non-leaf node ``T`` is ``T_s − ⋃ children(T)``.  :class:`Region` can
materialise that difference; the lock path only asks whether a predicate
overlaps it, and answers that without building it (see
:mod:`repro.core.granules`).

The representation keeps rectangles pairwise interior-disjoint (they may
share boundaries).  Subtraction splits a rectangle into at most ``2d``
pieces per subtrahend, which is fine for R-tree fanouts (tens of children).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.geometry.rect import Rect


def _subtract_one(minuend: Rect, subtrahend: Rect) -> List[Rect]:
    """``minuend − subtrahend`` as a list of interior-disjoint rectangles.

    The classic sweep: for each axis, carve off the slabs of ``minuend``
    lying strictly below/above the subtrahend, then recurse on the clamped
    middle.  Pieces with zero volume in the carved axis are dropped (the
    difference of closed boxes is taken up to measure zero, which is the
    right notion for lock-coverage tests: a predicate that merely *touches*
    leftover space cannot contain an inserted object of positive extent,
    and point objects on shared boundaries are covered by the adjacent
    granule's closed box).
    """
    inter = minuend.intersection(subtrahend)
    if inter is None:
        return [minuend]
    if inter == minuend:
        return []

    pieces: List[Rect] = []
    lo = list(minuend.lo)
    hi = list(minuend.hi)
    for axis in range(minuend.dim):
        if lo[axis] < inter.lo[axis]:
            piece_lo = list(lo)
            piece_hi = list(hi)
            piece_hi[axis] = inter.lo[axis]
            pieces.append(Rect(piece_lo, piece_hi))
        if inter.hi[axis] < hi[axis]:
            piece_lo = list(lo)
            piece_hi = list(hi)
            piece_lo[axis] = inter.hi[axis]
            pieces.append(Rect(piece_lo, piece_hi))
        # Clamp this axis to the intersection band before carving the next
        # axis so the pieces stay interior-disjoint.
        lo[axis] = inter.lo[axis]
        hi[axis] = inter.hi[axis]
    return pieces


def subtract_rects(minuend: Rect, subtrahends: Iterable[Rect]) -> List[Rect]:
    """``minuend − ⋃ subtrahends`` as interior-disjoint rectangles."""
    remaining: List[Rect] = [minuend]
    for sub in subtrahends:
        next_remaining: List[Rect] = []
        for piece in remaining:
            next_remaining.extend(_subtract_one(piece, sub))
        remaining = next_remaining
        if not remaining:
            break
    return remaining


#: sentinel for "bounding box not computed yet" (``None`` means "empty")
_BBOX_UNSET = object()


class Region:
    """A finite union of interior-disjoint rectangles.

    Empty regions are allowed (e.g. the external granule of a node whose
    children tile its bounding rectangle exactly).

    The region lazily caches the bounding box of its parts; every
    predicate first tests against that box, so probes that miss the
    region entirely never scan the parts or run rectangle subtraction.
    (The lock path builds no region for a scan: the granule walk tests
    the predicate against each external granule without materialising
    it.  Regions serve an insert's growth area, UpdateScan's cover
    remainder and the reference oracles.)
    """

    __slots__ = ("_parts", "_bbox")

    def __init__(self, parts: Sequence[Rect] = ()) -> None:
        self._parts = tuple(parts)
        self._bbox = _BBOX_UNSET

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rect(cls, rect: Rect) -> "Region":
        return cls((rect,))

    @classmethod
    def difference(cls, minuend: Rect, subtrahends: Iterable[Rect]) -> "Region":
        """The region ``minuend − ⋃ subtrahends``.

        This is exactly the shape of an external granule: ``T_s`` minus the
        bounding rectangles of the children of ``T``.
        """
        return cls(subtract_rects(minuend, subtrahends))

    # -- accessors ---------------------------------------------------------

    @property
    def parts(self) -> Sequence[Rect]:
        return self._parts

    @property
    def bbox(self) -> "Rect | None":
        """Bounding box of the parts (``None`` for an empty region)."""
        if self._bbox is _BBOX_UNSET:
            self._bbox = Rect.bounding(self._parts) if self._parts else None
        return self._bbox  # type: ignore[return-value]

    def is_empty(self) -> bool:
        return not self._parts

    def area(self) -> float:
        return sum(p.area() for p in self._parts)

    # -- predicates ----------------------------------------------------------

    def intersects(self, rect: Rect) -> bool:
        """Closed overlap: true when ``rect`` touches any part."""
        parts = self._parts
        if not parts:
            return False
        if not self.bbox.intersects(rect):  # type: ignore[union-attr]
            return False
        if len(parts) == 1:
            # The bounding box *is* the single part.
            return True
        return any(p.intersects(rect) for p in parts)

    def intersects_open(self, rect: Rect) -> bool:
        """Positive-measure overlap with any part."""
        parts = self._parts
        if not parts:
            return False
        if not self.bbox.intersects_open(rect):  # type: ignore[union-attr]
            return False
        if len(parts) == 1:
            return True
        return any(p.intersects_open(rect) for p in parts)

    def contains_point(self, point: Sequence[float]) -> bool:
        parts = self._parts
        if not parts:
            return False
        if not self.bbox.contains_point(point):  # type: ignore[union-attr]
            return False
        if len(parts) == 1:
            return True
        return any(p.contains_point(point) for p in parts)

    def covers(self, rect: Rect) -> bool:
        """True when ``rect`` lies entirely inside the region (up to
        measure zero: shared internal boundaries between parts count as
        covered)."""
        parts = self._parts
        if not parts:
            return False
        # A rect sticking out of the bounding box keeps a leftover piece
        # with positive extent along the escape axis, so this is exact.
        if not self.bbox.contains(rect):  # type: ignore[union-attr]
            return False
        if len(parts) == 1:
            return True
        for p in parts:
            if p.contains(rect):
                return True
        leftover = subtract_rects(rect, parts)
        return not leftover

    # -- constructive --------------------------------------------------------

    def subtract(self, rects: Iterable[Rect]) -> "Region":
        parts: List[Rect] = list(self._parts)
        for sub in rects:
            nxt: List[Rect] = []
            for piece in parts:
                nxt.extend(_subtract_one(piece, sub))
            parts = nxt
            if not parts:
                break
        return Region(parts)

    def __repr__(self) -> str:
        return f"Region({len(self._parts)} parts, area={self.area():.4g})"
