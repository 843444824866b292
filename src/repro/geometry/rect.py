"""n-dimensional closed axis-aligned rectangles.

A :class:`Rect` is immutable and hashable so it can be used as a dictionary
key (the history checkers key conflicts by predicate rectangle).  All
interval arithmetic treats rectangles as *closed* boxes, matching the
R-tree convention that an object lying exactly on the boundary of a
bounding rectangle is covered by it.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Tuple


class Rect:
    """A closed axis-aligned box ``[lo_i, hi_i]`` in ``d`` dimensions.

    Degenerate boxes (``lo_i == hi_i`` in some or all dimensions) are valid
    and represent points or lower-dimensional slabs; the R-tree stores point
    data as degenerate rectangles.
    """

    __slots__ = ("_lo", "_hi", "_hash")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        if len(lo) != len(hi):
            raise ValueError(f"dimension mismatch: {len(lo)} != {len(hi)}")
        if not lo:
            raise ValueError("rectangles must have at least one dimension")
        for a, b in zip(lo, hi):
            if math.isnan(a) or math.isnan(b):
                raise ValueError("NaN coordinate in rectangle")
            if a > b:
                raise ValueError(f"inverted interval [{a}, {b}]")
        self._lo = lo
        self._hi = hi
        self._hash = hash((lo, hi))

    @classmethod
    def _derived(cls, lo: Tuple[float, ...], hi: Tuple[float, ...]) -> "Rect":
        """A box computed from valid boxes (their union, bounding box or
        intersection): the same fields :meth:`__init__` would store, without
        re-validating coordinates that already passed it."""
        rect = object.__new__(cls)
        rect._lo = lo
        rect._hi = hi
        rect._hash = hash((lo, hi))
        return rect

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """A degenerate rectangle covering exactly one point."""
        return cls(point, point)

    @classmethod
    def from_extents(cls, *extents: Tuple[float, float]) -> "Rect":
        """Build from per-dimension ``(lo, hi)`` pairs.

        >>> Rect.from_extents((0, 1), (2, 3))
        Rect((0.0, 2.0), (1.0, 3.0))
        """
        if not extents:
            raise ValueError("at least one extent required")
        return cls([e[0] for e in extents], [e[1] for e in extents])

    @classmethod
    def bounding(cls, rects: Iterable["Rect"]) -> "Rect":
        """The minimum bounding rectangle of a non-empty collection."""
        it = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("cannot bound an empty collection of rectangles")
        lo = list(first._lo)
        hi = list(first._hi)
        for r in it:
            for i in range(len(lo)):
                if r._lo[i] < lo[i]:
                    lo[i] = r._lo[i]
                if r._hi[i] > hi[i]:
                    hi[i] = r._hi[i]
        return cls._derived(tuple(lo), tuple(hi))

    # -- basic accessors ---------------------------------------------------

    @property
    def lo(self) -> Tuple[float, ...]:
        return self._lo

    @property
    def hi(self) -> Tuple[float, ...]:
        return self._hi

    @property
    def dim(self) -> int:
        return len(self._lo)

    @property
    def center(self) -> Tuple[float, ...]:
        return tuple((a + b) / 2.0 for a, b in zip(self._lo, self._hi))

    def side(self, axis: int) -> float:
        """Length of the rectangle along ``axis``."""
        return self._hi[axis] - self._lo[axis]

    def area(self) -> float:
        """d-dimensional volume (zero for degenerate boxes)."""
        prod = 1.0
        for a, b in zip(self._lo, self._hi):
            prod *= b - a
        return prod

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree margin metric, up to a constant)."""
        return sum(b - a for a, b in zip(self._lo, self._hi))

    def is_degenerate(self) -> bool:
        """True when the box has zero volume."""
        return any(a == b for a, b in zip(self._lo, self._hi))

    # -- predicates --------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """Closed-box overlap test (shared boundaries count as overlap).

        Like :meth:`intersects_open` and :meth:`contains`, this hot
        predicate does not check dimensions: callers check rectangles
        once where they enter (``RTree.check_dim``).
        """
        for a_lo, a_hi, b_lo, b_hi in zip(self._lo, self._hi, other._lo, other._hi):
            if a_hi < b_lo or b_hi < a_lo:
                return False
        return True

    def intersects_open(self, other: "Rect") -> bool:
        """Overlap with positive measure in every dimension.

        Used when testing whether a predicate overlaps the *interior* of a
        region; touching boundaries do not count.
        """
        for a_lo, a_hi, b_lo, b_hi in zip(self._lo, self._hi, other._lo, other._hi):
            if min(a_hi, b_hi) <= max(a_lo, b_lo):
                return False
        return True

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely within this box."""
        for a_lo, a_hi, b_lo, b_hi in zip(self._lo, self._hi, other._lo, other._hi):
            if b_lo < a_lo or b_hi > a_hi:
                return False
        return True

    def contains_point(self, point: Sequence[float]) -> bool:
        if len(point) != self.dim:
            raise ValueError("dimension mismatch")
        return all(a <= p <= b for a, p, b in zip(self._lo, point, self._hi))

    # -- constructive operations -------------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping box, or ``None`` when the boxes are disjoint."""
        self._check_dim(other)
        lo = []
        hi = []
        for a_lo, a_hi, b_lo, b_hi in zip(self._lo, self._hi, other._lo, other._hi):
            c_lo = max(a_lo, b_lo)
            c_hi = min(a_hi, b_hi)
            if c_lo > c_hi:
                return None
            lo.append(c_lo)
            hi.append(c_hi)
        return Rect._derived(tuple(lo), tuple(hi))

    def union(self, other: "Rect") -> "Rect":
        """Minimum bounding rectangle of the two boxes."""
        self._check_dim(other)
        return Rect._derived(
            tuple(map(min, self._lo, other._lo)), tuple(map(max, self._hi, other._hi))
        )

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed for this box to cover ``other``.

        This is Guttman's ChooseLeaf criterion: the leaf whose MBR needs the
        least enlargement receives the new entry.  Computed without building
        the union: the sides are taken as :meth:`union` takes them and
        multiplied in :meth:`area`'s order, so the result is bit-identical
        to ``self.union(other).area() - self.area()``.
        """
        self._check_dim(other)
        grown = 1.0
        area = 1.0
        for a_lo, a_hi, b_lo, b_hi in zip(self._lo, self._hi, other._lo, other._hi):
            # min(a, b) / max(a, b) keep ``a`` on ties, as union() does
            grown *= (b_hi if b_hi > a_hi else a_hi) - (b_lo if b_lo < a_lo else a_lo)
            area *= a_hi - a_lo
        return grown - area

    def overlap_area(self, other: "Rect") -> float:
        inter = self.intersection(other)
        return inter.area() if inter is not None else 0.0

    def expanded(self, amount: float) -> "Rect":
        """Grow (or shrink, for negative ``amount``) every side symmetrically."""
        return Rect(
            [a - amount for a in self._lo],
            [b + amount for b in self._hi],
        )

    def translated(self, offset: Sequence[float]) -> "Rect":
        if len(offset) != self.dim:
            raise ValueError("dimension mismatch")
        return Rect(
            [a + o for a, o in zip(self._lo, offset)],
            [b + o for b, o in zip(self._hi, offset)],
        )

    # -- plumbing ------------------------------------------------------------

    def _check_dim(self, other: "Rect") -> None:
        if len(self._lo) != len(other._lo):
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        """Iterate per-dimension ``(lo, hi)`` extents."""
        return iter(zip(self._lo, self._hi))

    def __repr__(self) -> str:
        return f"Rect({self._lo}, {self._hi})"
