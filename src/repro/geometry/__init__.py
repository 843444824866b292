"""Axis-aligned rectangle geometry for n-dimensional key spaces.

The granular locking protocol reasons about three geometric objects:

* :class:`Rect` -- the minimum bounding rectangles (MBRs) stored in R-tree
  nodes and the predicates of scan operations.
* :class:`Region` -- a finite union of disjoint rectangles.  External
  granules (``T_s`` minus the union of the children of ``T``) are generally
  not rectangular; a region materialises one as disjoint boxes.
* helpers in :mod:`repro.geometry.ops` for enlargement, margin and overlap
  computations used by the R-tree split heuristics.
"""

from repro.geometry.rect import Rect
from repro.geometry.region import Region, subtract_rects

__all__ = ["Rect", "Region", "subtract_rects"]
