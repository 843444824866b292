"""The lockable granules (paper §3.1).

Two granule kinds partition the embedded space ``S``:

* **leaf granules** -- one per leaf node: the lowest-level bounding
  rectangle, locked by the leaf's page id;
* **external granules** -- one per non-leaf node ``T``: ``T_s`` minus the
  union of ``T``'s children's rectangles, locked by ``T``'s page id.
  ``T_s`` is the space covered by ``T`` -- its own bounding rectangle,
  except for the root where ``T_s`` is the whole embedded space ``S``.

Together they cover ``S`` (tested by :meth:`GranuleSet.coverage_leftover`
and, node by node, by :meth:`GranuleSet.loose_entries`), they adapt to
the data distribution as the tree changes, and any scan predicate maps
to a small set of purely physical lock names.

The protocol only ever asks whether a predicate overlaps an external
granule, so the region ``T_s − ⋃ children`` is never built on the lock
path: :meth:`GranuleSet.overlapping` subtracts the children that touch
the predicate from the predicate clipped to ``T_s`` and stops at the
first piece left over.  :meth:`GranuleSet.external_region` still builds
the whole region, as the reference the tests and the stress oracle
check the walk against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from operator import le
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.geometry import Rect, Region
from repro.lock.resource import ResourceId
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.storage.page import PageId

Predicate = Union[Rect, Region]

Coords = Tuple[float, ...]


def _predicate_parts(predicate: Predicate) -> Sequence[Rect]:
    return (predicate,) if isinstance(predicate, Rect) else predicate.parts


@dataclass(frozen=True)
class GranuleRef:
    """One granule: its lock name and the page that defines it."""

    resource: ResourceId
    is_leaf: bool
    page_id: PageId


class _RefTable(Dict[PageId, GranuleRef]):
    """Page id -> the one :class:`GranuleRef` of one granule kind, built
    on first use.  A ref depends only on the page id and the kind, which
    together are its key, so no tree change can make one stale: a page id
    that came back at another level would be looked up in the other
    kind's table (the pager never hands a freed id out again anyway)."""

    def __init__(self, name: Callable[[int], ResourceId], is_leaf: bool) -> None:
        super().__init__()
        self.name = name
        self.is_leaf = is_leaf

    def __missing__(self, page_id: PageId) -> GranuleRef:
        ref = self[page_id] = GranuleRef(self.name(page_id), self.is_leaf, page_id)
        return ref


class GranuleSet:
    """Geometric queries over the current granules of one R-tree.

    All traversals count I/O through the tree's pager, because lock
    acquisition traffic is exactly the overhead the paper measures.
    Granule refs (and the lock names inside them) are built once per
    page and kind and handed out again on every walk, so a scan builds
    no objects per granule and lock-table lookups find their key by
    identity.
    """

    def __init__(self, tree: RTree) -> None:
        self.tree = tree
        self._leaf_refs = _RefTable(ResourceId.leaf, True)
        self._ext_refs = _RefTable(ResourceId.ext, False)

    def leaf_name(self, page_id: PageId) -> ResourceId:
        """The lock name of the leaf granule on ``page_id``, from the same
        per-page table the walks use (so writers and scans share it)."""
        return self._leaf_refs[page_id].resource

    def ext_name(self, page_id: PageId) -> ResourceId:
        """The lock name of the external granule of the node on ``page_id``."""
        return self._ext_refs[page_id].resource

    def external_region(self, node: Node) -> Region:
        """The external granule of a non-leaf node: ``T_s − ⋃ children``.

        The reference geometry: the lock path never builds it (see
        :meth:`overlapping`).
        """
        assert not node.is_leaf
        if node.page_id == self.tree.root_id:
            space: Optional[Rect] = self.tree.config.universe
        else:
            space = node.mbr()
        if space is None:
            return Region()
        return Region.difference(space, node.child_rects())

    # ------------------------------------------------------------------
    # predicate -> granules
    # ------------------------------------------------------------------

    def overlapping(self, predicate: Predicate) -> List[GranuleRef]:
        """Every granule whose space overlaps the predicate.

        Leaf granules by closed-box overlap against their MBR; external
        granules by positive-measure overlap against their region.  (A
        predicate that merely touches leftover space between granules is
        already protected by the closed leaf boxes on either side.)  A
        degenerate (point or line) predicate has no interior, so it
        overlaps an external granule on closed contact instead.
        """
        return self._walk(predicate, None)

    def _walk(
        self, predicate: Predicate, geometry: Optional[List[List[Rect]]]
    ) -> List[GranuleRef]:
        """The walk behind :meth:`overlapping`.  With ``geometry`` given,
        also append, per ref, the granule's pieces the predicate overlaps:
        a leaf's MBR, or an external granule's leftover pieces (all of
        them, not only the first).

        A rect predicate picks each node's touching entries with one
        :meth:`~repro.rtree.node.Node.overlapping` call; a region
        tests its parts entry by entry.  Refs come from the per-page
        tables, not built here.
        """
        refs: List[GranuleRef] = []
        parts = [(p, p.is_degenerate()) for p in _predicate_parts(predicate)]
        if not parts:
            return refs
        tree = self.tree
        leaf_refs = self._leaf_refs
        root = tree.root()
        if root.is_leaf:
            # Degenerate single-node tree: the lone leaf granule is the
            # whole embedded space for locking purposes (there is no
            # non-leaf node to own an external granule).
            refs.append(leaf_refs[root.page_id])
            if geometry is not None:
                geometry.append([tree.config.universe])
            return refs
        single = parts[0][0] if len(parts) == 1 else None
        # ``T_s`` of a child is its entry rect in the parent, which equals
        # the child's MBR (``validate_tree``); the root's is the universe.
        stack = [(root, tree.config.universe)]
        while stack:
            node, space = stack.pop()
            if single is not None:
                hits = node.overlapping(single)
            else:
                hits = [
                    e for e in node.entries if any(e.rect.intersects(p) for p, _ in parts)
                ]
            # Only the children touching the predicate can cut the part
            # of the external granule the predicate overlaps.
            children = [e.rect for e in hits]
            pieces: Optional[List[Rect]] = None if geometry is None else []
            found = False
            for p, degenerate in parts:
                if _external_overlaps(space, children, p, degenerate, pieces):
                    found = True
                    if pieces is None:
                        break
            if found:
                refs.append(self._ext_refs[node.page_id])
                if geometry is not None:
                    geometry.append(pieces)  # type: ignore[arg-type]
            if node.level == 1:
                refs += [leaf_refs[entry.child_id] for entry in hits]  # type: ignore[union-attr]
                if geometry is not None:
                    geometry += [[entry.rect] for entry in hits]
            else:
                for entry in hits:
                    stack.append((tree.node(entry.child_id), entry.rect))  # type: ignore[union-attr]
        return refs

    def covering(self, predicate: Rect) -> Tuple[List[GranuleRef], List[GranuleRef]]:
        """Split the overlapping granules into a greedy *covering set* and
        the remainder.

        The covering set's union contains the predicate (used by
        UpdateScan: SIX on the cover, S on the rest).  Greedy choice:
        granules in decreasing overlap-measure order until the predicate
        is exhausted.  This is the natural approximation of the paper's
        "minimal set of granules sufficient to fully cover the predicate"
        (exact minimality is set-cover, and nothing in the protocol's
        correctness depends on it).  Each granule takes part with the
        pieces of it the walk found overlapping the predicate.
        """
        geometry: List[List[Rect]] = []
        refs = self._walk(predicate, geometry)
        # Measure within the predicate's own extent: a line has no area
        # but a length, which the greedy choice must see shrink.
        axes = [a for a, (lo, hi) in enumerate(predicate) if lo < hi]

        def measure(rects: Sequence[Rect]) -> float:
            total = 0.0
            for r in rects:
                prod = 1.0
                for a in axes:
                    prod *= r.hi[a] - r.lo[a]
                total += prod
            return total

        pieces: List[Tuple[float, GranuleRef, Sequence[Rect]]] = []
        for ref, granule in zip(refs, geometry):
            clipped = [r for r in (g.intersection(predicate) for g in granule) if r is not None]
            pieces.append((measure(clipped), ref, granule))

        remaining = Region.from_rect(predicate)
        cover: List[GranuleRef] = []
        rest: List[GranuleRef] = []
        for _measure, ref, granule in sorted(pieces, key=lambda p: -p[0]):
            if remaining.is_empty():
                rest.append(ref)
                continue
            before = measure(remaining.parts)
            remaining = remaining.subtract(granule)
            if measure(remaining.parts) < before or remaining.is_empty():
                cover.append(ref)
            else:
                rest.append(ref)
        return cover, rest

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def coverage_leftover(self) -> Region:
        """Universe minus every granule; empty iff the granules cover ``S``.

        This is the paper's central geometric claim: the lowest-level BRs
        plus the external granules of all non-leaf nodes tile the embedded
        space.  Its cost grows steeply with the dimension; see
        :meth:`loose_entries` for the node-local check.
        """
        region = Region.from_rect(self.tree.config.universe)
        root = self.tree.pager.peek(self.tree.root_id).payload
        if root.is_leaf:
            # Degenerate single-node tree: the lone leaf granule stands for
            # the whole embedded space (mirrors :meth:`overlapping`).
            return Region()
        for node in self.tree.iter_nodes():
            if node.is_leaf:
                mbr = node.mbr()
                if mbr is not None:
                    region = region.subtract([mbr])
            else:
                region = region.subtract(self.external_region(node).parts)
            if region.is_empty():
                break
        return region

    def loose_entries(self) -> List[Tuple[PageId, Rect]]:
        """Node-local coverage check: the ``(page, entry rect)`` pairs that
        stick out of the space their granules cover; empty iff none do.

        A non-leaf entry's rect is the space its parent's external granule
        leaves to the child, and the child's granules cover exactly the
        child's MBR; a root entry must stay inside the universe the root's
        external granule is cut from.  So an entry rect inside its child's
        MBR everywhere leaves no gap in ``S`` -- what
        :meth:`coverage_leftover` checks globally, at a cost linear in the
        node count in any dimension.
        """
        loose: List[Tuple[PageId, Rect]] = []
        tree = self.tree
        universe = tree.config.universe
        for node in tree.iter_nodes():
            if node.is_leaf:
                continue
            is_root = node.page_id == tree.root_id
            for entry in node.entries:
                child_mbr = tree.pager.peek(entry.child_id).payload.mbr()  # type: ignore[union-attr]
                inside = child_mbr is not None and child_mbr.contains(entry.rect)
                if not inside or (is_root and not universe.contains(entry.rect)):
                    loose.append((node.page_id, entry.rect))
        return loose

    def granule_count(self) -> Tuple[int, int]:
        """(leaf granules, external granules) currently in the tree."""
        leaves = 0
        exts = 0
        for node in self.tree.iter_nodes():
            if node.is_leaf:
                leaves += 1
            else:
                exts += 1
        return leaves, exts


def _external_overlaps(
    space: Rect,
    children: Sequence[Rect],
    predicate: Rect,
    degenerate: bool,
    out: Optional[List[Rect]],
) -> bool:
    """Does the external granule ``space − ⋃ children`` overlap the predicate?

    A non-degenerate predicate needs positive-measure overlap, so the
    sweep starts from ``predicate ∩ space``.  A degenerate one needs
    closed contact, which a point on a child's face has with the granule
    outside it, so the sweep starts from the whole ``space`` and keeps
    the pieces touching the predicate: exactly
    ``Region.difference(space, children).intersects(predicate)``.
    """
    plo, phi = predicate.lo, predicate.hi
    if degenerate:
        if not space.intersects(predicate):
            return False
        return _leftover(list(space.lo), list(space.hi), children, 0, plo, phi, True, out)
    lo = [b if b > a else a for a, b in zip(space.lo, plo)]
    hi = [b if b < a else a for a, b in zip(space.hi, phi)]
    for a, b in zip(lo, hi):
        if a >= b:
            return False
    if out is None:
        # Exact shortcuts that settle nearly every call before the sweep.
        # A child containing the clipped box leaves nothing of it.  A
        # point of the box (a corner or the centre) outside every closed
        # child has an open neighbourhood outside them all, which meets
        # the box (it has interior) in positive measure.
        for c in children:
            if all(map(le, c.lo, lo)) and all(map(le, hi, c.hi)):
                return False
        centre = tuple([(a + b) / 2 for a, b in zip(lo, hi)])
        for point in chain(product(*zip(lo, hi)), (centre,)):
            if not any(all(map(le, c.lo, point)) and all(map(le, point, c.hi)) for c in children):
                return True
    return _leftover(lo, hi, children, 0, plo, phi, False, out)


def _leftover(
    lo: List[float],
    hi: List[float],
    children: Sequence[Rect],
    start: int,
    plo: Coords,
    phi: Coords,
    closed: bool,
    out: Optional[List[Rect]],
) -> bool:
    """Does the box ``[lo, hi]`` minus ``children[start:]`` keep a piece
    the predicate ``[plo, phi]`` overlaps (closed contact when ``closed``,
    else positive measure inside a box already clipped to the predicate)?

    Splits the way :func:`repro.geometry.region._subtract_one` does, on
    coordinate lists, and drops every piece the predicate misses before
    splitting it further.  Returns on the first surviving piece, unless
    ``out`` collects them all.  The box's lists are only read.
    """
    dim = len(lo)
    for i in range(start, len(children)):
        child = children[i]
        ilo: List[float] = []
        ihi: List[float] = []
        for a_lo, a_hi, c_lo, c_hi in zip(lo, hi, child.lo, child.hi):
            x = c_lo if c_lo > a_lo else a_lo
            y = c_hi if c_hi < a_hi else a_hi
            if x > y:
                break
            ilo.append(x)
            ihi.append(y)
        if len(ilo) < dim:
            continue  # the child misses the box
        if ilo == lo and ihi == hi:
            return False  # the child covers the box
        found = False
        cur_lo = list(lo)
        cur_hi = list(hi)
        for axis in range(dim):
            if cur_lo[axis] < ilo[axis]:
                piece_hi = list(cur_hi)
                piece_hi[axis] = ilo[axis]
                if _kept(cur_lo, piece_hi, plo, phi, closed) and _leftover(
                    cur_lo, piece_hi, children, i + 1, plo, phi, closed, out
                ):
                    if out is None:
                        return True
                    found = True
            if ihi[axis] < cur_hi[axis]:
                piece_lo = list(cur_lo)
                piece_lo[axis] = ihi[axis]
                if _kept(piece_lo, cur_hi, plo, phi, closed) and _leftover(
                    piece_lo, cur_hi, children, i + 1, plo, phi, closed, out
                ):
                    if out is None:
                        return True
                    found = True
            # Clamp this axis to the child's band before carving the next
            # axis, so the pieces stay interior-disjoint.
            cur_lo[axis] = ilo[axis]
            cur_hi[axis] = ihi[axis]
        return found
    if out is not None:
        out.append(Rect(lo, hi))
    return True


def _kept(lo: List[float], hi: List[float], plo: Coords, phi: Coords, closed: bool) -> bool:
    """Does the predicate overlap the piece ``[lo, hi]``?"""
    if closed:
        for a, b, c, d in zip(lo, hi, plo, phi):
            if b < c or d < a:
                return False
        return True
    for a, b in zip(lo, hi):
        if a >= b:
            return False
    return True
