"""An LRU buffer pool over the page store.

The paper's overhead argument (§3.4) leans on the buffer pool: "the pages
corresponding to the three highest levels of the R-tree will always be
kept in memory thus requiring no I/O to access them".  The pool therefore
supports both a bounded-capacity LRU mode (to reproduce that effect) and
an unbounded mode where every fetch is a miss (to reproduce Table 2's raw
disk-access counts).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.storage.page import Page, PageId
from repro.storage.stats import IOStats


class BufferPool:
    """A fixed-capacity LRU cache of pages.

    ``capacity=None`` means "cache nothing": every fetch is counted as a
    physical read, which models a cold cache and matches how Table 2 counts
    accesses.  ``capacity=0`` is treated the same way.  Pinned pages are not
    modelled separately -- structure modifications are atomic with respect
    to the simulator's context switches (see DESIGN.md), so pages cannot be
    evicted mid-operation in a way that matters.
    """

    def __init__(self, capacity: Optional[int] = None, stats: Optional[IOStats] = None) -> None:
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStats()
        self._frames: "OrderedDict[PageId, Page]" = OrderedDict()
        #: observability tracer (see :mod:`repro.obs`): misses -- the
        #: physical reads the paper counts -- are emitted as
        #: ``buffer.miss`` events; hits stay untraced (volume).  ``None``
        #: (default) costs one attribute test per miss, nothing per hit.
        self.tracer = None

    def fetch(self, page: Page) -> Page:
        """Route a page access through the pool, recording hit/miss."""
        if not self.capacity:
            self.stats.record_read(hit=False)
            if self.tracer is not None:
                self.tracer.emit("buffer.miss", page=page.page_id)
            return page
        pid = page.page_id
        try:
            # Single dict operation for the hit path (vs. a separate
            # membership probe followed by move_to_end).
            self._frames.move_to_end(pid)
        except KeyError:
            pass
        else:
            self.stats.record_read(hit=True)
            return page
        self.stats.record_read(hit=False)
        if self.tracer is not None:
            self.tracer.emit("buffer.miss", page=pid)
        self._frames[pid] = page
        while len(self._frames) > self.capacity:
            self._frames.popitem(last=False)
        return page

    def invalidate(self, page_id: PageId) -> None:
        """Drop a freed page from the pool."""
        self._frames.pop(page_id, None)

    def clear(self) -> None:
        self._frames.clear()

    def resident(self) -> Dict[PageId, Page]:
        return dict(self._frames)

    def __len__(self) -> int:
        return len(self._frames)

    def __repr__(self) -> str:
        cap = "∞" if self.capacity is None else self.capacity
        return f"BufferPool(capacity={cap}, resident={len(self._frames)})"
