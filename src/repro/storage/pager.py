"""Page allocation and access.

The :class:`PageManager` owns every page of one "file" (one R-tree), hands
out page ids, and routes all reads through the buffer pool so experiments
see the same access counts a disk-based system would.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.storage.buffer import BufferPool
from repro.storage.page import INVALID_PAGE, Page, PageId
from repro.storage.stats import IOStats


class PageError(Exception):
    """Raised on access to unallocated or freed pages."""


class PageManager:
    """Allocates pages and mediates every access to them.

    Freed page ids are *not* recycled: the locking protocol uses page ids as
    lock resource ids, and recycling an id while some transaction still
    holds a commit-duration lock naming it would silently alias two distinct
    granules.  (Real systems solve this with log sequence numbers; a
    monotone id is the simplest sound choice here.)
    """

    def __init__(self, buffer_pool: Optional[BufferPool] = None, stats: Optional[IOStats] = None) -> None:
        self.stats = stats if stats is not None else IOStats()
        self.buffer_pool = buffer_pool if buffer_pool is not None else BufferPool(stats=self.stats)
        # Share one stats object between pager and pool.
        self.buffer_pool.stats = self.stats
        self._pages: Dict[PageId, Page] = {}
        self._next_id: PageId = 1
        self._freed: set[PageId] = set()

    # -- lifecycle ---------------------------------------------------------

    def allocate(self, payload: Any = None) -> Page:
        page = Page(self._next_id, payload)
        self._pages[page.page_id] = page
        self._next_id += 1
        self.stats.allocations += 1
        return page

    def free(self, page_id: PageId) -> None:
        if page_id not in self._pages:
            raise PageError(f"free of unallocated page {page_id}")
        del self._pages[page_id]
        self._freed.add(page_id)
        self.buffer_pool.invalidate(page_id)
        self.stats.frees += 1

    # -- access --------------------------------------------------------------

    def read(self, page_id: PageId) -> Page:
        """Fetch a page for reading, counting the access."""
        page = self._lookup(page_id)
        return self.buffer_pool.fetch(page)

    def write(self, page_id: PageId) -> Page:
        """Fetch a page for modification; marks it dirty and counts a write."""
        page = self._lookup(page_id)
        page.mark_dirty()
        self.stats.record_write()
        return page

    def peek(self, page_id: PageId) -> Page:
        """Access without accounting -- for validators and debug dumps only."""
        return self._lookup(page_id)

    def exists(self, page_id: PageId) -> bool:
        return page_id in self._pages

    def was_freed(self, page_id: PageId) -> bool:
        return page_id in self._freed

    def all_page_ids(self) -> List[PageId]:
        return list(self._pages)

    def _lookup(self, page_id: PageId) -> Page:
        if page_id == INVALID_PAGE:
            raise PageError("access to INVALID_PAGE")
        try:
            return self._pages[page_id]
        except KeyError:
            kind = "freed" if page_id in self._freed else "unallocated"
            raise PageError(f"access to {kind} page {page_id}") from None

    def __len__(self) -> int:
        return len(self._pages)

    def __repr__(self) -> str:
        return f"PageManager({len(self._pages)} pages, next_id={self._next_id})"
