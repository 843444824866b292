"""Simulated disk storage: pages, a page manager, and an LRU buffer pool.

The paper's quantitative evaluation (Table 2) counts *disk page accesses*
per insertion.  This package provides the accounting substrate: every
R-tree node lives on one page, page fetches flow through a
:class:`~repro.storage.buffer.BufferPool`, and
:class:`~repro.storage.stats.IOStats` counts logical reads, physical reads
(buffer misses), writes, allocations and frees.  Benchmarks reset and read
these counters to reproduce the paper's numbers; lock traffic is counted
by the lock manager.
"""

from repro.storage.page import Page, PageId, INVALID_PAGE
from repro.storage.pager import PageManager
from repro.storage.buffer import BufferPool
from repro.storage.stats import IOStats

__all__ = ["Page", "PageId", "INVALID_PAGE", "PageManager", "BufferPool", "IOStats"]
