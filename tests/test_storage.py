"""Unit tests for pages, the pager and the buffer pool."""

import pytest

from repro.storage import BufferPool, IOStats, PageManager
from repro.storage.pager import PageError


class TestPageManager:
    def test_allocate_and_read(self):
        pm = PageManager()
        page = pm.allocate(payload="hello")
        assert pm.read(page.page_id).payload == "hello"
        assert pm.stats.logical_reads == 1

    def test_ids_monotone_and_never_recycled(self):
        pm = PageManager()
        a = pm.allocate()
        pm.free(a.page_id)
        b = pm.allocate()
        assert b.page_id > a.page_id

    def test_read_freed_page_fails(self):
        pm = PageManager()
        page = pm.allocate()
        pm.free(page.page_id)
        with pytest.raises(PageError, match="freed"):
            pm.read(page.page_id)
        assert pm.was_freed(page.page_id)

    def test_read_unallocated_fails(self):
        pm = PageManager()
        with pytest.raises(PageError, match="unallocated"):
            pm.read(9999)

    def test_double_free_fails(self):
        pm = PageManager()
        page = pm.allocate()
        pm.free(page.page_id)
        with pytest.raises(PageError):
            pm.free(page.page_id)

    def test_write_bumps_version_and_counts(self):
        pm = PageManager()
        page = pm.allocate()
        v0 = page.version
        pm.write(page.page_id)
        assert page.version == v0 + 1
        assert page.dirty
        assert pm.stats.writes == 1

    def test_peek_does_not_count(self):
        pm = PageManager()
        page = pm.allocate()
        pm.peek(page.page_id)
        assert pm.stats.logical_reads == 0

    def test_allocations_and_frees_counted(self):
        pm = PageManager()
        pages = [pm.allocate() for _ in range(3)]
        pm.free(pages[1].page_id)
        assert (pm.stats.allocations, pm.stats.frees) == (3, 1)

    def test_pager_and_pool_share_one_stats_object(self):
        pool = BufferPool(capacity=2, stats=IOStats())
        pm = PageManager(pool)
        assert pool.stats is pm.stats
        page = pm.allocate()
        pm.read(page.page_id)
        pm.read(page.page_id)
        assert (pm.stats.logical_reads, pm.stats.physical_reads) == (2, 1)


class TestBufferPool:
    def test_no_capacity_every_fetch_is_miss(self):
        stats = IOStats()
        pm = PageManager(BufferPool(capacity=None, stats=stats), stats=stats)
        page = pm.allocate()
        for _ in range(5):
            pm.read(page.page_id)
        assert stats.physical_reads == 5
        assert stats.logical_reads == 5

    def test_lru_hit(self):
        stats = IOStats()
        pm = PageManager(BufferPool(capacity=2, stats=stats), stats=stats)
        page = pm.allocate()
        pm.read(page.page_id)
        pm.read(page.page_id)
        assert stats.physical_reads == 1
        assert stats.logical_reads == 2
        assert (stats.logical_reads - stats.physical_reads) / stats.logical_reads == 0.5

    def test_lru_eviction_order(self):
        stats = IOStats()
        pool = BufferPool(capacity=2, stats=stats)
        pm = PageManager(pool, stats=stats)
        a, b, c = pm.allocate(), pm.allocate(), pm.allocate()
        pm.read(a.page_id)
        pm.read(b.page_id)
        pm.read(a.page_id)  # a is now most recent
        pm.read(c.page_id)  # evicts b
        assert a.page_id in pool.resident()
        assert b.page_id not in pool.resident()
        pm.read(b.page_id)
        assert stats.physical_reads == 4  # a, b, c, b-again

    def test_free_invalidates_frame(self):
        stats = IOStats()
        pool = BufferPool(capacity=4, stats=stats)
        pm = PageManager(pool, stats=stats)
        page = pm.allocate()
        pm.read(page.page_id)
        pm.free(page.page_id)
        assert page.page_id not in pool.resident()

    def test_top_levels_stay_resident(self):
        """The §3.4 buffer argument: hot pages (tree top) never miss."""
        stats = IOStats()
        pool = BufferPool(capacity=3, stats=stats)
        pm = PageManager(pool, stats=stats)
        hot = [pm.allocate() for _ in range(3)]
        cold = [pm.allocate() for _ in range(20)]
        for i in range(100):
            for page in hot:
                pm.read(page.page_id)
            pm.read(cold[i % len(cold)].page_id)
        # hot pages hit except their first touches... but the cold page
        # keeps evicting one hot frame (capacity 3 vs working set 4);
        # with capacity 4 they would all stay hot:
        stats2 = IOStats()
        pool2 = BufferPool(capacity=4, stats=stats2)
        pm2 = PageManager(pool2, stats=stats2)
        hot2 = [pm2.allocate() for _ in range(3)]
        cold2 = [pm2.allocate() for _ in range(20)]
        for i in range(100):
            for page in hot2:
                pm2.read(page.page_id)
            pm2.read(cold2[i % len(cold2)].page_id)
        # 3 hot first-touches + 100 cold reads (cold set > capacity)
        assert stats2.physical_reads == 3 + 100


class TestIOStats:
    def test_snapshot_and_reset(self):
        stats = IOStats()
        stats.record_read(hit=False)
        stats.record_read(hit=True)
        stats.record_write()
        stats.allocations += 2  # the pager's in-place idiom
        stats.frees += 1
        counts = {"logical_reads": 2, "physical_reads": 1, "writes": 1, "allocations": 2, "frees": 1}
        assert stats.snapshot() == counts
        stats.reset()
        assert stats.snapshot() == dict.fromkeys(counts, 0)

    def test_holds_only_the_five_counters(self):
        stats = IOStats()
        with pytest.raises(AttributeError):
            stats.reads_per_level = {}
        assert set(stats.snapshot()) == set(IOStats.__slots__)

    def test_hit_counts_as_logical_read_only(self):
        stats = IOStats()
        stats.record_read(hit=True)
        assert (stats.logical_reads, stats.physical_reads) == (1, 0)

    def test_snapshot_is_a_detached_copy(self):
        stats = IOStats()
        stats.record_write()
        snap = stats.snapshot()
        stats.record_write()
        snap["writes"] = 99
        assert stats.writes == 2
        assert stats.snapshot()["writes"] == 2

    def test_repr_shows_read_and_write_counts(self):
        stats = IOStats()
        stats.record_read(hit=False)
        stats.record_read(hit=True)
        stats.record_write()
        assert repr(stats) == "IOStats(logical=2, physical=1, writes=1)"
