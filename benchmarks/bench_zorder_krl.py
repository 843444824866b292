"""§2: why not just impose a total order and reuse key-range locking?

The paper: "Imposing an artificial total order (say a Z-order) over
multidimensional data to adapt the key range idea for phantom protection
is unnatural and will result in a scheme with a high lock overhead and a
low degree of concurrency … the protection of a multidimensional region
query will require accessing additional disk pages and locking objects
which may not be in the region specified by the query."

Both halves are measured here against a full implementation of the
alternative (Z-ordered B+-tree + key-range locking,
:class:`repro.baselines.zorder_krl.ZOrderKRLIndex`):

* objects locked per region query (vs objects actually in the region, and
  vs the granule locks the R-tree protocol takes);
* leaf pages read per region query;
* blocked-writer fraction: how many random inserters would have to wait
  behind an active region scan under each scheme.
"""

import random

from repro.baselines.zorder_krl import ZOrderKRLIndex
from repro.btree import BTreeConfig
from repro.btree.krl import range_resource
from repro.btree.zorder import z_encode_rect, z_range_for_rect
from repro.core import PhantomProtectedRTree
from repro.core.protocol import OpContext
from repro.experiments import render_table
from repro.geometry import Rect
from repro.lock.modes import LockMode
from repro.rtree.tree import RTreeConfig
from repro.workloads import uniform_rects

from benchmarks.conftest import report, scale

UNIT = Rect((0.0, 0.0), (1.0, 1.0))
EXTENT = 0.02
EXPANSION = 0.05


def build_both(n, seed=0):
    objects = uniform_rects(n, seed=seed, extent_fraction=EXTENT)
    zidx = ZOrderKRLIndex(
        max_object_extent=EXPANSION, btree_config=BTreeConfig(max_keys=32)
    )
    with zidx.transaction("load") as txn:
        for oid, rect in objects:
            zidx.insert(txn, oid, rect)
    ridx = PhantomProtectedRTree(RTreeConfig(max_entries=32, universe=UNIT))
    with ridx.transaction("load") as txn:
        for oid, rect in objects:
            ridx.insert(txn, oid, rect)
    return objects, zidx, ridx


def random_query(rng, edge):
    x, y = rng.random() * (1 - edge), rng.random() * (1 - edge)
    return Rect((x, y), (x + edge, y + edge))


def test_locks_and_io_per_region_query(benchmark):
    n = scale(3_000, 32_000)

    def run():
        objects, zidx, ridx = build_both(n)
        rng = random.Random(1)
        rows = []
        for edge in (0.02, 0.05, 0.10):
            z_locked = z_matched = z_reads = 0
            r_locked = r_reads = 0
            queries = 30
            for _ in range(queries):
                q = random_query(rng, edge)
                with zidx.transaction() as txn:
                    zidx.stats.reset()
                    res = zidx.read_scan(txn, q)
                    z_reads += zidx.stats.physical_reads
                z_locked += res.interval_entries
                z_matched += len(res.matches)
                with ridx.transaction() as txn:
                    ridx.stats.reset()
                    rres = ridx.read_scan(txn, q)
                    r_reads += ridx.stats.physical_reads
                r_locked += len(rres.locks_taken)
            rows.append(
                [
                    f"{edge:.2f}",
                    f"{z_matched / queries:.1f}",
                    f"{z_locked / queries:.1f}",
                    f"{z_reads / queries:.1f}",
                    f"{r_locked / queries:.1f}",
                    f"{r_reads / queries:.1f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        render_table(
            [
                "query edge",
                "objects in region",
                "Z-KRL entries locked",
                "Z-KRL pages read",
                "DGL granule locks",
                "DGL pages read",
            ],
            rows,
            title=f"§2 -- Z-order KRL vs granular locking, region queries (n={n})",
        )
    )
    # The §2 claim: the Z-interval locks far more objects than the region
    # holds, while the granular scheme's lock count stays proportional.
    for row in rows:
        in_region = float(row[1])
        z_locked = float(row[2])
        dgl_locks = float(row[4])
        assert z_locked > in_region * 2, "Z-interval should over-lock heavily"
        assert dgl_locks < z_locked, "granular locks should undercut the Z-interval"


def test_better_curve_does_not_fix_it(benchmark):
    """The usual rebuttal to §2 is "use a Hilbert curve".  Measure the
    covering-interval looseness (interval span / query cells) for both
    curves: Hilbert is often tighter, but a single interval of *any*
    space-filling curve over-covers rectangles by orders of magnitude for
    queries that straddle high-order curve boundaries -- §2's conclusion
    is curve-independent."""
    from repro.btree.hilbert import h_range_for_rect
    from repro.btree.zorder import z_range_for_rect

    bits = 8
    key_space = 1 << (2 * bits)

    def run():
        rng = random.Random(9)
        rows = []
        for edge in (0.02, 0.05, 0.10):
            z_ratios = []
            h_ratios = []
            for _ in range(40):
                q = random_query(rng, edge)
                cells = (max(1, int(edge * ((1 << bits) - 1)) + 1)) ** 2
                z_lo, z_hi = z_range_for_rect(q, UNIT, bits=bits)
                h_lo, h_hi = h_range_for_rect(q, UNIT, bits=bits)
                z_ratios.append((z_hi - z_lo + 1) / cells)
                h_ratios.append((h_hi - h_lo + 1) / cells)
            z_ratios.sort()
            h_ratios.sort()
            rows.append(
                [
                    f"{edge:.2f}",
                    f"{z_ratios[len(z_ratios) // 2]:.0f}x",
                    f"{max(z_ratios):.0f}x",
                    f"{h_ratios[len(h_ratios) // 2]:.0f}x",
                    f"{max(h_ratios):.0f}x",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        render_table(
            ["query edge", "Z median over-cover", "Z worst", "Hilbert median", "Hilbert worst"],
            rows,
            title="§2 (companion) -- single-interval over-coverage, Z-order vs Hilbert",
        )
    )
    # both curves over-cover by a large factor in the worst case
    for row in rows:
        assert float(row[2].rstrip("x")) > 10
        assert float(row[4].rstrip("x")) > 10


def test_blocked_writer_fraction(benchmark):
    """Concurrency loss: the fraction of random inserters that would
    block behind one active region scan, per scheme."""
    n = scale(2_000, 8_000)

    def run():
        objects, zidx, ridx = build_both(n, seed=2)
        rng = random.Random(3)
        q = Rect((0.45, 0.45), (0.55, 0.55))  # straddles the Z centre seam
        probes = [random_query(rng, EXTENT) for _ in range(200)]

        # hold the scan locks in each index
        z_txn = zidx.begin("scanner")
        zidx.read_scan(z_txn, q)
        r_txn = ridx.begin("scanner")
        ridx.read_scan(r_txn, q)

        z_blocked = 0
        for probe in probes:
            key = z_encode_rect(probe, UNIT)
            nxt = zidx.tree.first_at_or_after(key + 1)
            resource = range_resource(nxt if nxt is not None else ("+inf",))
            if zidx.lock_manager.has_conflicting_holder(resource, LockMode.X):
                z_blocked += 1

        r_blocked = 0
        for probe in probes:
            plan = ridx.tree.plan_insert(probe)
            wants = ridx.protocol._insert_wants(  # noqa: SLF001 - introspection
                OpContext(ridx.lock_manager, "probe"), plan, "probe", probe
            )
            if any(
                ridx.lock_manager.has_conflicting_holder(resource, mode)
                for resource, mode, _dur in wants
            ):
                r_blocked += 1

        zidx.commit(z_txn)
        ridx.commit(r_txn)
        return z_blocked / len(probes), r_blocked / len(probes), q
    z_frac, r_frac, q = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        render_table(
            ["scheme", "% of random inserters blocked by one 10% scan"],
            [
                ["Z-order + KRL", f"{100 * z_frac:.0f}%"],
                ["DGL (R-tree granules)", f"{100 * r_frac:.0f}%"],
            ],
            title="§2 -- concurrency loss behind an active region scan",
        )
    )
    assert z_frac > r_frac, "KRL should block more writers than granular locking"
