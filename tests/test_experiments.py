"""Unit tests for the experiment engines (small configurations)."""

import pytest

from repro.experiments import (
    INDEX_KINDS,
    RunConfig,
    boundary_change_fraction,
    compare_kinds,
    measure_insertion_overhead,
    render_table,
    run_workload,
)
from repro.experiments.table2 import count_overlapping_path_accesses, fanout_for_height
from repro.rtree import RTree, RTreeConfig
from repro.workloads import MixSpec

from tests.conftest import TEN, rect


class TestTable2Engine:
    def test_root_always_counted_once(self):
        tree = RTree(RTreeConfig(max_entries=4, universe=TEN))
        for i in range(12):
            tree.insert(i, rect(i / 2, i / 2, i / 2 + 0.4, i / 2 + 0.4))
        assert tree.height >= 2
        counts = count_overlapping_path_accesses(tree, rect(0, 0, 0.1, 0.1))
        assert counts[1] == 1

    def test_leaf_level_never_counted(self):
        tree = RTree(RTreeConfig(max_entries=4, universe=TEN))
        for i in range(30):
            tree.insert(i, rect(i / 4, i / 4, i / 4 + 0.3, i / 4 + 0.3))
        counts = count_overlapping_path_accesses(tree, rect(1, 1, 2, 2))
        assert tree.height not in counts

    def test_measure_produces_all_index_levels(self):
        row = measure_insertion_overhead(
            "point", fanout=8, n_objects=1500, measured=300, bulk_build=True
        )
        assert row.height >= 3
        assert set(row.ada_per_level) == set(range(1, row.height))
        assert row.ada_per_level[1] == 1.0  # exactly one root page

    def test_spatial_overhead_exceeds_point_overhead(self):
        point = measure_insertion_overhead(
            "point", fanout=8, n_objects=2000, measured=400, bulk_build=True
        )
        spatial = measure_insertion_overhead(
            "spatial", fanout=8, n_objects=2000, measured=400, bulk_build=True
        )
        assert spatial.total_overhead > point.total_overhead

    def test_ada_grows_toward_lower_levels(self):
        row = measure_insertion_overhead(
            "spatial", fanout=8, n_objects=2000, measured=400, bulk_build=True
        )
        levels = sorted(row.ada_per_level)
        assert row.ada_per_level[levels[-1]] >= row.ada_per_level[levels[0]]

    def test_fanout_for_height(self):
        f3 = fanout_for_height(3, 8000)
        f5 = fanout_for_height(5, 8000)
        assert f3 > f5

    def test_unknown_data_kind_rejected(self):
        with pytest.raises(ValueError):
            measure_insertion_overhead("volumetric", n_objects=10)


class TestFanoutSweep:
    def test_fraction_decreases_with_fanout(self):
        small = boundary_change_fraction("point", fanout=8, n_objects=3000,
                                         measured=1000, bulk_build=True)
        large = boundary_change_fraction("point", fanout=50, n_objects=3000,
                                         measured=1000, bulk_build=True)
        assert 0 < large.fraction < small.fraction < 1

    def test_result_counts_consistent(self):
        res = boundary_change_fraction("spatial", fanout=16, n_objects=2000,
                                       measured=500, bulk_build=True)
        assert res.measured_insertions == 500
        assert 0 <= res.splits <= res.boundary_changing <= 500
        assert res.percent == pytest.approx(100 * res.fraction)


class TestRunner:
    QUICK = dict(n_preload=60, n_workers=4, txns_per_worker=2, ops_per_txn=3, fanout=6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(index_kind="nope")

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_every_kind_runs_clean(self, kind):
        metrics = run_workload(RunConfig(index_kind=kind, seed=3, **self.QUICK))
        assert metrics.committed > 0
        assert metrics.sim_time > 0
        assert metrics.operations > 0
        if kind != "object-lock":
            assert metrics.phantom_anomalies == 0

    def test_same_scripts_same_work(self):
        cfg = RunConfig(seed=5, **self.QUICK)
        a = run_workload(cfg)
        b = run_workload(cfg)
        assert a.committed == b.committed
        assert a.sim_time == b.sim_time  # fully deterministic

    def test_compare_kinds_shares_workload(self):
        cfg = RunConfig(seed=2, mix=MixSpec(read_scan=0.45, insert=0.4, delete=0.05,
                                            update_single=0.0), **self.QUICK)
        res = compare_kinds(["dgl-on-growth", "tree-lock"], cfg)
        assert set(res) == {"dgl-on-growth", "tree-lock"}
        # both schemes attempt the same scripts; each commits at most once
        # per script (aborted attempts are retried up to a bound)
        n_scripts = cfg.n_workers * cfg.txns_per_worker
        for metrics in res.values():
            assert 0 < metrics.committed <= n_scripts

    def test_tree_lock_slower_than_dgl_under_contention(self):
        # single seeds are noisy at this scale; compare seed-averaged means
        # on a dense dataset (the paper's regime: leaf granules tile the
        # space, so scans rarely hit the contended external granules)
        totals = {"dgl-on-growth": 0.0, "tree-lock": 0.0}
        for seed in range(3):
            cfg = RunConfig(
                seed=seed,
                n_preload=800,
                n_workers=6,
                txns_per_worker=3,
                ops_per_txn=3,
                fanout=12,
                mix=MixSpec(read_scan=0.45, insert=0.45, delete=0.0, update_single=0.0,
                            scan_extent=0.05, object_extent=0.03, think_time=10.0),
            )
            for kind, metrics in compare_kinds(list(totals), cfg).items():
                totals[kind] += metrics.throughput
        assert totals["dgl-on-growth"] > totals["tree-lock"]

    @pytest.mark.parametrize("kind", ["dgl-on-growth", "predicate-lock", "tree-lock"])
    def test_traffic_excludes_preload_and_vacuum(self, kind):
        # No workload transactions: the preload's inserts and the closing
        # vacuum take locks and read pages, but none of it is the workload's.
        quick = dict(self.QUICK, n_workers=0, n_preload=200)
        metrics = run_workload(RunConfig(index_kind=kind, seed=2, **quick))
        assert metrics.operations == 0
        assert metrics.lock_acquisitions == 0
        assert metrics.physical_reads == 0
        assert metrics.locks_per_op == 0.0

    def test_predicate_lock_pays_comparisons(self):
        metrics = run_workload(RunConfig(index_kind="predicate-lock", seed=4, **self.QUICK))
        assert metrics.predicate_comparisons > 0

    def test_update_scan_mix_runs_clean(self):
        cfg = RunConfig(
            seed=6,
            mix=MixSpec(read_scan=0.3, insert=0.3, delete=0.05, update_single=0.05,
                        update_scan=0.2),
            **self.QUICK,
        )
        for kind in ("dgl-on-growth", "tree-lock", "predicate-lock"):
            from dataclasses import replace

            metrics = run_workload(replace(cfg, index_kind=kind))
            assert metrics.committed > 0
            assert metrics.phantom_anomalies == 0
            assert metrics.serializable

    def test_zorder_krl_runs_in_comparison(self):
        metrics = run_workload(RunConfig(index_kind="zorder-krl", seed=7, **self.QUICK))
        assert metrics.committed > 0
        assert metrics.phantom_anomalies == 0


class TestReporting:
    def test_render_table_alignment(self):
        out = render_table(["a", "long-header"], [[1, 2.345], ["xx", 7]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "2.35" in out  # float formatting
