"""Workload and dataset generators.

:mod:`repro.workloads.datasets` generates the paper's two datasets --
32,000 uniformly distributed points and 32,000 uniformly distributed
rectangles with 5% average extent -- plus clustered and skewed variants
for robustness experiments.

:mod:`repro.workloads.operations` generates transactional operation mixes
for the concurrency experiments, and :mod:`repro.workloads.clients`
replays them as closed-loop simulated clients.
"""

from repro.workloads.datasets import (
    uniform_points,
    uniform_rects,
    clustered_rects,
    skewed_points,
    paper_point_dataset,
    paper_spatial_dataset,
)
from repro.workloads.operations import MixSpec, TxnScript, OpCall, generate_scripts

__all__ = [
    "uniform_points",
    "uniform_rects",
    "clustered_rects",
    "skewed_points",
    "paper_point_dataset",
    "paper_spatial_dataset",
    "MixSpec",
    "TxnScript",
    "OpCall",
    "generate_scripts",
]
