"""Deterministic concurrency stress-and-race-detection harness.

See :mod:`repro.stress.harness` for the run loop, :mod:`repro.stress.
oracle` for the correctness checks, :mod:`repro.stress.faults` for the
injection machinery, :mod:`repro.stress.minimize` for failure shrinking
and :mod:`repro.stress.artifact` for replayable repro files.  The CLI
lives in ``python -m repro.stress``.
"""

from repro.stress.artifact import load_artifact, save_artifact
from repro.stress.faults import FaultPlan, InjectedAbort
from repro.stress.harness import StressConfig, StressResult, run_stress
from repro.stress.minimize import MinimizeReport, minimize
from repro.stress.oracle import Violation, check_run

__all__ = [
    "StressConfig",
    "StressResult",
    "run_stress",
    "FaultPlan",
    "InjectedAbort",
    "Violation",
    "check_run",
    "minimize",
    "MinimizeReport",
    "save_artifact",
    "load_artifact",
]
