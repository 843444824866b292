"""Profile perfbench's timed phase: cProfile on every simulated thread.

    python3 scripts/profile_phase.py scan_heavy 2
    python3 scripts/profile_phase.py write_heavy 2 --seed 3 --top 40 --out write.prof

Run from any directory.  The workload is set up as perfbench sets it up
(the set-up is not profiled), then perfbench's timed phase runs with one
``cProfile.Profile`` enabled inside each simulated client thread, from
its first step to its last.  The merged profile is printed sorted by
self time, with the number of committed transactions so that call
counts can be read per transaction; ``--out`` also writes it for
``pstats`` or ``snakeviz``.

The profiler's timer is wall time, so the time a thread spends parked
while another holds the simulator's baton shows up in the lock and
condition waits of ``repro.concurrency``.  Nothing under ``perfbench/``
or ``src/`` is edited: ``Simulator.spawn`` is wrapped for the phase and
put back after it.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import harness  # noqa: E402  (perfbench's own modules, found on the path above)
from inputs import WORKLOADS, make_inputs  # noqa: E402

from repro.concurrency.simulator import Simulator  # noqa: E402


def profile_phase(workload: str, seconds: float, seed: int):
    """Set up, then run the timed phase with every simulated thread
    profiled; returns perfbench's tally and the per-thread profiles."""
    inputs = make_inputs(workload, seed, seconds)
    systems = harness.build(inputs)
    profiles: List[cProfile.Profile] = []
    spawn = Simulator.spawn

    def profiled_spawn(sim, name, body, delay=0.0):
        profile = cProfile.Profile()
        profiles.append(profile)

        def run():
            profile.enable()
            try:
                return body()
            finally:
                profile.disable()

        return spawn(sim, name, run, delay)

    Simulator.spawn = profiled_spawn
    try:
        tally = harness.run_phase(systems, inputs)
    finally:
        Simulator.spawn = spawn
    return tally, profiles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seconds", type=float,
                        help="sizes the timed phase, as perfbench's --seconds does")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=30, help="rows to print")
    parser.add_argument("--sort", default="tottime", help="pstats sort key")
    parser.add_argument("--out", help="also write the merged profile here")
    args = parser.parse_args(argv)

    tally, profiles = profile_phase(args.workload, args.seconds, args.seed)
    if tally.errors:
        for error in tally.errors:
            print(f"phase failed: {error}", file=sys.stderr)
        return 1
    stats = pstats.Stats(profiles[0])
    for profile in profiles[1:]:
        stats.add(profile)
    if args.out:
        stats.dump_stats(args.out)
    print(f"{args.workload} seed {args.seed}, --seconds {args.seconds:g}: "
          f"{tally.committed} committed transactions, {len(profiles)} simulated threads")
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
