"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan_heavy --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` sets up the program
several times (``setup_s`` is the fastest), runs the untraced timed phase
and prints the end-to-end metrics.  ``--trace 1`` runs the same timed
phase untraced and then, on a fresh set-up, traced; it prints the
per-layer metrics and fails if any count differs between the two.
Every run checks the program's outputs after its last timed phase.  The last
line of standard output is one JSON object: ``correct``, ``attempted``
(transaction scripts), ``failed`` (scripts that did not commit, or all of
them when a check failed) and ``metrics`` (name -> value and unit).
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: set-ups per untraced run; ``setup_s`` reports the fastest, since
#: interference from other processes only ever adds time
SETUP_REPEATS = 8
#: pause between consecutive set-ups: on the reference host interference
#: comes in bursts of a few seconds, so paused set-ups meet different ones
SETUP_PAUSE_S = 0.5
#: where traced runs write their spans, relative to the checkout root
SPANS_DIR = ".perfbench"

END_TO_END_UNITS = {
    "txn_per_s": "1/s",
    "txn_p50_ms": "ms",
    "txn_p90_ms": "ms",
    "pages_per_txn": "pages",
    "commit_frac": "1",
    "sim_txn_per_ku": "1/ku",
    "sim_txn_p50_u": "u",
    "sim_txn_p90_u": "u",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units(layers) -> dict:
    units = {}
    for layer in layers:
        units[f"{layer}.calls_per_txn"] = "calls"
        units[f"{layer}.self_ms_per_txn"] = "ms"
    units.update({
        "granules.refs_per_probe": "refs",
        "granules.refs_per_match": "refs",
        "rtree.fetches_per_match": "pages",
        "rtree.splits_per_insert": "splits",
        "protocol.restarts_per_op": "restarts",
        "lock.cond_refused_frac": "1",
        "lock.waits_per_txn": "waits",
        "lock.wait_u_per_txn": "u",
        "lock.deadlocks_per_ktxn": "1/ktxn",
        "storage.miss_frac": "1",
        "storage.writes_per_txn": "pages",
        "maintenance.ms_per_pass": "ms",
        "maintenance.removed_per_pass": "objects",
        "maintenance.requeue_frac": "1",
        "concurrency.steps_per_txn": "steps",
        "trace.overhead_frac": "1",
        "trace.coverage_frac": "1",
    })
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan_heavy", "write_heavy", "contended_sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the timed phase: seconds x the workload's nominal rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setups(inputs, repeats: int):
    """Set the program up ``repeats`` times, each time after dropping the
    previous instance; returns the last instance and every duration."""
    import harness

    systems, seconds = None, []
    for i in range(repeats):
        systems = None
        if i:
            time.sleep(SETUP_PAUSE_S)
        systems, duration = harness.timed_build(inputs)
        seconds.append(duration)
    return systems, seconds


def run(args) -> dict:
    """One run; returns the result object (see module docstring)."""
    import harness
    from inputs import make_inputs
    from layers import LAYERS, LayerTracer

    inputs = make_inputs(args.workload, args.seed, args.seconds)
    if args.trace:
        # The untraced phase gives the overhead baseline and the counts
        # the traced phase must repeat; the checks run on the traced one.
        systems, _ = harness.timed_build(inputs)
        untraced = harness.run_phase(systems, inputs)
        systems = None
        systems, _ = harness.timed_build(inputs)
        tracer = LayerTracer()
        tally = harness.run_phase(systems, inputs, tracer)
        errors = harness.check(systems, inputs, tally)
        a, b = untraced.exact(), tally.exact()
        errors += [f"traced run changed {k}: {a[k]!r} -> {b[k]!r}" for k in a if a[k] != b[k]]
        os.makedirs(os.path.join(ROOT, SPANS_DIR), exist_ok=True)
        tracer.write(os.path.join(ROOT, SPANS_DIR, f"{args.workload}.spans.tsv.gz"))
        values = harness.per_layer(tally, tracer, untraced) if tally.committed else {}
        units = per_layer_units(LAYERS)
    else:
        # Half the set-ups run before the timed phase and half after the
        # checks, tens of seconds apart, so that one burst of interference
        # cannot slow them all.
        systems, setup_s = timed_setups(inputs, SETUP_REPEATS // 2)
        tally = harness.run_phase(systems, inputs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = harness.check(systems, inputs, tally)
        systems = None
        setup_s += timed_setups(inputs, SETUP_REPEATS - SETUP_REPEATS // 2)[1]
        values = harness.end_to_end(tally, setup_s, peak_rss_mb) if tally.committed else {}
        units = END_TO_END_UNITS
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": inputs.n_scripts,
        "failed": inputs.n_scripts if errors else tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    result = run(args)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
