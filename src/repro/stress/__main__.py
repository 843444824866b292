"""Command-line stress sweeps: ``python -m repro.stress --seed 0..99``.

Runs one deterministic stress schedule per seed; any oracle or audit
violation fails the sweep (exit code 1) and writes a replayable JSON
artifact.
``--minimize`` shrinks each failure before writing it; ``--replay FILE``
re-runs a saved artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List

from repro.stress.artifact import load_artifact, save_artifact
from repro.stress.harness import POLICIES, StressConfig, run_stress
from repro.stress.minimize import minimize


def parse_seeds(text: str) -> List[int]:
    """``"7"``, ``"0..99"`` (inclusive), or comma-separated combinations."""
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stress",
        description="Deterministic concurrency stress sweep for the DGL R-tree.",
    )
    parser.add_argument("--seed", type=parse_seeds, default=[0], metavar="N|A..B|A,B,C",
                        help="seeds to sweep (default: 0)")
    parser.add_argument("--policy", choices=sorted(POLICIES), default="on-growth")
    parser.add_argument("--workers", type=int, default=5)
    parser.add_argument("--txns", type=int, default=2, help="transactions per worker")
    parser.add_argument("--ops", type=int, default=4, help="operations per transaction")
    parser.add_argument("--preload", type=int, default=60)
    parser.add_argument("--fanout", type=int, default=5)
    parser.add_argument("--no-faults", action="store_true",
                        help="disable all fault injection (plain interleaving only)")
    parser.add_argument("--duration", type=float, default=0.0, metavar="SECONDS",
                        help="stop sweeping after this much wall time (0 = no budget)")
    parser.add_argument("--minimize", action="store_true",
                        help="shrink each failing schedule before writing its artifact")
    parser.add_argument("--artifact-dir", default=os.path.join("artifacts", "stress"))
    parser.add_argument("--replay", metavar="FILE",
                        help="re-run a saved repro artifact instead of sweeping")
    parser.add_argument("--trace", metavar="FILE",
                        help="record every run as a dgl-trace/1 JSONL artifact "
                             "(multi-seed sweeps get a -seedN suffix per file); "
                             "without this flag, only failing seeds are traced, "
                             "via a deterministic replay next to their artifact")
    parser.add_argument("--quiet", action="store_true", help="only print failures and the summary")
    return parser


def _traced_run(config: StressConfig, path: str):
    """Run one stress schedule with tracing and write its JSONL sidecar."""
    from repro.obs import EventTracer

    tracer = EventTracer(meta={"source": "stress", "seed": config.seed,
                               "policy": config.policy})
    result = run_stress(config, tracer=tracer)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tracer.dump_jsonl(path)
    return result


def _trace_path(base: str, seed: int, many: bool) -> str:
    if not many:
        return base
    root, ext = os.path.splitext(base)
    return f"{root}-seed{seed}{ext or '.jsonl'}"


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.replay:
        config, doc = load_artifact(args.replay)
        if args.trace:
            result = _traced_run(config, args.trace)
            print(f"trace: {args.trace}")
        else:
            result = run_stress(config)
        print(result.summary())
        for violation in result.violations:
            print(f"  {violation}")
        expected = len(doc.get("result", {}).get("violations", []))
        if result.ok and expected:
            print("note: artifact recorded violations but the replay is clean "
                  "(the bug it captured is fixed)")
        return 0 if result.ok else 1

    from repro.stress.faults import FaultPlan

    faults = FaultPlan.none() if args.no_faults else FaultPlan()
    started = time.monotonic()
    failures = 0
    ran = 0
    for seed in args.seed:
        if args.duration and time.monotonic() - started > args.duration:
            print(f"stopping after {ran} seeds: --duration {args.duration:.0f}s exhausted")
            break
        config = StressConfig(
            seed=seed,
            policy=args.policy,
            n_workers=args.workers,
            txns_per_worker=args.txns,
            ops_per_txn=args.ops,
            n_preload=args.preload,
            fanout=args.fanout,
            faults=faults,
        )
        if args.trace:
            trace_path = _trace_path(args.trace, seed, many=len(args.seed) > 1)
            result = _traced_run(config, trace_path)
        else:
            trace_path = None
            result = run_stress(config)
        ran += 1
        if result.ok:
            if not args.quiet:
                print(result.summary())
            continue
        failures += 1
        print(result.summary())
        for violation in result.violations:
            print(f"  {violation}")
        minimized = None
        if args.minimize:
            report = minimize(config)
            minimized = report.config
            print(f"  {report.summary()}")
        if trace_path is None:
            # The sweep ran with only the auditor's bounded ring (a full
            # trace costs memory); replay the failing schedule
            # deterministically with a full tracer so the artifact ships
            # with the whole event timeline.
            trace_path = os.path.join(args.artifact_dir, f"stress-seed{seed}.trace.jsonl")
            _traced_run(config, trace_path)
        path = os.path.join(args.artifact_dir, f"stress-seed{seed}.json")
        save_artifact(path, result, minimized=minimized, trace=trace_path)
        print(f"  repro artifact: {path}")
        print(f"  trace sidecar: {trace_path}")

    elapsed = time.monotonic() - started
    print(f"stress sweep: {ran} seed(s), {failures} failure(s), {elapsed:.1f}s wall")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
