"""Run one workload in this process and print its result as one JSON line.

`run.py` starts this script in a child process of its own, so that the
peak resident memory it reports is that of the workload alone.  The load
is one closed loop: a single caller, no threads, each search finished and
timed before the next starts.  Passes over the workload repeat until
`--seconds` have gone by; with `--trace 1` one traced pass follows them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import starcomp  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


class Tally:
    def __init__(self, pins: dict[str, str]):
        self.pins = pins
        self.attempted = 0
        self.failed = 0

    def fail(self, op, why: str) -> None:
        self.failed += 1
        print(f"FAILED {op.name}: {why}", file=sys.stderr)


def run_pass(ops, tally: Tally, results: dict, call=lambda op: op.run) -> float:
    """One pass over `ops`; returns the summed time of the searches alone."""
    gc.collect()  # no garbage from the previous pass is collected inside this one
    wall = 0.0
    for op in ops:
        run = call(op)
        tally.attempted += 1
        start = time.perf_counter()
        try:
            result = run()
        except Exception:  # a search that raises counts as failed; the pass goes on
            wall += time.perf_counter() - start
            tally.fail(op, traceback.format_exc())
            continue
        wall += time.perf_counter() - start
        digest, passed = op.summarize(result)
        if not passed:
            tally.fail(op, "a certificate did not pass")
        elif digest != tally.pins.get(op.name):
            tally.fail(op, f"digest {digest} is not the pinned {tally.pins.get(op.name)}")
        results[op.name] = result
    return wall


def main() -> int:
    if not __debug__:
        sys.exit("error: refusing to run under python -O, which strips the asserts "
                 "that check every certificate")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", type=Path, help="write the traced spans to this file")
    args = ap.parse_args()
    if Path(starcomp.__file__).resolve().parent != SRC / "starcomp":
        sys.exit(f"error: starcomp was imported from {starcomp.__file__}, not from {SRC}")

    pins = json.loads((HERE / "pins.json").read_text())
    ops = workloads.workload_ops(args.workload, args.seed)
    tally, results, walls = Tally(pins), {}, []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        walls.append(run_pass(ops, tally, results))
    out = {"passes": walls, "wall_s": statistics.median(walls),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, tally, results,
                              lambda op: tracer.wrap("op." + op.kind, op.run))
        finally:
            tracer.remove()
        out["layers"] = tracer.metrics(overhead_s=traced - out["wall_s"])
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": tracer.spans, "counts": tracer.counts}))

    out["cross_check"] = workloads.cross_check(args.workload, results)
    out["attempted"], out["failed"] = tally.attempted, tally.failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
