"""Benchmark for starcomp searches.

    python3 perfbench/run.py --workload k66-r8 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it benchmarks the package in `src/`.
The workloads are described in `workloads.py`, the metrics, their units
and bounds in `BENCHMARK.json`.  With `--trace 0` it reports the end-to-end
metrics:

* wall_s: median wall time of one pass over the workload's searches
  (their outputs are checked against `pins.json` outside the timed region);
* setup_s: median time for a fresh interpreter to import starcomp and load
  the catalogue of named graphs;
* peak_rss_mb: peak resident memory of the child process that ran the
  workload.

With `--trace 1` it reports the per-layer metrics of `tracing.py` instead,
and writes the spans to `perfbench/out/`.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  A search
fails if it raises, if its output digest differs from the pinned one, or if
any certificate in it did not pass.

`selfcheck.py` checks the harness itself, and `pin.py` records the digests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 15
SETUP_CODE = ("import time\n"
              "import starcomp\n"
              "for name in starcomp.catalog.FIXTURE_NAMES:\n"
              "    starcomp.catalog_entry(name)\n"
              "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n")
TIME_LIMIT_S = 170


def measure_setup(env: dict[str, str]) -> float:
    """Median time from starting a fresh interpreter until it has imported
    starcomp and loaded the catalogue of named graphs.

    The interpreter reads the monotonic clock itself when done, so the time
    it takes to exit is not counted.  One untimed start comes first and
    fills the bytecode cache.
    """
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              check=True, stdout=subprocess.PIPE, text=True, timeout=60)
        times.append(float(done.stdout) - start)
    return statistics.median(times[1:])


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    if not __debug__:
        print("error: refusing to run under python -O, which strips the asserts that "
              "check every certificate", file=sys.stderr)
        return 2
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "starcomp" / "__init__.py").is_file():
        print(f"error: no starcomp package under {SRC}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    began = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONOPTIMIZE", None)
    values = {}
    if not args.trace:
        values["setup_s"] = measure_setup(env)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(HERE / "out" / f"spans-{args.workload}-{args.seed}.json")]
    child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=TIME_LIMIT_S - (time.perf_counter() - began))
    if child.returncode != 0:
        print(f"error: the workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    res = json.loads(child.stdout.splitlines()[-1])
    if args.trace:
        values.update(res["layers"])
    else:
        values.update(wall_s=res["wall_s"], peak_rss_mb=res["peak_rss_mb"])
    print(f"{args.workload}: {len(res['passes'])} passes "
          + " ".join(f"{w:.3f}" for w in res["passes"]) + " s", file=sys.stderr)

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        print("missing metrics: " + ", ".join(missing), file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0 and res["cross_check"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
