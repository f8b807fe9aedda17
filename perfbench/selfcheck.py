"""Self-check of the benchmark harness, so that it cannot rot unnoticed.

    python3 perfbench/selfcheck.py [--workload NAME ...]

For each workload (by default `sweeps`, the quickest that reaches every
layer) it runs the benchmark once untraced and twice traced, with different
seeds, and fails unless every run is correct, every metric that
BENCHMARK.json lists is reported, and the deterministic per-layer metrics
(the counts and the ratios of counts) are identical in the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, load_spec


def bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")]
    problems = []
    for workload in args.workload or ["sweeps"]:
        runs = [bench(workload, 1, 0), bench(workload, 1, 1), bench(workload, 2, 1)]
        for res in runs:
            if not res["correct"]:
                problems.append(f"{workload}: {res['failed']} of {res['attempted']} "
                                f"searches failed or a cross-check failed")
            problems += [f"{workload}: {name} is missing"
                         for name, m in res["metrics"].items() if m["value"] is None]
        first, second = (runs[1]["metrics"], runs[2]["metrics"])
        problems += [f"{workload}: {name} was {first[name]['value']}, "
                     f"then {second[name]['value']}"
                     for name in exact if first[name] != second[name]]
        print(f"{workload}: " + ", ".join(f"{name}={first[name]['value']}" for name in exact))
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
