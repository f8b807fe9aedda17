"""Record the digest of every search's output into pins.json.

    python3 perfbench/pin.py

The pins are what the benchmark checks each output against.  Record them
only from a commit whose outputs are known to be right: the searches are
meant to give byte-identical output from one version to the next.
"""

from __future__ import annotations

import json
import sys

import worker  # puts src/ on sys.path first
import workloads


def main() -> int:
    pins = {}
    for name in workloads.WORKLOADS:
        for op in workloads.workload_ops(name, 0):
            digest, passed = op.summarize(op.run())
            if not passed:
                sys.exit(f"error: a certificate in {op.name!r} did not pass")
            pins[op.name] = digest
            print(f"{digest}  {op.name}", file=sys.stderr)
    (worker.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
