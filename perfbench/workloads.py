"""The four workloads: which searches each one runs, and how to check them.

Every search is an `Op`.  Its name keys the pinned digest in `pins.json`;
`run` performs the search through a public entry point and is the only
part that is timed; `summarize` turns the result into the pinned digest
and says whether every certificate in it passed.

Why these workloads (the layer shares come from one profile of the
unoptimised search on a 2-core machine):

* ``k66-r10``: about 82% of the time is `canon` dedupe of 1380 raw finds
  that collapse to 3 classes.  Only here do isomorph rejection and a
  faster `canonical()` show their full effect.
* ``k66-r8``: about 80% is pair-label tables and 12% closed-form
  candidates, while canon is about 3%.  A canon change should leave it flat.
* ``sweeps``: many small contexts and sweep steps, certification about 22%,
  and canon on other shapes (the Clebsch graph, order-21 graphs that take
  the `are_isomorphic` fallback), so a canon change tuned to K_{t,s} can
  show a slowdown here.
* ``scan-untagged``: about 95% is the 2^q subset scan, which the other
  three bypass.

The workload seed only permutes the order of the searches; the searches
themselves are fixed, so every seed has the same pinned outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import starcomp.cli
import starcomp.engine
import starcomp.kts
from starcomp.canon import canonical
from starcomp.graphs import cycle, graph6_encode
from starcomp.kts import make_kts


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "cli" or "lib": the entry point the search goes through
    run: Callable[[], object]
    summarize: Callable[[object], tuple[str, bool]]  # -> (digest, all certificates passed)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_run(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = starcomp.cli.main(argv)
        return status, out.getvalue()
    return run


def _cli_summary(result: tuple[int, str]) -> tuple[str, bool]:
    """Exit status and the SHA-256 of the exact stdout bytes."""
    status, out = result
    records = [json.loads(line) for line in out.splitlines()]
    passed = all(rec["certificate"]["passed"] for rec in records if "certificate" in rec)
    return f"exit={status} sha256={_sha256(out)}", passed


def _lib_summary(solutions) -> tuple[str, bool]:
    """SHA-256 over one (graph6, star set, certificate passed) line per solution."""
    lines = "".join(f"{graph6_encode(sol.graph)} {','.join(map(str, sol.x_vertices))} "
                    f"{sol.cert.passed}\n" for sol in solutions)
    return f"sha256={_sha256(lines)}", all(sol.cert.passed for sol in solutions)


def _cli(*argv: str) -> Op:
    return Op("starcomp " + " ".join(argv), "cli", _cli_run(list(argv)), _cli_summary)


def _untagged_sweep(name: str, H, mu: int) -> Op:
    # no bipartite tag: the generic candidate scan and pairing route, and no
    # part-permutation symmetry to reduce by
    def run():
        ctx = starcomp.engine.make_context(H, mu)
        return starcomp.engine.search_star_sets(ctx, require_regular="sweep", symmetry=False)
    return Op(name, "lib", run, _lib_summary)


def _build_gr(t: int, s: int, r: int) -> Op:
    return Op(f"build_Gr {t} {s} {r}", "lib",
              lambda: [starcomp.kts.build_Gr(t, s, r)], _lib_summary)


K33_UNTAGGED = "untagged K_{3,3} mu=1 sweep"


def _sweeps() -> list[Op]:
    ops = [_cli("search", t, s, "1", "--sweep") for t, s in (("3", "3"), ("1", "5"), ("2", "5"))]
    ops += [_cli("search", "1", "2", mu, "--sweep")
            for mu in ("root(-1,-1):pos", "root(-1,-1):neg")]
    # the mu = -t emptiness grid of scripts/survey.py, without s = t, where
    # -t is an eigenvalue of K_{t,t} and the search refuses to start
    for t in (1, 2, 3):
        for s in range(t + 1, 6):
            cap = ["--max-x", "8"] if t == 1 else []
            ops.append(_cli("search", str(t), str(s), str(-t), "--sweep", *cap))
    # survey.py's G(r) family without (3, 4, 5), which raises DivisibilityViolation
    ops += [_build_gr(2, 3, 4), _build_gr(3, 3, 7), _build_gr(2, 2, 5)]
    return ops


WORKLOADS: dict[str, Callable[[], list[Op]]] = {
    "k66-r10": lambda: [_cli("search", "6", "6", "-2", "--r", "10")],
    "k66-r8": lambda: [_cli("search", "6", "6", "-2", "--r", "8")],
    "sweeps": _sweeps,
    "scan-untagged": lambda: [_untagged_sweep("untagged C_12 mu=3 sweep", cycle(12), 3),
                              _untagged_sweep(K33_UNTAGGED, make_kts(3, 3), 1)],
}


def workload_ops(name: str, seed: int) -> list[Op]:
    ops = WORKLOADS[name]()
    random.Random(seed).shuffle(ops)
    return ops


def cross_check(name: str, results: dict[str, object]) -> bool:
    """Checks across searches, run after timing.

    The untagged K_{3,3} sweep must find the same graphs as the tagged one.
    Their graph6 labellings differ with the candidate order, so the
    canonical forms are compared.
    """
    if name != "scan-untagged":
        return True
    ctx = starcomp.engine.make_context(make_kts(3, 3), 1, bipartite_tag=(3, 3))
    tagged = starcomp.engine.search_star_sets(ctx, require_regular="sweep")

    def forms(solutions):
        return sorted(canonical(sol.graph).bytes for sol in solutions)

    untagged = results.get(K33_UNTAGGED)  # absent when that search failed
    return bool(tagged) and untagged is not None and forms(untagged) == forms(tagged)
