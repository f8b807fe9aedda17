#!/usr/bin/env python3
"""Run the headline searches end to end and report what comes out.

Blocks, in order:

  * K_{3,3} at mu=1, full degree sweep: the complete classification
    (three graphs, orders 9/12/15, the last one strongly regular);
  * K_{1,5} at mu=1, full sweep: the Clebsch graph and nothing else;
  * K_{6,6} at mu=-2, degrees 8 and 10: the two one-off constructions,
    plus whatever else degree 10 admits (membership, not uniqueness);
  * the emptiness grid: small (t,s) whose sweeps return nothing at all;
  * the G(r) family built directly from its parameters, certified.

Every graph printed has passed the three-part certificate; a G(r) graph
whose certificate fails is printed as FAILED and makes the exit status 1.
All blocks together take about 0.07 s with Python 3.11 on a shared 2-vCPU
Xeon.  Each block's wall time goes to stderr, so stdout is the same on
every run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starcomp.algebra import qnum
from starcomp.canon import are_isomorphic
from starcomp.catalog import named_graph
from starcomp.engine import make_context, search_star_sets
from starcomp.errors import DivisibilityViolation, InternalInconsistency, MuIsEigenvalue
from starcomp.graphs import srg_check
from starcomp.kts import build_Gr, make_kts
from starcomp.linalg import char_polynomial, integer_roots


def describe(sol) -> str:
    roots, _ = integer_roots(char_polynomial(sol.graph.matrix()), max(sol.graph.degrees()))
    spec = " ".join(f"{ev}^{m}" if m > 1 else str(ev)
                    for ev, m in sorted(roots.items()))
    srg = srg_check(sol.graph)
    tail = f"  srg{tuple(srg)}" if srg else ""
    return (f"order {sol.order:2d}  degree {sol.graph.degree(sol.x_vertices[0])}"
            f"  |X|={len(sol.x_vertices)}  integer roots: {spec}{tail}")


def timed(label):
    print(f"-- {label}")
    return time.perf_counter()


def done(t0) -> None:
    print(f"   ({time.perf_counter() - t0:.2f}s)", file=sys.stderr)


def block_k33() -> None:
    t0 = timed("K_{3,3}, mu=1, sweep over all regular degrees")
    ctx = make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
    for sol in search_star_sets(ctx, require_regular="sweep"):
        print("   " + describe(sol))
    done(t0)


def block_k15() -> None:
    t0 = timed("K_{1,5}, mu=1, sweep")
    ctx = make_context(make_kts(1, 5), qnum(1), bipartite_tag=(1, 5))
    sols = search_star_sets(ctx, require_regular="sweep")
    for sol in sols:
        iso = are_isomorphic(sol.graph, named_graph("Clebsch"))
        print("   " + describe(sol) + ("  = Clebsch" if iso else ""))
    done(t0)


def block_k66() -> None:
    ctx = make_context(make_kts(6, 6), qnum(-2), bipartite_tag=(6, 6))
    t0 = timed("K_{6,6}, mu=-2, degree 8")
    for sol in search_star_sets(ctx, require_regular=8):
        iso = are_isomorphic(sol.graph, named_graph("G4"))
        print("   " + describe(sol) + ("  = G4" if iso else ""))
    done(t0)
    t0 = timed("K_{6,6}, mu=-2, degree 10")
    for sol in search_star_sets(ctx, require_regular=10):
        iso = are_isomorphic(sol.graph, named_graph("G5"))
        print("   " + describe(sol) + ("  = G5" if iso else ""))
    done(t0)


def block_empty() -> None:
    t0 = timed("emptiness grid: mu = -t over 1 <= t <= 3, t <= s <= 5")
    for t in (1, 2, 3):
        for s in range(t, 6):
            try:
                ctx = make_context(make_kts(t, s), qnum(-t), bipartite_tag=(t, s))
            except MuIsEigenvalue:
                print(f"   K_({t},{s}) mu={-t}: mu is an eigenvalue, excluded")
                continue
            kw = {"max_x": 8} if ctx.mu_special else {}
            sols = search_star_sets(ctx, require_regular="sweep", **kw)
            print(f"   K_({t},{s}) mu={-t}: {len(sols)} solutions")
    done(t0)


def block_gr() -> bool:
    """Print the G(r) constructions; False if a certificate failed."""
    t0 = timed("G(r) family from parameters")
    ok = True
    for t, s, r in [(2, 3, 4), (3, 3, 7), (2, 2, 5), (3, 4, 5)]:
        try:
            sol = build_Gr(t, s, r)
        except DivisibilityViolation as e:
            print(f"   G({r}) over K_({t},{s}): {e}")
            continue
        except InternalInconsistency as e:
            print(f"   G({r}) over K_({t},{s}): certificate FAILED ({e})")
            ok = False
            continue
        print(f"   G({r}) over K_({t},{s}): " + describe(sol) + "  certificate ok")
    done(t0)
    return ok


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    block_k33()
    block_k15()
    block_k66()
    block_empty()
    # the searches and build_Gr raise on an uncertified graph; the G(r)
    # block reports it and goes on
    return 0 if block_gr() else 1


if __name__ == "__main__":
    sys.exit(main())
