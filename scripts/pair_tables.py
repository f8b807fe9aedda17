#!/usr/bin/env python3
"""Print the vertex-type and pair-relation tables for small parameters.

Three blocks:

  * the mu=-1 catalogue: for small concrete (t,s), every vertex type and
    every pair relation, showing rho = a_uv + const behaviour;
  * the one-parameter t=3, mu=2 family with s free, then the concrete
    s=18 instance and all its pair relations;
  * a grid of small (t,s,mu) feasibility counts, as a quick overview of
    how sparse candidate types are.

Everything here is recomputed from the defining relations; nothing is
looked up.  Run with no arguments.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starcomp.algebra import qnum
from starcomp.engine import make_context, vertex_types
from starcomp.errors import MuIsEigenvalue
from starcomp.kts import (make_kts, rho_bounds, rho_of_pair, rho_value,
                          solve_types_parametric)


def kts_types(t: int, s: int, mu):
    return vertex_types(make_context(make_kts(t, s), mu, bipartite_tag=(t, s)))


def pair_block(t: int, s: int, mu, types) -> None:
    for i, u in enumerate(types):
        for v in types[i:]:
            lo, hi = rho_bounds(t, s, u, v)
            cells = []
            for adjacent in (False, True):
                rho = rho_value(t, s, mu, u, v, adjacent)
                ok = rho_of_pair(t, s, u, v, rho) is not None
                word = "adj" if adjacent else "non"
                cells.append(f"{word} rho={rho}{'' if ok else ' (infeasible)'}")
            print(f"    ({u.a},{u.b})--({v.a},{v.b})  bounds [{lo},{hi}]  "
                  + "   ".join(cells))


def mu_minus_one_block() -> None:
    print("== mu = -1: duplicate-neighbourhood regime ==")
    print("rho grows with a_uv; the table shows the a_uv = 0 baseline,")
    print("each extra common X-neighbour raises rho by one.")
    for t, s in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        types = kts_types(t, s, qnum(-1))
        print(f"  K_({t},{s})  types: " + " ".join(f"({a},{b})" for a, b in types))
        pair_block(t, s, qnum(-1), types)


def family_block() -> None:
    print()
    print("== t = 3, mu = 2: the s-free family ==")
    for row in solve_types_parametric(3, qnum(2)):
        tail = "feasible" if row.feasible else f"infeasible ({row.reason})"
        print(f"  a={row.a} b={row.b} s={row.s}  {tail}")
    print("  concrete s = 18:")
    types = kts_types(3, 18, qnum(2))
    print("  types: " + " ".join(f"({a},{b})" for a, b in types))
    pair_block(3, 18, qnum(2), types)


def grid_block() -> None:
    print()
    print("== type counts over a small grid (non-main candidates) ==")
    header = "  t s | " + " ".join(f"mu={m:>2}" for m in (-3, -2, -1, 1, 2, 3))
    print(header)
    for t in (1, 2, 3):
        for s in range(t, 7):
            cells = []
            for m in (-3, -2, -1, 1, 2, 3):
                try:
                    types = kts_types(t, s, qnum(m))
                except MuIsEigenvalue:
                    cells.append("    *")
                    continue
                cells.append(f"{len(types):>5}")
            print(f"  {t} {s} | " + " ".join(cells))
    print("  (* = mu is an eigenvalue of the complement, excluded)")


def main() -> int:
    mu_minus_one_block()
    family_block()
    grid_block()
    return 0


if __name__ == "__main__":
    sys.exit(main())
