"""Command-line front end.

Five subcommands over the K_{t,s} machinery:

    analyze t s mu           vertex-type and pair-relation tables (text)
    search t s mu            run the engine, JSON lines on stdout
    verify                   certify a (graph6, star set, mu) triple
    catalog NAME             emit a catalogued graph
    bound                    the multiplicity and star-set size bounds

Exit status: 0 on success, 2 when a computation succeeds but the result is
empty or infeasible (no types, no solutions, failed certificate), 1 on any
error.  All numeric output is exact; repeated runs with the same arguments
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import parse_scalar
from .catalog import catalog_entry
from .engine import (StarSolution, make_context, multiplicity_cap,
                     search_star_sets, vertex_types, verify_star_pair)
from .errors import HypothesisViolated, StarCompError
from .graphs import graph6_decode, graph6_encode, make_kts
from .kts import rho_bounds, rho_of_pair, rho_value, solve_types_parametric
from .linalg import char_polynomial, integer_roots

SCHEMA_VERSION = 1

OK, EMPTY, ERROR = 0, 2, 1


def _jsonline(obj, stream) -> None:
    stream.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; here 2 means "empty result", so
    # usage problems are remapped onto the generic error status
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(ERROR, f"error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: built on first use, and parse_args
    keeps no state between calls."""
    p = _Parser(prog="starcomp",
                description="exact star-complement search over complete "
                            "bipartite complements")
    sub = p.add_subparsers(dest="command", required=True)

    def add_tsmu(sp):
        sp.add_argument("t", type=int)
        sp.add_argument("s", type=int)
        sp.add_argument("mu", help="integer, p/q, or root(c0,c1):pos|neg "
                                   "(a real root of x^2 + c1 x + c0)")

    sp = sub.add_parser("analyze", help="vertex types and pair relations for K_{t,s}")
    add_tsmu(sp)

    sp = sub.add_parser("search", help="search star sets over K_{t,s}")
    add_tsmu(sp)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--r", type=int, help="require this regular degree")
    group.add_argument("--sweep", action="store_true",
                       help="sweep all feasible regular degrees")
    sp.add_argument("--max-x", type=int, default=None,
                    help="cap |X| (mandatory for mu in {-1, 0})")
    sp.add_argument("--max-solutions", type=int, default=None,
                    help="stop after this many raw finds (graphs before isomorphism "
                         "reduction), counted over the whole search, sweeps included")
    sp.add_argument("--output", default=None, help="write JSON lines here instead of stdout")

    sp = sub.add_parser("verify", help="certify a star set inside a given graph")
    sp.add_argument("--graph6", required=True, help="the graph, one graph6 line")
    sp.add_argument("--star-set", required=True,
                    help="comma-separated vertex indices of X")
    sp.add_argument("--mu", required=True)

    sp = sub.add_parser("catalog", help="emit a catalogued graph")
    sp.add_argument("name")
    sp.add_argument("--format", choices=("json", "graph6"), default="json")

    sp = sub.add_parser("bound", help="multiplicity cap (G connected) and star-set size bound")
    sp.add_argument("--q", type=int, required=True, help="order of the complement")
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    return p


# ---------------------------------------------------------------- analyze

def _cmd_analyze(args, out) -> int:
    mu = parse_scalar(args.mu)
    t, s = args.t, args.s
    H = make_kts(t, s)  # validates 1 <= t <= s
    # vertex_types holds on every K_{t,s}, the rest does not; raise before any output
    if t + s < 3:
        raise HypothesisViolated(f"the parametric rows and rho tables need the minimal "
                                 f"polynomial x^3 - ts x, which K_{{t,s}} has only for "
                                 f"t + s >= 3; got ({t},{s})")
    ctx = make_context(H, mu, bipartite_tag=(t, s))
    types = vertex_types(ctx)
    out.write(f"complement K_{{{t},{s}}}  mu={mu}  mval={ctx.mval}\n")

    rows = solve_types_parametric(t, mu)
    out.write(f"parametric types (t={t}, mu={mu}, s free):\n")
    for row in rows:
        if row.feasible:
            out.write(f"  a={row.a} b={row.b} s={row.s} feasible\n")
        else:
            out.write(f"  a={row.a} b={row.b} s={row.s} infeasible ({row.reason})\n")

    if not types:
        out.write("types: none\n")
        return EMPTY
    out.write("types: " + " ".join(f"({a},{b})" for a, b in types) + "\n")

    out.write("pair relations (rho = common neighbours in the complement):\n")
    for i, u in enumerate(types):
        for v in types[i:]:
            lo, hi = rho_bounds(t, s, u, v)
            for adjacent in (False, True):
                rho = rho_value(t, s, mu, u, v, adjacent)
                word = "adjacent" if adjacent else "nonadjacent"
                feasible = rho_of_pair(t, s, u, v, rho) is not None
                verdict = "feasible" if feasible else "infeasible"
                out.write(f"  ({u.a},{u.b}) ({v.a},{v.b}) {word} "
                          f"rho={rho} bounds=[{lo},{hi}] {verdict}\n")
    return OK


# ----------------------------------------------------------------- search

def _solution_record(sol: StarSolution, t: int, s: int) -> dict:
    cert = sol.cert
    # every adjacency eigenvalue lies in [-maximum degree, maximum degree]
    roots, residual = integer_roots(char_polynomial(sol.graph.matrix()),
                                    max(sol.graph.degrees()))
    # the type (a, b) of x: its neighbours in the t-part and the s-part of K_{t,s}
    parts = ((1 << t) - 1, ((1 << s) - 1) << t)
    types = [[(sol.graph.adj[x] & part).bit_count() for part in parts]
             for x in sol.x_vertices]
    return {
        "graph6": graph6_encode(sol.graph),
        "order": sol.order,
        "degree": cert.regular_degree,
        "spectrumIntegerRoots": [[r, roots[r]] for r in sorted(roots)],
        "residualFactor": list(residual) if len(residual) > 1 else None,
        "starSet": list(sol.x_vertices),
        "types": types,
        "certificate": _cert_record(cert),
    }


def _cert_record(cert) -> dict:
    return {
        "mu": str(cert.mu),
        "xSize": cert.x_size,
        "multiplicity": cert.multiplicity,
        "regularDegree": cert.regular_degree,
        "muNotInComplement": cert.mu_not_in_complement,
        "multiplicityMatches": cert.multiplicity_matches,
        "reconstructionOK": cert.reconstruction_ok,
        "passed": cert.passed,
    }


def _cmd_search(args, out) -> int:
    mu = parse_scalar(args.mu)
    t, s = args.t, args.s
    ctx = make_context(make_kts(t, s), mu, bipartite_tag=(t, s))
    require = "sweep" if args.sweep else args.r

    # materialize before emitting anything, so failures leave no partial output
    solutions = search_star_sets(ctx, require_regular=require,
                                 max_x=args.max_x,
                                 max_solutions=args.max_solutions)
    stream = open(args.output, "w") if args.output else out
    try:
        _jsonline({"schemaVersion": SCHEMA_VERSION, "command": "search",
                   "t": t, "s": s, "mu": args.mu, "r": require,
                   "maxX": args.max_x, "maxSolutions": args.max_solutions},
                  stream)
        for sol in solutions:
            _jsonline(_solution_record(sol, t, s), stream)
        _jsonline({"summary": {"count": len(solutions), "dedupedBy": "canonical"}},
                  stream)
    finally:
        if args.output:
            stream.close()
    return OK if solutions else EMPTY


# ----------------------------------------------------------------- verify

def _cmd_verify(args, out) -> int:
    g = graph6_decode(args.graph6)
    try:
        xs = [int(part) for part in args.star_set.split(",") if part.strip() != ""]
    except ValueError:
        raise StarCompError(f"star set {args.star_set!r} is not a comma-separated "
                            f"list of integers") from None
    if len(set(xs)) != len(xs) or any(not 0 <= v < g.n for v in xs):
        raise StarCompError("star set must be distinct vertex indices of the graph")
    mu = parse_scalar(args.mu)
    cert = verify_star_pair(g, xs, mu)
    record = {"schemaVersion": SCHEMA_VERSION, "command": "verify",
              "certificate": _cert_record(cert)}
    _jsonline(record, out)
    return OK if cert.passed else EMPTY


# ---------------------------------------------------------------- catalog

def _cmd_catalog(args, out) -> int:
    entry = catalog_entry(args.name)
    if args.format == "graph6":
        out.write(entry["graph6"] + "\n")
    else:
        entry["schemaVersion"] = SCHEMA_VERSION
        _jsonline(entry, out)
    return OK


# ------------------------------------------------------------------ bound

def _cmd_bound(args, out) -> int:
    record = {"schemaVersion": SCHEMA_VERSION, "command": "bound",
              "q": args.q, "multiplicityCap": multiplicity_cap(args.q)}
    if (args.s is None) != (args.r is None):
        raise StarCompError("--s and --r must be given together")
    if args.s is not None:
        if not 1 <= args.s <= args.r:
            raise StarCompError(f"--s and --r need 1 <= s <= r, got s={args.s}, r={args.r}")
        record["s"] = args.s
        record["r"] = args.r
        record["sizeBound"] = args.s * (args.r - args.s)
    _jsonline(record, out)
    return OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"analyze": _cmd_analyze, "search": _cmd_search,
               "verify": _cmd_verify, "catalog": _cmd_catalog,
               "bound": _cmd_bound}[args.command]
    try:
        return handler(args, sys.stdout)
    except (StarCompError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
