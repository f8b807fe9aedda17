"""Named ground-truth graphs with pinned spectra and star data.

Two kinds of entries.  C3, C5, Petersen, G4 and G5 have explicit
constructions (G4/G5 from hand-written neighbourhood lists over K_{6,6}).
G1, G2, G3 and Clebsch are defined as search results -- the unique regular
extensions of K_{3,3} at mu=1 with orders 9/12/15, and of K_{1,5} at mu=1 --
so the search is the constructor; their assembled forms are pinned as graph6
fixtures with canonical forms in data/named_graphs.json, regenerated by
scripts/build_fixtures.py.  Parametrized names Knn(n), Kts(t,s) and
Gr(t,s,r) are built on demand.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources
from typing import Optional

from .algebra import QNum, parse_scalar, qnum
from .errors import UnknownName
from .graphs import (Graph, cycle, graph6_decode, graph6_encode, make_kts,
                     regular_degree, srg_check)
from .kts import build_Gr
from .linalg import multiplicity

FIXTURE_NAMES = ("C3", "C5", "Clebsch", "G1", "G2", "G3", "G4", "G5", "Petersen")

# these are decoded straight from the fixture file; the others have code
# constructors and the fixture is a cross-check
SEARCH_DERIVED = ("G1", "G2", "G3", "Clebsch")

_PARAM_RE = re.compile(r"^(Knn|Kts|Gr)\((\d+(?:,\d+)*)\)$")


@lru_cache(maxsize=1)
def _fixtures() -> dict:
    text = resources.files("starcomp").joinpath("data/named_graphs.json").read_text()
    return json.loads(text)


def fixture_entry(name: str) -> dict:
    try:
        return _fixtures()["entries"][name]
    except KeyError:
        raise UnknownName(f"no fixture for {name!r}") from None


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner 5-cycle 5..9 stepping by two, spokes i--i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def _kts_plus(extra_neighbourhoods: list[list[int]],
              x_edges: list[tuple[int, int]]) -> Graph:
    """K_{6,6} on 0..11 plus one new vertex per neighbourhood list."""
    h = make_kts(6, 6)
    k = len(extra_neighbourhoods)
    edges = list(h.edges())
    for j, nb in enumerate(extra_neighbourhoods):
        edges += [(12 + j, v) for v in nb]
    edges += [(12 + a, 12 + b) for a, b in x_edges]
    return Graph.from_edges(12 + k, edges)


def _g4() -> Graph:
    # vertices: v1..v6 = 0..5, w1..w6 = 6..11, u1..u3 = 12..14; X is 3K1
    return _kts_plus([
        [0, 1, 2, 3, 6, 7, 8, 9],      # u1: v1-v4, w1-w4
        [2, 3, 4, 5, 8, 9, 10, 11],    # u2: v3-v6, w3-w6
        [0, 1, 4, 5, 6, 7, 10, 11],    # u3: v1,v2,v5,v6, w1,w2,w5,w6
    ], [])


def _g5() -> Graph:
    # vertices: v1..v6 = 0..5, w1..w6 = 6..11, u1..u6 = 12..17; X is the
    # 6-cycle u1u2, u2u3, u3u4, u4u5, u5u6, u6u1
    return _kts_plus([
        [0, 1, 2, 3, 6, 7, 8, 9],      # u1: v1-v4, w1-w4
        [1, 2, 3, 4, 7, 8, 9, 10],     # u2: v2-v5, w2-w5
        [2, 3, 4, 5, 8, 9, 10, 11],    # u3: v3-v6, w3-w6
        [0, 3, 4, 5, 6, 9, 10, 11],    # u4: v1,v4,v5,v6, w1,w4,w5,w6
        [0, 1, 4, 5, 6, 7, 10, 11],    # u5: v1,v2,v5,v6, w1,w2,w5,w6
        [0, 1, 2, 5, 6, 7, 8, 11],     # u6: v1,v2,v3,v6, w1,w2,w3,w6
    ], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


_CONSTRUCTORS = {
    "C3": lambda: cycle(3),
    "C5": lambda: cycle(5),
    "Petersen": petersen,
    "G4": _g4,
    "G5": _g5,
}


def _parse_params(name: str) -> Optional[tuple[str, tuple[int, ...]]]:
    m = _PARAM_RE.match(name)
    if m is None:
        return None
    return m.group(1), tuple(int(x) for x in m.group(2).split(","))


def named_graph(name: str) -> Graph:
    """Build a named graph; UnknownName for anything not catalogued."""
    if name in _CONSTRUCTORS:
        return _CONSTRUCTORS[name]()
    if name in SEARCH_DERIVED:
        return graph6_decode(fixture_entry(name)["graph6"])
    parsed = _parse_params(name)
    if parsed is not None:
        kind, args = parsed
        if kind == "Knn" and len(args) == 1:
            return make_kts(args[0], args[0])
        if kind == "Kts" and len(args) == 2:
            return make_kts(*args)
        if kind == "Gr" and len(args) == 3:
            return build_Gr(*args).graph
    raise UnknownName(f"unknown graph name {name!r}")


def expected_spectrum(name: str) -> list[tuple[QNum, int]]:
    """Pinned spectrum as (eigenvalue, multiplicity) pairs, ascending.

    Fixture entries carry their stated spectra; Knn(n) and Kts(t,s) have
    spectrum {-sqrt(ts), 0^(t+s-2), sqrt(ts)}.  Gr(t,s,r) spectra are not
    catalogued (only the mu=-1 multiplicity is pinned), so they raise
    UnknownName like unknown names do.
    """
    if name in FIXTURE_NAMES:
        entry = fixture_entry(name)
        return [(parse_scalar(ev), mult) for ev, mult in entry["spectrum"]]
    parsed = _parse_params(name)
    if parsed is not None:
        kind, args = parsed
        if kind == "Knn" and len(args) == 1:
            t = s = args[0]
        elif kind == "Kts" and len(args) == 2:
            t, s = args
        else:
            raise UnknownName(f"no catalogued spectrum for {name!r}")
        root = QNum.sqrt(t * s)
        spec = [(-root, 1), (qnum(0), t + s - 2), (root, 1)]
        return [(ev, m) for ev, m in spec if m > 0]
    raise UnknownName(f"no catalogued spectrum for {name!r}")


def spectrum_matches(g: Graph, spectrum: list[tuple[QNum, int]]) -> bool:
    """Exact check that char(A(g)) = prod (x - ev)^mult.

    A(g) is symmetric, so its spectrum is the listed one exactly when the
    multiplicities, those of a repeated eigenvalue added up, sum to n and
    each equals the rank-based linalg.multiplicity of its eigenvalue.
    """
    merged: dict[QNum, int] = {}
    for ev, mult in spectrum:
        merged[ev] = merged.get(ev, 0) + mult
    if sum(merged.values()) != g.n:
        return False
    A = g.matrix()
    return all(multiplicity(A, ev) == mult for ev, mult in merged.items())


def catalog_entry(name: str) -> dict:
    """JSON-ready record for a named graph (used by the command line)."""
    g = named_graph(name)
    record: dict = {
        "name": name,
        "graph6": graph6_encode(g),
        "order": g.n,
        "degree": regular_degree(g),
    }
    if name in FIXTURE_NAMES:
        entry = fixture_entry(name)
        record["spectrum"] = entry["spectrum"]
        record["starData"] = entry.get("starData")
        record["srg"] = entry.get("srg")
    else:
        try:
            record["spectrum"] = [[str(ev), m] for ev, m in expected_spectrum(name)]
        except UnknownName:
            record["spectrum"] = None
        srg = srg_check(g)
        record["srg"] = list(srg) if srg else None
        record["starData"] = None
    return record
