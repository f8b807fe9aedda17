"""Named ground-truth graphs with pinned spectra and star data.

FIXTURES pins each of the paper's named graphs.  C3, C5, Petersen, G4 and
G5 have explicit constructions (G4/G5 from hand-written neighbourhood lists
over K_{6,6}).  G1, G2, G3 and Clebsch are defined as search results -- the
unique regular extensions of K_{3,3} at mu=1 with orders 9/12/15, and of
K_{1,5} at mu=1 -- so the search is the constructor, and their entries hold
the graph6 of the graph it assembles; tests/test_catalog.py reruns both
searches against them.  Parametrized names Knn(n), Kts(t,s) and Gr(t,s,r)
are built on demand.
"""

from __future__ import annotations

import re
from typing import Optional

from .algebra import QNum, parse_scalar, qnum
from .errors import UnknownName
from .graphs import (Graph, cycle, graph6_decode, graph6_encode, make_kts,
                     regular_degree, srg_check)
from .kts import build_Gr

# spectrum: (eigenvalue, multiplicity) pairs, ascending, in parse_scalar's
# syntax; starData: an eigenvalue mu and a star set x for it; srg: the
# strongly-regular parameters (n, k, lambda, mu), absent when there are none
FIXTURES = {
    "C3": {"spectrum": [["-1", 2], ["2", 1]],
           "starData": {"mu": "2", "x": [2]}},
    "C5": {"spectrum": [["root(-1,1):neg", 2], ["root(-1,1):pos", 2], ["2", 1]],
           "starData": {"mu": "root(-1,1):pos", "x": [3, 4]},
           "srg": [5, 2, 0, 1]},
    "Clebsch": {"graph6": "Osa?WgWHHQEOPJQTIRBF?",  # the K_{1,5} mu=1 sweep's one graph
                "spectrum": [["-3", 5], ["1", 10], ["5", 1]],
                "starData": {"mu": "1", "x": [6, 7, 8, 9, 10, 11, 12, 13, 14, 15]},
                "srg": [16, 5, 0, 2]},
    "G1": {"graph6": "HFz`IUR",  # the K_{3,3} mu=1 sweep's graph of order 9
           "spectrum": [["-3", 1], ["-2", 2], ["0", 2], ["1", 3], ["4", 1]],
           "starData": {"mu": "1", "x": [6, 7, 8]}},
    "G2": {"graph6": "KFz`HPDSsTq[",  # the K_{3,3} mu=1 sweep's graph of order 12
           "spectrum": [["-3", 3], ["-1", 2], ["1", 6], ["5", 1]],
           "starData": {"mu": "1", "x": [6, 7, 8, 9, 10, 11]}},
    "G3": {"graph6": "NFz`HOoPYTIW`ZalQZ?",  # the K_{3,3} mu=1 sweep's graph of order 15
           "spectrum": [["-3", 5], ["1", 9], ["6", 1]],
           "starData": {"mu": "1", "x": [6, 7, 8, 9, 10, 11, 12, 13, 14]},
           "srg": [15, 6, 1, 3]},
    "G4": {"spectrum": [["-6", 1], ["-2", 3], ["0", 8], ["2", 2], ["8", 1]],
           "starData": {"mu": "-2", "x": [12, 13, 14]}},
    "G5": {"spectrum": [["-6", 1], ["-2", 6], ["0", 6], ["1", 2], ["3", 2], ["10", 1]],
           "starData": {"mu": "-2", "x": [12, 13, 14, 15, 16, 17]}},
    "Petersen": {"spectrum": [["-2", 4], ["1", 5], ["3", 1]],
                 "starData": {"mu": "1", "x": [5, 6, 7, 8, 9]},
                 "srg": [10, 3, 0, 1]},
}

FIXTURE_NAMES = tuple(FIXTURES)

_PARAM_RE = re.compile(r"^(Knn|Kts|Gr)\((\d+(?:,\d+)*)\)$")


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
    if name in FIXTURE_NAMES:
        return graph6_decode(FIXTURES[name]["graph6"])
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

    FIXTURES entries carry their stated spectra; Knn(n) and Kts(t,s) have
    spectrum {-sqrt(ts), 0^(t+s-2), sqrt(ts)}.  Gr(t,s,r) spectra are not
    catalogued (only the mu=-1 multiplicity is pinned), so they raise
    UnknownName like unknown names do.
    """
    if name in FIXTURE_NAMES:
        return [(parse_scalar(ev), mult) for ev, mult in FIXTURES[name]["spectrum"]]
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
        entry = FIXTURES[name]
        record["spectrum"] = entry["spectrum"]
        record["starData"] = entry["starData"]
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
