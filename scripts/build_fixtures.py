#!/usr/bin/env python3
"""Regenerate src/starcomp/data/named_graphs.json from first principles.

C3, C5, Petersen, G4 and G5 come straight from their code constructors.
G1, G2 and G3 are produced by actually running the regular sweep over
K_{3,3} at mu=1 (they are the order 9/12/15 results); Clebsch by the sweep
over K_{1,5} at mu=1 (the unique result).  Nothing is copied in by hand.

Before anything is written, every entry is checked three ways:

  * the pinned spectrum against the exact characteristic polynomial,
  * the pinned star data through the full three-part certificate,
  * the pinned strongly-regular parameters (or their absence).

The output is deterministic, so rerunning the script must reproduce the
file byte for byte; CI-style callers can diff against the committed copy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starcomp.algebra import parse_scalar, qnum
from starcomp.canon import canonical_graph
from starcomp.catalog import FIXTURE_NAMES, _CONSTRUCTORS, spectrum_matches
from starcomp.engine import make_context, search_star_sets, verify_star_pair
from starcomp.graphs import graph6_encode, regular_degree, srg_check
from starcomp.kts import make_kts

OUT = Path(__file__).resolve().parents[1] / "src" / "starcomp" / "data" / "named_graphs.json"

# everything pinned up front; the builder recomputes and refuses to write
# on any mismatch
PINNED = {
    "C3": {
        "spectrum": [["-1", 2], ["2", 1]],
        "starData": {"mu": "2", "x": [2]},
    },
    "C5": {
        "spectrum": [["root(-1,1):neg", 2], ["root(-1,1):pos", 2], ["2", 1]],
        "starData": {"mu": "root(-1,1):pos", "x": [3, 4]},
        "srg": [5, 2, 0, 1],
    },
    "Petersen": {
        "spectrum": [["-2", 4], ["1", 5], ["3", 1]],
        "starData": {"mu": "1", "x": [5, 6, 7, 8, 9]},
        "srg": [10, 3, 0, 1],
    },
    "Clebsch": {
        "spectrum": [["-3", 5], ["1", 10], ["5", 1]],
        "starData": {"mu": "1", "x": [6, 7, 8, 9, 10, 11, 12, 13, 14, 15]},
        "srg": [16, 5, 0, 2],
    },
    "G1": {
        "spectrum": [["-3", 1], ["-2", 2], ["0", 2], ["1", 3], ["4", 1]],
        "starData": {"mu": "1", "x": [6, 7, 8]},
    },
    "G2": {
        "spectrum": [["-3", 3], ["-1", 2], ["1", 6], ["5", 1]],
        "starData": {"mu": "1", "x": [6, 7, 8, 9, 10, 11]},
    },
    "G3": {
        "spectrum": [["-3", 5], ["1", 9], ["6", 1]],
        "starData": {"mu": "1", "x": [6, 7, 8, 9, 10, 11, 12, 13, 14]},
        "srg": [15, 6, 1, 3],
    },
    "G4": {
        "spectrum": [["-6", 1], ["-2", 3], ["0", 8], ["2", 2], ["8", 1]],
        "starData": {"mu": "-2", "x": [12, 13, 14]},
    },
    "G5": {
        "spectrum": [["-6", 1], ["-2", 6], ["0", 6], ["1", 2], ["3", 2], ["10", 1]],
        "starData": {"mu": "-2", "x": [12, 13, 14, 15, 16, 17]},
    },
}


def search_derived() -> dict:
    """Run the defining searches and hand back the assembled graphs."""
    graphs = {}

    ctx = make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
    sols = search_star_sets(ctx, require_regular="sweep")
    by_order = {s.order: s for s in sols}
    assert sorted(by_order) == [9, 12, 15], sorted(by_order)
    graphs["G1"] = by_order[9].graph
    graphs["G2"] = by_order[12].graph
    graphs["G3"] = by_order[15].graph

    ctx = make_context(make_kts(1, 5), qnum(1), bipartite_tag=(1, 5))
    sols = search_star_sets(ctx, require_regular="sweep")
    assert len(sols) == 1 and sols[0].order == 16, [s.order for s in sols]
    graphs["Clebsch"] = sols[0].graph
    return graphs


def main() -> int:
    graphs = dict(search_derived())
    for name, build in _CONSTRUCTORS.items():
        graphs[name] = build()

    entries = {}
    for name in FIXTURE_NAMES:
        g = graphs[name]
        pin = PINNED[name]

        spectrum = [(parse_scalar(ev), mult) for ev, mult in pin["spectrum"]]
        assert spectrum_matches(g, spectrum), f"{name}: spectrum pin is wrong"

        star = pin["starData"]
        cert = verify_star_pair(g, star["x"], parse_scalar(star["mu"]))
        assert cert.passed, f"{name}: star data fails certification: {cert}"
        assert cert.multiplicity == len(star["x"])

        srg = srg_check(g)
        srg_list = list(srg) if srg else None
        assert srg_list == pin.get("srg"), f"{name}: srg pin {pin.get('srg')} vs {srg_list}"

        entry = {
            "graph6": graph6_encode(g),
            "canonical": graph6_encode(canonical_graph(g)),
            "order": g.n,
            "degree": regular_degree(g),
            "spectrum": pin["spectrum"],
            "starData": star,
        }
        if srg_list is not None:
            entry["srg"] = srg_list
        entries[name] = entry
        print(f"  {name:9s} order {g.n:2d}  degree {entry['degree']}  ok")

    payload = {"schemaVersion": 1, "entries": entries}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    OUT.parent.mkdir(parents=True, exist_ok=True)
    if OUT.exists() and OUT.read_text() == text:
        print(f"unchanged: {OUT}")
    else:
        OUT.write_text(text)
        print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
