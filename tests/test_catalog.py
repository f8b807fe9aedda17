"""Named graphs, pinned spectra, and the fixture file.

Every named entry is re-verified from scratch: spectrum against the exact
eigenvalue multiplicities, star data through the full certificate, and
constructor output against the frozen graph6 material.
"""

import pytest

from starcomp.algebra import QNum, parse_scalar, qnum
from starcomp.canon import are_isomorphic, canonical_graph
from starcomp.catalog import (FIXTURE_NAMES, SEARCH_DERIVED, catalog_entry,
                              expected_spectrum, fixture_entry, named_graph,
                              petersen, spectrum_matches)
from starcomp.engine import verify_star_pair
from starcomp.errors import UnknownName
from starcomp.graphs import graph6_decode, graph6_encode, srg_check
from starcomp.kts import make_kts


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_spectrum_reverifies(name):
    g = named_graph(name)
    assert spectrum_matches(g, expected_spectrum(name))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_star_data_certifies(name):
    g = named_graph(name)
    star = fixture_entry(name)["starData"]
    cert = verify_star_pair(g, star["x"], parse_scalar(star["mu"]))
    assert cert.passed
    assert cert.multiplicity == len(star["x"])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_graph6_and_canonical_pins(name):
    entry = fixture_entry(name)
    g = graph6_decode(entry["graph6"])
    assert are_isomorphic(g, named_graph(name))
    assert graph6_encode(canonical_graph(g)) == entry["canonical"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_srg_pins(name):
    entry = fixture_entry(name)
    params = srg_check(named_graph(name))
    if "srg" in entry:
        assert params is not None
        assert [params.n, params.r, params.e, params.f] == entry["srg"]
    else:
        assert params is None


def test_search_derived_decode_from_fixtures():
    for name in SEARCH_DERIVED:
        g = named_graph(name)
        assert graph6_encode(g) == fixture_entry(name)["graph6"]


def test_petersen_constructor():
    p = petersen()
    assert p.n == 10 and all(d == 3 for d in p.degrees())
    assert srg_check(p) is not None


def test_named_graph_parametrized():
    assert named_graph("Knn(3)").adj == make_kts(3, 3).adj
    assert named_graph("Kts(2,5)").adj == make_kts(2, 5).adj
    g = named_graph("Gr(2,3,4)")
    assert g.n == 7 and all(d == 4 for d in g.degrees())


def test_named_graph_unknown():
    for name in ("G9", "Foo", "Knn(3,4)", "Kts(5)", "Gr(2,3)", "Knn()", "knn(3)"):
        with pytest.raises(UnknownName):
            named_graph(name)


def test_expected_spectrum_parametrized():
    spec = expected_spectrum("Kts(2,3)")
    root = QNum.sqrt(6)
    assert spec == [(-root, 1), (qnum(0), 3), (root, 1)]
    assert expected_spectrum("Knn(1)") == [(qnum(-1), 1), (qnum(1), 1)]
    with pytest.raises(UnknownName):
        expected_spectrum("Gr(2,3,4)")


def test_spectrum_matches_rejects_wrong():
    g = named_graph("C5")
    good = expected_spectrum("C5")
    assert spectrum_matches(g, good)
    assert not spectrum_matches(g, expected_spectrum("C3"))
    wrong_mult = [(ev, m) for ev, m in good]
    wrong_mult[0] = (wrong_mult[0][0], wrong_mult[0][1] + 1)
    assert not spectrum_matches(g, wrong_mult)
    # a repeated eigenvalue counts with its multiplicities added up
    split = [(qnum(3), 1), (qnum(1), 3), (qnum(-2), 4), (qnum(1), 2)]
    assert spectrum_matches(petersen(), split)
    assert not spectrum_matches(petersen(), split[:3])


def test_catalog_entry_records():
    rec = catalog_entry("G3")
    assert rec["order"] == 15 and rec["degree"] == 6
    assert rec["srg"] == [15, 6, 1, 3]
    assert rec["starData"]["x"] == list(range(6, 15))
    rec = catalog_entry("Knn(3)")
    assert rec["spectrum"] == [["-3", 1], ["0", 4], ["3", 1]]
    assert rec["srg"] == [6, 3, 0, 3]
    rec = catalog_entry("Gr(2,3,4)")
    assert rec["spectrum"] is None and rec["degree"] == 4


def test_fixture_schema_pin():
    import json
    from importlib import resources
    data = json.loads(resources.files("starcomp")
                      .joinpath("data/named_graphs.json").read_text())
    assert data["schemaVersion"] == 1
    assert sorted(data["entries"]) == sorted(FIXTURE_NAMES)
    for entry in data["entries"].values():
        assert {"graph6", "canonical", "order", "degree",
                "spectrum", "starData"} <= set(entry)
