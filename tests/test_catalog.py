"""Named graphs and their pinned spectra, star data and forms.

Every named entry is re-verified from scratch: spectrum against the exact
eigenvalue multiplicities, star data through the full certificate, the
graph against its pinned canonical form, and the search-derived graph6
against the searches that define it.
"""

import pytest

from oracles import canonical_graph, spectrum_matches
from starcomp.algebra import QNum, parse_scalar, qnum
from starcomp.catalog import (FIXTURE_NAMES, FIXTURES, catalog_entry,
                              expected_spectrum, named_graph, petersen)
from starcomp.engine import verify_star_pair
from starcomp.errors import UnknownName
from starcomp.graphs import graph6_encode, srg_check
from starcomp.kts import make_kts

# graph6 of each named graph relabelled into its canonical form
CANONICAL = {
    "C3": "Bw",
    "C5": "DqK",
    "Clebsch": "OsaBA`GP@`dIHWEcas_]O",
    "G1": r"Hs\u@SV",
    "G2": "K{eAiglJaTEJ",
    "G3": "N{eCIhSQqTEXKkJQde_",
    "G4": "NsaCB|}^b{No}[xrBv_",
    "G5": "QsaCB|}^b{No}[|Y|YulYJvG]{W",
    "Petersen": "IsP@PGXD_",
}


def test_fixture_table_shape():
    # perfbench times catalog_entry over these names, in this order
    assert FIXTURE_NAMES == ("C3", "C5", "Clebsch", "G1", "G2", "G3", "G4", "G5",
                             "Petersen")
    for entry in FIXTURES.values():
        assert {"spectrum", "starData"} <= set(entry) <= {"graph6", "spectrum",
                                                         "starData", "srg"}
        assert set(entry["starData"]) == {"mu", "x"}
        assert all(type(mult) is int and mult > 0 for _, mult in entry["spectrum"])
    # the search-derived names are the ones whose graph6 is pinned
    assert {name for name, entry in FIXTURES.items() if "graph6" in entry} == {
        "Clebsch", "G1", "G2", "G3"}
    # each spectrum strictly ascends; QNum has no order, so sympy compares
    sympy = pytest.importorskip("sympy")
    for entry in FIXTURES.values():
        values = [sympy.Rational(x.a.numerator, x.a.denominator)
                  + sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d)
                  for x in (parse_scalar(ev) for ev, _ in entry["spectrum"])]
        assert all(x < y for x, y in zip(values, values[1:]))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_spectrum_reverifies(name):
    g = named_graph(name)
    assert spectrum_matches(g, expected_spectrum(name))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_star_data_certifies(name):
    g = named_graph(name)
    star = FIXTURES[name]["starData"]
    cert = verify_star_pair(g, star["x"], parse_scalar(star["mu"]))
    assert cert.passed
    assert cert.multiplicity == len(star["x"])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_graph6_and_canonical_pins(name):
    assert graph6_encode(canonical_graph(named_graph(name))) == CANONICAL[name]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_srg_pins(name):
    params = srg_check(named_graph(name))
    if "srg" in FIXTURES[name]:
        assert params is not None
        assert [params.n, params.r, params.e, params.f] == FIXTURES[name]["srg"]
    else:
        assert params is None


def test_search_derived_graphs_are_the_searches_finds(k33_sweep, k15_sweep):
    # G1, G2 and G3 are the K_{3,3} mu=1 sweep's graphs of orders 9, 12 and
    # 15, and Clebsch is the one graph of the K_{1,5} mu=1 sweep, each pinned
    # as the search assembles it
    by_order = {sol.order: graph6_encode(sol.graph) for sol in k33_sweep}
    assert sorted(sol.order for sol in k33_sweep) == [9, 12, 15]
    assert [by_order[n] for n in (9, 12, 15)] == [FIXTURES[name]["graph6"]
                                                   for name in ("G1", "G2", "G3")]
    assert [graph6_encode(sol.graph) for sol in k15_sweep] == [FIXTURES["Clebsch"]["graph6"]]


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
