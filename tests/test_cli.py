"""Command-line surface: output schema, exit codes, determinism.

Exit code convention: 0 = success with results, 2 = clean run with an
empty result (or a failing certificate), 1 = any error, including usage
errors.  JSON lines are emitted with sorted keys so reruns are
byte-identical.
"""

import json

import pytest

from starcomp import cli, kts
from starcomp.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line]


# ---------------------------------------------------------------- analyze

def test_analyze_t3_s18(capsys):
    code, out, err = run(capsys, "analyze", "3", "18", "2")
    assert code == 0 and err == ""
    assert "complement K_{3,18}  mu=2  mval=-100" in out
    assert "a=0 b=10 s=18 feasible" in out
    assert "a=2 b=9/2 s=61/2 infeasible" in out
    assert "types: (0,10) (1,6)" in out
    assert "(0,10) (0,10) nonadjacent rho=6 bounds=[2,10] feasible" in out
    assert "(1,6) (1,6) adjacent rho=1 bounds=[0,7] feasible" in out


def test_analyze_computes_each_rho_once(capsys, monkeypatch):
    # K_{3,18} at mu=2 has 3 type pairs, each printed adjacent and not
    calls = []
    real = kts.rho_value

    def counted(*args):
        calls.append(args)
        return real(*args)
    for module in (cli, kts):
        monkeypatch.setattr(module, "rho_value", counted)
    code, out, err = run(capsys, "analyze", "3", "18", "2")
    assert code == 0 and out.count(" rho=") == 6
    assert len(calls) == 6


def test_analyze_no_types_is_empty(capsys):
    code, out, err = run(capsys, "analyze", "3", "4", "-3")
    assert code == 2
    assert "types: none" in out


def test_analyze_quadratic_mu(capsys):
    code, out, err = run(capsys, "analyze", "1", "2", "root(-1,1):pos")
    assert code == 0
    assert "types: (0,1)" in out


@pytest.mark.parametrize("t,s,mu", [("3", "3", "3"), ("3", "3", "0"), ("2", "2", "2")])
def test_analyze_mu_eigenvalue_is_error(capsys, t, s, mu):
    # mval = mu (mu^2 - ts) = 0 makes both defining relations homogeneous,
    # so their solutions mean nothing; analyze and search both refuse it in
    # make_context
    code, out, err = run(capsys, "analyze", t, s, mu)
    assert code == 1 and "is an eigenvalue of the complement" in err and out == ""


@pytest.mark.parametrize("mu", ["0", "2"])
def test_analyze_k11_is_error(capsys, mu):
    # the types are defined on K_{1,1}, but the parametric rows and rho
    # tables rest on the cubic x^3 - ts x, which is not its minimal polynomial
    code, out, err = run(capsys, "analyze", "1", "1", mu)
    assert code == 1 and "t + s >= 3" in err and out == ""


def test_analyze_bad_parts(capsys):
    code, out, err = run(capsys, "analyze", "3", "2", "1")
    assert code == 1 and "error:" in err


# ----------------------------------------------------------------- search

def test_search_sweep_k33(capsys):
    code, out, err = run(capsys, "search", "3", "3", "1", "--sweep")
    assert code == 0
    lines = jsonl(out)
    head, body, foot = lines[0], lines[1:-1], lines[-1]
    assert head == {"schemaVersion": 1, "command": "search", "t": 3, "s": 3,
                    "mu": "1", "r": "sweep", "maxX": None, "maxSolutions": None}
    assert foot == {"summary": {"count": 3, "dedupedBy": "canonical"}}
    assert [rec["order"] for rec in body] == [9, 12, 15]
    assert [rec["degree"] for rec in body] == [4, 5, 6]
    for rec in body:
        assert rec["certificate"]["passed"] is True
        assert rec["certificate"]["xSize"] == len(rec["starSet"])
        assert rec["residualFactor"] is None
        roots = {r: m for r, m in rec["spectrumIntegerRoots"]}
        assert sum(roots.values()) == rec["order"]


def test_search_mu_eigenvalue_is_error(capsys):
    code, out, err = run(capsys, "search", "3", "3", "3", "--sweep")
    assert code == 1 and "error:" in err and out == ""


def test_search_past_the_candidate_cap_is_error(capsys):
    # K_{3,18} at mu=2 has 99,450 candidates; the cap stops it before any
    # label table is built
    code, out, err = run(capsys, "search", "3", "18", "2", "--r", "18")
    assert code == 1 and "error:" in err and "capped" in err and out == ""


def test_search_empty_exit_code(capsys):
    code, out, err = run(capsys, "search", "3", "4", "-3", "--sweep")
    assert code == 2
    lines = jsonl(out)
    assert len(lines) == 2
    assert lines[-1]["summary"]["count"] == 0


def test_search_fixed_degree(capsys):
    code, out, err = run(capsys, "search", "3", "3", "1", "--r", "4")
    assert code == 0
    lines = jsonl(out)
    assert lines[0]["r"] == 4 and len(lines) == 3


def test_search_quadratic_mu_residual(capsys):
    code, out, err = run(capsys, "search", "1", "2", "root(-1,1):pos", "--r", "2")
    assert code == 0
    rec = jsonl(out)[1]
    assert rec["order"] == 5
    assert rec["spectrumIntegerRoots"] == [[2, 1]]
    # residual after integer roots: (x^2+x-1)^2
    assert rec["residualFactor"] == [1, -2, -1, 2, 1]


def test_search_special_mu_needs_max_x(capsys):
    code, out, err = run(capsys, "search", "2", "2", "-1", "--r", "3")
    assert code == 1 and "error:" in err and out == ""
    code, out, err = run(capsys, "search", "2", "2", "-1", "--r", "3", "--max-x", "4")
    assert code == 2


@pytest.mark.parametrize("flag", ["--max-x", "--max-solutions"])
def test_search_negative_limit_is_an_error(capsys, flag):
    code, out, err = run(capsys, "search", "3", "3", "1", "--sweep", flag, "-1")
    assert code == 1 and out == "" and "error:" in err


def test_search_output_file_reruns_identically(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        code, out, err = run(capsys, "search", "3", "3", "1", "--sweep",
                             "--output", str(path))
        assert code == 0 and out == ""
    assert a.read_bytes() == b.read_bytes()


def test_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; what one call parses must not
    # reach the next: neither --output nor --r nor a usage error
    path = tmp_path / "k33.jsonl"
    code, out, err = run(capsys, "search", "3", "3", "1", "--sweep", "--r", "4")
    assert code == 1 and "not allowed with" in err
    code, out, err = run(capsys, "search", "3", "3", "1", "--r", "4", "--output", str(path))
    assert code == 0 and out == ""
    code, out, err = run(capsys, "search", "3", "3", "1", "--sweep")
    assert code == 0 and err == ""
    head = jsonl(out)[0]
    assert head["r"] == "sweep" and head["maxX"] is None
    assert jsonl(path.read_text())[0]["r"] == 4
    assert cli._build_parser() is cli._build_parser()


def test_search_output_into_missing_directory_is_an_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.jsonl"
    code, out, err = run(capsys, "search", "3", "3", "1", "--sweep",
                         "--output", str(path))
    assert code == 1 and out == "" and err.startswith("error:")
    assert not path.exists()


# ----------------------------------------------------------------- verify

def test_verify_passing(capsys):
    code, out, err = run(capsys, "verify", "--graph6", "Dhc",
                         "--star-set", "3,4", "--mu", "root(-1,1):pos")
    assert code == 0
    rec = json.loads(out)
    assert rec["certificate"]["passed"] is True
    assert rec["certificate"]["multiplicity"] == 2


def test_verify_failing_is_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--graph6", "Dhc",
                         "--star-set", "3,4", "--mu", "2")
    assert code == 2
    assert json.loads(out)["certificate"]["passed"] is False


def test_verify_bad_star_set(capsys):
    for bad in ("3,3", "0,9", "x"):
        code, out, err = run(capsys, "verify", "--graph6", "Dhc",
                             "--star-set", bad, "--mu", "2")
        assert code == 1 and "error:" in err


def test_verify_empty_star_set_just_fails(capsys):
    # degenerate but well-formed: X = {} can never carry multiplicity 1
    code, out, err = run(capsys, "verify", "--graph6", "Dhc",
                         "--star-set", "", "--mu", "2")
    assert code == 2
    assert json.loads(out)["certificate"]["passed"] is False


def test_verify_empty_complement(capsys):
    # X = V(G) leaves a 0 x 0 complement; K_1 at mu = 0 is a star pair
    code, out, err = run(capsys, "verify", "--graph6", "@", "--star-set", "0", "--mu", "0")
    assert code == 0 and err == ""
    assert json.loads(out)["certificate"]["passed"] is True
    # K_3 at mu = 2: multiplicity 1, not 3, and the identity fails with it
    code, out, err = run(capsys, "verify", "--graph6", "Bw", "--star-set", "0,1,2",
                         "--mu", "2")
    assert code == 2 and err == ""
    cert = json.loads(out)["certificate"]
    assert cert["muNotInComplement"] is True
    assert cert["multiplicityMatches"] is False and cert["reconstructionOK"] is False


def test_verify_bad_graph6(capsys):
    code, out, err = run(capsys, "verify", "--graph6", "D\x19c",
                         "--star-set", "3,4", "--mu", "2")
    assert code == 1 and "error:" in err


# ---------------------------------------------------------------- catalog

def test_catalog_json(capsys):
    code, out, err = run(capsys, "catalog", "G5")
    assert code == 0
    rec = json.loads(out)
    assert rec["order"] == 18 and rec["degree"] == 10
    assert rec["starData"]["x"] == list(range(12, 18))
    assert rec["schemaVersion"] == 1


def test_catalog_graph6_format(capsys):
    code, out, err = run(capsys, "catalog", "Petersen", "--format", "graph6")
    assert code == 0
    from starcomp.graphs import graph6_decode
    assert graph6_decode(out.strip()).n == 10


def test_catalog_unknown(capsys):
    code, out, err = run(capsys, "catalog", "Nope")
    assert code == 1 and "error:" in err


# ------------------------------------------------------------------ bound

def test_bound_q_only(capsys):
    code, out, err = run(capsys, "bound", "--q", "12")
    assert code == 0
    assert json.loads(out)["multiplicityCap"] == 65


def test_bound_with_degree(capsys):
    code, out, err = run(capsys, "bound", "--q", "6", "--s", "3", "--r", "6")
    rec = json.loads(out)
    assert rec["sizeBound"] == 9 and rec["multiplicityCap"] == 14


def test_bound_s_without_r(capsys):
    code, out, err = run(capsys, "bound", "--q", "6", "--s", "3")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("q", ["2", "1", "0", "-3"])
def test_bound_rejects_q_below_3(capsys, q):
    code, out, err = run(capsys, "bound", "--q", q)
    assert code == 1 and out == "" and "error:" in err


@pytest.mark.parametrize("s,r", [("3", "1"), ("0", "4"), ("-1", "2")])
def test_bound_rejects_s_outside_1_to_r(capsys, s, r):
    code, out, err = run(capsys, "bound", "--q", "5", "--s", s, "--r", r)
    assert code == 1 and out == "" and "error:" in err


# ------------------------------------------------------------- bad usage

def test_unknown_command_is_exit_1(capsys):
    code, out, err = run(capsys, "nosuch")
    assert code == 1


def test_missing_args_is_exit_1(capsys):
    code, out, err = run(capsys, "analyze", "3")
    assert code == 1


def test_bad_mu_text_is_exit_1(capsys):
    code, out, err = run(capsys, "analyze", "3", "3", "root(1,2,3):pos")
    assert code == 1 and "error:" in err
