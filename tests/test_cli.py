"""End-to-end command line tests driven through main(argv)."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsdp import cli, ctp
from ncsdp.cli import (
    CSV_COLUMNS,
    EXIT_INPUT,
    EXIT_NO_CTP,
    EXIT_OK,
    InputError,
    _csv_row,
    main,
    poly_from_json,
    poly_to_json,
    problem_from_json,
    problem_to_json,
)
from ncsdp.free_algebra import NcPolynomial
from ncsdp.generator import gen_dense, random_vanishing_equality
from ncsdp.relaxation import Problem, build
from ncsdp.standard_form import read_sdp


@pytest.fixture
def ball_instance(tmp_path):
    path = tmp_path / "ball.json"
    assert main(["gen", "--kind", "ball", "--n", "2", "--seed", "3",
                 "-o", str(path)]) == EXIT_OK
    return str(path)


def test_gen_writes_instance(ball_instance):
    data = json.loads(open(ball_instance).read())
    assert data["n"] == 2
    assert data["meta"]["kind"] == "ball"
    assert len(data["ineq"]) == 1
    assert len(data["eq"]) == 1  # default ceil(n/4)
    assert "anchor" in data


def test_gen_stdout(capsys):
    assert main(["gen", "--kind", "polydisc", "--n", "2", "--compact"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["meta"]["kind"] == "polydisc"
    assert len(data["ineq"]) == 2


def test_gen_sparse_requires_width(capsys):
    assert main(["gen", "--kind", "sparse", "--n", "9"]) == EXIT_INPUT


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["gen"])  # missing --n
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["ctp", "inst.json", "--samples", "3"])  # verify takes no sampling options
    assert exc.value.code == 1


def test_count_reports_structure(ball_instance, capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    assert main(["count", ball_instance, "-k", "2", "--csv", str(csv_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "omega=" in out and "zeta=" in out and "amax=3" in out
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["n"] == "2" and row["k"] == "2" and row["sparse"] == "0"


def test_csv_with_another_header_is_refused(ball_instance, capsys, tmp_path):
    # a file from before the bound column: appending would put 13 fields under 12 names
    csv_path = tmp_path / "rows.csv"
    old = ",".join(CSV_COLUMNS[:-1]) + "\r\n" + "2,1,2,1,7,10,3,-1.0,0.1,1e-05,eig,0\r\n"
    csv_path.write_text(old)
    assert main(["count", ball_instance, "-k", "2", "--csv", str(csv_path)]) == EXIT_INPUT
    assert str(csv_path) in capsys.readouterr().err
    assert csv_path.read_bytes() == old.encode()


def test_ctp_command(ball_instance, capsys):
    assert main(["ctp", ball_instance]) == EXIT_OK
    out = capsys.readouterr().out
    assert "group 0: ball-closed-form a=2" in out
    assert "verification residual" in out


def test_solve_both_modes(ball_instance, capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    export = tmp_path / "out.sdp"
    # at order 2 the modes give different keys, so forms of different row counts
    code = main(["solve", ball_instance, "--mode", "both", "--eps", "1e-3", "-k", "2",
                 "--csv", str(csv_path), "--export", str(export)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("value") == 2
    assert "eig k=2" in out and "trace k=2" in out
    assert out.count("bound -") == 2 and out.count("(converged, stop gap, path ") == 2
    assert out.count("verify ") == 2
    # one file per mode, each path printed; the eig form is not overwritten by the trace form
    paths = [tmp_path / "out-eig.sdp", tmp_path / "out-trace.sdp"]
    assert [line.split(" to ")[1] for line in out.splitlines() if "written" in line] == list(map(str, paths))
    assert not export.exists()
    eig, trace = (read_sdp(str(p)) for p in paths)
    assert eig.trace == trace.trace == 3.0
    assert eig.n_rows != trace.n_rows
    lines = open(csv_path).read().strip().splitlines()
    assert len(lines) == 3
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
    assert {r["mode"] for r in rows} == {"eig", "trace"}
    # val is the primal value; the bound column, appended last, is the certified bound
    assert lines[0] == "n,l,k,omega,smax,zeta,amax,val,time,resid,mode,sparse,bound"
    printed = [float(line.split("bound ")[1].split()[0]) for line in out.splitlines() if "bound " in line]
    assert [round(float(r["bound"]), 6) for r in rows] == printed
    assert all(float(r["bound"]) != float(r["val"]) for r in rows)


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/file.json"]) == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--max-iters", "0"), ("--eps", "-1"), ("--eps", "nan")])
def test_solve_rejects_bad_budget(ball_instance, capsys, flag, value):
    assert main(["solve", ball_instance, flag, value]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "max_iters >= 1 and a finite eps >= 0" in captured.err
    assert "value" not in captured.out


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["count", str(path)]) == EXIT_INPUT
    assert "not valid JSON" in capsys.readouterr().err


def test_letter_out_of_range(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 1,
        "objective": [{"word": [5], "coeff": 1.0}],
    }))
    assert main(["count", str(path)]) == EXIT_INPUT


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d["objective"][0].update(coeff=float("nan")), "objective has a non-finite coefficient nan"),
        (lambda d: d["ineq"][0][0].update(coeff=float("inf")), "inequality 0 has a non-finite coefficient inf"),
        (lambda d: d["anchor"].__setitem__(1, float("nan")), "anchor entry 1 is not finite"),
        (lambda d: d["anchor"].append(0.5), "anchor has 3 entries, expected one per letter"),
    ],
    ids=["nan-objective", "inf-inequality", "nan-anchor", "long-anchor"],
)
def test_non_finite_or_misshapen_input_rejected(ball_instance, tmp_path, capsys, change, message):
    data = json.loads(open(ball_instance).read())
    change(data)
    with pytest.raises(InputError, match=message):
        problem_from_json(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # NaN and Infinity, as Python's json writes them
    assert main(["count", str(path)]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_order_below_minimal(ball_instance, capsys):
    assert main(["count", ball_instance, "-k", "0"]) == EXIT_INPUT
    assert "below the minimal order" in capsys.readouterr().err


def test_uncertifiable_instance_exits_three(tmp_path, capsys):
    path = tmp_path / "unconstrained.json"
    path.write_text(json.dumps({
        "n": 1,
        "objective": [{"word": [1], "coeff": 1.0}],
    }))
    assert main(["ctp", str(path)]) == EXIT_NO_CTP
    assert "not certified" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "--eps", "1e-3"], ["count"], ["ctp"], ["bench", "--table", "1"]])
def test_failed_verify_exits_three(ball_instance, monkeypatch, capsys, command):
    # every command re-checks the certificate and stops before any output
    monkeypatch.setattr("ncsdp.ctp.verify", lambda *args, **kwargs: 1.0)
    argv = command[:1] + ([] if command[0] == "bench" else [ball_instance]) + command[1:]
    assert main(argv) == EXIT_NO_CTP
    captured = capsys.readouterr()
    assert "verify residual 1.000e+00 is above 2e-08" in captured.err  # the limit scales with a = 2 at k = 1
    assert captured.out == ""


@pytest.mark.parametrize("command", [["count"], ["ctp"], ["solve", "--max-iters", "50"]])
def test_large_trace_constant_passes_verify(tmp_path, capsys, command):
    # ball of radius 1000 at k = 2: a = 1e12 + 1e6 + 1 and an absolute residual of about 1e-4,
    # sound in relative terms
    problem = Problem(n=2, objective=gen_dense(2, seed=3).objective,
                      inequalities=[NcPolynomial(2, {(): 1e6, (1, 1): -1.0, (2, 2): -1.0})],
                      anchor=np.array([300.0, 700.0]))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(problem_to_json(problem)))
    assert main(command[:1] + [str(path), "-k", "2"] + command[1:]) == EXIT_OK
    out = capsys.readouterr().out
    if command[0] == "ctp":
        assert float(out.split("residual ")[-1]) > 1e-8


def test_wide_moments_with_an_equality_pass_verify(tmp_path, capsys):
    # ball of radius 100 with an equality vanishing at (30, 40), k = 2: moments span 1 to 1e8,
    # the LP route certifies a = 1 + 1e4 + 1e8, and the check needs no rank decision
    anchor = np.array([30.0, 40.0])
    equality = random_vanishing_equality(2, (1, 2), anchor, np.random.Generator(np.random.Philox(0)))
    problem = Problem(n=2, objective=gen_dense(2, seed=3).objective,
                      inequalities=[NcPolynomial(2, {(): 1e4, (1, 1): -1.0, (2, 2): -1.0})],
                      equalities=[equality], anchor=anchor)
    rel = build(problem, 2)
    cert = ctp.certify(rel)
    assert cert.provenances == (ctp.PROV_LP,)
    assert cert.trace_constant == pytest.approx(100010001.0)
    assert ctp.verify(rel, cert) <= 1e-8 * cert.trace_constant
    path = tmp_path / "wide-eq.json"
    path.write_text(json.dumps(problem_to_json(problem)))
    for command in ("count", "ctp"):
        assert main([command, str(path), "-k", "2"]) == EXIT_OK
    assert "verification residual" in capsys.readouterr().out


def test_asymmetric_input_symmetrized(tmp_path, capsys):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({
        "n": 2,
        "objective": [{"word": [1, 2], "coeff": 2.0}],
        "ineq": [[{"word": [], "coeff": 1.0},
                  {"word": [1, 1], "coeff": -1.0},
                  {"word": [2, 2], "coeff": -1.0}]],
    }))
    with pytest.warns(UserWarning, match="objective is not symmetric"):
        code = main(["count", str(path)])
    assert code == EXIT_OK


def test_bench_count_only(capsys, tmp_path):
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--table", "1", "--count-only", "--csv", str(csv_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "n=10" in out and "n=20" in out and "n=30" in out
    assert "zeta=815" in out and "zeta=5587" in out and "zeta=18415" in out
    lines = open(csv_path).read().strip().splitlines()
    assert len(lines) == 7  # header + three instances at two orders


def test_bench_solve_rows_carry_the_bound(capsys, tmp_path, monkeypatch):
    monkeypatch.setitem(cli.BENCH_TABLES, "1", [("ball", 3, 1, None)])
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--table", "1", "--eps", "1e-3", "--csv", str(csv_path)]) == EXIT_OK
    out = capsys.readouterr().out
    solved = [line for line in out.splitlines() if "val=" in line]
    assert len(solved) == 1 and "k=1" in solved[0]
    bound = float(solved[0].split("bound=")[1].split()[0])
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in open(csv_path).read().strip().splitlines()[1:]]
    assert [r["k"] for r in rows] == ["1", "2"]
    assert round(float(rows[0]["bound"]), 6) == bound and rows[1]["bound"] == ""


def test_problem_json_round_trip():
    prob = gen_dense(3, kind="ball", seed=9)
    data = problem_to_json(prob, meta={"kind": "ball"})
    back = problem_from_json(json.loads(json.dumps(data)))
    assert back.n == prob.n
    assert back.objective.terms == prob.objective.terms
    assert len(back.inequalities) == len(prob.inequalities)
    assert back.inequalities[0].terms == prob.inequalities[0].terms
    assert len(back.equalities) == len(prob.equalities)
    assert np.allclose(back.anchor, prob.anchor)
    assert back.cliques == prob.cliques


@st.composite
def _problems(draw):
    n = draw(st.integers(1, 4))
    finite = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda c: c != 0.0)

    def poly():
        words = st.lists(st.integers(1, n), max_size=4).map(lambda w: min(tuple(w), tuple(w[::-1])))
        half = {w: draw(finite) for w in draw(st.lists(words, max_size=5, unique=True))}
        # w and its reverse carry one coefficient, so the polynomial is symmetric
        return NcPolynomial(n, {**half, **{w[::-1]: c for w, c in half.items()}})

    cliques = draw(st.none() | st.lists(st.sets(st.integers(1, n), min_size=1).map(sorted), min_size=1, max_size=3))
    anchor = draw(st.none() | st.lists(finite, min_size=n, max_size=n))
    return Problem(
        n=n,
        objective=poly(),
        inequalities=[poly() for _ in range(draw(st.integers(0, 2)))],
        equalities=[poly() for _ in range(draw(st.integers(0, 2)))],
        cliques=cliques,
        anchor=anchor,
    )


@settings(max_examples=60, deadline=None)
@given(_problems())
def test_problem_json_round_trip_property(prob):
    back = problem_from_json(json.loads(json.dumps(problem_to_json(prob))))
    assert back.n == prob.n
    assert back.objective == prob.objective
    assert back.inequalities == prob.inequalities
    assert back.equalities == prob.equalities
    assert back.cliques == prob.cliques
    if prob.anchor is None:
        assert back.anchor is None
    else:
        assert np.array_equal(back.anchor, prob.anchor)


def test_poly_json_round_trip():
    p = NcPolynomial(2, {(): 1.5, (1, 2): 0.5, (2, 1): 0.5})
    q = poly_from_json(2, poly_to_json(p), "test")
    assert q.terms == p.terms


def test_csv_row_closes_the_file(tmp_path):
    path = str(tmp_path / "rows.csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _csv_row(path, {"n": 2})
        _csv_row(path, {"n": 3})
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    lines = open(path).read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
