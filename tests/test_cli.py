"""End-to-end command line tests driven through main(argv)."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ncsdp.generator import gen_dense
from ncsdp.relaxation import Problem
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
    assert out.count("bound -") == 2 and out.count("(converged, stop gap)") == 2
    # one file per mode, each path printed; the eig form is not overwritten by the trace form
    paths = [tmp_path / "out-eig.sdp", tmp_path / "out-trace.sdp"]
    assert [line.split(" to ")[1] for line in out.splitlines() if "written" in line] == list(map(str, paths))
    assert not export.exists()
    eig, trace = (read_sdp(str(p)) for p in paths)
    assert eig.trace == trace.trace == 3.0
    assert eig.n_rows != trace.n_rows
    lines = open(csv_path).read().strip().splitlines()
    assert len(lines) == 3
    modes = {line.split(",")[-2] for line in lines[1:]}
    assert modes == {"eig", "trace"}


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/file.json"]) == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


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
