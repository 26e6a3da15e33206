"""Unit and randomized checks for the equality-form simplex solver."""

import numpy as np
import pytest
from scipy.optimize import linprog

from ncsdp import ctp, lp
from ncsdp.generator import gen_sparse
from ncsdp.lp import LpInstance, solve_lp
from ncsdp.relaxation import build
from ncsdp.sparsity import dense_decomposition
from oracles import check_lp_optimum

NEG_INF = -np.inf


def test_simple_bounded():
    # min x1 + 2 x2 s.t. x1 + x2 = 1, x >= 0; optimum at x = (1, 0)
    inst = LpInstance(
        c=[1.0, 2.0],
        a_mat=[[1.0, 1.0]],
        b=[1.0],
        lower=[0.0, 0.0],
    )
    res = solve_lp(inst)
    assert res.objective == pytest.approx(1.0)
    assert np.allclose(res.x, [1.0, 0.0])
    check_lp_optimum(inst, res)


def test_free_variable():
    # max x2 s.t. x1 + x2 = 0, x1 >= 2, x2 free; optimum x = (2, -2)
    inst = LpInstance(
        c=[0.0, -1.0],
        a_mat=[[1.0, 1.0]],
        b=[0.0],
        lower=[2.0, NEG_INF],
    )
    res = solve_lp(inst)
    assert res.objective == pytest.approx(2.0)
    assert np.allclose(res.x, [2.0, -2.0])
    check_lp_optimum(inst, res)


def test_free_variable_unbounded():
    # min x2 with x2 = -x1 and x1 unbounded above
    inst = LpInstance(
        c=[0.0, 1.0],
        a_mat=[[1.0, 1.0]],
        b=[0.0],
        lower=[2.0, NEG_INF],
    )
    assert solve_lp(inst).status == "unbounded"


def test_nonzero_lower_bounds():
    # min x1 + x2 s.t. x1 + 2 x2 = 7, x1 >= 1, x2 >= 1
    inst = LpInstance(
        c=[1.0, 1.0],
        a_mat=[[1.0, 2.0]],
        b=[7.0],
        lower=[1.0, 1.0],
    )
    res = solve_lp(inst)
    # pushing x2 up is cheaper per unit of rhs
    assert res.objective == pytest.approx(1.0 + 3.0)
    assert np.allclose(res.x, [1.0, 3.0])
    check_lp_optimum(inst, res)


def test_infeasible():
    inst = LpInstance(
        c=[1.0, 1.0],
        a_mat=[[1.0, 1.0], [1.0, 1.0]],
        b=[1.0, 2.0],
        lower=[0.0, 0.0],
    )
    assert solve_lp(inst).status == "infeasible"


def test_infeasible_negative_rhs():
    # x1 + x2 = -1 has no nonnegative solution
    inst = LpInstance(c=[1.0, 1.0], a_mat=[[1.0, 1.0]], b=[-1.0], lower=[0.0, 0.0])
    assert solve_lp(inst).status == "infeasible"


def test_unbounded():
    # min -x2 s.t. x1 - x2 = 0, x >= 0: ray x1 = x2 = t
    inst = LpInstance(
        c=[0.0, -1.0],
        a_mat=[[1.0, -1.0]],
        b=[0.0],
        lower=[0.0, 0.0],
    )
    assert solve_lp(inst).status == "unbounded"


def test_redundant_rows_dropped():
    # second row is the first row doubled
    inst = LpInstance(
        c=[1.0, 2.0, 0.0],
        a_mat=[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
        b=[3.0, 6.0],
        lower=[0.0, 0.0, 0.0],
    )
    res = solve_lp(inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0)
    assert np.abs(inst.a_mat @ res.x - inst.b).max() <= 1e-9
    check_lp_optimum(inst, res)


def test_degenerate_rhs_zero():
    inst = LpInstance(
        c=[1.0, 1.0],
        a_mat=[[1.0, -1.0]],
        b=[0.0],
        lower=[0.0, 0.0],
    )
    res = solve_lp(inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0)


_STATUS_MAP = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _random_bounded_instance(rng: np.random.Generator) -> LpInstance:
    """Primal and dual feasible by construction, so the optimum is finite."""
    m = rng.integers(1, 5)
    n = rng.integers(int(m) + 1, int(m) + 7)
    a = rng.standard_normal((m, n))
    lower = np.zeros(n)
    n_free = int(rng.integers(0, min(2, n)))
    free = rng.choice(n, size=n_free, replace=False)
    lower[free] = NEG_INF
    x0 = np.abs(rng.standard_normal(n))
    x0[free] = rng.standard_normal(n_free)
    b = a @ x0
    y0 = rng.standard_normal(m)
    slack = np.abs(rng.standard_normal(n))
    slack[free] = 0.0
    c = a.T @ y0 + slack
    return LpInstance(c=c, a_mat=a, b=b, lower=lower)


def test_randomized_against_scipy():
    rng = np.random.default_rng(20260819)
    for _ in range(60):
        inst = _random_bounded_instance(rng)
        res = solve_lp(inst)
        bounds = [
            (None, None) if not np.isfinite(lo) else (lo, None) for lo in inst.lower
        ]
        ref = linprog(inst.c, A_eq=inst.a_mat, b_eq=inst.b, bounds=bounds, method="highs")
        assert _STATUS_MAP.get(ref.status) == "optimal"
        assert res.status == "optimal"
        scale = 1.0 + abs(ref.fun)
        assert abs(res.objective - ref.fun) <= 1e-6 * scale
        check_lp_optimum(inst, res)


def test_randomized_statuses_agree():
    """Unrestricted random instances: statuses must match scipy's."""
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(80):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-2, 3, size=m).astype(float)
        c = rng.integers(-2, 3, size=n).astype(float)
        inst = LpInstance(c=c, a_mat=a, b=b, lower=np.zeros(n))
        res = solve_lp(inst)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs")
        want = _STATUS_MAP.get(ref.status)
        if want is None:
            continue
        seen.add(want)
        assert res.status == want
        if want == "optimal":
            assert abs(res.objective - ref.fun) <= 1e-6 * (1 + abs(ref.fun))
            check_lp_optimum(inst, res)
    assert {"optimal", "infeasible"} <= seen


@pytest.mark.filterwarnings("ignore:clique chain")
@pytest.mark.parametrize("bland_after", [0, 1, 3])
def test_bland_fallback_solves_the_same(monkeypatch, bland_after):
    # Bland's rule after 0 (throughout), 1 or 3 degenerate pivots gives optima too,
    # also on a certificate LP (b = 0, 575 x 110), where most pivots are degenerate
    monkeypatch.setattr(lp, "_BLAND_AFTER", bland_after)
    rng = np.random.default_rng(20260819)
    for _ in range(30):
        inst = _random_bounded_instance(rng)
        check_lp_optimum(inst, solve_lp(inst))
    inst = LpInstance(c=[1.0, 1.0], a_mat=[[1.0, -1.0]], b=[0.0], lower=[0.0, 0.0])
    assert solve_lp(inst).objective == pytest.approx(0.0)
    prob = gen_sparse(7, 3, seed=0)
    rel = build(prob, 2, decomp=dense_decomposition(prob))
    inst = ctp._group_lp(rel, *ctp._group(rel, 0))
    res = solve_lp(inst)
    check_lp_optimum(inst, res)
    assert res.objective == pytest.approx(7.0, abs=1e-9)
