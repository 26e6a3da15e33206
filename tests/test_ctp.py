"""Constant trace certification: oracles, closed forms, LP route, verify."""

import tracemalloc

import numpy as np
import pytest

import ncsdp.ctp as ctp
from ncsdp.ctp import (
    PROV_BALL,
    PROV_LP,
    PROV_POLYDISC,
    PROV_SQUARE_EQ,
    CtpError,
    ball_coeffs,
    ball_decomposition_residual,
    certify,
    derive_ball_coeffs,
    sampled_deviation,
    square_equality_multipliers,
    symbolic_residual,
    verify,
)
from ncsdp.free_algebra import NcPolynomial, SymmetryMode, WordBasis, basis_size
from ncsdp.generator import ball_inequality, gen_dense, gen_sparse, polydisc_inequalities
from ncsdp.lp import solve_lp
from ncsdp.relaxation import Problem, build, equality_system, sample_equality_feasible_moments
from ncsdp.sparsity import dense_decomposition


def _letters(n):
    return [NcPolynomial.letter(n, j) for j in range(1, n + 1)]


def ball_problem(n: int, radius_sq: float = 1.0) -> Problem:
    x = _letters(n)
    obj = sum(x, NcPolynomial.zero(n))
    g = NcPolynomial.constant(n, radius_sq) - sum(
        (xi * xi for xi in x), NcPolynomial.zero(n)
    )
    return Problem(n=n, objective=obj, inequalities=[g])


def shell_decomposition_residual(n: int, r: int) -> float:
    """Max |coeff| of sum_{|w|=r} w*w - 1 - sum_{u, deg<r} u*(sum X^2 - 1)u.

    The multiplier on every u is 1; the identity telescopes one length shell
    at a time. Exact integers throughout, so a nonzero residual is real.
    """
    acc = {}
    for w in WordBasis(range(1, n + 1), r).words:
        if len(w) == r:
            ctp._add_term(acc, w[::-1] + w, 1.0)
    ctp._add_term(acc, (), -1.0)
    if r >= 1:
        q = {(j, j): 1.0 for j in range(1, n + 1)}
        q[()] = -1.0
        for u in WordBasis(range(1, n + 1), r - 1).words:
            ctp._add_conjugation(acc, u, q, u, -1.0)
    return max((abs(c) for c in acc.values()), default=0.0)


def test_shell_oracle_zero():
    for n in (1, 2, 3):
        for r in (0, 1, 2, 3):
            assert shell_decomposition_residual(n, r) == 0.0


def test_ball_oracle_and_closed_form():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            coeffs = ball_coeffs(n, k)
            assert coeffs == {u: float(k - len(u)) for u in coeffs}
            assert set(coeffs) == set(WordBasis(range(1, n + 1), k - 1).words)
            assert ball_decomposition_residual(n, k, coeffs) == 0.0
            assert derive_ball_coeffs(n, k) == coeffs


def test_ball_oracle_rejects_wrong_multipliers():
    coeffs = ball_coeffs(2, 2)
    bad = dict(coeffs)
    bad[()] = bad[()] + 1.0
    assert ball_decomposition_residual(2, 2, bad) > 0.5
    # the triangular profile (k - d)(k - d + 1)/2 fails from k = 2 on
    k = 2
    tri = {u: (k - len(u)) * (k - len(u) + 1) / 2.0 for u in coeffs}
    assert ball_decomposition_residual(2, k, tri) > 0.0


def test_ball_coeffs_rejects_bad_order():
    with pytest.raises(ValueError):
        ball_coeffs(2, 0)


def test_square_equality_multipliers_values():
    n, k = 2, 2
    m = square_equality_multipliers(n, k)
    assert m[()] == basis_size(1, 2) == 3.0
    assert m[(1,)] == m[(2,)] == 1.0
    assert all(len(u) <= k - 1 for u in m)


def test_certify_ball_closed_form():
    rel = build(ball_problem(2), order=2)
    cert = certify(rel)
    assert cert.provenances == (PROV_BALL,)
    assert cert.trace_constant == 3.0
    assert cert.a_max == 3.0
    assert np.allclose(cert.block_scales[0], 1.0)
    # localizing scales follow sqrt(k - deg u) over the degree-(k-1) basis
    want = np.sqrt([2.0, 1.0, 1.0])
    assert np.allclose(np.sort(cert.block_scales[1])[::-1], want)
    assert symbolic_residual(rel, cert) <= 1e-12
    assert verify(rel, cert) <= 1e-9


def test_certify_ball_relabeled_clique():
    n = 5
    x = _letters(n)
    obj = x[1] + x[4]
    g = ball_inequality(n, letters=(2, 5))
    prob = Problem(n=n, objective=obj, inequalities=[g], cliques=[(2, 5)])
    rel = build(prob, order=2)
    cert = certify(rel)
    assert cert.provenances == (PROV_BALL,)
    assert cert.trace_constant == 3.0
    assert verify(rel, cert) <= 1e-9


def test_certify_polydisc_closed_form():
    n = 3
    x = _letters(n)
    prob = Problem(
        n=n,
        objective=sum(x, NcPolynomial.zero(n)),
        inequalities=polydisc_inequalities(n),
    )
    rel = build(prob, order=2)
    cert = certify(rel)
    assert cert.provenances == (PROV_POLYDISC,)
    assert cert.trace_constant == 3.0
    assert len([b for b in rel.blocks if not b.is_moment]) == n
    assert verify(rel, cert) <= 1e-9


def test_certify_square_equalities_closed_form():
    n, k = 2, 2
    x = _letters(n)
    one = NcPolynomial.constant(n, 1.0)
    prob = Problem(
        n=n,
        objective=x[0] * x[1] + x[1] * x[0],
        equalities=[x[0] * x[0] - one, x[1] * x[1] - one],
    )
    rel = build(prob, order=k)
    cert = certify(rel)
    assert cert.provenances == (PROV_SQUARE_EQ,)
    assert cert.trace_constant == float(basis_size(k, n))
    assert verify(rel, cert) <= 1e-9


def test_certify_square_equalities_scaled():
    # the pattern matcher must absorb a positive scale on each equality
    n, k = 2, 2
    x = _letters(n)
    one = NcPolynomial.constant(n, 1.0)
    prob = Problem(
        n=n,
        objective=x[0],
        equalities=[2.0 * (x[0] * x[0] - one), 0.5 * (x[1] * x[1] - one)],
    )
    rel = build(prob, order=k)
    cert = certify(rel)
    assert cert.provenances == (PROV_SQUARE_EQ,)
    assert cert.trace_constant == float(basis_size(k, n))
    assert verify(rel, cert) <= 1e-9


def test_certify_lp_route_scaled_ball():
    rel = build(ball_problem(2, radius_sq=2.0), order=1)
    cert = certify(rel)
    assert cert.provenances == (PROV_LP,)
    assert cert.trace_constant > 0.0
    assert verify(rel, cert) <= 1e-8


def test_certify_unconstrained_fails():
    n = 1
    prob = Problem(n=n, objective=NcPolynomial.letter(n, 1))
    rel = build(prob, order=1)
    with pytest.raises(CtpError, match="group 0"):
        certify(rel)


def _group_lp(problem, k, decomp, group=0):
    inst, _, _, _ = ctp._group_lp_from_rel(build(problem, k, decomp=decomp), group)
    return inst


def test_build_ctp_lp_ball_optimum():
    for n, k in ((2, 1), (3, 1), (2, 2)):
        prob = ball_problem(n)
        res = solve_lp(_group_lp(prob, k, dense_decomposition(prob)))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0 + k, abs=1e-8)


def test_build_ctp_lp_square_equalities_optimum():
    n, k = 2, 2
    x = _letters(n)
    one = NcPolynomial.constant(n, 1.0)
    prob = Problem(
        n=n,
        objective=x[0],
        equalities=[x[0] * x[0] - one, x[1] * x[1] - one],
    )
    res = solve_lp(_group_lp(prob, k, dense_decomposition(prob)))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(float(basis_size(k, n)), abs=1e-7)


@pytest.mark.filterwarnings("ignore:clique chain")
def test_build_ctp_lp_cs_per_group():
    prob = gen_sparse(9, 4, l=0, seed=5)
    from ncsdp.sparsity import decompose

    decomp = decompose(prob)
    assert decomp.n_groups == 2
    for g in range(2):
        res = solve_lp(_group_lp(prob, 1, decomp, g))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0, abs=1e-8)


@pytest.mark.filterwarnings("ignore:clique chain")
def test_dense_lp_on_overlapping_cliques():
    """Dense certification of a two-clique instance: one trace constant."""
    prob = gen_sparse(9, 4, l=0, seed=5)
    rel = build(prob, order=1, decomp=dense_decomposition(prob))
    cert = certify(rel)
    assert cert.provenances == (PROV_LP,)
    assert cert.trace_constant == pytest.approx(3.0, abs=1e-7)
    assert verify(rel, cert) <= 1e-8


@pytest.mark.filterwarnings("ignore:clique chain")
def test_sparse_certify_per_group_traces():
    prob = gen_sparse(9, 4, seed=5)
    rel = build(prob, order=1)
    cert = certify(rel)
    assert len(cert.group_traces) == 2
    assert cert.trace_constant == pytest.approx(sum(cert.group_traces))
    assert cert.a_max == max(cert.group_traces)
    assert verify(rel, cert) <= 1e-8


def test_verify_detects_tampering():
    rel = build(ball_problem(2), order=2)
    cert = certify(rel)
    scales = list(cert.block_scales)
    bad0 = scales[0].copy()
    bad0[1] *= 1.5
    tampered = ctp.CtpCertificate(
        order=cert.order,
        block_scales=(bad0,) + tuple(scales[1:]),
        eq_multipliers=cert.eq_multipliers,
        group_traces=cert.group_traces,
        provenances=cert.provenances,
    )
    assert symbolic_residual(rel, tampered) > 0.1
    assert verify(rel, tampered) > 0.1


def test_sampled_deviation_budget_fallback(monkeypatch):
    n = 2
    x = _letters(n)
    one = NcPolynomial.constant(n, 1.0)
    prob = Problem(
        n=n,
        objective=x[0],
        equalities=[x[0] * x[0] - one, x[1] * x[1] - one],
        anchor=np.array([1.0, -1.0]),
    )
    rel = build(prob, order=2)
    cert = certify(rel)
    full = sampled_deviation(rel, cert, samples=3, seed=1)
    assert full <= 1e-9
    monkeypatch.setattr(ctp, "SAMPLING_BUDGET", 1)
    via_anchor = sampled_deviation(rel, cert, samples=3, seed=1)
    assert via_anchor <= 1e-9
    prob_no_anchor = Problem(
        n=n, objective=x[0], equalities=list(prob.equalities)
    )
    rel2 = build(prob_no_anchor, order=2)
    cert2 = certify(rel2)
    with pytest.warns(UserWarning, match="sampled trace check skipped"):
        assert sampled_deviation(rel2, cert2, samples=3, seed=1) == 0.0


def test_sampled_deviation_rejects_non_finite_anchor(monkeypatch):
    prob = gen_dense(3, kind="ball", seed=0)
    rel = build(prob, order=2)
    cert = certify(rel)
    monkeypatch.setattr(ctp, "SAMPLING_BUDGET", 1)
    assert verify(rel, cert) <= 1e-12
    # max(residual, nan) kept the residual, so a NaN anchor used to pass verify
    prob.anchor[1] = np.nan
    with pytest.raises(ValueError, match="non-finite moment nan for word"):
        verify(rel, cert)
    prob.anchor[1] = np.inf
    with np.errstate(invalid="ignore"), pytest.warns(UserWarning, match="violated by inf"):
        with pytest.raises(ValueError, match="non-finite moment"):
            sampled_deviation(rel, cert)


def test_sampled_deviation_projects_without_null_basis():
    # ball n = 10 at k = 2: E is 199 x 5666, so a null-space basis would be 257 MB
    rel = build(gen_dense(10, kind="ball", seed=0), order=2)
    E, e = equality_system(rel)
    assert E.shape == (199, 5666)
    tracemalloc.start()
    try:
        samples = sample_equality_feasible_moments(rel, count=3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    for y in samples:
        assert np.abs(E @ y - e).max() <= 1e-10
    assert np.abs(samples[0] - samples[1]).max() > 1e-6
    cert = certify(rel)
    tampered = ctp.CtpCertificate(
        order=cert.order,
        block_scales=cert.block_scales,
        eq_multipliers=cert.eq_multipliers,
        group_traces=(cert.group_traces[0] + 1e-3,),
        provenances=cert.provenances,
    )
    for c, expect in ((cert, 0.0), (tampered, 1e-3)):
        dev = sampled_deviation(rel, c, samples=3, seed=0)
        assert dev == pytest.approx(expect, abs=1e-8)
        # reference: walk every diagonal entry form of every block for every sample
        ref = max(
            abs(
                sum(
                    c.block_scales[i][r] ** 2 * sum(co * y[key] for key, co in rel.entry_form(i, r, r).items())
                    for i, block in enumerate(rel.blocks)
                    for r in range(block.size)
                )
                - c.trace_constant
            )
            for y in samples
        )
        assert dev == pytest.approx(ref, abs=1e-12)


def test_certify_trace_mode():
    rel = build(ball_problem(2), order=2, mode=SymmetryMode.STAR_CYCLIC)
    cert = certify(rel)
    assert cert.provenances == (PROV_BALL,)
    assert cert.trace_constant == 3.0
    assert verify(rel, cert) <= 1e-9
