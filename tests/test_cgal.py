import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ncsdp
from ncsdp import cgal

from ncsdp.cgal import (
    CgalConfig,
    CgalError,
    SolveReport,
    _Blocks,
    _cgal_loop,
    _operator_norm,
    _Pairs,
    _Scaled,
    _SmoothedDual,
    _spectral_dual,
    dual_bound,
    min_eigpair,
    solve,
)
from ncsdp.ctp import certify
from ncsdp.free_algebra import NcPolynomial, SymmetryMode
from ncsdp.generator import gen_dense, gen_sparse
from ncsdp.relaxation import Problem, build
from ncsdp.sparsity import dense_decomposition
from ncsdp.standard_form import BlockLayout, StandardSdp, assemble, read_sdp, recover_moments, write_sdp
from oracles import layout_matrix, remember_pair, smoothed_dual_by_blocks, two_loop_direction


def _sym(rng, size):
    a = rng.standard_normal((size, size))
    return (a + a.T) / 2


@pytest.mark.parametrize("size", [1, 2, 5, 40, 64, 65, 120, 300])
def test_min_eigpair_matches_dense(size):
    rng = np.random.default_rng(size)
    a = _sym(rng, size)
    lam, v = min_eigpair(a)
    w = np.linalg.eigvalsh(a)
    assert abs(lam - w[0]) <= 1e-6 * (1 + abs(w[0]))
    assert np.linalg.norm(a @ v - lam * v) <= 1e-5 * (1 + np.abs(w).max())
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


def test_min_eigpair_size_one_and_degenerate():
    lam, v = min_eigpair(np.array([[3.5]]))
    assert lam == 3.5
    assert v.shape == (1,)
    lam, _ = min_eigpair(np.eye(100))
    assert lam == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "size, dense_cutoff", [(1, 64), (2, 64), (6, 64), (9, 4)], ids=["1", "2", "6", "9-above-cutoff-4"]
)
def test_min_eigpair_stack_matches_one_at_a_time(monkeypatch, size, dense_cutoff):
    monkeypatch.setattr(cgal, "_DENSE_CUTOFF", dense_cutoff)
    rng = np.random.default_rng(10 + size)
    stack = np.array([_sym(rng, size) for _ in range(7)])
    lam, vecs = min_eigpair(stack)
    assert lam.shape == (7,) and vecs.shape == (7, size)
    for k in range(7):
        lam_k, v_k = min_eigpair(stack[k])
        assert lam[k] == lam_k
        assert np.array_equal(vecs[k], v_k)


def test_norm_is_sqrt_of_dot():
    # the solver takes sqrt(v.dot(v)) for np.linalg.norm(v); the
    # iterates stay bit-identical only while NumPy computes norm that way
    rng = np.random.default_rng(0)
    for size in [0, 1, 2, 3, 7, 16, 33, 100, 1001]:
        for _ in range(20):
            v = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8)
            assert math.sqrt(v.dot(v)) == float(np.linalg.norm(v))


def _exact_norm(a_mat):
    return float(np.linalg.norm(a_mat.toarray(), 2))


def _norm_of(a_mat):
    a_mat = sp.csr_matrix(a_mat)
    return _operator_norm(a_mat, a_mat.T.tocsr())


@pytest.mark.filterwarnings("ignore:clique chain")
@pytest.mark.parametrize(
    "make, mode",
    [
        (lambda: gen_dense(3, "ball", seed=0), SymmetryMode.STAR_ONLY),
        (lambda: gen_sparse(8, 3, seed=0), SymmetryMode.STAR_ONLY),
        (lambda: gen_sparse(8, 3, seed=0), SymmetryMode.STAR_CYCLIC),
    ],
    ids=["ball-n3", "chain-eig", "chain-trace"],
)
def test_operator_norm_matches_dense_norm(make, mode):
    rel = build(make(), 2, mode)
    a_mat = assemble(rel, certify(rel)).a_mat
    exact, got = _exact_norm(a_mat), _norm_of(a_mat)
    assert exact * (1.0 - 1e-6) <= got <= exact * (1.0 + 1e-12)


def _clustered(m, n, seed):
    # singular values 1 and 1 - 1e-3 on top, the rest spread over [0.1, 0.5],
    # between random orthonormal factors
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(rng.standard_normal((m, m)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    r = min(m, n)
    s = np.concatenate([[1.0, 1.0 - 1e-3], np.linspace(0.5, 0.1, r - 2)])
    return (q1[:, :r] * s) @ q2[:, :r].T


def test_operator_norm_separates_a_clustered_top():
    # power iteration closes the gap to the second singular value by a factor
    # 0.998 per step; its 1e-6 change rule stopped it 5.8e-4 low here
    a_mat = _clustered(40, 30, 0)
    assert abs(_norm_of(a_mat) - 1.0) <= 1e-8


@pytest.mark.parametrize(
    "a_mat, exact",
    [
        (np.zeros((0, 5)), 1.0),
        (np.zeros((5, 0)), 1.0),
        (np.zeros((4, 6)), 1.0),
        (np.array([[3.0, -1.0, 0.0, 2.0, 0.5]]), math.sqrt(14.25)),
        (np.outer([1.0, -2.0, 0.5], [0.3, 0.0, -1.0, 4.0]), math.sqrt(5.25 * 17.09)),
        (np.array([[2.0]]), 2.0),
    ],
    ids=["no-rows", "no-columns", "all-zero", "one-row", "rank-one", "one-by-one"],
)
def test_operator_norm_edge_cases(a_mat, exact):
    # one row and rank one exhaust the Krylov space at the second step: the
    # estimate is then exact
    assert _norm_of(a_mat) == pytest.approx(exact, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_operator_norm_never_exceeds_the_exact_value(m, n, density, seed):
    rng = np.random.default_rng(seed)
    a_mat = sp.random(m, n, density=density, random_state=rng, format="csr")
    a_mat.data = rng.standard_normal(a_mat.nnz)
    got, exact = _norm_of(a_mat), _exact_norm(a_mat)
    assert got <= exact * (1.0 + 1e-12) or exact == 0.0


def test_operator_norm_is_reproducible():
    a_mat = sp.csr_matrix(_clustered(30, 50, 1))
    at = a_mat.T.tocsr()
    first = _operator_norm(a_mat, at)
    assert all(_operator_norm(a_mat, at) == first for _ in range(3))


def test_operator_norm_holds_a_few_vectors():
    # no Krylov basis: u, v and the products' temporaries, at most three
    # vectors of length m + n at a time
    m, n = 4000, 6000
    a_mat = sp.random(m, n, density=1e-3, random_state=np.random.default_rng(0), format="csr")
    at = a_mat.T.tocsr()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _operator_norm(a_mat, at)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * (m + n)


def _dense_block(layout, g, i):
    # the per-block scatter the solver used before blocks were gathered by size
    s = layout.sizes[i]
    iu, ju = np.triu_indices(s)
    m = np.zeros((s, s))
    vals = g[layout.offsets[i] : layout.offsets[i + 1]] / np.where(iu == ju, 1.0, np.sqrt(2.0))
    m[iu, ju] = vals
    m[ju, iu] = vals
    return m


def _reference_block_eigs(layout, g):
    # one eigensolve per block in block order, at the module's cutoff, where a
    # test may have patched it; the first least eigenvalue wins
    lam_best, blk_best, v_best = np.inf, 0, None
    for i in range(len(layout.sizes)):
        lam, v = min_eigpair(_dense_block(layout, g, i))
        if lam < lam_best:
            lam_best, blk_best, v_best = lam, i, v
    return lam_best, blk_best, v_best


@pytest.mark.parametrize("dense_cutoff", [64, 2, 0])
def test_block_eigs_matches_per_block_loop(monkeypatch, dense_cutoff):
    monkeypatch.setattr(cgal, "_DENSE_CUTOFF", dense_cutoff)
    layout = BlockLayout([3, 1, 3, 1, 5, 2, 1])
    rng = np.random.default_rng(dense_cutoff)
    gs = [rng.standard_normal(layout.dim) for _ in range(20)]
    # blocks 0 and 2 equal and least: the tie goes to block 0
    tie = rng.standard_normal(layout.dim) + 10.0
    tie[layout.offsets[0] : layout.offsets[1]] = tie[layout.offsets[2] : layout.offsets[3]] = gs[0][:6] - 10.0
    # a least 1 x 1 block (block 3) and the same value in a later 1 x 1 block (block 6)
    one = rng.standard_normal(layout.dim)
    one[layout.offsets[3]] = one[layout.offsets[6]] = -50.0
    blocks = _Blocks(layout)
    winners = []
    for t, g in enumerate(gs + [tie, one], start=1):
        # the gathered views are the per-block scatters, bit for bit
        views = blocks.load(g)
        for (s, members), view in zip(blocks.stacks, views):
            for k, i in enumerate(members.tolist()):
                assert np.array_equal(view[k], _dense_block(layout, g, i))
        lam_ref, blk_ref, v_ref = _reference_block_eigs(layout, g)
        lam, blk, v = blocks.least(g, t)
        assert (lam, blk) == (lam_ref, blk_ref)
        assert np.array_equal(v, v_ref)
        winners.append(blk)
    assert winners[-2] == 0  # equal blocks give equal eigenvalues on every path
    assert winners[-1] == 3
    assert len(set(winners)) > 2


@pytest.mark.parametrize("sizes", [[1, 1, 1], [3, 1, 5, 2, 1, 3, 5], [64, 1, 7]], ids=["scalars", "mixed", "block-64"])
def test_smoothed_dual_matches_per_block_svec(sizes):
    # the dual path's stacked squares against one eigh per block in svec form
    layout = BlockLayout(sizes)
    rng = np.random.default_rng(len(sizes))
    c = rng.standard_normal(layout.dim)
    rows = rng.standard_normal((9, layout.dim)) * (rng.random((9, layout.dim)) < 0.3)
    sdp = _direct_sdp(sizes, c, rows, rng.standard_normal(9), trace=2.5)
    d = _Scaled(sdp)
    history: list[float] = []
    dual = _SmoothedDual(d, history, 1.0)
    assert dual.at_buf.nnz == dual.a_buf.nnz == sdp.a_mat.nnz
    for mu in (1e-1, 1e-3):
        dual.mu = mu
        for _ in range(3):
            u = rng.standard_normal(9)
            value, grad = dual(u)
            ref_value, ref_grad, ref_plain, _ = smoothed_dual_by_blocks(d, u, mu)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * (1 + np.abs(ref_grad).max())
            assert dual.plain == pytest.approx(ref_plain, rel=1e-12, abs=1e-12)
            # mix at a fresh point leaves svec(W) on the buffer, and is not an evaluation
            u = rng.standard_normal(9)
            evals, logged = dual.evals, len(history)
            dual.mix(u)
            mixture = layout.scale * dual.blocks.buf[dual.blocks.place]
            ref_mix = smoothed_dual_by_blocks(d, u, mu)[3]
            assert np.abs(mixture - ref_mix).max() <= 1e-12
            assert (dual.evals, len(history)) == (evals, logged)


@pytest.mark.parametrize("n", [30, 5], ids=["fewer-pairs-than-unknowns", "more-pairs-than-unknowns"])
def test_lbfgs_direction_matches_two_loop(n):
    rng = np.random.default_rng(n)
    h = rng.standard_normal((n, n))
    h = h @ h.T + np.eye(n)
    pairs, ref = _Pairs(n), deque(maxlen=cgal._LBFGS_MEMORY)
    g = rng.standard_normal(n)
    assert np.array_equal(pairs.direction(g, 0.5), two_loop_direction(g, ref, 0.5))
    for t in range(26):
        s = rng.standard_normal(n)
        y = -s if t in (3, 11) else h @ s  # two pairs of negative curvature are left out
        pairs.add(s, y)
        remember_pair(ref, s, y)
        assert pairs.m == len(ref)
        assert np.array_equal(pairs.s[: pairs.m], [p[0] for p in ref])
        g = rng.standard_normal(n)
        got, want = pairs.direction(g, 0.5), two_loop_direction(g, ref, 0.5)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert pairs.m == cgal._LBFGS_MEMORY  # the memory has wrapped


def _reference_solve(sdp, cfg):
    # the solver loop as it was before 1 x 1 blocks were read from the
    # gradient: one eigensolve per block, np.linalg.norm, and r recomputed
    # from A x every iteration; the bound f(u) at u = -|c| m comes from the
    # least block eigenvalue of the gradient c / |c| + A^T m; the constants
    # are read from the module, where a test may have patched them
    beta0, dual_cap = cgal._BETA0, cgal._DUAL_CAP
    a = float(sdp.trace)
    layout, a_mat, b, c = sdp.layout, sdp.a_mat, sdp.b, sdp.c
    at_mat = a_mat.T.tocsr()
    c_norm = float(np.linalg.norm(c)) or 1.0
    c_scaled = c / c_norm
    sigma = _operator_norm(a_mat, at_mat)
    res_scale = sigma * a
    x = np.zeros(sdp.dim)
    x[layout.diag] = a / sum(sdp.block_sizes)
    z = np.zeros(a_mat.shape[0])
    ax = a_mat @ x
    b_norm = float(np.linalg.norm(b))
    bound, u_best = -np.inf, None
    converged, iters, cap_hits, min_seen, hist = False, 0, 0, 0.0, []
    for t in range(1, cfg.max_iters + 1):
        iters = t
        beta = beta0 * math.sqrt(t + 1.0)
        r = (ax - b) / res_scale
        m = (z + beta * r) / sigma
        g = c_scaled + at_mat @ m
        lam, blk, v = _reference_block_eigs(layout, g)
        f = c_norm * (a * lam - float(b @ m))
        if f > bound:
            bound, u_best = f, -c_norm * m
        eta = 2.0 / (t + 1.0)
        x *= 1.0 - eta
        layout.add_outer(x, blk, v, eta * a)
        ax = a_mat @ x
        obj = float(c @ x)
        r_new = (ax - b) / res_scale
        rn_scaled = float(np.linalg.norm(r_new))
        gamma = (
            beta0
            if rn_scaled == 0.0
            else min(beta0, 4.0 * beta * eta * eta / (rn_scaled * rn_scaled))
        )
        z_new = z + gamma * r_new
        if float(np.linalg.norm(z_new)) <= dual_cap:
            z = z_new
        else:
            cap_hits += 1
        if cfg.check_psd:
            for i in range(len(sdp.block_sizes)):
                min_seen = min(min_seen, float(np.linalg.eigvalsh(layout_matrix(layout, x, i))[0]))
        resid_rel = rn_scaled * res_scale / (1.0 + b_norm)
        hist.append(resid_rel)
        if resid_rel <= cfg.eps and abs(obj - bound) <= cfg.eps * (1.0 + abs(bound)):
            converged = True
            break
    return dict(
        objective=obj, residual=resid_rel, iterations=iters, converged=converged, x=x,
        min_iterate_eig=min_seen, dual_cap_hits=cap_hits,
        residual_history=np.array(hist) if cfg.track_residuals else None,
        lower_bound=bound, gap=obj - bound, stop_reason="gap" if converged else "max_iters", u_best=u_best,
    )


def _mixed_sdp():
    # blocks [1, 3, 2, 1, 3, 1]: blocks 1 and 4 carry the same objective and
    # constraint columns, and so do the 1 x 1 blocks 0, 3 and 5, so their
    # gradients tie at every iteration; b is A of the scaled identity, which
    # is feasible
    sizes = [1, 3, 2, 1, 3, 1]
    layout = BlockLayout(sizes)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(layout.dim)
    rows = rng.standard_normal((3, layout.dim))
    for first, second in ((1, 4), (0, 3), (0, 5)):
        dst = slice(layout.offsets[second], layout.offsets[second + 1])
        src = slice(layout.offsets[first], layout.offsets[first + 1])
        c[dst] = c[src]
        rows[:, dst] = rows[:, src]
    c[np.asarray(layout.offsets)[[0, 3, 5]]] = -1.5  # low enough for the 1 x 1 blocks to win at times
    x0 = np.zeros(layout.dim)
    x0[layout.diag] = 2.0 / sum(sizes)
    return _direct_sdp(sizes, c, rows, rows @ x0, trace=2.0)


# module constants a case of test_solve_matches_reference_loop sets
_CASE_CONSTANTS = {"subset eigh everywhere": ("_DENSE_CUTOFF", 0), "dual cap": ("_DUAL_CAP", 0.3)}


@pytest.mark.parametrize(
    "name, cfg",
    [
        ("converges", CgalConfig(eps=3e-3, max_iters=20_000)),
        ("iteration cap", CgalConfig(eps=1e-9, max_iters=400, seed=3)),
        ("subset eigh everywhere", CgalConfig(eps=1e-3, max_iters=150)),
        ("audits", CgalConfig(eps=1e-3, max_iters=400, check_psd=True, track_residuals=True)),
        ("dual cap", CgalConfig(eps=1e-3, max_iters=400, track_residuals=True)),
    ],
)
@pytest.mark.parametrize("problem", ["mixed", "ball"])
def test_solve_matches_reference_loop(monkeypatch, problem, name, cfg):
    if name in _CASE_CONSTANTS:
        monkeypatch.setattr(cgal, *_CASE_CONSTANTS[name])
    sdp = _mixed_sdp() if problem == "mixed" else _ball_sdp(n=2, order=2)[1]
    ref = _reference_solve(sdp, cfg)
    rep = _cgal_loop(_Scaled(sdp), cfg)
    for field in ("objective", "residual", "iterations", "converged", "min_iterate_eig", "dual_cap_hits",
                  "lower_bound", "gap", "stop_reason"):
        assert getattr(rep, field) == ref[field], field
    # the reported multiplier is the one that gave the bound, and f there is the bound
    assert rep.u.tobytes() == ref["u_best"].tobytes()
    assert abs(rep.lower_bound - dual_bound(sdp, rep.u)) <= 1e-12 * abs(rep.lower_bound)
    assert rep.x.tobytes() == ref["x"].tobytes()
    if cfg.track_residuals:
        assert rep.residual_history.tobytes() == ref["residual_history"].tobytes()
    else:
        assert rep.residual_history is None
    if name == "converges":
        assert rep.converged and rep.iterations < cfg.max_iters
    if name == "iteration cap":
        assert not rep.converged and rep.iterations == cfg.max_iters
    if name == "dual cap":
        assert 0 < rep.dual_cap_hits < rep.iterations
    if name == "audits":
        assert rep.min_iterate_eig <= 0.0


def test_solve_rejects_non_finite_eigenvalue(monkeypatch):
    # an infinite objective entry gives inf / inf = NaN in the gradient of block 1 only
    sizes = [1, 2]
    layout = BlockLayout(sizes)
    c = np.zeros(layout.dim)
    c[layout.index(1, 0, 1)] = np.inf
    sdp = _direct_sdp(sizes, c, [[1.0, 0.0, 0.0, 0.0]], [0.3], trace=1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(CgalError, match="block 1 is nan at iteration 1"):
            solve(sdp, CgalConfig(max_iters=10))
        # the same error when block 1 takes the subset eigh instead of the stacked eigh
        with monkeypatch.context() as patch:
            patch.setattr(cgal, "_DENSE_CUTOFF", 0)
            with pytest.raises(CgalError, match="block 1 is nan at iteration 1"):
                solve(sdp, CgalConfig(max_iters=10))
        # an all-NaN gradient names the first block
        sdp.c = np.full(layout.dim, np.nan)
        with pytest.raises(CgalError, match="block 0 is nan at iteration 1"):
            solve(sdp, CgalConfig(max_iters=10))


def _direct_sdp(block_sizes, c, rows, b, trace):
    dim = sum(s * (s + 1) // 2 for s in block_sizes)
    a_mat = sp.csr_matrix(np.array(rows).reshape(len(b), dim))
    return StandardSdp(
        block_sizes=block_sizes,
        c=np.asarray(c, dtype=float),
        a_mat=a_mat,
        b=np.asarray(b, dtype=float),
        trace=trace,
        zeta=len(b),
    )


def test_solve_two_scalar_blocks():
    # min x1 + 2 x2 over diag(x1, x2) psd with x1 + x2 = 1 and x1 = 0.3
    sdp = _direct_sdp([1, 1], [1.0, 2.0], [[1.0, 0.0]], [0.3], trace=1.0)
    rep = solve(sdp, CgalConfig(eps=1e-4, max_iters=50_000))
    assert rep.converged
    assert rep.objective == pytest.approx(1.7, abs=5e-3)
    assert rep.residual <= 1e-4
    assert rep.x[0] == pytest.approx(0.3, abs=1e-3)


def test_solve_pure_eigenvalue_problem(tmp_path):
    # no rows at all: min <C, X> with tr X = 1 lands on the least eigenvalue
    rng = np.random.default_rng(4)
    a = _sym(rng, 6)
    iu, ju = np.triu_indices(6)
    c = a[iu, ju] * np.where(iu == ju, 1.0, np.sqrt(2.0))
    sdp = StandardSdp(
        block_sizes=[6],
        c=c,
        a_mat=sp.csr_matrix((0, c.size)),
        b=np.zeros(0),
        trace=1.0,
        zeta=0,
    )
    rep = solve(sdp, CgalConfig(eps=1e-4, max_iters=20_000))
    assert rep.converged
    w0 = np.linalg.eigvalsh(a)[0]
    assert rep.objective == pytest.approx(w0, abs=5e-3 * (1 + abs(w0)))
    # the zero-row form survives the text format and solves the same way
    path = str(tmp_path / "eig.sdp")
    write_sdp(sdp, path)
    back = read_sdp(path)
    assert back.n_rows == 0 and back.b.shape == (0,)
    assert np.array_equal(back.c, c / back.layout.scale * back.layout.scale)
    rep_back = solve(back, CgalConfig(eps=1e-4, max_iters=20_000))
    assert rep_back.converged
    assert rep_back.objective == pytest.approx(w0, abs=5e-3 * (1 + abs(w0)))


def _ball_sdp(n=2, order=1):
    x = [NcPolynomial.letter(n, j) for j in range(1, n + 1)]
    g = NcPolynomial.constant(n, 1.0) - sum(
        (xi * xi for xi in x), NcPolynomial.zero(n)
    )
    prob = Problem(n=n, objective=sum(x, NcPolynomial.zero(n)), inequalities=[g])
    rel = build(prob, order)
    return rel, assemble(rel, certify(rel))


def test_solve_ball_relaxation():
    rel, sdp = _ball_sdp()
    rep = solve(sdp, CgalConfig(eps=1e-4, max_iters=100_000, check_psd=True))
    assert rep.converged
    # the relaxation value of sum X_j over the unit ball is -sqrt(n)
    assert rep.objective == pytest.approx(-np.sqrt(2.0), abs=1e-2)
    assert rep.min_iterate_eig >= -1e-9 * sdp.trace
    y = recover_moments(sdp, rep.x)
    assert y[0] == pytest.approx(1.0, abs=1e-3)
    # iterates keep the constant trace to working precision
    diag_sum = 0.0
    pos = 0
    for s in sdp.block_sizes:
        for r in range(s):
            diag_sum += rep.x[pos + r * s - r * (r - 1) // 2]
        pos += s * (s + 1) // 2
    assert diag_sum == pytest.approx(sdp.trace, abs=1e-9 * sdp.trace)


def test_solve_deterministic_for_fixed_seed():
    _, sdp = _ball_sdp()
    cfg = CgalConfig(eps=1e-3, max_iters=20_000, seed=7)
    r1 = solve(sdp, cfg)
    r2 = solve(sdp, cfg)
    assert r1.objective == r2.objective
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.x, r2.x)


def test_solve_ignores_seed(monkeypatch):
    # blocks of 7 and 3 above the cutoff take the subset eigh, which draws
    # no random start: the seed changes nothing
    monkeypatch.setattr(cgal, "_DENSE_CUTOFF", 2)
    _, sdp = _ball_sdp(n=2, order=2)
    r1 = solve(sdp, CgalConfig(eps=1e-3, max_iters=300, seed=0))
    r2 = solve(sdp, CgalConfig(eps=1e-3, max_iters=300, seed=12345))
    assert max(sdp.block_sizes) > 2
    assert r1.x.tobytes() == r2.x.tobytes()


def test_solve_trace_guard_raises(monkeypatch):
    _, sdp = _ball_sdp()
    monkeypatch.setattr(BlockLayout, "trace", lambda self, x: 999.0)
    with pytest.raises(CgalError, match="trace drifted"):
        solve(sdp, CgalConfig(eps=1e-3, max_iters=10))


def test_solve_psd_guard_raises(monkeypatch):
    _, sdp = _ball_sdp()
    # a cutoff of 0 sends solve straight to the CGAL loop, whose eigenpair
    # search takes scipy.linalg.eigh, so patching eigvalsh corrupts only the
    # audit's view of the iterate: every stacked block reads -1 as its least
    # eigenvalue
    def eigvalsh(m):
        w = np.zeros(m.shape[:-1])
        w[..., 0] = -1.0
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(cgal, "_DENSE_CUTOFF", 0)
    with pytest.raises(CgalError, match="lost psd in block 0 at iteration 1"):
        solve(sdp, CgalConfig(eps=1e-3, max_iters=10, check_psd=True))


def test_psd_floor_names_the_first_block_in_block_order():
    # size classes run 1, 2, 3; block order is 3, 2, 1
    layout = BlockLayout([3, 2, 1])
    blocks = _Blocks(layout)
    x = np.zeros(layout.dim)
    x[layout.diag] = 1.0
    assert blocks.floor(x, 1.0, 4) == 0.0
    x[layout.index(2, 0, 0)] = -1e-12  # inside the tolerance: reported, not raised
    assert blocks.floor(x, 1.0, 4) == -1e-12
    x[layout.index(1, 1, 1)] = -0.5
    with pytest.raises(CgalError, match="lost psd in block 1 at iteration 4"):
        blocks.floor(x, 1.0, 4)
    x[layout.index(0, 2, 2)] = -0.5
    with pytest.raises(CgalError, match="lost psd in block 0 at iteration 4"):
        blocks.floor(x, 1.0, 4)


def test_dual_cap_hits(monkeypatch):
    _, sdp = _ball_sdp()
    assert _cgal_loop(_Scaled(sdp), CgalConfig(eps=1e-3, max_iters=2000)).dual_cap_hits == 0
    monkeypatch.setattr(cgal, "_DUAL_CAP", 1e-6)
    capped = _cgal_loop(_Scaled(sdp), CgalConfig(eps=1e-3, max_iters=2000))
    assert 0 < capped.dual_cap_hits <= capped.iterations


def test_report_fields():
    _, sdp = _ball_sdp()
    rep = solve(sdp, CgalConfig(eps=1e-3, max_iters=30_000))
    assert isinstance(rep, SolveReport)
    assert rep.iterations >= 1
    assert rep.runtime >= 0.0
    assert rep.x.shape == (sdp.dim,)
    assert rep.u.shape == (sdp.n_rows,)
    assert rep.residual_history is None


def test_residual_history_non_increasing_over_windows():
    _, sdp = _ball_sdp(n=3, order=2)
    rep = _cgal_loop(_Scaled(sdp), CgalConfig(eps=1e-4, max_iters=100_000, track_residuals=True))
    h = rep.residual_history
    assert h is not None
    assert len(h) == rep.iterations
    if len(h) > 100:
        # the residual may wobble locally but never rises across a 100-step window
        assert np.all(h[100:] <= h[:-100] + 1e-12)


def test_stop_rule_consistent_across_accuracy():
    # halting at eps must land within about eps of the tighter solve's value
    _, sdp = _ball_sdp(n=2, order=2)
    loose = solve(sdp, CgalConfig(eps=1e-4, max_iters=300_000))
    tight = solve(sdp, CgalConfig(eps=1e-5, max_iters=300_000))
    assert loose.converged and tight.converged
    assert abs(loose.objective - tight.objective) <= 2e-4 * (1 + abs(tight.objective))


@pytest.mark.filterwarnings("ignore:clique chain")
@pytest.mark.parametrize(
    "make, order, bound",
    [
        # the spectral dual path certifies both, each in under 2 s
        (lambda: gen_sparse(9, 3, seed=1), 1, -4.500871),
        (lambda: gen_dense(4, "polydisc", seed=0), 2, -2.261803),
    ],
)
def test_spectral_dual_certifies_cgal_cap_instances(make, order, bound):
    rel = build(make(), order)
    sdp = assemble(rel, certify(rel))
    t0 = time.perf_counter()
    rep = solve(sdp, CgalConfig(eps=1e-4, max_iters=150_000, track_residuals=True))
    elapsed = time.perf_counter() - t0
    assert rep.converged and rep.stop_reason == "gap"
    assert len(rep.residual_history) == rep.iterations
    assert rep.residual <= 1e-4
    assert abs(rep.gap) <= 1e-4 * (1 + abs(rep.lower_bound))
    assert rep.gap == rep.objective - rep.lower_bound
    assert abs(rep.lower_bound - bound) <= 1e-4 * (1 + abs(bound))
    assert elapsed < 2.0


@pytest.mark.parametrize("trace, scale", [(0.01, 1.0), (1.0, 1e-3), (1.0, 1.0), (4.0, 1e3)])
def test_spectral_dual_certifies_at_any_scale(trace, scale):
    # the stop tests are relative in original units; a small trace or a small
    # A must not loosen the solver's tolerance in normalized units
    sizes = [6, 3]
    layout = BlockLayout(sizes)
    rng = np.random.default_rng(84)
    x0 = np.zeros(layout.dim)
    for i, s in enumerate(sizes):
        g = rng.standard_normal((s, s))
        span = slice(layout.offsets[i], layout.offsets[i + 1])
        x0[span] = (g @ g.T)[layout.row[span], layout.col[span]] * layout.scale[span]
    x0 *= trace / layout.trace(x0)
    c = rng.standard_normal(layout.dim)
    rows = scale * rng.standard_normal((8, layout.dim))
    sdp = _direct_sdp(sizes, c, rows, rows @ x0, trace=trace)
    rep = solve(sdp, CgalConfig(eps=1e-4, max_iters=20_000))
    assert rep.stop_reason == "gap"
    assert rep.lower_bound <= float(c @ x0) + 1e-9 * (1 + abs(float(c @ x0)))


def test_cgal_loop_reports_a_bound(monkeypatch):
    _, sdp = _ball_sdp()
    rep = _cgal_loop(_Scaled(sdp), CgalConfig(eps=1e-3, max_iters=30_000))
    assert rep.converged and rep.stop_reason == "gap"
    # a Python float, not np.float64, the same type as the dual path's bound
    assert type(rep.lower_bound) is float and rep.gap == rep.objective - rep.lower_bound
    # the relaxation value of sum X_j over the unit ball is -sqrt(2)
    assert rep.lower_bound <= -np.sqrt(2.0) + 1e-12
    assert abs(rep.gap) <= 1e-3 * (1 + abs(rep.lower_bound))
    capped = _cgal_loop(_Scaled(sdp), CgalConfig(eps=1e-9, max_iters=50))
    assert capped.stop_reason == "max_iters" and not capped.converged
    assert type(capped.lower_bound) is float
    assert capped.lower_bound <= -np.sqrt(2.0) + 1e-12
    # a block above the cutoff, or eps = 0, sends solve straight to the loop;
    # five evaluations are too few for the spectral path at order 2, and an
    # infeasible form (x1 = 2 above the trace 1) has an unbounded dual, so in
    # both solve falls back to the loop
    cases = (
        (sdp, CgalConfig(eps=1e-3, max_iters=2000), 2),
        (sdp, CgalConfig(eps=0.0, max_iters=500), 64),
        (_ball_sdp(n=2, order=2)[1], CgalConfig(eps=1e-4, max_iters=5), 64),
        (_direct_sdp([1, 1], [1.0, 2.0], [[1.0, 0.0]], [2.0], trace=1.0),
         CgalConfig(eps=1e-4, max_iters=300), 64),
    )
    for form, cfg, cutoff in cases:
        monkeypatch.setattr(cgal, "_DENSE_CUTOFF", cutoff)
        rep, ref = solve(form, cfg), _cgal_loop(_Scaled(form), cfg)
        assert rep.stop_reason == ref.stop_reason and rep.stop_reason in ("gap", "max_iters")
        assert rep.lower_bound == ref.lower_bound and rep.gap == ref.gap
        assert rep.iterations == ref.iterations and rep.x.tobytes() == ref.x.tobytes()


@pytest.mark.parametrize("path", ["loop k=1", "loop k=2", "dual"])
def test_multiplier_reproduces_the_bound(path):
    # dual_bound at the reported u gives the reported bound, up to rounding
    if path == "dual":
        sdp = _ball_sdp()[1]
        rep = _spectral_dual(_Scaled(sdp), CgalConfig(eps=1e-4, max_iters=20_000))
        assert rep is not None and max(sdp.block_sizes) <= cgal._DENSE_CUTOFF
    else:
        rel = build(gen_dense(2, "ball", seed=0), int(path[-1]))
        sdp = assemble(rel, certify(rel))
        rep = _cgal_loop(_Scaled(sdp), CgalConfig(eps=1e-3, max_iters=3000))
    assert rep.u.shape == (sdp.n_rows,) and type(rep.lower_bound) is float
    assert abs(dual_bound(sdp, rep.u) - rep.lower_bound) <= 1e-12 * (1 + abs(rep.lower_bound))


@pytest.mark.parametrize(
    "sizes, eps, dual",
    [([64, 1], 1e-4, True), ([2, 64], 1e-4, True), ([65, 1], 1e-4, False), ([2, 65], 1e-4, False),
     ([64, 1], 0.0, False)],
)
def test_solve_picks_the_path_by_block_size(monkeypatch, sizes, eps, dual):
    # the spectral dual path is tried exactly when eps > 0 and no block is
    # above the cutoff; a spy that declines sends every solve on to the loop
    calls = []
    monkeypatch.setattr(cgal, "_spectral_dual", lambda d, cfg: calls.append(d.sdp.block_sizes))
    layout = BlockLayout(sizes)
    rng = np.random.default_rng(3)
    x0 = np.zeros(layout.dim)
    x0[layout.diag] = 1.0 / sum(sizes)
    rows = rng.standard_normal((2, layout.dim))
    rep = solve(_direct_sdp(sizes, rng.standard_normal(layout.dim), rows, rows @ x0, trace=1.0),
                CgalConfig(eps=eps, max_iters=3))
    assert calls == ([sizes] if dual else [])
    assert rep.iterations == 3


def test_solve_runs_one_operator_norm_across_a_fallback(monkeypatch):
    # the spectral path gives up after five evaluations at order 2; the loop
    # then reuses its operator norm, and the transpose built with it
    norms, duals = [], []
    norm, dual = ncsdp.cgal._operator_norm, ncsdp.cgal._spectral_dual
    monkeypatch.setattr(ncsdp.cgal, "_operator_norm", lambda *a: norms.append(a) or norm(*a))
    monkeypatch.setattr(ncsdp.cgal, "_spectral_dual", lambda *a: duals.append(dual(*a)) or duals[-1])
    form, cfg = _ball_sdp(n=2, order=2)[1], CgalConfig(eps=1e-4, max_iters=5)
    rep = solve(form, cfg)
    assert duals == [None] and len(norms) == 1
    ref = _cgal_loop(_Scaled(form), cfg)
    assert rep.x.tobytes() == ref.x.tobytes() and rep.u.tobytes() == ref.u.tobytes()


@pytest.mark.filterwarnings("ignore:clique chain")
def test_cgal_loop_stops_on_the_gap_near_the_value():
    # the objective stays near -1.525951 for 50 steps on this form, 20 eps
    # above its value; the gap test waits until it is within eps
    prob = gen_sparse(7, 3, seed=16)
    rel = build(prob, 1, decomp=dense_decomposition(prob))
    rep = _cgal_loop(_Scaled(assemble(rel, certify(rel))), CgalConfig(eps=1e-4))
    value = -1.531072
    assert rep.converged and rep.stop_reason == "gap"
    assert abs(rep.objective - value) <= 1e-4 * (1 + abs(value))
    assert abs(rep.lower_bound - value) <= 1e-4 * (1 + abs(value))


@pytest.mark.parametrize(
    "field, value", [("max_iters", 0), ("max_iters", -3), ("eps", -1.0), ("eps", math.nan), ("eps", math.inf)]
)
def test_solve_rejects_bad_budget(field, value):
    _, sdp = _ball_sdp()
    with pytest.raises(ValueError, match="max_iters >= 1 and a finite eps >= 0"):
        solve(sdp, CgalConfig(**{field: value}))


def test_solve_accepts_zero_eps_and_one_iteration():
    # eps = 0 runs a fixed budget; one step already gives a bound
    _, sdp = _ball_sdp()
    rep = solve(sdp, CgalConfig(eps=0.0, max_iters=1))
    assert rep.iterations == 1 and rep.stop_reason == "max_iters"
    assert math.isfinite(rep.lower_bound) and rep.lower_bound <= -np.sqrt(2.0) + 1e-12


@pytest.mark.parametrize("eps, max_iters, path", [(1e-4, 100_000, "dual"), (0.0, 100, "loop"), (1e-4, 1, "loop")])
def test_solve_reports_its_path(eps, max_iters, path):
    # eps = 0 skips the dual path; one dual evaluation cannot certify, so the
    # loop takes over, and the report says which of the two produced it
    _, sdp = _ball_sdp()
    rep = solve(sdp, CgalConfig(eps=eps, max_iters=max_iters))
    assert rep.path == path
    assert rep.converged == (path == "dual")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dual_bound_never_exceeds_a_feasible_value(data):
    # a psd X0 with trace a and b = A svec(X0) makes the form feasible, so
    # every lower bound must stay at or below c.x0
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="sizes")
    m = data.draw(st.integers(0, 6), label="m")
    a = data.draw(st.floats(0.5, 5.0), label="trace")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    layout = BlockLayout(sizes)
    x0 = np.zeros(layout.dim)
    for i, s in enumerate(sizes):
        g = rng.standard_normal((s, s + data.draw(st.integers(-s + 1, 1), label="rank gap")))
        span = slice(layout.offsets[i], layout.offsets[i + 1])
        x0[span] = (g @ g.T)[layout.row[span], layout.col[span]] * layout.scale[span]
    x0 *= a / layout.trace(x0)
    c = rng.standard_normal(layout.dim)
    rows = rng.standard_normal((m, layout.dim))
    sdp = _direct_sdp(sizes, c, rows, rows @ x0, trace=a)
    value = float(c @ x0)
    slack = 1e-9 * (1 + abs(value))
    for scale in (0.1, 1.0, 10.0):
        assert dual_bound(sdp, scale * rng.standard_normal(m)) <= value + slack
    rep = _spectral_dual(_Scaled(sdp), CgalConfig(eps=1e-4, max_iters=20_000))
    loop = _cgal_loop(_Scaled(sdp), CgalConfig(eps=1e-4, max_iters=300))
    assert loop.lower_bound <= value + slack
    reports = [loop]
    if rep is not None:
        assert rep.lower_bound <= value + slack
        assert rep.lower_bound == dual_bound(sdp, rep.u)
        reports.append(rep)
    for r in reports:
        for i in range(len(sizes)):
            assert np.linalg.eigvalsh(layout_matrix(layout, r.x, i))[0] >= -1e-9 * a
        assert abs(layout.trace(r.x) - a) <= 1e-9 * a


def test_solve_does_not_import_scipy_optimize():
    # importing scipy.optimize alone raises the peak RSS of a solve by ~17 MB
    code = (
        "import sys\n"
        "from ncsdp import CgalConfig, NcPolynomial, Problem, assemble, build, certify, solve\n"
        "x = [NcPolynomial.letter(2, j) for j in (1, 2)]\n"
        "one = NcPolynomial.constant(2, 1.0)\n"
        "prob = Problem(n=2, objective=x[0] + x[1], inequalities=[one - x[0] * x[0] - x[1] * x[1]])\n"
        "rel = build(prob, 2)\n"
        "rep = solve(assemble(rel, certify(rel)), CgalConfig(eps=1e-4))\n"
        "print(rep.stop_reason, 'scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncsdp.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["gap", "False"]
