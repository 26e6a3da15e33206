import math
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.random import Generator, Philox

from ncsdp.cgal import CgalConfig, CgalError, SolveReport, _BlockEigs, _operator_norm, min_eigpair, solve
from ncsdp.ctp import certify
from ncsdp.free_algebra import NcPolynomial
from ncsdp.relaxation import Problem, build
from ncsdp.standard_form import BlockLayout, StandardSdp, assemble, read_sdp, recover_moments, write_sdp


def _sym(rng, size):
    a = rng.standard_normal((size, size))
    return (a + a.T) / 2


@pytest.mark.parametrize("size", [1, 2, 5, 40, 64, 65, 120, 300])
def test_min_eigpair_matches_dense(size):
    rng = np.random.default_rng(size)
    a = _sym(rng, size)
    lam, v = min_eigpair(a, tol=1e-12)
    w = np.linalg.eigvalsh(a)
    assert abs(lam - w[0]) <= 1e-6 * (1 + abs(w[0]))
    assert np.linalg.norm(a @ v - lam * v) <= 1e-5 * (1 + np.abs(w).max())
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


def test_min_eigpair_callable():
    rng = np.random.default_rng(1)
    a = _sym(rng, 150)
    lam, v = min_eigpair(lambda u: a @ u, size=150, tol=1e-12)
    w0 = np.linalg.eigvalsh(a)[0]
    assert abs(lam - w0) <= 1e-6 * (1 + abs(w0))
    with pytest.raises(ValueError):
        min_eigpair(lambda u: u)


def test_min_eigpair_size_one_and_degenerate():
    lam, v = min_eigpair(lambda u: 3.5 * u, size=1)
    assert lam == 3.5
    assert v.shape == (1,)
    lam, _ = min_eigpair(np.eye(100), tol=1e-10)
    assert lam == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("size", [1, 2, 6])
def test_min_eigpair_stack_matches_one_at_a_time(size):
    rng = np.random.default_rng(10 + size)
    stack = np.array([_sym(rng, size) for _ in range(7)])
    lam, vecs = min_eigpair(stack)
    assert lam.shape == (7,) and vecs.shape == (7, size)
    for k in range(7):
        lam_k, v_k = min_eigpair(stack[k])
        assert lam[k] == lam_k
        assert np.array_equal(vecs[k], v_k)


def test_norm_is_sqrt_of_dot():
    # the solver and Lanczos take sqrt(v.dot(v)) for np.linalg.norm(v); the
    # iterates stay bit-identical only while NumPy computes norm that way
    rng = np.random.default_rng(0)
    for size in [0, 1, 2, 3, 7, 16, 33, 100, 1001]:
        for _ in range(20):
            v = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8)
            assert math.sqrt(v.dot(v)) == float(np.linalg.norm(v))


def _dense_block(layout, g, i):
    # the per-block scatter the solver used before blocks were gathered by size
    s = layout.sizes[i]
    iu, ju = np.triu_indices(s)
    m = np.zeros((s, s))
    vals = g[layout.offsets[i] : layout.offsets[i + 1]] / np.where(iu == ju, 1.0, np.sqrt(2.0))
    m[iu, ju] = vals
    m[ju, iu] = vals
    return m


def _reference_block_eigs(layout, g, tol, rng, dense_cutoff, lanczos_dim=100):
    # one eigensolve per block in block order; the first least eigenvalue wins
    lam_best, blk_best, v_best = np.inf, 0, None
    for i in range(len(layout.sizes)):
        lam, v = min_eigpair(
            _dense_block(layout, g, i), tol=tol, rng=rng,
            dense_cutoff=dense_cutoff, lanczos_dim=lanczos_dim,
        )
        if lam < lam_best:
            lam_best, blk_best, v_best = lam, i, v
    return lam_best, blk_best, v_best


@pytest.mark.parametrize("dense_cutoff", [64, 2, 0])
def test_block_eigs_matches_per_block_loop(dense_cutoff):
    layout = BlockLayout([3, 1, 3, 1, 5, 2, 1])
    rng = np.random.default_rng(dense_cutoff)
    gs = [rng.standard_normal(layout.dim) for _ in range(20)]
    # blocks 0 and 2 equal and least: the tie goes to block 0
    tie = rng.standard_normal(layout.dim) + 10.0
    tie[layout.offsets[0] : layout.offsets[1]] = tie[layout.offsets[2] : layout.offsets[3]] = gs[0][:6] - 10.0
    # a least 1 x 1 block (block 3) and the same value in a later 1 x 1 block (block 6)
    one = rng.standard_normal(layout.dim)
    one[layout.offsets[3]] = one[layout.offsets[6]] = -50.0
    block_eigs = _BlockEigs(layout, dense_cutoff, lanczos_dim=100)
    ref_rng, new_rng = Generator(Philox(3)), Generator(Philox(3))
    winners = []
    for t, g in enumerate(gs + [tie, one], start=1):
        lam_ref, blk_ref, v_ref = _reference_block_eigs(layout, g, 1e-10, ref_rng, dense_cutoff)
        lam, blk, v = block_eigs(g, 1e-10, new_rng, t)
        assert (lam, blk) == (lam_ref, blk_ref)
        assert np.array_equal(v, v_ref)
        winners.append(blk)
    if dense_cutoff >= 3:  # Lanczos runs on blocks 0 and 2 from different starts
        assert winners[-2] == 0
    assert winners[-1] == 3
    assert len(set(winners)) > 2


def _reference_solve(sdp, cfg):
    # the solver loop as it was before 1 x 1 blocks were read from the
    # gradient: one eigensolve per block, np.linalg.norm, and r recomputed
    # from A x every iteration
    a = float(sdp.trace)
    layout, a_mat, b, c = sdp.layout, sdp.a_mat, sdp.b, sdp.c
    at_mat = a_mat.T.tocsr()
    rng = Generator(Philox(cfg.seed))
    c_scaled = c / (float(np.linalg.norm(c)) or 1.0)
    sigma = _operator_norm(a_mat)
    res_scale = sigma * a
    x = np.zeros(sdp.dim)
    x[layout.diag] = a / sum(sdp.block_sizes)
    z = np.zeros(a_mat.shape[0])
    ax = a_mat @ x
    b_norm = float(np.linalg.norm(b))
    window = deque(maxlen=cfg.window + 1)
    obj = float(c @ x)
    resid_rel = float(np.linalg.norm(ax - b)) / (1.0 + b_norm)
    converged, iters, cap_hits, min_seen, hist = False, 0, 0, 0.0, []
    for t in range(1, cfg.max_iters + 1):
        iters = t
        beta = cfg.beta0 * math.sqrt(t + 1.0)
        r = (ax - b) / res_scale
        g = c_scaled + at_mat @ ((z + beta * r) / sigma)
        eig_tol = max(1e-10, 1.0 / (t + 1.0) ** 2)
        _, blk, v = _reference_block_eigs(layout, g, eig_tol, rng, cfg.dense_cutoff, cfg.lanczos_dim)
        eta = 2.0 / (t + 1.0)
        x *= 1.0 - eta
        layout.add_outer(x, blk, v, eta * a)
        ax = a_mat @ x
        obj = float(c @ x)
        r_new = (ax - b) / res_scale
        rn_scaled = float(np.linalg.norm(r_new))
        gamma = (
            cfg.beta0
            if rn_scaled == 0.0
            else min(cfg.beta0, 4.0 * beta * eta * eta / (rn_scaled * rn_scaled))
        )
        z_new = z + gamma * r_new
        if float(np.linalg.norm(z_new)) <= cfg.dual_cap:
            z = z_new
        else:
            cap_hits += 1
        if cfg.check_psd:
            for i in range(len(sdp.block_sizes)):
                min_seen = min(min_seen, float(np.linalg.eigvalsh(layout.matrix(x, i))[0]))
        window.append(obj)
        resid_rel = rn_scaled * res_scale / (1.0 + b_norm)
        hist.append(resid_rel)
        if resid_rel <= cfg.eps and len(window) == cfg.window + 1:
            drift = abs(window[-1] - window[0])
            budget = cfg.eps * (1.0 + abs(obj))
            if drift <= budget and drift * (t / cfg.window) <= budget:
                converged = True
                break
    return dict(
        objective=obj, residual=resid_rel, iterations=iters, converged=converged, x=x, z=z,
        min_iterate_eig=min_seen, dual_cap_hits=cap_hits,
        residual_history=np.array(hist) if cfg.track_residuals else None,
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


@pytest.mark.parametrize(
    "name, cfg",
    [
        ("converges", CgalConfig(eps=3e-3, max_iters=20_000)),
        ("iteration cap", CgalConfig(eps=1e-9, max_iters=400, seed=3)),
        ("lanczos everywhere", CgalConfig(eps=1e-3, max_iters=150, dense_cutoff=0, lanczos_dim=2)),
        ("audits", CgalConfig(eps=1e-3, max_iters=400, check_psd=True, track_residuals=True)),
        ("dual cap", CgalConfig(eps=1e-3, max_iters=400, dual_cap=0.3, track_residuals=True)),
    ],
)
@pytest.mark.parametrize("problem", ["mixed", "ball"])
def test_solve_matches_reference_loop(problem, name, cfg):
    sdp = _mixed_sdp() if problem == "mixed" else _ball_sdp(n=2, order=2)[1]
    ref = _reference_solve(sdp, cfg)
    rep = solve(sdp, cfg)
    for field in ("objective", "residual", "iterations", "converged", "min_iterate_eig", "dual_cap_hits"):
        assert getattr(rep, field) == ref[field], field
    assert rep.x.tobytes() == ref["x"].tobytes()
    assert rep.z.tobytes() == ref["z"].tobytes()
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


def test_solve_rejects_non_finite_eigenvalue():
    # an infinite objective entry gives inf / inf = NaN in the gradient of block 1 only
    sizes = [1, 2]
    layout = BlockLayout(sizes)
    c = np.zeros(layout.dim)
    c[layout.index(1, 0, 1)] = np.inf
    sdp = _direct_sdp(sizes, c, [[1.0, 0.0, 0.0, 0.0]], [0.3], trace=1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(CgalError, match="block 1 is nan at iteration 1"):
            solve(sdp, CgalConfig(max_iters=10))
        # the same error when block 1 runs Lanczos instead of a dense eigh
        with pytest.raises(CgalError, match="block 1 is nan at iteration 1"):
            solve(sdp, CgalConfig(max_iters=10, dense_cutoff=0))
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


def test_solve_trace_guard_raises(monkeypatch):
    _, sdp = _ball_sdp()
    monkeypatch.setattr(BlockLayout, "trace", lambda self, x: 999.0)
    with pytest.raises(CgalError, match="trace drifted"):
        solve(sdp, CgalConfig(eps=1e-3, max_iters=10))


def test_solve_psd_guard_raises(monkeypatch):
    _, sdp = _ball_sdp()
    # dense_cutoff=0 sends the eigenpair search through Lanczos, so patching
    # eigvalsh corrupts only the audit's view of the iterate
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda m: np.array([-1.0] + [0.0] * (m.shape[0] - 1))
    )
    with pytest.raises(CgalError, match="lost psd"):
        solve(sdp, CgalConfig(eps=1e-3, max_iters=10, check_psd=True, dense_cutoff=0, lanczos_dim=4))


def test_dual_cap_hits():
    _, sdp = _ball_sdp()
    assert solve(sdp, CgalConfig(eps=1e-3, max_iters=2000)).dual_cap_hits == 0
    capped = solve(sdp, CgalConfig(eps=1e-3, max_iters=2000, dual_cap=1e-6))
    assert 0 < capped.dual_cap_hits <= capped.iterations


def test_report_fields():
    _, sdp = _ball_sdp()
    rep = solve(sdp, CgalConfig(eps=1e-3, max_iters=30_000))
    assert isinstance(rep, SolveReport)
    assert rep.iterations >= 1
    assert rep.runtime >= 0.0
    assert rep.x.shape == (sdp.dim,)
    assert rep.z.shape == (sdp.n_rows,)
    assert rep.residual_history is None


def test_residual_history_non_increasing_over_windows():
    _, sdp = _ball_sdp(n=3, order=2)
    rep = solve(sdp, CgalConfig(eps=1e-4, max_iters=100_000, track_residuals=True))
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
