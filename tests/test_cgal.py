import numpy as np
import pytest
import scipy.sparse as sp

from ncsdp.cgal import CgalConfig, CgalError, SolveReport, min_eigpair, solve
from ncsdp.ctp import certify
from ncsdp.free_algebra import NcPolynomial
from ncsdp.relaxation import Problem, build
from ncsdp.standard_form import BlockLayout, StandardSdp, assemble, recover_moments


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


def test_solve_pure_eigenvalue_problem():
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
