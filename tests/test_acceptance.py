"""Acceptance checks for the full pipeline.

Each test covers one numbered criterion and reports one PASS/FAIL line;
the lines are echoed in the terminal summary. Structural statistics are
checked exactly, solver values at their stated tolerances, and the
symbolic identities in integer arithmetic independent of the library's
own expansion code.
"""

import json
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ncsdp.cgal import CgalConfig, min_eigpair, solve
from ncsdp.cli import main
from ncsdp.ctp import ball_coeffs, certify, verify
from ncsdp.free_algebra import (
    NcPolynomial,
    SymmetryMode,
    WordBasis,
    basis_size,
    evaluate,
)
from ncsdp.generator import gen_dense, gen_sparse
from ncsdp.lp import LpInstance, solve_lp
from ncsdp.relaxation import Problem, build, moment_vector_from_evaluation
from ncsdp.sparsity import dense_decomposition
from ncsdp.standard_form import assemble, count_stats
from oracles import block_matrix

EPS = 1e-4  # pipeline accuracy used by every solve below

CRITERION_LINES: list[str] = []


@contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"criterion {num:2d}: FAIL  {label}"
        CRITERION_LINES.append(line)
        print(line)
        raise
    line = f"criterion {num:2d}: PASS  {label}  [{time.perf_counter() - t0:.1f}s]"
    CRITERION_LINES.append(line)
    print(line)


# ---------------------------------------------------------------------------
# shared helpers


def _ball_objective_problem(n: int, objective: NcPolynomial) -> Problem:
    x = [NcPolynomial.letter(n, j) for j in range(1, n + 1)]
    g = NcPolynomial.constant(n, 1.0) - sum(
        (xi * xi for xi in x), NcPolynomial.zero(n)
    )
    return Problem(n=n, objective=objective, inequalities=[g])


def _solve_value(prob: Problem, order: int, mode=SymmetryMode.STAR_ONLY,
                 decomp=None, eps=EPS, seed=0, max_iters=150_000):
    rel = build(prob, order, mode, decomp=decomp)
    cert = certify(rel)
    sdp = assemble(rel, cert)
    rep = solve(sdp, CgalConfig(eps=eps, max_iters=max_iters, seed=seed))
    return rep


def _count_via_cli(capsys, kind: str, n: int, l: int, k: int, tmp_path, extra=()):
    path = str(tmp_path / f"{kind}-{n}-{l}.json")
    assert main(["gen", "--kind", kind, "--n", str(n), "--l", str(l),
                 "-o", path, *extra]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["count", path, "-k", str(k)]) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    m = re.search(r"omega=(\d+) smax=(\d+) zeta=(\d+) amax=(\S+)", out)
    assert m, out
    return (int(m.group(1)), int(m.group(2)), int(m.group(3)),
            float(m.group(4)), elapsed)


# exact integer expansion of conjugation sums, independent of the library


def _int_conjugate(acc: dict, u: tuple, terms: dict, mult: int) -> None:
    ru = u[::-1]
    for w, c in terms.items():
        key = ru + w + u
        new = acc.get(key, 0) + mult * c
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


def _ball_identity_residual(n: int, k: int) -> dict:
    words_k = WordBasis(range(1, n + 1), k).words
    acc: dict = {}
    for w in words_k:
        key = w[::-1] + w
        acc[key] = acc.get(key, 0) + 1
    acc[()] = acc.get((), 0) - (1 + k)
    if acc.get(()) == 0:
        acc.pop(())
    q = {(j, j): 1 for j in range(1, n + 1)}
    q[()] = -1
    for u in WordBasis(range(1, n + 1), k - 1).words:
        _int_conjugate(acc, u, q, -(k - len(u)))
    return acc


def _square_identity_residual(n: int, k: int) -> dict:
    acc: dict = {}
    for w in WordBasis(range(1, n + 1), k).words:
        key = w[::-1] + w
        acc[key] = acc.get(key, 0) + 1
    s_k = sum(n**d for d in range(k + 1))
    acc[()] = acc.get((), 0) - s_k
    if acc.get(()) == 0:
        acc.pop(())
    for j in range(1, n + 1):
        q = {(j, j): 1, (): -1}
        for u in WordBasis(range(1, n + 1), k - 1).words:
            m_u = sum(n**d for d in range(k - len(u)))
            _int_conjugate(acc, u, q, -m_u)
    return acc


def _random_ball_tuple(n: int, dim: int, rng) -> list[np.ndarray]:
    mats = []
    for _ in range(n):
        a = rng.standard_normal((dim, dim))
        mats.append((a + a.T) / 2)
    gram = sum(m @ m for m in mats)
    lam = float(np.linalg.eigvalsh(gram)[-1])
    scale = rng.uniform(0.1, 1.0) / np.sqrt(lam)
    return [m * scale for m in mats]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_ball_structure(capsys, tmp_path):
    with criterion(1, "ball family structure counts"):
        rows = [
            (10, 3, 1, 11, 5),
            (10, 3, 2, 111, 815),
            (20, 5, 1, 21, 7),
            (30, 8, 1, 31, 10),
        ]
        for n, l, k, smax, zeta in rows:
            omega, got_smax, got_zeta, amax, elapsed = _count_via_cli(
                capsys, "ball", n, l, k, tmp_path
            )
            assert got_smax == smax, (n, l, k)
            assert got_zeta == zeta, (n, l, k)
            assert amax == float(1 + k), (n, l, k)
            assert elapsed < 10.0, (n, l, k, elapsed)
        for n, l, zeta in ((20, 5, 5587), (30, 8, 18415)):
            t0 = time.perf_counter()
            prob = gen_dense(n, kind="ball", l=l, seed=0)
            rel = build(prob, 2)
            st = count_stats(rel, certify(rel))
            elapsed = time.perf_counter() - t0
            assert st.zeta == zeta, (n, l)
            assert st.amax == 3.0
            assert elapsed < 60.0, (n, elapsed)


def test_criterion_02_polydisc_structure(capsys, tmp_path):
    with criterion(2, "polydisc family structure counts"):
        rows = [
            (10, 2, 1, 13),
            (10, 2, 2, 1343),
            (20, 3, 1, 24),
            (30, 5, 1, 36),
        ]
        for n, l, k, zeta in rows:
            omega, smax, got_zeta, amax, elapsed = _count_via_cli(
                capsys, "polydisc", n, l, k, tmp_path
            )
            assert omega == n + 1, (n, l, k)
            assert got_zeta == zeta, (n, l, k)
            assert amax == float(1 + k), (n, l, k)
            assert elapsed < 10.0, (n, l, k, elapsed)


@pytest.mark.filterwarnings("ignore:clique chain")
def test_criterion_03_sparse_structure():
    with criterion(3, "sparse chain structure counts"):
        t0 = time.perf_counter()
        prob = gen_sparse(1000, 10, l=143, seed=0)
        rel = build(prob, 1)
        st = count_stats(rel, certify(rel))
        assert st.omega == 200
        assert st.smax == 12
        assert st.zeta == 541
        assert time.perf_counter() - t0 < 60.0
        t0 = time.perf_counter()
        rel2 = build(prob, 2)
        st2 = count_stats(rel2, certify(rel2))
        assert st2.smax == 133
        assert time.perf_counter() - t0 < 60.0


def test_criterion_04_symbolic_identities():
    with criterion(4, "trace decomposition identities vanish exactly"):
        t0 = time.perf_counter()
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                assert _ball_identity_residual(n, k) == {}, (n, k)
                assert _square_identity_residual(n, k) == {}, (n, k)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_05_signature_moment_traces():
    with criterion(5, "moment matrix trace at signature evaluations"):
        rng = np.random.default_rng(55)
        for trial in range(100):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            dim = int(rng.integers(1, 6))
            one = NcPolynomial.constant(n, 1.0)
            xs = [NcPolynomial.letter(n, j) for j in range(1, n + 1)]
            prob = Problem(
                n=n,
                objective=sum(xs, NcPolynomial.zero(n)),
                equalities=[x * x - one for x in xs],
            )
            mode = (
                SymmetryMode.STAR_ONLY
                if trial % 2 == 0
                else SymmetryMode.STAR_CYCLIC
            )
            rel = build(prob, k, mode)
            mats = [
                np.diag(rng.choice([-1.0, 1.0], size=dim)) for _ in range(n)
            ]
            v = rng.standard_normal(dim) if mode is SymmetryMode.STAR_ONLY else None
            y = moment_vector_from_evaluation(rel, mats, v=v)
            m_k = block_matrix(rel, 0, y)
            assert abs(np.trace(m_k) - basis_size(k, n)) <= 1e-10


def test_criterion_06_linear_objective_ball():
    with criterion(6, "sum of letters on the ball solves to -sqrt(n)"):
        for n in (2, 5, 10):
            x = [NcPolynomial.letter(n, j) for j in range(1, n + 1)]
            prob = _ball_objective_problem(n, sum(x, NcPolynomial.zero(n)))
            t0 = time.perf_counter()
            rep = _solve_value(prob, 1)
            elapsed = time.perf_counter() - t0
            assert abs(rep.objective + np.sqrt(n)) <= 5e-3 * np.sqrt(n), (
                n,
                rep.objective,
            )
            assert elapsed < 30.0, (n, elapsed)


def test_criterion_07_anticommutator_ball():
    with criterion(7, "anticommutator objective, eigenvalue and trace"):
        n = 2
        x1, x2 = NcPolynomial.letter(n, 1), NcPolynomial.letter(n, 2)
        prob = _ball_objective_problem(n, x1 * x2 + x2 * x1)
        t0 = time.perf_counter()
        for mode in (SymmetryMode.STAR_ONLY, SymmetryMode.STAR_CYCLIC):
            rep = _solve_value(prob, 1, mode)
            assert -1.01 <= rep.objective <= -0.99, (mode, rep.objective)
        assert time.perf_counter() - t0 < 30.0


@pytest.mark.filterwarnings("ignore:clique chain")
def test_criterion_08_certificate_soundness():
    with criterion(8, "certificates verify; iterates keep trace and psd"):
        for seed in range(50):
            pick = seed % 3
            if pick == 0:
                n = 2 + seed % 9
                prob = gen_dense(n, kind="ball", seed=seed)
            elif pick == 1:
                n = 2 + seed % 9
                prob = gen_dense(n, kind="polydisc", seed=seed)
            else:
                u = 3 + seed % 3
                n = min(10, u + 3 + seed % 5)
                prob = gen_sparse(n, u, seed=seed)
            rel = build(prob, 1)
            cert = certify(rel)
            assert verify(rel, cert, samples=3, seed=seed) <= 1e-8, seed
            sdp = assemble(rel, cert)
            a = sdp.trace
            rep = solve(
                sdp,
                CgalConfig(
                    eps=1e-3, max_iters=150, seed=seed, check_psd=True
                ),
            )
            assert rep.min_iterate_eig >= -1e-9 * a, seed
            diag = 0.0
            pos = 0
            for s in sdp.block_sizes:
                for r in range(s):
                    diag += rep.x[pos + r * s - r * (r - 1) // 2]
                pos += s * (s + 1) // 2
            assert abs(diag - a) <= 1e-9 * a, seed


def test_criterion_09_hierarchy_and_upper_bounds():
    with criterion(9, "order hierarchy and sampled upper bounds"):
        t_all = time.perf_counter()
        for seed in range(20):
            n = 2 + seed % 5
            prob = gen_dense(n, kind="ball", l=0, seed=seed)
            tau1 = _solve_value(prob, 1, seed=seed).objective
            tau2 = _solve_value(prob, 2, seed=seed).objective
            assert tau1 <= tau2 + 2 * EPS * (1 + abs(tau2)), (seed, tau1, tau2)
            rng = np.random.default_rng(1000 + seed)
            ub = np.inf
            for t in range(100):
                dim = 1 + t % 6
                mats = _random_ball_tuple(n, dim, rng)
                val = float(np.linalg.eigvalsh(evaluate(prob.objective, mats))[0])
                ub = min(ub, val)
            assert tau1 <= ub + 2 * EPS, (seed, tau1, ub)
            assert tau2 <= ub + 2 * EPS, (seed, tau2, ub)
        assert time.perf_counter() - t_all < 600.0


@pytest.mark.filterwarnings("ignore:clique chain")
def test_criterion_10_sparse_below_dense():
    with criterion(10, "clique relaxation value below dense value"):
        shapes = [(7, 3), (8, 3), (9, 3), (9, 4)]
        for seed in range(10):
            n, u = shapes[seed % len(shapes)]
            prob = gen_sparse(n, u, seed=seed)
            ncliques = len(prob.cliques)
            assert 2 <= ncliques <= 3
            tau_cs = _solve_value(prob, 1, seed=seed).objective
            tau_dense = _solve_value(
                prob, 1, decomp=dense_decomposition(prob), seed=seed
            ).objective
            assert tau_cs <= tau_dense + 2 * EPS * (1 + abs(tau_dense)), (
                seed,
                tau_cs,
                tau_dense,
            )


def test_criterion_11_numerical_oracles():
    with criterion(11, "eigenpair, LP duality, and multiplier oracles"):
        # smallest eigenpair against the dense solver
        rng = np.random.default_rng(11)
        for size in (1, 3, 50, 64, 65, 128, 200, 350, 500):
            a = rng.standard_normal((size, size))
            a = (a + a.T) / 2
            lam, vec = min_eigpair(a)
            w0 = float(np.linalg.eigvalsh(a)[0])
            assert abs(lam - w0) <= 1e-6 * (1 + abs(w0)), size
            assert np.linalg.norm(a @ vec - lam * vec) <= 1e-5 * (
                1 + abs(w0)
            ), size

        # LP duality spot-checks on random bounded instances
        for trial in range(25):
            m = int(rng.integers(1, 5))
            nn = int(rng.integers(m + 1, m + 6))
            a = rng.standard_normal((m, nn))
            lower = np.zeros(nn)
            x0 = np.abs(rng.standard_normal(nn))
            y0 = rng.standard_normal(m)
            c = a.T @ y0 + np.abs(rng.standard_normal(nn))
            inst = LpInstance(c=c, a_mat=a, b=a @ x0, lower=lower)
            res = solve_lp(inst)
            assert res.status == "optimal", trial
            assert (
                np.abs(inst.a_mat @ res.x - inst.b).max()
                <= 1e-8 * (1 + np.abs(inst.b).max())
            )
            red = inst.c - inst.a_mat.T @ res.dual
            assert (red >= -1e-7).all(), trial
            assert res.objective == pytest.approx(
                float(res.dual @ inst.b), abs=1e-6 * (1 + abs(res.objective))
            )

        # ball multipliers against the independent summation oracle
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                coeffs = ball_coeffs(n, k)
                words = WordBasis(range(1, n + 1), k - 1).words
                assert set(coeffs) == set(words)
                for u in words:
                    assert coeffs[u] == k - len(u)
                assert _ball_identity_residual(n, k) == {}
