"""Constant trace certification: oracles, closed forms, LP route, verify."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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
    certify,
    sampled_deviation,
    square_equality_multipliers,
    symbolic_residual,
    verify,
)
from ncsdp.free_algebra import NcPolynomial, SymmetryMode, WordBasis, basis_size
from ncsdp.generator import ball_inequality, gen_dense, gen_sparse, polydisc_inequalities
from ncsdp.lp import solve_lp
from ncsdp.relaxation import EntryForms, Problem, build
from ncsdp.sparsity import dense_decomposition
from ncsdp.standard_form import assemble, write_sdp
from oracles import ball_decomposition_residual, derive_ball_coeffs, trace_identity_by_words


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
    rel = build(problem, k, decomp=decomp)
    return ctp._group_lp(rel, *ctp._group(rel, group))


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
@pytest.mark.parametrize(
    "k, mode, digest",
    [
        (1, SymmetryMode.STAR_ONLY, "5d70c80295cf9b305cb8bea88b5e31b42115bb14b76eb16b2a0583711119153f"),
        (1, SymmetryMode.STAR_CYCLIC, "5d70c80295cf9b305cb8bea88b5e31b42115bb14b76eb16b2a0583711119153f"),
        (2, SymmetryMode.STAR_ONLY, "d23f23bff19fdd823d246c66664169106289a4bc0a1be74a26a38d8704868a89"),
        (2, SymmetryMode.STAR_CYCLIC, "497a12c413291ed905213c44d34062c0492b2853c1c2dbc79853aa843a3a1c73"),
    ],
)
def test_lp_certificate_golden_digest(k, mode, digest, tmp_path):
    # LP-route certificates of a dense chain (at k = 2 with an 8 x 8 equality block), pinned
    # by the digest of their scales, multipliers and standard-form file bytes
    prob = gen_sparse(7, 3, seed=0)
    rel = build(prob, k, mode, decomp=dense_decomposition(prob))
    cert = certify(rel)
    assert cert.provenances == (PROV_LP,)
    assert [e.size for e in rel.eq_blocks] == [basis_size(k - 1, 7)]
    path = tmp_path / "x.sdp"
    write_sdp(assemble(rel, cert), str(path))
    got = hashlib.sha256()
    for a in (*cert.block_scales, *cert.eq_multipliers):
        got.update(a.tobytes())
    got.update(path.read_bytes())
    assert got.hexdigest() == digest


def test_lp_certificate_of_a_degenerate_dense_chain_returns():
    # a certificate LP of 1325 rows x 191 columns with b = 0; under Bland's
    # rule alone the simplex crept through degenerate pivots for minutes and
    # then gave up, so certify runs in a child process with a wall budget
    code = (
        "import warnings; warnings.simplefilter('ignore')\n"
        "from ncsdp.ctp import certify, verify\n"
        "from ncsdp.generator import gen_sparse\n"
        "from ncsdp.relaxation import build\n"
        "from ncsdp.sparsity import dense_decomposition\n"
        "prob = gen_sparse(8, 3, seed=3)\n"
        "rel = build(prob, 2, decomp=dense_decomposition(prob))\n"
        "cert = certify(rel)\n"
        "print(cert.provenances[0], cert.trace_constant, verify(rel, cert))\n"
    )
    src = str(Path(ctp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert out.returncode == 0, out.stderr
    prov, trace, residual = out.stdout.split()
    assert prov == PROV_LP and float(trace) == pytest.approx(13.0, abs=1e-7) and float(residual) <= 1e-8


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


def _square_equality_problem():
    n = 2
    x = _letters(n)
    one = NcPolynomial.constant(n, 1.0)
    return Problem(n=n, objective=x[0], equalities=[2.0 * (x[0] * x[0] - one), 0.5 * (x[1] * x[1] - one)])


def _lp_equality_problem():
    # the equality on X1 rides along an inequality on X2, so no closed form matches
    # and the LP certificate needs a nonzero H
    n = 2
    x = _letters(n)
    one = NcPolynomial.constant(n, 1.0)
    return Problem(n=n, objective=x[0] + x[1], inequalities=[one - x[1] * x[1]], equalities=[x[0] * x[0] - one])


# (problem, order, dense layout, provenance of every group)
FORMS = {
    "ball": (lambda: gen_dense(3, kind="ball", l=1, seed=0), 2, False, PROV_BALL),
    "polydisc": (lambda: gen_dense(3, kind="polydisc", l=1, seed=1), 2, False, PROV_POLYDISC),
    "square-eq": (_square_equality_problem, 2, False, PROV_SQUARE_EQ),
    "lp-eq": (_lp_equality_problem, 2, False, PROV_LP),
    "lp-dense": (lambda: gen_sparse(6, 3, seed=2), 1, True, PROV_LP),
    "chain": (lambda: gen_sparse(9, 3, seed=1), 2, False, PROV_BALL),
}


@pytest.mark.filterwarnings("ignore:clique chain")
@pytest.mark.parametrize("mode", [SymmetryMode.STAR_ONLY, SymmetryMode.STAR_CYCLIC])
@pytest.mark.parametrize("name", sorted(FORMS))
def test_trace_identity_matches_word_walk(name, mode):
    make, order, dense, prov = FORMS[name]
    prob = make()
    rel = build(prob, order, mode, decomp=dense_decomposition(prob) if dense else None)
    cert = certify(rel)
    assert set(cert.provenances) == {prov}
    if name in ("square-eq", "lp-eq"):
        assert any(np.any(h != 0.0) for h in cert.eq_multipliers)
    got = ctp.trace_identity_residual(rel, cert)
    assert np.abs(got - trace_identity_by_words(rel, cert)).max() <= 1e-12
    assert sampled_deviation(rel, cert) == float(np.abs(got).max()) <= 1e-12 * max(1.0, cert.trace_constant)
    assert verify(rel, cert) == verify(rel, cert) <= 1e-9


def test_sampled_deviation_catches_tampered_multipliers():
    rel = build(_square_equality_problem(), 2)
    cert = certify(rel)
    assert sampled_deviation(rel, cert) <= 1e-15
    tampered = replace(cert, eq_multipliers=tuple(1.01 * h for h in cert.eq_multipliers))
    # the multipliers supply 6 of the trace constant's 7 at the empty word, so 1% more
    # of them leaves 0.06 there
    assert sampled_deviation(rel, tampered) == pytest.approx(0.06, rel=1e-9)
    assert verify(rel, tampered) > 1e-3


def test_sampled_deviation_reads_group_trace_offset():
    # ball n = 10 at k = 2, 5666 keys: the check is one pass over the entry forms
    rel = build(gen_dense(10, kind="ball", seed=0), order=2)
    assert rel.n_keys == 5666
    cert = certify(rel)
    tampered = replace(cert, group_traces=(cert.group_traces[0] + 1e-3,))
    for c, expect in ((cert, 0.0), (tampered, 1e-3)):
        assert sampled_deviation(rel, c) == pytest.approx(expect, abs=1e-12)
        assert np.abs(ctp.trace_identity_residual(rel, c) - trace_identity_by_words(rel, c)).max() <= 1e-12


@pytest.mark.parametrize("part", ["psd", "eq"])
def test_sampled_deviation_catches_miswired_entry_forms(part):
    # a wrong key in an entry form is invisible to the symbolic expansion, which reads
    # only the polynomials; the trace check reads the forms
    rel = build(_square_equality_problem() if part == "eq" else ball_problem(2), 2)
    cert = certify(rel)
    psd, eq = rel.forms
    if part == "psd":
        layout = rel.layout
        at = int(np.flatnonzero(layout.row[psd.entry] == layout.col[psd.entry])[-1])
        forms = psd
    else:
        at = int(np.flatnonzero(eq.key != 0)[0])
        forms = eq
    key = forms.key.copy()
    key[at] = (key[at] + 1) % rel.n_keys
    bad = EntryForms(forms.entry, key, forms.coeff, forms.size)
    rel.forms = (bad, eq) if part == "psd" else (psd, bad)
    assert symbolic_residual(rel, cert) <= 1e-12
    assert sampled_deviation(rel, cert) > 0.1
    assert verify(rel, cert) > 0.1


def test_verify_propagates_nan():
    rel = build(ball_problem(2), order=2)
    cert = certify(rel)
    scales = list(cert.block_scales)
    scales[1] = np.full_like(scales[1], np.nan)
    assert np.isnan(verify(rel, replace(cert, block_scales=tuple(scales))))


def test_certify_trace_mode():
    rel = build(ball_problem(2), order=2, mode=SymmetryMode.STAR_CYCLIC)
    cert = certify(rel)
    assert cert.provenances == (PROV_BALL,)
    assert cert.trace_constant == 3.0
    assert verify(rel, cert) <= 1e-9
