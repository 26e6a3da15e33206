"""Reference implementations that the tests compare the library against.

Each one is the plain loop or dense gather that an array pass in `src/`
replaced, kept here so results can be checked entry for entry, or a map
that only the tests use (key lookups, matrix evaluations); with them is a
problem that more than one test file builds.
"""

from __future__ import annotations

import functools
import math
from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from ncsdp.ctp import _add_conjugation, _add_term
from ncsdp.free_algebra import EMPTY_WORD, NcPolynomial, SymmetryMode, Word, WordBasis, canonicalize
from ncsdp.relaxation import Problem
from ncsdp.standard_form import StandardSdp


def cancelling_problem() -> Problem:
    """Ball in 2 letters plus an equality whose cyclic classes cancel at entry (0, 0)."""
    x1, x2 = NcPolynomial.letter(2, 1), NcPolynomial.letter(2, 2)
    ball = NcPolynomial.constant(2, 1.0) - x1 * x1 - x2 * x2
    h = x1 * x1 * x2 + x2 * x1 * x1 - 2.0 * (x1 * x2 * x1)
    return Problem(n=2, objective=x1 * x2 + x2 * x1, inequalities=[ball], equalities=[h])


def scan_keys(cliques, order: int, mode: SymmetryMode) -> tuple[list[Word], list[list[int]]]:
    """Moment keys by the per-entry scan: canonicalize every moment entry's word and
    number the words with dict.setdefault in first-encounter order (cliques in order,
    upper triangles row-major). Returns the key words and each clique's entry keys."""
    key_index: dict[Word, int] = {}
    moment_keys = []
    for letters in cliques:
        words = WordBasis(letters, order).words
        moment_keys.append([
            key_index.setdefault(canonicalize(words[r][::-1] + words[c], mode), len(key_index))
            for r in range(len(words))
            for c in range(r, len(words))
        ])
    return list(key_index), moment_keys


def riesz(p: NcPolynomial, key_index: dict[Word, int], mode: SymmetryMode) -> dict[int, float]:
    """Linear form of the Riesz functional of p over canonical moment indices."""
    out: dict[int, float] = {}
    for w, c in p.terms.items():
        key = key_index[canonicalize(w, mode)]
        out[key] = out.get(key, 0.0) + c
    return {k: c for k, c in out.items() if c != 0.0}


@functools.lru_cache(maxsize=4)
def key_index(rel) -> dict[Word, int]:
    """Each key word of a relaxation mapped to its key."""
    return {w: i for i, w in enumerate(rel.keys)}


def key_of(rel, w: Word) -> int:
    """The key of any word of rel: its canonical word's place in rel.keys."""
    return key_index(rel)[canonicalize(tuple(w), rel.mode)]


def word_matrix(w: Word, mats) -> np.ndarray:
    """The product of the matrices of w's letters (letter j -> mats[j - 1]), left to right."""
    out = mats[w[0] - 1] if w else np.eye(len(mats[0]))
    for j in w[1:]:
        out = out @ mats[j - 1]
    return out


def evaluate(p: NcPolynomial, mats) -> np.ndarray:
    """p at a tuple of symmetric matrices, symmetrized to wash out the roundoff of the word products."""
    acc = np.zeros((len(mats[0]), len(mats[0])))
    for w, c in p.terms.items():
        acc += c * word_matrix(w, mats)
    return (acc + acc.T) / 2.0


def moment_vector_from_evaluation(rel, mats, v=None) -> np.ndarray:
    """Moment vector of matrices, key by key: <v, w(A) v> for v / |v|, or tr w(A) / dim without v."""
    if v is None:
        return np.array([float(np.trace(word_matrix(w, mats))) / len(mats[0]) for w in rel.keys])
    v = v / np.linalg.norm(v)
    return np.array([float(v @ word_matrix(w, mats) @ v) for w in rel.keys])


def representatives(rel) -> np.ndarray:
    """The svec position of each key's representative: the first moment entry of build's scan that carries it."""
    moment_pos = np.flatnonzero(np.array([b.is_moment for b in rel.blocks])[rel.layout.block])
    return moment_pos[np.unique(np.concatenate(rel.moment_keys), return_index=True)[1]]


def layout_matrix(layout, x: np.ndarray, i: int) -> np.ndarray:
    """Dense symmetric block i of an svec vector."""
    s, at = layout.sizes[i], slice(layout.offsets[i], layout.offsets[i + 1])
    iu, ju = np.triu_indices(s)
    out = np.empty((s, s))
    out[iu, ju] = out[ju, iu] = x[at] / layout.scale[at]
    return out


def block_matrix(rel, block_index: int, y: np.ndarray) -> np.ndarray:
    """One psd block of a relaxation evaluated at a moment vector."""
    s = rel.blocks[block_index].size
    iu, ju = np.triu_indices(s)
    out = np.empty((s, s))
    out[iu, ju] = out[ju, iu] = rel.forms[0].values(y)[rel.layout.offsets[block_index] :][: iu.size]
    return out


def objective_value(rel, y: np.ndarray) -> float:
    """The relaxation's objective at a moment vector, one key at a time."""
    return float(sum(c * y[k] for k, c in rel.objective.items()))


def write_sdp_per_entry(sdp, path: str) -> None:
    """The standard-form text file, each entry line %-formatted on its own."""
    layout = sdp.layout
    lines = [f'"trace={sdp.trace!r} zeta={sdp.zeta}']
    lines.append(str(sdp.n_rows))
    lines.append(str(len(sdp.block_sizes)))
    lines.append(" ".join(str(s) for s in sdp.block_sizes))
    lines.append(" ".join(f"{v:.17g}" for v in sdp.b))
    obj = np.flatnonzero(sdp.c)
    coo = sdp.a_mat.tocoo()
    order = np.lexsort((coo.col, coo.row))
    t = np.concatenate([np.zeros(obj.size, dtype=np.intp), coo.row[order] + 1])
    pos = np.concatenate([obj, coo.col[order]])
    val = np.concatenate([sdp.c[obj], coo.data[order]]) / layout.scale[pos]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        for k, p in enumerate(pos.tolist()):
            fh.write("%d %d %d %d %.17g\n" % (t[k], layout.block[p] + 1, layout.row[p] + 1, layout.col[p] + 1, val[k]))


def ball_decomposition_residual(n: int, k: int, coeffs: dict[Word, float]) -> float:
    """Max |coeff| of sum_{W_k} w*w - (1+k) - sum_u d_u u*(sum X^2 - 1)u."""
    acc: dict[Word, float] = {}
    for w in WordBasis(range(1, n + 1), k).words:
        _add_term(acc, w[::-1] + w, 1.0)
    _add_term(acc, EMPTY_WORD, -float(1 + k))
    q = {(j, j): 1.0 for j in range(1, n + 1)}
    q[EMPTY_WORD] = -1.0
    for u, du in coeffs.items():
        _add_conjugation(acc, u, q, u, -du)
    return max((abs(c) for c in acc.values()), default=0.0)


def derive_ball_coeffs(n: int, k: int) -> dict[Word, float]:
    """Re-derive the ball multipliers by coefficient matching.

    The word u* X_j X_j u appears once in sum_{W_k} w*w (as w*w for
    w = X_j u), with weight -d_u from the u term and +d_{X_j u} from the
    square-free part of the X_j u term. Matching its coefficient to zero
    forces d_u = 1 + d_{X_j u}, with d_u = 1 at degree k-1. Every letter j
    must give the same answer, which is asserted.
    """
    coeffs: dict[Word, float] = {}
    words = sorted(WordBasis(range(1, n + 1), k - 1).words, key=len, reverse=True)
    for u in words:
        values = {1.0 + coeffs.get((j,) + u, 0.0) for j in range(1, n + 1)}
        assert len(values) == 1, "ball multiplier matching is inconsistent"
        coeffs[u] = values.pop()
    return coeffs


def trace_identity_by_words(rel, cert) -> np.ndarray:
    """The certificate's identity over the keys, one word at a time.

    Walks every diagonal word u* g u of every psd block (weight g^2, the
    squared scale) and every word u_r* h u_c of every equality block
    (weight H[r, c]), maps it to its key with `key_of` and subtracts
    the trace constant at the empty word.
    """
    out = np.zeros(rel.n_keys)
    for block, scale in zip(rel.blocks, cert.block_scales):
        terms = {(): 1.0} if block.poly is None else block.poly.terms
        for u, g in zip(block.basis.words, scale):
            for w, c in terms.items():
                out[key_of(rel, u[::-1] + w + u)] += g * g * c
    for block, h in zip(rel.eq_blocks, cert.eq_multipliers):
        words = block.basis.words
        for r, u in enumerate(words):
            for c, v in enumerate(words):
                for w, co in block.poly.terms.items():
                    out[key_of(rel, u[::-1] + w + v)] += h[r, c] * co
    out[key_of(rel, ())] -= cert.trace_constant
    return out


def assemble_by_lexsort(rel, cert):
    """The standard form with its CSR terms put in order by one lexsort over all of them.

    Rows are built as (row, svec position, coefficient) terms. The rows up
    to the last localizing row each own one entry of X with weight
    1 / (g_r g_c) in moment scale: the pin owns the representative of the
    empty word, a sharing row its repeated entry, a localizing row its
    localizing entry. Every other term refers to a moment key and lands on
    that key's representative entry, with the same weight.
    """
    layout = rel.layout
    prod = layout.diag_products(cert.block_scales)
    weight = 1.0 / prod
    moment = np.array([b.is_moment for b in rel.blocks])[layout.block]
    rep_pos = representatives(rel)
    own_pos = np.concatenate([rep_pos[:1], np.setdiff1d(np.flatnonzero(moment), rep_pos), np.flatnonzero(~moment)])
    n_own = own_pos.size

    # a sharing or localizing row subtracts its entry's form; an equality
    # row is the form of an equality entry that has terms
    psd, eq = rel.forms
    row_of = np.zeros(layout.dim, dtype=np.intp)
    row_of[own_pos[1:]] = np.arange(1, n_own)
    mine = row_of[psd.entry] > 0
    firsts = np.concatenate(([True], eq.entry[1:] != eq.entry[:-1]))[: eq.entry.size]  # first triplet of its entry
    eq_rows = n_own - 1 + np.cumsum(firsts)
    zeta = nrow = n_own + int(np.count_nonzero(firsts))
    key_rows = np.concatenate([row_of[psd.entry[mine]], eq_rows])
    key_keys = np.concatenate([psd.key[mine], eq.key])
    key_coeffs = np.concatenate([-psd.coeff[mine], eq.coeff])

    # per-group partial traces (all groups but the first; the solver keeps
    # the total trace at its constant)
    groups = np.array([b.group for b in rel.blocks])[layout.block[layout.diag]]
    later = groups > 0
    trace_pos = layout.diag[later]
    nrow += rel.n_groups - 1

    key_pos = rep_pos[key_keys]
    scale = layout.scale
    rows = np.concatenate([np.arange(n_own), key_rows, zeta - 1 + groups[later]])
    cols = np.concatenate([own_pos, key_pos, trace_pos])
    vals = np.concatenate([
        weight[own_pos] / scale[own_pos],
        key_coeffs * weight[key_pos] / scale[key_pos],
        np.ones(trace_pos.size),
    ])
    # no (row, position) pair repeats: a row's keys are distinct, so are
    # their representatives, and an owned entry is never a representative
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nrow))])
    idx = np.int32 if max(nrow, layout.dim, cols.size) < 2**31 else np.int64  # scipy's own choice, made here
    a_mat = sp.csr_matrix((vals[order], cols[order].astype(idx), indptr.astype(idx)), shape=(nrow, layout.dim))

    b = np.zeros(nrow)
    b[0] = 1.0
    b[zeta:] = cert.group_traces[1:]

    c_vec = np.zeros(layout.dim)
    obj_pos = rep_pos[np.array(list(rel.objective), dtype=np.intp)]
    c_vec[obj_pos] = np.array(list(rel.objective.values())) / prod[obj_pos] / scale[obj_pos]

    return StandardSdp(
        block_sizes=rel.block_sizes,
        c=c_vec,
        a_mat=a_mat,
        b=b,
        trace=cert.trace_constant,
        zeta=zeta,
    )


def check_lp_optimum(inst, res) -> None:
    """Certify res.x optimal for inst with the equality duals of SciPy's HiGHS.

    Feasibility and bounds of x; reduced costs c - A^T y nonnegative (zero on
    free columns); complementary slackness between them and x; and res's
    objective equal to c.x and to the dual objective of the shifted problem.
    """
    assert res.status == "optimal"
    x, finite = res.x, np.isfinite(inst.lower)
    assert np.abs(inst.a_mat @ x - inst.b).max() <= 1e-8 * (1 + np.abs(inst.b).max())
    assert (x[finite] >= inst.lower[finite] - 1e-9).all()
    bounds = [(lo, None) if ok else (None, None) for lo, ok in zip(inst.lower, finite)]
    ref = linprog(inst.c, A_eq=inst.a_mat, b_eq=inst.b, bounds=bounds, method="highs")
    assert ref.status == 0
    y = ref.eqlin.marginals
    red = inst.c - inst.a_mat.T @ y
    assert (red[finite] >= -1e-7).all()
    assert np.abs(red[~finite]).max(initial=0.0) <= 1e-7
    slack = x[finite] - inst.lower[finite]
    assert np.abs(red[finite] * slack).max(initial=0.0) <= 1e-7 * (1 + np.abs(slack).max(initial=0.0))
    assert res.objective == float(inst.c @ x)
    shift = np.where(finite, inst.lower, 0.0)
    lhs = float(inst.c @ x - inst.c @ shift)
    assert abs(lhs - float(y @ (inst.b - inst.a_mat @ shift))) <= 1e-7 * (1 + abs(lhs))


def remember_pair(pairs: deque, s: np.ndarray, y: np.ndarray) -> None:
    """Append the L-BFGS pair (s, y, 1 / s.y) to pairs (a deque of maxlen 20) when s.y > 1e-16 |s| |y|."""
    sy = s.dot(y)
    if sy > 1e-16 * math.sqrt(s.dot(s) * y.dot(y)):
        pairs.append((s, y, 1.0 / sy))


def two_loop_direction(g: np.ndarray, pairs: deque, step0: float) -> np.ndarray:
    """H g by the L-BFGS two-loop recursion over pairs (s, y, 1 / s.y), oldest first; step0 g without pairs."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * s.dot(q))
        q -= alphas[-1] * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= s.dot(y) / y.dot(y)
    else:
        q *= step0
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * y.dot(q)) * s
    return q


def smoothed_dual_by_blocks(scaled, u, mu: float, groups=None) -> tuple[float, np.ndarray, float, np.ndarray]:
    """(-f_mu(u), its gradient, f(u), svec(W)) of a solver's normalized data, one block at a time in svec form.

    groups lists (blocks, a_g) for every clique group; None is one group of
    every block with the form's trace a. Every block of C - A^T u is read
    with layout_matrix and takes its own eigh. Group g's softmin weights run
    over its own blocks' eigenvalues, scaled by a_g / a, and the mixture
    V diag(w) V^T of each block goes back to svec through its upper
    triangle and the layout's scale. f_mu(u) = b.u - sum_g (a_g / a) mu
    log sum_j exp(-lambda_j / mu), and f(u) = b.u + sum_g (a_g / a)
    lambda_min,g.
    """
    sdp, layout = scaled.sdp, scaled.sdp.layout
    if groups is None:
        groups = [(range(len(layout.sizes)), scaled.a)]
    a_s = sdp.a_mat / scaled.sigma
    b_s = sdp.b / (scaled.sigma * scaled.a)
    g = scaled.c_s - a_s.T @ u
    mix, plain, smooth = np.zeros(layout.dim), float(b_s @ u), 0.0
    for blocks, a_g in groups:
        eigs = {i: np.linalg.eigh(layout_matrix(layout, g, i)) for i in blocks}
        lam_min = min(float(w.min()) for w, _ in eigs.values())
        total = sum(float(np.exp((lam_min - w) / mu).sum()) for w, _ in eigs.values())
        share = a_g / scaled.a
        plain += share * lam_min
        smooth += share * mu * math.log(total)
        for i, (w, v) in eigs.items():
            block = (v * (share * np.exp((lam_min - w) / mu) / total)) @ v.T
            iu, ju = np.triu_indices(w.size)
            span = slice(layout.offsets[i], layout.offsets[i + 1])
            mix[span] = block[iu, ju] * layout.scale[span]
    return smooth - plain, a_s @ mix - b_s, plain, mix
