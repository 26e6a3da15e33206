"""Constant trace certificates for moment relaxations.

A relaxation has the constant trace property when, for every clique group,
there are positive diagonal matrices G_i (one per psd block of the group,
with g_0 = 1 standing in for the moment block) and symmetric multipliers
H_j (one per equality block) realizing the identity

    sum_i sum_u (G_i)_uu . u* g_i u  +  sum_j sum_{u,v} (H_j)_uv . u* h_j v  =  a

in the free algebra. Applying the moment functional to both sides pins
tr(P D_k(y) P) = a on every moment vector with vanishing equality entries
and y_1 = 1, where P = blockdiag(G_i^{1/2}).

`certify` and the symbolic half of `verify` walk one group at a time over
the blocks `_group` names: the group's psd blocks, moment block first, and
its equality blocks, each read through `Block.terms`. Certificates come
from closed forms for the constraint patterns produced by the instance
generator (ball, polydisc, square equalities), whose multipliers depend
only on the length of a basis word, and from a small LP over the
identity's coefficients for anything else. Both routes are checked by
`verify`, which expands the identity symbolically and pushes it through
the relaxation's entry forms, key by key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .free_algebra import (
    EMPTY_WORD,
    NcPolynomial,
    Word,
    WordBasis,
    basis_size,
    canonicalize,
)
from .lp import LpInstance, solve_lp
from .relaxation import Relaxation

PROV_BALL = "ball-closed-form"
PROV_POLYDISC = "polydisc-closed-form"
PROV_SQUARE_EQ = "square-equalities-closed-form"
PROV_LP = "lp"

COEFF_TOL = 1e-9


class CtpError(Exception):
    """Raised when no constant trace certificate can be produced."""


@dataclass(frozen=True)
class CtpCertificate:
    """Constant trace certificate aligned with a built relaxation.

    block_scales[i] is the diagonal of G_i^{1/2} for rel.blocks[i];
    eq_multipliers[j] is the symmetric H matrix for rel.eq_blocks[j] (zeros
    when the certificate does not use that equality). group_traces[g] is the
    trace constant contributed by clique group g.
    """

    order: int
    block_scales: tuple[np.ndarray, ...]
    eq_multipliers: tuple[np.ndarray, ...]
    group_traces: tuple[float, ...]
    provenances: tuple[str, ...]

    @property
    def trace_constant(self) -> float:
        return float(sum(self.group_traces))

    @property
    def a_max(self) -> float:
        return float(max(self.group_traces))


# ---------------------------------------------------------------------------
# symbolic expansion helpers (exact dict arithmetic on words)


def _add_term(acc: dict[Word, float], w: Word, c: float) -> None:
    new = acc.get(w, 0.0) + c
    if new == 0.0:
        acc.pop(w, None)
    else:
        acc[w] = new


def _add_conjugation(
    acc: dict[Word, float],
    u: Word,
    poly_terms: dict[Word, float],
    v: Word,
    scale: float,
) -> None:
    """acc += scale * u* p v, with p given by its term dict."""
    u_star = u[::-1]
    for w, cw in poly_terms.items():
        _add_term(acc, u_star + w + v, scale * cw)


def ball_terms(letters: tuple[int, ...]) -> dict[Word, float]:
    """Term dict of 1 - sum_{j in letters} X_j^2."""
    terms: dict[Word, float] = {EMPTY_WORD: 1.0}
    for j in letters:
        terms[(j, j)] = -1.0
    return terms


def ball_coeffs(n: int, k: int) -> dict[Word, float]:
    """Multipliers d_u over W_{k-1} for the ball trace identity.

    Realizes sum_{w in W_k} w*w = (1+k) + sum_u d_u u*(sum_j X_j^2 - 1)u
    with d_u = k - deg(u), which makes a = 1 + k the ball trace constant.
    Every certificate built from it is re-checked by `verify`.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    return {u: float(k - len(u)) for u in WordBasis(range(1, n + 1), k - 1).words}


def square_equality_multipliers(n: int, k: int) -> dict[Word, float]:
    """Diagonal multipliers m_u over W_{k-1} for the square-equality identity.

    Realizes sum_{w in W_k} w*w = s(k) + sum_j sum_u m_u u*(X_j^2 - 1)u with
    m_u = s(k - 1 - deg u) counting the words that telescope through u; the
    trace constant is s(k) = sum_{d<=k} n^d.
    """
    return {
        u: float(basis_size(k - 1 - len(u), n))
        for u in WordBasis(range(1, n + 1), k - 1).words
    }


# ---------------------------------------------------------------------------
# closed-form pattern matching (per clique group)


def _poly_matches(p: NcPolynomial, terms: dict[Word, float], tol: float = COEFF_TOL) -> bool:
    if set(p.terms) != set(terms):
        return False
    return all(abs(p.terms[w] - c) <= tol for w, c in terms.items())


def _match_ball(letters: tuple[int, ...], ineqs: list[NcPolynomial]) -> bool:
    return len(ineqs) == 1 and _poly_matches(ineqs[0], ball_terms(letters))


def _match_polydisc(letters: tuple[int, ...], ineqs: list[NcPolynomial]) -> bool:
    """One inequality c_j - X_j^2 per group letter, with sum_j c_j = 1."""
    if len(ineqs) != len(letters):
        return False
    seen: dict[int, float] = {}
    for g in ineqs:
        support = {w for w in g.terms if w != EMPTY_WORD}
        if len(support) != 1:
            return False
        (w,) = support
        if len(w) != 2 or w[0] != w[1] or abs(g.terms[w] + 1.0) > COEFF_TOL:
            return False
        j = w[0]
        if j not in letters or j in seen:
            return False
        seen[j] = g.coeff(EMPTY_WORD)
    if len(seen) != len(letters):
        return False
    return abs(sum(seen.values()) - 1.0) <= COEFF_TOL


def _match_square_equalities(
    letters: tuple[int, ...], ineqs: list[NcPolynomial], eqs: list[NcPolynomial]
) -> dict[int, float] | None:
    """Match h_j = s_j (X_j^2 - 1) equalities covering every group letter.

    Returns {position in eqs -> s_j} when the group has no inequalities and
    each letter carries exactly one such equality (extra equalities are
    tolerated and get zero multipliers). None when the pattern misses.
    """
    if ineqs:
        return None
    found: dict[int, int] = {}
    scales: dict[int, float] = {}
    for pos, h in enumerate(eqs):
        words = set(h.terms)
        if len(words) != 2 or EMPTY_WORD not in words:
            continue
        (w,) = words - {EMPTY_WORD}
        if len(w) != 2 or w[0] != w[1]:
            continue
        s = h.terms[w]
        if abs(s) <= COEFF_TOL or abs(h.terms[EMPTY_WORD] + s) > COEFF_TOL:
            continue
        j = w[0]
        if j in letters and j not in found:
            found[j] = pos
            scales[pos] = s
    if len(found) != len(letters):
        return None
    return scales


# ---------------------------------------------------------------------------
# per-group certification


def _group(rel: Relaxation, g: int) -> tuple[list[int], list[int]]:
    """Indices of group g's psd blocks, moment block first, and of its equality blocks."""
    block_ids = [i for i, b in enumerate(rel.blocks) if b.group == g]
    if not rel.blocks[block_ids[0]].is_moment:
        raise CtpError("first block of a group must be the moment block")
    return block_ids, [j for j, e in enumerate(rel.eq_blocks) if e.group == g]


def _group_lp(rel: Relaxation, block_ids: list[int], eq_ids: list[int]) -> LpInstance:
    """LP over one clique group certifying a constant trace.

    Variables: xi (>= 0), one diagonal entry per basis word of each psd
    block in block_ids (>= 1), and the upper-triangle entries, row-major, of
    each H_j for eq_ids (free). Rows match the identity coefficient by
    coefficient over star classes; rows no variable touches are identically
    zero and dropped.
    """
    columns: list[dict[Word, float]] = [{EMPTY_WORD: -1.0}]
    lower = [0.0]
    for i in block_ids:
        block = rel.blocks[i]
        for u in block.basis.words:
            col: dict[Word, float] = {}
            _add_conjugation(col, u, block.terms, u, 1.0)
            columns.append(col)
            lower.append(1.0)
    for j in eq_ids:
        eqb = rel.eq_blocks[j]
        words = eqb.basis.words
        for r, u in enumerate(words):
            for v in words[r:]:
                col = {}
                _add_conjugation(col, u, eqb.terms, v, 1.0)
                if u != v:
                    _add_conjugation(col, v, eqb.terms, u, 1.0)
                columns.append(col)
                lower.append(-np.inf)

    rows: dict[Word, dict[int, float]] = {}
    for idx, col in enumerate(columns):
        for w, c in col.items():
            row = rows.setdefault(canonicalize(w), {})
            row[idx] = row.get(idx, 0.0) + c
    reps = sorted(rows)
    a_mat = np.zeros((len(reps), len(columns)))
    for r, rep in enumerate(reps):
        for idx, c in rows[rep].items():
            a_mat[r, idx] = c
    c_vec = np.zeros(len(columns))
    c_vec[0] = 1.0
    return LpInstance(c=c_vec, a_mat=a_mat, b=np.zeros(len(reps)), lower=np.array(lower))


def _certify_group_lp(
    rel: Relaxation, group: int, block_ids: list[int], eq_ids: list[int]
) -> tuple[float, dict[int, np.ndarray], dict[int, np.ndarray]]:
    res = solve_lp(_group_lp(rel, block_ids, eq_ids))
    if res.status != "optimal":
        raise CtpError(
            f"constant trace property not certified for group {group}: LP {res.status}"
        )
    x, pos = res.x, 1
    scales: dict[int, np.ndarray] = {}
    for bi in block_ids:
        diag = x[pos : pos + rel.blocks[bi].size]
        if np.any(diag <= 0.0):
            raise CtpError(f"group {group}: nonpositive diagonal in LP certificate")
        scales[bi] = np.sqrt(diag)
        pos += diag.size
    mults: dict[int, np.ndarray] = {}
    for ej in eq_ids:
        size = rel.eq_blocks[ej].size
        iu, ju = np.triu_indices(size)
        h = np.zeros((size, size))
        h[iu, ju] = h[ju, iu] = x[pos : pos + iu.size]
        mults[ej] = h
        pos += iu.size
    return float(x[0]), scales, mults


def certify(rel: Relaxation) -> CtpCertificate:
    """Produce a constant trace certificate for every group of a relaxation.

    Closed forms are tried first (ball, polydisc, square equalities); the
    LP covers anything unmatched. Raises CtpError when some group admits
    neither.
    """
    k = rel.order
    scales: dict[int, np.ndarray] = {}
    mults: dict[int, np.ndarray] = {
        j: np.zeros((e.size, e.size)) for j, e in enumerate(rel.eq_blocks)
    }
    traces: list[float] = []
    provs: list[str] = []

    for g, letters in enumerate(rel.decomp.cliques):
        block_ids, eq_ids = _group(rel, g)
        ineqs = [rel.blocks[i].poly for i in block_ids[1:]]
        eqs = [rel.eq_blocks[j].poly for j in eq_ids]
        nv = len(letters)

        # the closed-form multipliers depend only on the length of a basis word
        ball = _match_ball(letters, ineqs)
        sq = _match_square_equalities(letters, ineqs, eqs)
        if ball or _match_polydisc(letters, ineqs):
            coeff = {len(u): c for u, c in ball_coeffs(nv, k).items()}
            for bi in block_ids[1:]:
                scales[bi] = np.sqrt([coeff[len(u)] for u in rel.blocks[bi].basis.words])
            trace, prov = float(1 + k), PROV_BALL if ball else PROV_POLYDISC
        elif sq is not None:
            m_u = {len(u): m for u, m in square_equality_multipliers(nv, k).items()}
            for pos, s in sq.items():
                ej = eq_ids[pos]
                mults[ej] = np.diag([-m_u[len(u)] / s for u in rel.eq_blocks[ej].basis.words])
            trace, prov = float(basis_size(k, nv)), PROV_SQUARE_EQ
        else:
            trace, g_scales, g_mults = _certify_group_lp(rel, g, block_ids, eq_ids)
            scales.update(g_scales)
            mults.update(g_mults)
            prov = PROV_LP
        # the closed forms keep the moment block unscaled (g_0 = 1)
        scales.setdefault(block_ids[0], np.ones(rel.blocks[block_ids[0]].size))
        traces.append(trace)
        provs.append(prov)

    return CtpCertificate(
        order=k,
        block_scales=tuple(scales[i] for i in range(len(rel.blocks))),
        eq_multipliers=tuple(mults[j] for j in range(len(rel.eq_blocks))),
        group_traces=tuple(traces),
        provenances=tuple(provs),
    )


# ---------------------------------------------------------------------------
# verification


def _group_residual_poly(rel: Relaxation, cert: CtpCertificate, group: int) -> dict[Word, float]:
    block_ids, eq_ids = _group(rel, group)
    acc: dict[Word, float] = {}
    for i in block_ids:
        block = rel.blocks[i]
        for u, d in zip(block.basis.words, cert.block_scales[i] ** 2):
            _add_conjugation(acc, u, block.terms, u, float(d))
    for j in eq_ids:
        eqb, h = rel.eq_blocks[j], cert.eq_multipliers[j]
        words = eqb.basis.words
        for r, u in enumerate(words):
            for c, v in enumerate(words):
                if h[r, c] != 0.0:
                    _add_conjugation(acc, u, eqb.terms, v, float(h[r, c]))
    _add_term(acc, EMPTY_WORD, -cert.group_traces[group])
    return acc


def symbolic_residual(rel: Relaxation, cert: CtpCertificate) -> float:
    """Max |coeff| of the expanded trace identity over all groups."""
    worst = 0.0
    for g in range(rel.n_groups):
        acc = _group_residual_poly(rel, cert, g)
        if acc:
            worst = max(worst, max(abs(c) for c in acc.values()))
    return worst


def trace_identity_residual(rel: Relaxation, cert: CtpCertificate) -> np.ndarray:
    """The certificate's identity under the moment functional, one coefficient per key.

    Each term (G_i)_uu . u* g_i u becomes the diagonal entry form of its psd
    block, and (H_j)_uv . u* h_j v the entry form of its equality block; the
    pair (u, v), (v, u) is one star class, so both read the upper entry's
    form. The result is sum_i tr(G_i D_i(y)) + sum_j <H_j, E_j(y)> - a y_1
    as a vector over the keys (the empty word is key 0). When it vanishes,
    tr(P D_k(y) P) = a for every y with vanishing equality entries and
    y_1 = 1.
    """
    layout, (psd, eq) = rel.layout, rel.forms
    diag = np.flatnonzero(layout.row[psd.entry] == layout.col[psd.entry])
    d = np.concatenate(cert.block_scales)[np.searchsorted(layout.diag, psd.entry[diag])]
    out = np.bincount(psd.key[diag], weights=d * d * psd.coeff[diag], minlength=rel.n_keys)
    if any(m.any() for m in cert.eq_multipliers):  # no equality term adds more than +0.0 otherwise
        h = np.concatenate([
            np.where(iu == ju, m[iu, ju], m[iu, ju] + m[ju, iu])
            for m in cert.eq_multipliers
            for iu, ju in [np.triu_indices(len(m))]
        ])
        weights = h[eq.entry]
        weights *= eq.coeff
        out += np.bincount(eq.key, weights=weights, minlength=rel.n_keys)
    out[0] -= cert.trace_constant
    return out


def sampled_deviation(rel: Relaxation, cert: CtpCertificate) -> float:
    """Max |coeff| of `trace_identity_residual`: the exact trace check on the feasible affine span.

    It checks the wiring between the certificate's polynomials and the
    relaxation's entry forms, which the symbolic expansion never reads.
    The name is the span name under which pipebench times this check.
    """
    return float(np.abs(trace_identity_residual(rel, cert)).max())


def verify(rel: Relaxation, cert: CtpCertificate) -> float:
    """Residual of a certificate: the larger of the symbolic expansion and the entry-form check.

    Deterministic; a NaN in either check is the result.
    """
    return float(np.max([symbolic_residual(rel, cert), sampled_deviation(rel, cert)]))
