"""Constant trace certificates for moment relaxations.

A relaxation has the constant trace property when, for every clique group,
there are positive diagonal matrices G_i (one per psd block of the group,
with g_0 = 1 standing in for the moment block) and symmetric multipliers
H_j (one per equality block) realizing the identity

    sum_i sum_u (G_i)_uu . u* g_i u  +  sum_j sum_{u,v} (H_j)_uv . u* h_j v  =  a

in the free algebra. Applying the moment functional to both sides pins
tr(P D_k(y) P) = a on every moment vector with vanishing equality entries
and y_1 = 1, where P = blockdiag(G_i^{1/2}).

Certificates come from closed forms for the constraint patterns produced by
the instance generator (ball, polydisc, square equalities), and from a small
LP for anything else. Both routes are checked by `verify`, which expands the
identity symbolically and samples the trace over the feasible affine span.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .free_algebra import (
    EMPTY_WORD,
    NcPolynomial,
    Word,
    WordBasis,
    basis_size,
)
from .lp import LpInstance, LpResult, solve_lp
from .relaxation import Relaxation, moment_vector_from_evaluation, sample_equality_feasible_moments

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
    must give the same answer, which is checked.
    """
    coeffs: dict[Word, float] = {}
    words = sorted(WordBasis(range(1, n + 1), k - 1).words, key=len, reverse=True)
    for u in words:
        values = set()
        for j in range(1, n + 1):
            ext = (j,) + u
            values.add(1.0 + coeffs.get(ext, 0.0))
        if len(values) != 1:
            raise CtpError("ball multiplier matching is inconsistent")
        coeffs[u] = values.pop()
    return coeffs


_BALL_CACHE: dict[tuple[int, int], dict[Word, float]] = {}


def ball_coeffs(n: int, k: int) -> dict[Word, float]:
    """Multipliers d_u over W_{k-1} for the ball trace identity.

    Realizes sum_{w in W_k} w*w = (1+k) + sum_u d_u u*(sum_j X_j^2 - 1)u
    with d_u = k - deg(u). Validated once per (n, k) against the matching
    oracle and the exact symbolic expansion; the validated identity is what
    makes a = 1 + k the ball trace constant.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    cached = _BALL_CACHE.get((n, k))
    if cached is not None:
        return dict(cached)
    coeffs = {u: float(k - len(u)) for u in WordBasis(range(1, n + 1), k - 1).words}
    if coeffs != derive_ball_coeffs(n, k):
        raise CtpError("ball multipliers disagree with the matching oracle")
    if ball_decomposition_residual(n, k, coeffs) != 0.0:
        raise CtpError("ball multipliers do not satisfy the trace identity")
    _BALL_CACHE[(n, k)] = dict(coeffs)
    return coeffs


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
# LP certification


def _star_class(w: Word) -> Word:
    rw = w[::-1]
    return rw if rw < w else w


def _group_lp(
    mbasis_words: list[Word],
    ineqs: list[NcPolynomial],
    ineq_bases: list[list[Word]],
    eqs: list[NcPolynomial],
    eq_bases: list[list[Word]],
) -> tuple[LpInstance, list[int]]:
    """LP over one clique group certifying a constant trace.

    Variables: xi (>= 0), one diagonal entry per psd-block basis word
    (>= 1), and the upper-triangle entries of each H_j (free). Rows match
    the identity coefficient-by-coefficient over star-canonical classes;
    rows no variable touches are identically zero and dropped. Returns the
    instance and the variable-segment offsets [xi, G_0, G_1, ..., H_0, ...].
    """
    columns: list[dict[Word, float]] = [{EMPTY_WORD: -1.0}]
    lower = [0.0]
    offsets = [0]
    for words, poly in [(mbasis_words, None)] + list(zip(ineq_bases, ineqs)):
        offsets.append(len(columns))
        for u in words:
            col: dict[Word, float] = {}
            terms = poly.terms if poly is not None else {EMPTY_WORD: 1.0}
            _add_conjugation(col, u, terms, u, 1.0)
            columns.append(col)
            lower.append(1.0)
    for words, h in zip(eq_bases, eqs):
        offsets.append(len(columns))
        for r, u in enumerate(words):
            for v in words[r:]:
                col = {}
                _add_conjugation(col, u, h.terms, v, 1.0)
                if u != v:
                    _add_conjugation(col, v, h.terms, u, 1.0)
                columns.append(col)
                lower.append(-np.inf)
    offsets.append(len(columns))

    rows: dict[Word, dict[int, float]] = {}
    for idx, col in enumerate(columns):
        for w, c in col.items():
            row = rows.setdefault(_star_class(w), {})
            row[idx] = row.get(idx, 0.0) + c
    reps = sorted(rows)
    a_mat = np.zeros((len(reps), len(columns)))
    for r, rep in enumerate(reps):
        for idx, c in rows[rep].items():
            a_mat[r, idx] = c
    c_vec = np.zeros(len(columns))
    c_vec[0] = 1.0
    inst = LpInstance(
        c=c_vec,
        a_mat=a_mat,
        b=np.zeros(len(reps)),
        lower=np.array(lower),
    )
    return inst, offsets


def _group_lp_from_rel(rel: Relaxation, group: int) -> tuple[LpInstance, list[int], list[int], list[int]]:
    """Build the group LP from the blocks of a built relaxation.

    Also returns the indices of rel.blocks and rel.eq_blocks the variable
    segments correspond to, in segment order.
    """
    block_ids = [i for i, b in enumerate(rel.blocks) if b.group == group]
    eq_ids = [j for j, e in enumerate(rel.eq_blocks) if e.group == group]
    moment = rel.blocks[block_ids[0]]
    if not moment.is_moment:
        raise CtpError("first block of a group must be the moment block")
    ineqs = [rel.blocks[i].poly for i in block_ids[1:]]
    ineq_bases = [list(rel.blocks[i].basis.words) for i in block_ids[1:]]
    eqs = [rel.eq_blocks[j].poly for j in eq_ids]
    eq_bases = [list(rel.eq_blocks[j].basis.words) for j in eq_ids]
    inst, offsets = _group_lp(list(moment.basis.words), ineqs, ineq_bases, eqs, eq_bases)
    return inst, offsets, block_ids, eq_ids


def _certify_group_lp(
    rel: Relaxation, group: int
) -> tuple[float, dict[int, np.ndarray], dict[int, np.ndarray]]:
    inst, offsets, block_ids, eq_ids = _group_lp_from_rel(rel, group)
    res: LpResult = solve_lp(inst)
    if res.status != "optimal":
        raise CtpError(
            f"constant trace property not certified for group {group}: LP {res.status}"
        )
    x = res.x
    scales: dict[int, np.ndarray] = {}
    for seg, bi in enumerate(block_ids):
        lo, hi = offsets[seg + 1], offsets[seg + 2]
        diag = x[lo:hi]
        if np.any(diag <= 0.0):
            raise CtpError(f"group {group}: nonpositive diagonal in LP certificate")
        scales[bi] = np.sqrt(diag)
    mults: dict[int, np.ndarray] = {}
    base = 1 + len(block_ids)
    for seg, ej in enumerate(eq_ids):
        lo = offsets[base + seg]
        size = rel.eq_blocks[ej].size
        h = np.zeros((size, size))
        pos = lo
        for r in range(size):
            for c in range(r, size):
                h[r, c] = h[c, r] = x[pos]
                pos += 1
        mults[ej] = h
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
        block_ids = [i for i, b in enumerate(rel.blocks) if b.group == g]
        eq_ids = [j for j, e in enumerate(rel.eq_blocks) if e.group == g]
        ineqs = [rel.blocks[i].poly for i in block_ids[1:]]
        eqs = [rel.eq_blocks[j].poly for j in eq_ids]
        nv = len(letters)
        relabel = {j: i + 1 for i, j in enumerate(letters)}

        ball = _match_ball(letters, ineqs)
        sq = _match_square_equalities(letters, ineqs, eqs)
        if ball or _match_polydisc(letters, ineqs):
            coeffs = ball_coeffs(nv, k)
            for bi in block_ids[1:]:
                words = rel.blocks[bi].basis.words
                scales[bi] = np.sqrt([coeffs[tuple(relabel[a] for a in u)] for u in words])
            trace, prov = float(1 + k), PROV_BALL if ball else PROV_POLYDISC
        elif sq is not None:
            m_u = square_equality_multipliers(nv, k)
            for pos, s in sq.items():
                ej = eq_ids[pos]
                words = rel.eq_blocks[ej].basis.words
                mults[ej] = np.diag([-m_u[tuple(relabel[a] for a in u)] / s for u in words])
            trace, prov = float(basis_size(k, nv)), PROV_SQUARE_EQ
        else:
            trace, g_scales, g_mults = _certify_group_lp(rel, g)
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
    acc: dict[Word, float] = {}
    for i, block in enumerate(rel.blocks):
        if block.group != group:
            continue
        terms = block.poly.terms if block.poly is not None else {EMPTY_WORD: 1.0}
        diag = cert.block_scales[i] ** 2
        for u, d in zip(block.basis.words, diag):
            _add_conjugation(acc, u, terms, u, float(d))
    for j, eqb in enumerate(rel.eq_blocks):
        if eqb.group != group:
            continue
        h = cert.eq_multipliers[j]
        words = eqb.basis.words
        for r, u in enumerate(words):
            for c, v in enumerate(words):
                if h[r, c] != 0.0:
                    _add_conjugation(acc, u, eqb.poly.terms, v, float(h[r, c]))
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


SAMPLING_BUDGET = 2_000_000


def sampled_deviation(
    rel: Relaxation, cert: CtpCertificate, samples: int = 5, seed: int = 0
) -> float:
    """Max |tr(P D(y) P) - a| over random y in the feasible affine span.

    The span is {equality entries = 0, y_1 = 1}; positivity is irrelevant
    to the constant trace property, so unconstrained directions in the
    span give a sound check. The samples come from projecting Gaussian
    vectors onto the null space of the equality system, which costs one
    thin SVD of that (rows x keys) system. When it holds more than
    SAMPLING_BUDGET entries, the anchor evaluation stands in as the sample
    (the symbolic expansion is the actual proof of the identity; sampling
    guards the wiring between polynomials and entry forms). Without an
    anchor the check is skipped with a warning and 0.0 is returned; an
    anchor with a non-finite moment vector raises ValueError.
    """
    eq_rows = 1 + sum(e.size * (e.size + 1) // 2 for e in rel.eq_blocks)
    if rel.n_keys * eq_rows > SAMPLING_BUDGET:
        anchor = rel.problem.anchor
        if anchor is None:
            warnings.warn(
                f"sampled trace check skipped: the equality system has {rel.n_keys} x "
                f"{eq_rows} entries, over SAMPLING_BUDGET = {SAMPLING_BUDGET}, and the "
                "problem has no anchor"
            )
            return 0.0
        mats = [np.array([[float(v)]]) for v in anchor]
        ys = [moment_vector_from_evaluation(rel, mats, v=np.ones(1))]
        bad = np.flatnonzero(~np.isfinite(ys[0]))
        if bad.size:  # verify's max(residual, nan) would keep the residual and pass
            w = rel.keys[bad[0]]
            raise ValueError(f"the anchor gives the non-finite moment {float(ys[0][bad[0]])!r} for word {list(w)}")
    else:
        ys = sample_equality_feasible_moments(rel, samples, seed=seed)
    # tr(P D(y) P) is one linear form in y: the diagonal entry forms, weighted by P^2
    layout, psd = rel.layout, rel.forms[0]
    diag = np.flatnonzero(layout.row[psd.entry] == layout.col[psd.entry])
    d = np.concatenate(cert.block_scales)[np.searchsorted(layout.diag, psd.entry[diag])]
    trace_form = np.bincount(psd.key[diag], weights=d * d * psd.coeff[diag], minlength=rel.n_keys)
    return max((abs(float(y @ trace_form) - cert.trace_constant) for y in ys), default=0.0)


def verify(
    rel: Relaxation, cert: CtpCertificate, samples: int = 5, seed: int = 0
) -> float:
    """Residual of a certificate: symbolic expansion plus sampled traces."""
    res = symbolic_residual(rel, cert)
    if samples > 0:
        res = max(res, sampled_deviation(rel, cert, samples, seed))
    return res
