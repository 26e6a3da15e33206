"""Moment relaxations of noncommutative polynomial optimization problems.

An instance asks for the least eigenvalue (or least normalized trace) of a
symmetric polynomial over tuples of symmetric matrices subject to
polynomial inequality and equality constraints. The order-k relaxation is
a semidefinite program over a truncated moment vector y indexed by
canonical words: one psd moment block per variable clique, one psd
localizing block per inequality, and entrywise-zero blocks for equalities.
Moment indices are shared globally across cliques, so overlapping cliques
are coupled through the common entries rather than through extra rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .free_algebra import (
    DEFAULT_INDEX_LIMIT,
    EMPTY_WORD,
    NcPolynomial,
    SymmetryMode,
    Word,
    WordBasis,
    canonicalize,
    evaluate,
    word_value,
)


@dataclass
class Problem:
    """A noncommutative polynomial optimization instance.

    Minimize the least eigenvalue (or normalized trace) of `objective` over
    symmetric matrix tuples X with g(X) psd for every inequality g and
    h(X) = 0 for every equality h. The unit inequality is implicit. An
    optional clique cover restricts every constraint and every objective
    monomial to one clique; `anchor` is a scalar point known to satisfy the
    equalities, kept for diagnostics when available.
    """

    n: int
    objective: NcPolynomial
    inequalities: list[NcPolynomial] = field(default_factory=list)
    equalities: list[NcPolynomial] = field(default_factory=list)
    cliques: list[tuple[int, ...]] | None = None
    anchor: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one letter")
        for label, polys in (
            ("objective", [self.objective]),
            ("inequality", self.inequalities),
            ("equality", self.equalities),
        ):
            for i, p in enumerate(polys):
                if p.n != self.n:
                    raise ValueError(f"{label} {i} uses a different letter count")
                if not p.is_symmetric(tol=1e-10):
                    raise ValueError(f"{label} {i} is not symmetric")
        if self.cliques is not None:
            cleaned = []
            for c in self.cliques:
                lets = tuple(sorted(set(int(j) for j in c)))
                if not lets or lets[0] < 1 or lets[-1] > self.n:
                    raise ValueError(f"clique {c} has letters outside 1..{self.n}")
                cleaned.append(lets)
            self.cliques = cleaned
        if self.anchor is not None:
            self.anchor = np.asarray(self.anchor, dtype=float)
            if self.anchor.shape != (self.n,):
                raise ValueError("anchor must have one coordinate per letter")


def half_degree(p: NcPolynomial) -> int:
    """Ceiling of half the degree; the localizing order offset of p."""
    return (p.degree + 1) // 2


def minimal_order(problem: Problem) -> int:
    """Least relaxation order admitting every constraint and the objective."""
    k = half_degree(problem.objective)
    for g in problem.inequalities:
        k = max(k, half_degree(g))
    for h in problem.equalities:
        k = max(k, half_degree(h))
    return k


@dataclass(frozen=True)
class PsdBlock:
    """One psd block of the relaxation.

    `poly` is None for a moment block and the localized inequality
    otherwise. `group` indexes the clique the block belongs to.
    """

    group: int
    basis: WordBasis
    poly: NcPolynomial | None = None

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def is_moment(self) -> bool:
        return self.poly is None


@dataclass(frozen=True)
class EqBlock:
    """Localizing block of an equality constraint; every entry must vanish."""

    group: int
    basis: WordBasis
    poly: NcPolynomial

    @property
    def size(self) -> int:
        return len(self.basis)


class Relaxation:
    """Order-k moment relaxation with shared canonical moment indices."""

    def __init__(
        self,
        problem: Problem,
        order: int,
        mode: SymmetryMode,
        decomp,
        blocks: list[PsdBlock],
        eq_blocks: list[EqBlock],
        keys: list[Word],
        key_index: dict[Word, int],
        objective: dict[int, float],
    ):
        self.problem = problem
        self.order = order
        self.mode = mode
        self.decomp = decomp
        self.blocks = blocks
        self.eq_blocks = eq_blocks
        self.keys = keys
        self.key_index = key_index
        self.objective = objective

    @property
    def n_groups(self) -> int:
        return len(self.decomp.cliques)

    @property
    def block_sizes(self) -> list[int]:
        return [b.size for b in self.blocks]

    def key_of(self, w: Word) -> int:
        return self.key_index[canonicalize(tuple(w), self.mode)]

    def moment_entry_key(self, block_index: int, r: int, c: int) -> int:
        block = self.blocks[block_index]
        if not block.is_moment:
            raise ValueError("not a moment block")
        words = block.basis.words
        return self.key_index[canonicalize(words[r][::-1] + words[c], self.mode)]

    def entry_form(self, block_index: int, r: int, c: int) -> dict[int, float]:
        """Linear form over moment indices for one psd block entry."""
        block = self.blocks[block_index]
        words = block.basis.words
        u_star, v = words[r][::-1], words[c]
        if block.is_moment:
            return {self.key_index[canonicalize(u_star + v, self.mode)]: 1.0}
        return self._localized_form(u_star, v, block.poly)

    def eq_entry_form(self, eq_index: int, r: int, c: int) -> dict[int, float]:
        """Linear form over moment indices for one equality block entry."""
        eb = self.eq_blocks[eq_index]
        words = eb.basis.words
        return self._localized_form(words[r][::-1], words[c], eb.poly)

    def _localized_form(self, u_star: Word, v: Word, poly: NcPolynomial) -> dict[int, float]:
        out: dict[int, float] = {}
        mode = self.mode
        index = self.key_index
        for w, coeff in poly.terms.items():
            try:
                key = index[canonicalize(u_star + w + v, mode)]
            except KeyError:
                raise ValueError(
                    f"word {u_star + w + v} is not realized by any moment block; "
                    "a constraint strays outside its clique or degree bound"
                ) from None
            out[key] = out.get(key, 0.0) + coeff
        return {k: c for k, c in out.items() if c != 0.0}

    def block_matrix(self, block_index: int, y: np.ndarray) -> np.ndarray:
        """Evaluate one psd block at a moment vector."""
        s = self.blocks[block_index].size
        out = np.empty((s, s))
        for r in range(s):
            for c in range(r, s):
                val = sum(co * y[k] for k, co in self.entry_form(block_index, r, c).items())
                out[r, c] = out[c, r] = val
        return out

    def eq_block_matrix(self, eq_index: int, y: np.ndarray) -> np.ndarray:
        s = self.eq_blocks[eq_index].size
        out = np.empty((s, s))
        for r in range(s):
            for c in range(r, s):
                val = sum(co * y[k] for k, co in self.eq_entry_form(eq_index, r, c).items())
                out[r, c] = out[c, r] = val
        return out

    def objective_value(self, y: np.ndarray) -> float:
        return float(sum(c * y[k] for k, c in self.objective.items()))


def riesz(p: NcPolynomial, key_index: dict[Word, int], mode: SymmetryMode) -> dict[int, float]:
    """Linear form of the Riesz functional of p over canonical moment indices."""
    out: dict[int, float] = {}
    for w, c in p.terms.items():
        try:
            key = key_index[canonicalize(w, mode)]
        except KeyError:
            raise ValueError(
                f"word {w} has no moment index; its degree exceeds the relaxation "
                "bound or it lies outside every clique"
            ) from None
        out[key] = out.get(key, 0.0) + c
    return {k: c for k, c in out.items() if c != 0.0}


def build(
    problem: Problem,
    order: int,
    mode: SymmetryMode = SymmetryMode.STAR_ONLY,
    decomp=None,
    index_limit: int = DEFAULT_INDEX_LIMIT,
) -> Relaxation:
    """Construct the order-k relaxation of a problem.

    Moment indices are assigned in first-encounter order while scanning the
    moment blocks (upper triangles, row-major, cliques in order), then the
    index of the empty word is swapped to position 0. Localizing and
    equality entries reference these indices; every word of degree <= 2k
    supported on a clique factors through that clique's moment block, so
    the scan realizes every index the relaxation needs.
    """
    kmin = minimal_order(problem)
    if order < kmin:
        raise ValueError(f"order {order} is below the minimal order {kmin}")
    if decomp is None:
        from .sparsity import decompose

        decomp = decompose(problem)

    star_only = mode is SymmetryMode.STAR_ONLY
    keys: list[Word] = []
    key_index: dict[Word, int] = {}
    blocks: list[PsdBlock] = []
    eq_blocks: list[EqBlock] = []

    for j, letters in enumerate(decomp.cliques):
        mbasis = WordBasis(letters, order, index_limit)
        words = mbasis.words
        nwords = len(words)
        for r in range(nwords):
            u_star = words[r][::-1]
            if star_only:
                for c in range(r, nwords):
                    w = u_star + words[c]
                    rw = w[::-1]
                    if rw < w:
                        w = rw
                    if w not in key_index:
                        key_index[w] = len(keys)
                        keys.append(w)
            else:
                for c in range(r, nwords):
                    w = canonicalize(u_star + words[c], mode)
                    if w not in key_index:
                        key_index[w] = len(keys)
                        keys.append(w)
        blocks.append(PsdBlock(group=j, basis=mbasis))
        for gi in decomp.ineq_groups[j]:
            g = problem.inequalities[gi]
            kg = order - half_degree(g)
            blocks.append(PsdBlock(group=j, basis=WordBasis(letters, kg, index_limit), poly=g))
        for hi in decomp.eq_groups[j]:
            h = problem.equalities[hi]
            kh = order - half_degree(h)
            eq_blocks.append(EqBlock(group=j, basis=WordBasis(letters, kh, index_limit), poly=h))

    # normalize: the empty word owns index 0
    zero_pos = key_index[EMPTY_WORD]
    if zero_pos != 0:
        other = keys[0]
        keys[0], keys[zero_pos] = EMPTY_WORD, other
        key_index[EMPTY_WORD], key_index[other] = 0, zero_pos

    rel = Relaxation(
        problem=problem,
        order=order,
        mode=mode,
        decomp=decomp,
        blocks=blocks,
        eq_blocks=eq_blocks,
        keys=keys,
        key_index=key_index,
        objective={},
    )
    rel.objective = riesz(problem.objective, key_index, mode)
    return rel


def moment_vector_from_evaluation(
    rel: Relaxation,
    mats: Sequence[np.ndarray],
    v: np.ndarray | None = None,
    feas_tol: float = 1e-8,
) -> np.ndarray:
    """Moment vector of an evaluation of the problem variables.

    In eigenvalue mode y_w = <v, w(A) v> for a unit vector v; in trace mode
    y_w is the normalized trace of w(A). Infeasibility of A beyond feas_tol
    only warns, so deliberately infeasible probes remain possible. At a
    scalar point (1 x 1 matrices) both modes give the product of the
    coordinates, computed for all keys at once.
    """
    ms = [np.asarray(m, dtype=float) for m in mats]
    if len(ms) != rel.problem.n:
        raise ValueError(f"expected {rel.problem.n} matrices, got {len(ms)}")
    dim = ms[0].shape[0]
    for m in ms:
        if m.shape != (dim, dim):
            raise ValueError("matrices must be square and of equal size")

    vv: np.ndarray | None = None
    if rel.mode is SymmetryMode.STAR_ONLY:
        if v is None:
            raise ValueError("eigenvalue mode needs a vector v")
        vv = np.asarray(v, dtype=float)
        if vv.shape != (dim,):
            raise ValueError("v must match the matrix size")
        nrm = float(np.linalg.norm(vv))
        if nrm == 0.0:
            raise ValueError("v must be nonzero")
        vv = vv / nrm

    for i, g in enumerate(rel.problem.inequalities):
        lam = float(np.linalg.eigvalsh(evaluate(g, ms)).min())
        if lam < -feas_tol:
            warnings.warn(f"inequality {i} violated by {-lam:.3g} at the given tuple")
    for i, h in enumerate(rel.problem.equalities):
        dev = float(np.abs(evaluate(h, ms)).max())
        if dev > feas_tol:
            warnings.warn(f"equality {i} off by {dev:.3g} at the given tuple")

    if dim == 1:
        # at a scalar point y_w is the product of w's coordinates, taken left
        # to right as word_value does; letter 0 pads every word with a 1.0
        deg = max(map(len, rel.keys), default=0)
        letters = np.array([w + (0,) * (deg - len(w)) for w in rel.keys], dtype=np.intp).reshape(len(rel.keys), deg)
        vals = np.array([1.0] + [float(m[0, 0]) for m in ms])[letters]
        y = np.ones(len(rel.keys))
        for j in range(deg):
            y *= vals[:, j]
        return y
    y = np.empty(len(rel.keys))
    if vv is not None:
        for i, w in enumerate(rel.keys):
            y[i] = float(vv @ word_value(w, ms, dim) @ vv)
    else:
        for i, w in enumerate(rel.keys):
            y[i] = float(np.trace(word_value(w, ms, dim))) / dim
    return y


def equality_system(rel: Relaxation) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix E and rhs e of {all equality entries = 0, y_1 = 1}."""
    rows: list[dict[int, float]] = []
    for ei, eb in enumerate(rel.eq_blocks):
        for r in range(eb.size):
            for c in range(r, eb.size):
                rows.append(rel.eq_entry_form(ei, r, c))
    E = np.zeros((len(rows) + 1, len(rel.keys)))
    for i, form in enumerate(rows):
        for k, co in form.items():
            E[i, k] = co
    E[len(rows), 0] = 1.0
    e = np.zeros(len(rows) + 1)
    e[len(rows)] = 1.0
    return E, e


def sample_equality_feasible_moments(
    rel: Relaxation,
    count: int = 5,
    seed: int = 0,
    scale: float = 1.0,
) -> list[np.ndarray]:
    """Random moment vectors satisfying every equality entry and y_1 = 1.

    The samples live on the affine solution set of the equality system; no
    positivity is imposed, which is exactly the premise of the constant
    trace property.

    One thin SVD of E gives the min-norm solution y0 and an orthonormal
    basis R of the row space. Each sample is y0 + g - R^T (R g) for
    g ~ N(0, scale^2 I): the projection of g onto the null space of E,
    which never has to be formed. That costs O(rank * keys) memory where a
    null-space basis would cost O(keys^2).
    """
    E, e = equality_system(rel)
    u, sv, vt = np.linalg.svd(E, full_matrices=False)
    rank = int((sv > 1e-10 * sv[0]).sum())
    row_basis = vt[:rank]
    y0 = row_basis.T @ ((u[:, :rank].T @ e) / sv[:rank])
    if float(np.linalg.norm(E @ y0 - e)) > 1e-8 * (1.0 + float(np.linalg.norm(e))):
        raise ValueError("equality system is inconsistent")
    rng = np.random.Generator(np.random.Philox(seed))
    g = scale * rng.standard_normal((count, E.shape[1]))
    return list(y0 + g - (g @ row_basis.T) @ row_basis)
