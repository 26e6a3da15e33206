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

import functools
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .free_algebra import (
    EMPTY_WORD,
    NcPolynomial,
    SymmetryMode,
    Word,
    WordBasis,
    basis_size,
    canonicalize,
    evaluate,
    evaluate_scalar,
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
    equalities. The generator stores it and the instance files carry it, but
    no step of the pipeline reads it.
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
class Block:
    """One block of the relaxation, on the basis of clique `group`.

    `poly` is None for a moment block; otherwise the block localizes an
    inequality (a psd block) or an equality (every entry must vanish).
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

    @property
    def terms(self) -> dict[Word, float]:
        """The localized polynomial's terms; a moment block localizes 1."""
        return {EMPTY_WORD: 1.0} if self.poly is None else self.poly.terms


class EntryForms(NamedTuple):
    """Block entries as linear forms in y: entry e is the sum of coeff * y[key] over its triplets.

    Triplets ascend by entry, then key; a coefficient sums its terms in term order from 0.0,
    and sums of 0.0 are dropped. `size` counts the entries, empty ones included.
    """

    entry: np.ndarray
    key: np.ndarray
    coeff: np.ndarray
    size: int

    def values(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.entry, weights=self.coeff * y[self.key], minlength=self.size)


class KeyWords(Sequence):
    """The key words as tuples, read from the rows of a key table on access."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(KeyWords(self.rows[i]))
        row = self.rows[i]
        return tuple(row[row > 0].tolist())

    def __iter__(self):
        lengths = np.count_nonzero(self.rows, axis=1).tolist()
        return (tuple(w[:n]) for w, n in zip(self.rows.tolist(), lengths))


@dataclass(eq=False, repr=False)
class Relaxation:
    """Order-k moment relaxation with shared canonical moment indices.

    Row i of `key_words` holds the letters of key i's canonical word,
    padded with 0 to 2k columns. `moment_keys[j]` holds the key of every
    entry of clique j's moment block in svec order (upper triangle,
    row-major), as the scan of `build` met them.
    """

    problem: Problem
    order: int
    mode: SymmetryMode
    decomp: object
    blocks: list[Block]
    eq_blocks: list[Block]
    key_words: np.ndarray
    moment_keys: list[np.ndarray]
    objective: dict[int, float]

    @property
    def n_groups(self) -> int:
        return len(self.decomp.cliques)

    @property
    def block_sizes(self) -> list[int]:
        return [b.size for b in self.blocks]

    @functools.cached_property
    def layout(self):
        """The svec layout (`standard_form.BlockLayout`) of the psd blocks."""
        from .standard_form import _layout

        return _layout(tuple(self.block_sizes))

    @property
    def n_keys(self) -> int:
        return len(self.key_words)

    @property
    def keys(self) -> KeyWords:
        """The key words as tuples, read from `key_words` on access."""
        return KeyWords(self.key_words)

    @functools.cached_property
    def key_index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.keys)}

    def key_of(self, w: Word) -> int:
        return self.key_index[canonicalize(tuple(w), self.mode)]

    @functools.cached_property
    def forms(self) -> tuple[EntryForms, EntryForms]:
        """(psd, eq) entry forms, on first use. psd entries are the svec positions
        of `layout` (a moment entry is one term of weight 1); eq entries run
        through the equality blocks' upper triangles, row-major, in order."""
        return _entry_forms(self)


_PIECE = 1 << 16  # (entry, term) rows that _entry_forms holds at a time


@functools.lru_cache(maxsize=64)
def _upper(s: int) -> np.ndarray:
    """Rows and columns, (2, s(s+1)/2), of the upper triangle of an s x s matrix, row-major; read-only.

    The svec order of every block: the layout, the entry forms and the
    certificates all take their triangles from here.
    """
    out = np.array(np.triu_indices(s))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def _word_tables(mcount: tuple[int, ...], k: int) -> tuple[np.ndarray, ...]:
    """The moment bases (degree <= k) of cliques of mcount letters, as numbers.

    A word with letter positions p_1 .. p_l in its clique's m sorted letters
    has the numeral sum_t p_t m^(l-t) and the basis index first[l] + numeral.
    Returns per clique first[l], m^l, the basis size, and the offsets of its
    basis in the stacked tables and of its moment keys; per stacked basis
    word, its length and numeral.
    """
    size = np.array([basis_size(k, m) for m in mcount])
    power = np.array(mcount)[:, None] ** np.arange(k + 1)
    first = np.cumsum(power, axis=1) - power
    length = np.tile(np.arange(k + 1), len(mcount)).repeat(power.ravel())
    num = np.concatenate([np.arange(s) for s in size]) - first.ravel().repeat(power.ravel())
    n_ut = size * (size + 1) // 2
    return first, power, size, np.cumsum(size) - size, np.cumsum(n_ut) - n_ut, length, num


def _entry_forms(rel: Relaxation) -> tuple[EntryForms, EntryForms]:
    """Entry forms of all psd and equality blocks, in one pass over their terms.

    Entry (r, c) of a block localizing p at clique j has the terms
    coeff * u_r* w v_c over p's words w (a moment block localizes 1). Split
    w = w1 w2, len(w1) = len(w) // 2: the word is entry (reverse(w1) u_r,
    w2 v_c) of clique j's moment block, whose rows have degree <= k, so its
    key is read off moment_keys[j] at indices computed from the numerals of
    w1, w2, u_r and v_c. A letter outside clique j raises ValueError.
    """
    cliques = rel.decomp.cliques
    first, power, msize, tab_off, key_off, length, num = _word_tables(tuple(map(len, cliques)), rel.order)
    blocks = [*rel.blocks, *rel.eq_blocks]
    terms = [b.terms for b in blocks]
    # per term: len(w1), numeral of reverse(w1), len(w2), numeral of w2
    positions = [{letter: p for p, letter in enumerate(c)} for c in cliques]
    halves: list[int] = []
    coeffs: list[float] = []
    for block, block_terms in zip(blocks, terms):
        pos, m = positions[block.group], len(cliques[block.group])
        try:
            for w in block_terms:
                h, a, b = len(w) // 2, 0, 0
                for i, letter in enumerate(w):
                    if i < h:
                        a += pos[letter] * m**i
                    else:
                        b = b * m + pos[letter]
                halves += (h, a, len(w) - h, b)
        except KeyError:
            raise ValueError(f"word {w} is not realized by any moment block; "
                             "a constraint strays outside its clique or degree bound") from None
        coeffs += block_terms.values()

    # one row per (entry, term): the entries run through the blocks in order,
    # so entry e < layout.dim is svec position e
    size = [b.size for b in blocks]
    t_count = np.array(list(map(len, terms)))
    e_blk = np.repeat(np.arange(len(blocks)), [s * (s + 1) // 2 for s in size])
    e_grp = np.array([b.group for b in blocks])[e_blk]
    e_terms = t_count[e_blk]
    ends = np.cumsum(e_terms)  # one past each entry's last row
    begins = ends - e_terms
    start = begins - (np.cumsum(t_count) - t_count)[e_blk]  # row minus term id
    # basis index of reverse(w1) u_r: first[len(w1) + len(u_r)] + numeral(reverse(w1))
    # m^len(u_r) + numeral(u_r); likewise for w2 v_c
    at = tab_off[e_grp] + np.concatenate([*map(_upper, size)], axis=1)
    flat = e_grp * power.shape[1] + length[at]
    w_len, w_num = np.fromiter(halves, np.int64, len(halves)).reshape(-1, 2, 2).T
    term_coeff = np.fromiter(coeffs, float, len(coeffs))
    moment_keys = np.concatenate(rel.moment_keys)

    def piece(e0: int, e1: int) -> tuple[np.ndarray, np.ndarray]:
        """Entry * n_keys + key and summed coefficient of the triplets of entries e0 .. e1 - 1."""
        reps, grp = e_terms[e0:e1], e_grp[e0:e1]
        term = np.arange(begins[e0], ends[e1 - 1]) - np.repeat(start[e0:e1], reps)
        index = [np.repeat(power.ravel()[flat[side, e0:e1]], reps) * w_num[side][term] for side in (0, 1)]
        for side in (0, 1):  # in place, one side at a time, to bound the temporaries
            index[side] += np.repeat(num[at[side, e0:e1]], reps)
            index[side] += first.ravel()[np.repeat(flat[side, e0:e1], reps) + w_len[side][term]]
        lo, hi = np.minimum(*index), np.maximum(*index)
        del index
        hi += np.repeat(key_off[grp], reps) - lo * (lo - 1) // 2 - lo
        hi += lo * np.repeat(msize[grp], reps)
        ident = np.repeat(np.arange(e0, e1) * rel.n_keys, reps) + moment_keys[hi]
        del lo, hi

        # sum the terms of an entry that share a key, in term order from 0.0
        order = np.argsort(ident, kind="stable")
        ident = ident[order]
        new = np.concatenate(([True], ident[1:] != ident[:-1]))
        coeff = np.bincount(np.cumsum(new) - 1, weights=term_coeff[term[order]])
        keep = coeff != 0.0
        return ident[new][keep], coeff[keep]

    # whole entries, at most _PIECE rows a piece (an entry with more is a piece of its
    # own); pieces ascend by entry, so their triplets follow each other in the outputs,
    # which have room for every row and keep the first `filled`
    entry, key = np.empty((2, ends[-1]), dtype=np.int64)
    coeff = np.empty(ends[-1])
    filled = e0 = 0
    while e0 < e_blk.size:
        e1 = max(e0 + 1, int(np.searchsorted(ends, begins[e0] + _PIECE, "right")))
        ident, sums = piece(e0, e1)
        done = filled + sums.size
        np.divmod(ident, rel.n_keys, out=(entry[filled:done], key[filled:done]))
        coeff[filled:done] = sums
        filled, e0 = done, e1
    entry, key, coeff = entry[:filled], key[:filled], coeff[:filled]
    n = int(np.searchsorted(entry, dim := rel.layout.dim))
    entry[n:] -= dim
    return EntryForms(entry[:n], key[:n], coeff[:n], dim), EntryForms(entry[n:], key[n:], coeff[n:], e_blk.size - dim)


def _first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of a 1-D array in order of first occurrence.

    Returns where each number first occurs and the number of every value.
    """
    _, at, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(at)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return at[order], rank[inverse]


@functools.lru_cache(maxsize=32)
def _entry_words(m: int, k: int, mode: SymmetryMode) -> tuple[np.ndarray, np.ndarray]:
    """The canonical words of the moment entries of a clique of m letters at order k.

    Entry (r, c) holds the word reverse(u_r) v_c. With letter positions as
    base-m digits, the numerals of that word, of its reverse and of their
    rotations follow from the numerals of u_r and v_c; all have one length,
    so the least numeral is the graded-lex least word of the class. Returns
    the distinct canonical words in the order the svec scan meets them, as
    1-based letter positions padded with 0 to 2k columns (at least one, so
    that rows compare as bytes), and the row of each entry.
    """
    _, _, (size,), _, _, length, num = _word_tables((m,), k)
    # numeral of each basis word read backwards
    t = np.arange(k)
    shift = length[:, None] - 1 - t
    rev = np.where(shift >= 0, num[:, None] // m ** np.maximum(shift, 0) % m * m**t, 0).sum(axis=1)
    iu, ju = _upper(size)
    span = length[iu] + length[ju]
    # numerals of the entry's word and of its reverse
    both = [rev[iu] * m ** length[ju] + num[ju], rev[ju] * m ** length[iu] + num[iu]]
    best = np.minimum(*both)
    if mode is SymmetryMode.STAR_CYCLIC:
        for s in range(1, 2 * k):
            p = m ** np.maximum(span - s, 0)  # a word no longer than s stays as it is
            for w in both:
                np.minimum(best, w % p * m**s + w // p, out=best)
    power = m ** np.arange(2 * k + 1)
    first = np.cumsum(power) - power  # graded numbering: words of length l start at first[l]
    at, row = _first_seen(first[span] + best)
    span, best = span[at], best[at]
    t = np.arange(max(2 * k, 1))
    shift = span[:, None] - 1 - t
    return np.where(shift >= 0, best[:, None] // m ** np.maximum(shift, 0) % m + 1, 0), row


def build(
    problem: Problem,
    order: int,
    mode: SymmetryMode = SymmetryMode.STAR_ONLY,
    decomp=None,
) -> Relaxation:
    """Construct the order-k relaxation of a problem.

    Moment indices are numbered in first-encounter order of a scan over the
    moment blocks (upper triangles, row-major, cliques in order); the scan
    starts at the empty word, which so owns index 0. `moment_keys` records
    the key of every moment entry. The canonical word of an entry depends
    only on the clique's size, so each clique maps the table of
    `_entry_words` through its letters, and one `np.unique` over the rows
    of all cliques (compared as bytes, so no letter count can overflow)
    numbers them. Localizing and equality entries reference these indices;
    every word of degree <= 2k supported on a clique factors through that
    clique's moment block, so the scan realizes every index the relaxation
    needs.
    """
    kmin = minimal_order(problem)
    if order < kmin:
        raise ValueError(f"order {order} is below the minimal order {kmin}")
    if decomp is None:
        from .sparsity import decompose

        decomp = decompose(problem)

    blocks: list[Block] = []
    eq_blocks: list[Block] = []
    for j, letters in enumerate(decomp.cliques):
        blocks.append(Block(group=j, basis=WordBasis(letters, order)))
        for gi in decomp.ineq_groups[j]:
            g = problem.inequalities[gi]
            kg = order - half_degree(g)
            blocks.append(Block(group=j, basis=WordBasis(letters, kg), poly=g))
        for hi in decomp.eq_groups[j]:
            h = problem.equalities[hi]
            kh = order - half_degree(h)
            eq_blocks.append(Block(group=j, basis=WordBasis(letters, kh), poly=h))

    # each clique's distinct entry words, then the objective's canonical words, one row each
    width, dtype = max(2 * order, 1), np.min_scalar_type(problem.n)
    tables = [_entry_words(len(c), order, mode) for c in decomp.cliques]
    terms = problem.objective.terms
    words = [canonicalize(w, mode) for w in terms]
    rows = np.concatenate([
        *(np.array((0, *c), dtype)[table] for c, (table, _) in zip(decomp.cliques, tables)),
        np.array([w + (0,) * (width - len(w)) for w in words], dtype).reshape(len(words), width),
    ])
    at, key = _first_seen(rows.view(np.dtype((np.void, rows.itemsize * width))).ravel())
    n_keys = int(np.searchsorted(at, len(rows) - len(terms)))  # the scan's keys come first
    moment_keys, start = [], 0
    for table, row in tables:
        moment_keys.append(key[start:][row])
        start += len(table)

    objective: dict[int, float] = {}
    for (w, c), k in zip(terms.items(), key[start:].tolist()):
        if k >= n_keys:
            raise ValueError(f"word {w} has no moment index; its degree exceeds the relaxation "
                             "bound or it lies outside every clique")
        objective[k] = objective.get(k, 0.0) + c
    return Relaxation(
        problem=problem,
        order=order,
        mode=mode,
        decomp=decomp,
        blocks=blocks,
        eq_blocks=eq_blocks,
        key_words=rows[at[:n_keys]],
        moment_keys=moment_keys,
        objective={k: c for k, c in objective.items() if c != 0.0},
    )


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
    coordinates, computed for all keys at once, and the constraints are
    checked on the coordinates.
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

    point = [float(m[0, 0]) for m in ms] if dim == 1 else None
    for i, g in enumerate(rel.problem.inequalities):
        lam = evaluate_scalar(g, point) if point else float(np.linalg.eigvalsh(evaluate(g, ms)).min())
        if lam < -feas_tol:
            warnings.warn(f"inequality {i} violated by {-lam:.3g} at the given tuple")
    for i, h in enumerate(rel.problem.equalities):
        dev = abs(evaluate_scalar(h, point)) if point else float(np.abs(evaluate(h, ms)).max())
        if dev > feas_tol:
            warnings.warn(f"equality {i} off by {dev:.3g} at the given tuple")

    if point:
        # at a scalar point y_w is the product of w's coordinates, taken left
        # to right: word_value's value, but an underflowed product keeps its
        # sign (-0.0 where matmul gives +0.0); letter 0 pads words with a 1.0
        vals = np.array([1.0] + point)[rel.key_words]
        y = np.ones(rel.n_keys)
        for column in vals.T:
            y *= column
        return y
    y = np.empty(rel.n_keys)
    if vv is not None:
        for i, w in enumerate(rel.keys):
            y[i] = float(vv @ word_value(w, ms, dim) @ vv)
    else:
        for i, w in enumerate(rel.keys):
            y[i] = float(np.trace(word_value(w, ms, dim))) / dim
    return y
