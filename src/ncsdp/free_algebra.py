"""Words over noncommuting letters and sparse polynomial arithmetic.

Letters are 1-based integer indices. A word is a tuple of letters and the
empty tuple is the multiplicative identity. All orderings are graded
lexicographic: shorter words come first, equal lengths are compared
letterwise. The involution reverses a word; in trace mode words are
additionally identified up to cyclic rotation.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Iterable, Mapping, Sequence

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

# Hard cap on basis sizes so a typo'd degree fails fast instead of thrashing.
DEFAULT_INDEX_LIMIT = 5_000_000


class CapacityError(Exception):
    """A requested word basis exceeds the configured index limit."""


class SymmetryMode(Enum):
    """Canonicalization rule for moment indices.

    STAR_ONLY identifies a word with its reverse (eigenvalue hierarchy).
    STAR_CYCLIC additionally identifies cyclic rotations (trace hierarchy).
    """

    STAR_ONLY = "eig"
    STAR_CYCLIC = "trace"


def basis_size(d: int, n: int) -> int:
    """Number of words of degree <= d over n letters."""
    if d < 0:
        return 0
    return sum(n**i for i in range(d + 1))


def canonicalize(w: Word, mode: SymmetryMode = SymmetryMode.STAR_ONLY) -> Word:
    """Graded-lex least representative of the symmetry class of w."""
    rev = w[::-1]
    if mode is SymmetryMode.STAR_ONLY:
        return w if w <= rev else rev
    best = w if w <= rev else rev
    for base in (w, rev):
        for s in range(1, len(base)):
            rot = base[s:] + base[:s]
            if rot < best:
                best = rot
    return best


class WordBasis:
    """All words of degree <= degree_bound over a letter set, graded-lex sorted."""

    __slots__ = ("words",)

    def __init__(
        self,
        letters: Iterable[int],
        degree_bound: int,
        index_limit: int = DEFAULT_INDEX_LIMIT,
    ):
        lets = tuple(sorted(set(int(j) for j in letters)))
        if not lets:
            raise ValueError("word basis needs at least one letter")
        if lets[0] < 1:
            raise ValueError("letters are 1-based indices")
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        size = basis_size(degree_bound, len(lets))
        if size > index_limit:
            raise CapacityError(
                f"basis of {size} words over {len(lets)} letters exceeds "
                f"the index limit {index_limit}"
            )
        words: list[Word] = [EMPTY_WORD]
        for r in range(1, degree_bound + 1):
            words.extend(itertools.product(lets, repeat=r))
        self.words = words

    def __len__(self) -> int:
        return len(self.words)


class NcPolynomial:
    """Sparse real polynomial in n noncommuting letters.

    Terms map words to nonzero coefficients. Addition and multiplication
    follow the free algebra; star reverses every word.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Word, float] | None = None):
        if n < 1:
            raise ValueError("need at least one letter")
        clean: dict[Word, float] = {}
        if terms:
            for w, c in terms.items():
                w = tuple(w)
                if any(j < 1 or j > n for j in w):
                    raise ValueError(f"letter out of range in word {w}")
                c = float(c)
                if c != 0.0:
                    clean[w] = c
        self.n = n
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "NcPolynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: float) -> "NcPolynomial":
        return cls(n, {EMPTY_WORD: value})

    @classmethod
    def letter(cls, n: int, j: int) -> "NcPolynomial":
        return cls(n, {(j,): 1.0})

    def coeff(self, w: Word) -> float:
        return self.terms.get(tuple(w), 0.0)

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def support_letters(self) -> set[int]:
        out: set[int] = set()
        for w in self.terms:
            out.update(w)
        return out

    def star(self) -> "NcPolynomial":
        return NcPolynomial(self.n, {w[::-1]: c for w, c in self.terms.items()})

    def is_symmetric(self, tol: float = 0.0) -> bool:
        return all(
            abs(c - self.terms.get(w[::-1], 0.0)) <= tol for w, c in self.terms.items()
        )

    def symmetrized(self) -> "NcPolynomial":
        out: dict[Word, float] = {}
        for w, c in self.terms.items():
            out[w] = out.get(w, 0.0) + 0.5 * c
            rw = w[::-1]
            out[rw] = out.get(rw, 0.0) + 0.5 * c
        return NcPolynomial(self.n, out)

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("letter counts differ")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return NcPolynomial(self.n, out)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NcPolynomial):
            if other.n != self.n:
                raise ValueError("letter counts differ")
            out: dict[Word, float] = {}
            for u, cu in self.terms.items():
                for v, cv in other.terms.items():
                    w = u + v
                    out[w] = out.get(w, 0.0) + cu * cv
            return NcPolynomial(self.n, out)
        return NcPolynomial(self.n, {w: c * float(other) for w, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return f"NcPolynomial({self.n}, 0)"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w))[:6]:
            mono = "*".join(f"X{j}" for j in w) if w else "1"
            parts.append(f"{self.terms[w]:+g} {mono}")
        tail = " ..." if len(self.terms) > 6 else ""
        return f"NcPolynomial({self.n}, {' '.join(parts)}{tail})"


def evaluate_scalar(p: NcPolynomial, x: Sequence[float]) -> float:
    """Commutative evaluation of p at a scalar point, as at 1 x 1 matrices.

    Each word's product is taken left to right and the terms are summed in
    order. The sum is symmetrized as (a + a) / 2, as a matrix value would be,
    so that a sum past half the float range still becomes inf.
    """
    if len(x) != p.n:
        raise ValueError(f"expected {p.n} coordinates, got {len(x)}")
    acc = 0.0
    for w, c in p.terms.items():
        acc += c * math.prod(x[j - 1] for j in w)
    return (acc + acc) / 2.0
