"""Random instance generator with guaranteed-feasible anchor points.

Every generated problem carries a scalar anchor inside its constraint set:
equality constraints are built to vanish at the anchor, so the feasible set
is provably nonempty and every relaxation value is finite. Objectives are
random symmetric quadratics; constraint sets are the unit ball, the
polydisc, or a chain of overlapping clique balls.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.random import Generator, Philox

from .free_algebra import EMPTY_WORD, NcPolynomial, Word, WordBasis
from .relaxation import Problem


def _rng(seed: int) -> Generator:
    return Generator(Philox(seed))


def default_equality_count(n: int, kind: str) -> int:
    return math.ceil(n / 4) if kind == "ball" else math.ceil(n / 7)


def ball_inequality(n: int, letters: tuple[int, ...] | None = None) -> NcPolynomial:
    letters = letters if letters is not None else tuple(range(1, n + 1))
    return NcPolynomial(n, {EMPTY_WORD: 1.0, **{(j, j): -1.0 for j in letters}})


def polydisc_inequalities(n: int) -> list[NcPolynomial]:
    return [NcPolynomial(n, {EMPTY_WORD: 1.0 / n, (j, j): -1.0}) for j in range(1, n + 1)]


def random_symmetric_quadratic(
    n: int, letters: tuple[int, ...], rng: Generator
) -> NcPolynomial:
    """(1/2) sum over degree <= 2 words of a uniform coefficient on w + w*."""
    terms: dict[Word, float] = {}
    for w in WordBasis(letters, 2).words:
        cw = float(rng.uniform(-1.0, 1.0))
        for word in (w, w[::-1]):
            terms[word] = terms.get(word, 0.0) + 0.5 * cw
    return NcPolynomial(n, {w: c for w, c in terms.items() if c != 0.0})


def random_vanishing_equality(
    n: int, letters: tuple[int, ...], anchor: np.ndarray, rng: Generator
) -> NcPolynomial:
    """Random symmetric quadratic whose scalar evaluation at the anchor is 0.

    The constant coefficient is chosen last to cancel the anchor value of
    the random part, which keeps the anchor feasible for the whole problem.
    """
    terms: dict[Word, float] = {}
    value = 0.0
    for w in WordBasis(letters, 2).words:
        if w == EMPTY_WORD:
            continue
        cw = float(rng.uniform(-1.0, 1.0))
        value += cw * math.prod(anchor[j - 1] for j in w)
        for word in (w, w[::-1]):
            terms[word] = terms.get(word, 0.0) + 0.5 * cw
    terms[EMPTY_WORD] = -value
    return NcPolynomial(n, terms)


def _ball_anchor(n: int, rng: Generator) -> np.ndarray:
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform(0.0, 1.0) ** (1.0 / n)


def gen_dense(n: int, kind: str = "ball", l: int | None = None, seed: int = 0) -> Problem:
    """Random dense instance on the ball or the polydisc.

    l counts the equality constraints (defaults scale with n); all of them
    vanish at the sampled anchor, which is stored on the problem.
    """
    if kind not in ("ball", "polydisc"):
        raise ValueError(f"unknown dense instance kind {kind!r}")
    rng = _rng(seed)
    letters = tuple(range(1, n + 1))
    if l is None:
        l = default_equality_count(n, kind)
    objective = random_symmetric_quadratic(n, letters, rng)
    if kind == "ball":
        anchor = _ball_anchor(n, rng)
        ineqs = [ball_inequality(n)]
    else:
        bound = 1.0 / math.sqrt(n)
        anchor = rng.uniform(-bound, bound, size=n)
        ineqs = polydisc_inequalities(n)
    eqs = [random_vanishing_equality(n, letters, anchor, rng) for _ in range(l)]
    return Problem(
        n=n,
        objective=objective,
        inequalities=ineqs,
        equalities=eqs,
        anchor=anchor,
    )


def chain_cliques(n: int, u: int) -> tuple[tuple[int, ...], ...]:
    """Overlapping clique chain: clique q covers letters (q-1)u+1 .. qu+1.

    The literal pattern runs one letter past n whenever u divides n, so
    cliques are clamped to the letter range and a trailing clique contained
    in its predecessor is dropped (with a warning).
    """
    if not 1 <= u <= n:
        raise ValueError("clique width must lie in [1, n]")
    p = n // u + 1
    cliques: list[tuple[int, ...]] = []
    clamped = False
    for q in range(1, p + 1):
        lo = (q - 1) * u + 1
        hi = q * u + 1
        if lo > n:
            clamped = True
            continue
        if hi > n:
            clamped = True
            hi = n
        letters = tuple(range(lo, hi + 1))
        if cliques and set(letters) <= set(cliques[-1]):
            clamped = True
            continue
        cliques.append(letters)
    if clamped:
        warnings.warn(
            f"clique chain for n={n}, u={u} clamped to the letter range "
            f"({len(cliques)} cliques kept)",
            stacklevel=2,
        )
    return tuple(cliques)


def gen_sparse(n: int, u: int, l: int | None = None, seed: int = 0) -> Problem:
    """Random instance on a chain of overlapping clique balls.

    Each clique carries its own ball constraint and its own random
    quadratic objective summand; equality constraints are spread over the
    cliques as evenly as possible. The anchor is sampled from the box
    inscribed in the intersection of the clique balls.
    """
    rng = _rng(seed)
    cliques = chain_cliques(n, u)
    p = len(cliques)
    if l is None:
        l = default_equality_count(n, "sparse")

    max_size = np.ones(n)
    for letters in cliques:
        for j in letters:
            max_size[j - 1] = max(max_size[j - 1], len(letters))
    bounds = 1.0 / np.sqrt(max_size)
    anchor = rng.uniform(-bounds, bounds)

    objective = NcPolynomial.zero(n)
    for letters in cliques:
        objective = objective + random_symmetric_quadratic(n, letters, rng)
    ineqs = [ball_inequality(n, letters) for letters in cliques]

    base, extra = divmod(l, p)
    eqs: list[NcPolynomial] = []
    for q, letters in enumerate(cliques):
        count = base + (1 if q < extra else 0)
        for _ in range(count):
            eqs.append(random_vanishing_equality(n, letters, anchor, rng))

    return Problem(
        n=n,
        objective=objective,
        inequalities=ineqs,
        equalities=eqs,
        cliques=cliques,
        anchor=anchor,
    )
