"""Correlative sparsity: clique covers and per-clique relaxations.

The co-occurrence graph links two letters when they appear together in an
objective monomial or in the support of a constraint. A greedy minimum
degree elimination gives cliques of a chordal extension; each constraint
is then assigned to the lowest-index clique containing its support. A
problem without a clique list is treated as a single clique on all
letters, so the dense path is the one-clique special case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relaxation import Problem


class CliqueAssignmentError(Exception):
    """A constraint or objective monomial fits inside no clique."""


@dataclass(frozen=True)
class CliqueDecomposition:
    """Clique cover plus the constraint indices assigned to each clique."""

    cliques: tuple[tuple[int, ...], ...]
    ineq_groups: tuple[tuple[int, ...], ...]
    eq_groups: tuple[tuple[int, ...], ...]

    @property
    def n_groups(self) -> int:
        return len(self.cliques)


def csp_graph(problem: Problem) -> dict[int, set[int]]:
    """Adjacency of the co-occurrence graph on letters 1..n."""
    adj: dict[int, set[int]] = {i: set() for i in range(1, problem.n + 1)}

    def link(letters: set[int]) -> None:
        lets = sorted(letters)
        for a in lets:
            for b in lets:
                if a != b:
                    adj[a].add(b)

    for w in problem.objective.terms:
        link(set(w))
    for g in problem.inequalities:
        link(g.support_letters())
    for h in problem.equalities:
        link(h.support_letters())
    return adj


def chordal_cliques(adj: dict[int, set[int]], n: int) -> list[tuple[int, ...]]:
    """Cliques of a chordal extension via greedy minimum-degree elimination.

    Returns the elimination neighborhoods with contained cliques merged
    away, sorted lexicographically. Every edge of the input graph is
    covered by some returned clique.
    """
    work = {i: set(adj.get(i, ())) for i in range(1, n + 1)}
    remaining = set(range(1, n + 1))
    raw: list[tuple[int, ...]] = []
    while remaining:
        v = min(remaining, key=lambda i: (len(work[i] & remaining), i))
        nbrs = work[v] & remaining
        raw.append(tuple(sorted({v} | nbrs)))
        for a in nbrs:
            work[a] |= nbrs - {a}
            work[a].discard(v)
        remaining.discard(v)
    raw.sort(key=lambda c: (-len(c), c))
    kept: list[tuple[int, ...]] = []
    kept_sets: list[set[int]] = []
    for c in raw:
        cs = set(c)
        if not any(cs <= k for k in kept_sets):
            kept.append(c)
            kept_sets.append(cs)
    kept.sort()
    return kept


def partition_constraints(
    problem: Problem, cliques: list[tuple[int, ...]]
) -> CliqueDecomposition:
    """Assign every constraint to the lowest-index clique containing it.

    Objective monomials must also fit clique-wise; a constraint or monomial
    spanning several cliques raises CliqueAssignmentError.
    """
    sets = [set(c) for c in cliques]

    def find(letters: set[int], what: str) -> int:
        for j, s in enumerate(sets):
            if letters <= s:
                return j
        raise CliqueAssignmentError(f"{what} with letters {sorted(letters)} fits in no clique")

    ineq_groups: list[list[int]] = [[] for _ in cliques]
    eq_groups: list[list[int]] = [[] for _ in cliques]
    for i, g in enumerate(problem.inequalities):
        ineq_groups[find(g.support_letters(), f"inequality {i}")].append(i)
    for i, h in enumerate(problem.equalities):
        eq_groups[find(h.support_letters(), f"equality {i}")].append(i)
    for w in problem.objective.terms:
        if w:
            find(set(w), f"objective monomial {w}")
    return CliqueDecomposition(
        cliques=tuple(tuple(c) for c in cliques),
        ineq_groups=tuple(tuple(g) for g in ineq_groups),
        eq_groups=tuple(tuple(g) for g in eq_groups),
    )


def dense_decomposition(problem: Problem) -> CliqueDecomposition:
    """Single clique on all letters, ignoring any clique structure."""
    full = tuple(range(1, problem.n + 1))
    return CliqueDecomposition(
        cliques=(full,),
        ineq_groups=(tuple(range(len(problem.inequalities))),),
        eq_groups=(tuple(range(len(problem.equalities))),),
    )


def decompose(problem: Problem, detect: bool = False) -> CliqueDecomposition:
    """Clique decomposition of a problem.

    An explicit clique list wins; otherwise detection runs only on request,
    and the fallback is the single clique on all letters.
    """
    if problem.cliques is not None:
        return partition_constraints(problem, list(problem.cliques))
    if detect:
        cliques = chordal_cliques(csp_graph(problem), problem.n)
        return partition_constraints(problem, cliques)
    return dense_decomposition(problem)

