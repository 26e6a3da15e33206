"""Dense two-phase primal simplex for small equality-form linear programs.

minimize c.x subject to A x = b and per-variable lower bounds, where a
lower bound of -inf marks a free variable. Finite bounds are shifted out
and free variables are split into differences of nonnegatives, giving the
standard form that the tableau works on. Bland's rule is used throughout,
so cycling cannot occur; the solver is deterministic for fixed input. It
returns the status and, when optimal, the minimizer and its objective: the
certificate LP reads nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11
COST_TOL = 1e-9


@dataclass
class LpInstance:
    c: np.ndarray
    a_mat: np.ndarray
    b: np.ndarray
    lower: np.ndarray  # -inf for free variables

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a_mat = np.asarray(self.a_mat, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        m, n = self.a_mat.shape if self.a_mat.ndim == 2 else (0, self.c.size)
        if self.a_mat.ndim != 2:
            self.a_mat = self.a_mat.reshape(m, n)
        if self.c.shape != (n,) or self.b.shape != (m,) or self.lower.shape != (n,):
            raise ValueError("inconsistent LP dimensions")


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | numerical
    x: np.ndarray | None = None
    objective: float | None = None


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    piv = tab[row]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i] -= tab[i, col] * piv


def _simplex(tab: np.ndarray, basis: list[int], cost: np.ndarray, ncols: int, max_iters: int) -> str:
    """Run phase iterations on tab = [A | b]; returns a status string."""
    m = tab.shape[0]
    for _ in range(max_iters):
        cb = cost[basis]
        red = cost[:ncols] - cb @ tab[:, :ncols]
        enter = -1
        for j in range(ncols):
            if red[j] < -COST_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        col = tab[:, enter]
        leave = -1
        best = np.inf
        for i in range(m):
            if col[i] > PIVOT_TOL:
                ratio = tab[i, -1] / col[i]
                if ratio < best - 1e-12 or (
                    abs(ratio - best) <= 1e-12 and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            if (col > 0.0).any():
                return "numerical"
            return "unbounded"
        _pivot(tab, leave, enter)
        basis[leave] = enter
    return "numerical"


def solve_lp(inst: LpInstance) -> LpResult:
    """Two-phase simplex: the status, and when optimal the minimizer and its objective.

    Each phase takes at most 2000 + 40 (m + n) pivots on the standard form of
    m rows and n columns; past that the status is "numerical".
    """
    m, n = inst.a_mat.shape

    # shift finite lower bounds, split free variables
    finite = np.isfinite(inst.lower)
    shift = np.where(finite, inst.lower, 0.0)
    b_shift = inst.b - inst.a_mat @ shift
    free_idx = np.flatnonzero(~finite)
    a_std = np.hstack([inst.a_mat, -inst.a_mat[:, free_idx]]) if free_idx.size else inst.a_mat
    c_std = np.concatenate([inst.c, -inst.c[free_idx]]) if free_idx.size else inst.c
    nn = a_std.shape[1]
    max_iters = 2000 + 40 * (m + nn)

    # phase 1: artificial basis on sign-corrected rows
    flip = b_shift < 0.0
    a1 = np.where(flip[:, None], -a_std, a_std)
    b1 = np.where(flip, -b_shift, b_shift)
    tab = np.zeros((m, nn + m + 1))
    tab[:, :nn] = a1
    tab[:, nn : nn + m] = np.eye(m)
    tab[:, -1] = b1
    basis = list(range(nn, nn + m))
    cost1 = np.concatenate([np.zeros(nn), np.ones(m)])
    status = _simplex(tab, basis, cost1, nn + m, max_iters)
    if status == "numerical":
        return LpResult(status="numerical")
    phase1_obj = float(cost1[basis] @ tab[:, -1])
    if phase1_obj > 1e-7 * (1.0 + float(np.abs(b1).sum())):
        return LpResult(status="infeasible")

    # drive remaining artificials out of the basis, drop redundant rows
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= nn:
            piv = -1
            for j in range(nn):
                if abs(tab[i, j]) > PIVOT_TOL:
                    piv = j
                    break
            if piv >= 0:
                _pivot(tab, i, piv)
                basis[i] = piv
            else:
                keep[i] = False
    if not keep.all():
        rows = np.flatnonzero(keep)
        tab = tab[rows]
        basis = [basis[i] for i in rows]

    # phase 2 on structural columns only
    tab2 = np.hstack([tab[:, :nn], tab[:, -1:]])
    status = _simplex(tab2, basis, c_std, nn, max_iters)
    if status != "optimal":
        return LpResult(status=status)

    x_std = np.zeros(nn)
    for i, bi in enumerate(basis):
        x_std[bi] = tab2[i, -1]
    x = x_std[:n].copy()
    if free_idx.size:
        x[free_idx] -= x_std[n:]
    x = x + shift

    obj = float(inst.c @ x)
    resid = float(np.abs(inst.a_mat @ x - inst.b).max()) if m else 0.0
    if resid > 1e-8 * (1.0 + float(np.abs(inst.b).max() if m else 0.0)):
        return LpResult(status="numerical")
    return LpResult(status="optimal", x=x, objective=obj)
