"""Dense two-phase primal simplex for small equality-form linear programs.

minimize c.x subject to A x = b and per-variable lower bounds, where a
lower bound of -inf marks a free variable. Finite bounds are shifted out
and free variables are split into differences of nonnegatives, giving the
standard form that the tableau works on. Columns enter by the most
negative reduced cost; after a run of degenerate pivots the rules turn to
Bland's until the objective moves again, so cycling cannot occur. The
solver is deterministic for fixed input. It returns the status and, when
optimal, the minimizer and its objective: the certificate LP reads nothing
else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11
COST_TOL = 1e-9
_BLAND_AFTER = 50  # degenerate pivots in a row before pricing and ratio ties turn to Bland's rule


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
    """Pivot on tab[row, col]: one rank-one update of the other rows with a nonzero in col."""
    tab[row] /= tab[row, col]
    hit = tab[:, col].nonzero()[0]
    hit = hit[hit != row]
    tab[hit] -= np.outer(tab[hit, col], tab[row])


def _simplex(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray, ncols: int, max_iters: int) -> str:
    """Run phase iterations on tab = [A | b]; returns a status string.

    Pricing is by the most negative reduced cost, and the leaving row has
    the least ratio, ties within 1e-12 going to the largest pivot entry.
    After _BLAND_AFTER degenerate pivots in a row (a least ratio of at most
    1e-12, so the objective stays where it was) both rules turn to Bland's:
    the first column with a negative reduced cost enters and ties go to the
    least basis index, until a pivot moves the objective again. A cycle of
    bases is a run of degenerate pivots, and Bland's rule cannot cycle, so
    neither can the solver.
    """
    degenerate = 0
    for _ in range(max_iters):
        red = cost[:ncols] - cost[basis] @ tab[:, :ncols]
        if degenerate < _BLAND_AFTER:
            enter = int(red.argmin())
            if red[enter] >= -COST_TOL:
                return "optimal"
        else:
            neg = (red < -COST_TOL).nonzero()[0]
            if not neg.size:
                return "optimal"
            enter = int(neg[0])
        col = tab[:, enter]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            if (col > 0.0).any():
                return "numerical"
            return "unbounded"
        ratio = tab[rows, -1] / col[rows]
        best = ratio.min()
        ties = rows[ratio <= best + 1e-12]
        if degenerate < _BLAND_AFTER:
            leave = int(ties[np.argmax(col[ties])])
        else:
            leave = int(ties[np.argmin(basis[ties])])
        degenerate = degenerate + 1 if best <= 1e-12 else 0
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
    basis = np.arange(nn, nn + m)
    cost1 = np.concatenate([np.zeros(nn), np.ones(m)])
    status = _simplex(tab, basis, cost1, nn + m, max_iters)
    if status == "numerical":
        return LpResult(status="numerical")
    phase1_obj = float(cost1[basis] @ tab[:, -1])
    if phase1_obj > 1e-7 * (1.0 + float(np.abs(b1).sum())):
        return LpResult(status="infeasible")

    # drive remaining artificials out of the basis, drop redundant rows
    keep = np.ones(m, dtype=bool)
    for i in np.flatnonzero(basis >= nn).tolist():
        nz = np.flatnonzero(np.abs(tab[i, :nn]) > PIVOT_TOL)
        if nz.size:
            _pivot(tab, i, int(nz[0]))
            basis[i] = nz[0]
        else:
            keep[i] = False
    if not keep.all():
        tab, basis = tab[keep], basis[keep]

    # phase 2 on structural columns only
    tab2 = np.hstack([tab[:, :nn], tab[:, -1:]])
    status = _simplex(tab2, basis, c_std, nn, max_iters)
    if status != "optimal":
        return LpResult(status=status)

    x_std = np.zeros(nn)
    x_std[basis] = tab2[:, -1]
    x = x_std[:n].copy()
    if free_idx.size:
        x[free_idx] -= x_std[n:]
    x = x + shift

    obj = float(inst.c @ x)
    resid = float(np.abs(inst.a_mat @ x - inst.b).max()) if m else 0.0
    if resid > 1e-8 * (1.0 + float(np.abs(inst.b).max() if m else 0.0)):
        return LpResult(status="numerical")
    return LpResult(status="optimal", x=x, objective=obj)
