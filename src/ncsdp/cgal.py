"""Block-diagonal SDP solver: a spectral dual path and the CGAL loop.

Solves min <C, X> over block psd matrices with tr(X) = a and A svec(X) = b.
solve dispatches on block size. When every block is at most _DENSE_CUTOFF,
the spectral dual path runs first. With the trace fixed, the dual is the
unconstrained concave problem max_u f(u) = b.u + a lambda_min(C - A^T u),
and f(u) is a lower bound for every u. The path maximizes an
entropy-smoothed f by L-BFGS, over all eigenpairs of every block. The
smoothed gradient is b - A svec(W), W the softmin mixture of the
eigenvectors of C - A^T u, psd with trace 1 (Nesterov 2007): a times W at
the last u is the primal point, and its residual is the gradient L-BFGS drove
down. The path returns only when that point passes the gap test. Otherwise,
and for larger blocks, the conditional gradient augmented Lagrangian (CGAL)
loop runs; after the dual path it starts from the multiplier of the largest
f(u) the path evaluated, so the report's bound is the better of the two.

Both paths, the psd audit and dual_bound see the blocks through one
buffer per solve (_Blocks, over BlockLayout.squares): every block a dense
square, the blocks of one size one (k, s, s) view of it, the views back to
back. The dual path re-indexes c, A^T and A onto the upper triangles of the
buffer once per solve, so an evaluation is one sparse product into the
buffer, one eigh per view, one softmin over all eigenvalues, the mixture
written back over the views, and one sparse product back to the gradient.
L-BFGS takes its direction from the compact form of the last 20 steps
(Byrd, Nocedal and Schnabel), one triangular solve each way, and keeps
those steps from one smoothing level to the next, unless a level stalls on
them. The CGAL loop, the audit and dual_bound fill both triangles of the
whole buffer from an svec vector in one gather.

Each CGAL iteration linearizes the augmented Lagrangian, finds the smallest
eigenpair of the block-diagonal gradient, and moves toward the rank-one
atom a vv* placed in the block that owns the smallest eigenvalue; the trace
constraint is therefore maintained exactly by construction, and every
iterate is a convex combination of psd matrices.

Both paths run on one normalized copy of the data (_Scaled), stop on one
gap test, residual <= eps and |c.x - f(u)| <= eps (1 + |f(u)|) in original
units, and report through _report with the multiplier u of their bound.

The CGAL loop's eigenpair search makes one min_eigpair call per view: 1 x 1
blocks in closed form, with eigenvector [1], one stacked eigh up to
_DENSE_CUTOFF, a LAPACK subset eigh per block above it. The first block
with the least eigenvalue wins, and a non-finite eigenvalue stops the solve
with CgalError.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .standard_form import BlockLayout, StandardSdp

_BETA0 = 1.0  # CGAL penalty weight in normalized units; the step's beta is _BETA0 sqrt(t + 1)
_DUAL_CAP = 1e9  # the CGAL loop rejects a dual update that takes |z| above this
_DENSE_CUTOFF = 64  # largest block for the stacked full eigh; the spectral path needs all blocks within it
_TRACE_TOL = 1e-9  # an iterate whose trace is off a by more than this times max(1, a) is an error


class CgalError(Exception):
    """Raised when an iterate violates a maintained invariant."""


@dataclass
class CgalConfig:
    eps: float = 1e-4  # 0 skips the spectral path and runs CGAL for max_iters steps
    max_iters: int = 200_000  # dual evaluations on the spectral path; a CGAL loop after it gets its own max_iters steps
    seed: int = 0  # no effect: every solve is deterministic; kept for callers that set it
    check_psd: bool = False  # per-iteration psd audit; costs one eigvalsh per block size
    track_residuals: bool = False  # record the relative residual at every iteration


@dataclass
class SolveReport:
    objective: float
    residual: float
    iterations: int
    x: np.ndarray
    u: np.ndarray  # multiplier in original units: dual_bound(sdp, u) gives lower_bound
    min_iterate_eig: float  # most negative block eigenvalue seen (0 unless audited)
    dual_cap_hits: int  # iterations whose dual update was rejected by _DUAL_CAP
    stop_reason: str  # "gap" or "max_iters"
    path: str  # "dual" (the spectral dual path) or "loop" (the CGAL loop)
    lower_bound: float  # certified bound f(u), the best over both paths of the solve
    residual_history: np.ndarray | None = None  # per-iteration relative residuals
    runtime: float = 0.0  # seconds in solve, both paths

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gap"

    @property
    def gap(self) -> float:
        return self.objective - self.lower_bound


def min_eigpair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a symmetric matrix, or of each matrix in a (k, s, s) stack.

    The size s picks the method: 1 x 1 matrices in closed form, s up to
    _DENSE_CUTOFF by one stacked eigh, larger s by a LAPACK subset eigh of
    one matrix at a time. A stack returns the (k,) smallest eigenvalues and
    their (k, s) eigenvectors, bit for bit what the matrices give one at a
    time. Above the cutoff a matrix with a non-finite entry gives eigenvalue
    nan, which the caller reports.
    """
    stack = a if a.ndim == 3 else a[None]
    k, s = stack.shape[:2]
    if s == 1:
        lam, vecs = stack[:, 0, 0], np.ones((k, 1))
    elif s <= _DENSE_CUTOFF:
        w, v = np.linalg.eigh(stack)
        lam, vecs = w[:, 0], v[:, :, 0]
    else:
        lam, vecs = np.full(k, np.nan), np.full((k, s), np.nan)
        for j in np.flatnonzero(np.isfinite(stack).all(axis=(1, 2))):
            w, v = scipy.linalg.eigh(stack[j], subset_by_index=(0, 0), check_finite=False)
            lam[j], vecs[j] = w[0], v[:, 0]
    return (lam, vecs) if a.ndim == 3 else (float(lam[0]), vecs[0])


def _require_finite(lam: np.ndarray, t: int) -> None:
    """CgalError naming the first block whose least eigenvalue lam[i] is not finite."""
    if not np.isfinite(lam).all():
        bad = int(np.flatnonzero(~np.isfinite(lam))[0])
        raise CgalError(f"smallest eigenvalue of block {bad} is {float(lam[bad])!r} at iteration {t}")


_stebz = scipy.linalg.lapack.dstebz  # selected eigenvalues of a symmetric tridiagonal, (m, w, ...)


def _operator_norm(a_mat, at) -> float:
    """Largest singular value of a sparse matrix by Golub-Kahan-Lanczos bidiagonalization.

    Step k takes alpha_k u_k = A v_k - beta_{k-1} u_{k-1} and beta_k v_{k+1}
    = A^T u_k - alpha_k v_k from v_1, fixed to keep solves reproducible,
    with no reorthogonalization: only u, v and the coefficients are held.
    The estimate is the largest singular value of the upper bidiagonal B_k
    (diagonal alpha, superdiagonal beta), from the tridiagonal B_k^T B_k by
    LAPACK dstebz; it stays below the exact value up to rounding. Stops
    when it moves by at most 1e-6 relative, on an exhausted Krylov space
    (the estimate is then a singular value of A), or after 200 steps. An
    empty matrix, or A v_1 = 0, gives 1. Used only to precondition the
    solver; at is a_mat.T as CSR.
    """
    m, n = a_mat.shape
    if m == 0 or n == 0:
        return 1.0
    v = np.ones(n) + 1e-3 * np.arange(n) / max(n - 1, 1)
    v /= np.linalg.norm(v)
    u = np.zeros(m)
    diag, off = [], []  # of B_k^T B_k: alpha_k^2 + beta_{k-1}^2, and alpha_k beta_k
    beta = sig = 0.0
    for k in range(1, 201):
        u *= -beta
        u += a_mat @ v
        alpha = float(np.linalg.norm(u))
        diag.append(alpha * alpha + beta * beta)
        new = math.sqrt(_stebz(np.array(diag), np.array(off), 2, 0.0, 0.0, k, k, 0.0, "E")[1][0]) if off else alpha
        if new == 0.0:
            return 1.0
        if alpha == 0.0 or abs(new - sig) <= 1e-6 * max(1.0, new):
            return new
        u /= alpha
        v *= -alpha
        v += at @ u
        beta = float(np.linalg.norm(v))
        if beta == 0.0:
            return new
        off.append(alpha * beta)
        v /= beta
        sig = new
    return sig


_LBFGS_MEMORY = 20
_trtrs = scipy.linalg.lapack.dtrtrs  # triangular solve, (x, info)
_STAGE_EVALS = 2000  # dual evaluations per smoothing level, at most


class _Blocks:
    """Every block of a block-diagonal matrix as a dense square, on the buffer of BlockLayout.squares.

    views holds one (k, s, s) view of buf per block size, in the order of
    stacks. The spectral dual path writes the upper triangles itself; load
    fills both triangles from an svec vector. least gives the smallest
    eigenpair (the CGAL loop), lows the least eigenvalue of every block (the
    psd audit, and dual_bound) and floor the audit's verdict.
    """

    def __init__(self, layout: BlockLayout):
        self.layout = layout
        self.stacks, self.place, self.cells = layout.squares
        self.buf = np.empty(self.cells.size)
        self.views, at = [], 0
        for s, blocks in self.stacks:
            self.views.append(self.buf[at : at + blocks.size * s * s].reshape(-1, s, s))
            at += blocks.size * s * s

    def load(self, x: np.ndarray) -> list[np.ndarray]:
        """The views, with buf holding the dense blocks of x: each entry its svec value over the position's scale."""
        np.take(x / self.layout.scale, self.cells, out=self.buf)
        return self.views

    def least(self, g: np.ndarray, t: int) -> tuple[float, int, np.ndarray]:
        """(eigenvalue, block, eigenvector) of the first block of g with the least eigenvalue.

        One min_eigpair call per view; a non-finite eigenvalue raises
        CgalError naming the first such block and t.
        """
        lam = np.empty(len(self.layout.sizes))
        found = {}
        for (s, blocks), view in zip(self.stacks, self.load(g)):
            lam[blocks], vecs = min_eigpair(view)
            found[s] = blocks, vecs
        _require_finite(lam, t)
        blk = int(lam.argmin())
        blocks, vecs = found[self.layout.sizes[blk]]
        return float(lam[blk]), blk, vecs[np.searchsorted(blocks, blk)]

    def lows(self, x: np.ndarray) -> np.ndarray:
        """Least eigenvalue of every block of x, one eigvalsh per view."""
        lam = np.empty(len(self.layout.sizes))
        for (_, blocks), view in zip(self.stacks, self.load(x)):
            lam[blocks] = np.linalg.eigvalsh(view)[:, 0]
        return lam

    def floor(self, x: np.ndarray, a: float, t: int) -> float:
        """Least eigenvalue over the blocks of x, at most 0; CgalError at the first block below -1e-9 max(1, a)."""
        lam = self.lows(x)
        low = np.flatnonzero(lam < -1e-9 * max(1.0, a))
        if low.size:
            raise CgalError(f"iterate lost psd in block {int(low[0])} at iteration {t}")
        return float(lam.min(initial=0.0, where=lam < 0.0))


def _certified(residual: float, objective: float, bound: float, eps: float) -> bool:
    """The gap test: residual <= eps and |objective - bound| <= eps (1 + |bound|)."""
    return residual <= eps and abs(objective - bound) <= eps * (1.0 + abs(bound))


def dual_bound(sdp: StandardSdp, u: np.ndarray) -> float:
    """The dual bound f(u) = b.u + a lambda_min(C - A^T u), in original units.

    Every feasible X is psd with trace a, so <C, X> = b.u + <C - A^T u, X>
    >= f(u): f(u) is a lower bound on the optimal value for every u.
    """
    lam = float(_Blocks(sdp.layout).lows(sdp.c - sdp.a_mat.T @ u).min())
    return float(sdp.b @ u) + float(sdp.trace) * lam


def _check_trace(tr: float, a: float, t: int) -> None:
    """CgalError when the trace tr of the iterate at iteration t is off the constant a."""
    if abs(tr - a) > _TRACE_TOL * max(1.0, a):
        raise CgalError(f"trace drifted to {tr!r} against constant {a!r} at iteration {t}")


class _Scaled:
    """What both paths read off sdp, computed once per solve.

    The trace a, c_norm = |c| (1 when c = 0), c_s = c / c_norm, b_norm =
    |b|, at = A^T as CSR, sigma, the largest singular value of A,
    estimated from below by Golub-Kahan-Lanczos bidiagonalization
    (_operator_norm), and blocks, the dense-block buffer both paths use.
    """

    def __init__(self, sdp: StandardSdp):
        self.sdp, self.a = sdp, float(sdp.trace)
        self.c_norm = float(np.linalg.norm(sdp.c)) or 1.0
        self.c_s = sdp.c / self.c_norm
        self.b_norm = float(np.linalg.norm(sdp.b))
        self.at = sdp.a_mat.T.tocsr()
        self.sigma = _operator_norm(sdp.a_mat, self.at)
        self.blocks = _Blocks(sdp.layout)


def _report(
    d: _Scaled, cfg: CgalConfig, path: str, x, u, bound, iterations: int, res_norm: float, *,
    min_seen: float = 0.0, cap_hits: int = 0, history: list | None = None,
) -> SolveReport:
    """The report of path ("dual" or "loop") on x, with the bound f(u) = bound at the multiplier u.

    res_norm is |A svec(x) - b| as the path measured it. Computes the
    objective, the relative residual and the verdict of the gap test.
    """
    objective = float(d.sdp.c @ x)
    residual = res_norm / (1.0 + d.b_norm)
    return SolveReport(
        objective=objective,
        residual=residual,
        iterations=iterations,
        x=x,
        u=u,
        min_iterate_eig=min_seen,
        dual_cap_hits=cap_hits,
        stop_reason="gap" if _certified(residual, objective, bound, cfg.eps) else "max_iters",
        path=path,
        lower_bound=float(bound),
        residual_history=None if history is None else np.array(history),
    )


class _SmoothedDual:
    """-f_mu(u) and its gradient for the normalized data (trace 1), counting evaluations.

    f_mu(u) = b.u - mu log sum_j exp(-lambda_j / mu) over the eigenvalues of
    all blocks of C - A^T u. It lies below f(u) = b.u + lambda_min. Its
    gradient is b - A svec(W), where W is the softmin mixture of the
    eigenvectors (trace 1, psd), so the gradient of -f_mu is also the
    residual A svec(W) - b of that mixture.

    It works on the buffer of d.blocks (see the module docstring): mix
    fills the upper triangles with c_buf - at_buf u, reads them by eigh on
    the views and writes W over the views, so scale buf[place] is svec(W),
    the primal point, and a_buf buf is A svec(W). __call__ counts the
    evaluation, reads the gradient off the buffer and keeps the largest
    f(u) seen, with its u.
    """

    def __init__(self, d: _Scaled, history: list | None, res_scale: float):
        self.blocks = d.blocks
        place, buf, scale = d.blocks.place, d.blocks.buf, d.blocks.layout.scale
        self.c_buf = np.zeros(buf.size)
        self.c_buf[place] = d.c_s / scale
        # A's CSR arrays with each column moved to its place; a row's columns
        # need not ascend for a product
        a = d.sdp.a_mat.tocsr()
        cols, scale, shape = place[a.indices], scale[a.indices], (a.shape[0], buf.size)
        self.a_buf = sp.csr_matrix((a.data * scale / d.sigma, cols, a.indptr), shape=shape)
        self.at_buf = sp.csr_matrix((a.data / (d.sigma * scale), cols, a.indptr), shape=shape).T.tocsr()
        self.b_s = d.sdp.b / (d.sigma * d.a)
        self.history, self.res_scale = history, res_scale
        self.mu = 1.0
        self.evals = 0
        self.plain = 0.0  # f(u) at the last evaluation
        self.best, self.best_u = -math.inf, None  # the largest f(u) evaluated, and a copy of its u

    def mix(self, u: np.ndarray) -> tuple[float, float]:
        """Write the softmin mixture W of C - A^T u over the views; return (lambda_min, mu log sum_j w_j).

        w_j = exp((lambda_min - lambda_j) / mu) runs over the eigenvalues of
        all blocks, one eigh per view, and W = sum_j (w_j / sum) v_j v_j^T.
        A non-finite least eigenvalue raises CgalError naming the first such
        block and the evaluation.
        """
        np.subtract(self.c_buf, self.at_buf @ u, out=self.blocks.buf)
        # a 1 x 1 block is its own eigenvalue, with eigenvector [1]
        eigs = [(view, None) if view.shape[1] == 1 else np.linalg.eigh(view, UPLO="U") for view in self.blocks.views]
        lam = np.concatenate([w for w, _ in eigs], axis=None)
        # a sum is finite only when every term is; past it, the first block whose least eigenvalue is not finite
        if not math.isfinite(lam.sum()):
            owner = np.concatenate([np.repeat(blocks, s) for s, blocks in self.blocks.stacks])
            low = np.full(len(self.blocks.layout.sizes), np.inf)
            np.minimum.at(low, owner, lam)
            _require_finite(low, self.evals)
        lam_min = float(lam.min())
        weights = np.exp((lam_min - lam) / self.mu)
        total = float(weights.sum())
        weights /= total
        at = 0
        for view, (_, v) in zip(self.blocks.views, eigs):
            k, s = view.shape[:2]
            if v is None:
                view[:, 0, 0] = weights[at : at + k]
            else:
                np.matmul(v * weights[at : at + k * s].reshape(k, 1, s), v.transpose(0, 2, 1), out=view)
            at += k * s
        return lam_min, self.mu * math.log(total)

    def __call__(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        self.evals += 1
        lam_min, smooth = self.mix(u)
        grad = self.a_buf @ self.blocks.buf
        grad -= self.b_s
        if self.history is not None:
            self.history.append(math.sqrt(grad.dot(grad)) * self.res_scale)
        self.plain = float(self.b_s @ u) + lam_min
        if self.plain > self.best:
            self.best, self.best_u = self.plain, u.copy()
        return smooth - self.plain, grad


class _Pairs:
    """The last _LBFGS_MEMORY steps s and gradient changes y of L-BFGS, rows of two arrays, oldest first."""

    def __init__(self, n: int):
        self.s, self.y = np.empty((_LBFGS_MEMORY, n)), np.empty((_LBFGS_MEMORY, n))
        self.m = 0  # pairs held

    def add(self, s: np.ndarray, y: np.ndarray) -> None:
        """Keep (s, y) as the newest pair, dropping the oldest when full, unless s.y is not positive beyond rounding."""
        if s.dot(y) <= 1e-16 * math.sqrt(s.dot(s) * y.dot(y)):
            return
        if self.m == _LBFGS_MEMORY:
            self.s[:-1], self.y[:-1] = self.s[1:], self.y[1:]
        else:
            self.m += 1
        self.s[self.m - 1], self.y[self.m - 1] = s, y

    def direction(self, g: np.ndarray, step0: float) -> np.ndarray:
        """H g for the L-BFGS inverse Hessian H of the pairs held; step0 g when there are none.

        The compact form of Byrd, Nocedal and Schnabel (1994). With the
        pairs as the rows of S and Y, R the upper triangle of S Y^T, D its
        diagonal and gamma = s.y / y.y of the newest pair,
        H g = gamma (g - Y^T q) + S^T p, where R q = S g and
        R^T p = D q + gamma (Y Y^T q - Y g): one triangular solve each way.
        """
        if not self.m:
            return step0 * g
        s_mat, y_mat = self.s[: self.m], self.y[: self.m]
        sy = s_mat @ y_mat.T
        d = sy.diagonal()
        gamma = d[-1] / y_mat[-1].dot(y_mat[-1])
        # sy.T is in Fortran order, which LAPACK reads without a copy; its lower triangle is R^T
        q = _trtrs(sy.T, s_mat @ g, lower=1, trans=1)[0]
        out = q @ y_mat
        out -= g
        p = _trtrs(sy.T, d * q + gamma * (y_mat @ out), lower=1)[0]
        out *= -gamma
        out += p @ s_mat
        return out


def _lbfgs(fg, u, f, g, pairs: _Pairs, gtol: float, max_evals: int, step0: float, floor: float):
    """Minimize a smooth convex function by L-BFGS, from u with f, g = fg(u).

    The direction comes from the compact form over the pairs held
    (_Pairs.direction), which may come from an earlier call; each step adds
    its pair to them. With none held the direction is -step0 g, and a
    direction that is not a descent direction empties pairs and is -step0 g.
    The line search brackets a step that meets the weak Wolfe conditions,
    doubling while the slope stays steep and halving past a rise, so a
    stretch where the function is nearly linear costs a few evaluations. Stops when |g| <= gtol, when no step
    decreases f, when f falls below floor, or after max_evals calls of fg.
    Returns (u, f, g).
    """
    evals = 0
    while evals < max_evals and math.sqrt(g.dot(g)) > gtol:
        q = pairs.direction(g, step0)
        slope = -g.dot(q)
        if slope >= 0.0:
            pairs.m = 0
            q = step0 * g
            slope = -g.dot(q)
        lo, hi, step = 0.0, math.inf, 1.0
        best = None
        while evals < max_evals:
            u_new = u - step * q
            f_new, g_new = fg(u_new)
            evals += 1
            if f_new < floor:
                return u_new, f_new, g_new
            if f_new > f + 1e-4 * step * slope:
                hi = step
            else:
                best = (u_new, f_new, g_new)
                if -g_new.dot(q) >= 0.9 * slope:
                    break
                lo = step
            if hi == math.inf:
                step = 2.0 * lo
            elif hi - lo > 1e-12 * hi:
                step = (lo + hi) / 2.0
            else:
                break
        if best is None:
            break
        u_new, f_new, g_new = best
        pairs.add(u_new - u, g_new - g)
        u, f, g = u_new, f_new, g_new
    return u, f, g


def _spectral_dual(d: _Scaled, cfg: CgalConfig) -> tuple[SolveReport | None, np.ndarray]:
    """Maximize the smoothed dual, then certify the bound with its softmin mixture.

    Runs on the normalized data of _Scaled (objective over its norm, A over
    its largest singular value, trace 1). The smoothing mu falls by tens
    from 1e-2 to the first level at most 0.1 eps, each level times
    max(1, |f|). Each level runs L-BFGS until the softmin mixture's
    residual is 0.1 eps, both relative in original units and in normalized
    units, ten times that for each level still to come. One L-BFGS memory
    serves every level, so a level starts from the curvature the last one
    learned. A level that spends its _STAGE_EVALS budget on that memory
    empties it and gets one more budget; a level that spends its budget on
    an empty memory ends the path, and max_iters caps the evaluations in
    all. The primal point is a times the mixture at the last u, psd with
    trace a by construction. Returns (report, report.u) when the report
    passes the gap test. Otherwise returns (None, u) with u the multiplier,
    in original units, of the largest f(u) over all evaluations, for the
    CGAL loop to start its bound from.
    """
    sdp, a = d.sdp, d.a
    res_scale = d.sigma * a / (1.0 + d.b_norm)  # normalized residual norm to relative residual
    history: list[float] | None = [] if cfg.track_residuals else None
    dual = _SmoothedDual(d, history, res_scale)
    gtol = 0.1 * cfg.eps * min(1.0, 1.0 / res_scale)
    levels = max(1, math.ceil(-math.log10(0.1 * cfg.eps) - 1e-9) - 1)
    u = np.zeros(sdp.n_rows)
    pairs = _Pairs(sdp.n_rows)
    for level in range(levels):
        if dual.evals >= cfg.max_iters:
            break
        # scaled by |f| at the last point evaluated, u or a step from it
        dual.mu = 10.0 ** -(2 + level) * max(1.0, abs(dual.plain))
        f, g = dual(u)
        tol = gtol * 10.0 ** (levels - 1 - level)
        for _ in range(2 if pairs.m else 1):  # a stall on the pairs a coarser mu left is retried without them
            budget = min(_STAGE_EVALS, cfg.max_iters - dual.evals)
            spent = dual.evals + budget
            # every trace-1 psd X has <c_s, X> <= |c_s| = 1, so f_mu > 2 proves
            # the form infeasible; the dual would run off to infinity
            u, f, g = _lbfgs(dual, u, f, g, pairs, tol, budget, dual.mu, floor=-2.0)
            stalled = dual.evals >= spent and math.sqrt(g.dot(g)) > tol
            if f < -2.0 or not stalled:
                break
            pairs.m = 0
        if f < -2.0 or stalled:  # a smaller mu is only harder
            break
    else:  # every level reached its tolerance
        # a rejected line-search trial may have left its own mixture in the buffer
        dual.mix(u)
        x = a * (d.blocks.layout.scale * d.blocks.buf[d.blocks.place])
        t = dual.evals
        _check_trace(sdp.layout.trace(x), a, t)
        min_seen = d.blocks.floor(x, a, t) if cfg.check_psd else 0.0
        u = d.c_norm * u / d.sigma
        res_norm = float(np.linalg.norm(sdp.a_mat @ x - sdp.b))
        rep = _report(d, cfg, "dual", x, u, dual_bound(sdp, u), t, res_norm, min_seen=min_seen, history=history)
        if rep.converged:
            return rep, u
    return None, d.c_norm * dual.best_u / d.sigma


def _cgal_loop(d: _Scaled, cfg: CgalConfig, u0: np.ndarray | None = None) -> SolveReport:
    """Run CGAL until the gap test passes or max_iters steps are spent.

    The dynamics are run on the normalized data of _Scaled (objective
    divided by its norm, constraint operator by its largest singular value,
    trace budget 1) so that the penalty weight _BETA0 = 1 sits in the right
    regime regardless of instance scale; iterates, objective values, and
    residuals are kept and reported in original units throughout.

    Each step's gradient is g = c / |c| + A^T mult, and its least eigenvalue
    lam is what the step already computes. At u = -|c| mult, C - A^T u is
    |c| g, so f(u) = |c| (a lam - b.mult): a certified lower bound at the
    cost of one dot product. The report carries the best such bound and its
    u, and the loop stops when ||A svec(X) - b|| / (1 + ||b||) <= eps and
    |c.x - bound| <= eps (1 + |bound|). A multiplier u0 in original units
    (the spectral dual path's best) starts the best bound at dual_bound(sdp,
    u0); the iterates do not depend on it, only the step at which the gap
    test passes. max_iters is at least 1. The trace
    of every iterate is checked against the constant; psd is audited per
    block when check_psd is set (iterates are psd by construction, the
    audit guards the arithmetic).
    """
    sdp, a, sigma, c_norm, c_scaled, at_mat = d.sdp, d.a, d.sigma, d.c_norm, d.c_s, d.at
    layout, a_mat, b, c = sdp.layout, sdp.a_mat, sdp.b, sdp.c
    res_scale = sigma * a

    x = np.zeros(sdp.dim)
    x[layout.diag] = a / sum(sdp.block_sizes)
    z = np.zeros(a_mat.shape[0])
    ax = a_mat @ x

    bound = -math.inf if u0 is None else dual_bound(sdp, u0)
    min_seen = 0.0
    resid_hist: list[float] | None = [] if cfg.track_residuals else None
    cap_hits = 0
    least, floor = d.blocks.least, d.blocks.floor
    add_outer, trace = layout.add_outer, layout.trace
    r = (ax - b) / res_scale
    mult = np.empty_like(r)  # the dual multiplier (z + beta r) / sigma
    best = np.zeros_like(r) if u0 is None else -u0 / c_norm  # the mult that gave the best bound

    for t in range(1, cfg.max_iters + 1):
        beta = _BETA0 * math.sqrt(t + 1.0)
        np.multiply(r, beta, out=mult)
        mult += z
        mult /= sigma
        g = at_mat @ mult
        g += c_scaled
        lam, blk, v = least(g, t)
        f = c_norm * (a * lam - b.dot(mult))
        if f > bound:
            bound = f
            np.copyto(best, mult)

        eta = 2.0 / (t + 1.0)
        x *= 1.0 - eta
        add_outer(x, blk, v, eta * a)
        ax = a_mat @ x
        obj = float(c @ x)

        r = ax - b
        r /= res_scale
        # np.linalg.norm of a 1-D real vector is sqrt(v.dot(v)); calling that
        # directly gives the same bits without norm's dispatch
        rn_scaled = math.sqrt(r.dot(r))
        # in normalized units the trace budget is 1, so a drops out of the clip
        gamma = _BETA0 if rn_scaled == 0.0 else min(_BETA0, 4.0 * beta * eta * eta / (rn_scaled * rn_scaled))
        z_new = z + gamma * r
        if math.sqrt(z_new.dot(z_new)) <= _DUAL_CAP:
            z = z_new
        else:
            cap_hits += 1

        _check_trace(trace(x), a, t)
        if cfg.check_psd:
            min_seen = min(min_seen, floor(x, a, t))

        res_norm = rn_scaled * res_scale
        resid_rel = res_norm / (1.0 + d.b_norm)
        if resid_hist is not None:
            resid_hist.append(resid_rel)
        if _certified(resid_rel, obj, bound, cfg.eps):
            break

    return _report(
        d, cfg, "loop", x, -c_norm * best, bound, t, res_norm, min_seen=min_seen, cap_hits=cap_hits, history=resid_hist
    )


def solve(sdp: StandardSdp, cfg: CgalConfig | None = None) -> SolveReport:
    """Solve sdp to accuracy eps: the spectral dual path when it applies, else CGAL.

    When eps > 0 and every block is at most _DENSE_CUTOFF, the spectral dual
    path runs first and returns only a report that passes the gap test.
    When it cannot certify, or a block is larger, the CGAL loop runs, with a
    budget of max_iters steps of its own; after the dual path it starts
    from that path's best bound and multiplier. Both paths read one _Scaled
    copy of the data: its norms, one transpose of A and one operator norm.
    Every report carries a certified lower_bound, the best over both paths,
    the multiplier u that gives it, and the gap to its objective, and stops
    on "gap" or "max_iters", and names the path that produced x ("dual" or
    "loop"). runtime covers both paths. ValueError when max_iters < 1 or eps
    is negative or not finite.
    """
    cfg = cfg or CgalConfig()
    if cfg.max_iters < 1 or not (math.isfinite(cfg.eps) and cfg.eps >= 0.0):
        raise ValueError(f"need max_iters >= 1 and a finite eps >= 0, got {cfg.max_iters} and {cfg.eps!r}")
    t0 = time.perf_counter()
    d = _Scaled(sdp)
    rep, u0 = None, None
    if cfg.eps > 0 and max(sdp.block_sizes, default=0) <= _DENSE_CUTOFF:
        rep, u0 = _spectral_dual(d, cfg)
    if rep is None:
        rep = _cgal_loop(d, cfg, u0)
    rep.runtime = time.perf_counter() - t0
    return rep
