"""Block-diagonal SDP solver: a spectral dual path and the CGAL loop.

Solves min <C, X> over block psd matrices with tr(X) = a and A svec(X) = b.
solve dispatches on block size. When every block is at most dense_cutoff,
the spectral dual path runs first. With the trace fixed, the dual is the
unconstrained concave problem max_u f(u) = b.u + a lambda_min(C - A^T u),
and f(u) is a lower bound for every u. The path maximizes an
entropy-smoothed f by L-BFGS, over all eigenpairs of every block, then
builds a primal witness on the bottom eigenspaces of C - A^T u. It returns
only when the witness passes the gap test. Otherwise, and for larger blocks,
the conditional gradient augmented Lagrangian (CGAL) loop runs.

Each CGAL iteration linearizes the augmented Lagrangian, finds the smallest
eigenpair of the block-diagonal gradient, and moves toward the rank-one
atom a vv* placed in the block that owns the smallest eigenvalue; the trace
constraint is therefore maintained exactly by construction, and every
iterate is a convex combination of psd matrices.

Both paths stop on one gap test: residual <= eps and |c.x - f(u)| <=
eps (1 + |f(u)|), in original units.

The eigenpair search groups the blocks by size. A 1 x 1 block is read
straight from the gradient, with eigenvector [1]. All blocks of one larger
size are gathered into a (k, s, s) stack and take one min_eigpair call: one
stacked eigh up to dense_cutoff, a LAPACK subset eigh per block above it.
The first block with the least eigenvalue wins, and a non-finite eigenvalue
stops the solve with CgalError.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .standard_form import BlockLayout, StandardSdp


class CgalError(Exception):
    """Raised when an iterate violates a maintained invariant."""


@dataclass
class CgalConfig:
    eps: float = 1e-4  # 0 skips the spectral path and runs CGAL for max_iters steps
    max_iters: int = 200_000  # CGAL steps, or dual evaluations on the spectral path
    beta0: float = 1.0
    dual_cap: float = 1e9
    seed: int = 0  # no effect: every solve is deterministic; kept for callers that set it
    dense_cutoff: int = 64  # largest block for the stacked full eigh; the spectral path needs all blocks within it
    trace_tol: float = 1e-9
    check_psd: bool = False  # per-iteration psd audit; costs one eigvalsh per block size
    track_residuals: bool = False  # record the relative residual at every iteration


@dataclass
class SolveReport:
    objective: float
    residual: float
    iterations: int
    converged: bool
    x: np.ndarray
    z: np.ndarray  # dual multiplier in normalized units; u = -|c| z / sigma(A) in original units
    runtime: float
    min_iterate_eig: float  # most negative block eigenvalue seen (0 unless audited)
    dual_cap_hits: int  # iterations whose dual update was rejected by dual_cap
    stop_reason: str  # "gap" or "max_iters"
    lower_bound: float  # certified bound f(u), the best over the solve
    gap: float  # objective - lower_bound
    residual_history: np.ndarray | None = None  # per-iteration relative residuals


def min_eigpair(a: np.ndarray, dense_cutoff: int = 64) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a symmetric matrix, or of each matrix in a (k, s, s) stack.

    The size s picks the method: 1 x 1 matrices in closed form, s up to
    dense_cutoff by one stacked eigh, larger s by a LAPACK subset eigh of
    one matrix at a time. A stack returns the (k,) smallest eigenvalues and
    their (k, s) eigenvectors, bit for bit what the matrices give one at a
    time. Above the cutoff a matrix with a non-finite entry gives eigenvalue
    nan, which the caller reports.
    """
    stack = a if a.ndim == 3 else a[None]
    k, s = stack.shape[:2]
    if s == 1:
        lam, vecs = stack[:, 0, 0], np.ones((k, 1))
    elif s <= dense_cutoff:
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


def _operator_norm(a_mat, at=None) -> float:
    """Largest singular value of a sparse matrix by deterministic power iteration.

    Used only to precondition the solver, so a few correct digits are enough;
    the start vector is fixed to keep solves reproducible. at is a_mat.T as
    CSR, built here when not given.
    """
    m, n = a_mat.shape
    if m == 0 or n == 0:
        return 1.0
    if at is None:
        at = a_mat.T.tocsr()
    v = np.ones(n) + 1e-3 * np.arange(n) / max(n - 1, 1)
    v /= np.linalg.norm(v)
    sig = 0.0
    for _ in range(200):
        u = a_mat @ v
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return 1.0
        w = at @ (u / nu)
        new = float(np.linalg.norm(w))
        if new == 0.0:
            return max(nu, 1e-12)
        v = w / new
        if abs(new - sig) <= 1e-6 * max(1.0, new):
            return new
        sig = new
    return max(sig, 1e-12)


_LBFGS_MEMORY = 20
_STAGE_EVALS = 2000  # dual evaluations per smoothing level, at most
_WITNESS_ITERS = 5000  # FISTA steps of the witness, at most
_KEEP = 1e-3  # the witness keeps eigenvalues up to lambda_min + _KEEP max(1, spread)


class _Spectrum:
    """Eigenpairs of a block-diagonal matrix in svec form, one size class at a time.

    Every size class is gathered through BlockLayout.stack; a 1 x 1 block
    is its own eigenvalue, with eigenvector [1]. eig gives all eigenpairs
    (the spectral dual path), least the smallest one (the CGAL loop) and
    floor the least eigenvalue (the psd audit). mix is the way back: the
    svec of V diag(w) V^T in every block, for weights w on its eigenvectors.
    """

    def __init__(self, layout: BlockLayout):
        sizes = np.asarray(layout.sizes)
        first = np.asarray(layout.offsets[:-1])
        self.layout = layout
        # per size: the blocks and their svec positions, (k, s(s+1)/2)
        self.classes = []
        # block i is row rank[i] of size class cls[i]
        self.cls = np.empty(sizes.size, dtype=int)
        self.rank = np.empty(sizes.size, dtype=int)
        for c, s in enumerate(np.unique(sizes).tolist()):
            blocks = np.flatnonzero(sizes == s)
            self.classes.append((s, blocks, first[blocks, None] + np.arange(s * (s + 1) // 2)))
            self.cls[blocks] = c
            self.rank[blocks] = np.arange(blocks.size)

    def eig(self, g: np.ndarray, t: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per size class, (k, s) eigenvalues in ascending order and (k, s, s) eigenvectors.

        A non-finite eigenvalue raises CgalError naming the first such block
        and t, the evaluation.
        """
        eigs = []
        for s, blocks, pos in self.classes:
            if s == 1:
                eigs.append((g[pos], np.ones((blocks.size, 1, 1))))
            else:
                eigs.append(np.linalg.eigh(self.layout.stack(g, s)))
        if not all(np.isfinite(w).all() for w, _ in eigs):
            lam = np.empty(self.cls.size)
            for (_, blocks, _), (w, _) in zip(self.classes, eigs):
                lam[blocks] = w.min(axis=1)
            _require_finite(lam, t)
        return eigs

    def least(self, g: np.ndarray, t: int, dense_cutoff: int) -> tuple[float, int, np.ndarray]:
        """(eigenvalue, block, eigenvector) of the first block with the least eigenvalue.

        One min_eigpair call per size class above 1 x 1; a non-finite
        eigenvalue raises CgalError naming the first such block and t.
        """
        lam = np.empty(self.cls.size)
        vecs = []
        for s, blocks, pos in self.classes:
            if s == 1:
                lam[blocks] = g[pos[:, 0]]
                vecs.append(np.ones((blocks.size, 1)))
            else:
                lam[blocks], v = min_eigpair(self.layout.stack(g, s), dense_cutoff)
                vecs.append(v)
        _require_finite(lam, t)
        blk = int(lam.argmin())
        return float(lam[blk]), blk, vecs[self.cls[blk]][self.rank[blk]]

    def floor(self, x: np.ndarray, a: float, t: int) -> float:
        """Least eigenvalue over the blocks of x, at most 0; CgalError at the first block below -1e-9 max(1, a)."""
        lam = np.empty(self.cls.size)
        for s, blocks, _ in self.classes:
            lam[blocks] = np.linalg.eigvalsh(self.layout.stack(x, s))[:, 0]
        low = np.flatnonzero(lam < -1e-9 * max(1.0, a))
        if low.size:
            raise CgalError(f"iterate lost psd in block {int(low[0])} at iteration {t}")
        return float(lam.min(initial=0.0, where=lam < 0.0))

    def mix(self, eigs, weights, out: np.ndarray) -> np.ndarray:
        """out = svec of V diag(w) V^T in every block; weights holds (k, s) w per size class."""
        for (s, _, pos), (_, v), w in zip(self.classes, eigs, weights):
            if s == 1:
                out[pos] = w
            else:
                out[pos] = self.layout.svec((v * w[:, None, :]) @ v.transpose(0, 2, 1))
        return out


def _certified(residual: float, objective: float, bound: float, eps: float) -> bool:
    """The gap test: residual <= eps and |objective - bound| <= eps (1 + |bound|)."""
    return residual <= eps and abs(objective - bound) <= eps * (1.0 + abs(bound))


def dual_bound(sdp: StandardSdp, u: np.ndarray) -> float:
    """The dual bound f(u) = b.u + a lambda_min(C - A^T u), in original units.

    Every feasible X is psd with trace a, so <C, X> = b.u + <C - A^T u, X>
    >= f(u): f(u) is a lower bound on the optimal value for every u.
    """
    g = sdp.c - sdp.a_mat.T @ u
    layout = sdp.layout
    lam = min(float(np.linalg.eigvalsh(layout.stack(g, s))[:, 0].min()) for s in set(layout.sizes))
    return float(sdp.b @ u) + float(sdp.trace) * lam


class _SmoothedDual:
    """-f_mu(u) and its gradient for the normalized data (trace 1), counting evaluations.

    f_mu(u) = b.u - mu log sum_j exp(-lambda_j / mu) over the eigenvalues of
    all blocks of C - A^T u. It lies below f(u) = b.u + lambda_min. Its
    gradient is b - A svec(W), where W is the softmin mixture of the
    eigenvectors (trace 1, psd), so the gradient of -f_mu is also the
    residual A svec(W) - b of that mixture.
    """

    def __init__(self, spectrum: _Spectrum, c_s, a_s, b_s, history: list | None, res_scale: float):
        self.spectrum, self.c_s, self.a_s, self.b_s = spectrum, c_s, a_s, b_s
        self.at_s = a_s.T.tocsr()
        self.mixture = np.empty(c_s.size)
        self.history, self.res_scale = history, res_scale
        self.mu = 1.0
        self.evals = 0
        self.plain = 0.0  # f(u) at the last evaluation

    def softmin(self, eigs) -> tuple[float, float, list[np.ndarray]]:
        """(lambda_min, mu log sum_j exp((lambda_min - lambda_j) / mu), weights per size class)."""
        lam_min = min(float(w[:, 0].min()) for w, _ in eigs)
        expo = [np.exp((lam_min - w) / self.mu) for w, _ in eigs]
        total = sum(float(e.sum()) for e in expo)
        return lam_min, self.mu * math.log(total), [e / total for e in expo]

    def __call__(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        self.evals += 1
        eigs = self.spectrum.eig(self.c_s - self.at_s @ u, self.evals)
        lam_min, smooth, weights = self.softmin(eigs)
        grad = self.a_s @ self.spectrum.mix(eigs, weights, self.mixture)
        grad -= self.b_s
        if self.history is not None:
            self.history.append(math.sqrt(grad.dot(grad)) * self.res_scale)
        self.plain = float(self.b_s @ u) + lam_min
        return smooth - self.plain, grad


def _lbfgs(fg, u, f, g, gtol: float, max_evals: int, step0: float, floor: float):
    """Minimize a smooth convex function by L-BFGS, from u with f, g = fg(u).

    Two-loop recursion over the last _LBFGS_MEMORY steps. The first
    direction, and any that is not a descent direction, is -step0 g. The
    line search brackets a step that meets the weak Wolfe conditions,
    doubling while the slope stays steep and halving past a rise, so a
    stretch where the function is nearly linear costs a few evaluations.
    Stops when |g| <= gtol, when no step decreases f, when f falls below
    floor, or after max_evals calls of fg. Returns (u, f, g).
    """
    pairs: deque = deque(maxlen=_LBFGS_MEMORY)
    evals = 0
    while evals < max_evals and math.sqrt(g.dot(g)) > gtol:
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * s.dot(q))
            q -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= s.dot(y) / y.dot(y)
        else:
            q *= step0
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * y.dot(q)) * s
        slope = -g.dot(q)
        if slope >= 0.0:
            pairs.clear()
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
        s, y = u_new - u, g_new - g
        sy = s.dot(y)
        if sy > 1e-16 * math.sqrt(s.dot(s) * y.dot(y)):
            pairs.append((s, y, 1.0 / sy))
        u, f, g = u_new, f_new, g_new
    return u, f, g


def _project_spectraplex(theta: np.ndarray) -> np.ndarray:
    """Euclidean projection of theta onto {t >= 0, sum t = 1}."""
    desc = np.sort(theta)[::-1]
    excess = np.cumsum(desc) - 1.0
    k = np.flatnonzero(desc * np.arange(1, theta.size + 1) > excess)[-1]
    return np.maximum(theta - excess[k] / (k + 1), 0.0)


def _witness(dual: _SmoothedDual, u: np.ndarray, target: float) -> np.ndarray:
    """A trace-1 psd svec X on the bottom eigenspaces of C - A^T u, nearly feasible.

    Keeps, in every block, the eigenvectors V with eigenvalue at most
    lambda_min + _KEEP max(1, spread) and takes X = V S V^T. FISTA minimizes
    |A svec(X) - b| over block S psd with sum tr S = 1, from the softmin
    weights, until the residual is at most target.
    """
    spectrum = dual.spectrum
    eigs = spectrum.eig(dual.c_s - dual.at_s @ u, dual.evals)
    lam_min, _, weights = dual.softmin(eigs)
    spread = max(float(w[:, -1].max()) for w, _ in eigs) - lam_min
    cut = lam_min + _KEEP * max(1.0, spread)
    # kept[r]: the blocks with r kept eigenvectors; S holds one full r x r
    # matrix per such block, the blocks of one r side by side
    kept: dict[int, list] = {}
    for (_, blocks, pos), (w, v), p in zip(spectrum.classes, eigs, weights):
        for k in range(blocks.size):
            keep = w[k] <= cut
            if keep.any():
                kept.setdefault(int(keep.sum()), []).append((pos[k], v[k][:, keep], p[k][keep]))
    rows, cols, vals, start, groups = [], [], [], [], []
    col = 0
    for r, members in sorted(kept.items()):
        for pos, vk, pk in members:
            # column (p, q) of the block: svec of (v_p v_q^T + v_q v_p^T) / 2
            outer = vk.T[:, None, :, None] * vk.T[None, :, None, :]
            outer = (outer + outer.transpose(0, 1, 3, 2)) / 2.0
            rows.append(np.repeat(pos, r * r))
            cols.append(np.tile(col + np.arange(r * r), pos.size))
            vals.append(spectrum.layout.svec(outer).reshape(r * r, -1).T.ravel())
            start.append(np.diag(pk).ravel())
            col += r * r
        groups.append((r, len(members)))
    embed = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dual.c_s.size, col)
    )
    ops = (dual.a_s @ embed).toarray()
    gram, lin = ops.T @ ops, ops.T @ dual.b_s
    lip = float(np.linalg.eigvalsh(gram)[-1])
    step = 1.0 / lip if lip > 0.0 else 1.0

    def project(s: np.ndarray) -> np.ndarray:
        parts, thetas, at = [], [], 0
        for r, k in groups:
            mats = s[at : at + k * r * r].reshape(k, r, r)
            theta, vecs = np.linalg.eigh((mats + mats.transpose(0, 2, 1)) / 2.0)
            parts.append(vecs)
            thetas.append(theta.ravel())
            at += k * r * r
        theta = _project_spectraplex(np.concatenate(thetas))
        out, at, t_at = np.empty_like(s), 0, 0
        for (r, k), vecs in zip(groups, parts):
            th = theta[t_at : t_at + k * r].reshape(k, r)
            out[at : at + k * r * r] = ((vecs * th[:, None, :]) @ vecs.transpose(0, 2, 1)).ravel()
            at += k * r * r
            t_at += k * r
        return out

    s = project(np.concatenate(start))
    y, t = s, 1.0
    checks: deque = deque(maxlen=11)
    for it in range(_WITNESS_ITERS):
        if it % 10 == 0:
            res = ops @ s - dual.b_s
            checks.append(math.sqrt(res.dot(res)))
            # done, or less than a tenth off the residual in the last 100 steps
            if checks[-1] <= target or (len(checks) == checks.maxlen and checks[-1] > 0.9 * checks[0]):
                break
        s_new = project(y - step * (gram @ y - lin))
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = s_new + ((t - 1.0) / t_new) * (s_new - s)
        s, t = s_new, t_new
    return embed @ s


def _spectral_dual(sdp: StandardSdp, cfg: CgalConfig, sigma: float | None = None) -> SolveReport | None:
    """Maximize the smoothed dual, then certify the bound with a primal witness.

    Runs on the normalized data of the CGAL loop (objective over its norm,
    A over its largest singular value, trace 1). The smoothing mu falls by
    tens from 1e-2 to the first level at most 0.1 eps, each level times
    max(1, |f|). Each level runs L-BFGS until the softmin mixture's
    residual is 0.1 eps, both relative in original units and in normalized
    units, ten times that for each level still to come; a level that
    spends its _STAGE_EVALS budget ends the path, and
    max_iters caps the evaluations in all. Returns the report when the
    witness passes the gap test, None when it does not. sigma is
    _operator_norm(sdp.a_mat), computed here when not given.
    """
    t0 = time.perf_counter()
    a = float(sdp.trace)
    layout = sdp.layout
    c_norm = float(np.linalg.norm(sdp.c)) or 1.0
    if sigma is None:
        sigma = _operator_norm(sdp.a_mat)
    b_norm = float(np.linalg.norm(sdp.b))
    res_scale = sigma * a / (1.0 + b_norm)  # normalized residual norm to relative residual
    history: list[float] | None = [] if cfg.track_residuals else None
    a_s = (sdp.a_mat / sigma).tocsr()
    dual = _SmoothedDual(_Spectrum(layout), sdp.c / c_norm, a_s, sdp.b / (sigma * a), history, res_scale)
    gtol = 0.1 * cfg.eps * min(1.0, 1.0 / res_scale)
    levels = max(1, math.ceil(-math.log10(0.1 * cfg.eps) - 1e-9) - 1)
    u = np.zeros(sdp.n_rows)
    for level in range(levels):
        if dual.evals >= cfg.max_iters:
            return None
        # scaled by |f| at the last point evaluated, u or a step from it
        dual.mu = 10.0 ** -(2 + level) * max(1.0, abs(dual.plain))
        f, g = dual(u)
        budget = min(_STAGE_EVALS, cfg.max_iters - dual.evals)
        spent = dual.evals + budget
        tol = gtol * 10.0 ** (levels - 1 - level)
        # every trace-1 psd X has <c_s, X> <= |c_s| = 1, so f_mu > 2 proves
        # the form infeasible; the dual would run off to infinity
        u, f, g = _lbfgs(dual, u, f, g, tol, budget, dual.mu, floor=-2.0)
        if f < -2.0:
            return None
        if dual.evals >= spent and math.sqrt(g.dot(g)) > tol:  # a smaller mu is only harder
            return None

    x = a * _witness(dual, u, gtol)
    t = dual.evals
    tr = layout.trace(x)
    if abs(tr - a) > cfg.trace_tol * max(1.0, a):
        raise CgalError(f"trace drifted to {tr!r} against constant {a!r} at iteration {t}")
    min_seen = dual.spectrum.floor(x, a, t) if cfg.check_psd else 0.0
    residual = float(np.linalg.norm(sdp.a_mat @ x - sdp.b)) / (1.0 + b_norm)
    objective = float(sdp.c @ x)
    bound = dual_bound(sdp, c_norm * u / sigma)
    if not _certified(residual, objective, bound, cfg.eps):
        return None
    return SolveReport(
        objective=objective,
        residual=residual,
        iterations=t,
        converged=True,
        x=x,
        z=-u,
        runtime=time.perf_counter() - t0,
        min_iterate_eig=min_seen,
        dual_cap_hits=0,
        stop_reason="gap",
        lower_bound=bound,
        gap=objective - bound,
        residual_history=None if history is None else np.array(history),
    )


def _cgal_loop(
    sdp: StandardSdp, cfg: CgalConfig, at_mat: sp.csr_matrix | None = None, sigma: float | None = None
) -> SolveReport:
    """Run CGAL until the gap test passes or max_iters steps are spent.

    The dynamics are run on a normalized copy of the data (objective divided
    by its norm, constraint operator by its largest singular value, trace
    budget 1) so that the penalty weight beta0 = 1 sits in the right regime
    regardless of instance scale; iterates, objective values, and residuals
    are kept and reported in original units throughout.

    Each step's gradient is g = c / |c| + A^T mult, and its least eigenvalue
    lam is what the step already computes. At u = -|c| mult, C - A^T u is
    |c| g, so f(u) = |c| (a lam - b.mult): a certified lower bound at the
    cost of one dot product. The report carries the best such bound, and
    the loop stops when ||A svec(X) - b|| / (1 + ||b||) <= eps and
    |c.x - bound| <= eps (1 + |bound|). max_iters is at least 1. The trace
    of every iterate is checked against the constant; psd is audited per
    block when check_psd is set (iterates are psd by construction, the
    audit guards the arithmetic). at_mat is sdp.a_mat.T as CSR and sigma
    _operator_norm(sdp.a_mat); each is computed here when not given.
    """
    t0 = time.perf_counter()
    a = float(sdp.trace)
    layout = sdp.layout
    a_mat = sdp.a_mat
    if at_mat is None:
        at_mat = a_mat.T.tocsr()
    if sigma is None:
        sigma = _operator_norm(a_mat, at_mat)
    b = sdp.b
    c = sdp.c

    c_norm = float(np.linalg.norm(c)) or 1.0
    c_scaled = c / c_norm
    res_scale = sigma * a

    x = np.zeros(sdp.dim)
    x[layout.diag] = a / sum(sdp.block_sizes)
    z = np.zeros(a_mat.shape[0])
    ax = a_mat @ x
    b_norm = float(np.linalg.norm(b))

    bound = -math.inf
    min_seen = 0.0
    resid_hist: list[float] | None = [] if cfg.track_residuals else None
    cap_hits = 0
    spectrum = _Spectrum(layout)
    beta0, dual_cap, eps = cfg.beta0, cfg.dual_cap, cfg.eps
    trace_bound = cfg.trace_tol * max(1.0, a)
    add_outer, trace = layout.add_outer, layout.trace
    r = (ax - b) / res_scale
    mult = np.empty_like(r)  # the dual multiplier (z + beta r) / sigma

    for t in range(1, cfg.max_iters + 1):
        beta = beta0 * math.sqrt(t + 1.0)
        np.multiply(r, beta, out=mult)
        mult += z
        mult /= sigma
        g = at_mat @ mult
        g += c_scaled
        lam, blk, v = spectrum.least(g, t, cfg.dense_cutoff)
        bound = max(bound, c_norm * (a * lam - b.dot(mult)))

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
        gamma = beta0 if rn_scaled == 0.0 else min(beta0, 4.0 * beta * eta * eta / (rn_scaled * rn_scaled))
        z_new = z + gamma * r
        if math.sqrt(z_new.dot(z_new)) <= dual_cap:
            z = z_new
        else:
            cap_hits += 1

        tr = trace(x)
        if abs(tr - a) > trace_bound:
            raise CgalError(f"trace drifted to {tr!r} against constant {a!r} at iteration {t}")
        if cfg.check_psd:
            min_seen = min(min_seen, spectrum.floor(x, a, t))

        resid_rel = rn_scaled * res_scale / (1.0 + b_norm)
        if resid_hist is not None:
            resid_hist.append(resid_rel)
        converged = _certified(resid_rel, obj, bound, eps)
        if converged:
            break

    return SolveReport(
        objective=obj,
        residual=resid_rel,
        iterations=t,
        converged=converged,
        x=x,
        z=z,
        runtime=time.perf_counter() - t0,
        min_iterate_eig=min_seen,
        dual_cap_hits=cap_hits,
        stop_reason="gap" if converged else "max_iters",
        lower_bound=bound,
        gap=obj - bound,
        residual_history=None if resid_hist is None else np.array(resid_hist),
    )


def solve(sdp: StandardSdp, cfg: CgalConfig | None = None) -> SolveReport:
    """Solve sdp to accuracy eps: the spectral dual path when it applies, else CGAL.

    When eps > 0 and every block is at most dense_cutoff, the spectral dual
    path runs first and returns only a report that passes the gap test.
    When it cannot certify, or a block is larger, the CGAL loop runs. Every
    report carries a certified lower_bound and the gap to its objective,
    and stops on "gap" or "max_iters". Both paths share one transpose of A
    and one operator norm. runtime covers both paths. ValueError
    when max_iters < 1 or eps is negative or not finite.
    """
    cfg = cfg or CgalConfig()
    if cfg.max_iters < 1 or not (math.isfinite(cfg.eps) and cfg.eps >= 0.0):
        raise ValueError(f"need max_iters >= 1 and a finite eps >= 0, got {cfg.max_iters} and {cfg.eps!r}")
    t0 = time.perf_counter()
    at_mat = sdp.a_mat.T.tocsr()
    sigma = _operator_norm(sdp.a_mat, at_mat)
    rep = None
    if cfg.eps > 0 and max(sdp.block_sizes, default=0) <= cfg.dense_cutoff:
        rep = _spectral_dual(sdp, cfg, sigma)
    if rep is None:
        rep = _cgal_loop(sdp, cfg, at_mat, sigma)
    rep.runtime = time.perf_counter() - t0
    return rep
