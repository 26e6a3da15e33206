"""Conditional gradient augmented Lagrangian solver for block-diagonal SDPs.

Solves min <C, X> over block psd matrices with tr(X) = a and A svec(X) = b.
Each iteration linearizes the augmented Lagrangian, finds the smallest
eigenpair of the block-diagonal gradient, and moves toward the rank-one
atom a vv* placed in the block that owns the smallest eigenvalue; the trace
constraint is therefore maintained exactly by construction, and every
iterate is a convex combination of psd matrices.

The eigenpair search groups the blocks by size. A 1 x 1 block is read
straight from the gradient, with eigenvector [1]. All blocks of one larger
size up to dense_cutoff are gathered into a (k, s, s) stack and solved by
one stacked eigh (min_eigpair still takes a stack of 1 x 1 blocks, in
closed form); larger blocks run Lanczos one at a time, in block order. The
first block with the least eigenvalue wins, and a non-finite eigenvalue
stops the solve with CgalError.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.linalg import eigh_tridiagonal

from .standard_form import BlockLayout, StandardSdp


class CgalError(Exception):
    """Raised when an iterate violates a maintained invariant."""


@dataclass
class CgalConfig:
    eps: float = 1e-4
    max_iters: int = 200_000
    beta0: float = 1.0
    dual_cap: float = 1e9
    window: int = 50
    seed: int = 0
    dense_cutoff: int = 64
    lanczos_dim: int = 100
    trace_tol: float = 1e-9
    check_psd: bool = False  # per-iteration psd audit; costs an eigh per block
    track_residuals: bool = False  # record the relative residual at every iteration


@dataclass
class SolveReport:
    objective: float
    residual: float
    iterations: int
    converged: bool
    x: np.ndarray
    z: np.ndarray
    runtime: float
    min_iterate_eig: float  # most negative block eigenvalue seen (0 unless audited)
    dual_cap_hits: int  # iterations whose dual update was rejected by dual_cap
    residual_history: np.ndarray | None = None  # per-iteration relative residuals


def _lanczos_smallest(
    matvec,
    size: int,
    v0: np.ndarray,
    tol: float,
    max_restarts: int,
    m: int,
) -> tuple[float, np.ndarray]:
    v = v0
    theta = 0.0
    y = v0
    for _ in range(max_restarts):
        q = v / math.sqrt(v.dot(v))
        big_q = np.zeros((size, m))
        alpha = np.zeros(m)
        beta = np.zeros(m)
        big_q[:, 0] = q
        k = m
        for j in range(m):
            w = matvec(big_q[:, j])
            alpha[j] = float(big_q[:, j] @ w)
            w = w - alpha[j] * big_q[:, j]
            if j > 0:
                w = w - beta[j - 1] * big_q[:, j - 1]
            # full reorthogonalization keeps the basis honest at this scale
            w = w - big_q[:, : j + 1] @ (big_q[:, : j + 1].T @ w)
            beta[j] = math.sqrt(w.dot(w))
            if beta[j] <= 1e-13 * max(1.0, abs(alpha[j])):
                k = j + 1
                break
            if j + 1 < m:
                big_q[:, j + 1] = w / beta[j]
        theta_arr, s = eigh_tridiagonal(
            alpha[:k], beta[: k - 1], select="i", select_range=(0, 0)
        )
        theta = float(theta_arr[0])
        ritz = s[:, 0]
        y = big_q[:, :k] @ ritz
        y = y / math.sqrt(y.dot(y))
        resid = abs(beta[k - 1] * ritz[-1])
        if resid <= tol * max(1.0, abs(theta)):
            return theta, y
        v = y
    return theta, y


def min_eigpair(
    a,
    size: int | None = None,
    tol: float = 1e-10,
    rng: Generator | None = None,
    dense_cutoff: int = 64,
    max_restarts: int = 16,
    lanczos_dim: int = 100,
) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a symmetric matrix or matvec callable.

    Dense matrices at or under the cutoff go straight to eigh. Larger
    matrices and callables run restarted Lanczos with full
    reorthogonalization; convergence is declared when the residual bound
    |beta_m s_m| falls under tol * max(1, |theta|).

    A stack of k symmetric matrices, shape (k, s, s), takes one stacked eigh
    whatever s (1 x 1 matrices in closed form, without eigh) and returns the
    (k,) smallest eigenvalues and their (k, s) eigenvectors, bit for bit what
    the matrices give one at a time.
    """
    if isinstance(a, np.ndarray):
        if a.ndim == 3:
            if a.shape[1] == 1:
                return a[:, 0, 0], np.ones((a.shape[0], 1))
            w, v = np.linalg.eigh(a)
            return w[:, 0], v[:, :, 0]
        size = a.shape[0]
        if size <= dense_cutoff:
            w, v = np.linalg.eigh(a)
            return float(w[0]), v[:, 0]
        matvec = a.__matmul__
    else:
        if size is None:
            raise ValueError("size is required for a matvec callable")
        matvec = a
    if size == 1:
        e1 = np.ones(1)
        return float(matvec(e1)[0]), e1
    if rng is None:
        rng = Generator(Philox(0x5EED))
    v0 = rng.standard_normal(size)
    v0 /= math.sqrt(v0.dot(v0))
    m = min(size, lanczos_dim)
    return _lanczos_smallest(matvec, size, v0, tol, max_restarts, m)


class _BlockEigs:
    """Smallest eigenpair of a block-diagonal matrix in svec form, over all blocks.

    A 1 x 1 block is its own eigenvalue, read from its svec position, with
    eigenvector [1]. Other blocks up to dense_cutoff are solved one size
    class at a time, by one stacked eigh per size. Larger blocks run Lanczos
    one at a time in block order, the order in which they draw their start
    vectors from the rng. The first block, in block order, with the least
    eigenvalue wins.
    """

    def __init__(self, layout: BlockLayout, dense_cutoff: int, lanczos_dim: int):
        sizes = np.asarray(layout.sizes)
        self.layout = layout
        self.dense_cutoff = dense_cutoff
        self.lanczos_dim = lanczos_dim
        self.ones = np.flatnonzero(sizes == 1)
        self.ones_pos = np.asarray(layout.offsets[:-1])[self.ones]
        dense = np.unique(sizes[(sizes > 1) & (sizes <= dense_cutoff)]).tolist()
        self.stacked = [(s, np.flatnonzero(sizes == s)) for s in dense]
        self.lanczos = np.flatnonzero(sizes > max(1, dense_cutoff)).tolist()
        # a block's eigenvector is vecs[i] (-1, i), or row r of the last
        # eigenvectors of size class c (c, r); 1 x 1 blocks keep [1] in vecs
        self.source = [(-1, i) for i in range(sizes.size)]
        for c, (_, blocks) in enumerate(self.stacked):
            for row, i in enumerate(blocks.tolist()):
                self.source[i] = (c, row)
        self.vecs = [np.ones(1)] * sizes.size
        self.stack_vecs = [None] * len(self.stacked)
        self.lam = np.empty(sizes.size)

    def __call__(self, g: np.ndarray, tol: float, rng: Generator, t: int) -> tuple[float, int, np.ndarray]:
        """(eigenvalue, block, eigenvector) of the winning block; t names the iteration in errors."""
        lam = self.lam
        lam[self.ones] = g[self.ones_pos]
        stack = self.layout.stack
        for c, (s, blocks) in enumerate(self.stacked):
            lam[blocks], self.stack_vecs[c] = min_eigpair(stack(g, s))
        offsets = self.layout.offsets
        for i in self.lanczos:
            if not np.isfinite(g[offsets[i] : offsets[i + 1]]).all():
                lam[i] = np.nan  # Lanczos would stop inside SciPy; the check below names the block
                continue
            lam[i], self.vecs[i] = min_eigpair(
                self.layout.matrix(g, i),
                tol=tol,
                rng=rng,
                dense_cutoff=self.dense_cutoff,
                lanczos_dim=self.lanczos_dim,
            )
        if not np.isfinite(lam).all():
            bad = int(np.flatnonzero(~np.isfinite(lam))[0])
            raise CgalError(f"smallest eigenvalue of block {bad} is {float(lam[bad])!r} at iteration {t}")
        blk = int(lam.argmin())
        c, row = self.source[blk]
        return float(lam[blk]), blk, self.vecs[row] if c < 0 else self.stack_vecs[c][row]


def _operator_norm(a_mat) -> float:
    """Largest singular value of a sparse matrix by deterministic power iteration.

    Used only to precondition the solver, so a few correct digits are enough;
    the start vector is fixed to keep solves reproducible.
    """
    m, n = a_mat.shape
    if m == 0 or n == 0:
        return 1.0
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


def solve(sdp: StandardSdp, cfg: CgalConfig | None = None) -> SolveReport:
    """Run the solver until the feasibility and objective-plateau tests pass.

    The dynamics are run on a normalized copy of the data (objective divided
    by its norm, constraint operator by its largest singular value, trace
    budget 1) so that the penalty weight beta0 = 1 sits in the right regime
    regardless of instance scale; iterates, objective values, and residuals
    are kept and reported in original units throughout.

    Stops when ||A svec(X) - b|| / (1 + ||b||) <= eps and the objective has
    settled: the change over the trailing window must be at most
    eps (1 + |obj|), and so must its extrapolation to the remaining tail.
    The objective approaches its limit like C / t, so a drift of d over the
    last w iterations at iteration t projects to a further change of about
    d t / w; without that projection the plateau test fires while the value
    is still many multiples of eps away from its limit. The trace of every
    iterate is checked against the constant; psd is audited per block when
    check_psd is set (iterates are psd by construction, the audit guards
    the arithmetic).
    """
    cfg = cfg or CgalConfig()
    t0 = time.perf_counter()
    a = float(sdp.trace)
    sizes = sdp.block_sizes
    layout = sdp.layout
    a_mat = sdp.a_mat
    at_mat = a_mat.T.tocsr()
    b = sdp.b
    c = sdp.c
    rng = Generator(Philox(cfg.seed))

    c_norm = float(np.linalg.norm(c)) or 1.0
    sigma = _operator_norm(a_mat)
    c_scaled = c / c_norm
    res_scale = sigma * a

    total = sum(sizes)
    x = np.zeros(sdp.dim)
    x[layout.diag] = a / total
    z = np.zeros(a_mat.shape[0])
    ax = a_mat @ x
    b_norm = float(np.linalg.norm(b))

    window: deque[float] = deque(maxlen=cfg.window + 1)
    obj = float(c @ x)
    resid_rel = float(np.linalg.norm(ax - b)) / (1.0 + b_norm)
    converged = False
    min_seen = 0.0
    iters = 0
    resid_hist: list[float] | None = [] if cfg.track_residuals else None
    cap_hits = 0
    block_eigs = _BlockEigs(layout, cfg.dense_cutoff, cfg.lanczos_dim)
    beta0, dual_cap, eps, span = cfg.beta0, cfg.dual_cap, cfg.eps, cfg.window
    trace_bound = cfg.trace_tol * max(1.0, a)
    add_outer, trace = layout.add_outer, layout.trace
    r = (ax - b) / res_scale
    mult = np.empty_like(r)  # the dual multiplier (z + beta r) / sigma

    for t in range(1, cfg.max_iters + 1):
        iters = t
        beta = beta0 * math.sqrt(t + 1.0)
        np.multiply(r, beta, out=mult)
        mult += z
        mult /= sigma
        g = at_mat @ mult
        g += c_scaled
        _, blk, v = block_eigs(g, max(1e-10, 1.0 / (t + 1.0) ** 2), rng, t)

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
        rn = rn_scaled * res_scale

        tr = trace(x)
        if abs(tr - a) > trace_bound:
            raise CgalError(f"trace drifted to {tr!r} against constant {a!r} at iteration {t}")
        if cfg.check_psd:
            for i in range(len(sizes)):
                w = np.linalg.eigvalsh(layout.matrix(x, i))
                min_seen = min(min_seen, float(w[0]))
                if w[0] < -1e-9 * max(1.0, a):
                    raise CgalError(f"iterate lost psd in block {i} at iteration {t}")

        window.append(obj)
        resid_rel = rn / (1.0 + b_norm)
        if resid_hist is not None:
            resid_hist.append(resid_rel)
        if resid_rel <= eps and len(window) == span + 1:
            drift = abs(window[-1] - window[0])
            budget = eps * (1.0 + abs(obj))
            if drift <= budget and drift * (t / span) <= budget:
                converged = True
                break

    return SolveReport(
        objective=obj,
        residual=resid_rel,
        iterations=iters,
        converged=converged,
        x=x,
        z=z,
        runtime=time.perf_counter() - t0,
        min_iterate_eig=min_seen,
        dual_cap_hits=cap_hits,
        residual_history=None if resid_hist is None else np.array(resid_hist),
    )
