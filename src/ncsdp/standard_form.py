"""Rescaled standard form of a certified relaxation.

With a constant trace certificate in hand, the relaxation variable becomes
the single block-diagonal matrix X = P D_k(y) P, P = blockdiag(G_i^{1/2}),
which satisfies tr(X) = a on the whole feasible set. The affine constraints
A(X) = b then say exactly that X comes from a moment vector:

  * one pin row fixes the entry carrying y_1 to 1,
  * sharing rows tie every repeated moment entry to the first entry that
    realized its canonical word,
  * localizing rows expand each localizing entry through the moment entries
    that represent its words,
  * equality rows force the entries of equality blocks to vanish,
  * one trace row per clique group beyond the first pins that group's
    partial trace (the total is maintained by the solver itself).

Everything is expressed in svec coordinates: each block's upper triangle,
row-major, with off-diagonal entries scaled by sqrt(2), so that inner
products of symmetric matrices become dot products. `BlockLayout` owns
that format; assembly, the moment maps, the text format and the solver all
go through it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ctp import CtpCertificate
from .relaxation import Relaxation


class BlockLayout:
    """The stacked svec layout of a block-diagonal symmetric matrix.

    Blocks follow each other in order; within block i, position
    offsets[i] + p holds entry (row[p], col[p]), row <= col, of its upper
    triangle in row-major order. scale is sqrt(2) off the diagonal and 1 on
    it: svec(M) = scale * M[row, col]. The per-position arrays block, row,
    col and scale cover all dim positions; diag lists the positions of the
    diagonal entries. Every array is read-only.
    """

    def __init__(self, sizes):
        self.sizes = [int(s) for s in sizes]
        counts = [s * (s + 1) // 2 for s in self.sizes]
        self.offsets = [0, *itertools.accumulate(counts)]
        self.dim = self.offsets[-1]
        self._tris = {s: self._triangle(s) for s in set(self.sizes)}
        self._tri = [self._tris[s] for s in self.sizes]
        self.block = np.repeat(np.arange(len(counts)), counts)
        self.row, self.col, self.scale = (np.concatenate(p) for p in zip(*self._tri))
        self.diag = np.flatnonzero(self.row == self.col)
        for arr in (self.block, self.row, self.col, self.scale, self.diag):
            arr.flags.writeable = False
        # dense gathers, built on first use: per size, the position within a
        # block and the scale of every square entry, and the positions of the
        # (k, s, s) stack of all blocks of that size
        self._squares: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._stacks: dict[int, np.ndarray] = {}

    @staticmethod
    def _triangle(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        iu, ju = np.triu_indices(s)
        return iu, ju, np.where(iu == ju, 1.0, math.sqrt(2.0))

    def index(self, block, r, c):
        """Position of entry (r, c), r <= c, of a block; accepts index arrays."""
        s = np.asarray(self.sizes)[block]
        return np.asarray(self.offsets)[block] + r * s - r * (r - 1) // 2 + (c - r)

    def diag_products(self, diags) -> np.ndarray:
        """d_i[r] * d_i[c] at every position, from one diagonal d_i per block."""
        d = np.concatenate(diags)
        first = np.repeat(np.cumsum([0] + self.sizes[:-1]), np.diff(self.offsets))
        return d[first + self.row] * d[first + self.col]

    def _square(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        sq = self._squares.get(s)
        if sq is None:
            iu, ju, scale = self._triangle(s)
            local = np.empty((s, s), dtype=np.intp)
            local[iu, ju] = local[ju, iu] = np.arange(iu.size)
            sq = self._squares[s] = (local, scale[local])
        return sq

    def matrix(self, x: np.ndarray, i: int) -> np.ndarray:
        """Dense symmetric block i of an svec vector."""
        local, scale = self._square(self.sizes[i])
        return x[self.offsets[i] : self.offsets[i + 1]][local] / scale

    def stack(self, x: np.ndarray, s: int) -> np.ndarray:
        """Dense blocks of size s of an svec vector, in block order, as a (k, s, s) array.

        Entry for entry the same values as matrix(x, i) for each such block i.
        """
        local, scale = self._square(s)
        pos = self._stacks.get(s)
        if pos is None:
            first = np.asarray(self.offsets[:-1])[np.asarray(self.sizes) == s]
            pos = self._stacks[s] = first[:, None, None] + local
        return x[pos] / scale

    def svec(self, mats: np.ndarray) -> np.ndarray:
        """svec of every matrix in a (..., s, s) stack of symmetric matrices, s a block size.

        Row-major upper triangles, (..., s(s+1)/2); the inverse of stack.
        """
        iu, ju, scale = self._tris[mats.shape[-1]]
        return mats[..., iu, ju] * scale

    def add_outer(self, x: np.ndarray, i: int, v: np.ndarray, weight: float) -> None:
        """x += weight * svec(v v^T) placed in block i."""
        iu, ju, scale = self._tri[i]
        x[self.offsets[i] : self.offsets[i + 1]] += weight * scale * v[iu] * v[ju]

    def trace(self, x: np.ndarray) -> float:
        return float(x[self.diag].sum())


@functools.lru_cache(maxsize=8)
def _layout(sizes: tuple[int, ...]) -> BlockLayout:
    # one layout per block-size list: assemble, read_sdp and every solve of
    # the resulting standard form share it
    return BlockLayout(sizes)


@dataclass
class CountStats:
    """Structural statistics of a certified relaxation."""

    omega: int  # number of psd blocks
    smax: int  # largest block size
    zeta: int  # constraint rows excluding per-group trace rows
    amax: float  # largest group trace constant

    def as_dict(self) -> dict:
        return {"omega": self.omega, "smax": self.smax, "zeta": self.zeta, "amax": self.amax}


@dataclass
class StandardSdp:
    """min <C, X> s.t. A svec(X) = b, X psd block-diagonal, tr(X) = trace."""

    block_sizes: list[int]
    c: np.ndarray
    a_mat: sp.csr_matrix
    b: np.ndarray
    trace: float
    zeta: int
    scales: tuple[np.ndarray, ...] | None = None
    rep_entry: np.ndarray | None = None  # svec position of each moment key's representative

    @property
    def layout(self) -> BlockLayout:
        """The svec layout of block_sizes."""
        return _layout(tuple(self.block_sizes))

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def n_rows(self) -> int:
        return self.a_mat.shape[0]


def count_stats(rel: Relaxation, cert: CtpCertificate) -> CountStats:
    """Structural counts without materializing the constraint matrix.

    Every word a localizing or equality entry references factors through a
    moment block of its clique, so the distinct-key count is just
    len(rel.keys); besides the pin, each psd entry but a key's representative
    owns a row. An equality entry whose terms all cancel gives no row.
    """
    zeta = 1 + rel.layout.dim - len(rel.keys) + int(np.count_nonzero(rel.forms[1].firsts()))
    return CountStats(
        omega=len(rel.blocks),
        smax=max(b.size for b in rel.blocks),
        zeta=zeta,
        amax=cert.a_max,
    )


def assemble(rel: Relaxation, cert: CtpCertificate) -> StandardSdp:
    """Materialize the standard form of a certified relaxation.

    Rows are built as (row, svec position, coefficient) terms. The rows up
    to the last localizing row each own one entry of X with weight
    1 / (g_r g_c) in moment scale: the pin owns the representative of the
    empty word, a sharing row its repeated entry, a localizing row its
    localizing entry. Every other term refers to a moment key and lands on
    that key's representative entry, with the same weight.
    """
    layout = rel.layout
    prod = layout.diag_products(cert.block_scales)
    weight = 1.0 / prod
    # a key's representative is its first entry in build's scan (svec order), which numbers
    # keys as it meets them: an entry is a first exactly where the running maximum grows
    moment = np.array([b.is_moment for b in rel.blocks])[layout.block]
    moment_pos = np.flatnonzero(moment)
    moment_keys = np.concatenate(rel.moment_keys)
    dup = np.zeros(moment_keys.size, dtype=bool)
    np.less_equal(moment_keys[1:], np.maximum.accumulate(moment_keys)[:-1], out=dup[1:])
    rep_pos = moment_pos[~dup]
    own_pos = np.concatenate([rep_pos[:1], moment_pos[dup], np.flatnonzero(~moment)])
    n_own = own_pos.size

    # a sharing or localizing row subtracts its entry's form; an equality
    # row is the form of an equality entry that has terms
    psd, eq = rel.forms
    row_of = np.zeros(layout.dim, dtype=np.intp)
    row_of[own_pos[1:]] = np.arange(1, n_own)
    mine = row_of[psd.entry] > 0
    firsts = eq.firsts()
    eq_rows = n_own - 1 + np.cumsum(firsts)
    zeta = nrow = n_own + int(np.count_nonzero(firsts))
    key_rows = np.concatenate([row_of[psd.entry[mine]], eq_rows])
    key_keys = np.concatenate([psd.key[mine], eq.key])
    key_coeffs = np.concatenate([-psd.coeff[mine], eq.coeff])

    # per-group partial traces (all groups but the first; the solver keeps
    # the total trace at its constant)
    groups = np.array([b.group for b in rel.blocks])[layout.block[layout.diag]]
    later = groups > 0
    trace_pos = layout.diag[later]
    nrow += rel.n_groups - 1

    key_pos = rep_pos[key_keys]
    scale = layout.scale
    rows = np.concatenate([np.arange(n_own), key_rows, zeta - 1 + groups[later]])
    cols = np.concatenate([own_pos, key_pos, trace_pos])
    vals = np.concatenate([
        weight[own_pos] / scale[own_pos],
        key_coeffs * weight[key_pos] / scale[key_pos],
        np.ones(trace_pos.size),
    ])
    # no (row, position) pair repeats: a row's keys are distinct, so are
    # their representatives, and an owned entry is never a representative
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nrow))])
    idx = np.int32 if max(nrow, layout.dim, cols.size) < 2**31 else np.int64  # scipy's own choice, made here
    a_mat = sp.csr_matrix((vals[order], cols[order].astype(idx), indptr.astype(idx)), shape=(nrow, layout.dim))

    b = np.zeros(nrow)
    b[0] = 1.0
    b[zeta:] = cert.group_traces[1:]

    c_vec = np.zeros(layout.dim)
    obj_pos = rep_pos[np.array(list(rel.objective), dtype=np.intp)]
    c_vec[obj_pos] = np.array(list(rel.objective.values())) / prod[obj_pos] / scale[obj_pos]

    return StandardSdp(
        block_sizes=rel.block_sizes,
        c=c_vec,
        a_mat=a_mat,
        b=b,
        trace=cert.trace_constant,
        zeta=zeta,
        scales=cert.block_scales,
        rep_entry=rep_pos,
    )


def recover_moments(sdp: StandardSdp, x: np.ndarray) -> np.ndarray:
    """Moment vector read off the representative entries of an svec iterate."""
    if sdp.rep_entry is None or sdp.scales is None:
        raise ValueError("moment recovery requires an assembled standard form")
    layout = sdp.layout
    pos = sdp.rep_entry
    return x[pos] / layout.scale[pos] / layout.diag_products(sdp.scales)[pos]


def x_from_moments(sdp: StandardSdp, rel: Relaxation, y: np.ndarray) -> np.ndarray:
    """svec of P D_k(y) P, the exact feasible image of a moment vector of rel."""
    if sdp.scales is None:
        raise ValueError("requires an assembled standard form")
    layout = sdp.layout
    return rel.forms[0].values(y) * layout.diag_products(sdp.scales) * layout.scale


def write_sdp(sdp: StandardSdp, path: str) -> None:
    """Write the standard form in sparse block text format.

    Layout follows the usual sparse SDP convention: a comment line, the
    number of constraints, the number of blocks, the block sizes, the right
    hand side, then quintuples `t blk i j value` with matrix entries of the
    objective (t = 0) and each constraint (t >= 1), upper triangle only,
    1-based indices. The trace constant and the structural row count ride
    in the comment line so a round trip preserves them.
    """
    layout = sdp.layout
    lines = [f'"trace={sdp.trace!r} zeta={sdp.zeta}']
    lines.append(str(sdp.n_rows))
    lines.append(str(len(sdp.block_sizes)))
    lines.append(" ".join(str(s) for s in sdp.block_sizes))
    lines.append(" ".join(f"{v:.17g}" for v in sdp.b))

    obj = np.flatnonzero(sdp.c)
    coo = sdp.a_mat.tocoo()
    order = np.lexsort((coo.col, coo.row))
    t = np.concatenate([np.zeros(obj.size, dtype=np.intp), coo.row[order] + 1])
    pos = np.concatenate([obj, coo.col[order]])
    val = np.concatenate([sdp.c[obj], coo.data[order]]) / layout.scale[pos]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        chunk = 1 << 16  # bounds the Python objects alive while formatting
        for lo in range(0, pos.size, chunk):
            sl = slice(lo, lo + chunk)
            p = pos[sl]
            entries = zip(
                t[sl].tolist(),
                (layout.block[p] + 1).tolist(),
                (layout.row[p] + 1).tolist(),
                (layout.col[p] + 1).tolist(),
                val[sl].tolist(),
            )
            fh.write("".join(map("%d %d %d %d %.17g\n".__mod__, entries)))


_ENTRY = np.dtype([("t", np.int64), ("blk", np.int64), ("i", np.int64), ("j", np.int64), ("val", float)])


def read_sdp(path: str) -> StandardSdp:
    """Read a standard form written by write_sdp. Solvable but anonymous:
    the moment-recovery maps are not part of the text format.

    Raises ValueError on a malformed file, including an entry outside the
    upper triangle of its block, a constraint index above the row count, or
    a non-finite trace, right hand side or entry.
    """
    trace = 0.0
    zeta = 0
    lines: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith('"') or line.startswith("*"):
                for tok in line[1:].split():
                    if tok.startswith("trace="):
                        trace = float(tok[6:])
                    elif tok.startswith("zeta="):
                        zeta = int(tok[5:])
                continue
            lines.append(line)
    m = int(lines[0]) if lines else 0
    # with no constraints the right hand side line is blank, and so skipped
    head = 4 if m else 3
    if len(lines) < head:
        raise ValueError("file ends inside the header")
    nblocks = int(lines[1])
    sizes = [int(s) for s in lines[2].split()]
    if len(sizes) != nblocks:
        raise ValueError("block size list does not match block count")
    b = np.array([float(v) for v in lines[3].split()] if m else [])
    if b.shape != (m,):
        raise ValueError("right hand side length does not match constraint count")
    if not np.isfinite(trace) or not np.isfinite(b).all():
        bad = "trace" if not np.isfinite(trace) else f"right hand side row {np.argmin(np.isfinite(b)) + 1}"
        raise ValueError(f"non-finite {bad} in the header")
    layout = _layout(tuple(sizes))

    del lines[:head]  # the entry lines remain, until parsed
    ent = np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1) if lines else np.zeros(0, _ENTRY)
    del lines
    t, blk, r, c = (ent[f] for f in ("t", "blk", "i", "j"))
    if not np.isfinite(ent["val"]).all():
        bad = ent[np.argmin(np.isfinite(ent["val"]))].tolist()
        raise ValueError(f"non-finite value in entry '{' '.join(map(str, bad))}'")
    if np.any((t < 0) | (t > m)):
        raise ValueError(f"constraint index outside 0..{m}")
    if np.any((blk < 1) | (blk > nblocks)):
        raise ValueError(f"block index outside 1..{nblocks}")
    blk = blk - 1
    if np.any((r < 1) | (r > c) | (c > np.asarray(sizes, dtype=np.int64)[blk])):
        raise ValueError("entry outside the upper triangle of its block")
    idx = layout.index(blk, r - 1, c - 1)
    sval = ent["val"] * layout.scale[idx]
    obj = t == 0
    c_vec = np.zeros(layout.dim)
    np.add.at(c_vec, idx[obj], sval[obj])
    a_mat = sp.csr_matrix(
        sp.coo_matrix((sval[~obj], (t[~obj] - 1, idx[~obj])), shape=(m, layout.dim))
    )
    return StandardSdp(
        block_sizes=sizes,
        c=c_vec,
        a_mat=a_mat,
        b=b,
        trace=trace,
        zeta=zeta,
    )
