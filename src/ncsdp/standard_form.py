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
that format; assembly, the moment map, the text format and the solver all
go through it.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ctp import CtpCertificate
from .relaxation import Relaxation, _upper


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
        tris = {s: self._triangle(s) for s in set(self.sizes)}
        self._tri = [tris[s] for s in self.sizes]
        self.block = np.repeat(np.arange(len(counts)), counts)
        self.row, self.col, self.scale = (np.concatenate(p) for p in zip(*self._tri))
        self.diag = np.flatnonzero(self.row == self.col)
        for arr in (self.block, self.row, self.col, self.scale, self.diag):
            arr.flags.writeable = False

    @staticmethod
    def _triangle(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        iu, ju = _upper(s)
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

    @functools.cached_property
    def squares(self) -> tuple[list[tuple[int, np.ndarray]], np.ndarray, np.ndarray]:
        """Every block as a dense square, one (k, s, s) stack per size, the stacks back to back in one buffer.

        Returns (stacks, place, cells). stacks lists (s, blocks) per size,
        sizes ascending and the k blocks of size s in block order. place
        gives, for every svec position, the buffer index of its entry (row,
        col), row <= col, in the upper triangle of its block's square, and
        cells, for every buffer index of either triangle, its svec position.
        The buffer holds sum k s^2 entries. An svec vector x fills the whole
        buffer as (x / scale)[cells], or only the upper triangles as
        buffer[place] = x / scale; they leave as x = scale * buffer[place].
        Built once per layout; the arrays are read-only.
        """
        sizes = np.asarray(self.sizes)
        stacks, first, at = [], np.empty(sizes.size, dtype=np.intp), 0
        for s in np.unique(sizes).tolist():
            blocks = np.flatnonzero(sizes == s)
            first[blocks] = at + s * s * np.arange(blocks.size)
            stacks.append((s, blocks))
            at += blocks.size * s * s
        start, size = first[self.block], sizes[self.block]
        place = start + self.row * size + self.col
        cells = np.empty(at, dtype=np.intp)
        cells[place] = cells[start + self.col * size + self.row] = np.arange(self.dim)
        for arr in (*(blocks for _, blocks in stacks), place, cells):
            arr.flags.writeable = False
        return stacks, place, cells

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


@dataclass
class StandardSdp:
    """min <C, X> s.t. A svec(X) = b, X psd block-diagonal, tr(X) = trace; write_sdp writes every field."""

    block_sizes: list[int]
    c: np.ndarray
    a_mat: sp.csr_matrix
    b: np.ndarray
    trace: float
    zeta: int

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
    rel.n_keys; besides the pin, each psd entry but a key's representative
    owns a row. An equality entry whose terms all cancel gives no row.
    """
    zeta = 1 + rel.layout.dim - rel.n_keys + int(np.count_nonzero(np.bincount(rel.forms[1].entry)))
    return CountStats(
        omega=len(rel.blocks),
        smax=max(b.size for b in rel.blocks),
        zeta=zeta,
        amax=cert.a_max,
    )


def assemble(rel: Relaxation, cert: CtpCertificate) -> StandardSdp:
    """Materialize the standard form of a certified relaxation.

    Each row's terms are (svec position, coefficient) pairs. The rows up
    to the last localizing row each own one entry of X with weight
    1 / (g_r g_c) in moment scale: the pin owns the representative of the
    empty word, a sharing row its repeated entry, a localizing row its
    localizing entry. Every other term refers to a moment key and lands on
    that key's representative entry, with the same weight: its value is
    coeff * weight[pos] / scale[pos].

    The CSR arrays are filled segment by segment, with no sort over all
    terms. Only the owned rows are sorted, among themselves. The equality
    rows are in (row, position) order as they stand: entry-form triplets
    ascend by entry, then key, and a key's representative position ascends
    with the key, since build numbers keys as its svec scan meets them.
    The trace rows are too: blocks come clique by clique, so diagonal
    positions ascend with the group.
    """
    layout = rel.layout
    prod = layout.diag_products(cert.block_scales)
    weight = 1.0 / prod
    scale = layout.scale
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
    key_weight, key_scale = weight[rep_pos], scale[rep_pos]

    # a sharing or localizing row subtracts its entry's form; an equality
    # row is the form of an equality entry that has terms
    psd, eq = rel.forms
    row_of = np.zeros(layout.dim, dtype=np.intp)
    row_of[own_pos[1:]] = np.arange(1, n_own)
    mine = row_of[psd.entry] > 0
    eq_counts = np.bincount(eq.entry, minlength=eq.size)
    eq_counts = eq_counts[eq_counts > 0]
    zeta = n_own + eq_counts.size
    nrow = zeta + rel.n_groups - 1

    # per-group partial traces (all groups but the first; the solver keeps
    # the total trace at its constant)
    groups = np.array([b.group for b in rel.blocks])[layout.block[layout.diag]]
    later = groups > 0
    trace_pos = layout.diag[later]

    # no (row, position) pair repeats: a row's keys are distinct, so are
    # their representatives, and an owned entry is never a representative
    keys = psd.key[mine]
    rows = np.concatenate([np.arange(n_own), row_of[psd.entry[mine]]])
    cols = np.concatenate([own_pos, rep_pos[keys]])
    vals = np.concatenate([weight[own_pos] / scale[own_pos], -psd.coeff[mine] * key_weight[keys] / key_scale[keys]])
    order = np.lexsort((cols, rows))
    counts = np.concatenate([
        np.bincount(rows, minlength=n_own),
        eq_counts,
        np.bincount(groups[later] - 1, minlength=rel.n_groups - 1),
    ])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    nnz = int(indptr[-1])
    idx = np.int32 if max(nrow, layout.dim, nnz) < 2**31 else np.int64  # scipy's own choice, made here
    data, indices = np.empty(nnz), np.empty(nnz, dtype=idx)
    own = slice(0, rows.size)
    eqs = slice(own.stop, own.stop + eq.key.size)
    tr = slice(eqs.stop, nnz)
    data[own], indices[own] = vals[order], cols[order]
    np.take(rep_pos.astype(idx), eq.key, out=indices[eqs])
    np.take(key_weight, eq.key, out=data[eqs])
    data[eqs] *= eq.coeff  # weight * coeff is coeff * weight, bit for bit
    data[eqs] /= key_scale[eq.key]
    data[tr], indices[tr] = 1.0, trace_pos
    a_mat = sp.csr_matrix((data, indices, indptr.astype(idx)), shape=(nrow, layout.dim))

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
    )


def x_from_moments(rel: Relaxation, cert: CtpCertificate, y: np.ndarray) -> np.ndarray:
    """svec of P D_k(y) P, the exact image of a moment vector of rel in the standard form of assemble(rel, cert)."""
    layout = rel.layout
    return rel.forms[0].values(y) * layout.diag_products(cert.block_scales) * layout.scale


_ENTRY = np.dtype([("t", np.int64), ("blk", np.int64), ("i", np.int64), ("j", np.int64), ("val", float)])
_CHUNK = 1 << 16  # entry lines per piece, written or parsed: bounds the memory each holds


def _strings(keys: np.ndarray, fmt: str, args=np.ndarray.tolist) -> np.ndarray:
    """fmt % a for a in args(distinct keys), each formatted once, at every key's place.

    An object array of keys' shape; its strings are shared, not copied.
    """
    distinct, at = np.unique(keys, return_inverse=True)
    return np.array([fmt % a for a in args(distinct)], dtype=object)[at]


def _float_strings(values: np.ndarray, fmt: str) -> np.ndarray:
    """_strings of floats, told apart by bit pattern so that -0.0 stays -0."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.uint64)
    return _strings(bits, fmt, lambda d: d.view(float).tolist())


def write_sdp(sdp: StandardSdp, path: str) -> None:
    """Write the standard form in sparse block text format.

    Layout follows the usual sparse SDP convention: a comment line, the
    number of constraints, the number of blocks, the block sizes, the right
    hand side, then quintuples `t blk i j value` with matrix entries of the
    objective (t = 0) and each constraint (t >= 1), upper triangle only,
    1-based indices, values as %.17g. The trace constant and the structural
    row count ride in the comment line so a round trip preserves them.
    read_sdp also takes comment lines (first character " or *) and blank
    lines anywhere; the last trace= and zeta= tokens win.

    Entries are written in chunks of 64k. Within a chunk each distinct
    constraint index, block, (i, j) pair and value is formatted once, and
    the chunk's text is one join of those strings.
    """
    layout = sdp.layout
    lines = [f'"trace={sdp.trace!r} zeta={sdp.zeta}']
    lines.append(str(sdp.n_rows))
    lines.append(str(len(sdp.block_sizes)))
    lines.append(" ".join(str(s) for s in sdp.block_sizes))
    lines.append(" ".join(_float_strings(sdp.b, "%.17g").tolist()))

    obj = np.flatnonzero(sdp.c)
    coo = sdp.a_mat.tocoo()
    order = np.lexsort((coo.col, coo.row))
    t = np.concatenate([np.zeros(obj.size, dtype=np.intp), coo.row[order] + 1])
    pos = np.concatenate([obj, coo.col[order]])
    val = np.concatenate([sdp.c[obj], coo.data[order]]) / layout.scale[pos]
    side = max(sdp.block_sizes, default=1)  # (i, j) is the key i * side + j, 0-based

    def pair(keys):
        return zip((keys // side + 1).tolist(), (keys % side + 1).tolist())

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        for lo in range(0, pos.size, _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            p = pos[sl]
            text = np.stack([
                _strings(t[sl], "%d "),
                _strings(layout.block[p] + 1, "%d "),
                _strings(layout.row[p] * side + layout.col[p], "%d %d ", pair),
                _float_strings(val[sl], "%.17g\n"),
            ], axis=1)
            fh.write("".join(text.ravel().tolist()))


def _data_lines(fh, meta: dict):
    """Stripped lines of fh from its position on, comment and blank lines left out.

    A comment line starts with " or *; each trace= or zeta= token in one is
    stored in meta, a later token over an earlier one.
    """
    for raw in fh:
        line = raw.strip()
        if line.startswith(('"', "*")):
            for tok in line[1:].split():
                if tok.startswith("trace="):
                    meta["trace"] = float(tok[6:])
                elif tok.startswith("zeta="):
                    meta["zeta"] = int(tok[5:])
        elif line:
            yield line


def _header(lines, meta: dict) -> tuple[int, list[int], np.ndarray]:
    """Constraint count, block sizes and right hand side from the first data lines.

    ValueError also on a block size below 1, and when meta's trace or the
    right hand side is not finite.
    """
    header = list(itertools.islice(lines, 1))
    m = int(header[0]) if header else 0
    # with no constraints the right hand side line is blank, and so skipped
    head = 4 if m else 3
    header += itertools.islice(lines, head - len(header))
    if len(header) < head:
        raise ValueError("file ends inside the header")
    nblocks = int(header[1])
    sizes = [int(s) for s in header[2].split()]
    if len(sizes) != nblocks:
        raise ValueError("block size list does not match block count")
    if min(sizes, default=1) < 1:
        raise ValueError(f"block size {min(sizes)} below 1")
    b = np.array([float(v) for v in header[3].split()] if m else [])
    if b.shape != (m,):
        raise ValueError("right hand side length does not match constraint count")
    if not np.isfinite(meta["trace"]) or not np.isfinite(b).all():
        bad = "trace" if not np.isfinite(meta["trace"]) else f"right hand side row {np.argmin(np.isfinite(b)) + 1}"
        raise ValueError(f"non-finite {bad} in the header")
    return m, sizes, b


def _entry_chunks(fh):
    """The entry lines of fh from its position on, parsed _CHUNK rows at a time."""
    while True:
        part = np.loadtxt(fh, dtype=_ENTRY, comments=None, ndmin=1, max_rows=_CHUNK)
        yield part
        if part.size < _CHUNK:
            return


def _entries(parts, layout: BlockLayout, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row (-1 for the objective), svec position and svec value of every entry.

    parts are pieces of the parsed entry table, in file order. ValueError
    names the fault a check over the whole table meets first: a non-finite
    value (the first such entry), a constraint index, a block index, then an
    entry outside the upper triangle of its block. Once a piece has a fault,
    the rest are only checked.
    """
    sizes = np.asarray(layout.sizes, dtype=np.int64)
    faults: list[str | None] = [None] * 4
    out = []
    for ent in parts:
        t, blk, r, c, val = (ent[f] for f in _ENTRY.names)
        finite = np.isfinite(val)
        if faults[0] is None and not finite.all():
            bad = ent[np.argmin(finite)].tolist()
            faults[0] = f"non-finite value in entry '{' '.join(map(str, bad))}'"
        if np.any((t < 0) | (t > m)):
            faults[1] = f"constraint index outside 0..{m}"
        if np.any((blk < 1) | (blk > sizes.size)):
            faults[2] = f"block index outside 1..{sizes.size}"
            continue
        blk = blk - 1
        if np.any((r < 1) | (r > c) | (c > sizes[blk])):
            faults[3] = "entry outside the upper triangle of its block"
        if not any(faults):
            idx = layout.index(blk, r - 1, c - 1)
            out.append((t - 1, idx, val * layout.scale[idx]))
    fault = next((f for f in faults if f), None)
    if fault:
        raise ValueError(fault)
    return tuple(np.concatenate(x) for x in zip(*out))


def read_sdp(path: str) -> StandardSdp:
    """Read a standard form written by write_sdp.

    Comment lines (first character " or *) and blank lines may appear
    anywhere; a trace= or zeta= token in any comment line counts, and the
    last one wins. np.loadtxt parses the entry lines straight from the open
    file, _CHUNK rows at a time, so neither a list of lines nor the whole
    parsed table is ever held.

    Raises ValueError on a malformed file, including an entry outside the
    upper triangle of its block, a constraint index above the row count, a
    block size below 1, or a non-finite trace, right hand side or entry.
    """
    with warnings.catch_warnings(), open(path) as fh:
        # loadtxt's notes on an empty table and on blank lines under max_rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data", UserWarning)
        try:
            meta = {"trace": 0.0, "zeta": 0}
            m, sizes, b = _header(_data_lines(fh, meta), meta)
            layout = _layout(tuple(sizes))
            # with comments=None loadtxt parses at C speed and skips blank
            # lines; a comment line among the entries fails it, so on success
            # the header's trace= and zeta= are the last ones
            row, idx, sval = _entries(_entry_chunks(fh), layout, m)
        except ValueError:
            # comment lines among the entries, or a fault: read again so that
            # faults are told in a fixed order (comment tokens anywhere, the
            # header, its numbers, then the entry lines as one table, rows
            # counted over the entry lines alone, then the entries)
            fh.seek(0)
            meta = {"trace": 0.0, "zeta": 0}
            for _ in _data_lines(fh, meta):
                pass
            fh.seek(0)
            lines = _data_lines(fh, {})
            m, sizes, b = _header(lines, meta)
            layout = _layout(tuple(sizes))
            row, idx, sval = _entries([np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1)], layout, m)
    obj = row < 0
    c_vec = np.zeros(layout.dim)
    np.add.at(c_vec, idx[obj], sval[obj])
    con = ~obj
    a_mat = sp.csr_matrix((sval[con], (row[con], idx[con])), shape=(m, layout.dim))
    return StandardSdp(
        block_sizes=sizes,
        c=c_vec,
        a_mat=a_mat,
        b=b,
        trace=meta["trace"],
        zeta=meta["zeta"],
    )
