"""Reference implementations that the tests compare the library against.

Each one is the plain loop or dense gather that an array pass in `src/`
replaced, kept here so results can be checked entry for entry.
"""

from __future__ import annotations

import numpy as np

from ncsdp.free_algebra import NcPolynomial, SymmetryMode, Word, WordBasis, canonicalize


def scan_keys(cliques, order: int, mode: SymmetryMode) -> tuple[list[Word], list[list[int]]]:
    """Moment keys by the per-entry scan: canonicalize every moment entry's word and
    number the words with dict.setdefault in first-encounter order (cliques in order,
    upper triangles row-major). Returns the key words and each clique's entry keys."""
    key_index: dict[Word, int] = {}
    moment_keys = []
    for letters in cliques:
        words = WordBasis(letters, order).words
        moment_keys.append([
            key_index.setdefault(canonicalize(words[r][::-1] + words[c], mode), len(key_index))
            for r in range(len(words))
            for c in range(r, len(words))
        ])
    return list(key_index), moment_keys


def riesz(p: NcPolynomial, key_index: dict[Word, int], mode: SymmetryMode) -> dict[int, float]:
    """Linear form of the Riesz functional of p over canonical moment indices."""
    out: dict[int, float] = {}
    for w, c in p.terms.items():
        key = key_index[canonicalize(w, mode)]
        out[key] = out.get(key, 0.0) + c
    return {k: c for k, c in out.items() if c != 0.0}


def layout_matrix(layout, x: np.ndarray, i: int) -> np.ndarray:
    """Dense symmetric block i of an svec vector."""
    s, at = layout.sizes[i], slice(layout.offsets[i], layout.offsets[i + 1])
    iu, ju = np.triu_indices(s)
    out = np.empty((s, s))
    out[iu, ju] = out[ju, iu] = x[at] / layout.scale[at]
    return out


def block_matrix(rel, block_index: int, y: np.ndarray) -> np.ndarray:
    """One psd block of a relaxation evaluated at a moment vector."""
    s = rel.blocks[block_index].size
    iu, ju = np.triu_indices(s)
    out = np.empty((s, s))
    out[iu, ju] = out[ju, iu] = rel.forms[0].values(y)[rel.layout.offsets[block_index] :][: iu.size]
    return out


def write_sdp_per_entry(sdp, path: str) -> None:
    """The standard-form text file, each entry line %-formatted on its own."""
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
        for k, p in enumerate(pos.tolist()):
            fh.write("%d %d %d %d %.17g\n" % (t[k], layout.block[p] + 1, layout.row[p] + 1, layout.col[p] + 1, val[k]))
