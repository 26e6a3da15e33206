import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncsdp.ctp import PROV_LP, certify
from ncsdp.free_algebra import NcPolynomial, SymmetryMode
from ncsdp.generator import gen_dense, gen_sparse
from ncsdp.relaxation import Problem, build, minimal_order, moment_vector_from_evaluation
from ncsdp.sparsity import dense_decomposition
from ncsdp.standard_form import (
    BlockLayout,
    StandardSdp,
    assemble,
    count_stats,
    read_sdp,
    recover_moments,
    write_sdp,
    x_from_moments,
)
from oracles import assemble_by_lexsort, cancelling_problem, layout_matrix, objective_value, write_sdp_per_entry


def ball_problem(n: int) -> Problem:
    x = [NcPolynomial.letter(n, j) for j in range(1, n + 1)]
    g = NcPolynomial.constant(n, 1.0) - sum(
        (xi * xi for xi in x), NcPolynomial.zero(n)
    )
    return Problem(n=n, objective=sum(x, NcPolynomial.zero(n)), inequalities=[g])


def svec_to_blocks(sdp, x):
    return [layout_matrix(sdp.layout, x, i) for i in range(len(sdp.block_sizes))]


def random_contraction_tuple(n: int, dim: int, rng) -> list[np.ndarray]:
    mats = []
    for _ in range(n):
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2
        mats.append(a)
    norm = np.sqrt(sum(np.linalg.norm(m, 2) ** 2 for m in mats))
    return [m / (norm * 1.01) for m in mats]


def test_svec_index_layout():
    sizes = [3, 2, 1]
    layout = BlockLayout(sizes)
    entries = [(b, r, c) for b, s in enumerate(sizes) for r in range(s) for c in range(r, s)]
    assert list(zip(layout.block.tolist(), layout.row.tolist(), layout.col.tolist())) == entries
    assert layout.offsets == [0, 6, 9, 10]
    assert layout.dim == 10
    assert layout.diag.tolist() == [0, 3, 5, 6, 8, 9]
    assert [layout.index(b, r, c) for b, r, c in entries] == list(range(10))
    assert layout.index(layout.block, layout.row, layout.col).tolist() == list(range(10))
    off = layout.row != layout.col
    assert np.all(layout.scale[off] == np.sqrt(2.0))
    assert np.all(layout.scale[~off] == 1.0)
    # dense gather, rank-one scatter and trace
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    a = a + a.T
    x = np.zeros(layout.dim)
    x[:6] = a[layout.row[:6], layout.col[:6]] * layout.scale[:6]
    assert np.allclose(layout_matrix(layout, x, 0), a, rtol=0, atol=1e-15)
    v = rng.standard_normal(2)
    layout.add_outer(x, 1, v, 2.5)
    assert np.allclose(layout_matrix(layout, x, 1), 2.5 * np.outer(v, v), rtol=0, atol=1e-14)
    assert layout.trace(x) == pytest.approx(np.trace(a) + 2.5 * (v @ v), abs=1e-13)
    # the squares buffer holds the 1 x 1, 2 x 2 and 3 x 3 stacks in turn;
    # place is onto their upper triangles, and scale * buffer[place] gives x back
    x[9] = 4.0
    stacks, place, cells = layout.squares
    assert layout.squares is layout.squares
    assert [(s, blocks.tolist()) for s, blocks in stacks] == [(1, [2]), (2, [1]), (3, [0])]
    buf = np.zeros(1 + 4 + 9)
    buf[place] = x / layout.scale
    assert buf[0] == 4.0
    assert np.array_equal(np.triu(buf[1:5].reshape(2, 2)), np.triu(layout_matrix(layout, x, 1)))
    assert np.allclose(buf[5:].reshape(3, 3)[np.triu_indices(3)], a[np.triu_indices(3)], rtol=0, atol=1e-15)
    assert np.count_nonzero(buf) == np.count_nonzero(x)
    assert np.allclose(layout.scale * buf[place], x, rtol=1e-15, atol=0)
    # cells takes every buffer entry, either triangle, back to its svec position
    assert cells.size == buf.size
    assert np.array_equal(cells[place], np.arange(layout.dim))
    mixed = BlockLayout([3, 1, 4, 1, 2, 4, 1])
    stacks, place, cells = mixed.squares
    x = rng.standard_normal(mixed.dim)
    full, at = (x / mixed.scale)[cells], 0
    for s, blocks in stacks:
        for i in blocks.tolist():
            assert np.array_equal(full[at : at + s * s].reshape(s, s), layout_matrix(mixed, x, i))
            at += s * s
    assert at == full.size
    assert np.array_equal(cells[place], np.arange(mixed.dim))


def test_moment_representatives():
    rel = build(ball_problem(2), order=2)
    sdp = assemble(rel, certify(rel))
    layout = sdp.layout
    moment_pos = np.flatnonzero([rel.blocks[b].is_moment for b in layout.block])
    scan = np.concatenate(rel.moment_keys).tolist()
    key_at = dict(zip(moment_pos.tolist(), scan))
    rep = sdp.rep_entry.tolist()
    assert len(rep) == len(rel.keys)
    assert rep[0] == 0
    for key, pos in enumerate(rep):
        # the first entry of the scan that carries the key
        assert pos == moment_pos[scan.index(key)]
    moment_ut = sum(
        b.size * (b.size + 1) // 2 for b in rel.blocks if b.is_moment
    )
    dup = sorted(set(key_at) - set(rep))
    assert len(dup) == moment_ut - len(rel.keys)
    # sharing row i ties the i-th repeated entry of the scan to its key's
    # representative; both carry the key
    weight = 1.0 / layout.diag_products(sdp.scales) / layout.scale
    for row, pos in enumerate(dup, start=1):
        a_row = sdp.a_mat.getrow(row)
        assert sorted(a_row.indices.tolist()) == sorted([pos, rep[key_at[pos]]])
        assert a_row[0, pos] == weight[pos]
        assert a_row[0, rep[key_at[pos]]] == -weight[rep[key_at[pos]]]


def test_count_stats_ball_by_hand():
    rel = build(ball_problem(2), order=1)
    cert = certify(rel)
    stats = count_stats(rel, cert)
    # moment 3x3 contributes 6 entries carrying 6 distinct words, the
    # localizing 1x1 block adds one row, the pin adds the other
    assert stats.omega == 2
    assert stats.smax == 3
    assert stats.zeta == 2
    assert stats.amax == 2.0


def _sdp_digest(prob, mode, path) -> str:
    rel = build(prob, order=2, mode=mode)
    cert = certify(rel)
    assert all(p.endswith("closed-form") for p in cert.provenances)
    write_sdp(assemble(rel, cert), path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize(
    "case, digest",
    [
        ("ball-eig", "027f02c497bc721cca568c914ed11111d214c915f6c1c879678c56e73c2fb259"),
        ("ball-trace", "253e5df9ea9235330fe8fa9c51315db6779f3e582e80a11b1ca158a3bdd3f1bd"),
        ("polydisc-eig", "b1eadad6bd0c5f484979c57ff5aabe0694a698881d7c0d017882aba31e054f50"),
        ("chain-trace", "bbb8fa6c721896dadef84432ec380d93fb14c5916265b146c6e5250b95758fd2"),
    ],
)
def test_write_sdp_golden_bytes(case, digest, tmp_path):
    # digests of files written by the per-entry assembly this one replaced
    kind, mode = case.split("-")
    mode = SymmetryMode.STAR_ONLY if mode == "eig" else SymmetryMode.STAR_CYCLIC
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the chain is clamped to its letters
        prob = {
            "ball": lambda: ball_problem(2),
            "polydisc": lambda: gen_dense(2, "polydisc", seed=0),
            "chain": lambda: gen_sparse(6, 3, l=2, seed=1),
        }[kind]()
    assert _sdp_digest(prob, mode, str(tmp_path / "x.sdp")) == digest


@st.composite
def _small_problems(draw):
    n = draw(st.integers(1, 3))
    letters = [NcPolynomial.letter(n, j) for j in range(1, n + 1)]
    coeff = st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0])

    def poly(degree):
        # small integer-like coefficients, so terms can merge and cancel
        words = draw(st.lists(st.lists(st.integers(1, n), max_size=degree).map(tuple), max_size=4))
        p = NcPolynomial.zero(n)
        for w in words:
            p = p + NcPolynomial(n, {w: draw(coeff)})
        return p + p.star()

    ball = NcPolynomial.constant(n, 1.0) - sum((x * x for x in letters), NcPolynomial.zero(n))
    prob = Problem(
        n=n,
        objective=poly(2),
        inequalities=[ball],
        equalities=[poly(3) for _ in range(draw(st.integers(0, 2)))],
    )
    order = draw(st.integers(max(1, minimal_order(prob)), 2))
    return prob, order


@settings(max_examples=40, deadline=None)
@given(
    case=st.one_of(
        _small_problems(),
        st.tuples(st.integers(4, 7), st.integers(2, 3), st.integers(0, 3), st.integers(0, 99)).map(
            lambda t: (gen_sparse(t[0], t[1], l=t[2], seed=t[3]), 1)
        ),
    ),
    mode=st.sampled_from(list(SymmetryMode)),
)
@pytest.mark.filterwarnings("ignore:clique chain")
def test_count_stats_matches_assemble_property(case, mode):
    prob, order = case
    rel = build(prob, order, mode)
    cert = certify(rel)
    stats = count_stats(rel, cert)
    sdp = assemble(rel, cert)
    assert stats.zeta == sdp.zeta
    assert stats.omega == len(sdp.block_sizes)
    assert stats.smax == max(sdp.block_sizes)
    assert sdp.n_rows == stats.zeta + rel.n_groups - 1


# (problem, order, dense layout)
ASSEMBLE_CASES = {
    "ball-eq": (lambda: gen_dense(3, "ball", l=2, seed=0), 2, False),
    "polydisc-eq": (lambda: gen_dense(3, "polydisc", l=2, seed=1), 2, False),
    "cancel": (cancelling_problem, 3, False),
    "lp": (lambda: gen_sparse(6, 3, seed=2), 1, True),
    "chain": (lambda: gen_sparse(9, 3, l=3, seed=1), 2, False),
}


@pytest.mark.filterwarnings("ignore:clique chain")
@pytest.mark.parametrize("mode", [SymmetryMode.STAR_ONLY, SymmetryMode.STAR_CYCLIC])
@pytest.mark.parametrize("name", sorted(ASSEMBLE_CASES))
def test_assemble_matches_lexsort_oracle(name, mode):
    make, order, dense = ASSEMBLE_CASES[name]
    prob = make()
    rel = build(prob, order, mode, decomp=dense_decomposition(prob) if dense else None)
    cert = certify(rel)
    if name == "lp":
        assert PROV_LP in cert.provenances
    if name == "chain":
        # a localizing block of one clique comes before the next clique's moment
        # block, so the owned rows do not follow svec order
        moment = [b.is_moment for b in rel.blocks]
        assert rel.n_groups > 1 and moment.index(False) < len(moment) - moment[::-1].index(True)
    got, ref = assemble(rel, cert), assemble_by_lexsort(rel, cert)
    assert got.a_mat.shape == ref.a_mat.shape and got.zeta == ref.zeta
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got.a_mat, part), getattr(ref.a_mat, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
    for part in ("b", "c", "rep_entry"):
        a, b = getattr(got, part), getattr(ref, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def test_assemble_peak_memory_is_a_small_multiple_of_its_output():
    # 36,048 nonzeros, 34,155 of them in five dense equality blocks; a sort over all
    # terms (the oracle) peaks at 6.8 times the output
    rel = build(gen_dense(10, "ball", l=5, seed=0), 2)
    cert = certify(rel)
    rel.forms  # built once per relaxation, before assemble
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sdp = assemble(rel, cert)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    a = sdp.a_mat
    out = sum(x.nbytes for x in (a.data, a.indices, a.indptr, sdp.b, sdp.c, sdp.rep_entry))
    assert len(rel.forms[1].key) > 0.9 * a.nnz
    assert peak <= 3.5 * out


def test_count_stats_matches_assembled_rows():
    for prob, order in ((ball_problem(2), 2), (gen_dense(3, "ball", seed=1), 1)):
        rel = build(prob, order)
        cert = certify(rel)
        sdp = assemble(rel, cert)
        stats = count_stats(rel, cert)
        assert sdp.zeta == stats.zeta
        assert sdp.n_rows == stats.zeta + rel.n_groups - 1
        assert sdp.block_sizes == rel.block_sizes
        assert max(sdp.block_sizes) == stats.smax
        assert len(sdp.block_sizes) == stats.omega


def test_feasible_point_satisfies_standard_form():
    prob = ball_problem(2)
    rel = build(prob, order=2)
    cert = certify(rel)
    sdp = assemble(rel, cert)
    rng = np.random.default_rng(8)
    mats = random_contraction_tuple(2, 3, rng)
    v = rng.standard_normal(3)
    y = moment_vector_from_evaluation(rel, mats, v=v)
    x = x_from_moments(sdp, rel, y)
    assert np.abs(sdp.a_mat @ x - sdp.b).max() <= 1e-10
    assert sdp.b[0] == 1.0
    # objective transfers through the rescaling
    assert float(sdp.c @ x) == pytest.approx(objective_value(rel, y), abs=1e-12)
    # constant trace on the feasible set
    blocks = svec_to_blocks(sdp, x)
    assert sum(np.trace(m) for m in blocks) == pytest.approx(sdp.trace, abs=1e-10)
    for m in blocks:
        assert np.linalg.eigvalsh(m).min() >= -1e-10
    # the moment map inverts on representatives
    assert np.abs(recover_moments(sdp, x) - y).max() <= 1e-12


def test_zero_matrices_give_feasible_point():
    prob = ball_problem(3)
    rel = build(prob, order=1)
    sdp = assemble(rel, certify(rel))
    y = np.zeros(len(rel.keys))
    y[0] = 1.0
    x = x_from_moments(sdp, rel, y)
    assert np.abs(sdp.a_mat @ x - sdp.b).max() <= 1e-12
    blocks = svec_to_blocks(sdp, x)
    assert sum(np.trace(m) for m in blocks) == pytest.approx(sdp.trace)


@pytest.mark.filterwarnings("ignore:clique chain")
def test_group_trace_rows():
    prob = gen_sparse(9, 4, l=0, seed=3)
    rel = build(prob, order=1)
    cert = certify(rel)
    sdp = assemble(rel, cert)
    assert rel.n_groups == 2
    assert sdp.n_rows == sdp.zeta + 1
    assert sdp.b[-1] == pytest.approx(cert.group_traces[1])
    anchor = prob.anchor
    mats = [np.array([[float(t)]]) for t in anchor]
    y = moment_vector_from_evaluation(rel, mats, v=np.ones(1))
    x = x_from_moments(sdp, rel, y)
    assert np.abs(sdp.a_mat @ x - sdp.b).max() <= 1e-9
    blocks = svec_to_blocks(sdp, x)
    g1 = sum(
        np.trace(m) for m, blk in zip(blocks, rel.blocks) if blk.group == 1
    )
    assert g1 == pytest.approx(cert.group_traces[1], abs=1e-9)


def test_write_read_round_trip(tmp_path):
    rel = build(ball_problem(2), order=2)
    sdp = assemble(rel, certify(rel))
    path = str(tmp_path / "ball.sdp")
    write_sdp(sdp, path)
    back = read_sdp(path)
    assert back.block_sizes == sdp.block_sizes
    assert back.trace == sdp.trace
    assert back.zeta == sdp.zeta
    assert np.allclose(back.b, sdp.b)
    assert np.abs(back.c - sdp.c).max() <= 1e-14
    assert np.abs((back.a_mat - sdp.a_mat).toarray()).max() <= 1e-14
    # the reread instance solves the same feasibility system
    y = np.zeros(len(rel.keys))
    y[0] = 1.0
    x = x_from_moments(sdp, rel, y)
    assert np.abs(back.a_mat @ x - back.b).max() <= 1e-12
    with pytest.raises(ValueError):
        recover_moments(back, x)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_write_read_round_trip_property(tmp_path, data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="sizes")
    layout = BlockLayout(sizes)
    m = data.draw(st.integers(0, 5), label="m")
    entry = st.one_of(st.just(0.0), _FLOATS)
    a_dense = data.draw(arrays(float, (m, layout.dim), elements=entry), label="A")
    c = data.draw(st.one_of(st.just(np.zeros(layout.dim)), arrays(float, layout.dim, elements=entry)), label="c")
    b = data.draw(arrays(float, m, elements=_FLOATS), label="b")
    sdp = StandardSdp(
        block_sizes=sizes,
        c=c,
        a_mat=sp.csr_matrix(a_dense),
        b=b,
        trace=data.draw(_FLOATS, label="trace"),
        zeta=data.draw(st.integers(0, m), label="zeta"),
    )
    path = str(tmp_path / "prop.sdp")
    write_sdp(sdp, path)
    back = read_sdp(path)
    assert back.block_sizes == sizes
    assert back.trace == sdp.trace
    assert back.zeta == sdp.zeta
    assert np.array_equal(back.b, b)
    # the file holds matrix entries, so an off-diagonal value comes back as
    # (v / sqrt 2) * sqrt 2, which differs from v in the last bit for about
    # one float in seven; nothing else may change
    assert np.array_equal(back.c, c / layout.scale * layout.scale)
    assert np.array_equal(back.a_mat.toarray(), a_dense / layout.scale * layout.scale)


def test_read_sdp_rejects_malformed(tmp_path):
    path = tmp_path / "bad.sdp"
    head = '"trace=2.0 zeta=1\n1\n2\n2 1\n1.0\n'
    cases = [
        ('"trace=2.0 zeta=2\n1\n2\n3\n1.0\n', "block size"),
        ('"trace=2.0\n1\n2\n', "header"),
        ('"trace=2.0\n1\n1\n2\n', "header"),  # one constraint but no right hand side
        (head + "1 1 1 3 1.0\n", "upper triangle"),  # column past the block
        (head + "1 1 2 1 1.0\n", "upper triangle"),  # lower triangle
        (head + "1 1 0 1 1.0\n", "upper triangle"),
        (head + "1 0 1 1 1.0\n", "block index"),
        (head + "1 3 1 1 1.0\n", "block index"),
        (head + "2 1 1 1 1.0\n", "constraint index"),
        (head + "-1 1 1 1 1.0\n", "constraint index"),
        (head + "1 1 1 1\n", "columns"),
    ]
    for text, match in cases:
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_sdp(str(path))
    # non-finite numbers are malformed too; each error names the part
    for text, match in (
        (head.replace("trace=2.0", "trace=nan") + "1 1 1 1 1.0\n", "non-finite trace in the header"),
        (head.replace("\n1.0\n", "\ninf\n") + "1 1 1 1 1.0\n", "non-finite right hand side row 1"),
        (head + "0 1 1 1 nan\n1 1 1 2 inf\n", "non-finite value in entry '0 1 1 1 nan'"),
        (head + "0 1 1 1 2.0\n1 1 1 2 -inf\n", "non-finite value in entry '1 1 1 2 -inf'"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_sdp(str(path))
    # comment and blank lines may sit anywhere
    path.write_text('* c\n"trace=2.0 zeta=1\n\n1\n2\n2 1\n1.0\n0 1 1 2 0.5\n\n* note\n1 2 1 1 3.0\n')
    back = read_sdp(str(path))
    assert back.c.tolist() == [0.0, 0.5 * np.sqrt(2.0), 0.0, 0.0]
    assert back.a_mat.toarray().tolist() == [[0.0, 0.0, 0.0, 3.0]]


_HEAD = '"trace=2.0 zeta=1\n1\n2\n2 1\n1.0\n'


def _read_text(tmp_path, text: str, newline: str | None = None):
    path = tmp_path / "edge.sdp"
    with open(path, "w", newline=newline) as fh:
        fh.write(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty entry section is not a loadtxt "no data" warning
        return read_sdp(str(path))


def test_read_sdp_comments_between_entries(tmp_path):
    # a " and a * comment among the entries; the last trace= and zeta= tokens win
    back = _read_text(tmp_path, _HEAD + '0 1 1 2 0.5\n"trace=3.5 zeta=4 note\n\n1 2 1 1 3.0\n* trace=5.0\n')
    assert (back.trace, back.zeta) == (5.0, 4)
    assert back.c.tolist() == [0.0, 0.5 * np.sqrt(2.0), 0.0, 0.0]
    assert back.a_mat.toarray().tolist() == [[0.0, 0.0, 0.0, 3.0]]


def test_read_sdp_line_endings_and_whitespace(tmp_path):
    plain = _read_text(tmp_path, _HEAD + "0 1 1 2 0.5\n1 2 1 1 3.0\n")
    for text in (
        (_HEAD + "0 1 1 2 0.5\n1 2 1 1 3.0\n").replace("\n", "\r\n"),
        _HEAD + "0\t1 1 2\t0.5\n  1 2 1 1 3.0  \t",  # tabs, padding and no final newline
        (_HEAD + "0 1 1 2 0.5\n1 2 1 1 3.0").replace("\n", "\r\n"),
    ):
        back = _read_text(tmp_path, text, newline="")
        assert (back.trace, back.zeta, back.block_sizes) == (plain.trace, plain.zeta, plain.block_sizes)
        assert back.c.tobytes() == plain.c.tobytes() and back.b.tobytes() == plain.b.tobytes()
        assert (back.a_mat != plain.a_mat).nnz == 0


@pytest.mark.parametrize(
    "entries, message",
    [
        ("0 1 1 1 1.0\n1 1 1 1 1.0 7\n",
         "the dtype passed requires 5 columns but 6 were found at row 2; use `usecols` to select a "
         "subset and avoid this error"),
        ("0 1 1 1 1.0\n\n* c\n1 1 1 1\n",
         "the dtype passed requires 5 columns but 4 were found at row 2; use `usecols` to select a "
         "subset and avoid this error"),
        ("0 1 1 1 1.0\n1 1 1 x 1.0\n", "could not convert string 'x' to int64 at row 1, column 4."),
        ("0 1 1 1 1.0\n\n* c\n1 1 1 1 abc\n", "could not convert string 'abc' to float64 at row 1, column 5."),
    ],
)
def test_read_sdp_malformed_entry_messages(tmp_path, entries, message):
    # rows are counted over the entry lines alone, comments and blanks left out
    with pytest.raises(ValueError) as err:
        _read_text(tmp_path, _HEAD + entries)
    assert str(err.value) == message


@pytest.mark.parametrize("tail", ["", "\n\n", "* only a comment\n  \n"])
def test_read_sdp_empty_entry_section(tmp_path, tail):
    back = _read_text(tmp_path, _HEAD + tail)
    assert back.c.tolist() == [0.0] * 4 and back.a_mat.nnz == 0 and back.b.tolist() == [1.0]
    # with no constraints the right hand side line is blank
    back = _read_text(tmp_path, '"trace=2.0\n0\n1\n2\n\n' + tail)
    assert back.n_rows == 0 and back.c.tolist() == [0.0] * 3


# signed zeros, subnormals, the ends of the float range, and a few values that
# repeat often, as in an assembled form
_PIECES = st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, -1.7976931348623157e308, 1.0, -1.0, 0.1, 1 / 3])
_VALUES = st.one_of(_PIECES, _PIECES, _FLOATS)


def _same_bytes_as_oracle(sdp, tmp_path) -> bool:
    write_sdp(sdp, str(tmp_path / "new.sdp"))
    write_sdp_per_entry(sdp, str(tmp_path / "ref.sdp"))
    return (tmp_path / "new.sdp").read_bytes() == (tmp_path / "ref.sdp").read_bytes()


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_write_sdp_bytes_match_per_entry_oracle(tmp_path, data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="sizes")
    layout = BlockLayout(sizes)
    m = data.draw(st.integers(0, 6), label="m")
    # stored entries at distinct (row, position) cells, explicit zeros and -0.0 included
    cell = st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, layout.dim - 1))
    cells = data.draw(st.lists(cell, unique=True, max_size=3 * layout.dim), label="cells") if m else []
    vals = data.draw(st.lists(_VALUES, min_size=len(cells), max_size=len(cells)), label="values")
    rows, cols = (np.array(v, dtype=np.intp) for v in zip(*cells)) if cells else (np.zeros(0, np.intp),) * 2
    a_mat = sp.csr_matrix(sp.coo_matrix((np.array(vals, dtype=float), (rows, cols)), shape=(m, layout.dim)))
    assert a_mat.nnz == len(cells)
    sdp = StandardSdp(
        block_sizes=sizes,
        c=data.draw(st.one_of(st.just(np.zeros(layout.dim)), arrays(float, layout.dim, elements=_VALUES)), label="c"),
        a_mat=a_mat,
        b=data.draw(arrays(float, m, elements=_VALUES), label="b"),
        trace=data.draw(_VALUES, label="trace"),
        zeta=data.draw(st.integers(0, m), label="zeta"),
    )
    assert _same_bytes_as_oracle(sdp, tmp_path)


def test_write_sdp_bytes_match_per_entry_oracle_across_chunks(tmp_path):
    # 2 x 45,150 entries from 40 distinct values: past the first 64k-entry chunk
    layout = BlockLayout([300])
    rng = np.random.default_rng(5)
    pool = np.concatenate([[-0.0, 5e-324, 1e308], rng.standard_normal(37)])
    a_dense = pool[rng.integers(0, pool.size, (2, layout.dim))]
    a_dense[:, ::7] = 0.0
    sdp = StandardSdp(
        block_sizes=[300],
        c=pool[rng.integers(0, pool.size, layout.dim)],
        a_mat=sp.csr_matrix(a_dense),
        b=np.array([1.0, -0.0]),
        trace=3.0,
        zeta=1,
    )
    assert sdp.a_mat.nnz + np.count_nonzero(sdp.c) > 1 << 16
    assert _same_bytes_as_oracle(sdp, tmp_path)


def test_read_sdp_across_parse_pieces(tmp_path):
    # the entry table is parsed in pieces of 64k lines; a fault in an early
    # piece does not hide one a whole-table check ranks first, and blank or
    # comment lines at a piece boundary change nothing
    body = "1 1 1 1 0.5\n" * 70_000
    for entries, message in (
        ("1 1 2 1 1.0\n" + body + "0 1 1 1 nan\n", "non-finite value in entry '0 1 1 1 nan'"),
        ("1 1 2 1 1.0\n" + body + "1 3 1 1 1.0\n", "block index outside 1..2"),
        ("1 3 1 1 1.0\n" + body + "2 1 1 1 1.0\n", "constraint index outside 0..1"),
    ):
        with pytest.raises(ValueError) as err:
            _read_text(tmp_path, _HEAD + entries)
        assert str(err.value) == message
    lines = body.splitlines(keepends=True)
    plain = _read_text(tmp_path, _HEAD + "0 2 1 1 -1.0\n" + body)
    for gap in ("\n", "  \n\n", '"trace=3.0 note\n'):
        back = _read_text(tmp_path, _HEAD + "0 2 1 1 -1.0\n" + "".join(lines[: (1 << 16) - 1]) + gap + "".join(lines[(1 << 16) - 1 :]))
        assert back.c.tobytes() == plain.c.tobytes() and back.a_mat.data.tobytes() == plain.a_mat.data.tobytes()
        assert back.trace == (3.0 if "trace" in gap else 2.0)
    assert plain.a_mat.toarray().tolist() == [[70_000 * 0.5, 0.0, 0.0, 0.0]]
