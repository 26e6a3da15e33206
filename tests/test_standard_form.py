import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncsdp.ctp import certify
from ncsdp.free_algebra import NcPolynomial
from ncsdp.generator import gen_dense, gen_sparse
from ncsdp.relaxation import Problem, build, moment_vector_from_evaluation
from ncsdp.standard_form import (
    BlockLayout,
    StandardSdp,
    assemble,
    count_stats,
    moment_representatives,
    read_sdp,
    recover_moments,
    write_sdp,
    x_from_moments,
)


def ball_problem(n: int) -> Problem:
    x = [NcPolynomial.letter(n, j) for j in range(1, n + 1)]
    g = NcPolynomial.constant(n, 1.0) - sum(
        (xi * xi for xi in x), NcPolynomial.zero(n)
    )
    return Problem(n=n, objective=sum(x, NcPolynomial.zero(n)), inequalities=[g])


def svec_to_blocks(sdp, x):
    return [sdp.layout.matrix(x, i) for i in range(len(sdp.block_sizes))]


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
    assert np.allclose(layout.matrix(x, 0), a, rtol=0, atol=1e-15)
    v = rng.standard_normal(2)
    layout.add_outer(x, 1, v, 2.5)
    assert np.allclose(layout.matrix(x, 1), 2.5 * np.outer(v, v), rtol=0, atol=1e-14)
    assert layout.trace(x) == pytest.approx(np.trace(a) + 2.5 * (v @ v), abs=1e-13)


def test_moment_representatives():
    rel = build(ball_problem(2), order=2)
    rep, dup = moment_representatives(rel)
    assert set(rep) == set(range(len(rel.keys)))
    assert rep[0] == (0, 0, 0)
    moment_ut = sum(
        b.size * (b.size + 1) // 2 for b in rel.blocks if b.is_moment
    )
    assert len(dup) == moment_ut - len(rel.keys)
    for bi, r, c, key in dup:
        assert rel.moment_entry_key(bi, r, c) == key
        assert rep[key] != (bi, r, c)


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
    assert stats.as_dict()["zeta"] == 2


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
    x = x_from_moments(sdp, y)
    assert np.abs(sdp.a_mat @ x - sdp.b).max() <= 1e-10
    assert sdp.b[0] == 1.0
    # objective transfers through the rescaling
    assert float(sdp.c @ x) == pytest.approx(rel.objective_value(y), abs=1e-12)
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
    x = x_from_moments(sdp, y)
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
    x = x_from_moments(sdp, y)
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
    x = x_from_moments(sdp, y)
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
    # comment and blank lines may sit anywhere
    path.write_text('* c\n"trace=2.0 zeta=1\n\n1\n2\n2 1\n1.0\n0 1 1 2 0.5\n\n* note\n1 2 1 1 3.0\n')
    back = read_sdp(str(path))
    assert back.c.tolist() == [0.0, 0.5 * np.sqrt(2.0), 0.0, 0.0]
    assert back.a_mat.toarray().tolist() == [[0.0, 0.0, 0.0, 3.0]]
