import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsdp.free_algebra import EMPTY_WORD, NcPolynomial, SymmetryMode, canonicalize, evaluate, word_value
from ncsdp.generator import gen_dense, gen_sparse
from ncsdp.relaxation import (
    _scalar_value,
    Problem,
    build,
    half_degree,
    minimal_order,
    moment_vector_from_evaluation,
    sample_equality_feasible_moments,
)
from ncsdp.sparsity import CliqueDecomposition
from oracles import block_matrix, riesz, scan_keys


def walked_form(rel, block, r, c) -> dict[int, float]:
    """Reference entry form: canonicalize each word u_r* w v_c and look up its key."""
    words = block.basis.words
    u_star, v = words[r][::-1], words[c]
    terms = {EMPTY_WORD: 1.0} if block.poly is None else block.poly.terms
    out: dict[int, float] = {}
    for w, coeff in terms.items():
        try:
            key = rel.key_index[canonicalize(u_star + w + v, rel.mode)]
        except KeyError:
            raise ValueError(
                f"word {u_star + w + v} is not realized by any moment block; "
                "a constraint strays outside its clique or degree bound"
            ) from None
        out[key] = out.get(key, 0.0) + coeff
    return {k: c for k, c in out.items() if c != 0.0}


def array_forms(forms) -> list[list[tuple[int, float]]]:
    """EntryForms as one ordered list of (key, coeff) per entry."""
    out = [[] for _ in range(forms.size)]
    for e, k, c in zip(forms.entry.tolist(), forms.key.tolist(), forms.coeff.tolist()):
        out[e].append((k, c))
    return out


def walked_forms(rel, blocks) -> list[list[tuple[int, float]]]:
    """Reference forms of every entry, keys ascending as EntryForms orders them."""
    return [
        sorted(walked_form(rel, b, r, c).items())
        for b in blocks
        for r in range(b.size)
        for c in range(r, b.size)
    ]


def ball_problem(n: int, objective: NcPolynomial | None = None) -> Problem:
    if objective is None:
        objective = sum(
            (NcPolynomial.letter(n, j) for j in range(1, n + 1)),
            NcPolynomial.zero(n),
        )
    ball = NcPolynomial.constant(n, 1.0) - sum(
        (NcPolynomial.letter(n, j) * NcPolynomial.letter(n, j) for j in range(1, n + 1)),
        NcPolynomial.zero(n),
    )
    return Problem(n=n, objective=objective, inequalities=[ball])


def test_half_degree_and_minimal_order():
    n = 2
    x1, x2 = NcPolynomial.letter(n, 1), NcPolynomial.letter(n, 2)
    assert half_degree(NcPolynomial.constant(n, 1.0)) == 0
    assert half_degree(x1) == 1
    assert half_degree(x1 * x2 + x2 * x1) == 1
    cubic = x1 * x2 * x1
    assert half_degree(cubic) == 2
    prob = Problem(n=n, objective=x1, equalities=[cubic - cubic.star() + cubic.symmetrized() * 2 - cubic])
    # the equality above simplifies to a symmetric cubic
    assert minimal_order(prob) == 2


def test_problem_validation():
    n = 2
    x1, x2 = NcPolynomial.letter(n, 1), NcPolynomial.letter(n, 2)
    with pytest.raises(ValueError):
        Problem(n=n, objective=x1 * x2)  # not symmetric
    with pytest.raises(ValueError):
        Problem(n=n, objective=x1, cliques=[(1, 3)])
    with pytest.raises(ValueError):
        Problem(n=n, objective=x1, anchor=[1.0])
    with pytest.raises(ValueError):
        Problem(n=0, objective=NcPolynomial.zero(1))


def test_build_block_structure():
    prob = ball_problem(2)
    rel = build(prob, order=1)
    assert rel.n_groups == 1
    assert rel.block_sizes == [3, 1]
    assert rel.blocks[0].is_moment
    assert not rel.blocks[1].is_moment
    assert rel.keys[0] == EMPTY_WORD
    # moment scan of {1, x1, x2} gives six canonical words
    assert sorted(rel.keys) == [(), (1,), (1, 1), (1, 2), (2,), (2, 2)]
    with pytest.raises(ValueError):
        build(prob, order=0)


def test_build_orders_below_equality_degree_rejected():
    n = 1
    x = NcPolynomial.letter(n, 1)
    prob = Problem(n=n, objective=x, equalities=[x * x * x - x])
    with pytest.raises(ValueError):
        build(prob, order=1)
    rel = build(prob, order=2)
    assert rel.eq_blocks[0].size == 1  # degree bound 2 - 2 = 0 leaves only {1}
    assert build(prob, order=3).eq_blocks[0].size == 2


def test_key_sharing_across_cliques():
    n = 3
    x = [NcPolynomial.letter(n, j) for j in range(1, n + 1)]
    prob = Problem(
        n=n,
        objective=x[0] + x[1] + x[2],
        cliques=[(1, 2), (2, 3)],
    )
    rel = build(prob, order=1)
    assert rel.n_groups == 2
    assert rel.block_sizes == [3, 3]
    # shared letter 2 words appear once
    assert len(rel.keys) == 9
    k22 = rel.key_of((2, 2))
    # entry (2, 2) of the first moment block and (1, 1) of the second
    assert rel.moment_keys[0][5] == k22
    assert rel.moment_keys[1][3] == k22
    assert [len(m) for m in rel.moment_keys] == [6, 6]


def test_entry_form_localizing():
    prob = ball_problem(2)
    rel = build(prob, order=2)
    loc = next(i for i, b in enumerate(rel.blocks) if not b.is_moment)
    # entry (0, 0) of the localizing block is the Riesz image of the constraint
    psd, _ = rel.forms
    at = psd.entry == rel.layout.offsets[loc]
    form = dict(zip(psd.key[at].tolist(), psd.coeff[at].tolist()))
    want = riesz(prob.inequalities[0], rel.key_index, rel.mode)
    assert form == want


def test_localized_form_stray_word_raises():
    n = 2
    x1, x2 = NcPolynomial.letter(n, 1), NcPolynomial.letter(n, 2)
    h = x2 * x2 - NcPolynomial.constant(n, 1.0)
    prob = Problem(n=n, objective=x1, equalities=[h])
    bad = CliqueDecomposition(cliques=((1,),), ineq_groups=((),), eq_groups=((0,),))
    rel = build(prob, order=1, decomp=bad)
    with pytest.raises(ValueError, match="strays outside") as walked:
        walked_form(rel, rel.eq_blocks[0], 0, 0)
    with pytest.raises(ValueError, match="strays outside") as arrays:
        rel.forms
    assert str(arrays.value) == str(walked.value)


def _cancelling_problem(n_extra: int = 0) -> Problem:
    """Ball in 2 letters plus an equality whose cyclic classes cancel at entry (0, 0)."""
    n = 2
    x1, x2 = NcPolynomial.letter(n, 1), NcPolynomial.letter(n, 2)
    prob = ball_problem(n, objective=x1 * x2 + x2 * x1)
    h = x1 * x1 * x2 + x2 * x1 * x1 - 2.0 * (x1 * x2 * x1)
    return Problem(n=n, objective=prob.objective, inequalities=prob.inequalities, equalities=[h])


@pytest.mark.parametrize("mode", [SymmetryMode.STAR_ONLY, SymmetryMode.STAR_CYCLIC])
@pytest.mark.parametrize("case", ["ball", "cancel", "chain", "polydisc"])
def test_array_forms_match_walk(case, mode):
    # every psd and equality entry, bit for bit
    if case == "ball":
        prob, order = gen_dense(3, kind="ball", seed=4), 2
    elif case == "cancel":
        prob, order = _cancelling_problem(), 3
    elif case == "chain":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prob, order = gen_sparse(8, 3, l=3, seed=2), 2
    else:
        prob, order = gen_dense(2, kind="polydisc", seed=1), 2
    rel = build(prob, order=order, mode=mode)
    assert array_forms(rel.forms[0]) == walked_forms(rel, rel.blocks)
    assert array_forms(rel.forms[1]) == walked_forms(rel, rel.eq_blocks)
    if case == "chain":
        assert rel.n_groups > 1
    if case == "cancel":
        # terms merge onto one key, and in trace mode all of them cancel
        merged = [f for f in walked_forms(rel, rel.eq_blocks) if len(f) < len(prob.equalities[0].terms)]
        assert merged
        empty = [f for f in walked_forms(rel, rel.eq_blocks) if not f]
        assert bool(empty) == (mode is SymmetryMode.STAR_CYCLIC)
    # the moment keys are the scan's, entry for entry
    for block, keys in zip((b for b in rel.blocks if b.is_moment), rel.moment_keys):
        iu, ju = np.triu_indices(block.size)
        assert keys.tolist() == [walked_form(rel, block, r, c).popitem()[0] for r, c in zip(iu, ju)]


def test_riesz_modes_and_missing_key():
    n = 2
    x1, x2 = NcPolynomial.letter(n, 1), NcPolynomial.letter(n, 2)
    prob = ball_problem(n, objective=x1 * x2 + x2 * x1)
    rel = build(prob, order=1)
    assert rel.objective == {rel.key_of((1, 2)): 2.0}
    relt = build(prob, order=1, mode=SymmetryMode.STAR_CYCLIC)
    assert relt.objective == {relt.key_of((1, 2)): 2.0}
    # an objective word outside the given cover has no key
    bad = CliqueDecomposition(cliques=((1,), (2,)), ineq_groups=((0,), ()), eq_groups=((), ()))
    with pytest.raises(ValueError, match=r"word \(1, 2\) has no moment index"):
        build(prob, order=1, decomp=bad)


def test_cyclic_mode_merges_keys():
    prob = ball_problem(2)
    eig = build(prob, order=2)
    tr = build(prob, order=2, mode=SymmetryMode.STAR_CYCLIC)
    assert len(tr.keys) < len(eig.keys)
    # the cyclic class of x1 x2 x1 x2 collapses onto x1 x1 x2 x2 classes only
    # when rotations allow; spot check one merged pair
    assert tr.key_of((1, 2, 1, 2)) == tr.key_of((2, 1, 2, 1))


def assert_keys_match_scan(prob: Problem, order: int, mode: SymmetryMode):
    rel = build(prob, order=order, mode=mode)
    keys, moment_keys = scan_keys(rel.decomp.cliques, order, mode)
    assert list(rel.keys) == keys
    assert rel.n_keys == len(keys)
    assert [m.tolist() for m in rel.moment_keys] == moment_keys
    assert rel.objective == riesz(prob.objective, rel.key_index, mode)
    return rel


@st.composite
def _covered_problems(draw):
    """A problem over 1..n with a random overlapping clique cover, and an order 1..3.

    Its objective symmetrizes random words of degree <= 2k, each inside one clique."""
    n = draw(st.sampled_from([3, 6, 300]))
    order = draw(st.integers(1, 3))
    letters = st.integers(1, n)
    size = {1: 4, 2: 3, 3: 2}[order]  # basis sizes stay small for the reference scan
    cliques = draw(st.lists(st.lists(letters, min_size=1, max_size=size), min_size=1, max_size=3))
    terms = {}
    for c in draw(st.lists(st.sampled_from(cliques), max_size=4)):
        w = tuple(draw(st.lists(st.sampled_from(c), max_size=2 * order)))
        terms[w] = terms.get(w, 0.0) + 1.0
        terms[w[::-1]] = terms.get(w[::-1], 0.0) + 1.0
    return Problem(n=n, objective=NcPolynomial(n, terms), cliques=cliques), order


@settings(max_examples=60, deadline=None)
@given(_covered_problems(), st.sampled_from(SymmetryMode))
def test_keys_match_reference_scan_property(case, mode):
    # the key tables number the moment entries exactly as the per-entry scan does
    prob, order = case
    assert_keys_match_scan(prob, order, mode)


@pytest.mark.parametrize("mode", [SymmetryMode.STAR_ONLY, SymmetryMode.STAR_CYCLIC])
def test_keys_with_letters_past_int64_packing(mode):
    # (n + 1)^(2k) = 3001^6 exceeds int64, so packed words would overflow
    n = 3000
    x1, xn = NcPolynomial.letter(n, 1), NcPolynomial.letter(n, n)
    prob = Problem(n=n, objective=x1 * xn * xn + xn * xn * x1, cliques=[(1, n), (n - 1, n)])
    rel = assert_keys_match_scan(prob, 3, mode)
    assert (n,) * 6 in rel.keys and (n - 1, n, n, n, n, n) in rel.keys


def test_moment_vector_from_evaluation_eig():
    prob = ball_problem(2)
    rel = build(prob, order=1)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    mats = [q @ np.diag(d) @ q.T for d in ([0.5, -0.3, 0.1, 0.0], [0.2, 0.4, -0.5, 0.1])]
    scale = 1.0 / np.sqrt(2.1)
    mats = [scale * m for m in mats]
    v = rng.standard_normal(4)
    y = moment_vector_from_evaluation(rel, mats, v=v)
    assert y[rel.key_of(())] == pytest.approx(1.0)
    vv = v / np.linalg.norm(v)
    assert y[rel.key_of((1, 2))] == pytest.approx(float(vv @ mats[0] @ mats[1] @ vv))
    # moment block equals the Gram matrix of the basis at (A, v)
    m0 = block_matrix(rel, 0, y)
    assert np.allclose(m0[0], [1.0, vv @ mats[0] @ vv, vv @ mats[1] @ vv])
    assert np.linalg.eigvalsh(m0).min() >= -1e-10
    loc = block_matrix(rel, 1, y)
    g_val = evaluate(prob.inequalities[0], mats)
    assert loc[0, 0] == pytest.approx(float(vv @ g_val @ vv))
    assert rel.objective_value(y) == pytest.approx(float(vv @ (mats[0] + mats[1]) @ vv))


def test_moment_vector_from_evaluation_trace():
    prob = ball_problem(2)
    rel = build(prob, order=2, mode=SymmetryMode.STAR_CYCLIC)
    mats = [np.diag([0.3, -0.2]), np.diag([-0.1, 0.4])]
    y = moment_vector_from_evaluation(rel, mats)
    for w in ((1, 2), (1, 1, 2), (1, 2, 2, 1)):
        prod = np.eye(2)
        for letter in w:
            prod = prod @ mats[letter - 1]
        assert y[rel.key_of(w)] == pytest.approx(float(np.trace(prod)) / 2)


def test_moment_vector_validation_and_warnings():
    prob = ball_problem(2)
    rel = build(prob, order=1)
    with pytest.raises(ValueError):
        moment_vector_from_evaluation(rel, [np.eye(2)], v=np.ones(2))
    with pytest.raises(ValueError):
        moment_vector_from_evaluation(rel, [np.eye(2), np.eye(2)])  # missing v
    with pytest.raises(ValueError):
        moment_vector_from_evaluation(rel, [np.eye(2), np.eye(2)], v=np.zeros(2))
    with pytest.warns(UserWarning, match="inequality 0"):
        moment_vector_from_evaluation(rel, [np.eye(2), np.eye(2)], v=np.ones(2))


@pytest.mark.parametrize("mode", [SymmetryMode.STAR_ONLY, SymmetryMode.STAR_CYCLIC])
@pytest.mark.parametrize("problem", ["ball", "chain"])
def test_moment_vector_at_scalar_point_matches_word_products(problem, mode):
    # at 1 x 1 matrices the keys are evaluated in one pass; the per-key
    # word_value loop it replaced is the reference, bit for bit
    prob = gen_dense(4, kind="ball", seed=2) if problem == "ball" else gen_sparse(9, 3, seed=1)
    rel = build(prob, order=2, mode=mode)
    mats = [np.array([[a]]) for a in prob.anchor]
    vv = np.ones(1)
    if mode is SymmetryMode.STAR_ONLY:
        ref = np.array([float(vv @ word_value(w, mats, 1) @ vv) for w in rel.keys])
    else:
        ref = np.array([float(np.trace(word_value(w, mats, 1))) / 1 for w in rel.keys])
    y = moment_vector_from_evaluation(rel, mats, v=-2.0 * vv)
    assert max(map(len, rel.keys)) == 4
    assert y.tobytes() == ref.tobytes()
    # the same checks as at any other size
    with pytest.raises(ValueError, match="expected 9 matrices" if problem == "chain" else "expected 4"):
        moment_vector_from_evaluation(rel, mats[:-1], v=vv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        moment_vector_from_evaluation(rel, [np.array([[3.0]])] * prob.n, v=vv)
    assert any("at the given tuple" in str(w.message) for w in caught)


def test_equality_sampling():
    n = 2
    x1, x2 = NcPolynomial.letter(n, 1), NcPolynomial.letter(n, 2)
    one = NcPolynomial.constant(n, 1.0)
    prob = Problem(n=n, objective=x1 + x2, equalities=[x1 * x1 - one, x2 * x2 - one])
    rel = build(prob, order=2)
    samples = sample_equality_feasible_moments(rel, count=4, seed=11, scale=2.0)
    assert len(samples) == 4
    spread = max(np.abs(a - b).max() for a in samples for b in samples)
    assert spread > 1e-6  # the null space is explored, not just the lstsq point
    for y in samples:
        assert y[0] == pytest.approx(1.0)
        assert np.abs(rel.forms[1].values(y)).max() <= 1e-8


def test_scalar_anchor_check_matches_matrix_evaluation():
    # at 1 x 1 matrices the constraints are evaluated on the coordinates; the
    # warnings and moments must be those of the 1 x 1 matrix evaluation
    n = 3
    x = [NcPolynomial.letter(n, j) for j in range(1, n + 1)]
    one = NcPolynomial.constant(n, 1.0)
    ball = one - x[0] * x[0] - x[1] * x[1] - x[2] * x[2]
    ineqs = [ball, x[0] * x[1] + x[1] * x[0] + 0.3 * one, x[2] * x[0] * x[2] - 0.7 * x[1] * x[1] * x[1] + 0.1 * one]
    eqs = [x[0] * x[0] - 0.25 * one, x[1] * x[2] * x[1] + 1.5 * x[0] - 1e-3 * one]
    prob = Problem(n=n, objective=x[0] + x[1], inequalities=ineqs, equalities=eqs)
    for mode in SymmetryMode:
        rel = build(prob, order=2, mode=mode)
        for point in ([0.9, -1.3, 0.7], [1 / 3, 0.1, -2.0e-5], [3.7e100, -2.0, 1e-310], [0.5, 0.5, 0.0]):
            mats = [np.array([[a]]) for a in point]
            expected = []
            with np.errstate(over="ignore"):  # 3.7e100 ** 4
                for i, g in enumerate(ineqs):
                    lam = float(np.linalg.eigvalsh(evaluate(g, mats)).min())
                    if lam < -1e-8:
                        expected.append(f"inequality {i} violated by {-lam:.3g} at the given tuple")
                for i, h in enumerate(eqs):
                    dev = float(np.abs(evaluate(h, mats)).max())
                    if dev > 1e-8:
                        expected.append(f"equality {i} off by {dev:.3g} at the given tuple")
                ref = np.array([float(word_value(w, mats, 1)[0, 0]) for w in rel.keys])
            assert expected  # every point is infeasible
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                y = moment_vector_from_evaluation(rel, mats, v=np.ones(1))
            assert [str(w.message) for w in caught if w.category is UserWarning] == expected
            # equal as numbers; a product that underflows keeps its sign here,
            # while the 1 x 1 matmul of word_value gives +0.0
            assert np.array_equal(y, ref)


@settings(max_examples=100, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.lists(st.integers(1, 3), max_size=5).map(tuple), st.floats(-1e3, 1e3, allow_subnormal=False)),
        max_size=8,
    ),
    point=st.lists(st.floats(-1e60, 1e60), min_size=3, max_size=3),
)
def test_scalar_value_matches_1x1_evaluate(terms, point):
    p = NcPolynomial.zero(3)
    for w, c in terms:
        p = p + NcPolynomial(3, {w: c})
    with np.errstate(all="ignore"):
        ref = evaluate(p, [np.array([[a]]) for a in point])[0, 0]
    # equal as numbers: only the sign of an underflowed zero may differ
    assert np.array_equal([_scalar_value(p, point)], [ref], equal_nan=True)
