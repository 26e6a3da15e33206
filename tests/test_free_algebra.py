import itertools

import numpy as np
import pytest

from ncsdp.free_algebra import (
    EMPTY_WORD,
    CapacityError,
    NcPolynomial,
    SymmetryMode,
    WordBasis,
    basis_size,
    canonicalize,
    evaluate,
    evaluate_scalar,
    word_value,
)


def test_basis_size_values():
    assert basis_size(0, 5) == 1
    assert basis_size(2, 3) == 1 + 3 + 9
    assert basis_size(4, 1) == 5
    assert basis_size(-1, 3) == 0
    assert basis_size(2, 10) == 111


def test_canonicalize_star_only():
    assert canonicalize((2, 1)) == (1, 2)
    assert canonicalize((1, 2)) == (1, 2)
    assert canonicalize((1, 2, 1)) == (1, 2, 1)
    assert canonicalize((3, 1, 2)) == (2, 1, 3)
    assert canonicalize(EMPTY_WORD) == EMPTY_WORD


def test_canonicalize_cyclic():
    mode = SymmetryMode.STAR_CYCLIC
    # rotations of (1,2,1): (1,2,1), (2,1,1), (1,1,2); reverse adds nothing new
    assert canonicalize((1, 2, 1), mode) == (1, 1, 2)
    assert canonicalize((2, 1, 1), mode) == (1, 1, 2)
    assert canonicalize((2, 1), mode) == (1, 2)
    # reversal can beat every rotation of the original
    assert canonicalize((3, 2, 1), mode) == (1, 2, 3)
    for w in itertools.product((1, 2), repeat=4):
        c = canonicalize(w, mode)
        # canonical form is invariant on the whole symmetry class
        for s in range(len(w)):
            rot = w[s:] + w[:s]
            assert canonicalize(rot, mode) == c
            assert canonicalize(rot[::-1], mode) == c


def test_word_basis_order_and_index():
    basis = WordBasis((1, 2), 2)
    assert basis.words == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(basis) == basis_size(2, 2)
    for i, w in enumerate(basis):
        assert basis.position(w) == i
    with pytest.raises(KeyError):
        basis.position((3,))


def test_word_basis_letters_cleanup():
    basis = WordBasis([3, 1, 3], 1)
    assert basis.letters == (1, 3)
    assert basis.words == [(), (1,), (3,)]


def test_word_basis_validation():
    with pytest.raises(ValueError):
        WordBasis([], 2)
    with pytest.raises(ValueError):
        WordBasis([0, 1], 2)
    with pytest.raises(ValueError):
        WordBasis([1], -1)
    with pytest.raises(CapacityError):
        WordBasis(range(1, 11), 8, index_limit=1000)


def test_polynomial_arithmetic():
    n = 2
    x1 = NcPolynomial.letter(n, 1)
    x2 = NcPolynomial.letter(n, 2)
    square = (x1 + x2) * (x1 + x2)
    assert square.terms == {(1, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0, (2, 2): 1.0}
    assert (x1 * x2).star().terms == {(2, 1): 1.0}
    assert (2.0 * x1 - x1).terms == {(1,): 1.0}
    assert (x1 - x1) == NcPolynomial.zero(n)
    assert NcPolynomial.constant(n, 3.0).degree == 0
    assert (x1 * x2 * x1).degree == 3
    assert (x1 * x2).support_letters() == {1, 2}
    p = x1 * x2 + x2 * x1
    assert p.is_symmetric()
    assert not (x1 * x2).is_symmetric()
    assert (x1 * x2).symmetrized().terms == (0.5 * p).terms


def test_polynomial_rejects_bad_letters():
    with pytest.raises(ValueError):
        NcPolynomial(2, {(3,): 1.0})


def test_evaluate_matches_hand_expansion():
    n = 2
    p = NcPolynomial(n, {(): 1.0, (1, 2): 0.5, (2, 1): 0.5})
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    a, b = (a + a.T) / 2, (b + b.T) / 2
    got = evaluate(p, [a, b])
    want = np.eye(3) + (a @ b + b @ a) / 2
    assert np.allclose(got, want)
    assert np.allclose(got, got.T)


def test_evaluate_validates_shapes():
    p = NcPolynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        evaluate(p, [np.eye(2)])
    with pytest.raises(ValueError):
        evaluate(p, [np.eye(2), np.eye(3)])


def test_word_value_and_scalar():
    mats = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])]
    assert np.allclose(word_value((1, 2), mats, 2), mats[0] @ mats[1])
    assert np.allclose(word_value((), mats, 2), np.eye(2))
    p = NcPolynomial(2, {(1, 2): 2.0, (): -1.0})
    assert evaluate_scalar(p, [3.0, 0.5]) == pytest.approx(2.0 * 1.5 - 1.0)


def _key_count(n: int, k: int, mode: SymmetryMode) -> int:
    words = WordBasis(range(1, n + 1), k).words
    return len({canonicalize(u[::-1] + v, mode) for u in words for v in words})


def test_cyclic_keys_never_exceed_star_keys():
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3):
            star = _key_count(n, k, SymmetryMode.STAR_ONLY)
            cyc = _key_count(n, k, SymmetryMode.STAR_CYCLIC)
            assert cyc <= star
            if n == 1 or k <= 1:
                assert cyc == star
            else:
                # cyclic identification strictly merges classes from degree 2 on
                assert cyc < star
