import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerfluct.annular import AnnularPairing
from wignerfluct.states import (
    DetFamily,
    FiniteNState,
    SymbolicState,
    circulant,
    diagonal_pattern,
    eval_phi_K,
    eval_phi_tilde_K,
    family_from_json,
    identity,
    operator_norm_estimate,
    projection,
    random_fixed,
)
from wignerfluct.words import DetLetter, IDENTITY_LETTER, parse_word


def make_pairing(m, n, pairs):
    match = [0] * (m + n + 1)
    for a, b in pairs:
        match[a], match[b] = b, a
    return AnnularPairing(m, n, tuple(match))


def small_family():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [3.0, 0.0, 1.0]])
    b = np.diag([1.0, -1.0, 2.0])
    return DetFamily([a, b])


def test_operator_norm_estimate_diagonal():
    m = np.diag([3.0, -1.0, 0.5])
    assert operator_norm_estimate(m) == pytest.approx(3.0, rel=1e-6)


def test_norm_bound_enforced():
    with pytest.raises(ValueError):
        DetFamily([np.diag([5.0, 0.0])], norm_bound=2.0)
    DetFamily([np.diag([5.0, 0.0])], norm_bound=5.0)


def test_letter_matrix_flags():
    fam = DetFamily([np.array([[1.0, 2j], [0.0, 1.0]])])
    base = fam.matrices[0]
    np.testing.assert_allclose(
        fam.letter_matrix(DetLetter.base(0, transpose=True)), base.T
    )
    np.testing.assert_allclose(
        fam.letter_matrix(DetLetter.base(0, star=True)), base.conj().T
    )
    fused = DetLetter.base(0).fuse(DetLetter.base(0, star=True))
    np.testing.assert_allclose(fam.letter_matrix(fused), base @ base.conj().T)


def test_operand_classification():
    n = 6
    perm = np.array([2, 0, 1, 5, 3, 4])
    weighted = np.zeros((n, n), dtype=complex)
    weighted[perm, np.arange(n)] = np.exp(0.3j * np.arange(n)) * 0.5
    fam = DetFamily([
        diagonal_pattern(n, [1, -1, 0.5]),
        projection(n, 0.5),
        circulant(n, [0, 1]),
        weighted,
        circulant(n, [0.5, 0.5]),
        random_fixed(n, 3),
    ])
    # letters whose columns hold at most one nonzero gather (rows, weights)
    rows, w = fam.operand(DetLetter.base(0))
    np.testing.assert_array_equal(rows, np.arange(n))
    assert w.dtype == np.float64  # real downcast
    np.testing.assert_array_equal(w, [1, -1, 0.5, 1, -1, 0.5])
    rows, w = fam.operand(DetLetter.base(1))  # zero columns get weight 0
    np.testing.assert_array_equal(w, [1, 1, 1, 0, 0, 0])
    rows, w = fam.operand(DetLetter.base(2))  # shift: column j is e_{j-1}
    np.testing.assert_array_equal(rows, (np.arange(n) - 1) % n)
    rows, w = fam.operand(DetLetter.base(3, star=True))
    np.testing.assert_array_equal(rows, np.argsort(perm))
    assert w.dtype == np.complex128
    fused = DetLetter(((0, False, False), (2, False, True)))
    assert isinstance(fam.operand(fused), tuple)
    # a full first row has one nonzero per column; its transpose does not
    top = DetFamily([np.outer(np.eye(n)[0], np.ones(n))])
    rows, w = top.operand(DetLetter.base(0))
    np.testing.assert_array_equal(rows, np.zeros(n))
    assert isinstance(top.operand(DetLetter.base(0, transpose=True)), np.ndarray)
    # any other letter is a dense matrix, float when its imaginary part is 0
    band = fam.operand(DetLetter.base(4))
    assert isinstance(band, np.ndarray) and band.dtype == np.float64
    dense = fam.operand(DetLetter.base(5))
    assert isinstance(dense, np.ndarray) and dense.dtype == np.complex128
    mat = np.arange(n * n, dtype=float).reshape(n, n)
    assert fam.times(mat, IDENTITY_LETTER) is mat
    for j in range(6):
        letter = DetLetter.base(j, transpose=True)
        np.testing.assert_allclose(
            fam.times(mat, letter), mat @ fam.letter_matrix(letter), rtol=1e-14
        )


def test_phi_basics():
    fam = small_family()
    state = FiniteNState(fam)
    assert state.phi([]) == 1.0
    assert state.phi([IDENTITY_LETTER]) == pytest.approx(1.0)
    assert state.phi([DetLetter.base(0)]) == pytest.approx(1.0)  # trace 3 over N=3


def test_phi_transpose_matches_matrices():
    fam = small_family()
    state = FiniteNState(fam)
    a, b = fam.matrices
    expected = np.trace(a @ b.T) / 3
    got = state.phi_transpose([DetLetter.base(0)], [DetLetter.base(1)])
    assert got == pytest.approx(expected)


def test_phi_hadamard_sees_diagonals_only():
    fam = small_family()
    state = FiniteNState(fam)
    a, b = fam.matrices
    expected = np.sum(np.diagonal(a) * np.diagonal(b)) / 3
    got = state.phi_hadamard([DetLetter.base(0)], [DetLetter.base(1)])
    assert got == pytest.approx(expected)


def test_eval_phi_K_factorizes():
    fam = small_family()
    state = FiniteNState(fam)
    p = make_pairing(2, 2, [(1, 3), (2, 4)])
    letters = [DetLetter.base(0), DetLetter.base(1)] * 2
    from wignerfluct.annular import kreweras

    k = kreweras(p)
    assert k.cycles == [(1, 4), (2, 3)]
    expected = 1.0 + 0.0j
    for cyc in k.cycles:
        expected *= state.phi([letters[i - 1] for i in cyc])
    assert eval_phi_K(p, letters, state) == pytest.approx(expected)


def test_eval_phi_tilde_requires_through():
    fam = small_family()
    state = FiniteNState(fam)
    p = make_pairing(4, 2, [(1, 5), (2, 3), (4, 6)])
    letters = [DetLetter.base(1)] * 6
    val = eval_phi_tilde_K(p, letters, state)
    assert np.isfinite(val.real)
    nested = make_pairing(2, 2, [(1, 3), (2, 4)])
    eval_phi_tilde_K(nested, [DetLetter.base(1)] * 4, state)
    with pytest.raises(ValueError):
        # pairing with four through strings is outside the tilde range
        q = make_pairing(4, 4, [(1, 5), (2, 6), (3, 7), (4, 8)])
        eval_phi_tilde_K(q, [DetLetter.base(1)] * 8, state)


def test_builders_shapes():
    assert np.array_equal(identity(3), np.eye(3))
    d = diagonal_pattern(5, [1, -1])
    np.testing.assert_allclose(np.diagonal(d), [1, -1, 1, -1, 1])
    c = circulant(4, [0, 1])
    np.testing.assert_allclose(c[0], [0, 1, 0, 0])
    np.testing.assert_allclose(c[3], [1, 0, 0, 0])
    p = projection(4, 0.5)
    assert np.trace(p).real == 2
    r = random_fixed(6, seed=3)
    assert r.shape == (6, 6)
    np.testing.assert_allclose(random_fixed(6, seed=3), r)


def test_family_from_json():
    doc = {
        "dim": 4,
        "matrices": [
            {"kind": "diagonal_pattern", "values": [1, -1]},
            {"kind": "circulant", "first_row": [0, 1]},
        ],
        "norm_bound": 2.0,
    }
    fam = family_from_json(doc)
    assert fam.N == 4
    assert len(fam.matrices) == 2
    with pytest.raises(ValueError):
        family_from_json({"dim": 2, "matrices": [{"kind": "nope"}]})


def test_symbolic_state_lookup():
    key = ((0, False, False),)
    state = SymbolicState({key: 0.5, key + key: 0.25})
    assert state.phi([DetLetter.base(0)]) == 0.5
    assert state.phi([DetLetter.base(0), DetLetter.base(0)]) == 0.25
    with pytest.raises(KeyError):
        state.phi([DetLetter.base(1)])


def test_symbolic_state_cyclic_invariance():
    ka = ((0, False, False), (1, False, False))
    state = SymbolicState({ka: 0.7})
    assert state.phi([DetLetter.base(1), DetLetter.base(0)]) == 0.7


def test_symbolic_state_hadamard_lookup():
    ka = ((0, False, False), (1, False, False))
    kb = ((1, False, False),)
    state = SymbolicState({}, {(ka, kb): 0.3})
    a0, a1 = DetLetter.base(0), DetLetter.base(1)
    assert state.phi_hadamard([a0, a1], [a1]) == 0.3
    # unordered arguments, each up to a transpose of the whole word
    assert state.phi_hadamard([a1.transpose()], [a1.transpose(), a0.transpose()]) == 0.3
    with pytest.raises(KeyError):
        state.phi_hadamard([a0], [a1])


LETTERS = st.lists(
    st.tuples(st.integers(0, 1), st.booleans(), st.booleans()), max_size=2
).map(lambda factors: DetLetter(tuple(factors)))
WORDS = st.lists(LETTERS, min_size=1, max_size=4)


def direct_matrix(fam, letters):
    """Uncached product of a word, flag by flag, from the identity."""
    out = np.eye(fam.N, dtype=complex)
    for letter in letters:
        for j, star, transpose in letter.factors:
            m = fam.matrices[j]
            if star:
                m = m.conj().T
            if transpose:
                m = m.T
            out = out @ m
    return out


def transposed(letters):
    return [letter.transpose() for letter in reversed(letters)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31), WORDS, WORDS)
def test_memoized_functionals_match_direct_traces(n, seed, p, q):
    fam = DetFamily([random_fixed(n, seed), random_fixed(n, seed + 1)])
    state = FiniteNState(fam)
    mp, mq = direct_matrix(fam, p), direct_matrix(fam, q)
    want_phi = np.trace(mp) / n
    # same letters in another cyclic order: a distinct key unless a rotation
    want_rev = np.trace(direct_matrix(fam, p[::-1])) / n
    want_had = np.sum(np.diagonal(mp) * np.diagonal(mq)) / n
    want_tr = np.trace(mp @ mq.T) / n
    # the second pass, and every rotation or transpose, is served by the memo
    for _ in range(2):
        for k in range(len(p)):
            assert abs(state.phi(p[k:] + p[:k]) - want_phi) < 1e-10
        assert abs(state.phi(transposed(p)) - want_phi) < 1e-10
        assert abs(state.phi(p[::-1]) - want_rev) < 1e-10
        assert abs(state.phi_hadamard(p, q) - want_had) < 1e-10
        assert abs(state.phi_hadamard(transposed(q), p) - want_had) < 1e-10
        assert abs(state.phi_transpose(p, q) - want_tr) < 1e-10
        assert abs(state.phi_transpose(q, p) - want_tr) < 1e-10


def letter_zoo(n, seed):
    """One family with every letter kind ``times`` tells apart."""
    rng = np.random.default_rng(seed)
    weighted = np.zeros((n, n, 2))
    phase = rng.uniform(0, 2 * np.pi, n)
    weighted[rng.permutation(n), np.arange(n)] = np.stack(
        [np.cos(phase), np.sin(phase)], axis=1
    )
    top_row = np.zeros((n, n, 2))
    top_row[0, :, 0] = 0.4
    return family_from_json({"dim": n, "matrices": [
        {"kind": "dense", "data": top_row.tolist()},
        {"kind": "identity"},
        {"kind": "diagonal_pattern", "values": [1, -0.5, 2]},
        {"kind": "projection", "rank_fraction": 0.5},
        {"kind": "circulant", "first_row": [0, 1]},
        {"kind": "dense", "data": weighted.tolist()},
        {"kind": "circulant", "first_row": [0.5, 0.25, 0.25]},
        {"kind": "random_fixed", "seed": seed},
    ]})


ZOO_LETTERS = st.lists(
    st.tuples(st.integers(0, 7), st.booleans(), st.booleans()), max_size=2
).map(lambda factors: DetLetter(tuple(factors)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 7),
    st.integers(0, 2**31),
    st.lists(st.tuples(st.sampled_from(["goe", "gue"]), ZOO_LETTERS), min_size=1, max_size=4),
)
def test_times_matches_dense_products(n, seed, pairs):
    from wignerfluct.ensembles import goe_law, gue_law, sample_wigner
    from wignerfluct.montecarlo import _trace_word
    from wignerfluct.words import Monomial

    fam = letter_zoo(n, seed)
    letters = [letter for _, letter in pairs]
    want = np.eye(n, dtype=complex)
    for letter in letters:
        want = want @ fam.letter_matrix(letter)
    np.testing.assert_allclose(fam.word_matrix(letters), want, rtol=1e-12, atol=1e-12)

    xmats = {
        "goe": sample_wigner(n, goe_law(), (seed, 0, 0)),
        "gue": sample_wigner(n, gue_law(), (seed, 1, 0)),
    }
    want = np.eye(n, dtype=complex)
    for wid, letter in pairs:
        want = want @ xmats[wid] @ fam.letter_matrix(letter)
    mono = Monomial(tuple(pairs))
    cache = {}
    # the second pass reads every factor from the per-replicate cache
    for _ in range(2):
        got = _trace_word(mono, xmats, fam, cache)
        assert abs(got - np.trace(want)) <= 1e-12 * max(1.0, abs(np.trace(want)))
