import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreweras_oracles import through_cycles
from wignerfluct.annular import AnnularPairing, enumerate_nc2, kreweras
from wignerfluct.products import Gather, _compose, word_diagonals
from wignerfluct.states import (
    DetFamily,
    FiniteNState,
    circulant,
    diagonal_pattern,
    eval_phi_K,
    eval_phi_tilde_K,
    family_from_json,
    identity,
    projection,
    random_fixed,
)
from wignerfluct.words import DetLetter, IDENTITY_LETTER


def make_pairing(m, n, pairs):
    match = [0] * (m + n + 1)
    for a, b in pairs:
        match[a], match[b] = b, a
    return AnnularPairing(m, n, tuple(match))


def small_family():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [3.0, 0.0, 1.0]])
    b = np.diag([1.0, -1.0, 2.0])
    return DetFamily([a, b])


def test_norm_bound_enforced():
    with pytest.raises(ValueError):
        DetFamily([np.diag([5.0, 0.0])], norm_bound=2.0)
    DetFamily([np.diag([5.0, 0.0])], norm_bound=5.0)
    # a unitary passes, though its 1- and inf-norms exceed the bound
    DetFamily([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)], norm_bound=1.0)


def test_norm_bound_rejects_a_norm_just_above_it():
    # both have norm 1.00025; a power iteration from a random start reads
    # about 1.0 and 0.999 on them, since it approaches the norm from below
    rng = np.random.default_rng(3)
    gauss = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
    for m in (gauss * (1.00025 / np.linalg.norm(gauss, 2)), np.diag([1.00025] + [0.999] * 63)):
        with pytest.raises(ValueError, match="norm 1.00025 > bound 1"):
            DetFamily([m], norm_bound=1.0)


def test_gather_norm_check_does_not_overflow():
    # |w|^2 overflows above about 1.3e154, but the norm 1e200 is inside the bound
    spec = {"dim": 4, "norm_bound": 1e300,
            "matrices": [{"kind": "diagonal_pattern", "values": [1e200, 1]}]}
    with np.errstate(over="raise", invalid="raise"):
        assert family_from_json(spec).N == 4
        spec["norm_bound"] = 1e199
        with pytest.raises(ValueError, match=r"^matrix 0 has norm 1e\+200 > bound 1e\+199$"):
            family_from_json(spec)


def test_random_fixed_has_the_norm_cap():
    for n, seed, cap in [(400, 3, 1.0), (64, 7, 2.5), (6, 3, 1.0)]:
        assert np.linalg.norm(random_fixed(n, seed, cap), 2) == pytest.approx(cap, rel=1e-12)


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


@pytest.mark.parametrize("fraction, rank", [(0.29, 29), (0.57, 57), (0.58, 58)])
def test_projection_rank_reads_the_decimal_value(fraction, rank):
    # floor(0.29 * 100) is 28 in floats: 0.29 * 100 == 28.999999999999996
    assert np.trace(projection(100, fraction)).real == rank
    fam = family_from_json(
        {"dim": 100, "matrices": [{"kind": "projection", "rank_fraction": fraction}]}
    )
    assert FiniteNState(fam).phi([DetLetter.base(0)]) == pytest.approx(rank / 100)


def circulant_by_rolls(n, first_row):
    """Row i is the zero-padded first row rolled right by i."""
    row = np.zeros(n, dtype=complex)
    row[: len(first_row)] = first_row
    return np.array([np.roll(row, i) for i in range(n)])


@pytest.mark.parametrize("n", [1, 3, 7, 400])
def test_circulant_matches_the_roll_construction(n):
    rng = np.random.default_rng(n)
    for k in sorted({1, (n + 1) // 2, n}):
        first_row = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        got = circulant(n, first_row)
        np.testing.assert_array_equal(got, circulant_by_rolls(n, first_row))
        assert got.flags.c_contiguous and got.flags.writeable and got.flags.owndata
    np.testing.assert_array_equal(circulant(n, [2]), 2 * np.eye(n))


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


def cyclic_min(key):
    """One name per phi class: the least rotation of the factor tuple."""
    return min((key[i:] + key[:i] for i in range(len(key))), default=key)


def hadamard_class(kp, kq):
    """One name per phi_hadamard class: each word up to transpose, unordered."""
    def up_to_transpose(key):
        return min(key, DetLetter(key).transpose().factors)

    return frozenset([up_to_transpose(kp), up_to_transpose(kq)])


def factor_key(letters):
    return tuple(f for letter in letters for f in letter.factors)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.lists(WORDS, min_size=1, max_size=3))
def test_memo_misses_once_per_class(seed, words):
    fam = DetFamily([random_fixed(3, seed), random_fixed(3, seed + 1)])
    state = FiniteNState(fam)
    products = []  # one product chain per diagonal a class asks for
    fill = state._fill
    state._fill = lambda jobs: products.extend(w for words, _ in jobs for w in words) or fill(jobs)

    # phi: every rotation of the factor tuple, fused letters split or not
    classes = set()
    for word in words:
        key = factor_key(word)
        value = state.phi(word)
        for i in range(len(key)):
            rotated = [DetLetter((f,)) for f in key[i:] + key[:i]]
            assert state.phi(rotated) == value
        if key:
            classes.add(cyclic_min(key))
    assert len(products) == len(classes)

    # phi_hadamard: both transposes of each argument, in both orders
    del products[:]
    classes = set()
    for p in words:
        for q in words:
            value = state.phi_hadamard(p, q)
            for a in (p, transposed(p)):
                for b in (q, transposed(q)):
                    assert state.phi_hadamard(a, b) == value
                    assert state.phi_hadamard(b, a) == value
            classes.add(hadamard_class(factor_key(p), factor_key(q)))
    assert len(products) == 2 * len(classes)  # p and q per miss


class RecordingState(FiniteNState):
    """A FiniteNState that logs the letters of each call."""

    def __init__(self, family):
        super().__init__(family)
        self.calls = []

    def phi(self, letters):
        self.calls.append(("phi", tuple(letters)))
        return super().phi(letters)

    def phi_hadamard(self, letters_p, letters_q):
        self.calls.append(("hadamard", tuple(letters_p), tuple(letters_q)))
        return super().phi_hadamard(letters_p, letters_q)


def phi_tilde_by_cycle_test(pairing, letters, state):
    """eval_phi_tilde_K with its own through-cycle test on each Kreweras cycle."""
    m = pairing.m
    k = kreweras(pairing)
    splits = iter(through_cycles(k, m, pairing.n))
    out = 1.0 + 0.0j
    for cyc in k.cycles:
        # a cycle starts at its minimum: it is a through cycle iff that
        # minimum is outer and its maximum inner; splits come in cycle order
        if cyc[0] <= m < max(cyc):
            outer, inner = next(splits)
            out *= state.phi_hadamard(
                [letters[i - 1] for i in outer], [letters[i - 1] for i in inner]
            )
        else:
            out *= state.phi([letters[i - 1] for i in cyc])
    return out


def test_phi_tilde_matches_cycle_test_loop():
    # a distinct letter per position, so each call names its positions
    fam = DetFamily([random_fixed(2, seed) for seed in range(12)])
    letters = [DetLetter.base(i) for i in range(12)]
    got_state, want_state = RecordingState(fam), RecordingState(fam)
    count = 0
    for total in range(2, 13, 2):
        for m in range(1, total):
            for p in enumerate_nc2(m, total - m):
                if p.through_count > 2:
                    continue
                word = letters[:total]
                got = eval_phi_tilde_K(p, word, got_state)
                assert got == phi_tilde_by_cycle_test(p, word, want_state)
                assert got_state.calls == want_state.calls
                got_state.calls, want_state.calls = [], []
                count += 1
    assert count == 5868


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

    # a block of two replicates per Wigner id
    xmats = {
        "goe": np.stack([sample_wigner(n, goe_law(), (seed, 0, rep)) for rep in range(2)]),
        "gue": np.stack([sample_wigner(n, gue_law(), (seed, 1, rep)) for rep in range(2)]),
    }
    mono = Monomial(tuple(pairs))
    cache = {}
    # the second pass reads every factor from the per-block cache
    for _ in range(2):
        got = _trace_word(mono, xmats, fam, cache, np.empty)
        assert got.shape == (2,)
        for rep in range(2):
            want = np.eye(n, dtype=complex)
            for wid, letter in pairs:
                want = want @ xmats[wid][rep] @ fam.letter_matrix(letter)
            assert abs(got[rep] - np.trace(want)) <= 1e-12 * max(1.0, abs(np.trace(want)))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**31), st.integers(1, 4), ZOO_LETTERS)
def test_times_on_a_stack_matches_each_slice(n, seed, b, fused):
    from wignerfluct.ensembles import goe_law, gue_law, sample_wigner

    fam = letter_zoo(n, seed)
    # every zoo matrix alone: gathers (diagonal, projection, shift), dense
    # letters, and a permutation with complex weights, which the real GOE
    # stack gathers into a complex result
    letters = [DetLetter.base(j) for j in range(8)] + [fused, IDENTITY_LETTER]
    for k, law in enumerate((goe_law(), gue_law())):
        stack = np.stack([sample_wigner(n, law, (seed, k, rep)) for rep in range(b)])
        for letter in letters:
            got = fam.times(stack, letter)
            for rep in range(b):
                want = fam.times(stack[rep], letter)
                assert got[rep].dtype == want.dtype
                assert got[rep].tobytes() == want.tobytes(), (letter, rep)
            # the traces of the same products, gathered or dense
            want = [np.trace(x @ fam.letter_matrix(letter)) for x in stack]
            np.testing.assert_allclose(
                fam.trace_times(stack, letter), want, rtol=1e-12, atol=1e-12
            )


def gather_zoo(n, seed):
    """Specs of members with at most one nonzero per column."""
    rng = np.random.default_rng(seed)
    phases = np.zeros((n, n, 2))
    angle = rng.uniform(0, 2 * np.pi, n)
    phases[rng.permutation(n), np.arange(n)] = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    signs = np.zeros((n, n, 2))
    signs[rng.permutation(n), np.arange(n), 0] = rng.choice([-1.5, 0.5, 1.0], n)
    return [
        {"kind": "diagonal_pattern", "values": [1, -0.5, 2]},
        {"kind": "projection", "rank_fraction": 0.5},
        {"kind": "circulant", "first_row": [0, 1]},
        {"kind": "circulant", "first_row": [0, 0, 0.5j]},
        {"kind": "dense", "data": phases.tolist()},
        {"kind": "dense", "data": signs.tolist()},
    ]


GATHER_LETTERS = st.lists(
    st.tuples(st.integers(0, 5), st.booleans(), st.booleans()), max_size=2
).map(lambda factors: DetLetter(tuple(factors)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 9),
    st.integers(0, 2**31),
    st.lists(GATHER_LETTERS, min_size=1, max_size=4),
    st.lists(GATHER_LETTERS, max_size=3),
)
def test_gather_members_match_the_same_matrices_given_dense(n, seed, p, q):
    from wignerfluct.ensembles import gue_law, sample_wigners, stream_keys

    built = family_from_json({"dim": n, "matrices": gather_zoo(n, seed)})
    given_dense = DetFamily(built.matrices)
    states = [FiniteNState(fam) for fam in (built, given_dense)]
    # phi and phi_hadamard of words with star, transpose and fused letters
    assert states[0].phi(p) == states[1].phi(p)
    assert states[0].phi_hadamard(p, q) == states[1].phi_hadamard(p, q)
    mat = np.arange(n * n, dtype=float).reshape(n, n) - n
    stack = sample_wigners(n, gue_law(), stream_keys(seed, 0, range(2)))
    for letter in p + q:
        for x in (mat, stack):
            a, b = [fam.times_into(x, letter, np.empty) for fam in (built, given_dense)]
            assert a.dtype == b.dtype and np.array_equal(a, b)
        a, b = [fam.trace_times(stack, letter) for fam in (built, given_dense)]
        assert np.array_equal(a, b)
        assert np.array_equal(built.letter_matrix(letter), given_dense.letter_matrix(letter))
    # the composed gather of a word, on the letter per factor of the least
    # rotation that phi takes, has the bits of its dense product's trace,
    # ``times`` after ``times``
    least = [DetLetter((f,)) for f in cyclic_min(factor_key(p))]
    for fam, state in zip((built, given_dense), states):
        assert state.phi(p) == complex(np.trace(fam.word_matrix(least)) / n)
        want = np.sum(np.diagonal(fam.word_matrix(p)) * np.diagonal(fam.word_matrix(q))) / n
        assert abs(state.phi_hadamard(p, q) - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**31), st.booleans(), ZOO_LETTERS, GATHER_LETTERS)
def test_letter_matrix_is_the_flagged_dense_product(n, seed, gathers, zoo_letter, gather_letter):
    # the dense view built from a letter's one cached operand: a one-factor
    # letter has the bits of its flagged member, a fused one may round apart
    if gathers:
        fam, letter = family_from_json({"dim": n, "matrices": gather_zoo(n, seed)}), gather_letter
    else:
        fam, letter = letter_zoo(n, seed), zoo_letter
    want = direct_matrix(fam, [letter])
    for _ in range(2):  # built, then from the cached operand
        got = fam.letter_matrix(letter)
        assert got.dtype == complex and got.shape == (n, n)
        if len(letter.factors) <= 1:
            assert np.array_equal(got, want), letter
        else:
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), letter


def test_transpose_of_a_gather_that_is_no_permutation_is_dense(monkeypatch):
    from wignerfluct import products

    n = 5
    top = np.outer(np.eye(n)[0], np.full(n, 0.4))  # every column on row 0
    fam = DetFamily([top, diagonal_pattern(n, [1, -1])])
    state = FiniteNState(fam)
    steps = []  # steps of dense word products
    times_stack = products._times_stack
    monkeypatch.setattr(
        products, "_times_stack", lambda stack, op: steps.append(1) or times_stack(stack, op))
    d = np.diag([1.0, -1.0, 1.0, -1.0, 1.0])
    # a0 and a0*t (the entrywise conjugate) are gathers; a0t and a0* are not
    for star, transpose, dense, want in [
        (False, False, False, top @ d),
        (True, True, False, top @ d),
        (False, True, True, top.T @ d),
        (True, False, True, top.T @ d),
    ]:
        letter = DetLetter.base(0, star=star, transpose=transpose)
        assert isinstance(fam.operand(letter), np.ndarray) == dense
        del steps[:]
        assert state.phi([letter, DetLetter.base(1)]) == pytest.approx(np.trace(want) / n)
        assert len(steps) == dense


def test_gather_families_take_no_dense_arrays():
    import tracemalloc

    from wignerfluct.annular import pairing_table
    from wignerfluct.covariance import WignerParams, phi2_terms
    from wignerfluct.words import parse_word

    p, q = parse_word("x1 a0 x1 a1 x1 a1*"), parse_word("x1 a1t x1 a0 x1 a1")
    params = {"1": WignerParams(0.5, 1.5, 1.0)}
    doc = {"dim": 2048, "norm_bound": 1, "matrices": [
        {"kind": "diagonal_pattern", "values": [1, -1]},
        {"kind": "circulant", "first_row": [0, 1]},
    ]}
    pairing_table(3, 3)  # built before the measurement: cached per (m, n), not per family
    tracemalloc.start()
    try:
        terms = phi2_terms(p, q, params, FiniteNState(family_from_json(doc)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense complex member would be 2048^2 * 16 B = 64 MiB
    assert peak < 1 << 20
    want = phi2_terms(p, q, params, FiniteNState(family_from_json(dict(doc, dim=8))))
    assert terms.total == pytest.approx(want.total)


def word_diagonal(fam, factors):
    """The complex diagonal of one word's product, a factor at a time: the
    bit reference of the stacked pass, ``products.word_diagonals``.

    A product of gathers composes factor by factor, left to right as
    ``times`` multiplies, to one gather, whose diagonal holds the weights
    at its fixed points and 0 elsewhere.  Any other product, and the empty
    one, is the diagonal of ``word_matrix`` on a letter per factor.
    """
    letters = [DetLetter((f,)) for f in factors]
    ops = [fam.operand(letter) for letter in letters]
    if not ops or not all(isinstance(op, Gather) for op in ops):
        return np.diagonal(fam.word_matrix(letters))
    rows, weights = functools.reduce(_compose, ops)
    out = np.zeros(fam.N, dtype=complex)
    fixed = rows == np.arange(fam.N)
    out[fixed] = weights[fixed]
    return out


def stacked_zoo(n, seed):
    """Members of every kind the stacked pass tells apart, at any N >= 1."""
    rng = np.random.default_rng(seed)
    phased = np.zeros((n, n), dtype=complex)  # a permutation with complex weights
    phased[rng.permutation(n), np.arange(n)] = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    signed = np.zeros((n, n))  # a real one with zero columns
    signed[rng.permutation(n), np.arange(n)] = rng.choice([-1.5, 0.0, 0.5, 1.0], n)
    top = np.zeros((n, n))  # a gather whose transpose is dense
    top[0] = 0.4
    return DetFamily([
        phased,
        signed,
        top,
        np.diag(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)),
        rng.standard_normal((n, n)),
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
    ])


STACKED_LETTERS = st.lists(
    st.tuples(st.integers(0, 5), st.booleans(), st.booleans()), max_size=2
).map(lambda factors: DetLetter(tuple(factors)))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(0, 2**31),
    st.integers(1, 3),
    st.lists(st.lists(STACKED_LETTERS, max_size=6), min_size=1, max_size=9),
)
def test_stacked_pass_has_the_bits_of_the_per_word_path(n, seed, block, words):
    # a stack holds ``block`` dense words, or block * N gather words, so the
    # word counts fall on both sides of a stack's end
    from unittest import mock

    from wignerfluct import products, states

    fam = stacked_zoo(n, seed)
    keys = [factor_key(word) for word in words]
    with mock.patch.object(products, "BLOCK_ELEMS", block * n * n), \
            mock.patch.object(states, "BLOCK_ELEMS", block * n * n):
        got = word_diagonals(fam, keys)
        state = FiniteNState(fam)
        values = state.evaluate(
            [states.word_key(k) for k in keys]
            + [(states.word_key(a), states.word_key(b)) for a, b in zip(keys, keys[::-1])])
        phis, hadamards = values[:len(keys)], values[len(keys):]
    for key, row in zip(keys, got):
        assert row.tobytes() == word_diagonal(fam, key).tobytes(), key
    # phi on the least rotation, phi_hadamard on each word or its transpose,
    # the one with fewer t flags, one word at a time as the per-word path did
    for key, value in zip(keys, phis):
        want = complex(word_diagonal(fam, cyclic_min(key)).sum() / n) if key else 1.0
        assert value == want, key
    for (a, b), value in zip(zip(keys, keys[::-1]), hadamards):
        least = sorted(
            min([k, DetLetter(k).transpose().factors], key=lambda k: (sum(f[2] for f in k), k))
            for k in (a, b))
        p, q = [word_diagonal(fam, k) for k in least]
        assert value == complex(np.sum(p * q) / n), (a, b)


def test_seven_plus_seven_pair_takes_few_products(monkeypatch):
    # one stacked pass for all four channels of the theory_deg7_n8 seed-1
    # pair: the per-word path took 2812 products, one per factor after the first
    from wignerfluct import products, states
    from wignerfluct.covariance import WignerParams, phi2_terms
    from wignerfluct.words import parse_word

    calls = []
    for name in ("_times_stack", "_compose"):
        fn = getattr(products, name)
        monkeypatch.setattr(products, name, lambda a, b, fn=fn: calls.append(1) or fn(a, b))
    passes = []
    stacked = states.word_diagonals
    monkeypatch.setattr(states, "word_diagonals",
                        lambda fam, words: passes.append(1) or stacked(fam, words))
    fam = DetFamily([diagonal_pattern(8, [1, -1, 0.5]), circulant(8, [0.5, 0.5])])
    p = parse_word("x1 a1 x1 a1 x1 a1 x1 a0 x1 a1 x1 a1 x1 a0")
    q = parse_word("x1 a0 x1 a1 x1 a0 x1 a1 x1 a0 x1 a1 x1 a0")
    terms = phi2_terms(p, q, {"1": WignerParams(0.5, 2.0, 1.0)}, FiniteNState(fam))
    assert terms.s1 != 0 and terms.s2 != 0 and terms.s4 != 0  # odd degrees: no S3
    assert passes == [1]
    assert 0 < len(calls) <= 100, len(calls)


def test_stack_cut_bounds_a_dense_pass():
    # N = 64 with a dense member: a stack holds BLOCK_ELEMS // N^2 = 4 words
    import tracemalloc
    from unittest import mock

    from wignerfluct import products, states
    from wignerfluct.annular import pairing_table
    from wignerfluct.covariance import WignerParams, phi2_terms
    from wignerfluct.words import parse_word

    p = parse_word("x1 a0 x1 a1 x1 a0 x1 a1 x1 a0")
    q = parse_word("x1 a1 x1 a0 x1 a1 x1 a1 x1 a0")
    params = {"1": WignerParams(0.5, 2.0, 1.0)}
    pairing_table(5, 5)  # cached per (m, n), not per family

    def peak(block):
        fam = DetFamily([diagonal_pattern(64, [1, -1, 0.5]), circulant(64, [0.5, 0.5])])
        with mock.patch.object(products, "BLOCK_ELEMS", block), \
                mock.patch.object(states, "BLOCK_ELEMS", block):
            tracemalloc.start()
            try:
                terms = phi2_terms(p, q, params, FiniteNState(fam))
                return terms, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    (cut, cut_peak), (whole, whole_peak) = peak(products.BLOCK_ELEMS), peak(2**40)
    assert cut == whole
    assert cut_peak < 3e6, cut_peak
    assert whole_peak > 6e6, whole_peak  # every word of a length in one stack


def test_real_gather_words_compose_in_floats_beside_complex_ones():
    # (-1.5 + 0j)(-1.5 + 0j) has the imaginary part -0.0 in complex arithmetic,
    # where the per-word path multiplies the real weights as floats: +0.0
    fam = DetFamily([np.diag([-1.5, -2.0]), np.diag([1j, 2.0])])
    words = [((0, False, False), (0, False, False)), ((1, False, False),),
             ((0, False, False), (1, False, False))]
    got = word_diagonals(fam, words)
    for word, row in zip(words, got):
        assert row.tobytes() == word_diagonal(fam, word).tobytes(), word
    assert np.signbit(got[0].imag).sum() == 0


def test_a_complex_member_times_its_transpose_has_the_per_word_bits():
    # one word multiplies the member itself by its transposed view, which numpy
    # takes in syrk; a product of copies would be a gemm, apart in the last bits
    rng = np.random.default_rng(3)
    shift = np.roll(np.diag(np.exp(1j * rng.uniform(0, 6, 5))), 1, axis=0)
    fam = DetFamily([rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)), shift])
    words = []
    for first in ((0, False, False), (0, False, True), (0, True, False)):
        for second in ((0, False, False), (0, False, True), (0, True, True)):
            for third in ((0, False, False), (1, False, False)):
                words += [(first,), (first, second), (first, second, third)]
    got = word_diagonals(fam, words)
    for word, row in zip(words, got):
        assert row.tobytes() == word_diagonal(fam, word).tobytes(), word
