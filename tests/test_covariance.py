"""Covariance formula against independent oracles.

The scalar anchors come from the moment method at N -> infinity for the
identity family; the structured checks compare against explicit closed forms
for low-degree words and against the exact finite-N partition oracle.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wignerfluct.annular import enumerate_nc2, is_non_mixing
from wignerfluct.covariance import (
    GOE,
    GUE,
    RADEMACHER,
    WignerParams,
    phi2,
    phi2_terms,
    phi2_two_term,
)
from wignerfluct.states import (
    DetFamily,
    FiniteNState,
    circulant,
    diagonal_pattern,
    random_fixed,
)
from wignerfluct.words import DetLetter, Monomial, canonicalize, parse_word, s_transform

IDENTITY_STATE = FiniteNState(DetFamily([np.eye(2)]))


def id_params(p=GUE):
    return {"1": p, "2": p}


def test_params_validation():
    with pytest.raises(ValueError):
        WignerParams(theta=2.0)
    with pytest.raises(ValueError):
        WignerParams(eta=-1.0)
    with pytest.raises(ValueError):
        WignerParams(k4=-5.0)


def test_phi2_scalar_anchor_degree_one():
    x = parse_word("x1")
    for par, want in [(GUE, 1.0), (GOE, 2.0), (RADEMACHER, 1.0)]:
        got = phi2(x, x, {"1": par}, IDENTITY_STATE)
        assert got == pytest.approx(want), par


def test_phi2_scalar_anchor_degree_two():
    # phi2(x^2, x^2) = 2 + 2 k4 + 2 theta^2
    xx = parse_word("x1 x1")
    for par, want in [(GUE, 2.0), (GOE, 4.0), (RADEMACHER, 0.0)]:
        got = phi2(xx, xx, {"1": par}, IDENTITY_STATE)
        assert got == pytest.approx(want), par


def test_phi2_parity_and_degree_zero():
    x = parse_word("x1")
    xx = parse_word("x1 x1")
    a = parse_word("a0")
    assert phi2(x, xx, id_params(), IDENTITY_STATE) == 0
    assert phi2(a, xx, id_params(), IDENTITY_STATE) == 0


def test_phi2_symmetric_in_arguments():
    fam = DetFamily([diagonal_pattern(6, [1, -1]), circulant(6, [0, 1])])
    state = FiniteNState(fam)
    p = parse_word("x1 a0 x1 a1")
    q = parse_word("x1 a1")
    pars = {"1": GOE}
    assert phi2(p, q, pars, state) == pytest.approx(phi2(q, p, pars, state))


def test_degree_one_closed_form():
    # phi2(x a1, x a2) = phi(a1 a2) + theta phi(a1 a2^t)
    #                    + (eta - 1 - theta) phi_circ(a1, a2)
    fam = DetFamily([diagonal_pattern(5, [1, -1, 2]), circulant(5, [0, 1, 0.5])])
    state = FiniteNState(fam)
    p = parse_word("x1 a0")
    q = parse_word("x1 a1")
    a0 = p.det_letters[0]
    a1 = q.det_letters[0]
    for par in (GUE, GOE, RADEMACHER, WignerParams(0.5, 2.0, 1.0)):
        want = (
            state.phi([a0, a1])
            + par.theta * state.phi_transpose([a0], [a1])
            + (par.eta - 1 - par.theta) * state.phi_hadamard([a0], [a1])
        )
        got = phi2(p, q, {"1": par}, state)
        assert got == pytest.approx(want), par


def test_degree_two_mixed_closed_form():
    # cov of x_{w1} a1 x_{w2} a2 against x_{w3} a3 x_{w4} a4 with independent
    # Wigner ids: pair terms, a k4 term, and a theta theta transpose term
    fam = DetFamily([circulant(5, [0, 1]), diagonal_pattern(5, [1, -1, 0.5]),
                     circulant(5, [0.2, 0, 1]), diagonal_pattern(5, [2, 0, 1])])
    state = FiniteNState(fam)

    def phi(*letters):
        return state.phi(list(letters))

    def phit(a, b):
        return state.phi_transpose([a], [b])

    def phic(a, b):
        return state.phi_hadamard([a], [b])

    par = WignerParams(0.5, 1.5, 0.75)
    for w1, w2, w3, w4 in [("1", "2", "1", "2"), ("1", "2", "2", "1"),
                           ("1", "1", "1", "1"), ("1", "2", "1", "3")]:
        p = parse_word("x%s a0 x%s a1" % (w1, w2))
        q = parse_word("x%s a2 x%s a3" % (w3, w4))
        pars = {w: par for w in (w1, w2, w3, w4)}
        a1l, a2l = p.det_letters
        a3l, a4l = q.det_letters
        d13 = w1 == w3
        d14 = w1 == w4
        d23 = w2 == w3
        d24 = w2 == w4
        d_all = w1 == w2 == w3 == w4
        want = (
            (d13 and d24) * phi(a1l, a4l) * phi(a2l, a3l)
            + (d14 and d23) * phi(a1l, a3l) * phi(a2l, a4l)
            + par.k4 * d_all * (
                phic(a1l, a4l) * phic(a2l, a3l) + phic(a1l, a3l) * phic(a2l, a4l)
            )
            + par.theta ** 2 * (
                (d13 and d24) * phit(a1l, a3l) * phit(a2l, a4l)
                + (d14 and d23) * phit(a1l, a4l) * phit(a2l, a3l)
            )
        )
        got = phi2(p, q, pars, state)
        assert got == pytest.approx(want), (w1, w2, w3, w4)


def test_two_term_path_agrees_for_flat_ensembles():
    fam = DetFamily([diagonal_pattern(6, [1, -1]), circulant(6, [0, 1])])
    state = FiniteNState(fam)
    pars = {"1": GUE, "2": WignerParams(0.0, 1.0, -0.5)}
    words = [parse_word(w) for w in ("x1 a0", "x1 a0 x1 a1", "x2 a1", "x1 a1 x2 a0")]
    for p in words:
        for q in words:
            assert phi2(p, q, pars, state) == pytest.approx(
                phi2_two_term(p, q, pars, state)
            ), (p, q)


def test_phi2_terms_split_sums_to_total():
    fam = DetFamily([diagonal_pattern(4, [1, -1])])
    state = FiniteNState(fam)
    p = parse_word("x1 a0 x1 a0")
    t = phi2_terms(p, p, {"1": RADEMACHER}, state)
    assert t.s1 + t.s2 + t.s3 + t.s4 == t.total
    assert phi2(p, p, {"1": RADEMACHER}, state) == t.total


LETTERS = st.lists(
    st.tuples(st.integers(0, 1), st.booleans(), st.booleans()), max_size=2
).map(lambda factors: DetLetter(tuple(factors)))
MONOMIALS = st.lists(
    st.tuples(st.sampled_from(["1", "2"]), LETTERS), min_size=1, max_size=4
).map(lambda pairs: Monomial(tuple(pairs)))
PARAMS = st.builds(
    WignerParams,
    theta=st.floats(-1, 1),
    eta=st.floats(0, 3),
    k4=st.floats(-1, 2),
)


def random_state(n, seed):
    return FiniteNState(DetFamily([random_fixed(n, seed), random_fixed(n, seed + 1)]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31), MONOMIALS, MONOMIALS,
       PARAMS, PARAMS, st.integers(0, 3))
def test_phi2_symmetric_and_cyclic(n, seed, p, q, par1, par2, k):
    assume((p.degree + q.degree) % 2 == 0)
    state = random_state(n, seed)
    params = {"1": par1, "2": par2}
    value = phi2(p, q, params, state)
    tol = 1e-10 * (1 + abs(value))
    assert abs(phi2(q, p, params, state) - value) <= tol
    k %= p.degree
    rotated = Monomial(p.pairs[k:] + p.pairs[:k])
    assert abs(phi2(rotated, q, params, state) - value) <= tol


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31), MONOMIALS, MONOMIALS, PARAMS)
def test_phi2_odd_total_degree_is_zero(n, seed, p, q, par):
    assume((p.degree + q.degree) % 2 == 1)
    assert phi2(p, q, {"1": par, "2": par}, random_state(n, seed)) == 0


def star(mono):
    """The adjoint word: the letters reversed, each factor's star flag flipped."""
    tokens = []
    for w, a in reversed(mono.pairs):
        letter = DetLetter(tuple((j, not s, t) for j, s, t in reversed(a.factors)))
        tokens += [("a", letter), ("x", w)]
    return canonicalize(tokens)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**31), MONOMIALS, MONOMIALS,
       PARAMS, PARAMS)
def test_conjugate_cov_is_hermitian(n, seed, p, q, par1, par2):
    # E[z(p) conj(z(q))] = phi2(p, q*) = conj(E[z(q) conj(z(p))])
    assume((p.degree + q.degree) % 2 == 0)
    assert star(star(p)) == p
    state = random_state(n, seed)
    params = {"1": par1, "2": par2}
    value = phi2(p, star(q), params, state)
    swapped = phi2(q, star(p), params, state)
    assert abs(value - swapped.conjugate()) <= 1e-10 * (1 + abs(value))
    # a real diagonal letter is its own adjoint: q* evaluates as q
    real = FiniteNState(DetFamily([diagonal_pattern(4, [1, -1])]))
    x = parse_word("x1 a0")
    assert phi2(x, star(x), params, real) == pytest.approx(phi2(x, x, params, real))


FAMILY_LETTERS = st.lists(
    st.tuples(st.integers(0, 2), st.booleans(), st.booleans()), max_size=2
).map(lambda factors: DetLetter(tuple(factors)))
EVEN_MONOMIALS = st.integers(1, 4).flatmap(
    lambda half: st.lists(
        st.tuples(st.sampled_from(["1", "2"]), FAMILY_LETTERS),
        min_size=2 * half,
        max_size=2 * half,
    )
).map(lambda pairs: Monomial(tuple(pairs)))


def test_evaluation_reads_pairing_tables(monkeypatch):
    # the Kreweras data comes from each pairing's table, not from the
    # Kreweras maps, wherever a module binds them
    from wignerfluct import annular, covariance, states

    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for mod in (annular, covariance, states):
        for name in ("kreweras",):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, recording(name, getattr(mod, name)))
    annular._enumerate_nc2_cached.cache_clear()
    fam = DetFamily([diagonal_pattern(6, [1, -0.5, 2]), circulant(6, [0.5, 1])])
    state = FiniteNState(fam)
    params = {"1": WignerParams(0.5, 2.0, 1.0)}
    p = parse_word("x1 a0 x1 a1 x1 a0 x1")
    q = parse_word("x1 a1 x1 x1 a0 x1")
    assert phi2_terms(p, q, params, state).s3 != 0
    odd = parse_word("x1 a0 x1 a1 x1")
    assert phi2_terms(odd, parse_word("x1 a1 x1 x1 a0 x1 x1"), params, state).s4 != 0
    assert calls == []


def _phi_K_reference(sigma, letters, state):
    """The per-cycle loop of eval_phi_K before its cycle memo."""
    out = 1.0 + 0.0j
    for cyc in sigma.kreweras_cycles:
        out *= state.phi([letters[i - 1] for i in cyc])
    return out


def _phi_tilde_K_reference(sigma, letters, state):
    out = 1.0 + 0.0j
    for cyc, split in zip(sigma.kreweras_cycles, sigma.through_splits):
        if split is None:
            out *= state.phi([letters[i - 1] for i in cyc])
        else:
            outer, inner = split
            out *= state.phi_hadamard(
                [letters[i - 1] for i in outer], [letters[i - 1] for i in inner]
            )
    return out


def phi2_terms_reference(p, q, params, state):
    """phi2_terms and phi2_two_term as one loop, asking state for every cycle."""
    labels = p.wigner_labels + q.wigner_labels
    letters = p.det_letters + q.det_letters
    sq = s_transform(q)
    labels_t = p.wigner_labels + sq.wigner_labels
    letters_t = p.det_letters + sq.det_letters
    s1, s2, s3, s4, two = [], [], [], [], []
    for sigma in enumerate_nc2(p.degree, q.degree):
        if is_non_mixing(sigma, labels):
            s1.append(_phi_K_reference(sigma, letters, state))
            two.append(s1[-1])
            l = sigma.through_count
            found = {labels[i - 1] for i, _ in sigma.through_strings()}
            if l <= 2 and len(found) == 1:
                par = params[found.pop()]
                weight = par.k4 if l == 2 else par.eta - 1 - par.theta
                if weight != 0:
                    tilde = _phi_tilde_K_reference(sigma, letters, state)
                    (s3 if l == 2 else s4).append(weight * tilde)
                    if l == 2:
                        two.append(par.k4 * tilde)
        if is_non_mixing(sigma, labels_t):
            theta_sigma = 1.0 + 0.0j
            for i, _ in sigma.through_strings():
                theta_sigma *= params[labels_t[i - 1]].theta
            if theta_sigma != 0:
                s2.append(theta_sigma * _phi_K_reference(sigma, letters_t, state))
    csum = lambda v: complex(math.fsum(x.real for x in v), math.fsum(x.imag for x in v))
    return [csum(s) for s in (s1, s2, s3, s4)], csum(two)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**31), EVEN_MONOMIALS, EVEN_MONOMIALS,
       PARAMS, PARAMS, st.booleans())
def test_phi2_terms_equal_the_per_cycle_loop(n, seed, p, q, par1, par2, odd):
    # each distinct cycle is evaluated once; the totals are the same bits
    if odd:  # odd degrees reach the one-through-string channel S4
        p, q = Monomial(p.pairs[1:]), Monomial(q.pairs[1:])
    fam = DetFamily([
        diagonal_pattern(n, [1, -0.5, 2j]),
        circulant(n, [0.5, 1]),
        random_fixed(n, seed),
    ])
    params = {"1": par1, "2": par2}
    want, want_two = phi2_terms_reference(p, q, params, FiniteNState(fam))
    got = phi2_terms(p, q, params, FiniteNState(fam))
    assert [got.s1, got.s2, got.s3, got.s4] == want
    assert phi2_two_term(p, q, params, FiniteNState(fam)) == want_two


def rotated(mono, k):
    """The monomial rotated by k (Wigner, letter) pairs: its trace is the same."""
    k %= mono.degree
    return Monomial(mono.pairs[k:] + mono.pairs[:k])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**31), EVEN_MONOMIALS, EVEN_MONOMIALS,
       PARAMS, PARAMS, st.integers(0, 7), st.integers(0, 7))
def test_terms_do_not_depend_on_the_pairs_before(n, seed, p, q, par1, par2, j, k):
    # one state serves every pair of a command.  The pair (q, p) rotated asks
    # for the classes of (p, q) in other rotations; each is computed on one
    # representative, whichever pair asks first, so the bits are the same
    fam = DetFamily([
        diagonal_pattern(n, [1, -0.5, 2j]),
        circulant(n, [0.5, 1]),
        random_fixed(n, seed),
    ])
    params = {"1": par1, "2": par2}
    first, second = (p, q), (rotated(q, j), rotated(p, k))
    for a, b in (first, second), (second, first):
        alone = phi2_terms(*b, params, FiniteNState(fam))
        state = FiniteNState(fam)
        phi2_terms(*a, params, state)
        assert phi2_terms(*b, params, state) == alone


def test_cold_phi2_terms_peak_memory():
    # a cold 7+7 phi2_terms, with the pairing table built in the call: the
    # per-pairing loop, which built 2800 AnnularPairing objects and their
    # cycle tuples, peaked at 3.12 MB under tracemalloc; the table at 2.0 MB
    from wignerfluct import annular

    fam = DetFamily([diagonal_pattern(8, [1, -1, 0.5]), circulant(8, [0.5, 0.5])])
    params = {"1": WignerParams(0.5, 2.0, 1.0)}
    p = parse_word("x1 a0 x1 a1 x1 a0 x1 a1 x1 a0 x1 a1 x1 a0")
    q = parse_word("x1 a1 x1 a0 x1 a1 x1 a1 x1 a0 x1 a1 x1 a1")
    phi2_terms(p, parse_word("x1 a1 x1 a0 x1"), params, FiniteNState(fam))  # first calls
    annular.pairing_table.cache_clear()
    annular._enumerate_nc2_cached.cache_clear()
    tracemalloc.start()
    try:
        terms = phi2_terms(p, q, params, FiniteNState(fam))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms.s1 != 0 and terms.s4 != 0
    assert annular._enumerate_nc2_cached.cache_info().currsize == 0  # no pairing objects
    assert peak < 2.6e6, peak
