"""Covariance formula against independent oracles.

The scalar anchors come from the moment method at N -> infinity for the
identity family; the structured checks compare against explicit closed forms
for low-degree words and against the exact finite-N partition oracle.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wignerfluct.covariance import (
    GOE,
    GUE,
    RADEMACHER,
    WignerParams,
    conjugate_cov,
    first_order,
    first_order_poly,
    phi2,
    phi2_poly,
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
from wignerfluct.words import DetLetter, Monomial, Polynomial, parse_word

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


def test_first_order_semicircle_moments():
    # semicircle even moments are the Catalan numbers 1, 2, 5
    x = parse_word("x1")
    assert first_order(x, id_params(), IDENTITY_STATE) == 0
    x2 = parse_word("x1 x1")
    assert first_order(x2, id_params(), IDENTITY_STATE) == pytest.approx(1.0)
    x4 = parse_word("x1 x1 x1 x1")
    assert first_order(x4, id_params(), IDENTITY_STATE) == pytest.approx(2.0)
    x6 = parse_word("x1 " * 6)
    assert first_order(x6, id_params(), IDENTITY_STATE) == pytest.approx(5.0)


def test_first_order_mixed_labels_vanish_unless_matched():
    w = parse_word("x1 x2")
    assert first_order(w, id_params(), IDENTITY_STATE) == 0
    w2 = parse_word("x1 x2 x2 x1")
    assert first_order(w2, id_params(), IDENTITY_STATE) == pytest.approx(1.0)


def test_first_order_poly_linear():
    poly = Polynomial.from_terms(
        [(2.0, parse_word("x1 x1")), (1.0, parse_word("x1 x1 x1 x1"))]
    )
    assert first_order_poly(poly, id_params(), IDENTITY_STATE) == pytest.approx(4.0)


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


def test_phi2_poly_bilinear():
    fam = DetFamily([diagonal_pattern(4, [1, -1])])
    state = FiniteNState(fam)
    p = parse_word("x1 a0")
    q = parse_word("x1 a0 x1 a0")
    pars = {"1": GOE}
    pol = Polynomial.from_terms([(2.0, p), (3.0, q)])
    want = (
        4 * phi2(p, p, pars, state)
        + 6 * phi2(p, q, pars, state)
        + 6 * phi2(q, p, pars, state)
        + 9 * phi2(q, q, pars, state)
    )
    assert phi2_poly(pol, pol, pars, state) == pytest.approx(want)


def test_conjugate_cov_real_words():
    fam = DetFamily([diagonal_pattern(4, [1, -1])])
    state = FiniteNState(fam)
    p = parse_word("x1 a0")
    pars = {"1": GUE}
    # real symmetric letter: conjugation does nothing
    assert conjugate_cov(p, p, pars, state) == pytest.approx(
        phi2(p, p, pars, state)
    )


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


COEFFS = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
POLYNOMIALS = st.lists(
    st.tuples(
        COEFFS,
        st.lists(
            st.tuples(st.sampled_from(["1", "2"]), LETTERS), min_size=1, max_size=3
        ).map(lambda pairs: Monomial(tuple(pairs))),
    ),
    min_size=1,
    max_size=3,
).map(Polynomial.from_terms)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**31), POLYNOMIALS, POLYNOMIALS,
       PARAMS, PARAMS)
def test_conjugate_cov_is_hermitian(n, seed, P, Q, par1, par2):
    # E[z(p) conj(z(q))] = conj(E[z(q) conj(z(p))]), computed through Q.star()
    state = random_state(n, seed)
    params = {"1": par1, "2": par2}
    value = conjugate_cov(P, Q, params, state)
    swapped = conjugate_cov(Q, P, params, state)
    assert abs(value - swapped.conjugate()) <= 1e-10 * (1 + abs(value))


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
        for name in ("kreweras", "through_cycles", "disc_kreweras"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, recording(name, getattr(mod, name)))
    annular._enumerate_nc2_cached.cache_clear()
    annular.disc_kreweras_cycles.cache_clear()
    fam = DetFamily([diagonal_pattern(6, [1, -0.5, 2]), circulant(6, [0.5, 1])])
    state = FiniteNState(fam)
    params = {"1": WignerParams(0.5, 2.0, 1.0)}
    p = parse_word("x1 a0 x1 a1 x1 a0 x1")
    q = parse_word("x1 a1 x1 x1 a0 x1")
    assert phi2_terms(p, q, params, state).s3 != 0
    odd = parse_word("x1 a0 x1 a1 x1")
    assert phi2_terms(odd, parse_word("x1 a1 x1 x1 a0 x1 x1"), params, state).s4 != 0
    assert first_order(parse_word("x1 a0 x1 a1 x1 x1"), params, state) != 0
    assert calls == []
