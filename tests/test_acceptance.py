"""End-to-end acceptance checks for the covariance library.

Each test prints one PASS line so a headless run yields a readable scoreboard.
Tolerances: algebraic identities at 1e-10, Monte Carlo at 4 or 5 standard
errors plus an O(1/N) allowance where finite-size bias enters.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from wignerfluct.annular import (
    AnnularPairing,
    _involutions,
    _through_pairs,
    enumerate_nc2,
    filter_by_through,
    is_annular_noncrossing,
    is_annular_noncrossing_recursive,
    kreweras,
)
from wignerfluct.covariance import (
    GOE,
    GUE,
    RADEMACHER,
    WignerParams,
    phi2,
    phi2_terms,
    phi2_two_term,
)
from wignerfluct.ensembles import (
    goe_law,
    gue_law,
    params_of,
    rademacher_law,
    solve_law,
)
from wignerfluct.graphs import (
    build_cycle_graph,
    classify,
    exact_moment,
    exact_tau2,
    omega_X,
    quotient,
    set_partitions,
)
from wignerfluct.montecarlo import (
    empirical_cov,
    empirical_cumulants,
    mixed_third_cumulant,
    run_traces,
)
from wignerfluct.states import (
    DetFamily,
    FiniteNState,
    circulant,
    diagonal_pattern,
    eval_phi_K,
    eval_phi_tilde_K,
    random_fixed,
)
from wignerfluct.words import DetLetter, Monomial, parse_word


def make_pairing(m, n, pairs):
    match = [0] * (m + n + 1)
    for a, b in pairs:
        match[a], match[b] = b, a
    return AnnularPairing(m, n, tuple(match))


FIG_PAIRS = [(1, 2), (3, 10), (4, 5), (6, 9), (7, 8), (11, 12)]


class RecordingState:
    """Stub state that logs which letter cycles each functional receives."""

    def __init__(self):
        self.phi_calls = []
        self.hadamard_calls = []

    @staticmethod
    def _tags(letters):
        return tuple(letter.factors[0][0] for letter in letters)

    def phi(self, letters):
        self.phi_calls.append(self._tags(letters))
        return 1.0 + 0.0j

    def phi_hadamard(self, letters_p, letters_q):
        self.hadamard_calls.append((self._tags(letters_p), self._tags(letters_q)))
        return 1.0 + 0.0j


def test_criterion_01_reference_pairing_fixture():
    sigma = make_pairing(8, 4, FIG_PAIRS)
    k = kreweras(sigma)
    assert k.cycles == [(1,), (2, 10, 12, 6, 8), (3, 5, 9), (4,), (7,), (11,)]

    letters = [DetLetter.base(i) for i in range(12)]
    rec = RecordingState()
    eval_phi_K(sigma, letters, rec)
    assert sorted(rec.phi_calls) == sorted(
        [(0,), (1, 9, 11, 5, 7), (2, 4, 8), (3,), (6,), (10,)]
    )

    rec = RecordingState()
    eval_phi_tilde_K(sigma, letters, rec)
    assert sorted(rec.phi_calls) == sorted([(0,), (3,), (6,), (10,)])
    assert sorted(rec.hadamard_calls) == sorted(
        [((5, 7, 1), (9, 11)), ((2, 4), (8,))]
    )
    print("PASS criterion 1: reference pairing fixture")


def test_criterion_02_pairing_invariants():
    for total in range(2, 13, 2):
        for m in range(1, total):
            n = total - m
            pairings = enumerate_nc2(m, n)
            for p in pairings:
                k = kreweras(p)
                assert p.as_permutation().num_cycles + k.num_cycles == m + n
                assert p.through_count % 2 == m % 2
            # parity emptiness of the odd/even through filters
            if m % 2 == 0:
                assert filter_by_through(pairings, 1) == []
            else:
                assert filter_by_through(pairings, 2) == []
            # the two independent predicates agree on every candidate
            for match in _involutions(m + n):
                if not _through_pairs(match, m, n):
                    continue
                assert is_annular_noncrossing(match, m, n) == \
                    is_annular_noncrossing_recursive(match, m, n)
    print("PASS criterion 2: pairing invariants up to 12 points")


def test_criterion_03_degree_one_identity_random_params():
    n = 64
    fam = DetFamily(
        [
            diagonal_pattern(n, [1, -1, 0.5]),
            circulant(n, [0, 1, 0.25]),
            random_fixed(n, seed=7),
        ]
    )
    state = FiniteNState(fam)
    rng = np.random.default_rng(2024)
    words = [parse_word("x1 a%d" % j) for j in range(3)]
    for _ in range(20):
        theta = rng.uniform(-1, 1)
        eta = rng.uniform(0, 3)
        k4 = rng.uniform(-1 - theta * theta, 3)
        par = WignerParams(theta, eta, k4)
        for p in words:
            for q in words:
                a1 = p.det_letters[0]
                a2 = q.det_letters[0]
                want = (
                    state.phi([a1, a2])
                    + theta * state.phi_transpose([a1], [a2])
                    + (eta - 1 - theta) * state.phi_hadamard([a1], [a2])
                )
                got = phi2(p, q, {"1": par}, state)
                assert abs(got - want) < 1e-10
    print("PASS criterion 3: degree-one identity for 20 random parameter sets")


def test_criterion_04_degree_two_identity_all_label_patterns():
    n = 6
    fam = DetFamily(
        [
            circulant(n, [0, 1]),
            diagonal_pattern(n, [1, -1, 0.5]),
            circulant(n, [0.2, 0, 1]),
            diagonal_pattern(n, [2, 0, 1]),
        ]
    )
    state = FiniteNState(fam)
    pars = {"1": WignerParams(0.5, 1.5, 0.75), "2": WignerParams(-0.25, 2.0, 0.5)}

    def phi(a, b):
        return state.phi([a, b])

    def phit(a, b):
        return state.phi_transpose([a], [b])

    def phic(a, b):
        return state.phi_hadamard([a], [b])

    for bits in range(16):
        l1, l2, l3, l4 = [("1", "2")[bits >> k & 1] for k in range(4)]
        p = parse_word("x%s a0 x%s a1" % (l1, l2))
        q = parse_word("x%s a2 x%s a3" % (l3, l4))
        a1, a2 = p.det_letters
        a3, a4 = q.det_letters
        d13, d14 = l1 == l3, l1 == l4
        d23, d24 = l2 == l3, l2 == l4
        d_all = l1 == l2 == l3 == l4
        terms = phi2_terms(p, q, pars, state)
        want_s1 = (d13 and d24) * phi(a1, a4) * phi(a2, a3) + (
            d14 and d23
        ) * phi(a1, a3) * phi(a2, a4)
        want_s3 = (
            pars[l1].k4
            * d_all
            * (phic(a1, a4) * phic(a2, a3) + phic(a1, a3) * phic(a2, a4))
        )
        want_s2 = pars[l1].theta * pars[l2].theta * (
            (d13 and d24) * phit(a1, a3) * phit(a2, a4)
            + (d14 and d23) * phit(a1, a4) * phit(a2, a3)
        )
        assert abs(terms.s1 - want_s1) < 1e-10, (l1, l2, l3, l4)
        assert abs(terms.s2 - want_s2) < 1e-10, (l1, l2, l3, l4)
        assert abs(terms.s3 - want_s3) < 1e-10, (l1, l2, l3, l4)
        assert terms.s4 == 0
    print("PASS criterion 4: degree-two identity over all 16 label patterns")


def _random_monomial(rng, degree):
    parts = []
    for _ in range(degree):
        parts.append("x%s" % rng.choice(["1", "2"]))
        parts.append("a%d" % rng.integers(0, 2))
    return parse_word(" ".join(parts))


def test_criterion_05_special_case_reductions():
    n = 8
    fam = DetFamily([diagonal_pattern(n, [1, -1]), circulant(n, [0, 1])])
    state = FiniteNState(fam)
    rng = np.random.default_rng(77)
    flat = {
        "1": WignerParams(0.0, 1.0, rng.uniform(-1, 2)),
        "2": WignerParams(0.0, 1.0, rng.uniform(-1, 2)),
    }
    checked = 0
    while checked < 50:
        m = int(rng.integers(1, 5))
        nn = int(rng.integers(1, 5))
        if (m + nn) % 2:
            continue
        p = _random_monomial(rng, m)
        q = _random_monomial(rng, nn)
        gue_terms = phi2_terms(p, q, {"1": GUE, "2": GUE}, state)
        assert gue_terms.s2 == 0 and gue_terms.s3 == 0 and gue_terms.s4 == 0
        goe_terms = phi2_terms(p, q, {"1": GOE, "2": GOE}, state)
        assert goe_terms.s3 == 0 and goe_terms.s4 == 0
        a = phi2(p, q, flat, state)
        b = phi2_two_term(p, q, flat, state)
        assert abs(a - b) < 1e-12
        checked += 1
    print("PASS criterion 5: special-case reductions on 50 random pairs")


def test_criterion_06_scalar_anchors():
    state = FiniteNState(DetFamily([np.eye(2)]))
    x = parse_word("x1")
    xx = parse_word("x1 x1")
    for par in (GUE, GOE, RADEMACHER, WignerParams(0.3, 1.7, 0.2)):
        assert phi2(x, x, {"1": par}, state) == pytest.approx(par.eta, abs=1e-12)
        want = 2 + 2 * par.k4 + 2 * par.theta ** 2
        assert phi2(xx, xx, {"1": par}, state) == pytest.approx(want, abs=1e-12)
    print("PASS criterion 6: scalar anchors (eta and 2 + 2k4 + 2theta^2)")


MC_N = 400
MC_R = 4000
MC_ENSEMBLES = {
    "gue": gue_law(),
    "goe": goe_law(),
    "rademacher": rademacher_law(),
    "designed": solve_law(Fraction(1, 2), Fraction(1), Fraction(1)),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(MC_ENSEMBLES))
def test_criterion_07_monte_carlo_vs_theory(name):
    law = MC_ENSEMBLES[name]
    theta, eta, k4 = params_of(law)
    par = WignerParams(float(theta), float(eta), float(k4))
    fam = DetFamily([diagonal_pattern(MC_N, [1, -1]), circulant(MC_N, [0, 1])])
    state = FiniteNState(fam)
    m0 = parse_word("x1 a0")
    m1 = parse_word("x1 a1 x1 a1")
    m2 = parse_word("x2 a0")
    pairs = [(m0, m0), (m1, m1), (m0, m2)]
    laws = {"1": law, "2": law}
    pars = {"1": par, "2": par}
    samples = run_traces([m0, m1, m2], MC_N, MC_R, laws, fam, 1234)
    for p, q in pairs:
        want = phi2(p, q, pars, state)
        est, se = empirical_cov(samples, p, q)
        tol = 4 * se + 8.0 / MC_N
        assert abs(est - want) <= tol, (name, str(p), str(q), est, want, tol)
    print("PASS criterion 7: Monte Carlo vs theory (%s)" % name)


def test_criterion_08_exact_oracle_agreement():
    n = 8
    fam = DetFamily([diagonal_pattern(n, [1, -1]), circulant(n, [0, 1])])
    law = goe_law()
    pairs = [
        (parse_word("x1 a0"), parse_word("x1 a1")),
        (parse_word("x1 a0 x1 a1"), parse_word("x1 a0 x1 a1")),
    ]
    monos = sorted({m for pq in pairs for m in pq}, key=str)
    samples = run_traces(monos, n, 20000, {"1": law}, fam, 99)
    for p, q in pairs:
        exact = exact_tau2(p, q, fam, {"1": law})
        est, se = empirical_cov(samples, p, q)
        assert abs(est - exact) <= 4 * se, (str(p), str(q), est, exact, se)

    ident = DetFamily([np.eye(n)])
    g = build_cycle_graph([parse_word("x1 x1")])
    for law, eta in [(gue_law(), 1), (goe_law(), 2), (rademacher_law(), 1)]:
        got = exact_moment(g, ident, {"1": law})
        assert got == pytest.approx(n - 1 + eta, abs=1e-9)
    print("PASS criterion 8: exact finite-N oracle agreement at N = 8")


def test_criterion_09_oracle_to_limit_trend():
    theta, eta, k4 = Fraction(1, 2), Fraction(2), Fraction(1)
    law = solve_law(theta, eta, k4)
    par = WignerParams(float(theta), float(eta), float(k4))
    xx = parse_word("x1 x1")
    limit = phi2(xx, xx, {"1": par}, FiniteNState(DetFamily([np.eye(2)])))
    errs = {}
    for n in (6, 8, 12):
        fam = DetFamily([np.eye(n)])
        errs[n] = abs(exact_tau2(xx, xx, fam, {"1": law}) - limit)
    c = errs[6] * 6
    for n in (8, 12):
        assert errs[n] <= 2 * c / n, (n, errs, c)
    print("PASS criterion 9: oracle error bounded by C/N with C fitted at N = 6")


def _twin_structure(graph, part, qgraph):
    """Match the four X-edge positions through the quotient, with orientation."""
    vmap = {v: b for b, block in enumerate(part) for v in block}
    groups = {}
    for e in graph.edges:
        if e.kind != "x":
            continue
        groups.setdefault(frozenset((vmap[e.src], vmap[e.trg])), []).append(e)
    position_groups = []
    orientations = set()
    for es in groups.values():
        position_groups.append(frozenset((e.cycle, e.src[1]) for e in es))
        directed = {(vmap[e.src], vmap[e.trg]) for e in es}
        orientations.add("opposite" if len(directed) == 2 else "parallel")
    assert len(orientations) == 1
    return frozenset(position_groups), orientations.pop()


def test_criterion_10_topological_property_suite():
    graph = build_cycle_graph([parse_word("x1 x1"), parse_word("x1 x1")])
    # a law with theta, eta - 1 - theta and k4 all nonzero keeps every
    # surviving quotient type visible in the weights
    laws = {"1": solve_law(Fraction(1, 2), Fraction(2), Fraction(1))}
    kinds = {"two_four_tree": [], "double_unicyclic": []}
    for part in set_partitions(graph.vertices):
        q = quotient(graph, part)
        w2 = omega_X(q, laws, order=2)
        rep = classify(q)
        if w2 == 0:
            continue
        # surviving weights force non-positive order, zero exactly on the
        # valid quotient types
        assert rep.q <= 0, part
        assert (rep.q == 0) == rep.valid, part
        if rep.q == 0 and len(rep.components) == 1:
            comp = rep.components[0]
            assert comp.kind in kinds
            kinds[comp.kind].append((part, q))

    target = len(enumerate_nc2(2, 2))
    assert target == 2
    assert len(kinds["two_four_tree"]) == target

    structures = {}
    for part, q in kinds["double_unicyclic"]:
        key = _twin_structure(graph, part, q)
        structures.setdefault(key, 0)
        structures[key] += 1
    by_orientation = {"opposite": 0, "parallel": 0}
    for (positions, orientation), count in structures.items():
        assert count == 3  # three ways to merge the deterministic cycle sides
        by_orientation[orientation] += 1
    assert by_orientation["opposite"] == target
    assert by_orientation["parallel"] == target
    print("PASS criterion 10: topological classification over all 4140 partitions")


@pytest.mark.slow
@pytest.mark.parametrize("name", ["gue", "rademacher"])
def test_criterion_11_gaussian_fluctuations(name):
    law = {"gue": gue_law(), "rademacher": rademacher_law()}[name]
    n, r = 400, 8000
    fam = DetFamily([np.eye(n)])
    p = parse_word("x1 x1")
    q = parse_word("x1 x1 x1 x1")
    samples = run_traces([p, q], n, r, {"1": law}, fam, 2718)
    # the small absolute floor covers the degenerate sign-law case where the
    # trace is exactly constant and the standard error is exactly zero
    for order, value, se in empirical_cumulants(samples, p):
        if order >= 3:
            assert abs(value) <= 5 * se + 1e-9, (name, order, value, se)
    mixed, se = mixed_third_cumulant(samples, p, q)
    assert abs(mixed) <= 5 * se + 1e-9, (name, mixed, se)
    print("PASS criterion 11: vanishing higher cumulants (%s)" % name)


def test_criterion_12_parity_vanishing():
    n = 8
    fam = DetFamily([diagonal_pattern(n, [1, -1]), circulant(n, [0, 1])])
    state = FiniteNState(fam)
    rng = np.random.default_rng(31)
    pars = {"1": GOE, "2": GOE}
    checked = 0
    while checked < 20:
        m = int(rng.integers(1, 5))
        nn = int(rng.integers(1, 5))
        if (m + nn) % 2 == 0:
            continue
        p = _random_monomial(rng, m)
        q = _random_monomial(rng, nn)
        assert phi2(p, q, pars, state) == 0
        checked += 1

    big = DetFamily([np.eye(100)])
    x = parse_word("x1")
    xx = parse_word("x1 x1")
    samples = run_traces([x, xx], 100, 2000, {"1": gue_law()}, big, 404)
    est, se = empirical_cov(samples, x, xx)
    assert abs(est) <= 4 * se, (est, se)
    print("PASS criterion 12: odd-parity covariances vanish")
