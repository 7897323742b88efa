import math

import numpy as np
import pytest

from wignerfluct.ensembles import goe_law, gue_law, rademacher_law
from wignerfluct.montecarlo import (
    TraceSamples,
    empirical_cov,
    empirical_cumulants,
    is_gaussian,
    mixed_third_cumulant,
    run_traces,
)
from wignerfluct.states import DetFamily, FiniteNState, circulant, diagonal_pattern
from wignerfluct.words import parse_word


def family(n):
    return DetFamily([diagonal_pattern(n, [1, -1]), circulant(n, [0, 1])])


def test_run_traces_validation():
    fam = family(8)
    p = parse_word("x1 a0")
    with pytest.raises(ValueError):
        run_traces([p], 8, 1, {"1": gue_law()}, fam, 0)
    with pytest.raises(ValueError):
        run_traces([p], 9, 4, {"1": gue_law()}, fam, 0)
    with pytest.raises(KeyError):
        run_traces([p], 8, 4, {"2": gue_law()}, fam, 0)


def test_run_traces_reproducible():
    fam = family(10)
    p = parse_word("x1 a0 x1 a1")
    a = run_traces([p], 10, 6, {"1": goe_law()}, fam, 42)
    b = run_traces([p], 10, 6, {"1": goe_law()}, fam, 42)
    np.testing.assert_array_equal(a.traces(p), b.traces(p))
    c = run_traces([p], 10, 6, {"1": goe_law()}, fam, 43)
    assert not np.array_equal(a.traces(p), c.traces(p))


def test_run_traces_trace_values_match_direct_product():
    # cross-check the cached fast path against a plain matrix product, for
    # complex and real X and for a one-pair word
    from wignerfluct.ensembles import sample_wigner

    n = 7
    fam = family(n)
    words = [parse_word("x1 a0 x1 a1"), parse_word("x1 a1")]
    for law in (gue_law(), goe_law()):
        samples = run_traces(words, n, 3, {"1": law}, fam, 5)
        for rep in range(3):
            x = sample_wigner(n, law, (5, 0, rep))
            for p in words:
                want = np.eye(n)
                for letter in p.det_letters:
                    want = want @ x @ fam.letter_matrix(letter)
                got = samples.traces(p)[rep]
                assert got == pytest.approx(np.trace(want), rel=1e-12, abs=1e-12)


def test_degree_zero_monomial_constant():
    n = 6
    fam = family(n)
    mono = parse_word("a0")
    samples = run_traces([mono], n, 4, {}, fam, 0)
    vals = samples.traces(mono)
    assert np.all(vals == vals[0])
    est, se = empirical_cov(samples, mono, mono)
    assert est == 0
    assert se == 0


def test_empirical_cov_matches_numpy():
    n = 8
    fam = family(n)
    p = parse_word("x1 a0")
    q = parse_word("x1 a1 x1 a0")
    samples = run_traces([p, q], n, 200, {"1": goe_law()}, fam, 9)
    zp = np.real(samples.traces(p))
    zq = np.real(samples.traces(q))
    est, se = empirical_cov(samples, p, q)
    want = np.cov(zp, zq, ddof=1)[0, 1]
    assert est.real == pytest.approx(want)
    assert est.imag == pytest.approx(0.0, abs=1e-12)
    assert se > 0


def test_k2_matches_variance():
    n = 8
    fam = family(n)
    p = parse_word("x1 a0")
    samples = run_traces([p], n, 400, {"1": gue_law()}, fam, 3)
    cums = empirical_cumulants(samples, p)
    var, _ = empirical_cov(samples, p, p)
    order, k2, se = cums[0]
    assert order == 2
    assert k2 == pytest.approx(var.real)


def test_cumulant_calibration_synthetic_gaussian():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(20000) * 2.0
    samples = TraceSamples(("z",), {"z": z.astype(complex)}, 0, len(z), 0, ())
    cums = empirical_cumulants(samples, "z")
    k2 = cums[0][1]
    assert k2 == pytest.approx(4.0, rel=0.05)
    for order, value, se in cums[1:]:
        assert abs(value) < 5 * se
    ok, _ = is_gaussian(samples, "z")
    assert ok


def test_cumulant_detects_skewness():
    rng = np.random.default_rng(1)
    z = rng.exponential(1.0, 20000)
    samples = TraceSamples(("z",), {"z": z.astype(complex)}, 0, len(z), 0, ())
    ok, cums = is_gaussian(samples, "z")
    assert not ok
    # exponential cumulants are 1, 2, 6 at orders 2..4
    assert cums[1][1] == pytest.approx(2.0, rel=0.2)


def test_mixed_third_cumulant_synthetic():
    rng = np.random.default_rng(2)
    g = rng.standard_normal(40000)
    zp = g
    zq = g * g  # cum(zp, zp, zq) = 2 for this construction
    samples = TraceSamples(
        ("p", "q"), {"p": zp.astype(complex), "q": zq.astype(complex)}, 0, len(g), 0, ()
    )
    val, se = mixed_third_cumulant(samples, "p", "q")
    assert val == pytest.approx(2.0, abs=5 * se)


def test_cumulants_need_enough_replicates():
    samples = TraceSamples(("z",), {"z": np.zeros(50, dtype=complex)}, 0, 50, 0, ())
    with pytest.raises(ValueError):
        empirical_cumulants(samples, "z")


def test_missing_monomial_raises():
    samples = TraceSamples((), {}, 0, 2, 0, ())
    with pytest.raises(KeyError):
        samples.traces(parse_word("x1"))


def test_variance_against_theory_small():
    # quick MC sanity: Var Tr X for Rademacher should be near eta = 1
    fam = DetFamily([np.eye(20)])
    x = parse_word("x1")
    samples = run_traces([x], 20, 600, {"1": rademacher_law()}, fam, 17)
    est, se = empirical_cov(samples, x, x)
    assert abs(est.real - 1.0) < 6 * se + 0.05
