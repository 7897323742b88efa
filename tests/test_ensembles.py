import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYP = True
except ImportError:  # pragma: no cover
    HAVE_HYP = False

from wignerfluct.ensembles import (
    PRESETS,
    EntryLaw,
    SymmetricDiscreteLaw,
    diagonal_moment,
    entry_moment,
    goe_law,
    gue_law,
    is_real_law,
    make_rng,
    params_of,
    rademacher_law,
    sample_wigner,
    solve_law,
)


def test_discrete_law_moments():
    law = SymmetricDiscreteLaw(Fraction(4), Fraction(1, 8))
    assert law.moment(0) == 1
    assert law.moment(1) == 0
    assert law.moment(2) == 1
    assert law.moment(4) == 4
    with pytest.raises(ValueError):
        SymmetricDiscreteLaw(Fraction(1), Fraction(3, 4))


def test_preset_params():
    assert params_of(gue_law()) == (0, 1, 0)
    assert params_of(goe_law()) == (1, 2, 0)
    assert params_of(rademacher_law()) == (1, 1, -2)


def test_entry_law_variance_check():
    half = SymmetricDiscreteLaw(Fraction(1), Fraction(1, 4))
    with pytest.raises(ValueError):
        EntryLaw("uv_discrete", u=half, v=half.zero(), diag=half)


def test_solve_law_roundtrip():
    cases = [
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(-2)),
        (Fraction(1, 2), Fraction(2), Fraction(1)),
        (Fraction(-1, 3), Fraction(0), Fraction(5, 7)),
    ]
    for theta, eta, k4 in cases:
        law = solve_law(theta, eta, k4)
        assert params_of(law) == (theta, eta, k4)


def test_solve_law_rejects_out_of_range():
    with pytest.raises(ValueError):
        solve_law(2, 1, 0)
    with pytest.raises(ValueError):
        solve_law(0, -1, 0)
    with pytest.raises(ValueError):
        solve_law(0, 1, -3)


if HAVE_HYP:

    @given(
        theta=st.fractions(min_value=-1, max_value=1, max_denominator=12),
        eta=st.fractions(min_value=0, max_value=4, max_denominator=12),
        excess=st.fractions(min_value=0, max_value=3, max_denominator=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_solve_law_roundtrip_property(theta, eta, excess):
        k4 = -1 - theta * theta + excess
        law = solve_law(theta, eta, k4)
        assert params_of(law) == (theta, eta, k4)


    PRESET_LAWS = st.sampled_from([gue_law(), goe_law(), rademacher_law()])

    @st.composite
    def admissible_laws(draw):
        theta = draw(st.fractions(min_value=-1, max_value=1, max_denominator=12))
        eta = draw(st.fractions(min_value=0, max_value=4, max_denominator=12))
        excess = draw(st.fractions(min_value=0, max_value=3, max_denominator=12))
        return solve_law(theta, eta, -1 - theta * theta + excess)

    @given(law=st.one_of(PRESET_LAWS, admissible_laws()), p=st.integers(0, 7), q=st.integers(0, 7))
    @settings(max_examples=80, deadline=None)
    def test_odd_order_moments_vanish(law, p, q):
        # the precondition of the parity pruning in graphs.exact_moment
        if (p + q) % 2:
            assert entry_moment(law, p, q) == 0
        if p % 2:
            assert diagonal_moment(law, p) == 0


def test_entry_moments_gue():
    law = gue_law()
    assert entry_moment(law, 1, 1) == 1
    assert entry_moment(law, 2, 0) == 0
    assert entry_moment(law, 2, 2) == 2
    assert diagonal_moment(law, 2) == 1
    assert diagonal_moment(law, 4) == 3


def test_entry_moments_goe():
    law = goe_law()
    assert entry_moment(law, 2, 0) == 1
    assert entry_moment(law, 1, 1) == 1
    assert entry_moment(law, 2, 2) == 3
    assert diagonal_moment(law, 2) == 2
    assert diagonal_moment(law, 4) == 12


def test_entry_moments_discrete_match_sampling_free_identity():
    # for a real sign law, E[x^p xbar^q] depends only on p + q
    law = rademacher_law()
    for p in range(4):
        for q in range(4):
            want = Fraction(1) if (p + q) % 2 == 0 else Fraction(0)
            assert entry_moment(law, p, q) == want


def test_entry_moment_matches_numeric_expectation():
    law = solve_law(Fraction(1, 2), Fraction(1), Fraction(1))
    # brute force over the atoms of u and v
    def support(d):
        a = d.a2
        pts = [(0, 1 - 2 * d.p)]
        if d.p > 0:
            pts += [(a, d.p), (-a, d.p)]  # store squared magnitudes times sign
        return pts

    for p, q in [(2, 0), (1, 1), (2, 2), (3, 1), (4, 0)]:
        total = Fraction(0)
        for ua2, up in support(law.u):
            for va2, vp in support(law.v):
                if up == 0 or vp == 0:
                    continue
                u = math.copysign(math.sqrt(abs(float(ua2))), float(ua2) or 1)
                v = math.copysign(math.sqrt(abs(float(va2))), float(va2) or 1)
                x = complex(u, v)
                total += Fraction(up) * Fraction(vp) * Fraction(
                    (x ** p * x.conjugate() ** q).real
                ).limit_denominator(10 ** 9)
        assert float(entry_moment(law, p, q)) == pytest.approx(float(total), abs=1e-9)


def test_make_rng_reproducible():
    a = make_rng((1, 2, 3)).random(5)
    b = make_rng((1, 2, 3)).random(5)
    np.testing.assert_array_equal(a, b)
    c = make_rng((1, 2, 4)).random(5)
    assert not np.array_equal(a, c)


def test_is_real_law():
    assert not is_real_law(gue_law())
    assert is_real_law(goe_law())
    assert is_real_law(rademacher_law())
    assert not is_real_law(solve_law(Fraction(1, 2), Fraction(1), Fraction(0)))


def test_sample_wigner_hermitian_and_scaled():
    for law in (gue_law(), goe_law(), rademacher_law()):
        x = sample_wigner(50, law, (7, 0, 0))
        np.testing.assert_allclose(x, x.conj().T)
        if is_real_law(law):
            assert x.dtype == np.float64
    x = sample_wigner(40, rademacher_law(), (7, 0, 0))
    offs = np.abs(x[np.triu_indices(40, k=1)]) * math.sqrt(40)
    np.testing.assert_allclose(offs, 1.0)


def test_sample_wigner_reproducible():
    a = sample_wigner(12, gue_law(), (1, 2, 3))
    b = sample_wigner(12, gue_law(), (1, 2, 3))
    np.testing.assert_array_equal(a, b)


# sha256 of the draws below; a change to it means every Monte Carlo output
# changed, so renew it only in a change that alters the draws on purpose
DRAWS_SHA256 = "7fa09fce83a540ba0a1a2a091ff794508b4225317f949bbc2657a0a86af57ad9"


def test_sample_wigner_golden_hash():
    laws = [(name, PRESETS[name]()) for name in sorted(PRESETS)]
    laws.append(("solved", solve_law(Fraction(1, 3), Fraction(1, 2), Fraction(1, 4))))
    h = hashlib.sha256()
    for name, law in laws:
        for n in (3, 8):
            for k in (0, 1):  # two ensemble ids
                for rep in (0, 1):
                    x = sample_wigner(n, law, (2024, k, rep))
                    h.update(("%s %d %d %d %s;" % (name, n, k, rep, x.dtype.str)).encode())
                    h.update(x.tobytes())
    assert h.hexdigest() == DRAWS_SHA256


def test_sample_wigner_second_moment():
    # E[Tr X^2] = N - 1 + eta for any unit-variance law
    for law, eta in [(gue_law(), 1.0), (goe_law(), 2.0), (rademacher_law(), 1.0)]:
        n, reps = 30, 400
        vals = [
            np.trace(sample_wigner(n, law, (11, 0, r)) @ sample_wigner(n, law, (11, 0, r))).real
            for r in range(reps)
        ]
        got = np.mean(vals)
        want = n - 1 + eta
        se = np.std(vals) / math.sqrt(reps)
        assert abs(got - want) < 5 * se + 0.05
