import hashlib
import math
import tracemalloc
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
    params_of,
    rademacher_law,
    sample_wigner,
    sample_wigners,
    solve_law,
    stream_keys,
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


def reference_rng(seed_key):
    """A Philox generator on SeedSequence(seed_key): the stream the sampler keys."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_key)))


def test_make_rng_reproducible():
    a = reference_rng((1, 2, 3)).random(5)
    b = reference_rng((1, 2, 3)).random(5)
    np.testing.assert_array_equal(a, b)
    c = reference_rng((1, 2, 4)).random(5)
    assert not np.array_equal(a, c)
    key = reference_rng((1, 2, 3)).bit_generator.state["state"]["key"]
    np.testing.assert_array_equal(stream_keys(1, 2, [3]), [key])


if HAVE_HYP:

    @given(
        seed=st.integers(0, 2**120 - 1),
        k=st.integers(0, 2**40 - 1),
        reps=st.lists(st.integers(0, 2**32 - 1), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_stream_keys_match_seed_sequence(seed, k, reps):
        got = stream_keys(seed, k, reps)
        assert got.dtype == np.uint64 and got.shape == (len(reps), 2)
        for row, rep in zip(got, reps):
            want = np.random.SeedSequence((seed, k, rep)).generate_state(2, np.uint64)
            np.testing.assert_array_equal(row, want)


def test_stream_keys_edge_words():
    # a 0 is one word; 2**32 and up take more words, past the pool of four
    for seed in (0, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3):
        for k in (0, 1, 2**33):
            reps = [0, 1, 2**32 - 1]
            want = [np.random.SeedSequence((seed, k, rep)).generate_state(2, np.uint64)
                    for rep in reps]
            np.testing.assert_array_equal(stream_keys(seed, k, reps), want)
    assert stream_keys(3, 0, []).shape == (0, 2)
    for bad in ((-1, 0, [0]), (0, -1, [0]), (0, 0, [-1]), (0, 0, [2**32])):
        with pytest.raises(ValueError):
            stream_keys(*bad)


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


def discrete_sample(law, rng, size):
    """The values of a*s of a ``SymmetricDiscreteLaw`` at ``size`` fresh
    uniforms, the reference for its ``atoms``."""
    a = math.sqrt(float(law.a2))
    pr = float(law.p)
    u = rng.random(size)
    return np.where(u < pr, -a, np.where(u < 2.0 * pr, a, 0.0))


def sample_wigner_reference(n, law, seed_key):
    """The sampler before its cached layout: scatter, X + X^H, divide."""
    rng = reference_rng(seed_key)
    iu = np.triu_indices(n, k=1)
    k = iu[0].size
    real = is_real_law(law)
    if law.kind == "gaussian_complex":
        off = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2)
        diag = rng.standard_normal(n) * math.sqrt(float(law.diag_variance))
    elif law.kind == "gaussian_real":
        off = rng.standard_normal(k)
        diag = rng.standard_normal(n) * math.sqrt(float(law.diag_variance))
    else:
        off = discrete_sample(law.u, rng, k)
        if not real:
            off = off + 1j * discrete_sample(law.v, rng, k)
        diag = discrete_sample(law.diag, rng, n)
    x = np.zeros((n, n), dtype=float if real else complex)
    x[iu] = off
    x = x + x.conj().T
    x[np.diag_indices(n)] = diag
    return x / math.sqrt(n)


def test_sample_wigner_bytes_match_reference():
    laws = [PRESETS[name]() for name in sorted(PRESETS)] + [
        # both solved laws put zero atoms in v; the second has a zero diagonal
        solve_law(Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)),
        solve_law(Fraction(-1, 2), Fraction(0), Fraction(3)),
        # atoms of size 0 in u draw -0.0, whose sign the old sum X + X^H fixed
        EntryLaw(
            "uv_discrete",
            u=SymmetricDiscreteLaw(Fraction(0), Fraction(1, 2)),
            v=SymmetricDiscreteLaw(Fraction(2), Fraction(1, 4)),
            diag=SymmetricDiscreteLaw(Fraction(0), Fraction(1, 2)),
        ),
    ]
    for law in laws:
        for n in (1, 2, 3, 8, 33):
            for rep in range(3):
                got = sample_wigner(n, law, (6, 1, rep))
                want = sample_wigner_reference(n, law, (6, 1, rep))
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (law, n, rep)


# the laws of test_sample_wigner_bytes_match_reference, the -0.0 law among them
BLOCK_LAWS = [PRESETS[name]() for name in sorted(PRESETS)] + [
    solve_law(Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)),
    solve_law(Fraction(-1, 2), Fraction(0), Fraction(3)),
    EntryLaw(
        "uv_discrete",
        u=SymmetricDiscreteLaw(Fraction(0), Fraction(1, 2)),
        v=SymmetricDiscreteLaw(Fraction(2), Fraction(1, 4)),
        diag=SymmetricDiscreteLaw(Fraction(0), Fraction(1, 2)),
    ),
]


@pytest.mark.parametrize("law", BLOCK_LAWS)
def test_sample_wigners_block_bytes_match_single_draws(law):
    for b in (1, 2, 7):
        reps = range(4, 4 + b)
        for n in (1, 2, 3, 8, 33):
            got = sample_wigners(n, law, stream_keys(6, 1, reps))
            want = np.stack([sample_wigner_reference(n, law, (6, 1, rep)) for rep in reps])
            assert got.shape == (b, n, n) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (law, b, n)
            for i, rep in enumerate(reps):
                assert got[i].tobytes() == sample_wigner(n, law, (6, 1, rep)).tobytes()


def test_sample_wigner_peak_memory():
    # the matrix, the off-diagonal draws (half its entries) and one buffer
    # of the same size: about 2x the matrix
    for law in (gue_law(), solve_law(Fraction(1, 2), Fraction(1), Fraction(1)),
                goe_law(), rademacher_law()):
        sample_wigner(400, law, (3, 0, 0))  # the layout is cached per N
        tracemalloc.start()
        try:
            x = sample_wigner(400, law, (3, 0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * x.nbytes, (law, peak / x.nbytes)


def test_sample_wigner_second_moment():
    # E[Tr X^2] = N - 1 + eta for any unit-variance law
    for law, eta in [(gue_law(), 1.0), (goe_law(), 2.0), (rademacher_law(), 1.0)]:
        n, reps = 30, 400
        # one stream_keys call for all replicates; the draws are sample_wigner's
        xs = sample_wigners(n, law, stream_keys(11, 0, range(reps)))
        vals = [np.trace(x @ x).real for x in xs]
        got = np.mean(vals)
        want = n - 1 + eta
        se = np.std(vals) / math.sqrt(reps)
        assert abs(got - want) < 5 * se + 0.05
