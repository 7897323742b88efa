import functools
import random
import resource
import threading
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerfluct import montecarlo
from wignerfluct.ensembles import (
    fill_wigners,
    goe_law,
    gue_law,
    rademacher_law,
    sample_wigner,
    sample_wigners,
    solve_law,
    stream_keys,
)
from wignerfluct.montecarlo import (
    DEFAULT_BATCHES,
    TraceSamples,
    _batch_se,
    _k_stats,
    empirical_cov,
    empirical_cumulants,
    mixed_third_cumulant,
    run_traces,
)
from wignerfluct.states import DetFamily, circulant, diagonal_pattern, random_fixed
from wignerfluct.words import DetLetter, Monomial, parse_word


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


def _trace_word_reference(mono, xmats, family, cache):
    """One replicate's trace of a word on N x N draws, as before blocks."""
    mats = []
    for key in mono.pairs:
        got = cache.get(key)
        if got is None:
            got = cache[key] = family.times(xmats[key[0]], key[1])
        mats.append(got)
    if len(mats) == 1:
        return complex(mats[0].trace())
    p = functools.reduce(np.matmul, mats[1:-1], mats[0])
    return complex(np.sum(p * mats[-1].T))


def run_traces_reference(words, n, r, ensembles, family, master_seed):
    """The per-replicate loop of run_traces before blocks: {word: traces}."""
    wids = sorted({w for mono in words for w in mono.wigner_labels})
    # the keys of all replicates in one call; the draws are sample_wigner's
    keys = {wid: stream_keys(master_seed, k, range(r)) for k, wid in enumerate(wids)}
    data = {mono: np.empty(r, dtype=complex) for mono in words}
    for rep in range(r):
        cache = {}
        xmats = {wid: sample_wigners(n, ensembles[wid], keys[wid][rep:rep + 1])[0] for wid in wids}
        for mono in words:
            data[mono][rep] = _trace_word_reference(mono, xmats, family, cache)
    return data


def letter_family(n, seed):
    """Identity, diagonal, cyclic shift and a dense complex matrix."""
    shift = np.roll(np.eye(n), 1, axis=1)
    return DetFamily([np.eye(n), diagonal_pattern(n, [1, -0.5, 2]), shift, random_fixed(n, seed)])


MC_LAWS = [gue_law(), goe_law(), rademacher_law(), solve_law(Fraction(1, 3), 1, Fraction(1, 2))]
# up to two flagged factors: the identity, base, starred, transposed and fused letters
MC_LETTERS = st.lists(
    st.tuples(st.integers(0, 3), st.booleans(), st.booleans()), max_size=2
).map(lambda factors: DetLetter(tuple(factors)))
MC_PAIRS = st.tuples(st.sampled_from(["1", "2"]), MC_LETTERS)
# words of up to 6 pairs glued from a few shared pieces of up to 3 pairs, so
# that halves repeat within a word and recur across the words of a block
MC_WORDS = st.lists(st.lists(MC_PAIRS, min_size=1, max_size=3), min_size=1, max_size=3).flatmap(
    lambda pieces: st.lists(
        st.lists(st.sampled_from(pieces), min_size=1, max_size=2).map(
            lambda chosen: Monomial(tuple(pair for piece in chosen for pair in piece))
        ),
        min_size=1, max_size=4, unique=True,
    )
)
# in every example: one-pair words on the identity letter, the identity
# matrix, the diagonal and shift gathers, starred and transposed gathers and
# the dense letter; a square, fourth and sixth power; a long gather word
FIXED_WORDS = tuple(parse_word(t) for t in (
    "x1", "x2 a0", "x1 a1", "x2 a2", "x1 a2*", "x2 a1t", "x1 a3", "x2 a3*t",
    "x1 x1", "x2 x2 x2 x2", "x1 x1 x1 x1 x1 x1", "x1 a2 x1 a2 x1 a2 x1 a2 x1 a2",
))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 8]),
    st.sampled_from(MC_LAWS),
    st.sampled_from(MC_LAWS),
    MC_WORDS,
    st.integers(2, 5),
    st.integers(0, 3),
    st.data(),
)
def test_blocked_run_traces_match_per_replicate_loop(n, law1, law2, words, block, whole, data):
    # R is not a multiple of the block, so the last block is short
    r = whole * block + data.draw(st.integers(1, block - 1))
    if r < 2:
        r += block
    words = list(dict.fromkeys(words + list(FIXED_WORDS)))
    fam = letter_family(n, 5)
    laws = {"1": law1, "2": law2}
    with mock.patch.object(montecarlo, "BLOCK_ELEMS", block * n * n):
        got = run_traces(words, n, r, laws, fam, 11)
    want = run_traces_reference(words, n, r, laws, fam, 11)
    for mono in words:
        np.testing.assert_allclose(got.traces(mono), want[mono], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("texts, products", [
    (["x1 x1"], 0),
    (["x1 x1 x1 x1"], 1),
    (["x1 x1 x1 x1 x1 x1"], 2),
    # X X, then (X X)(X X): equal halves at every level
    (["x1 x1 x1 x1 x1 x1 x1 x1"], 2),
    # X X is built once and serves both words; the square needs no product
    (["x1 x1", "x1 x1 x1 x1", "x1 x1 x1 x1 x1 x1"], 2),
    # (X A)(X A) once for both halves; X A itself is a times product
    (["x1 a3 x1 a3 x1 a3 x1 a3"], 1),
    # one- and two-pair words on gather letters, the identity among them
    (["x1", "x1 a1", "x1 a2", "x1 a1 x1 a2"], 0),
])
def test_products_per_block(monkeypatch, texts, products):
    n, r, block = 6, 10, 4
    words = [parse_word(t) for t in texts]
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", block * n * n)
    with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul:
        run_traces(words, n, r, {"1": gue_law()}, letter_family(n, 2), 8)
    # three blocks: 4 + 4 + 2 replicates
    assert matmul.call_count == 3 * products


N400_LAWS = {
    "gue": gue_law(),
    "goe": goe_law(),
    "rademacher": rademacher_law(),
    "designed": solve_law(Fraction(1, 2), Fraction(1), Fraction(1)),
}


@pytest.mark.parametrize("name", sorted(N400_LAWS))
@pytest.mark.parametrize("texts, seed", [
    (("x1 a0", "x1 a1 x1 a1", "x2 a0"), 1234),  # criterion 7
    (("x1 x1", "x1 x1 x1 x1"), 2718),  # criterion 11
])
def test_acceptance_words_at_n400_match_per_replicate_loop(texts, seed, name):
    # the words, family and seeds of the acceptance runs, two replicates
    n = 400
    words = [parse_word(t) for t in texts]
    fam = DetFamily([diagonal_pattern(n, [1, -1]), circulant(n, [0, 1])])
    laws = {"1": N400_LAWS[name], "2": N400_LAWS[name]}
    got = run_traces(words, n, 2, laws, fam, seed)
    want = run_traces_reference(words, n, 2, laws, fam, seed)
    for mono in words:
        np.testing.assert_allclose(got.traces(mono), want[mono], rtol=1e-12, atol=1e-12)


def test_run_traces_bit_identical_across_block_sizes(monkeypatch):
    n, r = 8, 37
    fam = letter_family(n, 3)
    texts = ("x1 a3", "x1 a1 x2 a2", "x2 a3 x1 a2* x1 a1 a3t", "x2 x2 x2 x2")
    words = [parse_word(w) for w in texts]
    laws = {"1": goe_law(), "2": solve_law(Fraction(-1, 2), 2, 1)}
    runs = []
    # one replicate, a size that does not divide R, and one block of all R
    for block in (1, 5, 64):
        monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", block * n * n)
        runs.append(run_traces(words, n, r, laws, fam, 4))
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", 1)
    short = run_traces(words, n, 10, laws, fam, 4)
    for mono in words:
        for other in runs[1:]:
            np.testing.assert_array_equal(other.traces(mono), runs[0].traces(mono))
        # replicate i is keyed by i alone, whatever R is
        np.testing.assert_array_equal(short.traces(mono), runs[0].traces(mono)[:10])


# words that mix ids within a word and repeat an id, on three ids
THREAD_WORDS = tuple(parse_word(t) for t in (
    "x3 x3", "x1 a0 x2 a1", "x2 x2 x2 x2", "x1 a3", "x3 a1 x3 a2*", "x1 a1 x1 a2 x1 a3",
    "x2 a3 x1 a2 x3 a1", "x2",
))
THREAD_LAWS = {"1": gue_law(), "2": goe_law(), "3": solve_law(Fraction(1, 3), 1, 2)}


def _sample_threads(monkeypatch):
    """Patch the block sampler to record the threads that call it; returns their set."""
    threads = set()

    def sample(*args):
        threads.add(threading.current_thread())
        return fill_wigners(*args)

    monkeypatch.setattr(montecarlo, "fill_wigners", sample)
    return threads


def test_run_traces_bit_identical_across_core_counts(monkeypatch):
    # blocks of one replicate, and R = 7 is a multiple of neither 2 nor 3
    n, r = 8, 7
    fam = letter_family(n, 6)
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", n * n)
    runs = []
    for cores in (1, 2, 3):
        threads = _sample_threads(monkeypatch)
        monkeypatch.setattr(montecarlo, "_cores", lambda: cores)
        runs.append(run_traces(THREAD_WORDS, n, r, THREAD_LAWS, fam, 21))
        # the calling thread and cores - 1 helpers each ran a share
        assert len(threads) == cores
    want = run_traces_reference(THREAD_WORDS, n, r, THREAD_LAWS, fam, 21)
    for mono in THREAD_WORDS:
        for other in runs[1:]:
            np.testing.assert_array_equal(other.traces(mono), runs[0].traces(mono))
        np.testing.assert_allclose(runs[0].traces(mono), want[mono], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("block, cores", [(1, 2), (3, 1)])
def test_run_traces_do_not_depend_on_monomial_order(monkeypatch, block, cores):
    n, r = 6, 8
    fam = letter_family(n, 7)
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", block * n * n)
    monkeypatch.setattr(montecarlo, "_cores", lambda: cores)
    shuffled = list(THREAD_WORDS)
    random.Random(block).shuffle(shuffled)
    runs = [
        run_traces(order, n, r, THREAD_LAWS, fam, 3)
        for order in (THREAD_WORDS, THREAD_WORDS[::-1], shuffled)
    ]
    for mono in THREAD_WORDS:
        for other in runs[1:]:
            np.testing.assert_array_equal(other.traces(mono), runs[0].traces(mono))


# with two cores the calling thread runs replicates 0, 2, 4 and a helper 1, 3, 5
@pytest.mark.parametrize("failing, in_helper", [(3, True), (2, False)])
def test_run_traces_raises_a_block_failure_and_joins_its_threads(monkeypatch, failing, in_helper):
    n, r = 6, 6
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", n * n)
    monkeypatch.setattr(montecarlo, "_cores", lambda: 2)
    failed_in = []
    # the stream keys of the failing replicate on each of the three ids
    failing_keys = {tuple(stream_keys(5, k, [failing])[0]) for k in range(3)}

    def sample(x, scratch, law, keys):
        if any(tuple(key) in failing_keys for key in keys):
            failed_in.append(threading.current_thread())
            raise ArithmeticError("replicate %d" % failing)
        return fill_wigners(x, scratch, law, keys)

    monkeypatch.setattr(montecarlo, "fill_wigners", sample)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="replicate %d" % failing):
        run_traces(THREAD_WORDS, n, r, THREAD_LAWS, letter_family(n, 1), 5)
    assert (failed_in[0] is not threading.main_thread()) == in_helper
    assert threading.active_count() == before


@pytest.mark.parametrize("n, block_elems, cores, helpers", [
    (6, 36, 2, True),
    (6, 36, 1, False),  # one core
    (6, 72, 2, False),  # two replicates a block
    (6, 72, 8, False),
    (91, montecarlo.BLOCK_ELEMS, 2, True),  # N > 90 is one replicate a block
    (90, montecarlo.BLOCK_ELEMS, 2, False),
])
def test_threads_only_for_one_replicate_blocks_on_more_cores(
    monkeypatch, n, block_elems, cores, helpers
):
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", block_elems)
    monkeypatch.setattr(montecarlo, "_cores", lambda: cores)
    words = [parse_word("x1 a0"), parse_word("x1 x1")]
    with mock.patch.object(montecarlo.threading, "Thread", wraps=threading.Thread) as made:
        run_traces(words, n, 4, {"1": goe_law()}, family(n), 2)
    assert made.call_count == (cores - 1 if helpers else 0)


def test_cores_counts_the_cpus_this_process_may_use(monkeypatch):
    assert montecarlo._cores() >= 1
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    assert montecarlo._cores() == 1


@pytest.mark.parametrize("block", [1, 3])
def test_draws_live_only_from_their_first_word_to_their_last(monkeypatch, block):
    # when a word runs, the draw of every id it does not use is gone unless
    # the id has words both before and after it in the block: the draws are
    # lazy, and a draw and the products on it go after its last word
    n, r = 6, 6
    wids = ["1", "2", "3"]
    uses = {wid: {m for m in THREAD_WORDS if wid in m.wigner_labels} for wid in wids}
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", block * n * n)
    monkeypatch.setattr(montecarlo, "_cores", lambda: 1)
    draws = {}  # ensemble index -> weakref to its latest (b, N, N) draw
    ran = []
    checked = []

    def drawn(x, scratch, law, keys):
        fill_wigners(x, scratch, law, keys)
        draws[list(THREAD_LAWS.values()).index(law)] = weakref.ref(x)

    trace_word = montecarlo._trace_word

    def traced(mono, xmats, family, cache, empty):
        if len(ran) == len(THREAD_WORDS):
            ran.clear()  # a new block
        ran.append(mono)
        for k, wid in enumerate(wids):
            started = uses[wid] & set(ran[:-1])
            if wid in mono.wigner_labels or started and started != uses[wid]:
                continue
            if k in draws:
                assert draws[k]() is None, "draw of %s alive at %s" % (wid, mono)
                checked.append(wid)
        return trace_word(mono, xmats, family, cache, empty)

    monkeypatch.setattr(montecarlo, "fill_wigners", drawn)
    monkeypatch.setattr(montecarlo, "_trace_word", traced)
    got = run_traces(THREAD_WORDS, n, r, THREAD_LAWS, letter_family(n, 4), 9)
    assert set(checked) == set(wids)
    want = run_traces_reference(THREAD_WORDS, n, r, THREAD_LAWS, letter_family(n, 4), 9)
    for mono in THREAD_WORDS:
        np.testing.assert_allclose(got.traces(mono), want[mono], rtol=1e-12, atol=1e-12)


def test_words_run_by_id_longer_last_holding_one_draw_at_a_time(monkeypatch):
    # each id's draw goes before the next is made, and the longer words of
    # an id run after its shorter ones, so their products go soon after
    n = 6
    texts = ("x2 a0", "x1 a1", "x3 x3", "x1 x1 x1 x1", "x2 a3 x2 a2", "x3 a1", "x1", "x2 x2")
    words = [parse_word(t) for t in texts]
    ran = []
    trace_word = montecarlo._trace_word

    def traced(mono, xmats, family, cache, empty):
        ran.append((mono.wigner_labels[0], mono.degree, len(xmats)))
        return trace_word(mono, xmats, family, cache, empty)

    monkeypatch.setattr(montecarlo, "_trace_word", traced)
    run_traces(words, n, 3, THREAD_LAWS, letter_family(n, 4), 9)
    # one block of all three replicates
    assert [live for _, _, live in ran] == [1] * len(words)
    assert [(wid, degree) for wid, degree, _ in ran] == sorted(
        (m.wigner_labels[0], m.degree) for m in words
    )


def test_run_traces_builds_one_generator_per_block(monkeypatch):
    # N = 8 and R = 4000 in blocks of 256: 16 blocks on each of the two ids
    n, r = 8, 4000
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", 2**14)
    words = [parse_word("x1 a1"), parse_word("x1 x2")]
    laws = {"1": gue_law(), "2": rademacher_law()}
    with mock.patch.object(np.random, "Philox", wraps=np.random.Philox) as made:
        run_traces(words, n, r, laws, family(n), 6)
    assert made.call_count == 2 * 16


@pytest.mark.parametrize("cores", [1, 2])
def test_stream_keys_once_per_id_and_thread_share(monkeypatch, cores):
    # N = 400: blocks of one replicate.  Each thread computes an id's keys for
    # its whole share in one call, and slices them
    n, r = 400, 30
    monkeypatch.setattr(montecarlo, "_cores", lambda: cores)
    calls = []

    def counted(seed, k, reps):
        calls.append((k, len(reps)))
        return stream_keys(seed, k, reps)

    runs = {}
    for keys in (stream_keys, counted):
        monkeypatch.setattr(montecarlo, "stream_keys", keys)
        runs[keys] = run_traces(POOL_N400_WORDS, n, r, POOL_N400_LAWS, family(n), 1234)
    assert sorted(calls) == sorted((k, r // cores) for k in (0, 1) for _ in range(cores))
    for mono in POOL_N400_WORDS:
        np.testing.assert_array_equal(runs[counted].traces(mono), runs[stream_keys].traces(mono))


# words that share halves within a word and across words, on three ids, one
# real: X X, X^4 and X^6 share X X, and two words share (X1 A1)(X1 A2)
POOL_WORDS = THREAD_WORDS + tuple(parse_word(t) for t in (
    "x2 x2 x2 x2 x2 x2", "x1 a1 x1 a2", "x1 a1 x1 a2 x1 a1 x1 a2", "x1 a1 x1 a2 x3 a3",
))


def test_released_slabs_are_never_read(monkeypatch):
    # every slab that comes back to a pool is filled with NaN: a draw or a
    # product read after its release would spoil the traces
    n, r = 91, 5  # N > 90: blocks of one replicate, on threads
    fam = letter_family(n, 8)
    runs = {}
    for poisoned in (False, True):
        if poisoned:
            give = montecarlo._Slabs.give

            def give_nan(self, slab):
                slab.view(np.float64).fill(np.nan)
                give(self, slab)

            monkeypatch.setattr(montecarlo._Slabs, "give", give_nan)
        for cores in (1, 2):
            monkeypatch.setattr(montecarlo, "_cores", lambda: cores)
            runs[poisoned, cores] = run_traces(POOL_WORDS, n, r, THREAD_LAWS, fam, 13)
    want = run_traces_reference(POOL_WORDS, n, r, THREAD_LAWS, fam, 13)
    for mono in POOL_WORDS:
        for key, got in runs.items():
            np.testing.assert_array_equal(
                got.traces(mono), runs[False, 1].traces(mono), err_msg=str(key)
            )
        np.testing.assert_allclose(runs[True, 2].traces(mono), want[mono], rtol=1e-12, atol=1e-12)


# the criterion-7 words on the complex laws of N400_LAWS, one id each
POOL_N400_WORDS = tuple(parse_word(t) for t in ("x1 a0", "x1 a1 x1 a1", "x2 a0"))
POOL_N400_LAWS = {"1": N400_LAWS["designed"], "2": N400_LAWS["gue"]}


def test_minor_faults_per_replicate_at_n400(monkeypatch):
    # after a thread's first block, its draws, the sampler's scratch and the
    # products reuse the slabs of its pool: no fresh pages.  A pool lives for
    # one call, so the faults per replicate are the difference of two calls
    n = 400
    monkeypatch.setattr(montecarlo, "_cores", lambda: 1)
    fam = DetFamily([diagonal_pattern(n, [1, -1]), circulant(n, [0, 1])])
    run_traces(POOL_N400_WORDS, n, 2, POOL_N400_LAWS, fam, 1234)  # operands, layout

    def faults(r):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_traces(POOL_N400_WORDS, n, r, POOL_N400_LAWS, fam, 1234)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    per_replicate = (faults(10) - faults(2)) / 8
    assert per_replicate < 100, per_replicate


@pytest.mark.parametrize("cores", [1, 2])
def test_run_traces_peak_memory_is_its_pools(monkeypatch, cores):
    # these words hold two slabs a thread at a time: a draw and its scratch,
    # or a draw and its product with A1
    n = 400
    monkeypatch.setattr(montecarlo, "_cores", lambda: cores)
    fam = DetFamily([diagonal_pattern(n, [1, -1]), circulant(n, [0, 1])])
    run_traces(POOL_N400_WORDS, n, 2, POOL_N400_LAWS, fam, 1234)  # operands, layout
    tracemalloc.start()
    try:
        run_traces(POOL_N400_WORDS, n, 6, POOL_N400_LAWS, fam, 1234)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slab = n * n * np.dtype(complex).itemsize
    assert peak < (2 * cores + 0.25) * slab, peak / slab


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
    # the constant is the trace of the dense letter, bit for bit, for a
    # gather, a dense member and fused starred or transposed letters
    fam = DetFamily(fam.matrices + [random_fixed(n, 3)])
    monos = [parse_word(w) for w in ("a1", "a2", "a1* a0t", "a2t a1*")]
    samples = run_traces(monos, n, 2, {}, fam, 0)
    for mono in monos:
        want = np.trace(fam.letter_matrix(mono.scalar_letter))
        assert samples.traces(mono).tobytes() == np.full(2, want).tobytes(), str(mono)


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


def test_empirical_cov_needs_three_replicates():
    fam = family(6)
    p = parse_word("x1 a0")
    two = run_traces([p], 6, 2, {"1": gue_law()}, fam, 5)
    with pytest.raises(ValueError, match="at least 3 replicates"):
        empirical_cov(two, p, p)
    three = run_traces([p], 6, 3, {"1": gue_law()}, fam, 5)
    assert empirical_cov(three, p, p)[1] > 0


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
    samples = TraceSamples(("z",), {"z": z.astype(complex)}, len(z))
    cums = empirical_cumulants(samples, "z")
    k2 = cums[0][1]
    assert k2 == pytest.approx(4.0, rel=0.05)
    for order, value, se in cums[1:]:
        assert abs(value) < 5 * se


def test_cumulant_detects_skewness():
    rng = np.random.default_rng(1)
    z = rng.exponential(1.0, 20000)
    samples = TraceSamples(("z",), {"z": z.astype(complex)}, len(z))
    cums = empirical_cumulants(samples, "z")
    order, k3, se = cums[1]
    assert order == 3
    assert abs(k3) > 5 * se
    # exponential cumulants are 1, 2, 6 at orders 2..4
    assert k3 == pytest.approx(2.0, rel=0.2)


def test_mixed_third_cumulant_synthetic():
    rng = np.random.default_rng(2)
    g = rng.standard_normal(40000)
    zp = g
    zq = g * g  # cum(zp, zp, zq) = 2 for this construction
    samples = TraceSamples(
        ("p", "q"), {"p": zp.astype(complex), "q": zq.astype(complex)}, len(g)
    )
    val, se = mixed_third_cumulant(samples, "p", "q")
    assert val == pytest.approx(2.0, abs=5 * se)


def test_cumulants_need_enough_replicates():
    samples = TraceSamples(("z",), {"z": np.zeros(50, dtype=complex)}, 50)
    with pytest.raises(ValueError):
        empirical_cumulants(samples, "z")


@pytest.mark.parametrize("r", [2, 5, 10, 50])
def test_mixed_third_cumulant_needs_enough_replicates(r):
    rng = np.random.default_rng(r)
    data = {k: rng.standard_normal(r).astype(complex) for k in "pq"}
    samples = TraceSamples(("p", "q"), data, r)
    with pytest.raises(ValueError, match="100 replicates"):
        mixed_third_cumulant(samples, "p", "q")


def _mixed_k3(a, b):
    n = len(a)
    ca = a - a.mean()
    cb = b - b.mean()
    return n * n * np.mean(ca * ca * cb) / ((n - 1) * (n - 2))


@pytest.mark.parametrize("r", [30, 4000])
def test_batch_se_matches_explicit_batches(r):
    # the shared batch routine against the per-estimator loops it replaced
    rng = np.random.default_rng(r)
    zp = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    zq = rng.exponential(1.0, r) + 1j * rng.standard_normal(r)
    samples = TraceSamples(("p", "q"), {"p": zp, "q": zq}, r)

    # covariance: the spread of explicit complex batch means
    prod = (zp - zp.mean()) * (zq - zq.mean())
    b = min(DEFAULT_BATCHES, r)
    size = r // b
    means = np.array([prod[i * size:(i + 1) * size].mean() for i in range(b)])
    want = np.sqrt(np.sum(np.abs(means - means.mean()) ** 2) / (b * (b - 1)))
    assert empirical_cov(samples, "p", "q")[1] == pytest.approx(want, rel=1e-12)

    # cumulants: the spread of per-batch k-statistics
    x, y = zp.real, zq.real
    b = min(DEFAULT_BATCHES, r // 8)
    size = r // b
    cuts = [slice(i * size, (i + 1) * size) for i in range(b)]
    k_stats = np.array([_k_stats(x[c]) for c in cuts])
    want_k = np.sqrt(np.sum((k_stats - k_stats.mean(axis=0)) ** 2, axis=0) / (b * (b - 1)))
    mixed = np.array([_mixed_k3(x[c], y[c]) for c in cuts])
    want_m = np.sqrt(np.sum((mixed - mixed.mean()) ** 2) / (b * (b - 1)))
    np.testing.assert_allclose(_batch_se(_k_stats, b, x), want_k, rtol=1e-12)
    np.testing.assert_allclose(_batch_se(_mixed_k3, b, x, y), want_m, rtol=1e-12)
    if r >= 100:
        cums = empirical_cumulants(samples, "p")
        np.testing.assert_allclose([se for _, _, se in cums], want_k, rtol=1e-12)
        assert [v for _, v, _ in cums] == list(_k_stats(x))
        value, se = mixed_third_cumulant(samples, "p", "q")
        assert value == pytest.approx(_mixed_k3(x, y), rel=1e-12)
        assert se == pytest.approx(want_m, rel=1e-12)


def test_missing_monomial_raises():
    samples = TraceSamples((), {}, 2)
    with pytest.raises(KeyError):
        samples.traces(parse_word("x1"))


def test_variance_against_theory_small():
    # quick MC sanity: Var Tr X for Rademacher should be near eta = 1
    fam = DetFamily([np.eye(20)])
    x = parse_word("x1")
    samples = run_traces([x], 20, 600, {"1": rademacher_law()}, fam, 17)
    est, se = empirical_cov(samples, x, x)
    assert abs(est.real - 1.0) < 6 * se + 0.05
