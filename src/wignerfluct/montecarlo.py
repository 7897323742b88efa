"""Monte Carlo estimation of trace means, covariances and cumulants.

Each replicate draws one matrix per Wigner id (shared across all monomials
of the replicate, so joint covariances are meaningful) and records the
traces.  Replicates run in blocks of about BLOCK_ELEMS matrix entries; for
N > 90 a block is one replicate.  Each replicate draws from its own
(seed, ensemble, replicate) Philox stream, and the (b, N, N) draws of one
id in a block are one ``fill_wigners`` call on the block's keys; a thread
computes an id's keys for all the replicates of its blocks in one
``stream_keys`` call, before its first block.  A block writes only its
own slice of the output, so blocks run in any order: when a block is one
replicate and the process may use more than one core, the calling thread
and one helper thread per further core each run an interleaved share of
the blocks (numpy releases the GIL in the sampler and the products).
Smaller blocks, whose cost is Python overhead, run in order on the
calling thread.
Within a block the words run sorted by their Wigner ids, longer words
last among those on the same ids.  An id is drawn when its first word
needs it, and after its last word its draw and the block's products on it
are dropped, so a block holds the draws of about one id at a time.
Each thread keeps a pool of raw byte slabs of one size, the bytes of a
complex (b, N, N) stack (``_Slabs``).  The draws, the sampler's scratch,
the gathers and the half-products take their slabs from it, and a dropped
draw or product gives its slab back, so after a thread's first block no
large array gets fresh pages.  The pool lives in one call, on one thread,
and nothing in ``TraceSamples`` refers to it.
The trace of a word of k >= 2 factors X_w A is one contraction of two
half-products, the first ceil(k/2) factors and the rest.  Each half is
split the same way and cached for the block on its factor tuple, so equal
halves and the halves that words share are computed once, and a single
factor is one ``DetFamily.times_into`` product.  A one-factor word is one
``DetFamily.trace_times`` call: on a letter with at most one nonzero per
column, the identity among them, it sums the entries of X that the letter
picks, without forming X A.  The letters are read only through
``DetFamily.operand``, whose cache is filled before the threads start.  A
degree-0 word's constant trace is the sum of its product's diagonal from
``products.word_diagonals``, as ``phi`` reads it.
Covariances are computed without conjugation on the second factor,
matching the limiting bilinear form; standard errors use batch means.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from .ensembles import _view, fill_wigners, stream_keys, wigner_dtype
from .products import BLOCK_ELEMS, word_diagonals

DEFAULT_BATCHES = 40
# replicates empirical_cov needs: with two, both centered products are
# equal, so the batch-means standard error is 0 whatever the data
MIN_COV_REPLICATES = 3


@dataclass
class TraceSamples:
    monomials: tuple
    data: dict  # Monomial -> complex array of shape (R,)
    R: int

    def traces(self, mono):
        try:
            return self.data[mono]
        except KeyError:
            raise KeyError("no trace samples recorded for %s" % (mono,))


class _Slabs:
    """One thread's pool of raw byte slabs of one size, reused block after block.

    ``take`` hands out a slab and ``give`` takes it back.  ``array`` lends
    a slab as an array, and ``release`` gives back the slabs behind the
    arrays it lent, each once, however many of the arrays share it.
    """

    def __init__(self, nbytes):
        self.nbytes = nbytes
        self.free = []
        self.lent = {}  # id -> slab, of the slabs behind lent arrays

    def take(self):
        return self.free.pop() if self.free else np.empty(self.nbytes, dtype=np.uint8)

    def give(self, slab):
        self.free.append(slab)

    def array(self, shape, dtype):
        slab = self.take()
        self.lent[id(slab)] = slab
        return _view(slab, 0, shape, dtype)

    def release(self, arrays):
        """Give back the slabs behind ``arrays``; other arrays are left alone."""
        for arr in arrays:
            slab = self.lent.pop(id(arr if arr.base is None else arr.base), None)
            if slab is not None:
                self.give(slab)


def _product(pairs, xmats, family, cache, empty):
    """The (b, N, N) product of the factors X_w A of ``pairs``, cached for the block.

    One factor is ``family.times_into(X_w, A, empty)``.  More are the product
    of the first ceil(k/2) factors and the rest, each found the same way,
    multiplied into the array ``empty(shape, dtype)``.
    """
    got = cache.get(pairs)
    if got is None:
        if len(pairs) == 1:
            (wid, letter), = pairs
            got = family.times_into(xmats[wid], letter, empty)
        else:
            h = (len(pairs) + 1) // 2
            first = _product(pairs[:h], xmats, family, cache, empty)
            rest = _product(pairs[h:], xmats, family, cache, empty)
            got = np.matmul(first, rest, out=empty(first.shape, np.result_type(first, rest)))
        cache[pairs] = got
    return got


def _trace_word(mono, xmats, family, cache, empty):
    """Traces of the alternating word X_w1 A_1 ... X_wk A_k over a block.

    ``xmats`` maps Wigner ids to (b, N, N) stacks of draws, and ``cache``
    holds the block's products (see ``_product``), made in arrays that
    ``empty(shape, dtype)`` gives.  Returns the b traces.
    """
    pairs = mono.pairs
    if len(pairs) > 1:
        h = (len(pairs) + 1) // 2
        return np.einsum(
            "bij,bji->b",
            _product(pairs[:h], xmats, family, cache, empty),
            _product(pairs[h:], xmats, family, cache, empty),
        )
    (wid, letter), = pairs
    return family.trace_times(xmats[wid], letter)


def _cores():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def run_traces(monomials, n, r, ensembles, family, master_seed):
    """Trace samples of each monomial over r independent replicates.

    ``ensembles`` maps Wigner ids to entry laws.  Seeding is per
    (master seed, ensemble index, replicate), so outputs are reproducible
    bit for bit whatever the block size, the number of cores and the order
    of the monomials: blocks of one replicate run on every core the
    process may use, in no fixed order.
    """
    if r < 2:
        raise ValueError("need at least 2 replicates")
    if family.N != n:
        raise ValueError("family dimension %d does not match N=%d" % (family.N, n))
    monomials = tuple(monomials)
    wids = sorted({w for mono in monomials for w in mono.wigner_labels})
    for wid in wids:
        if wid not in ensembles:
            raise KeyError("no ensemble law supplied for Wigner id %r" % (wid,))
    if n * n * (len(wids) + 1) > 50_000_000:
        raise MemoryError("N and ensemble count exceed the memory guard")
    index = {wid: k for k, wid in enumerate(wids)}
    data = {mono: np.empty(r, dtype=complex) for mono in monomials}
    words = []
    for mono in data:
        if mono.degree == 0:
            data[mono][:] = word_diagonals(family, [mono.scalar_letter.factors])[0].sum()
        else:
            words.append(mono)
    # words on the same ids run together, longer words later, so that the
    # products they cache are dropped soon after they are made; the order
    # does not depend on the order of the monomials
    words.sort(key=lambda mono: (sorted(set(mono.wigner_labels)), mono.degree, str(mono)))
    # after each word, the ids whose last word it is
    last = {wid: i for i, mono in enumerate(words) for wid in mono.wigner_labels}
    done = [frozenset(wid for wid, j in last.items() if j == i) for i in range(len(words))]
    # operands are built on first use: build each one here, or the threads,
    # which start on the same first word, would each build it
    for mono in words:
        for letter in mono.det_letters:
            family.operand(letter)
    block = max(1, BLOCK_ELEMS // (n * n))

    def draw(wid, keys, slabs):
        """The (b, N, N) draws of an id on b keys, in a slab of ``slabs``."""
        law = ensembles[wid]
        x = slabs.array((len(keys), n, n), wigner_dtype(law))
        scratch = slabs.take()
        fill_wigners(x, scratch, law, keys)
        slabs.give(scratch)
        return x

    def run_blocks(starts, slabs):
        share = [i for s in starts for i in range(s, min(s + block, r))]
        keys = {wid: stream_keys(master_seed, index[wid], share) for wid in wids}
        for b, start in enumerate(starts):
            reps = range(start, min(start + block, r))
            at = b * block  # only the last block of all is short, and it ends its share
            xmats = {}
            cache = {}
            for mono, drop in zip(words, done):
                for wid in mono.wigner_labels:
                    if wid not in xmats:
                        xmats[wid] = draw(wid, keys[wid][at:at + len(reps)], slabs)
                traces = _trace_word(mono, xmats, family, cache, slabs.array)
                data[mono][reps.start:reps.stop] = traces
                if drop:
                    stale = [p for p in cache if not drop.isdisjoint(wid for wid, _ in p)]
                    # no name keeps a dropped array: its slab is overwritten next
                    slabs.release([xmats.pop(wid) for wid in drop] + [cache.pop(p) for p in stale])

    # plain threads: importing concurrent.futures alone adds 0.6 MB of
    # resident memory to every command, including those at small N
    starts = range(0, r, block)
    workers = min(_cores(), len(starts)) if block == 1 else 1
    errors = []
    # a thread starts under numpy's default floating point error handling,
    # not the caller's: each share runs under the calling thread's
    fp_errors = np.geterr()

    def run_share(share):
        try:  # each thread draws and multiplies in slabs of its own pool
            with np.errstate(**fp_errors):
                run_blocks(share, _Slabs(block * n * n * np.dtype(complex).itemsize))
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    helpers = [
        threading.Thread(target=run_share, args=(starts[i::workers],))
        for i in range(1, workers)
    ]
    for helper in helpers:
        helper.start()
    run_share(starts[::workers])
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return TraceSamples(monomials, data, r)


def _batch_se(stat, b, *series):
    """Batch-means standard error of ``stat`` over b equal batches of the series.

    ``stat`` maps equal-length slices of the series to a number or a tuple
    of numbers; the result is sqrt(var(ddof=1) / b) of the b batch values.
    """
    size = len(series[0]) // b
    per_batch = np.array(
        [stat(*(s[i * size:(i + 1) * size] for s in series)) for i in range(b)]
    )
    return np.sqrt(np.var(per_batch, axis=0, ddof=1) / b)


def _cumulant_batches(r):
    """Batch count of the cumulant estimators, which need 100 replicates."""
    if r < 100:
        raise ValueError("cumulants of order >= 3 need at least 100 replicates")
    return min(DEFAULT_BATCHES, r // 8)


def empirical_cov(samples, p, q):
    """Covariance of centered traces, no conjugation, with its standard error."""
    zp = samples.traces(p)
    zq = samples.traces(q)
    r = samples.R
    if r < MIN_COV_REPLICATES:
        raise ValueError("need at least %d replicates" % MIN_COV_REPLICATES)
    cp = zp - zp.mean()
    cq = zq - zq.mean()
    prod = cp * cq
    est = complex(prod.sum() / (r - 1))
    return est, float(_batch_se(np.mean, min(DEFAULT_BATCHES, r), prod))


def _k_stats(x):
    """Unbiased cumulant estimators of orders 2, 3, 4 of a real sample."""
    n = len(x)
    c = x - x.mean()
    m2 = float(np.mean(c ** 2))
    m3 = float(np.mean(c ** 3))
    m4 = float(np.mean(c ** 4))
    k2 = n * m2 / (n - 1)
    k3 = n * n * m3 / ((n - 1) * (n - 2))
    k4 = (
        n * n * ((n + 1) * m4 - 3 * (n - 1) * m2 * m2)
        / ((n - 1) * (n - 2) * (n - 3))
    )
    return k2, k3, k4


def empirical_cumulants(samples, p):
    """k-statistics of orders 2..4 of the real trace values, with batch SEs.

    Returns a list of (order, value, std_error).
    """
    z = np.real(samples.traces(p))
    full = _k_stats(z)
    ses = _batch_se(_k_stats, _cumulant_batches(len(z)), z)
    return [(k + 2, full[k], float(ses[k])) for k in range(3)]


def mixed_third_cumulant(samples, p, q):
    """k-statistic estimate of cum(Z(p), Z(p), Z(q)) with a batch-means SE."""
    zp = np.real(samples.traces(p))
    zq = np.real(samples.traces(q))
    nb = _cumulant_batches(len(zp))

    def stat(a, b):
        n = len(a)
        ca = a - a.mean()
        cb = b - b.mean()
        return n * n * float(np.mean(ca * ca * cb)) / ((n - 1) * (n - 2))

    return stat(zp, zq), float(_batch_se(stat, nb, zp, zq))
