"""Monte Carlo estimation of trace means, covariances and cumulants.

Each replicate draws one matrix per Wigner id (shared across all monomials
of the replicate, so joint covariances are meaningful) and records the
traces.  Replicates run in blocks of about BLOCK_ELEMS matrix entries: the
draws of a block, each from its own (seed, ensemble, replicate) stream, are
stacked into (b, N, N) arrays, and the factors X_w A of a word are
``DetFamily.times`` products on the stacks, shared across the monomials of
the block.  For N > 90 a block is one replicate.  Covariances are computed
without conjugation on the second factor, matching the limiting bilinear
form; standard errors use batch means.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ensembles import sample_wigner

DEFAULT_BATCHES = 40
# matrix entries per Wigner id in one block of replicates: enough to take
# the per-replicate Python overhead off small N, small enough to leave peak
# memory alone (one block of all R = 4000 at N = 8, 2**18 entries, raised
# the peak resident memory of that run by about a fifth)
BLOCK_ELEMS = 2**14
# is_gaussian's threshold on |cumulant| / SE for the orders 3 and 4
GAUSSIAN_SIGMAS = 5.0


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


def _trace_word(mono, xmats, family, cache):
    """Traces of the alternating word X_w1 A_1 ... X_wk A_k over a block.

    ``xmats`` maps Wigner ids to (b, N, N) stacks of draws.  Each factor
    X_w A is ``family.times(X_w, A)``, cached for the block on (w, A); the
    last factor enters through a contraction, not a product.  Returns the
    b traces.
    """
    mats = []
    for key in mono.pairs:
        got = cache.get(key)
        if got is None:
            got = cache[key] = family.times(xmats[key[0]], key[1])
        mats.append(got)
    if len(mats) == 1:
        return np.trace(mats[0], axis1=1, axis2=2)
    p = functools.reduce(np.matmul, mats[1:-1], mats[0])
    return np.einsum("bij,bji->b", p, mats[-1])


def run_traces(monomials, n, r, ensembles, family, master_seed):
    """Trace samples of each monomial over r independent replicates.

    ``ensembles`` maps Wigner ids to entry laws.  Seeding is per
    (master seed, ensemble index, replicate), so outputs are reproducible
    bit for bit whatever the block size, and replicates could be generated
    in any order.
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
    data = {mono: np.empty(r, dtype=complex) for mono in monomials}
    words = []
    for mono in monomials:
        if mono.degree == 0:
            data[mono][:] = np.trace(family.letter_matrix(mono.scalar_letter))
        else:
            words.append(mono)
    block = max(1, BLOCK_ELEMS // (n * n))
    for start in range(0, r, block):
        stop = min(start + block, r)
        # a new cache first: the last block's factors go before the draws
        cache = {}
        xmats = {
            wid: np.stack([
                sample_wigner(n, ensembles[wid], (master_seed, k, rep))
                for rep in range(start, stop)
            ])
            for k, wid in enumerate(wids)
        }
        for mono in words:
            data[mono][start:stop] = _trace_word(mono, xmats, family, cache)
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
    if r < 2:
        raise ValueError("need at least 2 replicates")
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


def is_gaussian(samples, p):
    """True when the third and fourth cumulants are within GAUSSIAN_SIGMAS SE of 0."""
    cums = empirical_cumulants(samples, p)
    ok = True
    for order, value, se in cums:
        if order >= 3 and abs(value) > GAUSSIAN_SIGMAS * se:
            ok = False
    return ok, cums
