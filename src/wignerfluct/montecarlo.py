"""Monte Carlo estimation of trace means, covariances and cumulants.

Each replicate draws one matrix per Wigner id (shared across all monomials
of the replicate, so joint covariances are meaningful) and records the
traces.  Covariances are computed without conjugation on the second factor,
matching the limiting bilinear form; standard errors use batch means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import sample_wigner

DEFAULT_BATCHES = 40


@dataclass
class TraceSamples:
    monomials: tuple
    data: dict  # Monomial -> complex array of shape (R,)
    N: int
    R: int
    master_seed: int
    ensemble_ids: tuple

    def traces(self, mono):
        try:
            return self.data[mono]
        except KeyError:
            raise KeyError("no trace samples recorded for %s" % (mono,))


def _pair_factor(wid, letter, xmats, family, cache):
    """The product X_wid * A_letter for one (Wigner, deterministic) pair."""
    key = (wid, letter)
    got = cache.get(key)
    if got is not None:
        return got
    x = xmats[wid]
    if letter.is_identity:
        out = x
    else:
        d = family.letter_diag(letter)
        # diagonal letters scale columns, no matmul needed
        out = x * d if d is not None else x @ family.letter_compact(letter)
    cache[key] = out
    return out


def _trace_word(mono, xmats, family, cache):
    """Trace of the alternating word, saving the last matrix product."""
    pairs = mono.pairs
    if len(pairs) == 1:
        wid, letter = pairs[0]
        x = xmats[wid]
        if letter.is_identity:
            return complex(np.trace(x))
        return complex(np.sum(x * family.letter_compact(letter).T))
    mats = [_pair_factor(wid, letter, xmats, family, cache) for wid, letter in pairs]
    p = mats[0]
    for m in mats[1:-1]:
        p = p @ m
    return complex(np.sum(p * mats[-1].T))


def run_traces(monomials, n, r, ensembles, family, master_seed):
    """Trace samples of each monomial over r independent replicates.

    ``ensembles`` maps Wigner ids to entry laws.  Seeding is per
    (master seed, ensemble index, replicate), so outputs are reproducible
    bit for bit and replicates could be generated in any order.
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
    const = {}
    for mono in monomials:
        if mono.degree == 0:
            const[mono] = complex(np.trace(family.letter_matrix(mono.scalar_letter)))
    for rep in range(r):
        xmats = {
            wid: sample_wigner(n, ensembles[wid], (master_seed, k, rep))
            for k, wid in enumerate(wids)
        }
        cache = {}
        for mono in monomials:
            if mono.degree == 0:
                data[mono][rep] = const[mono]
            else:
                data[mono][rep] = _trace_word(mono, xmats, family, cache)
    return TraceSamples(monomials, data, n, r, master_seed, tuple(wids))


def _batch_se(values):
    """Standard error of the mean of a complex series via batch means."""
    r = len(values)
    b = min(DEFAULT_BATCHES, r)
    size = r // b
    means = np.array([values[i * size:(i + 1) * size].mean() for i in range(b)])
    center = means.mean()
    return float(np.sqrt(np.sum(np.abs(means - center) ** 2) / (b * (b - 1))))


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
    return est, _batch_se(prod)


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
    r = len(z)
    if r < 100:
        raise ValueError("cumulants of order >= 3 need at least 100 replicates")
    full = _k_stats(z)
    b = min(DEFAULT_BATCHES, r // 8)
    size = r // b
    per_batch = np.array([_k_stats(z[i * size:(i + 1) * size]) for i in range(b)])
    ses = np.sqrt(np.var(per_batch, axis=0, ddof=1) / b)
    return [(k + 2, full[k], float(ses[k])) for k in range(3)]


def mixed_third_cumulant(samples, p, q):
    """k-statistic estimate of cum(Z(p), Z(p), Z(q)) with a batch-means SE."""
    zp = np.real(samples.traces(p))
    zq = np.real(samples.traces(q))
    r = len(zp)

    def stat(a, b):
        n = len(a)
        ca = a - a.mean()
        cb = b - b.mean()
        return n * n * float(np.mean(ca * ca * cb)) / ((n - 1) * (n - 2))

    full = stat(zp, zq)
    nb = min(DEFAULT_BATCHES, r // 8)
    size = r // nb
    per_batch = np.array(
        [stat(zp[i * size:(i + 1) * size], zq[i * size:(i + 1) * size]) for i in range(nb)]
    )
    se = float(np.sqrt(np.var(per_batch, ddof=1) / nb))
    return full, se


def is_gaussian(samples, p, sigmas=5.0):
    """True when the third and fourth cumulants are within sigmas * SE of 0."""
    cums = empirical_cumulants(samples, p)
    ok = True
    for order, value, se in cums:
        if order >= 3 and abs(value) > sigmas * se:
            ok = False
    return ok, cums
