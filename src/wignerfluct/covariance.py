"""Limiting covariance of traces of words in Wigner and deterministic
matrices.

The covariance of centered traces of two canonical monomials p (degree m)
and q (degree n) is a sum of four contributions over the annular
non-crossing pairings, read as array passes over one ``pairing_table``:

  S1: plain non-mixing pairings, evaluated through the Kreweras complement;
  S2: transpose channel, the same sum against the reversed-and-transposed
      word s(q), weighted by the product of pseudo-variances theta over the
      through strings;
  S3: pairings with exactly two through strings all carrying one Wigner id,
      weighted by that ensemble's fourth cumulant k4, with through cycles
      evaluated as Hadamard functionals;
  S4: pairings with exactly one through string, weighted by eta - 1 - theta
      of its ensemble, again with a Hadamard through factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annular import enumerate_nc2, is_non_mixing, pairing_table
from .states import CycleValues
from .words import Monomial, s_transform


@dataclass(frozen=True)
class WignerParams:
    """Scalar parameters (theta, eta, k4) of one Wigner ensemble."""

    theta: complex = 0.0
    eta: float = 1.0
    k4: float = 0.0

    def __post_init__(self):
        if abs(self.theta) > 1 + 1e-12:
            raise ValueError("pseudo-variance must satisfy |theta| <= 1")
        if self.eta < 0:
            raise ValueError("diagonal variance must be >= 0")
        if self.k4 < -1 - abs(self.theta) ** 2 - 1e-12:
            raise ValueError("fourth cumulant must be >= -1 - |theta|^2")


GUE = WignerParams(0.0, 1.0, 0.0)
GOE = WignerParams(1.0, 2.0, 0.0)
RADEMACHER = WignerParams(1.0, 1.0, -2.0)


def _get_params(params, wid):
    try:
        return params[wid]
    except KeyError:
        raise KeyError("no parameters supplied for Wigner id %r" % (wid,))


def _csum(values):
    return complex(
        math.fsum(v.real for v in values), math.fsum(v.imag for v in values)
    )


@dataclass(frozen=True)
class Phi2Terms:
    s1: complex
    s2: complex
    s3: complex
    s4: complex

    @property
    def total(self):
        return self.s1 + self.s2 + self.s3 + self.s4


def _word_data(p, q):
    return (
        p.wigner_labels + q.wigner_labels,
        p.det_letters + q.det_letters,
    )


def _through_label(sigma, labels):
    """The one label on all of sigma's through strings, or None if several."""
    found = {labels[i - 1] for i, _ in sigma.through_strings()}
    return found.pop() if len(found) == 1 else None


def _non_mixing(table, labels):
    """The table's rows whose pairs each join two positions of one label."""
    codes = np.array([0] + [labels.index(w) for w in labels], dtype=np.int8)  # 1-based
    return (codes[table.matches] == codes).all(axis=1)


def _times(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as Python rounds it: numpy's may fuse a multiply-add."""
    return ar * br - ai * bi, ar * bi + ai * br


def _table_sum(table, rows, values, tilde=False, factor=None):
    """fsum over ``rows`` of ``CycleValues.product`` of each row's cycles, asking
    ``values`` once per distinct cycle (with its split if ``tilde``), times
    ``factor``, a (real, imaginary) pair of per-row arrays; 0 leaves a row out.
    """
    if factor is not None:
        rows = rows & ((factor[0] != 0) | (factor[1] != 0))
        factor = [f[rows] for f in factor]
    index = table.row_cycles[rows]
    re, im = np.zeros(len(table.cycles)), np.zeros(len(table.cycles))
    # not np.unique: on numpy 2 it imports numpy.ma, 17 ms of a command
    for c in np.flatnonzero(np.bincount(index.ravel(), minlength=len(re))).tolist():
        v = values.value(table.cycles[c], table.splits[c] if tilde else None)
        re[c], im[c] = v.real, v.imag
    pr, pi = re[index[:, 0]], im[index[:, 0]]
    for col in index.T[1:]:
        pr, pi = _times(pr, pi, re[col], im[col])
    if factor is not None:
        pr, pi = _times(*factor, pr, pi)
    return complex(math.fsum(pr.tolist()), math.fsum(pi.tolist()))


def phi2_terms(p, q, params, state):
    """The four covariance contributions for a pair of canonical monomials.

    Array passes over the annulus's ``pairing_table``, one sum per channel.
    """
    if not isinstance(p, Monomial) or not isinstance(q, Monomial):
        raise TypeError("phi2 expects canonical monomials")
    for wid in p.wigner_labels + q.wigner_labels:
        _get_params(params, wid)
    m, n = p.degree, q.degree
    if m == 0 or n == 0 or (m + n) % 2:
        return Phi2Terms(0j, 0j, 0j, 0j)

    table = pairing_table(m, n)
    labels, letters = _word_data(p, q)
    labels_t, letters_t = _word_data(p, s_transform(q))
    wids = sorted(set(labels))
    pars = [params[wid] for wid in wids]
    values = CycleValues(letters, state)
    kept = _non_mixing(table, labels)
    s1 = _table_sum(table, kept, values)

    # S3 (k4) needs two through strings of one label, S4 one string; every
    # annular row has one at least, so ``label`` indexes ``wids``
    through, outer = table.through, np.array([wids.index(w) for w in labels[:m]])
    count = through.sum(axis=1)
    label = np.where(through, outer, len(wids)).min(axis=1)
    kept &= label == np.where(through, outer, -1).max(axis=1)
    s3, s4 = [
        _table_sum(table, kept & (count == l), values, True, (w.real, w.imag))
        for l, w in ((2, np.array([complex(par.k4) for par in pars])[label]),
                     (1, np.array([complex(par.eta - 1 - par.theta) for par in pars])[label]))
    ]

    # S2, the transpose channel: theta over the through strings, in order
    theta = np.ones(len(through)), np.zeros(len(through))
    for i, t in enumerate(complex(pars[c].theta) for c in outer):
        theta = _times(*theta, *np.where(through[:, i], [[t.real], [t.imag]], [[1.0], [0.0]]))
    rows = _non_mixing(table, labels_t)
    s2 = _table_sum(table, rows, CycleValues(letters_t, state), factor=theta)
    return Phi2Terms(s1, s2, s3, s4)


def phi2(p, q, params, state):
    return phi2_terms(p, q, params, state).total


def phi2_two_term(p, q, params, state):
    """Covariance via the two-term formula valid for theta=0, eta=1.

    An independent evaluation path: plain sum plus the fourth-cumulant sum,
    with no transpose or single-through channel.  Agrees with phi2 whenever
    every involved ensemble has theta=0 and eta=1.
    """
    m, n = p.degree, q.degree
    if m == 0 or n == 0 or (m + n) % 2:
        return 0j
    labels, letters = _word_data(p, q)
    values = CycleValues(letters, state)
    vals = []
    for sigma in enumerate_nc2(m, n):
        if not is_non_mixing(sigma, labels):
            continue
        vals.append(values.product(sigma.kreweras_cycles))
        wid = _through_label(sigma, labels) if sigma.through_count == 2 else None
        if wid is not None:
            k4 = _get_params(params, wid).k4
            if k4 != 0:
                vals.append(k4 * values.product(sigma.kreweras_cycles, sigma.through_splits))
    return _csum(vals)
