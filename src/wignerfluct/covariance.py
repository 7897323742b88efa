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

The cycle words of all four channels go to the state in one ``evaluate``
list; ``phi2_two_term`` checks the sum one pairing at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .annular import enumerate_nc2, first_appearance, is_non_mixing, pairing_table
from .states import eval_phi_K, eval_phi_tilde_K, word_key
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


def _nonzero(rows, factor):
    """``rows`` without those whose ``factor``, a (real, imaginary) pair of arrays, is 0."""
    return rows & ((factor[0] != 0) | (factor[1] != 0))


def _cycles_used(table, rows):
    # not np.unique: on numpy 2 it imports numpy.ma, 17 ms of a command
    return np.flatnonzero(np.bincount(table.row_cycles[rows].ravel(), minlength=len(table.points)))


def _cycle_values(state, asks):
    """Cycle values of several letter lists, all asked of ``state`` in one ``evaluate`` call.

    Each ask is (letters, points, outer): its cycles are the rows of
    ``points``, 0-padded 1-based positions of ``letters``.  A row is split
    after its first ``outer[k]`` points where ``outer`` is given and that is
    not 0, and its value is phi_hadamard of the two arcs' words; else phi of
    its word.  Rows with one letter word and split are asked for once: each
    word is packed into one integer, 5 bits a letter id, the split from bit 55.
    Returns one complex array per ask.
    """
    words, places = [], []  # the distinct words of all asks; each ask's rows' places in it
    for letters, points, outer in asks:
        ids = {letter: i for i, letter in enumerate(dict.fromkeys(letters), 1)}
        lid = np.array([0] + [ids[letter] for letter in letters], dtype=np.uint64)
        keys = [""] + [word_key(letter.factors) for letter in letters]
        code = np.zeros(len(points), dtype=np.uint64)
        # column by column: a reduce of bitwise_or maps 0.3 MB more resident code
        for k, col in enumerate(lid[points].T):
            code |= col << np.uint64(5 * k)
        cuts = np.zeros(len(points), np.uint64) if outer is None else outer.astype(np.uint64)
        first, inverse = first_appearance(code | cuts << np.uint64(55))
        places.append(len(words) + inverse)
        for pts, cut in zip(points[first].tolist(), cuts[first].tolist()):
            if cut:
                words.append(("".join(map(keys.__getitem__, pts[:cut])),
                              "".join(map(keys.__getitem__, pts[cut:]))))
            else:
                words.append("".join(map(keys.__getitem__, pts)))
    got = np.array(state.evaluate(words), dtype=complex)
    return [got[at] for at in places]


def _table_sum(table, rows, used, got, factor=None):
    """fsum over ``rows`` of the product of each row's cycle values, left to right
    as ``eval_phi_K`` multiplies, times ``factor``, a (real, imaginary)
    pair of per-row arrays.  ``got`` holds the values of the cycles ``used``.
    """
    index = table.row_cycles[rows]
    re, im = np.zeros(len(table.points)), np.zeros(len(table.points))
    re[used], im[used] = got.real, got.imag
    pr, pi = re[index[:, 0]], im[index[:, 0]]
    for col in index.T[1:]:
        pr, pi = _times(pr, pi, re[col], im[col])
    if factor is not None:
        pr, pi = _times(*[f[rows] for f in factor], pr, pi)
    return complex(math.fsum(pr.tolist()), math.fsum(pi.tolist()))


def phi2_terms(p, q, params, state):
    """The four covariance contributions for a pair of canonical monomials.

    Array passes over the annulus's ``pairing_table``, one sum per channel,
    with the cycle values of all four asked of ``state`` in one pass.
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
    kept = _non_mixing(table, labels)

    # S3 (k4) needs two through strings of one label, S4 one string; every
    # annular row has one at least, so ``label`` indexes ``wids``
    through, outer = table.through, np.array([wids.index(w) for w in labels[:m]])
    count = through.sum(axis=1)
    label = np.where(through, outer, len(wids)).min(axis=1)
    one_label = kept & (label == np.where(through, outer, -1).max(axis=1))
    tilde = [
        (_nonzero(one_label & (count == l), (w.real, w.imag)), (w.real, w.imag))
        for l, w in ((2, np.array([complex(par.k4) for par in pars])[label]),
                     (1, np.array([complex(par.eta - 1 - par.theta) for par in pars])[label]))
    ]

    # S2, the transpose channel: theta over the through strings, in order
    theta = np.ones(len(through)), np.zeros(len(through))
    for i, t in enumerate(complex(pars[c].theta) for c in outer):
        theta = _times(*theta, *np.where(through[:, i], [[t.real], [t.imag]], [[1.0], [0.0]]))
    rows_t = _nonzero(_non_mixing(table, labels_t), theta)

    used = [_cycles_used(table, r) for r in (kept, tilde[0][0] | tilde[1][0], rows_t)]
    got = _cycle_values(state, [
        (letters, table.points[used[0]], None),
        (letters, table.points[used[1]], table.outer[used[1]]),
        (letters_t, table.points[used[2]], None),
    ])
    s1 = _table_sum(table, kept, used[0], got[0])
    s3, s4 = [_table_sum(table, r, used[1], got[1], f) for r, f in tilde]
    s2 = _table_sum(table, rows_t, used[2], got[2], theta)
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
    vals = []
    for sigma in enumerate_nc2(m, n):
        if not is_non_mixing(sigma, labels):
            continue
        vals.append(eval_phi_K(sigma, letters, state))
        wid = _through_label(sigma, labels) if sigma.through_count == 2 else None
        if wid is not None:
            k4 = _get_params(params, wid).k4
            if k4 != 0:
                vals.append(k4 * eval_phi_tilde_K(sigma, letters, state))
    return _csum(vals)
