"""Limiting mean and covariance of traces of words in Wigner and
deterministic matrices.

The covariance of centered traces of two canonical monomials p (degree m)
and q (degree n) is a sum of four contributions over annular non-crossing
pairings:

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

from .annular import enumerate_nc2, enumerate_nc2_disc, is_non_mixing
from .states import CycleValues
from .words import Monomial, Polynomial, s_transform


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


def first_order(mono, params, state):
    """Limit of E[(1/N) Tr p(X, A)] for a canonical monomial p."""
    for wid in mono.wigner_labels:
        _get_params(params, wid)
    k = mono.degree
    if k == 0:
        return state.phi([mono.scalar_letter])
    if k % 2:
        return 0j
    labels, values = mono.wigner_labels, CycleValues(mono.det_letters, state)
    return _csum([
        values.phi_K(sigma)
        for sigma in enumerate_nc2_disc(k)
        if is_non_mixing(sigma, labels)
    ])


def first_order_poly(poly, params, state):
    return _csum([c * first_order(m, params, state) for c, m in poly.terms])


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


def phi2_terms(p, q, params, state):
    """The four covariance contributions for a pair of canonical monomials."""
    if not isinstance(p, Monomial) or not isinstance(q, Monomial):
        raise TypeError("phi2 expects canonical monomials")
    for wid in p.wigner_labels + q.wigner_labels:
        _get_params(params, wid)
    m, n = p.degree, q.degree
    zero = Phi2Terms(0j, 0j, 0j, 0j)
    if m == 0 or n == 0 or (m + n) % 2:
        return zero

    labels, letters = _word_data(p, q)
    sq = s_transform(q)
    labels_t, letters_t = _word_data(p, sq)
    values, values_t = CycleValues(letters, state), CycleValues(letters_t, state)

    s1, s2, s3, s4 = [], [], [], []
    for sigma in enumerate_nc2(m, n):
        if is_non_mixing(sigma, labels):
            s1.append(values.phi_K(sigma))
            # S3 (k4) needs two through strings of one label, S4 one string
            l = sigma.through_count
            wid = _through_label(sigma, labels) if l <= 2 else None
            if wid is not None:
                par = _get_params(params, wid)
                weight = par.k4 if l == 2 else par.eta - 1 - par.theta
                if weight != 0:
                    tilde = weight * values.phi_tilde_K(sigma)
                    (s3 if l == 2 else s4).append(tilde)
        if is_non_mixing(sigma, labels_t):
            theta_sigma = 1.0 + 0.0j
            for i, _ in sigma.through_strings():
                theta_sigma *= _get_params(params, labels_t[i - 1]).theta
            if theta_sigma != 0:
                s2.append(theta_sigma * values_t.phi_K(sigma))
    return Phi2Terms(_csum(s1), _csum(s2), _csum(s3), _csum(s4))


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
        vals.append(values.phi_K(sigma))
        wid = _through_label(sigma, labels) if sigma.through_count == 2 else None
        if wid is not None:
            k4 = _get_params(params, wid).k4
            if k4 != 0:
                vals.append(k4 * values.phi_tilde_K(sigma))
    return _csum(vals)


def phi2_poly(P, Q, params, state):
    """Bilinear extension of phi2 to polynomials."""
    if not isinstance(P, Polynomial):
        P = Polynomial.monomial(P)
    if not isinstance(Q, Polynomial):
        Q = Polynomial.monomial(Q)
    vals = []
    for c, mp in P.terms:
        for d, mq in Q.terms:
            if mp.degree == 0 or mq.degree == 0:
                continue
            vals.append(c * d * phi2(mp, mq, params, state))
    return _csum(vals)


def conjugate_cov(P, Q, params, state):
    """E[z(p) conj(z(q))] computed as the covariance against q*."""
    if not isinstance(Q, Polynomial):
        Q = Polynomial.monomial(Q)
    return phi2_poly(P, Q.star(), params, state)
