"""Wigner entry laws: presets, exact moments, design from (theta, eta, k4).

An ensemble is described by the law of one off-diagonal entry x = u + iv
(u, v independent real symmetric, E|x|^2 = 1) together with the law of a
diagonal entry.  The three scalar parameters are

    theta = E[x^2]      (real here),
    eta   = E[d^2]      (diagonal second moment),
    k4    = E[x^2 xbar^2] - 2 - theta^2.

Discrete designs use symmetric three-point laws on {-a, 0, a}, which is
enough to hit any admissible (theta, eta, k4) with theta in [-1, 1].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _double_factorial(k):
    # (k-1)!! pairs count for a standard gaussian moment E[g^k], k even
    out = 1
    for j in range(k - 1, 0, -2):
        out *= j
    return out


@dataclass(frozen=True)
class SymmetricDiscreteLaw:
    """Law of a*s where P(s=1)=P(s=-1)=p, P(s=0)=1-2p; stored via a^2."""

    a2: Fraction
    p: Fraction

    def __post_init__(self):
        if self.a2 < 0:
            raise ValueError("atom square must be >= 0")
        if not 0 <= self.p <= Fraction(1, 2):
            raise ValueError("atom probability must lie in [0, 1/2]")

    @classmethod
    def zero(cls):
        return cls(Fraction(0), Fraction(0))

    def moment(self, k):
        """E[X^k] as an exact Fraction."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        if k == 0:
            return Fraction(1)
        if k % 2:
            return Fraction(0)
        return 2 * self.p * self.a2 ** (k // 2)

    @property
    def variance(self):
        return self.moment(2)

    def sample(self, rng, size):
        a = math.sqrt(float(self.a2))
        pr = float(self.p)
        u = rng.random(size)
        return np.where(u < pr, -a, np.where(u < 2.0 * pr, a, 0.0))


@dataclass(frozen=True)
class EntryLaw:
    """Joint description of the off-diagonal and diagonal entry laws.

    kind is one of "gaussian_complex", "gaussian_real", "uv_discrete".  For
    the discrete kind, ``u`` and ``v`` are the laws of the real and imaginary
    parts and ``diag`` the diagonal law; for the gaussian kinds only
    ``diag_variance`` is used (the diagonal is a centered real gaussian).
    """

    kind: str
    u: SymmetricDiscreteLaw | None = None
    v: SymmetricDiscreteLaw | None = None
    diag: SymmetricDiscreteLaw | None = None
    diag_variance: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in ("gaussian_complex", "gaussian_real", "uv_discrete"):
            raise ValueError("unknown entry law kind %r" % (self.kind,))
        if self.kind == "uv_discrete":
            if self.u is None or self.v is None or self.diag is None:
                raise ValueError("uv_discrete needs u, v and diag laws")
            if self.u.variance + self.v.variance != 1:
                raise ValueError("off-diagonal entries must satisfy E|x|^2 = 1")
        elif self.diag_variance < 0:
            raise ValueError("diagonal variance must be >= 0")


def gue_law():
    return EntryLaw("gaussian_complex", diag_variance=Fraction(1))


def goe_law():
    return EntryLaw("gaussian_real", diag_variance=Fraction(2))


def rademacher_law():
    """Real symmetric matrix of +-1 signs: theta=1, eta=1, k4=-2."""
    sign = SymmetricDiscreteLaw(Fraction(1), Fraction(1, 2))
    return EntryLaw("uv_discrete", u=sign, v=SymmetricDiscreteLaw.zero(), diag=sign)


PRESETS = {"gue": gue_law, "goe": goe_law, "rademacher": rademacher_law}


def params_of(law):
    """Exact (theta, eta, k4) of an entry law, as Fractions."""
    if law.kind == "gaussian_complex":
        return Fraction(0), law.diag_variance, Fraction(0)
    if law.kind == "gaussian_real":
        # E[x^4] = 3 for a standard real gaussian
        return Fraction(1), law.diag_variance, Fraction(0)
    mu2, mv2 = law.u.moment(2), law.v.moment(2)
    theta = mu2 - mv2
    abs4 = law.u.moment(4) + law.v.moment(4) + 2 * mu2 * mv2
    k4 = abs4 - 2 - theta * theta
    return theta, law.diag.moment(2), k4


def solve_law(theta, eta, k4):
    """Discrete entry law realizing given (theta, eta, k4) exactly.

    theta must lie in [-1, 1] (real), eta >= 0, and k4 >= -1 - theta^2.
    Works in exact rational arithmetic, so params_of(solve_law(...)) returns
    the inputs unchanged.
    """
    theta, eta, k4 = Fraction(theta), Fraction(eta), Fraction(k4)
    if not -1 <= theta <= 1:
        raise ValueError("theta must lie in [-1, 1]")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if k4 < -1 - theta * theta:
        raise ValueError("k4 must be >= -1 - theta^2")
    vu = (1 + theta) / 2
    vv = (1 - theta) / 2
    # total fourth moment of the two parts needed to hit k4
    s_total = k4 + 2 + theta * theta - (1 - theta * theta) / 2
    floor = vu * vu + vv * vv
    if s_total < floor:  # unreachable given the k4 bound, kept as a guard
        raise ValueError("fourth moment target below the two-point floor")

    def part(v, s):
        if v == 0:
            return SymmetricDiscreteLaw.zero()
        return SymmetricDiscreteLaw(a2=s / v, p=v * v / (2 * s))

    # split the fourth-moment budget proportionally to the squared variances
    su = s_total * vu * vu / floor
    sv = s_total * vv * vv / floor
    u = part(vu, su)
    v = part(vv, sv)
    if eta == 0:
        diag = SymmetricDiscreteLaw.zero()
    else:
        diag = SymmetricDiscreteLaw(a2=eta, p=Fraction(1, 2))
    return EntryLaw("uv_discrete", u=u, v=v, diag=diag)


def entry_moment(law, p, q):
    """E[x^p xbar^q] for one off-diagonal entry, exact.

    Returns a Fraction (real laws considered here give real mixed moments).
    """
    if p < 0 or q < 0:
        raise ValueError("moment orders must be >= 0")
    if law.kind == "gaussian_complex":
        return Fraction(math.factorial(p)) if p == q else Fraction(0)
    if law.kind == "gaussian_real":
        k = p + q
        return Fraction(_double_factorial(k)) if k % 2 == 0 else Fraction(0)
    total = Fraction(0)
    for i in range(p + 1):
        for j in range(q + 1):
            ku = i + j
            kv = (p - i) + (q - j)
            if ku % 2 or kv % 2:
                continue
            # i^(p-i) * (-i)^(q-j) with an even exponent sum is +-1
            ipow = ((p - i) - (q - j)) % 4
            sign = 1 if ipow == 0 else -1
            total += (
                sign
                * math.comb(p, i)
                * math.comb(q, j)
                * law.u.moment(ku)
                * law.v.moment(kv)
            )
    return total


def diagonal_moment(law, k):
    """E[d^k] for one diagonal entry, exact."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if law.kind == "uv_discrete":
        return law.diag.moment(k)
    if k % 2:
        return Fraction(0)
    return law.diag_variance ** (k // 2) * _double_factorial(k)


def make_rng(seed_key):
    """Counter-based generator keyed by an integer tuple, bit-reproducible."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_key)))


def is_real_law(law):
    if law.kind == "gaussian_real":
        return True
    return law.kind == "uv_discrete" and law.v.variance == 0


@functools.lru_cache(maxsize=8)
def _hermitian_layout(n):
    """Flat positions of the strict upper triangle, its mirror and the diagonal.

    Read-only, cached per N: the sampler scatters into them on every call.
    """
    i, j = np.triu_indices(n, k=1)
    layout = (i * n + j, j * n + i, np.arange(n) * (n + 1))
    for pos in layout:
        pos.setflags(write=False)
    return layout


def sample_wigner(n, law, seed_key):
    """One Hermitian sample X/sqrt(N) of the given N x N ensemble.

    ``seed_key`` is an integer tuple; equal keys give bit-identical samples.
    Real-valued laws return a float array (symmetric), which speeds up the
    downstream matrix products.  The scaled draws are written straight into
    their upper, lower and diagonal positions.
    """
    rng = make_rng(seed_key)
    upper, lower, diagonal = _hermitian_layout(n)
    k = upper.size
    real = is_real_law(law)
    if law.kind == "gaussian_complex":
        off = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2)
        diag = rng.standard_normal(n) * math.sqrt(float(law.diag_variance))
    elif law.kind == "gaussian_real":
        off = rng.standard_normal(k)
        diag = rng.standard_normal(n) * math.sqrt(float(law.diag_variance))
    else:
        off = law.u.sample(rng, k)
        if not real:
            off = off + 1j * law.v.sample(rng, k)
        diag = law.diag.sample(rng, n)
    dtype = float if real else complex
    scale = math.sqrt(n)
    zero = np.zeros(1, dtype=dtype)
    x = np.empty((n, n), dtype=dtype)
    flat = x.reshape(-1)
    # entry by entry the same operations as summing X + X^H and dividing
    # the matrix, so that the bytes do not depend on the layout: the upper
    # triangle gains conj(0) and the lower 0, which fixes the signs of zero
    # parts, and a complex array over a real scalar is a complex division,
    # so the diagonal is cast before it is divided.  Each triangle is built
    # in one buffer and divided in place, so the draw peaks at the matrix,
    # ``off`` and that buffer.
    buf = off + zero.conj()
    buf /= scale
    flat[upper] = buf
    if not real:  # on real entries the lower triangle equals the upper
        np.conjugate(off, out=off)
        np.add(off, zero, out=buf)
        buf /= scale
    flat[lower] = buf
    diag = diag.astype(dtype)
    diag /= scale
    flat[diagonal] = diag
    return x
