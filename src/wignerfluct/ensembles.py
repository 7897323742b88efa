"""Wigner entry laws: presets, exact moments, design from (theta, eta, k4).

An ensemble is described by the law of one off-diagonal entry x = u + iv
(u, v independent real symmetric, E|x|^2 = 1) together with the law of a
diagonal entry.  The three scalar parameters are

    theta = E[x^2]      (real here),
    eta   = E[d^2]      (diagonal second moment),
    k4    = E[x^2 xbar^2] - 2 - theta^2.

Discrete designs use symmetric three-point laws on {-a, 0, a}, which is
enough to hit any admissible (theta, eta, k4) with theta in [-1, 1].

Sampling is counter-based: the matrix of ensemble k in replicate rep of a
run with seed s draws from the Philox stream that SeedSequence((s, k, rep))
keys.  ``stream_keys`` computes those keys for many replicates at once with
SeedSequence's own hash, and ``fill_wigners`` draws a block of matrices in
one call into buffers it is given, re-keying one generator per matrix, so
every matrix has the same bytes in any block and any buffer.  Its scratch
is one buffer of the block's bytes, which a caller may reuse from draw to
draw.  ``sample_wigners`` allocates both buffers and fills them, and
``sample_wigner`` is its block of one.
"""

import functools
import math
import operator
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

    def atoms(self, u, below):
        """Overwrite uniforms u with the values of a*s: -a below p, a below 2p, else 0.

        ``below`` is a bool array of u's shape for the draw's own use.  The
        values are c*a for c = [u < 2p] - [u < p] - [u < p], so a zero atom
        below p is -0.0, as -a is.  Arithmetic on the masks, not a masked
        write: those branch on random masks and run ~5x slower.
        """
        pr = float(self.p)
        np.less(u, pr, out=below)
        np.less(u, 2.0 * pr, out=u)
        u -= below
        u -= below
        u *= math.sqrt(float(self.a2))


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


def is_real_law(law):
    if law.kind == "gaussian_real":
        return True
    return law.kind == "uv_discrete" and law.v.variance == 0


# The constants of numpy's SeedSequence hash (NEP 19), with which
# ``stream_keys`` reproduces its output.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _words(value):
    """The 32-bit little-endian words of an integer >= 0; 0 is one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("seed, ensemble index and replicate must be >= 0")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(init, mult):
    """SeedSequence's ``hashmix`` on uint32 arrays, with its running constant."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x, y):
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def stream_keys(seed, k, reps):
    """Philox keys of the streams (seed, k, rep), one row per rep: (b, 2) uint64.

    Row i is ``SeedSequence((seed, k, reps[i])).generate_state(2, np.uint64)``,
    the key of a Philox seeded with that tuple, computed in uint32 arithmetic
    for all the reps at once.  The entropy is the words of seed, k and rep;
    they fill and cross-mix a pool of four words, any further word is mixed
    into each pool word, and the pool is hashed into four output words.
    """
    reps = np.asarray(reps, dtype=np.int64).reshape(-1)
    if reps.size and (reps.min() < 0 or reps.max() > _MASK32):
        raise ValueError("replicate indices must lie in [0, 2**32)")
    entropy = [np.array([w], dtype=np.uint32) for w in _words(seed) + _words(k)]
    entropy.append(reps.astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else np.zeros(1, dtype=np.uint32))
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = np.empty((reps.size, _POOL_SIZE), dtype="<u4")
    for i, word in enumerate(pool):
        words[:, i] = hashmix(word)
    # two little-endian uint64 a row, as generate_state reads the four words
    return words.view("<u8").astype(np.uint64, copy=False)


@functools.lru_cache(maxsize=8)
def _hermitian_layout(n):
    """Flat positions of the strict upper triangle and of its mirror.

    Read-only, cached per N: the sampler scatters into them on every call.
    """
    i, j = np.triu_indices(n, k=1)
    layout = (i * n + j, j * n + i)
    for pos in layout:
        pos.setflags(write=False)
    return layout


def _draw_rows(method, rows, keys):
    """Fill row i of the (b, size) array ``rows`` with the variates of the stream of key i.

    One generator serves the block.  For each key it is set to the start of
    that key's stream, the state a Philox built on the key has, and one
    ``Generator.<method>`` call fills row i.
    """
    bitgen = np.random.Philox(0)  # any key: each stream sets its own
    draw = getattr(np.random.Generator(bitgen), method)
    # plain ints: the state setter reads them about twice as fast as arrays
    counter = (0, 0, 0, 0)
    state = {
        "bit_generator": "Philox",
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # the buffer is spent: the next draw starts a block
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i, key in enumerate(keys.tolist()):
        state["state"] = {"counter": counter, "key": key}
        bitgen.state = state
        draw(out=rows[i])


def _view(buffer, start, shape, dtype):
    """The array of ``shape`` and ``dtype`` at byte ``start`` of a uint8 buffer."""
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    return buffer[start:start + size].view(dtype).reshape(shape)


def wigner_dtype(law):
    """The dtype of a law's draws: float for real laws, complex else."""
    return np.dtype(float if is_real_law(law) else complex)


def fill_wigners(x, scratch, law, keys):
    """Draw the samples of ``sample_wigners(N, law, keys)`` into the stack ``x``.

    ``x`` is a (b, N, N) array of ``wigner_dtype(law)`` and ``scratch`` a
    uint8 array of at least ``x.nbytes`` bytes, whose contents the draw
    overwrites.  The scratch holds two (b, N(N-1)/2) arrays of x's dtype,
    then the b N diagonal variates.  Each key's variates lie next to each
    other from the second array on, so that one generator call draws them;
    ``off`` and ``buf`` use both arrays once the variates are spent.  The
    bool masks of discrete laws live in ``x``, which nothing else has
    written yet.
    """
    b, n = len(keys), x.shape[-1]
    upper, lower = _hermitian_layout(n)
    k = upper.size
    if b > 1:  # the positions in each matrix of the (b, N, N) stack, in turn
        start = np.arange(b)[:, None] * (n * n)
        upper, lower = [(start + pos).reshape(-1) for pos in (upper, lower)]
    real = x.dtype.kind == "f"
    part = b * k * x.itemsize
    first = _view(scratch, 0, (b, k), x.dtype)
    second = _view(scratch, part, (b, k), x.dtype)
    # per replicate: the off-diagonal real parts, the imaginary parts of a
    # complex law, then the diagonal, in one row of the variates
    width = 1 if real else 2
    variates = _view(scratch, part, (b, width * k + n), float)
    rows = [variates[:, i * k:(i + 1) * k] for i in range(width)] + [variates[:, width * k:]]
    if law.kind == "uv_discrete":
        _draw_rows("random", variates, keys)
        below = _view(x.reshape(-1).view(np.uint8), 0, (b, max(k, n)), bool)
        parts = [law.u, law.diag] if real else [law.u, law.v, law.diag]
        for atoms, row in zip(parts, rows):
            atoms.atoms(row, below[:, :row.shape[1]])
    else:
        _draw_rows("standard_normal", variates, keys)
        rows[-1] *= math.sqrt(float(law.diag_variance))
    scale = math.sqrt(n)
    # entry by entry the same operations as summing X + X^H and dividing
    # the matrix, so that the bytes do not depend on the layout: the upper
    # triangle gains conj(0) and the lower 0, which fixes the signs of zero
    # parts, and a complex array over a real scalar is a complex division,
    # so the diagonal is cast before it is divided
    diag = x.reshape(b, n * n)[:, ::n + 1]
    np.copyto(diag, rows[-1])
    diag /= scale
    if real:
        off, buf = rows[0], first
    else:
        off, buf = first, second
        np.multiply(1j, rows[1], out=off)
        np.add(rows[0], off, out=off)
        if law.kind != "uv_discrete":
            off /= math.sqrt(2)
    zero = np.zeros(1, dtype=x.dtype)
    flat = x.reshape(-1)
    np.add(off, zero.conj(), out=buf)
    buf /= scale
    flat[upper] = buf.reshape(-1)
    if not real:  # on real entries the lower triangle equals the upper
        np.conjugate(off, out=off)
        np.add(off, zero, out=buf)
        buf /= scale
    flat[lower] = buf.reshape(-1)


def sample_wigners(n, law, keys):
    """Hermitian samples X/sqrt(N) of the N x N ensemble, one per stream key.

    ``keys`` is a (b, 2) array of Philox keys (see ``stream_keys``); returns
    the (b, N, N) stack, sample i drawn from the stream of key i alone, so a
    sample's bytes do not depend on the block it is drawn in.  Real-valued
    laws give float arrays (symmetric), which speeds up the downstream
    matrix products.  The stack and a scratch buffer of its size are new
    arrays, which ``fill_wigners`` fills: the draw peaks at twice the stack.
    """
    x = np.empty((len(keys), n, n), dtype=wigner_dtype(law))
    fill_wigners(x, np.empty(x.nbytes, dtype=np.uint8), law, keys)
    return x


def sample_wigner(n, law, seed_key):
    """One Hermitian sample X/sqrt(N), from the stream of ``seed_key`` = (seed, k, rep).

    Equal keys give bit-identical samples, the same as in any block of
    ``sample_wigners``.
    """
    seed, k, rep = seed_key
    return sample_wigners(n, law, stream_keys(seed, k, [rep]))[0]
