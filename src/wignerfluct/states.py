"""Concrete deterministic families and the functionals phi, phi_hadamard, phi_t.

One state class, ``FiniteNState``, evaluates the functionals the covariance
sum needs and memoizes them as scalars in one dict, under every equivalent
key: every rotation of the word for ``phi``, both transposes of each
argument in both orders for ``phi_hadamard``.  A key is a word's
``word_key``, one character a flagged factor, and a phi_hadamard key a
pair of them.  A miss is computed on the state's family (the covariance
needs its Hadamard functionals, not only its *-distribution), on one
representative of its class: the least rotation, or of each argument and
its transpose the one with fewer transposed factors, in sorted order: no
value depends on which key, or pair, came first.  ``FiniteNState.evaluate``
takes a list of word keys and key pairs and computes all their missing
classes in one pass of ``products.word_diagonals``, the one place where
theory multiplies words; ``phi`` and ``phi_hadamard`` are its one-word
case.  ``phi_transpose(p, q)`` is ``phi`` of p followed by the reversed
transposes of q.  ``eval_phi_K`` and ``eval_phi_tilde_K`` multiply the
state's values over one pairing's Kreweras cycles.

A family holds each member with at most one nonzero per column as a
``Gather`` (rows, weights), with no N x N array, and composes words of
gathers as gathers: their diagonals, all that phi and phi_hadamard read,
cost O(N) a factor.  Any other word is a dense product, built left to
right with each letter's own operation: a matmul for a dense operand, a
take-and-scale for a gather.  ``word_matrix`` builds one word's dense
product, one ``times`` a letter, as the tests' reference.  Monte Carlo
multiplies by ``times_into``, with its pool's allocator where
``times`` passes ``np.empty``.  The family caches each letter once, as its
operand, the form ``times`` applies; dense views of letters and words are
built from the operands on request and not kept.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from .products import (
    BLOCK_ELEMS,
    Gather,
    _compose,
    _matrix,
    _real,
    _scan,
    _transpose,
    word_diagonals,
)
from .words import DetLetter


class DetFamily:
    """A finite collection of N x N complex matrices with bounded norms.

    A member with at most one nonzero per column (a diagonal, a projection,
    a shift, a weighted permutation) is held as a ``Gather``, with no N x N
    array; any other member as its dense matrix, float when it is real.  A
    dense array given for a member is scanned once, here.  Letters and
    words made only of gathers compose as gathers, so their traces and
    diagonals cost O(N) a factor.  ``operand`` is the one per-letter cache;
    ``letter_matrix``, ``word_matrix`` and ``matrices`` build dense arrays
    from it on request and do not keep them.

    With ``norm_bound`` b, each matrix's operator norm must be at most
    b (1 + 1e-9).  A gather's norm is exact: the square root of its largest
    row sum of |w|^2.  For a dense member sqrt(||A||_1 ||A||_inf) bounds the
    norm from above and accepts most matrices; the rest are checked by the
    exact norm.
    """

    def __init__(self, matrices, norm_bound=None):
        members = []
        for m in matrices:
            if isinstance(m, Gather):
                m = Gather(m[0], _real(m[1]))
            else:
                m = np.asarray(m, dtype=complex)
                if m.ndim != 2 or m.shape[0] != m.shape[1]:
                    raise ValueError("all family matrices must be square of equal size")
                m = _scan(_real(m))
            members.append(m)
        if not members:
            raise ValueError("family must contain at least one matrix")
        n = len(members[0][0])
        for m in members:
            if len(m[0]) != n:
                raise ValueError("all family matrices must be square of equal size")
        self.N = n
        self._members = members
        if norm_bound is not None:
            limit = norm_bound * (1 + 1e-9)
            for i, m in enumerate(members):
                if isinstance(m, Gather):
                    norm = np.sqrt(np.bincount(m[0], np.abs(m[1]) ** 2, minlength=n).max())
                elif np.sqrt(np.linalg.norm(m, 1) * np.linalg.norm(m, np.inf)) <= limit:
                    continue
                else:
                    norm = np.linalg.norm(m, 2)
                if norm > limit:
                    raise ValueError(
                        "matrix %d has norm %.6g > bound %.6g" % (i, norm, norm_bound)
                    )
        self.norm_bound = norm_bound
        self._operands = {}

    @property
    def matrices(self):
        """The members as dense complex arrays, gathers built anew on each call."""
        return [_matrix(m) for m in self._members]

    def _member(self, j):
        if not 0 <= j < len(self._members):
            raise IndexError("family has no matrix with index %d" % j)
        return self._members[j]

    def letter_matrix(self, letter):
        """Dense complex matrix of a (possibly fused) letter (read-only), from its operand."""
        return _matrix(self.operand(letter))

    def operand(self, letter):
        """The letter as ``times`` applies it, built on first use and cached.

        This is the family's one cache of letters.  A letter with at most
        one nonzero per column is a Gather (rows, weights): column j is
        weights[j] * e_rows[j].  Any other letter is its dense matrix.
        Either is downcast to float when its imaginary part is 0.  A flagged
        gather member is conjugated and transposed as a gather, and a letter
        of several factors whose one-factor operands are all gathers is
        their composition.  A dense member is itself; any other letter is
        scanned from the dense product of its flagged members.
        """
        got = self._operands.get(letter)
        if got is None:
            factors = letter.factors
            if len(factors) == 1:
                (j, star, transpose), = factors
                got = self._member(j)
                if isinstance(got, Gather):
                    if star:
                        got = Gather(got[0], got[1].conj())
                    if star != transpose:  # the adjoint is the transpose of the conjugate
                        got = _transpose(got)
                elif star or transpose:
                    got = None
            elif factors:
                ops = []
                for f in factors:
                    ops.append(self.operand(DetLetter((f,))))
                    if not isinstance(ops[-1], Gather):
                        break
                else:
                    got = functools.reduce(_compose, ops)
            else:
                got = Gather(np.arange(self.N), np.ones(self.N))
            if isinstance(got, Gather):
                got = Gather(got[0], _real(got[1]))
            elif got is None:
                out = None
                for j, star, transpose in factors:
                    m = _matrix(self._member(j))
                    if star:
                        m = m.conj().T
                    if transpose:
                        m = m.T
                    # I @ A is exact, so the first factor is taken as it is
                    out = m if out is None else out @ m
                got = _scan(_real(out))
            self._operands[letter] = got
        return got

    def times(self, mat, letter):
        """``mat @ A_letter``; the identity letter returns ``mat`` itself.

        ``mat`` may be a (b, N, N) stack, multiplied slice by slice.
        """
        return self.times_into(mat, letter, np.empty)

    def times_into(self, mat, letter, empty):
        """``times``, with a gather's product in the array ``empty(shape, dtype)``.

        Dense letters give a new array ``mat @ A``, and the identity ``mat``.
        """
        if letter.is_identity:
            return mat
        op = self.operand(letter)
        if not isinstance(op, tuple):
            return mat @ op
        rows, weights = op
        if mat.dtype.kind == "f" and weights.dtype.kind == "c":
            # a real gather cannot hold complex weights
            return np.multiply(mat.take(rows, axis=-1), weights, out=empty(mat.shape, complex))
        # the rows are in range: "raise" would gather into a new buffer first
        out = np.take(mat, rows, axis=-1, out=empty(mat.shape, mat.dtype), mode="clip")
        out *= weights  # in place: one N x N buffer, not two
        return out

    def trace_times(self, mat, letter):
        """The b traces of ``mat @ A_letter`` over a (b, N, N) stack ``mat``.

        A letter with at most one nonzero per column, the identity among
        them, sums the entries of ``mat`` it picks, without the product:
        Tr(X A) = sum_j X[j, rows[j]] weights[j].
        """
        op = self.operand(letter)
        if isinstance(op, tuple):
            rows, weights = op
            return (mat[:, np.arange(self.N), rows] * weights).sum(axis=-1)
        return np.trace(self.times(mat, letter), axis1=1, axis2=2)

    def word_matrix(self, letters):
        """Product matrix of a word of deterministic letters (read-only).

        A one-letter word returns its letter matrix itself.
        """
        first = self.letter_matrix(letters[0] if letters else DetLetter())
        return functools.reduce(self.times, letters[1:], first)


def word_key(factors):
    """The state's key of a tuple of flagged members: a str of one character
    4 j + 2 star + transpose a factor, which sorts as the tuple does and
    caches its hash.
    """
    return "".join([chr(4 * j + 2 * s + t) for j, s, t in factors])


@functools.lru_cache(maxsize=None)
def _factor(char):
    code = ord(char)
    return code >> 2, bool(code & 2), bool(code & 1)


def _factors(key):
    return tuple(map(_factor, key))


def _letters_key(letters):
    return word_key([f for letter in letters for f in letter.factors])


class _Table(dict):
    """A ``str.translate`` table that maps each code point by ``rule`` on first use."""

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def __missing__(self, code):
        self[code] = got = self.rule(code)
        return got


_FLIP_T = _Table(lambda code: code ^ 1)
_T_ONLY = _Table(lambda code: code if code & 1 else None)


def _transpose_key(key):
    return key[::-1].translate(_FLIP_T)


def _fewer_t(key, transposed):
    """Of a word and its transpose, the one with fewer t flags, or the lesser."""
    flags = 2 * len(key.translate(_T_ONLY))
    return key if flags < len(key) else transposed if flags > len(key) else min(key, transposed)


class FiniteNState:
    """The one state: phi, phi_hadamard and phi_transpose, memoized.

    phi is the normalized trace, phi_hadamard the normalized trace of the
    entry-wise product (which only sees diagonals), phi_transpose the
    normalized trace of p q^t.  One memo holds both: phi under a word's
    key, phi_hadamard under a pair of keys.  ``evaluate`` computes the
    classes that are missing, each on its one representative, in one
    pass of ``products.word_diagonals``; ``phi`` and ``phi_hadamard`` are
    its one-word case.
    """

    def __init__(self, family):
        self.family = family
        self._memo = {"": 1.0 + 0.0j}  # the empty word is the identity

    @property
    def N(self):
        return self.family.N

    def phi(self, letters):
        return self.evaluate([_letters_key(letters)])[0]

    def phi_hadamard(self, letters_p, letters_q):
        return self.evaluate([(_letters_key(letters_p), _letters_key(letters_q))])[0]

    def phi_transpose(self, letters_p, letters_q):
        rev = [letter.transpose() for letter in reversed(letters_q)]
        return self.phi(list(letters_p) + rev)

    def evaluate(self, asks):
        """The value of each ask, by ``word_key``: phi of a word key, phi_hadamard of a pair of them.

        A miss names its class's representative: for phi the least
        rotation, for phi_hadamard of each argument and its transpose the
        one with fewer transposed factors, the two in sorted order.  The
        representatives' diagonals are computed together, at most
        BLOCK_ELEMS entries of them at a time, and each value is stored
        under every key of its class.
        """
        jobs, queued = [], set()  # (representative words, the memo keys of their class)
        for ask in asks:
            if ask in self._memo or ask in queued:
                continue
            if isinstance(ask, str):
                twice, n = ask + ask, len(ask)
                rotations = [twice[i:i + n] for i in range(n)]
                jobs.append(((min(rotations),), rotations))
            else:
                # a word and its transpose share a diagonal: take the one with fewer t flags
                pa, pb = [(k, _transpose_key(k)) for k in ask]
                least = tuple(sorted([_fewer_t(*pa), _fewer_t(*pb)]))
                both = [(a, b) for a in pa for b in pb]
                jobs.append((least, both + [(b, a) for a, b in both]))
            queued.update(jobs[-1][1])
        per = max(1, BLOCK_ELEMS // (2 * self.N))  # jobs a pass: two diagonals each at most
        for s in range(0, len(jobs), per):
            self._fill(jobs[s:s + per])
        return [self._memo[ask] for ask in asks]

    def _fill(self, jobs):
        """Each job's value under its keys: the sum of its word's diagonal, or of its two's product."""
        place = {}  # each distinct word's row of diagonals
        at = [[place.setdefault(w, len(place)) for w in words] for words, _ in jobs]
        diag = word_diagonals(self.family, list(map(_factors, place)))
        one = np.array([len(a) == 1 for a in at], dtype=bool)
        first = np.array([a[0] for a in at], dtype=np.intp)
        second = np.array([a[-1] for a in at], dtype=np.intp)
        values = np.empty(len(jobs), dtype=complex)
        values[one] = diag[first[one]].sum(axis=1) / self.N
        values[~one] = (diag[first[~one]] * diag[second[~one]]).sum(axis=1) / self.N
        for (_, keys), v in zip(jobs, values.tolist()):
            self._memo.update(dict.fromkeys(keys, v))


def _cycle_product(pairing, letters, state, splits):
    """Product over the cycles of K(sigma), left to right as Python multiplies,
    of phi of each cycle's letter word, or of phi_hadamard of its split
    where ``splits`` gives one.
    """
    if len(letters) != pairing.size:
        raise ValueError("need m+n letters")
    out = 1.0 + 0.0j
    for cyc, split in zip(pairing.kreweras_cycles, splits):
        if split is None:
            out *= state.phi([letters[i - 1] for i in cyc])
        else:
            out *= state.phi_hadamard(*[[letters[i - 1] for i in arc] for arc in split])
    return out


def eval_phi_K(pairing, letters, state):
    """Product over cycles of K(sigma) of phi of the cycle's letter word."""
    return _cycle_product(pairing, letters, state, [None] * len(pairing.kreweras_cycles))


def eval_phi_tilde_K(pairing, letters, state):
    """eval_phi_K with each through cycle replaced by a Hadamard factor.

    Only defined for pairings with one or two through strings.
    """
    if pairing.through_count not in (1, 2):
        raise ValueError("phi_tilde requires 1 or 2 through strings")
    return _cycle_product(pairing, letters, state, pairing.through_splits)


# ---------------------------------------------------------------------------
# family builders


def _identity(n):
    return Gather(np.arange(n), np.ones(n, dtype=complex))


def identity(n):
    return _matrix(_identity(n))


def _diagonal(n, values):
    if not len(values):
        raise ValueError("pattern must be nonempty")
    reps = -(-n // len(values))
    return Gather(np.arange(n), np.asarray((list(values) * reps)[:n], dtype=complex))


def diagonal_pattern(n, values):
    """Diagonal matrix repeating ``values`` along the diagonal."""
    return _matrix(_diagonal(n, values))


def _circulant(n, first_row):
    if not len(first_row):
        raise ValueError("first row must be nonempty")
    if len(first_row) > n:
        raise ValueError("first row longer than dimension")
    row = np.zeros(n, dtype=complex)
    row[: len(first_row)] = np.asarray(first_row, dtype=complex)
    nonzero = np.flatnonzero(row)
    if len(nonzero) > 1:
        # in rows of n + 1, row k of the repeated row is it rolled by -k
        return np.tile(row, n + 1).reshape(n, n + 1)[-np.arange(n), :n]
    # row i holds row[k] at column i + k: column j holds it at row j - k
    k = nonzero[0] if len(nonzero) else 0
    return Gather((np.arange(n) - k) % n, np.full(n, row[k]))


def circulant(n, first_row):
    """Circulant matrix with the given first row (padded with zeros)."""
    return _matrix(_circulant(n, first_row))


def _projection(n, rank_fraction):
    if not 0 <= rank_fraction <= 1:
        raise ValueError("rank fraction must lie in [0, 1]")
    # the decimal value: floor(0.29 * 100) is 28 in floats
    rank = math.floor(Fraction(str(float(rank_fraction))) * n)
    weights = np.zeros(n, dtype=complex)
    weights[:rank] = 1.0
    return Gather(np.arange(n), weights)


def projection(n, rank_fraction):
    """Diagonal projection of rank floor(rank_fraction * N), rank_fraction read as a decimal."""
    return _matrix(_projection(n, rank_fraction))


def random_fixed(n, seed, norm_cap=1.0):
    """A fixed pseudorandom complex matrix rescaled to the given operator norm."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m * (norm_cap / np.linalg.norm(m, 2))


_BUILDERS = {
    "identity": lambda n, spec: _identity(n),
    "diagonal_pattern": lambda n, spec: _diagonal(n, spec["values"]),
    "circulant": lambda n, spec: _circulant(n, spec["first_row"]),
    "projection": lambda n, spec: _projection(n, spec["rank_fraction"]),
    "random_fixed": lambda n, spec: random_fixed(
        n, spec["seed"], spec.get("norm_cap", 1.0)
    ),
    "dense": lambda n, spec: _dense(n, spec["data"]),
}


def _dense(n, data):
    arr = np.asarray(data, dtype=float)
    if arr.shape != (n, n, 2):
        raise ValueError("dense matrix data must be N x N pairs [re, im]")
    return arr[..., 0] + 1j * arr[..., 1]


class MatrixSpecError(ValueError):
    """A matrix spec its builder rejects; ``index`` is its place in the list."""

    def __init__(self, index, reason):
        super().__init__("matrix %d: %s" % (index, reason))
        self.index = index
        self.reason = reason


def family_from_json(doc):
    """Build a DetFamily from its JSON description.

    Schema: {"dim": N, "matrices": [{"kind": ..., ...}, ...],
    "norm_bound": optional float}.  A matrix spec of an unknown kind, with a
    missing key, with a value of the wrong type or with a non-finite entry
    raises MatrixSpecError.
    """
    n = doc["dim"]
    members = []
    for i, spec in enumerate(doc["matrices"]):
        try:
            kind = spec["kind"]
            if kind not in _BUILDERS:
                raise ValueError("unknown matrix kind %r" % (kind,))
            member = _BUILDERS[kind](n, spec)
            if not np.all(np.isfinite(member[1] if isinstance(member, Gather) else member)):
                raise ValueError("matrix has a non-finite entry")
            members.append(member)
        except KeyError as exc:
            raise MatrixSpecError(i, "missing key %s" % exc) from None
        except (TypeError, ValueError) as exc:
            raise MatrixSpecError(i, str(exc)) from None
    return DetFamily(members, norm_bound=doc.get("norm_bound"))
