"""Concrete deterministic families and the functionals phi, phi_hadamard, phi_t.

One state class, ``FiniteNState``, evaluates the functionals the covariance
sum needs and memoizes them as scalars.  ``phi`` is keyed on the cyclically
minimized factor tuple of its word, ``phi_hadamard`` on the unordered pair
of its arguments' factor tuples, each taken up to a transpose of the whole
word, and ``phi_transpose(p, q)`` is ``phi`` of p followed by the reversed
transposes of q.  On a miss the value is computed on the state's N x N
family; a state without a family (``SymbolicState``, built from tables of
an abstract limit) raises ``KeyError`` instead.  Every word product, here
and in Monte Carlo, is one ``DetFamily.times`` call per letter.
"""

from __future__ import annotations

import functools

import numpy as np

from .words import DetLetter


# power iterations and start-vector seed of operator_norm_estimate
NORM_ITERS = 60
NORM_SEED = 0


def operator_norm_estimate(mat):
    """Power-iteration estimate of the operator norm of a square matrix."""
    n = mat.shape[0]
    rng = np.random.default_rng(NORM_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    h = mat.conj().T @ mat
    for _ in range(NORM_ITERS):
        w = h @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.linalg.norm(h @ v)))


class DetFamily:
    """A finite collection of N x N complex matrices with bounded norms."""

    def __init__(self, matrices, norm_bound=None):
        mats = [np.asarray(m, dtype=complex) for m in matrices]
        if not mats:
            raise ValueError("family must contain at least one matrix")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise ValueError("all family matrices must be square of equal size")
        self.N = n
        self.matrices = mats
        if norm_bound is not None:
            for i, m in enumerate(mats):
                est = operator_norm_estimate(m)
                if est > norm_bound * (1 + 1e-9):
                    raise ValueError(
                        "matrix %d has norm estimate %.6g > bound %.6g"
                        % (i, est, norm_bound)
                    )
        self.norm_bound = norm_bound
        self._letter_cache = {}
        self._operands = {}

    def letter_matrix(self, letter):
        """Dense complex matrix of a (possibly fused) letter, cached."""
        cached = self._letter_cache.get(letter)
        if cached is not None:
            return cached
        out = None
        for j, star, transpose in letter.factors:
            if not 0 <= j < len(self.matrices):
                raise IndexError("family has no matrix with index %d" % j)
            m = self.matrices[j]
            if star:
                m = m.conj().T
            if transpose:
                m = m.T
            # I @ A is exact, so the first factor is taken as it is
            out = m if out is None else out @ m
        if out is None:
            out = np.eye(self.N, dtype=complex)
        self._letter_cache[letter] = out
        return out

    def operand(self, letter):
        """The letter as ``times`` applies it, built on first use and cached.

        A letter with at most one nonzero per column is (rows, weights):
        column j is weights[j] * e_rows[j].  Any other letter is its dense
        matrix.  Either is downcast to float when its imaginary part is 0.
        """
        got = self._operands.get(letter)
        if got is None:
            m = self.letter_matrix(letter)
            if not m.imag.any():
                m = m.real.copy()
            nonzero = m != 0
            if nonzero.sum(axis=0).max() <= 1:
                rows = nonzero.argmax(axis=0)
                got = (rows, m[rows, np.arange(self.N)])
            else:
                got = m
            self._operands[letter] = got
        return got

    def times(self, mat, letter):
        """``mat @ A_letter``; the identity letter returns ``mat`` itself."""
        if letter.is_identity:
            return mat
        op = self.operand(letter)
        if not isinstance(op, tuple):
            return mat @ op
        rows, weights = op
        out = mat.take(rows, axis=1)
        if out.dtype.kind == "f" and weights.dtype.kind == "c":
            return out * weights  # a real gather cannot hold complex weights
        out *= weights  # in place: one N x N buffer, not two
        return out

    def word_matrix(self, letters):
        """Product matrix of a word of deterministic letters (read-only).

        A one-letter word returns the cached letter matrix itself.
        """
        first = self.letter_matrix(letters[0] if letters else DetLetter())
        return functools.reduce(self.times, letters[1:], first)


def _cyclic_min(key):
    if not key:
        return key
    return min(tuple(key[i:] + key[:i]) for i in range(len(key)))


def _word_key(letters):
    return tuple(f for letter in letters for f in letter.factors)


def _hadamard_key(key):
    # a word and its transpose have the same diagonal
    return min(key, DetLetter(key).transpose().factors)


class FiniteNState:
    """The one state: phi, phi_hadamard and phi_transpose, memoized.

    phi is the normalized trace, phi_hadamard the normalized trace of the
    entry-wise product (which only sees diagonals), phi_transpose the
    normalized trace of p q^t.  Values are computed on ``family`` the first
    time a key is seen; with ``family=None`` an unknown key raises KeyError.
    """

    def __init__(self, family):
        self.family = family
        self._phi = {}
        self._hadamard = {}

    @property
    def N(self):
        return self.family.N

    def phi(self, letters):
        key = _cyclic_min(_word_key(letters))
        if not key:
            return 1.0 + 0.0j
        got = self._phi.get(key)
        if got is None:
            if self.family is None:
                raise KeyError("no symbolic table entry for word %r" % (key,))
            got = complex(np.trace(self.family.word_matrix(letters)) / self.N)
            self._phi[key] = got
        return got

    def phi_hadamard(self, letters_p, letters_q):
        ka = _hadamard_key(_word_key(letters_p))
        kb = _hadamard_key(_word_key(letters_q))
        key = frozenset([ka, kb])
        got = self._hadamard.get(key)
        if got is None:
            if self.family is None:
                raise KeyError("no symbolic hadamard entry for (%r, %r)" % (ka, kb))
            p = self.family.word_matrix(letters_p)
            q = self.family.word_matrix(letters_q)
            got = complex(np.sum(np.diagonal(p) * np.diagonal(q)) / self.N)
            self._hadamard[key] = got
        return got

    def phi_transpose(self, letters_p, letters_q):
        rev = [letter.transpose() for letter in reversed(letters_q)]
        return self.phi(list(letters_p) + rev)


class SymbolicState(FiniteNState):
    """A state given by tables for abstract limits, with no matrix family.

    ``phi_table`` maps factor tuples to values; ``hadamard_table`` maps pairs
    of factor tuples.  Keys are normalized as ``FiniteNState`` keys them, so
    a table entry answers every rotation of its word (phi) and either
    transpose of each argument (phi_hadamard).
    """

    def __init__(self, phi_table, hadamard_table=None):
        super().__init__(None)
        self._phi = {_cyclic_min(k): complex(v) for k, v in phi_table.items()}
        self._hadamard = {
            frozenset([_hadamard_key(ka), _hadamard_key(kb)]): complex(v)
            for (ka, kb), v in (hadamard_table or {}).items()
        }


def eval_phi_K(pairing, letters, state):
    """Product over cycles of K(sigma) of phi of the cycle's letter word."""
    if len(letters) != pairing.size:
        raise ValueError("need m+n letters")
    out = 1.0 + 0.0j
    for cyc in pairing.kreweras_cycles:
        out *= state.phi([letters[i - 1] for i in cyc])
    return out


def eval_phi_tilde_K(pairing, letters, state):
    """eval_phi_K with each through cycle replaced by a Hadamard factor.

    Only defined for pairings with one or two through strings.
    """
    if pairing.through_count not in (1, 2):
        raise ValueError("phi_tilde requires 1 or 2 through strings")
    if len(letters) != pairing.size:
        raise ValueError("need m+n letters")
    m = pairing.m
    splits = iter(pairing.through_splits)
    out = 1.0 + 0.0j
    for cyc in pairing.kreweras_cycles:
        # a cycle starts at its minimum: it is a through cycle iff that
        # minimum is outer and its maximum inner; splits come in cycle order
        if cyc[0] <= m < max(cyc):
            outer, inner = next(splits)
            out *= state.phi_hadamard(
                [letters[i - 1] for i in outer], [letters[i - 1] for i in inner]
            )
        else:
            out *= state.phi([letters[i - 1] for i in cyc])
    return out


# ---------------------------------------------------------------------------
# family builders


def identity(n):
    return np.eye(n, dtype=complex)


def diagonal_pattern(n, values):
    """Diagonal matrix repeating ``values`` along the diagonal."""
    if not len(values):
        raise ValueError("pattern must be nonempty")
    reps = -(-n // len(values))
    diag = (list(values) * reps)[:n]
    return np.diag(np.asarray(diag, dtype=complex))

def circulant(n, first_row):
    """Circulant matrix with the given first row (padded with zeros)."""
    if not len(first_row):
        raise ValueError("first row must be nonempty")
    if len(first_row) > n:
        raise ValueError("first row longer than dimension")
    row = np.zeros(n, dtype=complex)
    row[: len(first_row)] = np.asarray(first_row, dtype=complex)
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        out[i] = np.roll(row, i)
    return out


def projection(n, rank_fraction):
    """Diagonal projection of rank floor(rank_fraction * N)."""
    if not 0 <= rank_fraction <= 1:
        raise ValueError("rank fraction must lie in [0, 1]")
    r = int(np.floor(rank_fraction * n))
    diag = np.zeros(n, dtype=complex)
    diag[:r] = 1.0
    return np.diag(diag)


def random_fixed(n, seed, norm_cap=1.0):
    """A fixed pseudorandom complex matrix rescaled to the given norm cap."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    est = operator_norm_estimate(m)
    if est > 0:
        m *= norm_cap / est
    return m


_BUILDERS = {
    "identity": lambda n, spec: identity(n),
    "diagonal_pattern": lambda n, spec: diagonal_pattern(n, spec["values"]),
    "circulant": lambda n, spec: circulant(n, spec["first_row"]),
    "projection": lambda n, spec: projection(n, spec["rank_fraction"]),
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
    mats = []
    for i, spec in enumerate(doc["matrices"]):
        try:
            kind = spec["kind"]
            if kind not in _BUILDERS:
                raise ValueError("unknown matrix kind %r" % (kind,))
            mat = _BUILDERS[kind](n, spec)
            if not np.all(np.isfinite(mat)):
                raise ValueError("matrix has a non-finite entry")
            mats.append(mat)
        except KeyError as exc:
            raise MatrixSpecError(i, "missing key %s" % exc) from None
        except (TypeError, ValueError) as exc:
            raise MatrixSpecError(i, str(exc)) from None
    return DetFamily(mats, norm_bound=doc.get("norm_bound"))
