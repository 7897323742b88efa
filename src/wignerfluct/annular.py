"""Non-crossing pairings on an (m, n)-annulus and their Kreweras complements.

Positions are 1-based: 1..m sit on the outer circle, m+1..m+n on the inner
circle.  A pairing is stored as a fixed-point-free involution ``match`` with
``match[i] = j`` iff {i, j} is a pair (index 0 of the array is unused).
Every permutation is such a point-map tuple; ``CyclePermutation`` only wraps
one for the public return values of ``gamma`` and the Kreweras maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

DEFAULT_SIZE_LIMIT = 16


@dataclass(frozen=True)
class CyclePermutation:
    """A permutation of [size] held as a 1-based point map."""

    size: int
    mapping: tuple  # length size+1, mapping[0] == 0

    def __post_init__(self):
        if len(self.mapping) != self.size + 1:
            raise ValueError("mapping must have length size+1")
        if sorted(self.mapping[1:]) != list(range(1, self.size + 1)):
            raise ValueError("mapping is not a permutation of [size]")

    @property
    def cycles(self):
        """Cycles as tuples, each starting at its minimum, sorted by minimum."""
        return _cycles(self.mapping)

    @property
    def num_cycles(self):
        return len(self.cycles)


@lru_cache(maxsize=None)
def _gamma_map(sizes):
    """One cycle per circle, (1..s1)(s1+1..s1+s2)..., as a 1-based point map."""
    mapping = [0]
    for s in sizes:
        start = len(mapping)
        mapping += [start + (j + 1) % s for j in range(s)]
    return tuple(mapping)


def _kreweras_map(match, sizes):
    """sigma * gamma, i.e. i -> match[gamma(i)], as a 1-based point map."""
    g = _gamma_map(sizes)
    return (0,) + tuple(match[g[i]] for i in range(1, len(g)))


def _genus_zero(match, sizes):
    """Genus count of the pairing sigma = ``match`` against gamma.

    For sigma and gamma acting transitively on the points,
    #(sigma) + #(sigma gamma) + #(gamma) = size + 2 - 2g.  With
    #(sigma) = size / 2 and one gamma cycle per circle, g = 0 reads
    2 #(sigma gamma) = size + 4 - 2 #circles.  The cycles of sigma * gamma
    are counted in place, without building the map.
    """
    g = _gamma_map(sizes)
    size = len(g) - 1
    seen = bytearray(size + 1)
    count = 0
    for i in range(1, size + 1):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = match[g[j]]
    return 2 * count == size + 4 - 2 * len(sizes)


def _cycles(mapping):
    seen = [False] * len(mapping)
    out = []
    for i in range(1, len(mapping)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = mapping[j]
        out.append(tuple(cyc))
    return out


def gamma(m, n):
    """The two-cycle permutation (1, 2, ..., m)(m+1, ..., m+n)."""
    if m < 1 or n < 1:
        raise ValueError("gamma requires m >= 1 and n >= 1")
    return CyclePermutation(m + n, _gamma_map((m, n)))


def _check_involution(match, size):
    if len(match) != size + 1:
        raise ValueError("match must have length m+n+1 (1-based)")
    for i in range(1, size + 1):
        j = match[i]
        if not 1 <= j <= size or j == i or match[j] != i:
            raise ValueError("match is not a fixed-point-free involution")


def _through_pairs(match, m, n):
    return [(i, match[i]) for i in range(1, m + 1) if match[i] > m]


@dataclass(frozen=True)
class AnnularPairing:
    """A non-crossing pairing of the (m, n)-annulus with >= 1 through string."""

    m: int
    n: int
    match: tuple

    def __post_init__(self):
        if not is_annular_noncrossing(self.match, self.m, self.n):
            raise ValueError("pairing is not annular non-crossing")

    @property
    def size(self):
        return self.m + self.n

    def pairs(self):
        return [(i, self.match[i]) for i in range(1, self.size + 1) if i < self.match[i]]

    def through_strings(self):
        """All pairs {i, j} with i on the outer and j on the inner circle."""
        return _through_pairs(self.match, self.m, self.n)

    @property
    def through_count(self):
        return len(self.through_strings())

    def as_permutation(self):
        return CyclePermutation(self.size, self.match)

    def __str__(self):
        return "".join("(%d,%d)" % p for p in self.pairs())


def is_annular_noncrossing(match, m, n):
    """Genus count: 2 * #cycles(sigma * gamma) == m + n.

    A pairing sigma that, together with gamma, acts transitively on its
    points satisfies #(sigma) + #(sigma gamma) + #(gamma) = m + n + 2 - 2g,
    and it is non-crossing exactly when its genus g is 0.  With
    #(sigma) = (m+n)/2 and #(gamma) = 2 this reads 2 #(sigma gamma) = m + n.
    At least one through string is required, which makes the action
    transitive.  The disc is the same count with one circle of k points:
    2 #(sigma gamma) = k + 2.
    """
    _check_involution(match, m + n)
    if not _through_pairs(match, m, n):
        raise ValueError("candidate has no through string")
    return _genus_zero(match, (m, n))


def is_annular_noncrossing_recursive(match, m, n):
    """Independent predicate: peel off cyclic-interval pairs down to a spoke diagram.

    A pairing is annular non-crossing iff it is a spoke diagram, or some pair
    occupies cyclically adjacent positions on one circle and its removal
    leaves an annular non-crossing pairing.
    """
    size = m + n
    _check_involution(match, size)
    if not _through_pairs(match, m, n):
        raise ValueError("candidate has no through string")
    pairs = {i: match[i] for i in range(1, size + 1)}
    outer = list(range(1, m + 1))
    inner = list(range(m + 1, size + 1))
    return _nc_reduce(pairs, outer, inner)


def _nc_reduce(pairs, outer, inner):
    inner_set = set(inner)
    if all(pairs[i] in inner_set for i in outer) and all(
        pairs[i] not in inner_set for i in inner
    ):
        return _is_spoke(pairs, outer, inner)
    for circle in (outer, inner):
        k = len(circle)
        if k < 2:
            continue
        for idx in range(k):
            u, v = circle[idx], circle[(idx + 1) % k]
            if pairs[u] == v:
                sub = {a: b for a, b in pairs.items() if a not in (u, v)}
                keep = lambda lst: [a for a in lst if a not in (u, v)]
                return _nc_reduce(sub, keep(outer), keep(inner))
    return False


def _is_spoke(pairs, outer, inner):
    # Every pair is a through string; the matching must be rotationally
    # consistent with the two circles traversed in opposite orientations.
    k = len(outer)
    if k != len(inner):
        return False
    for j0 in range(k):
        if all(pairs[outer[j]] == inner[(j0 - j) % k] for j in range(k)):
            return True
    return False


def _involutions(size):
    """Fixed-point-free involutions of [size] as match tuples, lexicographic."""

    def rec(free):
        if not free:
            yield []
            return
        i = free[0]
        for j in free[1:]:
            rest = [a for a in free[1:] if a != j]
            for tail in rec(rest):
                yield [(i, j)] + tail

    for pairing in rec(list(range(1, size + 1))):
        match = [0] * (size + 1)
        for a, b in pairing:
            match[a], match[b] = b, a
        yield tuple(match)


@lru_cache(maxsize=None)
def _enumerate_nc2_cached(m, n):
    size = m + n
    if size % 2:
        return ()
    out = []
    for match in _involutions(size):
        # involutions by construction; a through string makes the action
        # transitive, which the genus count needs
        if max(match[1 : m + 1]) > m and _genus_zero(match, (m, n)):
            out.append(AnnularPairing(m, n, match))
    out.sort(key=lambda p: p.match)
    return tuple(out)


def enumerate_nc2(m, n):
    """All annular non-crossing pairings of the (m, n)-annulus.

    Empty when m+n is odd.  Brute force over involutions; capped at
    DEFAULT_SIZE_LIMIT total points.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if m + n > DEFAULT_SIZE_LIMIT:
        raise ValueError(
            "m+n=%d exceeds enumeration cap %d" % (m + n, DEFAULT_SIZE_LIMIT)
        )
    return list(_enumerate_nc2_cached(m, n))


def filter_by_through(pairings, l):
    """Pairings with exactly l through strings."""
    return [p for p in pairings if p.through_count == l]


def kreweras(pairing):
    """The Kreweras complement K(sigma) = sigma * gamma, i.e. i -> sigma(gamma(i))."""
    mapping = _kreweras_map(pairing.match, (pairing.m, pairing.n))
    return CyclePermutation(pairing.size, mapping)


def through_cycles(kperm, m, n):
    """Cycles of K(sigma) meeting both circles, split as (outer part, inner part).

    Each through cycle of a Kreweras complement of an annular non-crossing
    pairing consists of a contiguous run of outer positions followed by a
    contiguous run of inner positions (up to rotation of the cycle).
    """
    out = []
    for cyc in kperm.cycles:
        # an outer run starts where an outer position follows an inner one
        starts = [r for r in range(len(cyc)) if cyc[r] <= m < cyc[r - 1]]
        if not starts:
            continue
        if len(starts) > 1:
            raise ValueError("through cycle is not split into two arcs: %r" % (cyc,))
        rot = cyc[starts[0]:] + cyc[:starts[0]]
        split = sum(i <= m for i in cyc)
        out.append((rot[:split], rot[split:]))
    return out


def is_non_mixing(pairing, labels, strict_through_same=False):
    """True iff each pair of sigma joins positions with the same label.

    ``labels[i-1]`` is the Wigner id at position i.  With
    ``strict_through_same`` every position on a through string must in
    addition carry one common label.
    """
    if len(labels) != pairing.size:
        raise ValueError("labels must have length m+n")
    for i, j in pairing.pairs():
        if labels[i - 1] != labels[j - 1]:
            return False
    if strict_through_same:
        through = pairing.through_strings()
        lab = {labels[i - 1] for pair in through for i in pair}
        if len(lab) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def _enumerate_nc2_disc_cached(k):
    if k % 2:
        return ()
    if k == 0:
        return (tuple([0]),)
    # the genus count of is_annular_noncrossing with one circle
    return tuple(match for match in _involutions(k) if _genus_zero(match, (k,)))


def enumerate_nc2_disc(k):
    """Non-crossing pairings of a single k-cycle (Catalan(k/2) of them)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > DEFAULT_SIZE_LIMIT:
        raise ValueError("k=%d exceeds enumeration cap %d" % (k, DEFAULT_SIZE_LIMIT))
    return list(_enumerate_nc2_disc_cached(k))


def disc_kreweras(match, k):
    """Kreweras complement on the disc: i -> sigma(i+1) with gamma = (1..k)."""
    return CyclePermutation(k, _kreweras_map(match, (k,)))
