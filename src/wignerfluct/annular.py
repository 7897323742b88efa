"""Non-crossing pairings on an (m, n)-annulus and their Kreweras complements.

Positions are 1-based: 1..m sit on the outer circle, m+1..m+n on the inner
circle.  A pairing is stored as a fixed-point-free involution ``match`` with
``match[i] = j`` iff {i, j} is a pair (index 0 of the array is unused).
Every permutation is such a point-map tuple; ``CyclePermutation`` only wraps
one for the public return values of ``gamma`` and the Kreweras maps.

The pairings are built, not searched for (Mingo-Nica, IMRN 2004).  One
with l >= 1 through strings puts l spoke endpoints on each circle, leaves
an even gap between consecutive endpoints, pairs each gap non-crossingly
as a line, and joins the spokes in one of l rotations with the circles in
opposite orientations.  Each pairing carries its Kreweras cycles, through
splits and through count as tuples, computed once per process.  The
brute-force sweep over involutions with the genus count is kept only as a
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product

DEFAULT_SIZE_LIMIT = 18

# One shared copy of each Kreweras cycle: pairings of one annulus repeat
# most of their cycles, and each pairing keeps its cycles for the process.
_CYCLES = {}


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
    return (0,) + tuple([match[j] for j in _gamma_map(sizes)[1:]])


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
    """Cycles of a point map, each from its minimum, sorted by minimum."""
    left = list(mapping)  # a visited point is zeroed
    out = []
    for i in range(1, len(left)):
        j = left[i]
        if not j:
            continue
        cyc = [i]
        left[i] = 0
        while j != i:
            cyc.append(j)
            left[j], j = 0, left[j]
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

    @cached_property
    def through_count(self):
        return len(self.through_strings())

    @cached_property
    def kreweras_cycles(self):
        """The cycles of ``kreweras(self)``, as a tuple."""
        cycles = _cycles(_kreweras_map(self.match, (self.m, self.n)))
        return tuple([_CYCLES.setdefault(c, c) for c in cycles])

    @cached_property
    def through_splits(self):
        """``through_cycles(kreweras(self), m, n)``, as a tuple."""
        return tuple(_through_splits(self.kreweras_cycles, self.m))

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
def _line_pairings(k):
    """Non-crossing pairings of the points 0..k-1 of a line, as pair tuples.

    Point 0 pairs with some j; the points inside (1..j-1) and after
    (j+1..k-1) that pair are paired on their own.  Catalan(k/2) pairings,
    in lexicographic order of their match tuples.
    """
    if k % 2:
        return ()
    if k == 0:
        return ((),)
    out = []
    for j in range(1, k, 2):
        for inside in _line_pairings(j - 1):
            shifted = ((0, j),) + tuple((a + 1, b + 1) for a, b in inside)
            for after in _line_pairings(k - j - 1):
                out.append(shifted + tuple((a + j + 1, b + j + 1) for a, b in after))
    return tuple(out)


def _circle_fillings(points, l):
    """Spoke endpoints and gap pairings of one circle with l spokes.

    ``points`` are the circle's positions in cyclic order.  Yields
    (endpoints, partial): the l endpoints in increasing order, with an even
    gap between each two cyclically consecutive ones, and ``partial`` a
    point map {position: partner} pairing each gap non-crossingly as a line.
    """
    c = len(points)
    for ends in combinations(range(c), l):
        gaps = [range(ends[i] + 1, ends[i + 1]) for i in range(l - 1)]
        gaps.append(range(ends[-1] + 1, ends[0] + c))
        if any(len(g) % 2 for g in gaps):
            continue
        endpoints = tuple(points[e] for e in ends)
        for choice in product(*(_line_pairings(len(g)) for g in gaps)):
            partial = {}
            for gap, pairs in zip(gaps, choice):
                for a, b in pairs:
                    u, v = points[gap[a] % c], points[gap[b] % c]
                    partial[u], partial[v] = v, u
            yield endpoints, partial


@lru_cache(maxsize=None)
def _enumerate_nc2_cached(m, n):
    size = m + n
    if size % 2:
        return ()
    outer = range(1, m + 1)
    inner = range(m + 1, size + 1)
    matches = []
    # m - l and n - l are even; m + n is even, so m % 2 fixes the parity
    for l in range(2 - m % 2, min(m, n) + 1, 2):
        inner_fillings = list(_circle_fillings(inner, l))
        for out_ends, out_partial in _circle_fillings(outer, l):
            for in_ends, in_partial in inner_fillings:
                base = [0] * (size + 1)
                for u, v in out_partial.items():
                    base[u] = v
                for u, v in in_partial.items():
                    base[u] = v
                for r in range(l):
                    match = list(base)
                    for j, a in enumerate(out_ends):
                        b = in_ends[(r - j) % l]
                        match[a], match[b] = b, a
                    matches.append(tuple(match))
    matches.sort()
    return tuple(_built_pairing(m, n, match) for match in matches)


def _built_pairing(m, n, match):
    """An AnnularPairing the generator built, without the genus check.

    The tests compare every generated list with the brute-force filter.
    """
    pairing = object.__new__(AnnularPairing)
    pairing.__dict__.update(m=m, n=n, match=match)
    return pairing


def enumerate_nc2(m, n):
    """All annular non-crossing pairings of the (m, n)-annulus, sorted by match.

    Empty when m+n is odd.  Built spoke by spoke and gap by gap, so the
    cost grows with the number of pairings; capped at DEFAULT_SIZE_LIMIT
    total points.
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
    return list(_through_splits(kperm.cycles, m))


def _through_splits(cycles, m):
    # each cycle starts at its minimum and the cycles are sorted by it
    for cyc in cycles:
        if cyc[0] > m:
            break  # the rest lie on the inner circle
        if max(cyc) <= m:
            continue
        # outer, then inner from k, then outer again from e
        inner = [i > m for i in cyc] + [False]
        k = inner.index(True)
        e = inner.index(False, k)
        if True in inner[e:]:
            raise ValueError("through cycle is not split into two arcs: %r" % (cyc,))
        yield cyc[e:] + cyc[:k], cyc[k:e]


def is_non_mixing(pairing, labels):
    """True iff each pair of sigma joins positions with the same label.

    ``labels[i-1]`` is the Wigner id at position i.
    """
    if len(labels) != pairing.size:
        raise ValueError("labels must have length m+n")
    return list(labels) == [labels[j - 1] for j in pairing.match[1:]]


@lru_cache(maxsize=None)
def _enumerate_nc2_disc_cached(k):
    if k % 2:
        return ()
    out = []
    for pairs in _line_pairings(k):
        match = [0] * (k + 1)
        for a, b in pairs:
            match[a + 1], match[b + 1] = b + 1, a + 1
        out.append(tuple(match))
    return tuple(out)


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


@lru_cache(maxsize=None)
def disc_kreweras_cycles(match):
    """The cycles of ``disc_kreweras(match, k)`` as a tuple, once per pairing."""
    return tuple(_cycles(_kreweras_map(match, (len(match) - 1,))))
