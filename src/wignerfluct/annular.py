"""Non-crossing pairings on an (m, n)-annulus and their Kreweras complements.

Positions are 1-based: 1..m sit on the outer circle, m+1..m+n on the inner
circle.  A pairing is stored as a fixed-point-free involution ``match`` with
``match[i] = j`` iff {i, j} is a pair (index 0 of the array is unused).
Every permutation is such a point-map tuple; ``CyclePermutation`` only wraps
one for the public return values of ``gamma`` and ``kreweras``.

The pairings are built, not searched for (Mingo-Nica, IMRN 2004).  One
with l >= 1 through strings puts l spoke endpoints on each circle, leaves
an even gap between consecutive endpoints, pairs each gap non-crossingly
as a line, and joins the spokes in one of l rotations with the circles in
opposite orientations.  ``pairing_table`` generates all pairings of one
annulus and their distinct Kreweras cycles, with the through split of
each, in array passes, once per process; the sums over pairings read only
it.  An ``AnnularPairing`` computes its own cycles, for the single-pairing
API and as the tests' oracle.  The brute-force sweep over involutions with
the genus count is kept only as a test oracle.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product

import numpy as np

DEFAULT_SIZE_LIMIT = 18


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
        return tuple(_cycles(_kreweras_map(self.match, (self.m, self.n))))

    @cached_property
    def through_splits(self):
        """Each Kreweras cycle's (outer, inner) split, or None on one circle."""
        return tuple([_through_split(c, self.m) for c in self.kreweras_cycles])

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
    transitive.
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


def _circle_fillings(points, l, size):
    """Spoke endpoints and gap pairings of one circle with l spokes, as arrays.

    ``points`` are the circle's positions in cyclic order.  Row k of the
    first array holds one filling's l endpoints in increasing order, with an
    even gap between each two cyclically consecutive ones; row k of the
    second its point map (length size + 1, 0 off the gaps), which pairs each
    gap non-crossingly as a line.
    """
    c = len(points)
    ends, maps = [], []
    for at in combinations(range(c), l):
        gaps = [range(at[i] + 1, at[i + 1]) for i in range(l - 1)]
        gaps.append(range(at[-1] + 1, at[0] + c))
        if any(len(g) % 2 for g in gaps):
            continue
        for choice in product(*(_line_pairings(len(g)) for g in gaps)):
            partial = [0] * (size + 1)
            for gap, pairs in zip(gaps, choice):
                for a, b in pairs:
                    u, v = points[gap[a] % c], points[gap[b] % c]
                    partial[u], partial[v] = v, u
            ends.append([points[e] for e in at])
            maps.append(partial)
    return (np.array(ends, dtype=np.int8).reshape(-1, l),
            np.array(maps, dtype=np.int8).reshape(-1, size + 1))


def _nc2_matches(m, n):
    """The match rows of the (m, n)-annulus, an int8 array sorted as lists sort."""
    size = m + n
    parts = [np.zeros((0, size + 1), dtype=np.int8)]
    # m - l and n - l are even; m + n is even, so m % 2 fixes the parity
    for l in range(2 - m % 2, min(m, n) + 1, 2) if size % 2 == 0 else ():
        (out_ends, out_maps), (in_ends, in_maps) = [
            _circle_fillings(range(a, b), l, size) for a, b in ((1, m + 1), (m + 1, size + 1))
        ]
        # each outer filling with each inner one, its spokes in each of l rotations
        o, i, r = [g.ravel() for g in np.indices((len(out_ends), len(in_ends), l))]
        match = out_maps[o] + in_maps[i]
        rows = np.arange(len(match))
        for j in range(l):
            a, b = out_ends[o, j], in_ends[i, (r - j) % l]
            match[rows, a], match[rows, b] = b, a
        parts.append(match)
    match = np.concatenate(parts)
    return match[np.lexsort(match.T[:0:-1])]  # by column 1 first, then 2, ...


class PairingTable(namedtuple("PairingTable", "matches row_cycles through points outer")):
    """The pairings of one annulus as arrays.

    Row r is the r-th pairing by match: ``matches`` (int8), ``row_cycles[r]``
    its Kreweras cycles by increasing minimum, as indices of the distinct
    cycles, and ``through[r, i - 1]`` whether outer position i ends a
    through string.  ``points[c]`` holds cycle c's points, 0-padded, as its
    split reads them: a through cycle's outer arc, its first ``outer[c]``
    points, then its inner arc; any other cycle from its minimum, with
    ``outer[c]`` 0.
    """


def first_appearance(codes):
    """(first, inverse): where each distinct code first appears, in that order,
    and the place in ``first`` of each code.

    Stable sorts only: np.unique's sort kernels add 0.6 MB of resident code.
    """
    order = np.argsort(codes, kind="stable")
    head = np.ones(len(codes), dtype=bool)
    head[1:] = codes[order[1:]] != codes[order[:-1]]
    first = order[head]  # by code
    by_place = np.argsort(first, kind="stable")
    rank = np.empty(len(first), dtype=np.intp)
    rank[by_place] = np.arange(len(first))
    inverse = np.empty(len(codes), dtype=np.intp)
    inverse[order] = rank[np.cumsum(head) - 1]
    return first[by_place], inverse


@lru_cache(maxsize=None)
def pairing_table(m, n):
    """The ``PairingTable`` of the (m, n)-annulus, for m, n >= 1.

    The rows come from ``_nc2_matches``.  Then array passes over all rows:
    each point's orbit minimum under sigma * gamma by pointer doubling, then
    each cycle walked from its minimum into one integer of 5-bit point
    digits (a genus-0 cycle has at most size / 2 + 1 <= 10 points, each
    below 32), and the integers deduplicated by ``first_appearance``.
    """
    size = m + n
    if size > DEFAULT_SIZE_LIMIT:
        raise ValueError("m+n=%d exceeds enumeration cap %d" % (size, DEFAULT_SIZE_LIMIT))
    match = _nc2_matches(m, n)
    gam, code = _gamma_map((m, n)), [np.zeros(0, dtype=np.uint64)]
    # chunks of 10**4 points: no temporary reaches malloc's mmap threshold
    for part in np.array_split(match, -(-match.size // 10**4)) if len(match) else ():
        # flat index of each point's successor i -> match[gamma(i)]; 0 is fixed
        succ = (part[:, gam] + np.arange(0, part.size, size + 1, dtype=np.int32)[:, None]).ravel()
        point = np.tile(np.arange(size + 1, dtype=np.int8), len(part))
        low, step = point, succ
        for _ in range(size.bit_length()):
            low, step = np.minimum(low, low[step]), step[step]
        start = np.flatnonzero((low == point) & (point > 0))  # row by row
        code.append(np.zeros(len(start), dtype=np.uint64))
        live, at = np.arange(len(start)), start  # the cycles not yet back at their minimum
        for shift in range(0, 5 * (size // 2 + 1), 5):
            code[-1][live] |= point[at].astype(np.uint64) << np.uint64(shift)
            at = succ[at]
            on = at != start[live]
            live, at = live[on], at[on]
    code = np.concatenate(code)
    first, index = first_appearance(code)
    digits = ((code[first, None] >> np.arange(0, 55, 5, dtype=np.uint64)) & np.uint64(31))
    digits = digits.astype(np.int8)
    # a through cycle starts on the outer circle: inner from k, outer again from e;
    # read from e, it is its outer arc and then its inner arc
    inner = digits > m
    ks = inner.argmax(axis=1)
    es = (~inner & (np.arange(11) > ks[:, None])).argmax(axis=1)
    length = (digits > 0).sum(axis=1)
    start = np.where(ks > 0, es, 0)[:, None]
    points = np.take_along_axis(digits, (start + np.arange(11)) % length[:, None], 1)
    points[np.arange(11) >= length[:, None]] = 0
    outer = np.where(ks > 0, length - es + ks, 0).astype(np.int8)
    index = index.astype(np.min_scalar_type(len(first)))
    rows = index.reshape(len(match), -1 if len(match) else 0)
    return PairingTable(match, rows, match[:, 1:m + 1] > m, points, outer)


@lru_cache(maxsize=None)
def _enumerate_nc2_cached(m, n):
    return tuple([_built_pairing(m, n, tuple(p)) for p in pairing_table(m, n).matches.tolist()])


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
    return list(_enumerate_nc2_cached(m, n))


def filter_by_through(pairings, l):
    """Pairings with exactly l through strings."""
    return [p for p in pairings if p.through_count == l]


def kreweras(pairing):
    """The Kreweras complement K(sigma) = sigma * gamma, i.e. i -> sigma(gamma(i))."""
    mapping = _kreweras_map(pairing.match, (pairing.m, pairing.n))
    return CyclePermutation(pairing.size, mapping)


def _through_split(cyc, m):
    """(outer arc, inner arc) of a cycle meeting both circles, else None."""
    # a cycle starts at its minimum: it meets both circles iff that minimum
    # is outer and its maximum inner
    if not cyc[0] <= m < max(cyc):
        return None
    # outer, then inner from k, then outer again from e
    inner = [i > m for i in cyc] + [False]
    k = inner.index(True)
    e = inner.index(False, k)
    if True in inner[e:]:
        raise ValueError("through cycle is not split into two arcs: %r" % (cyc,))
    return cyc[e:] + cyc[:k], cyc[k:e]


def is_non_mixing(pairing, labels):
    """True iff each pair of sigma joins positions with the same label.

    ``labels[i-1]`` is the Wigner id at position i.
    """
    if len(labels) != pairing.size:
        raise ValueError("labels must have length m+n")
    return list(labels) == [labels[j - 1] for j in pairing.match[1:]]
