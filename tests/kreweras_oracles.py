"""Kreweras helpers that only the tests call, as reference oracles.

``disc_kreweras`` builds the disc complement from the match alone, and
``through_cycles`` splits the through cycles of a Kreweras permutation; the
tests check the cycle and split tables each pairing carries against them.
"""

from wignerfluct.annular import CyclePermutation, _kreweras_map, _through_split


def through_cycles(kperm, m, n):
    """Cycles of K(sigma) meeting both circles, split as (outer part, inner part).

    Each through cycle of a Kreweras complement of an annular non-crossing
    pairing consists of a contiguous run of outer positions followed by a
    contiguous run of inner positions (up to rotation of the cycle).
    """
    splits = (_through_split(cyc, m) for cyc in kperm.cycles)
    return [s for s in splits if s is not None]


def disc_kreweras(match, k):
    """Kreweras complement on the disc: i -> sigma(i+1) with gamma = (1..k)."""
    return CyclePermutation(k, _kreweras_map(match, (k,)))
