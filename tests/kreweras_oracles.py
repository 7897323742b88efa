"""A Kreweras helper that only the tests call, as a reference oracle.

``through_cycles`` splits the through cycles of a Kreweras permutation; the
tests check the cycle and split tables each pairing carries against it.
"""

from wignerfluct.annular import _through_split


def through_cycles(kperm, m, n):
    """Cycles of K(sigma) meeting both circles, split as (outer part, inner part).

    Each through cycle of a Kreweras complement of an annular non-crossing
    pairing consists of a contiguous run of outer positions followed by a
    contiguous run of inner positions (up to rotation of the cycle).
    """
    splits = (_through_split(cyc, m) for cyc in kperm.cycles)
    return [s for s in splits if s is not None]
