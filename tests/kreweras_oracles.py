"""Kreweras helpers that only the tests call, as reference oracles.

``through_cycles`` splits the through cycles of a Kreweras permutation;
``table_cycles`` and ``table_splits`` read a ``PairingTable``'s distinct
cycles back as tuples.  The tests check the cycle and split tables each
pairing carries against them.
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


def _read(table):
    return [tuple(filter(None, p)) for p in table.points.tolist()]


def table_cycles(table):
    """Each distinct cycle of ``table`` from its minimum."""
    cycles = _read(table)
    starts = [c.index(min(c)) for c in cycles]
    return tuple([c[k:] + c[:k] for c, k in zip(cycles, starts)])


def table_splits(table):
    """Each distinct cycle's (outer arc, inner arc) as ``table`` reads it, None on one circle."""
    return tuple([(c[:o], c[o:]) if o else None
                  for c, o in zip(_read(table), table.outer.tolist())])
