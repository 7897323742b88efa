import itertools

import pytest

from wignerfluct.annular import (
    AnnularPairing,
    CyclePermutation,
    _involutions,
    _through_pairs,
    disc_kreweras,
    enumerate_nc2,
    enumerate_nc2_disc,
    filter_by_through,
    gamma,
    is_annular_noncrossing,
    is_annular_noncrossing_recursive,
    is_non_mixing,
    kreweras,
    through_cycles,
)


def make_pairing(m, n, pairs):
    match = [0] * (m + n + 1)
    for a, b in pairs:
        match[a], match[b] = b, a
    return AnnularPairing(m, n, tuple(match))


def test_gamma_cycles():
    g = gamma(3, 2)
    assert g.cycles == [(1, 2, 3), (4, 5)]
    with pytest.raises(ValueError):
        gamma(0, 2)


def test_pairing_rejects_no_through_string():
    match = [0, 2, 1, 4, 3]
    with pytest.raises(ValueError):
        AnnularPairing(2, 2, tuple(match))


def test_pairing_rejects_crossing():
    # chord (1,3) traps point 2, whose through string must cross it
    match = (0, 3, 5, 1, 6, 2, 4)
    assert not is_annular_noncrossing(match, 4, 2)
    assert not is_annular_noncrossing_recursive(match, 4, 2)
    with pytest.raises(ValueError):
        AnnularPairing(4, 2, match)


def test_enumeration_counts_small():
    # frozen counts, cross-validated by two independent predicates below
    assert len(enumerate_nc2(1, 1)) == 1
    assert len(enumerate_nc2(2, 2)) == 2
    assert len(enumerate_nc2(4, 2)) == 8
    # (3,3): 3 rotations with three through strings plus 3*3 with one
    assert len(enumerate_nc2(3, 3)) == 12
    assert len(enumerate_nc2(4, 4)) == 36
    assert len(enumerate_nc2(6, 6)) == 600
    assert enumerate_nc2(2, 1) == []


def test_predicates_agree_exhaustively_small():
    for m, n in [(1, 1), (2, 2), (3, 1), (1, 3), (4, 2), (3, 3)]:
        for match in _involutions(m + n):
            if not _through_pairs(match, m, n):
                continue
            assert is_annular_noncrossing(match, m, n) == \
                is_annular_noncrossing_recursive(match, m, n)


def test_cycle_count_identity():
    for m, n in [(2, 2), (4, 2), (3, 3)]:
        for p in enumerate_nc2(m, n):
            k = kreweras(p)
            assert p.as_permutation().num_cycles + k.num_cycles == m + n


def test_filter_by_through_parity():
    for p in enumerate_nc2(4, 2):
        assert p.through_count % 2 == 0
    assert len(filter_by_through(enumerate_nc2(4, 2), 2)) > 0
    assert filter_by_through(enumerate_nc2(4, 2), 1) == []


def test_kreweras_figure_fixture():
    p = make_pairing(8, 4, [(1, 2), (3, 10), (4, 5), (6, 9), (7, 8), (11, 12)])
    k = kreweras(p)
    assert k.cycles == [(1,), (2, 10, 12, 6, 8), (3, 5, 9), (4,), (7,), (11,)]


def test_through_cycles_split():
    p = make_pairing(8, 4, [(1, 2), (3, 10), (4, 5), (6, 9), (7, 8), (11, 12)])
    k = kreweras(p)
    splits = through_cycles(k, 8, 4)
    assert ((6, 8, 2), (10, 12)) in splits
    assert ((3, 5), (9,)) in splits
    assert len(splits) == 2


def through_cycles_by_rotation(kperm, m, n):
    """Reference split: try every rotation of each cycle meeting both circles."""
    out = []
    for cyc in kperm.cycles:
        if all(i <= m for i in cyc) or all(i > m for i in cyc):
            continue
        for r in range(len(cyc)):
            rot = cyc[r:] + cyc[:r]
            flags = [i <= m for i in rot]
            if flags[0] and not flags[-1]:
                split = flags.index(False)
                if all(flags[:split]) and not any(flags[split:]):
                    out.append((rot[:split], rot[split:]))
                    break
        else:
            raise AssertionError("through cycle is not two arcs: %r" % (cyc,))
    return out


def test_through_cycles_match_rotation_search():
    for total in range(2, 13, 2):
        for m in range(1, total):
            n = total - m
            for p in enumerate_nc2(m, n):
                k = kreweras(p)
                assert through_cycles(k, m, n) == through_cycles_by_rotation(k, m, n)


def test_through_cycles_rejects_four_arcs():
    # the cycle (1 4 2 5) alternates between the circles of a (3, 3)-annulus
    k = CyclePermutation(6, (0, 4, 5, 3, 2, 1, 6))
    with pytest.raises(ValueError):
        through_cycles(k, 3, 3)


def test_non_mixing():
    p = make_pairing(2, 2, [(1, 3), (2, 4)])
    assert is_non_mixing(p, ["a", "b", "a", "b"])
    assert not is_non_mixing(p, ["a", "b", "b", "a"])
    assert not is_non_mixing(p, ["a", "b", "a", "b"], strict_through_same=True)
    assert is_non_mixing(p, ["a", "a", "a", "a"], strict_through_same=True)


def crosses(match, k):
    """Pairwise test: two chords {a, b}, {c, d} of a k-gon cross iff a < c < b < d."""
    pairs = [(i, match[i]) for i in range(1, k + 1) if i < match[i]]
    return any(
        a < c < b < d or c < a < d < b
        for (a, b), (c, d) in itertools.combinations(pairs, 2)
    )


def test_disc_enumeration_matches_crossing_test():
    for k in range(0, 13, 2):
        expected = [match for match in _involutions(k) if not crosses(match, k)]
        assert enumerate_nc2_disc(k) == expected


def test_disc_enumeration_catalan():
    assert len(enumerate_nc2_disc(2)) == 1
    assert len(enumerate_nc2_disc(4)) == 2
    assert len(enumerate_nc2_disc(6)) == 5
    assert len(enumerate_nc2_disc(8)) == 14
    assert enumerate_nc2_disc(3) == []


def test_disc_kreweras_nested_pair():
    # (1,4)(2,3) has complement cycles (1,3)(2)(4)
    match = (0, 4, 3, 2, 1)
    k = disc_kreweras(match, 4)
    assert k.cycles == [(1, 3), (2,), (4,)]
