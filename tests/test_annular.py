import functools
import itertools

import pytest

from wignerfluct.annular import (
    DEFAULT_SIZE_LIMIT,
    AnnularPairing,
    CyclePermutation,
    _genus_zero,
    _involutions,
    _through_pairs,
    disc_kreweras,
    disc_kreweras_cycles,
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


@functools.lru_cache(maxsize=None)
def involution_list(size):
    """The brute-force candidates, generated once per size for all tests."""
    return list(_involutions(size))


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


def test_enumeration_counts_large():
    assert len(enumerate_nc2(7, 7)) == 2800
    assert len(enumerate_nc2(8, 6)) == 2400
    assert len(enumerate_nc2(8, 8)) == 9800
    assert len(enumerate_nc2(9, 7)) == 11025
    assert len(enumerate_nc2(9, 9)) == 44100


def test_enumeration_cap():
    assert DEFAULT_SIZE_LIMIT == 18
    with pytest.raises(ValueError, match="m\\+n=20 exceeds enumeration cap 18"):
        enumerate_nc2(10, 10)
    with pytest.raises(ValueError, match="k=20 exceeds enumeration cap 18"):
        enumerate_nc2_disc(20)


def test_enumeration_matches_brute_force_filter():
    # the genus-count filter over all involutions, order included
    for size in range(2, 15):
        candidates = involution_list(size) if size % 2 == 0 else []
        for m in range(1, size):
            n = size - m
            expected = [
                match for match in candidates
                if max(match[1 : m + 1]) > m and _genus_zero(match, (m, n))
            ]
            assert [p.match for p in enumerate_nc2(m, n)] == expected, (m, n)


def test_generated_pairings_pass_both_predicates():
    # beyond the brute-force range: every generated pairing is annular
    # non-crossing, under the genus count and under the peeling predicate
    for m, n in [(8, 8), (9, 7), (15, 1), (9, 9)]:
        pairings = enumerate_nc2(m, n)
        assert len({p.match for p in pairings}) == len(pairings)
        for p in pairings[:: max(1, len(pairings) // 500)]:
            assert is_annular_noncrossing(p.match, m, n)
            assert is_annular_noncrossing_recursive(p.match, m, n)


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
    assert p.kreweras_cycles == tuple(k.cycles)
    assert p.through_splits == (((6, 8, 2), (10, 12)), ((3, 5), (9,)))
    assert p.through_count == 2


def test_pairing_tables_match_kreweras():
    for total in range(2, 13, 2):
        for m in range(1, total):
            n = total - m
            for p in enumerate_nc2(m, n):
                k = kreweras(p)
                assert p.kreweras_cycles == tuple(k.cycles)
                assert p.through_splits == tuple(through_cycles(k, m, n))
                # one through cycle of K(sigma) per through string of sigma
                assert p.through_count == len(p.through_splits)


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
    # the S3 channel also needs one label on all through strings
    for labels, count in ((["a", "b", "a", "b"], 2), (["a", "a", "a", "a"], 1)):
        assert is_non_mixing(p, labels)
        assert len({labels[i - 1] for i, _ in p.through_strings()}) == count


def crosses(match, k):
    """Pairwise test: two chords {a, b}, {c, d} of a k-gon cross iff a < c < b < d."""
    pairs = [(i, match[i]) for i in range(1, k + 1) if i < match[i]]
    return any(
        a < c < b < d or c < a < d < b
        for (a, b), (c, d) in itertools.combinations(pairs, 2)
    )


def test_disc_enumeration_matches_crossing_test():
    for k in range(0, 15, 2):
        expected = [match for match in involution_list(k) if not crosses(match, k)]
        assert enumerate_nc2_disc(k) == expected


def test_disc_enumeration_catalan():
    assert len(enumerate_nc2_disc(2)) == 1
    assert len(enumerate_nc2_disc(4)) == 2
    assert len(enumerate_nc2_disc(6)) == 5
    assert len(enumerate_nc2_disc(8)) == 14
    assert len(enumerate_nc2_disc(18)) == 4862
    assert enumerate_nc2_disc(3) == []


def test_disc_kreweras_nested_pair():
    # (1,4)(2,3) has complement cycles (1,3)(2)(4)
    match = (0, 4, 3, 2, 1)
    k = disc_kreweras(match, 4)
    assert k.cycles == [(1, 3), (2,), (4,)]


def test_disc_kreweras_cycles_match_disc_kreweras():
    for k in range(0, 11, 2):
        for match in enumerate_nc2_disc(k):
            assert disc_kreweras_cycles(match) == tuple(disc_kreweras(match, k).cycles)
