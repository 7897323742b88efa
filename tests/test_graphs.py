import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wignerfluct.ensembles import goe_law, gue_law, rademacher_law, solve_law
from wignerfluct import graphs
from wignerfluct.graphs import (
    Edge,
    LabeledGraph,
    a_components,
    bridges,
    build_cycle_graph,
    classify,
    even_partitions,
    exact_moment,
    exact_tau2,
    gdc,
    injective_trace,
    leaf_count,
    omega_X,
    quotient,
    set_partitions,
    tecc_forest,
)
from wignerfluct.states import (
    DetFamily,
    FiniteNState,
    circulant,
    diagonal_pattern,
    random_fixed,
)
from wignerfluct.words import parse_word


def graph_trace(graph, family):
    """Unrestricted trace: sum over all vertex labelings of the A-entry product."""
    return graphs._triples_trace(graph.vertices, graphs._a_triples(graph, family), family.N)


def small_family(n=3):
    a = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 1.0], [3.0, 0.0, 1.0]])[:n, :n]
    return DetFamily([a])


def test_build_cycle_graph_shape():
    p = parse_word("x1 a0 x2 a0")
    g = build_cycle_graph([p])
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    kinds = sorted(e.kind for e in g.edges)
    assert kinds == ["a", "a", "x", "x"]
    # the A-edge after letter k runs from (j,k+1,0) back to (j,k,1)
    aes = [e for e in g.edges if e.kind == "a"]
    assert (aes[0].src, aes[0].trg) == ((0, 2, 0), (0, 1, 1))
    assert (aes[1].src, aes[1].trg) == ((0, 1, 0), (0, 2, 1))


def test_build_cycle_graph_rejects_scalars():
    with pytest.raises(ValueError):
        build_cycle_graph([parse_word("a0")])


def test_set_partitions_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        assert sum(1 for _ in set_partitions(range(n))) == bell


def test_quotient_checks_cover():
    g = build_cycle_graph([parse_word("x1 a0")])
    with pytest.raises(ValueError):
        quotient(g, ((g.vertices[0],),))
    q = quotient(g, (tuple(g.vertices),))
    assert q.vertices == (0,)
    assert all(e.src == e.trg == 0 for e in q.edges)


def test_bridges_and_tecc():
    # two triangles joined by one edge: that edge is the only bridge
    verts = list(range(6))
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    cut = bridges(verts, pairs)
    assert cut == [6]
    comps, forest = tecc_forest(verts, pairs)
    assert len(comps) == 2
    assert len(forest) == 1
    assert leaf_count(verts, pairs) == 2


def test_parallel_edges_not_bridges():
    verts = [0, 1]
    assert bridges(verts, [(0, 1), (0, 1)]) == []
    assert bridges(verts, [(0, 1)]) == [0]
    # a single doubled edge is one two-edge-connected component: two leaves
    assert leaf_count(verts, [(0, 1), (0, 1)]) == 2
    # path of three vertices: forest is a path, two leaves
    assert leaf_count([0, 1, 2], [(0, 1), (1, 2)]) == 2


def test_leaf_count_star():
    # star with three spokes: three leaf components plus the center
    verts = [0, 1, 2, 3]
    pairs = [(0, 1), (0, 2), (0, 3)]
    assert leaf_count(verts, pairs) == 3


def test_gdc_links_each_vertex_to_its_component():
    g = build_cycle_graph([parse_word("x1 a0 x1 a0")])
    # identify the two X-edges pairwise: (1,1)~(2,0) and (1,0)~(2,1)
    part = (((0, 1, 1), (0, 2, 0)), ((0, 1, 0), (0, 2, 1)))
    q = quotient(g, part)
    verts, pairs, comps = gdc(q)
    assert len(a_components(q)) == len(comps)
    links = [(u, c) for u, c in pairs if c in verts[len(q.vertices):]]
    assert sorted(u for u, _ in links) == sorted(q.vertices)
    assert all(u in comps[c[1]] for u, c in links)


def test_classify_double_tree():
    g = build_cycle_graph([parse_word("x1 a0 x1 a0")])
    part = (((0, 1, 1), (0, 2, 0)), ((0, 1, 0), (0, 2, 1)))
    rep = classify(quotient(g, part))
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.kind == "double_tree"
    assert comp.x_multiplicities == (2,)
    assert rep.q == comp.q1 + comp.q2 + comp.q2p
    # a double tree has q = 0 at first order but the report q uses the
    # fluctuation normalization; just check internal consistency here
    assert rep.q == -Fraction(rep.m_x, 2) + Fraction(rep.f_leaves, 2)


def test_q_identity_over_partitions():
    g = build_cycle_graph([parse_word("x1 a0 x1"), parse_word("x1 a0 x1")])
    for part in set_partitions(g.vertices):
        rep = classify(quotient(g, part))
        assert rep.q == -Fraction(rep.m_x, 2) + Fraction(rep.f_leaves, 2)


def test_omega_x_simple_group():
    g = build_cycle_graph([parse_word("x1 x1")])
    part = (((0, 1, 0), (0, 2, 1)), ((0, 1, 1), (0, 2, 0)))
    q = quotient(g, part)
    # two X-edges on one vertex pair, opposite orientation: E|x|^2 = 1
    assert omega_X(q, {"1": gue_law()}) == 1
    # same orientation after full collapse: diagonal moment
    qq = quotient(g, ((g.vertices[0], g.vertices[1], g.vertices[2], g.vertices[3]),))
    assert omega_X(qq, {"1": gue_law()}) == 1  # E[d^2] for GUE diag


def test_omega_x_order_two_needs_two_cycles():
    for words in (["x1 x1"], ["x1 x1", "x1", "x1"]):
        g = build_cycle_graph([parse_word(w) for w in words])
        q = quotient(g, (tuple(g.vertices),))
        with pytest.raises(ValueError):
            omega_X(q, {"1": gue_law()}, order=2)


def test_omega_x_order_two_centers():
    # a disconnected union of two single-X cycles has centered weight 0
    g = build_cycle_graph([parse_word("x1 x1"), parse_word("x1 x1")])
    part = tuple((v,) for v in g.vertices)
    q = quotient(g, part)
    assert omega_X(q, {"1": gue_law()}, order=2) == 0


def test_graph_trace_is_trace():
    fam = small_family()
    g = build_cycle_graph([parse_word("x1 a0")])
    part = ((g.vertices[0], g.vertices[1]),)  # collapse to one vertex, A-loop
    q = quotient(g, part)
    got = graph_trace(q, fam)
    assert got == pytest.approx(np.trace(fam.matrices[0]))


def test_injective_trace_loop_and_edge():
    fam = small_family()
    a = fam.matrices[0]
    loop = LabeledGraph((0,), (Edge(0, 0, "a", parse_word("x1 a0").det_letters[0], 0),), 1)
    assert injective_trace(loop, fam) == pytest.approx(np.trace(a))
    letter = parse_word("x1 a0").det_letters[0]
    edge = LabeledGraph((0, 1), (Edge(0, 1, "a", letter, 0),), 1)
    # injective sum over i != j of a[j, i]
    want = a.sum() - np.trace(a)
    assert injective_trace(edge, fam) == pytest.approx(want)


def _direct_injective_trace(graph, family):
    """injective_trace by enumerating the injective labelings themselves."""
    order = sorted(graph.vertices, key=repr)
    idx = {v: i for i, v in enumerate(order)}
    mats = [
        (family.letter_matrix(e.label), idx[e.trg], idx[e.src])
        for e in graph.edges
        if e.kind == "a"
    ]
    total = 0.0 + 0.0j
    for psi in itertools.permutations(range(family.N), len(order)):
        term = 1.0 + 0.0j
        for m, t, s in mats:
            term *= m[psi[t], psi[s]]
            if term == 0:
                break
        total += term
    return total


def test_injective_trace_methods_agree():
    fam = small_family()
    letter = parse_word("x1 a0").det_letters[0]
    g = LabeledGraph(
        (0, 1, 2),
        (Edge(0, 1, "a", letter, 0), Edge(1, 2, "a", letter, 0), Edge(2, 0, "a", letter, 0)),
        1,
    )
    assert injective_trace(g, fam) == pytest.approx(_direct_injective_trace(g, fam))
    # two edges out of one vertex: column sums of A, which its transpose would
    # turn into row sums
    star = LabeledGraph((0, 1, 2), (Edge(0, 1, "a", letter, 0), Edge(0, 2, "a", letter, 0)), 1)
    assert injective_trace(star, fam) == pytest.approx(_direct_injective_trace(star, fam))
    # an isolated vertex beside the A-support
    g4 = LabeledGraph((0, 1, 2, 3), g.edges, 1)
    four = DetFamily([np.arange(16.0).reshape(4, 4)])
    assert injective_trace(g4, four) == pytest.approx(_direct_injective_trace(g4, four))


def test_injective_trace_isolated_vertices():
    fam = small_family()
    g = LabeledGraph((0, 1, 2), (), 1)
    # pure counting: 3 * 2 * 1 injective labelings into N = 3
    assert injective_trace(g, fam) == pytest.approx(6.0)
    big = LabeledGraph(tuple(range(5)), (), 1)
    assert injective_trace(big, fam) == 0


def test_partition_sum_of_injective_traces_is_full_trace():
    fam = small_family()
    letter = parse_word("x1 a0").det_letters[0]
    g = LabeledGraph(
        (0, 1), (Edge(0, 1, "a", letter, 0), Edge(1, 0, "a", letter, 0)), 1
    )
    total = 0j
    for part in set_partitions(g.vertices):
        total += injective_trace(quotient(g, part), fam)
    assert total == pytest.approx(graph_trace(g, fam))


def test_exact_second_moment_identity_family():
    # E[Tr X^2] = N - 1 + eta
    fam = DetFamily([np.eye(4)])
    g = build_cycle_graph([parse_word("x1 x1")])
    for law, eta in [(gue_law(), 1), (goe_law(), 2), (rademacher_law(), 1)]:
        got = exact_moment(g, fam, {"1": law})
        assert got == pytest.approx(4 - 1 + eta), law


def test_exact_tau2_degree_one():
    # Var Tr X = eta exactly at every N
    fam = DetFamily([np.eye(5)])
    x = parse_word("x1")
    for law, eta in [(gue_law(), 1), (goe_law(), 2), (rademacher_law(), 1)]:
        got = exact_tau2(x, x, fam, {"1": law})
        assert got == pytest.approx(eta), law


def test_exact_tau2_matches_limit_trend():
    # |tau2_N - tau2_infty| for (x^2, x^2) behaves like C / N; check the
    # exact values against the known limit 2 + 2 k4 + 2 theta^2
    from wignerfluct.covariance import phi2, WignerParams

    theta, eta, k4 = Fraction(1, 2), Fraction(2), Fraction(1)
    law = solve_law(theta, eta, k4)
    par = WignerParams(float(theta), float(eta), float(k4))
    xx = parse_word("x1 x1")
    limit = phi2(xx, xx, {"1": par}, FiniteNState(DetFamily([np.eye(2)])))
    errs = []
    for n in (6, 12):
        fam = DetFamily([np.eye(n)])
        got = exact_tau2(xx, xx, fam, {"1": law})
        errs.append(abs(got - limit))
    assert errs[1] < errs[0]
    assert errs[1] == pytest.approx(errs[0] / 2, rel=1e-9)


def test_exact_moment_caps():
    fam = DetFamily([np.eye(20)])
    g = build_cycle_graph([parse_word("x1 x1")])
    with pytest.raises(ValueError):
        exact_moment(g, fam, {"1": gue_law()})
    g6 = build_cycle_graph([parse_word("x1 " * 6)])
    with pytest.raises(ValueError):
        exact_moment(g6, DetFamily([np.eye(3)]), {"1": gue_law()})


def _block_of(part):
    return {v: b for b, blk in enumerate(part) for v in blk}


def _all_groups_even(graph, part):
    block = _block_of(part)
    sizes = Counter(
        (frozenset((block[e.src], block[e.trg])), e.label)
        for e in graph.edges
        if e.kind == "x"
    )
    return all(c % 2 == 0 for c in sizes.values())


def _labelled_words(degrees, ids):
    """Every assignment of Wigner ids to the letters of words of these degrees."""
    total = sum(degrees)
    for labels in itertools.product(ids, repeat=total):
        it = iter(labels)
        yield [parse_word(" ".join("x%s" % next(it) for _ in range(d))) for d in degrees]


CYCLE_SHAPES = [(1,), (2,), (1, 1), (3,), (1, 2), (4,), (2, 2), (1, 3), (3, 1), (2, 3)]


@pytest.mark.parametrize("degrees", CYCLE_SHAPES, ids=str)
def test_even_partitions_match_filtered_full_walk(degrees):
    ids = ("1",) if sum(degrees) == 5 else ("1", "2")
    for words in _labelled_words(degrees, ids):
        g = build_cycle_graph(words)
        want = [
            (tuple(_block_of(part)[v] for v in g.vertices), part)
            for part in set_partitions(g.vertices)
            if _all_groups_even(g, part)
        ]
        assert list(even_partitions(g)) == want, [str(w) for w in words]


def test_even_partitions_of_no_vertices():
    assert list(even_partitions(LabeledGraph((), (), 0))) == [((), ())]


def _exact_moment_full_walk(graph, family, laws):
    """exact_moment as it was before the parity pruning: every partition."""
    m_x = sum(1 for e in graph.edges if e.kind == "x")
    vals = []
    for part in set_partitions(graph.vertices):
        q = quotient(graph, part)
        r = graphs._r_expect([e for e in q.edges if e.kind == "x"], laws)
        if r == 0:
            continue
        tr0 = injective_trace(q, family)
        if tr0 == 0:
            continue
        vals.append(float(r) * tr0 / family.N ** (m_x // 2))
    return complex(
        math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals)
    )


ORACLE_LAWS = {
    "gue": gue_law(),
    "goe": goe_law(),
    "rademacher": rademacher_law(),
    "designed": solve_law(Fraction(1, 2), Fraction(1), Fraction(1)),
    "skew": solve_law(Fraction(-1, 3), Fraction(0), Fraction(5, 7)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_LAWS))
def test_exact_moment_equals_full_walk(name):
    law = ORACLE_LAWS[name]
    n = 5
    # a banded circulant: with a pure shift most of these moments are 0
    fam = DetFamily([diagonal_pattern(n, [1, -0.5, 2]), circulant(n, [0.5, 1, 0, 0.25])])
    laws = {"1": law, "2": law}
    for words in (
        ["x1 a0 x1 a1", "x1 a0 x1 a1"],
        ["x1 a0 x2 a1", "x2 a1 x1 a0"],
        ["x1 a0", "x1 a1 x1 a0 x1"],
        ["x1 a1 x1 a0 x1 a1 x1 a0"],
    ):
        g = build_cycle_graph([parse_word(w) for w in words])
        assert exact_moment(g, fam, laws) == _exact_moment_full_walk(g, fam, laws), words


def test_exact_moment_does_not_walk_all_vertex_partitions(monkeypatch):
    seen = []
    full = graphs.set_partitions

    def recording(items):
        items = list(items)
        seen.append(items)
        return full(items)

    monkeypatch.setattr(graphs, "set_partitions", recording)
    g = build_cycle_graph([parse_word("x1 a0 x1 a1"), parse_word("x1 a0 x1 a1")])
    fam = DetFamily([diagonal_pattern(4, [1, -1]), circulant(4, [0, 1])])
    assert exact_moment(g, fam, {"1": goe_law()}) != 0
    # the injective traces still partition the support of each quotient
    assert seen
    assert list(g.vertices) not in seen


def test_exact_tau2_of_a_constant_trace_is_zero():
    fam = DetFamily([diagonal_pattern(4, [1, -1])])
    laws = {"1": goe_law()}
    xx = parse_word("x1 a0 x1")
    assert exact_tau2(parse_word("a0"), xx, fam, laws) == 0j
    assert exact_tau2(xx, parse_word("1"), fam, laws) == 0j


def test_exact_tau2_walks_the_partitions_once(monkeypatch):
    calls = []
    walk = graphs.even_partitions

    def recording(graph):
        calls.append(len(graph.vertices))
        return walk(graph)

    monkeypatch.setattr(graphs, "even_partitions", recording)
    fam = DetFamily([diagonal_pattern(4, [1, -1]), circulant(4, [0.5, 1])])
    p = parse_word("x1 a0 x1 a1")
    assert exact_tau2(p, p, fam, {"1": goe_law()}) != 0
    assert calls == [8]


def test_exact_tau2_builds_each_letter_once_per_injective_trace(monkeypatch):
    # the criterion-8 pair: each injective trace builds the dense matrix of
    # each of its letters once, not once per A-edge of each partition
    n = 8
    fam = DetFamily([diagonal_pattern(n, [1, -1]), circulant(n, [0, 1])])
    asked = []
    letter_matrix = fam.letter_matrix
    fam.letter_matrix = lambda letter: asked[-1].append(letter) or letter_matrix(letter)
    trace = graphs.injective_trace

    def recording(graph, family):
        asked.append([])
        return trace(graph, family)

    monkeypatch.setattr(graphs, "injective_trace", recording)
    p = parse_word("x1 a0 x1 a1")
    assert exact_tau2(p, p, fam, {"1": goe_law()}) != 0
    assert asked and all(len(letters) == len(set(letters)) for letters in asked)


@st.composite
def _words(draw, ids):
    """One word of degree >= 1: Wigner letters, each followed by 0-2 A-letters."""
    degree = draw(st.integers(1, 3))
    tokens = []
    for _ in range(degree):
        tokens.append("x" + draw(st.sampled_from(ids)))
        tokens += draw(st.lists(st.sampled_from(["a0", "a1", "a2", "a2*", "a1t"]), max_size=2))
    return parse_word(" ".join(tokens))


@st.composite
def _tau2_cases(draw):
    ids = draw(st.sampled_from([("1",), ("1", "2")]))
    p = draw(_words(ids))
    q = draw(_words(ids))
    assume(p.degree + q.degree <= 4)
    laws = {
        wid: draw(st.one_of(st.sampled_from(sorted(ORACLE_LAWS)), st.none()))
        for wid in ids
    }
    for wid, name in laws.items():
        if name is None:
            theta = draw(st.fractions(-1, 1, max_denominator=6))
            eta = draw(st.fractions(0, 3, max_denominator=6))
            excess = draw(st.fractions(0, 2, max_denominator=6))
            laws[wid] = solve_law(theta, eta, -1 - theta * theta + excess)
        else:
            laws[wid] = ORACLE_LAWS[name]
    n = draw(st.integers(2, 6))
    fam = DetFamily(
        [
            diagonal_pattern(n, [1, -0.5, 2]),
            circulant(n, [0.5, 1, 0, 0.25][:n]),
            random_fixed(n, draw(st.integers(0, 9))),
        ]
    )
    return p, q, fam, laws


@given(case=_tau2_cases())
@settings(max_examples=40, deadline=None)
def test_exact_tau2_equals_moment_difference(case):
    # the centered walk against E[Tr P Tr Q] - E[Tr P] E[Tr Q], three walks
    p, q, fam, laws = case
    ref = exact_moment(build_cycle_graph([p, q]), fam, laws) - exact_moment(
        build_cycle_graph([p]), fam, laws
    ) * exact_moment(build_cycle_graph([q]), fam, laws)
    got = exact_tau2(p, q, fam, laws)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (str(p), str(q))


def _omega_x2_subset_sum(graph, laws):
    """The order-2 weight as the alternating sum over subsets of the cycles."""
    x_edges = [e for e in graph.edges if e.kind == "x"]
    n = graph.n_cycles
    by_cycle = [[e for e in x_edges if e.cycle == j] for j in range(n)]
    total = Fraction(0)
    for mask in range(1 << n):
        inside = [e for j in range(n) if mask >> j & 1 for e in by_cycle[j]]
        term = graphs._r_expect(inside, laws)
        for j in range(n):
            if not mask >> j & 1:
                term *= -graphs._r_expect(by_cycle[j], laws)
        total += term
    return total


@st.composite
def _two_word_quotients(draw):
    """A quotient of a random two-word joint graph, with laws from ORACLE_LAWS.

    Half the partitions are drawn from the even ones, whose weights are the
    nonzero terms of the walk; the rest are arbitrary restricted growth
    strings.
    """
    ids = draw(st.sampled_from([("1",), ("1", "2")]))
    p = draw(_words(ids))
    q = draw(_words(ids))
    assume(p.degree + q.degree <= 4)
    g = build_cycle_graph([p, q])
    even = list(even_partitions(g))
    if even and draw(st.booleans()):
        _, part = draw(st.sampled_from(even))
    else:
        blocks = []
        for v in g.vertices:
            b = draw(st.integers(0, len(blocks)))
            if b == len(blocks):
                blocks.append([])
            blocks[b].append(v)
        part = tuple(tuple(blk) for blk in blocks)
    laws = {wid: ORACLE_LAWS[draw(st.sampled_from(sorted(ORACLE_LAWS)))] for wid in ids}
    return quotient(g, part), laws


@given(case=_two_word_quotients())
@settings(max_examples=150, deadline=None)
def test_omega_x_order_two_equals_subset_sum(case):
    q, laws = case
    assert omega_X(q, laws, 2) == _omega_x2_subset_sum(q, laws)
