"""Directed labeled graphs for the moment expansion of products of traces.

Each monomial trace Tr(x_{w1} a_1 ... x_{wp} a_p) is a directed 2p-cycle
alternating X-edges and A-edges.  Summing the expectation of the entry
product over all identification patterns (set partitions of the vertices)
gives the exact finite-N moment; the partition weight factorizes into a
Wigner part (mixed entry moments, grouped by identified vertex pairs) and
a deterministic part (injective graph trace).  The covariance is one walk
over the joint graph of both words with the centered (order-2) weight,
E[Tr P Tr Q] - E[Tr P] E[Tr Q] partition by partition; a degree-0 word
gives 0.  ``weighted_partitions`` yields the walk's nonzero terms, each
named by its restricted growth string, and these are also the rows of
``oracle --dump-partitions``.  The entry laws are symmetric, so only the
partitions whose X-edge groups all have even size are visited
(``even_partitions``); the caps on the vertex count and on N are those of
a full walk.  An injective trace is a Moebius sum over the partitions of
its A-support, and each term contracts the relabelled A-edges, given as
(src, trg, letter) triples, with one einsum per component.  The
topological helpers (bridges, two-edge-connected forests, graphs of
deterministic components) classify which partitions survive as N grows.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensembles import diagonal_moment, entry_moment


@dataclass(frozen=True)
class Edge:
    src: object
    trg: object
    kind: str  # "x" or "a"
    label: object  # Wigner id for X-edges, DetLetter for A-edges
    cycle: int  # index of the originating trace cycle

    def __post_init__(self):
        if self.kind not in ("x", "a"):
            raise ValueError("edge kind must be 'x' or 'a'")


@dataclass(frozen=True)
class LabeledGraph:
    vertices: tuple
    edges: tuple
    n_cycles: int


def build_cycle_graph(monomials):
    """Disjoint union of one directed 2p_j-cycle per degree-p_j monomial.

    Vertices are (j, k, 0) and the primed (j, k, 1) for k = 1..p_j.  The
    X-edge of letter k runs from (j,k,1) to (j,k,0); the A-edge runs from
    (j,k+1,0) (cyclically) to (j,k,1).
    """
    vertices = []
    edges = []
    for j, mono in enumerate(monomials):
        p = mono.degree
        if p == 0:
            raise ValueError("cycle graphs need monomials of degree >= 1")
        for k in range(1, p + 1):
            vertices.append((j, k, 0))
            vertices.append((j, k, 1))
        for k in range(1, p + 1):
            wid = mono.wigner_labels[k - 1]
            letter = mono.det_letters[k - 1]
            edges.append(Edge((j, k, 1), (j, k, 0), "x", wid, j))
            nxt = k + 1 if k < p else 1
            edges.append(Edge((j, nxt, 0), (j, k, 1), "a", letter, j))
    return LabeledGraph(tuple(vertices), tuple(edges), len(monomials))


def set_partitions(items):
    """All set partitions of a sequence, blocks in first-occurrence order."""
    items = list(items)
    if not items:
        yield ()
        return

    def rec(i, blocks):
        if i == len(items):
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([items[i]])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [[items[0]]])


def even_partitions(graph):
    """Vertex partitions whose X-edge groups all have even size, with their RGS.

    Yields ``(rgs, partition)``: ``rgs`` is the restricted growth string of
    the partition, the block index of each vertex in ``graph.vertices``
    order, and ``partition`` lists the blocks in first-occurrence order.
    The walk runs in lexicographic RGS order, which is the order of
    ``set_partitions(graph.vertices)``, and skips exactly the entries with
    an X-edge group (the X-edges on one unordered pair of blocks with one
    Wigner id) of odd size.  An X-edge is resolved when its later endpoint
    is placed.  A branch is cut as soon as, for some Wigner id, the odd
    groups outnumber the unresolved edges, since each remaining edge lands
    in one group.
    """
    verts = graph.vertices
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    ids = {}
    unresolved = []  # per Wigner id
    resolved_at = [[] for _ in range(n)]  # (earlier endpoint, id) per position
    for e in graph.edges:
        if e.kind != "x":
            continue
        w = ids.setdefault(e.label, len(ids))
        if w == len(unresolved):
            unresolved.append(0)
        unresolved[w] += 1
        lo, hi = sorted((pos[e.src], pos[e.trg]))
        resolved_at[hi].append((lo, w))
    if any(c % 2 for c in unresolved):
        return
    odd = [0] * len(unresolved)
    odd_groups = set()  # (block, block, id) of the groups of odd size so far
    block_of = [0] * n
    blocks = []

    def toggle(i, step):
        # moves the edges resolved at i into (step -1) or out of (+1) their
        # groups; flipping a group's parity twice restores it
        b = block_of[i]
        for lo, w in resolved_at[i]:
            c = block_of[lo]
            key = (c, b, w) if c <= b else (b, c, w)
            if key in odd_groups:
                odd_groups.remove(key)
                odd[w] -= 1
            else:
                odd_groups.add(key)
                odd[w] += 1
            unresolved[w] += step

    def rec(i):
        if i == n:
            yield tuple(block_of), tuple(tuple(blk) for blk in blocks)
            return
        v = verts[i]
        for b in range(len(blocks) + 1):
            if b == len(blocks):
                blocks.append([v])
            else:
                blocks[b].append(v)
            block_of[i] = b
            toggle(i, -1)
            if all(o <= u for o, u in zip(odd, unresolved)):
                yield from rec(i + 1)
            toggle(i, 1)
            blocks[b].pop()
            if not blocks[b]:
                blocks.pop()

    yield from rec(0)


def quotient(graph, partition):
    """Identify vertices within each block; block index becomes the vertex."""
    vmap = {}
    for b, block in enumerate(partition):
        for v in block:
            if v in vmap:
                raise ValueError("partition blocks overlap")
            vmap[v] = b
    if set(vmap) != set(graph.vertices):
        raise ValueError("partition does not cover the vertex set")
    edges = tuple(
        Edge(vmap[e.src], vmap[e.trg], e.kind, e.label, e.cycle) for e in graph.edges
    )
    return LabeledGraph(tuple(range(len(partition))), edges, graph.n_cycles)


# ---------------------------------------------------------------------------
# undirected multigraph helpers


def _components(vertices, pairs):
    """Connected components (list of frozensets) of an undirected edge list."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps = {}
    for v in vertices:
        comps.setdefault(find(v), set()).add(v)
    return [frozenset(c) for c in comps.values()]


def bridges(vertices, pairs):
    """Indices of cutting edges of the undirected multigraph (loops never cut).

    An edge cuts when its endpoints fall into different components without
    it; a parallel twin keeps them joined.  The graphs here are small.
    """
    out = []
    for i, (u, v) in enumerate(pairs):
        if u == v:
            continue
        rest = pairs[:i] + pairs[i + 1:]
        if not any(u in c and v in c for c in _components(vertices, rest)):
            out.append(i)
    return out


def tecc_forest(vertices, pairs):
    """Forest of two-edge-connected components.

    Returns (components, forest_edges) where components is a list of
    frozensets of original vertices and forest_edges joins component indices
    (one per cutting edge).
    """
    cut = set(bridges(vertices, pairs))
    kept = [p for i, p in enumerate(pairs) if i not in cut]
    comps = _components(vertices, kept)
    where = {v: i for i, c in enumerate(comps) for v in c}
    forest_edges = [
        (where[pairs[i][0]], where[pairs[i][1]]) for i in sorted(cut)
    ]
    return comps, forest_edges


def leaf_count(vertices, pairs):
    """Leaves of the forest of two-edge-connected components.

    A tree reduced to a single component counts two leaves.
    """
    comps, forest_edges = tecc_forest(vertices, pairs)
    deg = {i: 0 for i in range(len(comps))}
    for u, v in forest_edges:
        deg[u] += 1
        deg[v] += 1
    total = 0
    for tree in _components(range(len(comps)), forest_edges):
        if len(tree) == 1:
            total += 2
        else:
            total += sum(1 for i in tree if deg[i] == 1)
    return total


def _a_pairs(graph):
    return [(e.src, e.trg) for e in graph.edges if e.kind == "a"]


def leaves_count(graph):
    """The leaf statistic of the A-edge subgraph on the full vertex set."""
    return leaf_count(graph.vertices, _a_pairs(graph))


# ---------------------------------------------------------------------------
# graph of deterministic components and classification


def a_components(graph):
    """Connected components of the A-edge subgraph (isolated vertices included)."""
    return _components(graph.vertices, _a_pairs(graph))


def gdc(graph):
    """Graph of deterministic components of a quotient graph.

    Vertices: the quotient vertices plus one node ("C", i) per A-component.
    Edges (undirected multiset): the X-edges plus one linking edge from each
    quotient vertex to its A-component.
    """
    comps = a_components(graph)
    where = {v: i for i, c in enumerate(comps) for v in c}
    vertices = list(graph.vertices) + [("C", i) for i in range(len(comps))]
    pairs = [(e.src, e.trg) for e in graph.edges if e.kind == "x"]
    pairs += [(v, ("C", where[v])) for v in graph.vertices]
    return vertices, pairs, comps


@dataclass(frozen=True)
class ComponentReport:
    vertices: frozenset  # quotient vertices of the component
    q1: Fraction
    q2: int
    q2p: Fraction
    x_multiplicities: tuple
    kind: str  # double_tree | double_unicyclic | two_four_tree | other

    @property
    def q(self):
        return self.q1 + self.q2 + self.q2p


@dataclass(frozen=True)
class TopoReport:
    components: tuple
    m_x: int  # total number of X-edges
    f_leaves: int  # leaf statistic of the A-subgraph

    @property
    def q(self):
        return -Fraction(self.m_x, 2) + Fraction(self.f_leaves, 2)

    @property
    def valid(self):
        return all(
            c.kind in ("double_unicyclic", "two_four_tree") for c in self.components
        )


def _component_leaf_stat(comp_vertices, a_pairs):
    sub = [p for p in a_pairs if p[0] in comp_vertices]
    return leaf_count(comp_vertices, sub)


def classify(graph):
    """Per-component topology report of a quotient graph."""
    verts, pairs, comps = gdc(graph)
    gdc_comps = _components(verts, pairs)
    apairs = _a_pairs(graph)

    x_groups = {}
    for e in graph.edges:
        if e.kind == "x":
            x_groups.setdefault(frozenset((e.src, e.trg)), []).append(e)

    reports = []
    for gcomp in gdc_comps:
        qverts = frozenset(v for v in gcomp if not (isinstance(v, tuple) and v and v[0] == "C"))
        acomp_ids = [i for i in range(len(comps)) if ("C", i) in gcomp]
        groups = [es for pair, es in x_groups.items() if pair <= gcomp]
        mults = tuple(sorted(len(es) for es in groups))
        nx = sum(mults)
        q1 = len(groups) - Fraction(nx, 2)
        q2 = len(acomp_ids) - len(groups)
        f_comp = 0
        for i in acomp_ids:
            f_comp += _component_leaf_stat(comps[i], apairs)
        q2p = Fraction(f_comp, 2) - len(acomp_ids)
        nbar = len(groups) + len(qverts)
        is_tree = len(gcomp) - nbar == 1
        is_unicyclic = len(gcomp) == nbar
        if 1 in mults:
            kind = "other"
        elif all(m == 2 for m in mults) and is_tree:
            kind = "double_tree"
        elif all(m == 2 for m in mults) and is_unicyclic:
            kind = "double_unicyclic"
        elif mults and mults[:-1] == (2,) * (len(mults) - 1) and mults[-1] == 4 and is_tree:
            kind = "two_four_tree"
        else:
            kind = "other"
        reports.append(ComponentReport(qverts, q1, q2, q2p, mults, kind))
    m_x = sum(1 for e in graph.edges if e.kind == "x")
    return TopoReport(tuple(reports), m_x, leaves_count(graph))


# ---------------------------------------------------------------------------
# Wigner weights


def _x_group_moment(edges, laws):
    """Exact expectation of the product of the group's unnormalized entries."""
    e0 = edges[0]
    try:
        law = laws[e0.label]
    except KeyError:
        raise KeyError("no entry law supplied for Wigner id %r" % (e0.label,))
    if e0.src == e0.trg:
        return diagonal_moment(law, len(edges))
    lo, hi = sorted((e0.src, e0.trg))
    p = sum(1 for e in edges if e.src == hi)
    q = len(edges) - p
    return entry_moment(law, p, q)


def _r_expect(x_edges, laws):
    """E of the product of unnormalized entries over independent groups."""
    groups = {}
    for e in x_edges:
        groups.setdefault((frozenset((e.src, e.trg)), e.label), []).append(e)
    val = Fraction(1)
    for es in groups.values():
        m = _x_group_moment(es, laws)
        if m == 0:
            return Fraction(0)
        val *= m
    return val


def omega_X(graph, laws, order=1):
    """Wigner weight of a quotient graph, exact.

    Order 1 is the plain expectation of the entry product.  Order 2 needs a
    graph of two trace cycles and centers both traces: E[all X-entries] -
    E[cycle 0's entries] E[cycle 1's entries], the two-cycle case of the
    alternating sum over subsets of cycles.
    """
    x_edges = [e for e in graph.edges if e.kind == "x"]
    if order == 1:
        return _r_expect(x_edges, laws)
    if order != 2:
        raise ValueError("order must be 1 or 2")
    if graph.n_cycles != 2:
        raise ValueError("the order-2 weight needs a graph of two cycles")
    first, second = (
        _r_expect([e for e in x_edges if e.cycle == j], laws) for j in (0, 1)
    )
    return _r_expect(x_edges, laws) - first * second


# ---------------------------------------------------------------------------
# traces of A-graphs


def _a_triples(graph, family):
    """The A-edges as ``(src, trg, matrix)``, one dense matrix built per distinct letter."""
    edges = [e for e in graph.edges if e.kind == "a"]
    mats = {letter: family.letter_matrix(letter) for letter in {e.label for e in edges}}
    return [(e.src, e.trg, mats[e.label]) for e in edges]


def _triples_trace(vertices, triples, n):
    """Sum over all labelings of the vertices in [n] of the A-entry product.

    Each ``(src, trg, matrix)`` triple contributes the matrix's entry
    [trg, src]; one einsum contracts each connected component, and a vertex
    without A-edges counts n labels.
    """
    total = 1.0 + 0.0j
    for comp in _components(vertices, [(s, t) for s, t, _ in triples]):
        idx = {v: i for i, v in enumerate(sorted(comp, key=repr))}
        operands = []
        for s, t, mat in triples:
            if s in comp:
                operands += [mat, [idx[t], idx[s]]]
        total *= complex(np.einsum(*operands, [])) if operands else n
    return total


def _mobius(part):
    out = 1
    for b in part:
        out *= (-1) ** (len(b) - 1) * math.factorial(len(b) - 1)
    return out


def _support_injective_trace(support, triples, n):
    total = []
    for part in set_partitions(sorted(support, key=repr)):
        vmap = {v: i for i, b in enumerate(part) for v in b}
        relabelled = [(vmap[s], vmap[t], mat) for s, t, mat in triples]
        total.append(_mobius(part) * _triples_trace(range(len(part)), relabelled, n))
    return complex(
        math.fsum(t.real for t in total), math.fsum(t.imag for t in total)
    )


def injective_trace(graph, family):
    """Sum over injective vertex labelings of the A-edge entry product.

    Vertices untouched by A-edges contribute a falling-factorial count of
    the remaining distinct labels; the A-support is summed by Moebius
    inversion over its partitions.
    """
    n = family.N
    nverts = len(set(graph.vertices))
    if nverts > n:
        return 0.0 + 0.0j
    triples = _a_triples(graph, family)
    support = {v for s, t, _ in triples for v in (s, t)}
    base = _support_injective_trace(support, triples, n) if support else 1.0
    return base * math.perm(n - len(support), nverts - len(support))


# ---------------------------------------------------------------------------
# exact finite-N moments

PARTITION_VERTEX_CAP = 10
EXACT_N_CAP = 16


def weighted_partitions(graph, laws, order):
    """The nonzero terms of the partition sum: ``(rgs, quotient, weight)``.

    ``rgs`` is the partition's restricted growth string from
    ``even_partitions`` and ``weight`` is ``omega_X(quotient, laws,
    order)``; the terms come in ``set_partitions`` order.  Every law here is
    symmetric: entry_moment(law, p, q) = 0 for odd p + q and
    diagonal_moment(law, k) = 0 for odd k.  So a partition with an X-edge
    group of odd size has weight 0 at order 1, and at order 2 as well: a
    nonzero product of the per-cycle moments needs each cycle's groups
    even, and their unions are then even too.  Only the partitions of
    ``even_partitions`` are visited; the walk still grows like Bell(|V|)
    in the worst case, capped by PARTITION_VERTEX_CAP.
    """
    nverts = len(graph.vertices)
    if nverts > PARTITION_VERTEX_CAP:
        raise ValueError(
            "graph has %d vertices, above the partition cap %d"
            % (nverts, PARTITION_VERTEX_CAP)
        )
    for rgs, part in even_partitions(graph):
        q = quotient(graph, part)
        weight = omega_X(q, laws, order)
        if weight != 0:
            yield rgs, q, weight


def _partition_sum(graph, family, laws, order):
    if family.N > EXACT_N_CAP:
        raise ValueError("exact oracle capped at N = %d" % EXACT_N_CAP)
    m_x = sum(1 for e in graph.edges if e.kind == "x")
    vals = []
    for _, q, weight in weighted_partitions(graph, laws, order):
        tr0 = injective_trace(q, family)
        if tr0 == 0:
            continue
        vals.append(float(weight) * tr0 / family.N ** (m_x // 2))
    return complex(
        math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals)
    )


def exact_moment(graph, family, laws):
    """Exact E[prod_j Tr M_j] by summing over vertex partitions.

    The family's dimension N is the matrix size; the Wigner entry laws are
    given per Wigner id.  Each partition contributes its order-1 weight
    times the injective trace of its quotient.
    """
    return _partition_sum(graph, family, laws, 1)


def exact_tau2(p, q, family, laws):
    """Exact covariance E[Tr P Tr Q] - E[Tr P] E[Tr Q] at finite N.

    One walk over the joint graph's partitions with the centered (order-2)
    weight.  A degree-0 word is a constant trace and gives 0.
    """
    if p.degree == 0 or q.degree == 0:
        return 0j
    return _partition_sum(build_cycle_graph([p, q]), family, laws, 2)
