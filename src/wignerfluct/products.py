"""Matrices with at most one nonzero per column, and word products in stacks.

A ``Gather`` (rows, weights) holds such a matrix with no N x N array:
column j is weights[j] * e_rows[j].  Products of gathers compose as
gathers.  ``word_diagonals``, the one path by which theory and Monte
Carlo's constant traces multiply words, computes the diagonals of many
words of a family's letters in one pass: words of one length together,
in stacks of at most BLOCK_ELEMS matrix entries.
"""

import functools
from itertools import chain

import numpy as np

from .words import DetLetter

# matrix entries in one stack of words here, and per Wigner id in one block
# of Monte Carlo replicates: enough to take the per-word or per-replicate
# Python overhead off small N, small enough to leave peak memory alone (one
# block of all R = 4000 at N = 8, 2**18 entries, raised the peak resident
# memory of that run by about a fifth)
BLOCK_ELEMS = 2**14


class Gather(tuple):
    """An N x N matrix with at most one nonzero per column, as (rows, weights).

    Column j is weights[j] * e_rows[j]; a zero column has weight 0.
    """

    __slots__ = ()

    def __new__(cls, rows, weights):
        return super().__new__(cls, (rows, weights))


def _real(a):
    """``a``, or a real copy of it when its imaginary part is 0."""
    return a.real.copy() if a.dtype.kind == "c" and not a.imag.any() else a


def _scan(m):
    """A dense matrix as a Gather if no column has two nonzeros, else itself."""
    nonzero = m != 0
    if nonzero.sum(axis=0).max() > 1:
        return m
    rows = nonzero.argmax(axis=0)
    return Gather(rows, m[rows, np.arange(len(m))])


def _matrix(member):
    """The dense complex matrix of a member, a new array for a Gather."""
    if not isinstance(member, Gather):
        return np.asarray(member, dtype=complex)
    rows, weights = member
    out = np.zeros((len(rows), len(rows)), dtype=complex)
    out[rows, np.arange(len(rows))] = weights
    return out


def _transpose(g):
    """The transpose of a Gather, or None if two of its nonzeros share a row."""
    rows, weights = g
    cols = np.flatnonzero(weights)
    if np.bincount(rows[cols], minlength=1).max() > 1:
        return None
    t_rows, t_weights = np.zeros_like(rows), np.zeros_like(weights)
    t_rows[rows[cols]] = cols
    t_weights[rows[cols]] = weights[cols]
    return Gather(t_rows, t_weights)


def _compose(a, b):
    """The Gather of a @ b: rows r_a[r_b], weights w_a[r_b] * w_b, as ``times`` multiplies.

    Rows and weights may be (b, N) stacks, composed slice by slice.
    """
    (ra, wa), (rb, wb) = a, b
    return Gather(np.take_along_axis(ra, rb, -1), np.take_along_axis(wa, rb, -1) * wb)


def _times_stack(stack, op):
    """``stack[k] @ op`` for each slice of a complex (b, N, N) stack, as ``times`` multiplies.

    A dense ``op`` is a matmul.  A Gather, here with (b, N) rows and weights,
    one gather a slice, is a take-and-scale.
    """
    if not isinstance(op, Gather):
        return stack @ op
    rows, weights = op
    b, n = rows.shape
    out = stack.reshape(-1)[rows[:, None, :] + np.arange(0, b * n * n, n).reshape(b, n, 1)]
    out *= weights[:, None, :]  # in place, as ``times_into`` scales
    return out


def _times_rows(stack, at, op):
    """``stack`` with its slices ``at`` multiplied by ``op``, in place unless ``at`` is all."""
    if len(at) == len(stack):
        return _times_stack(stack, op)
    stack[at] = _times_stack(stack[at], op)
    return stack


def word_diagonals(family, words):
    """The complex diagonal of the product of each tuple of flagged members,
    as the rows of one array; the empty tuple's is the identity's.

    The words are computed in stacks of one length.  Words of gathers
    compose as (b, N) rows and weights, grouped also by their first
    complex factor, so that each step multiplies in the dtypes
    ``_compose`` does on one word.  Any other word is built left to
    right in a (b, N, N) stack, each step one matmul per dense operand
    and one take-and-scale for the slices at a gather.  A stack holds
    at most BLOCK_ELEMS matrix entries, or one word.
    """
    n = family.N
    ops, column = [], {}  # the one-factor operands, and each factor's place
    for f in dict.fromkeys(chain.from_iterable(words)):
        column[f] = len(ops)
        ops.append(family.operand(DetLetter((f,))))
    dense = {c for c, op in enumerate(ops) if not isinstance(op, Gather)}
    cplx = {c for c, op in enumerate(ops) if c not in dense and op[1].dtype.kind == "c"}

    groups = {}  # (length, first complex factor, or -1 if dense) -> (place, columns)
    for i, word in enumerate(words):
        cols = list(map(column.__getitem__, word))
        if dense.isdisjoint(cols):
            key = len(cols), next((k for k, c in enumerate(cols) if c in cplx), len(cols))
        else:
            key = len(cols), -1
        groups.setdefault(key, []).append((i, cols))

    out = np.ones((len(words), n), dtype=complex)  # the empty word's diagonal
    for (length, complex_from), members in groups.items():
        step = max(1, BLOCK_ELEMS // (n * n if complex_from < 0 else n))
        for s in range(0, len(members) if length else 0, step):
            at = [i for i, _ in members[s:s + step]]
            cols = np.array([c for _, c in members[s:s + step]], dtype=np.intp)
            if complex_from < 0:
                out[at] = np.diagonal(_product_stack(n, cols, ops), 0, 1, 2)
                continue
            # the k-th factor of each word: its weights are real before the
            # first complex factor, as on one word
            g = functools.reduce(_compose, [
                Gather(*map(np.stack, zip(*[ops[c] for c in col]))) for col in cols.T])
            out[at] = np.where(g[0] == np.arange(n), g[1], 0)
    return out


def _product_stack(n, cols, ops):
    """The (b, N, N) stack of the products of the operands ``cols[k]``, left to right."""
    gather = np.array([isinstance(op, Gather) for op in ops], dtype=bool)
    # each gather's rows and weights, a dense operand's row unread
    rows = np.array([op[0] if g else np.arange(n) for op, g in zip(ops, gather)])
    weights = np.array([op[1] if g else np.zeros(n) for op, g in zip(ops, gather)])
    first = cols[:, 0]
    stack = np.zeros((len(cols), n, n), dtype=complex)
    at = np.flatnonzero(gather[first])
    stack[at[:, None], rows[first[at]], np.arange(n)] = weights[first[at]]
    for c in set(first[~gather[first]].tolist()):
        stack[first == c] = ops[c]
    # a complex dense operand is its own letter matrix, and one word multiplies
    # it, not a copy, by a dense second operand: numpy takes a matrix times its
    # own transpose in syrk, to other bits than a product of copies
    own = np.array([not g and op.dtype.kind == "c" for op, g in zip(ops, gather)])
    done = np.zeros(len(cols), dtype=bool)  # the rows whose first product is taken here
    if cols.shape[1] > 1:
        done = own[first] & ~gather[cols[:, 1]]
        for c0, c1 in set(zip(first[done].tolist(), cols[done, 1].tolist())):
            stack[(first == c0) & (cols[:, 1] == c1)] = ops[c0] @ ops[c1]
    for k, col in enumerate(cols.T[1:]):
        left = ~done if k == 0 else np.ones(len(col), dtype=bool)
        at = np.flatnonzero(gather[col] & left)
        if len(at):
            stack = _times_rows(stack, at, Gather(rows[col[at]], weights[col[at]]))
        for c in set(col[~gather[col] & left].tolist()):
            stack = _times_rows(stack, np.flatnonzero((col == c) & left), ops[c])
    return stack
