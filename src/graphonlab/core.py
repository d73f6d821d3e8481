"""Exact step-function graphons on equipartitions of [0,1] and finite graphs.

A StepGraphon is a symmetric k x k matrix of rationals in [0,1], read as a
function on [0,1]^2 that is constant on the product cells of the k equal-width
parts. All operations are pure and keep every value an exact Fraction, so
downstream metric inequalities can be tested with tolerance zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    AsymmetricMatrix,
    EmptyGraph,
    InputError,
    NotAPermutation,
    OutOfDomain,
    OutOfRange,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class StepGraphon:
    """Symmetric rational-valued step function on a k-part equipartition."""

    k: int
    values: tuple  # k tuples of k Fractions

    def __repr__(self):
        return f"StepGraphon(k={self.k})"


@dataclass(frozen=True)
class FiniteGraph:
    """Irreflexive symmetric graph on vertex set {0, ..., n-1}."""

    n: int
    edges: frozenset  # frozenset of (i, j) pairs with i < j

    def has_edge(self, i, j):
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges

    def __repr__(self):
        return f"FiniteGraph(n={self.n}, m={len(self.edges)})"


def make_step_graphon(k, values):
    """Validate and freeze a k x k rational matrix as a StepGraphon."""
    if k < 1:
        raise InputError(f"part count must be positive, got {k}")
    rows = tuple(tuple(Fraction(v) for v in row) for row in values)
    if len(rows) != k or any(len(row) != k for row in rows):
        raise InputError(f"values must be a {k}x{k} matrix")
    for i in range(k):
        for j in range(k):
            if not ZERO <= rows[i][j] <= ONE:
                raise OutOfRange(f"entry ({i},{j}) = {rows[i][j]} outside [0,1]")
    for i in range(k):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise AsymmetricMatrix(f"entries ({i},{j}) and ({j},{i}) differ")
    return StepGraphon(k, rows)


def finite_graph(n, edges):
    """Validate and freeze an edge list as a FiniteGraph."""
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    norm = set()
    for (i, j) in edges:
        if i == j:
            raise InputError(f"self-loop at vertex {i}")
        a, b = (i, j) if i < j else (j, i)
        if not (0 <= a and b < n):
            raise InputError(f"edge ({i},{j}) outside vertex range [0,{n})")
        norm.add((a, b))
    return FiniteGraph(n, frozenset(norm))


def vertex_pairs(n):
    """Pairs (i, j), i < j, of n vertices in row-major order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def adjacency_rows(G):
    """The 0/1 integer rows of G's adjacency matrix, built from its edges."""
    rows = [[0] * G.n for _ in range(G.n)]
    for i, j in G.edges:
        rows[i][j] = rows[j][i] = 1
    return rows


def graphon_of_graph(G):
    """Embed a finite graph as the 0/1 step graphon on n parts."""
    if G.n == 0:
        raise EmptyGraph("cannot embed a graph with no vertices")
    cells = (ZERO, ONE)
    rows = tuple(tuple(cells[v] for v in row) for row in adjacency_rows(G))
    return StepGraphon(G.n, rows)


def blow_up(W, m):
    """Split every part into m equal sub-parts, copying values."""
    if m < 1:
        raise InputError(f"blow-up factor must be positive, got {m}")
    if m == 1:
        return W
    k = W.k * m
    rows = tuple(
        tuple(W.values[a // m][b // m] for b in range(k)) for a in range(k)
    )
    return StepGraphon(k, rows)


def common_refinement(U, V):
    """Blow both graphons up to the lcm of their part counts."""
    k = lcm(U.k, V.k)
    return blow_up(U, k // U.k), blow_up(V, k // V.k)


def reduce_step_graphon(W):
    """Smallest equipartition carrying the same function.

    A uniform blow-up factor must divide every maximal run of equal rows;
    conversely the gcd of the run lengths works, since equal rows come with
    equal columns by symmetry. Exact metrics reduce first, so a finely
    presented blow-up costs no more than its base.
    """
    f = 0
    run = 1
    for i in range(1, W.k):
        if W.values[i] == W.values[i - 1]:
            run += 1
        else:
            f = gcd(f, run)
            run = 1
    f = gcd(f, run)
    if f <= 1:
        return W
    q = W.k // f
    rows = tuple(
        tuple(W.values[a * f][b * f] for b in range(q)) for a in range(q)
    )
    return StepGraphon(q, rows)


def _overlap_matrix(n_cells, k):
    # row c, col p: length of [c/n, (c+1)/n) intersect [p/k, (p+1)/k)
    rows = []
    for c in range(n_cells):
        lo, hi = Fraction(c, n_cells), Fraction(c + 1, n_cells)
        row = []
        for p in range(k):
            plo, phi = Fraction(p, k), Fraction(p + 1, k)
            row.append(max(ZERO, min(hi, phi) - max(lo, plo)))
        rows.append(row)
    return rows

def stepping(W, n):
    """Average W onto the dyadic grid with 2^n cells per axis, exactly.

    Averaging over cells no coarser than W's own partition fixes the
    function, so that case returns W as-is rather than a blow-up.
    """
    if n < 0:
        raise InputError(f"dyadic level must be nonnegative, got {n}")
    cells = 2 ** n
    if cells % W.k == 0:
        return W
    ov = _overlap_matrix(cells, W.k)
    # value over a cell = integral / cell area; cell area = (1/cells)^2
    scale = Fraction(cells * cells)
    supports = [[p for p in range(W.k) if ov[c][p]] for c in range(cells)]
    rows = []
    for a in range(cells):
        row = []
        for b in range(cells):
            acc = ZERO
            for p in supports[a]:
                wp = W.values[p]
                ova = ov[a][p]
                for q in supports[b]:
                    acc += ova * ov[b][q] * wp[q]
            row.append(acc * scale)
        rows.append(tuple(row))
    return StepGraphon(cells, tuple(rows))


def permute_parts(W, sigma):
    """Relabel parts: result[i][j] = W[sigma(i)][sigma(j)]."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(W.k)):
        raise NotAPermutation(f"not a permutation of range({W.k}): {sigma}")
    rows = tuple(
        tuple(W.values[sigma[i]][sigma[j]] for j in range(W.k))
        for i in range(W.k)
    )
    return StepGraphon(W.k, rows)


def average(W):
    """Mean value of W over the square, exact."""
    total = sum(sum(row, ZERO) for row in W.values)
    return total / (W.k * W.k)


def part_index(k, x):
    """Index of the part containing x; half-open cells, x = 1 joins part k-1."""
    x = Fraction(x)
    if not ZERO <= x <= ONE:
        raise OutOfDomain(f"coordinate {x} outside [0,1]")
    return min(int(x * k), k - 1)


def evaluate(W, x, y):
    """Value of the cell containing (x, y)."""
    return W.values[part_index(W.k, x)][part_index(W.k, y)]
