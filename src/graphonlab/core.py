"""Exact step-function graphons on equipartitions of [0,1] and finite graphs.

A StepGraphon is a symmetric k x k matrix of rationals in [0,1], read as a
function on [0,1]^2 that is constant on the product cells of the k equal-width
parts. All operations are pure and every stored value stays an exact
Fraction, so downstream metric inequalities can be tested with tolerance
zero. Exact intermediates are integers over one scale L (_scale), and two
partitions meet on their merged breakpoints (_merged_parts); stepping is
the integer product of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

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

    @cached_property
    def _memo(self):
        # derived state that lives as long as this object (densities keeps
        # its t_ind state here); not a field, so eq, hash and repr ignore it
        return {}


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


def _scale(*matrices):
    """Rational matrices as integer rows over one common scale L: every
    cell v becomes v.numerator * (L // v.denominator). Returns the scaled
    matrices followed by L."""
    L = lcm(*{v.denominator for M in matrices for row in M for v in row})
    scaled = [
        [[v.numerator * (L // v.denominator) for v in row] for row in M]
        for M in matrices
    ]
    return (*scaled, L)


def _merged_parts(a, b):
    """Merged breakpoints of the a- and b-part equipartitions of [0, 1].

    With K = lcm(a, b) they cut [0, 1] into a + b - gcd(a, b) intervals.
    Returns (K, w, ia, ib): the integer interval widths w in units of 1/K
    and, per interval, the index of the part holding it on each side.
    """
    K = lcm(a, b)
    fa, fb = K // a, K // b
    cuts = np.array(sorted({*range(0, K, fa), *range(0, K, fb)}))
    return K, np.diff(cuts, append=K), cuts // fa, cuts // fb


def stepping(W, n):
    """Average W onto the dyadic grid with 2^n cells per axis, exactly.

    Averaging over cells no coarser than W's own partition fixes the
    function, so that case returns W as-is rather than a blow-up. Otherwise
    the cell sums are the integer product O (L W) O^T, with O[c, p] the
    width of cell c's overlap with part p in units of 1/K; each is at most
    fc * fc * L for fc = K / 2^n, which picks int64 or Python integers.
    """
    if n < 0:
        raise InputError(f"dyadic level must be nonnegative, got {n}")
    cells = 2 ** n
    if cells % W.k == 0:
        return W
    M, L = _scale(W.values)
    K, w, ic, ip = _merged_parts(cells, W.k)
    fc = K // cells
    dtype = np.int64 if fc * fc * L < 2 ** 63 else object
    O = np.zeros((cells, W.k), dtype=dtype)
    O[ic, ip] = w.astype(dtype)
    S = (O @ np.array(M, dtype=dtype) @ O.T).tolist()
    den = L * fc * fc
    rows = tuple(tuple(Fraction(v, den) for v in row) for row in S)
    return StepGraphon(cells, rows)


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
