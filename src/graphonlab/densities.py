"""Canonical labeled-graph enumeration and induced-subgraph densities.

The enumeration orders graphs by vertex count, then by the integer encoding
of the upper-triangular adjacency bits: pairs are listed row-major
(0,1),(0,2),...,(0,n-1),(1,2),...; the pair at list position t is an edge
iff bit t of the block offset is set.

t_ind(F, W) is the probability that an n-vertex sample of W equals F as a
labeled graph: a sum over all k**n part assignments of products of the
cells L*W and L*(1-W), scaled to integers by the lcm L of the cell
denominators. Every partial sum of that contraction is a nonnegative
integer at most B = k**n * L**C(n,2), which picks one of three exact
routes:

- float64 contraction when B < 2**53;
- int64 contraction when B < 2**63;
- a pruned enumeration on Python integers otherwise.

Contractions on at most four vertices use a fixed order (a plain sum, one
matrix product, or a vertex pairing chunked over the first vertex);
larger graphs use a greedy einsum. The cost_limit guard (k**n terms)
covers only the two integer routes. The float64 route is never refused,
however large k**n is: a 5-vertex graph on a 128-part 0/1 graphon has
B < 2**53 and took 561 s on a 2-core Xeon VM.

Labeled t_ind is invariant under relabeling F, so one graph per
isomorphism class is evaluated. The reduced and scaled W and the value of
each class live on the graphon object (W._memo) across calls; equal but
distinct objects do not share them.
"""

from __future__ import annotations

import string
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, isqrt

import numpy as np

from .core import _scale, finite_graph, reduce_step_graphon, vertex_pairs
from .errors import InputError, TooExpensive
from .sampling import RandomSource, sample_graph

COST_LIMIT = 10 ** 7

# graphs up to this many vertices share an evaluation with their relabelings
_CLASS_LIMIT = 5
# entries per temporary of the chunked four-vertex contraction
_CHUNK = 1 << 16


def _block_size(n):
    return 2 ** comb(n, 2)


def enumerate_graph(i):
    """The i-th labeled graph: one vertex first, then blocks of growing n."""
    if i < 0:
        raise InputError(f"enumeration index must be nonnegative, got {i}")
    n = 1
    while i >= _block_size(n):
        i -= _block_size(n)
        n += 1
    edges = [pair for t, pair in enumerate(vertex_pairs(n)) if (i >> t) & 1]
    return finite_graph(n, edges)


def _edge_mask(F):
    # bit t is set iff the t-th row-major pair is an edge
    return sum(
        1 << t for t, pair in enumerate(vertex_pairs(F.n)) if pair in F.edges
    )


def graph_index(F):
    """Inverse of enumerate_graph."""
    offset = sum(_block_size(m) for m in range(1, F.n))
    return offset + _edge_mask(F)


@lru_cache(maxsize=None)
def _relabelings(n):
    # per vertex permutation s, the position of pair (s(i), s(j)) for each
    # row-major pair (i, j)
    pos = {pair: t for t, pair in enumerate(vertex_pairs(n))}
    return tuple(
        tuple(pos[min(s[i], s[j]), max(s[i], s[j])] for (i, j) in pos)
        for s in permutations(range(n))
    )


@lru_cache(maxsize=4096)
def _class_key(n, mask):
    """(n, the smallest edge mask over all relabelings) when n is at most
    _CLASS_LIMIT, else (n, mask)."""
    if n > _CLASS_LIMIT:
        return n, mask
    bits = [t for t in range(comb(n, 2)) if (mask >> t) & 1]
    return n, min(sum(1 << perm[t] for t in bits) for perm in _relabelings(n))


def _scaled_factors(W):
    # integer matrices L*W and L*(1-W) plus the common denominator L
    w, L = _scale(W.values)
    c = [[L - e for e in row] for row in w]
    return w, c, L


def _route(n, k, L, cost_limit):
    """dtype of the exact contraction for n vertices on k parts at scale L,
    or None for the big-integer loop.

    Every partial sum is an integer at most k**n * L**C(n,2), so below
    2**53 float64 is exact and below 2**63 int64 is. Only the integer
    routes are guarded: they raise TooExpensive when the k**n terms exceed
    cost_limit.
    """
    terms = k ** n
    bound = terms * L ** comb(n, 2)
    einsum_ok = n <= len(string.ascii_letters)
    if einsum_ok and bound < 2 ** 53:
        return np.float64
    if terms > cost_limit:
        raise TooExpensive(terms, cost_limit)
    if einsum_ok and bound < 2 ** 63:
        return np.int64
    return None


def _contract(F, w, c):
    """Sum over assignments of the product of w (edges) and c (non-edges)
    over the pairs of F, in the dtype of the arrays w and c."""
    n, k = F.n, len(w)
    pairs = vertex_pairs(n)
    ops = [w if F.has_edge(i, j) else c for (i, j) in pairs]
    if n == 2:
        return int(ops[0].sum())
    if n == 3:
        ab, ac, bc = ops
        return int((ab * (ac @ bc.T)).sum())
    if n == 4:
        # pairing a and b into one axis turns the sum over d into a matrix
        # product; chunking over a keeps temporaries at k**2 * step entries
        ab, ac, ad, bc, bd, cd = ops
        step = max(1, _CHUNK // (k * k))
        total = 0
        for s in range(0, k, step):
            a = slice(s, s + step)
            inner = (ad[a, None, :] * bd).reshape(-1, k) @ cd.T
            inner = inner.reshape(-1, k, k)
            inner *= ab[a, :, None]
            inner *= ac[a, None, :]
            inner *= bc
            total += int(inner.sum())
        return total
    letters = string.ascii_letters
    subs = ",".join(letters[i] + letters[j] for (i, j) in pairs)
    return int(np.einsum(subs + "->", *ops, optimize="greedy"))


def _t_ind_loop(F, k, w, c, L):
    n = F.n
    # factor[v] lists (u, matrix) for u < v, consulted when v is assigned
    factor = [[] for _ in range(n)]
    for (i, j) in vertex_pairs(n):
        factor[j].append((i, w if F.has_edge(i, j) else c))
    total = 0
    stack = [(0, 1, ())]
    while stack:
        v, prod, assign = stack.pop()
        if v == n:
            total += prod
            continue
        for col in range(k):
            p = prod
            for (u, mat) in factor[v]:
                p *= mat[assign[u]][col]
                if not p:
                    break
            if p:
                stack.append((v + 1, p, assign + (col,)))
    return Fraction(total, L ** comb(n, 2) * k ** n)


def _t_ind_many(graphs, W, cost_limit):
    """t_ind_exact of every graph against W, one evaluation per class.

    W's state lives in W._memo, so it is built once per object and kept
    across calls: the reduced part count k, the scaled factors, the numpy
    arrays per dtype and the exact value per class key. A graph on at most
    _CLASS_LIMIT vertices shares its value with every relabeling of it; a
    larger one only with equal graphs. Every call routes each class under
    the call's cost_limit, so a stored value never answers a call that
    would refuse it. A refused graph gets its TooExpensive instance in
    place of a value, and so does every graph of its class in this call;
    refusals are not stored.
    """
    if "t_ind" not in W._memo:
        R = reduce_step_graphon(W)
        W._memo["t_ind"] = (R.k, *_scaled_factors(R), {}, {})
    k, w, c, L, arrays, values = W._memo["t_ind"]

    def evaluate(F, key):
        if F.n == 1:
            return Fraction(1)
        try:
            dtype = _route(F.n, k, L, cost_limit)
        except TooExpensive as exc:
            return exc
        if key in values:
            return values[key]
        if dtype is None:
            values[key] = _t_ind_loop(F, k, w, c, L)
        else:
            if dtype not in arrays:
                arrays[dtype] = tuple(np.array(m, dtype=dtype) for m in (w, c))
            total = _contract(F, *arrays[dtype])
            values[key] = Fraction(total, L ** comb(F.n, 2) * k ** F.n)
        return values[key]

    seen = {}
    out = []
    for F in graphs:
        key = _class_key(F.n, _edge_mask(F))
        if key not in seen:
            seen[key] = evaluate(F, key)
        out.append(seen[key])
    return out


def t_ind_exact(F, W, cost_limit=COST_LIMIT):
    """Exact probability that an n-vertex sample of W equals F, labeled.

    Sum over assignments a: [n] -> [k] of k**-n times the product of
    W[a_i][a_j] over edges and (1 - W[a_i][a_j]) over non-edges, after W
    is reduced to its fewest parts. With L the lcm of W's denominators and
    B = k**n * L**C(n,2), the sum runs as a float64 contraction when
    B < 2**53, as an int64 contraction when B < 2**63, and as a pruned
    Python-integer enumeration otherwise. Only the two integer routes are
    guarded: they raise TooExpensive, reporting the assignment count k**n,
    when it exceeds cost_limit. The float64 route runs whatever k**n is.
    The value is kept on W for F's isomorphism class, so later calls on
    the same object, not on an equal copy, only route and look it up.
    """
    (t,) = _t_ind_many([F], W, cost_limit)
    if isinstance(t, TooExpensive):
        raise t
    return t


def t_ind_mc(F, W, trials, seed):
    """Monte-Carlo estimate of t_ind with a one-sigma error radius.

    Returns (estimate, stderr) where stderr is the binomial standard error
    sqrt(p(1-p)/trials), rounded up to the next exact rational.
    """
    if trials < 1:
        raise InputError(f"trial count must be positive, got {trials}")
    rs = seed if isinstance(seed, RandomSource) else RandomSource(seed)
    hits = 0
    for _ in range(trials):
        G = sample_graph(W, F.n, rs)
        if G.edges == F.edges:
            hits += 1
    estimate = Fraction(hits, trials)
    var = estimate * (1 - estimate) / trials
    a, b = var.numerator, var.denominator
    root = isqrt(a * b)
    if root * root < a * b:
        root += 1
    return estimate, Fraction(root, b)


def counting_bound(F, eps):
    """Density-gap bound 4 * C(n,2) * eps driven by a cut-distance eps."""
    eps = Fraction(eps)
    if eps < 0:
        raise InputError(f"distance bound must be nonnegative, got {eps}")
    return 4 * comb(F.n, 2) * eps
