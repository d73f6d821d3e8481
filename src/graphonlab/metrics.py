"""Pseudometrics between step graphons.

d1 and d2 are exact weighted sums on the merged breakpoints of the two
partitions: a + b - gcd(a, b) intervals for reduced part counts a and b,
each graphon scaled to integers once at its own size. The cut distance
d_square and the alignment search in delta_bound keep the equal-width
refinement on lcm(a, b) parts, since only its part permutations preserve
measure; d_square refuses an exact request on too many parts before it
builds anything.

Every exact cut value (cut_norm, d_square, hat_delta, delta_bound and the
halting chain certificate) comes from one kernel, _cut_extrema, on integer
matrices scaled by the lcm of the cell denominators: it enumerates row
subsets and picks the best columns greedily. The objective is bilinear in
fractional part memberships, so it is maximized at a vertex of the
membership box and part subsets suffice. The kernel computes in int64 while
K*K*m < 2**62 (m the largest absolute entry) and in Python integers above.
float64 remains in _certified_upper and the enumeration oracle, where every
intermediate is provably an exactly representable integer, and in the
candidate searches (_heuristic_cut, _profile_perms), whose picks are scored
exactly.

Alignment distances (hat_delta, delta_bound) report two-sided DeltaBound
results and never claim the infimum itself. Short of full permutation
enumeration both run one search, _align: the identity and sorted-profile
candidates, then steepest descent over transpositions. Exact cuts are
screened by _row_bounds, the cut value at T = all parts, which bounds each
alignment's exact value from below: a list (all K!, or the candidates) is
scored by _first_min, and a sweep, its budget taken up front, only where
the bound is below the current value. Values and witnesses are those of
scoring every alignment one at a time. Above EXACT_LIMIT parts (vertices,
for hat_delta) candidates are scored by _certified_upper instead, with no
descent and no witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm

import numpy as np

from .core import _merged_parts, _scale, adjacency_rows, reduce_step_graphon
from .densities import COST_LIMIT, _t_ind_many, enumerate_graph
from .errors import (
    AsymmetricMatrix,
    EmptyGraph,
    ExactTooLarge,
    InputError,
    OutOfRange,
    SizeMismatch,
    TooExpensive,
    TooManyParts,
)
from .sampling import RandomSource

EXACT_LIMIT = 20
FULL_ENUM_LIMIT = 12
HAT_EXACT_LIMIT = 8
ALIGN_EXACT_LIMIT = 12

_TABLE_CELLS = 1 << 16


@dataclass(frozen=True)
class DeltaBound:
    """Two-sided bracket for the alignment distance.

    witness, when present, is a (blow-up factor, permutation) pair whose
    aligned cut distance equals upper exactly.
    """

    lower: Fraction
    upper: Fraction
    witness: tuple | None = None

    def __post_init__(self):
        if self.lower > self.upper:
            raise InputError(f"lower {self.lower} exceeds upper {self.upper}")


def _blow_rows(M, K):
    """Equal-width blow-up of a square integer matrix to K parts by
    indexing. Repeated rows are shared, so the result is read-only."""
    f = K // len(M)
    wide = [[v for v in row for _ in range(f)] for row in M]
    return [row for row in wide for _ in range(f)]


def _merged_diff(U, V, power):
    """U - V on the merged breakpoints of the two partitions.

    Both graphons are reduced and scaled once, each at its own size, by one
    L. With a and b the reduced part counts and K = lcm(a, b), the merged
    breakpoints cut [0, 1] into a + b - gcd(a, b) intervals whose integer
    widths w are in units of 1/K. Returns (D, w, L, K) with D the scaled
    difference on the product intervals, in int64 when the weighted sum of
    |D|**power, at most L**power * K * K, stays below 2**63.
    """
    U, V = reduce_step_graphon(U), reduce_step_graphon(V)
    A, B, L = _scale(U.values, V.values)
    K, w, iu, iv = _merged_parts(U.k, V.k)
    dtype = np.int64 if L ** power * K * K < 2 ** 63 else object
    D = np.array(A, dtype=dtype)[np.ix_(iu, iu)]
    D -= np.array(B, dtype=dtype)[np.ix_(iv, iv)]
    return D, w.astype(dtype), L, K


def d1(U, V):
    """Exact L1 distance: mean of |U - V| over the square."""
    D, w, L, K = _merged_diff(U, V, 1)
    return Fraction(int(w @ np.abs(D) @ w), L * K * K)


def d2(U, V):
    """Exact squared L2 distance: mean of (U - V)**2 over the square."""
    D, w, L, K = _merged_diff(U, V, 2)
    return Fraction(int(w @ (D * D) @ w), L * L * K * K)


def _subset_bits(lo, hi, k):
    rows = np.arange(lo, hi, dtype=np.uint64)
    return ((rows[:, None] >> np.arange(k, dtype=np.uint64)) & 1).astype(
        np.float64
    )


def _cut_dtype(K, m):
    """int64 while every subset sum of a K x K matrix with entries of
    absolute value at most m, itself at most K*K*m, stays below 2**62;
    Python integers otherwise."""
    return np.int64 if K * K * m < 2 ** 62 else object


def _cut_extrema(D):
    """Per-matrix (max, min) over part subsets S, T of the sum over S x T.

    D is a (P, K, K) stack of integer matrices. The column sums of every
    subset of the first c rows are tabulated by doubling, within
    _TABLE_CELLS cells; a Gray-code sweep over the other K - c rows then
    adds or subtracts one row on the whole table per step. For a fixed row
    subset the best column subset takes the positive (or the negative)
    column sums. The table is laid out (column, row subset, matrix) so that
    every reduction runs over the outermost axis.
    """
    P, K, _ = D.shape
    m = int(np.abs(D).max())
    if m == 0:
        zero = np.zeros(P, dtype=np.int64)
        return zero, zero
    D = D.astype(_cut_dtype(K, m), copy=False)
    c = 0
    while c < K and (P * K) << (c + 1) <= _TABLE_CELLS:
        c += 1
    rows = np.ascontiguousarray(D.transpose(1, 2, 0))[:, :, None, :]
    CS = np.zeros((K, 1 << c, P), dtype=D.dtype)
    for i in range(c):
        CS[:, 1 << i : 2 << i] = CS[:, : 1 << i] + rows[i]
    hi = np.zeros(P, dtype=D.dtype)
    lo = np.zeros(P, dtype=D.dtype)
    prev = 0
    for s in range(1 << (K - c)):
        if s:
            gray = s ^ (s >> 1)
            bit = (gray ^ prev).bit_length() - 1
            prev = gray
            if (gray >> bit) & 1:
                CS += rows[c + bit]
            else:
                CS -= rows[c + bit]
        pos = np.maximum(CS, 0).sum(axis=0)
        neg = CS.sum(axis=0) - pos
        hi = np.maximum(hi, pos.max(axis=0))
        lo = np.minimum(lo, neg.min(axis=0))
    return hi, lo


def _validate_signed(F):
    rows = [[Fraction(v) for v in row] for row in F]
    K = len(rows)
    if K == 0 or any(len(row) != K for row in rows):
        raise InputError("signed step function must be a nonempty square matrix")
    for i in range(K):
        for j in range(K):
            if not -1 <= rows[i][j] <= 1:
                raise OutOfRange(f"entry ({i},{j}) = {rows[i][j]} outside [-1,1]")
    for i in range(K):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise AsymmetricMatrix(f"entries ({i},{j}) and ({j},{i}) differ")
    return rows, K


def cut_norm(F, mode="exact", exact_limit=EXACT_LIMIT, seed=0, restarts=16):
    """Cut norm of a symmetric signed step function with entries in [-1,1].

    Exact mode enumerates the 2**k row subsets (greedy optimal columns) and
    is refused above exact_limit parts. Heuristic mode runs alternating
    maximization from seeded random starts and returns the best value it
    achieves; any concrete (S, T) certifies a lower bound on the norm.
    """
    rows, K = _validate_signed(F)
    refusal = (
        f"{K} parts exceeds exact limit {exact_limit}; "
        "request heuristic mode for an achievable value"
    )
    return _mode_cut(
        lambda: _scale(rows), K, mode, exact_limit, seed, restarts, refusal
    )


def _mode_cut(build, K, mode, exact_limit, seed, restarts, refusal):
    """Cut value, by the requested mode, of the K x K integer matrix that
    build() returns with its scale L. Exact mode raises
    TooManyParts(refusal) above exact_limit parts before calling build."""
    if mode == "exact" and K > exact_limit:
        raise TooManyParts(refusal)
    rows, L = build()
    if mode == "exact":
        hi, lo = _cut_extrema(np.array([rows], dtype=object))
        val = max(int(hi[0]), -int(lo[0]))
    elif mode == "heuristic":
        val, _, _ = _heuristic_cut(rows, K, seed, restarts)
    else:
        raise InputError(f"unknown mode {mode!r}")
    return Fraction(val, L * K * K)


def _heuristic_cut(rows, K, seed, restarts):
    """Alternating maximization; returns (value, S, T), value achievable."""
    A = np.array(rows, dtype=np.float64)
    rs = RandomSource(seed)
    best, best_st = 0, (0, 0)
    for r in range(max(1, restarts)):
        for sign in (1.0, -1.0):
            if r == 0:
                s = np.ones(K)
            else:
                s = np.array([rs.getrandbits(1) for _ in range(K)], dtype=float)
            for _ in range(64):
                col = sign * (s @ A)
                t = (col > 0).astype(float)
                row = sign * (A @ t)
                s2 = (row > 0).astype(float)
                if np.array_equal(s2, s):
                    break
                s = s2
            S = [i for i in range(K) if s[i]]
            T = [j for j in range(K) if t[j]]
            val = abs(sum(rows[i][j] for i in S for j in T))
            if val > best:
                best, best_st = val, (S, T)
    return best, best_st[0], best_st[1]


def cut_norm_full_enumeration(F):
    """Independent oracle: maximize over all (S, T) subset pairs directly.

    Quadratic in the subset count, so limited to 12 parts; used to
    cross-check the row-subset + greedy-column method.
    """
    rows, K = _validate_signed(F)
    ints, L = _scale(rows)
    if K > FULL_ENUM_LIMIT:
        raise TooManyParts(f"{K} parts exceeds enumeration limit {FULL_ENUM_LIMIT}")
    m = max((abs(e) for row in ints for e in row), default=0)
    if K * K * m >= 2 ** 53:
        raise InputError("entries too large for the float64 enumeration oracle")
    Df = np.array(ints, dtype=np.float64)
    bits = _subset_bits(0, 2 ** K, K)
    CS = bits @ Df
    best = 0.0
    for lo in range(0, 2 ** K, 1 << 10):
        M = CS @ bits[lo : lo + (1 << 10)].T
        best = max(best, float(np.abs(M).max()))
    return Fraction(int(best), L * K * K)


def d_square(U, V, mode="exact", exact_limit=EXACT_LIMIT, seed=0, restarts=16):
    """Cut distance: cut norm of U - V on the common refinement.

    The refinement is the equal-width one on K = lcm of the reduced part
    counts, and exact mode refuses K > exact_limit before building it.
    """
    U, V = reduce_step_graphon(U), reduce_step_graphon(V)
    K = lcm(U.k, V.k)
    refusal = f"common refinement has {K} parts, exact limit {exact_limit}"

    def build():
        A, B, L = _scale(U.values, V.values)
        rows = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(_blow_rows(A, K), _blow_rows(B, K))
        ]
        return rows, L

    return _mode_cut(build, K, mode, exact_limit, seed, restarts, refusal)


def _int_arrays(A, B):
    """Two K x K integer matrices as arrays in the cut kernel's dtype for
    their permuted differences, whose entries are at most |a| + |b|."""
    m = max(abs(v) for M in (A, B) for row in M for v in row)
    dtype = _cut_dtype(len(A), 2 * m)
    return np.array(A, dtype=dtype), np.array(B, dtype=dtype)


def _aligned_cuts(A, B, perms):
    """Scaled cut value of A[sigma][sigma] - B for each sigma in perms."""
    hi, lo = _cut_extrema(A[perms[:, :, None], perms[:, None, :]] - B)
    return np.maximum(hi, -lo)


def _row_bounds(A, B, perms):
    """Scaled cut value at T = all parts of A[sigma][sigma] - B for each
    sigma in perms: max(sum r+, sum r-) for its row sums r = rowsum(A)[sigma]
    - rowsum(B). Each is at most the exact cut value of its alignment."""
    r = A.sum(axis=1)[perms] - B.sum(axis=1)
    pos = np.maximum(r, 0).sum(axis=1)
    return np.maximum(pos, pos - r.sum(axis=1))


def _first_min(A, B, perms):
    """Least scaled cut value over the alignments in perms, with the first
    position reaching it. They are scored in rising _row_bounds order, in
    chunks doubling from 64; one whose bound exceeds the best value so far
    cannot reach it, so it is skipped and the scan stops at the first such
    bound. Every alignment reaching the minimum is scored."""
    bounds = _row_bounds(A, B, perms)
    order = np.argsort(bounds, kind="stable")
    best, w, pos, size = float("inf"), None, 0, 64
    while pos < len(order) and bounds[order[pos]] <= best:
        chunk = order[pos : pos + size]
        chunk = chunk[bounds[chunk] <= best]
        vals = _aligned_cuts(A, B, perms[chunk])
        m = vals.min()
        first = int(chunk[vals == m].min())
        if (m, first) < (best, w):
            best, w = m, first
        pos, size = pos + size, 2 * size
    return int(best), w


def _all_perms_min(A, B):
    """_first_min over all K! alignments: the exact least scaled cut value
    and the first permutation attaining it; A and B come from _int_arrays."""
    perms = np.array(list(permutations(range(len(A)))), dtype=np.intp)
    best, w = _first_min(A, B, perms)
    return best, tuple(int(x) for x in perms[w])


def _sorted_row_keys(rows):
    return [tuple(sorted(row)) for row in rows]


class _Budget:
    def __init__(self, total):
        self.left = total

    def take(self, n=1):
        if self.left < n:
            return False
        self.left -= n
        return True


def _descent(A, B, sigma, sigma_val, K, budget, rs, restarts):
    """Steepest descent over transpositions from sigma, whose value
    sigma_val the caller has scored, then from `restarts` shuffled starts at
    one budget unit each. A sweep takes min(budget.left, K(K-1)/2) units up
    front for that many transpositions of the current order, in (i, j)
    order, scores in one call those whose _row_bounds value is below the
    current value (no other can beat it) and moves to the first strict
    minimum below it; the sweep ends the descent when none is."""
    I, J = np.triu_indices(K, 1)
    rows = np.arange(len(I))
    best_val, best_sigma = sigma_val, tuple(sigma)
    for r in range(restarts + 1):
        if r > 0:
            if not budget.take():
                break
            cur = list(range(K))
            rs.shuffle(cur)
            cur = np.array(cur)
            cur_val = _aligned_cuts(A, B, cur[None])[0]
        else:
            cur, cur_val = np.array(sigma), best_val
        while len(I) and budget.left > 0:
            n = min(budget.left, len(I))
            budget.take(n)
            swaps = np.tile(cur, (n, 1))
            swaps[rows[:n], I[:n]] = cur[J[:n]]
            swaps[rows[:n], J[:n]] = cur[I[:n]]
            swaps = swaps[_row_bounds(A, B, swaps) < cur_val]
            if not len(swaps):
                break
            vals = _aligned_cuts(A, B, swaps)
            w = int(np.argmin(vals))
            if not vals[w] < cur_val:
                break
            cur, cur_val = swaps[w], vals[w]
        if cur_val < best_val:
            best_val, best_sigma = cur_val, tuple(int(x) for x in cur)
    return best_val, best_sigma


def hat_delta(G, H, mode="exact", budget=2000, seed=0, restarts=16):
    """Alignment cut distance between two graphs on the same vertex count.

    Exact mode is the least cut over all |V|! permutations (|V| <= 8 only),
    screened by _first_min; lower = upper = it. Heuristic mode is the
    alignment search of delta_bound on the adjacency rows (_row_delta); its
    upper bound has a witness through EXACT_LIMIT vertices and is a
    certified bound without one above, and lower is 0.
    """
    if G.n != H.n:
        raise SizeMismatch(f"vertex counts differ: {G.n} vs {H.n}")
    if G.n == 0:
        raise EmptyGraph("alignment distance needs at least one vertex")
    if mode == "exact" and G.n > HAT_EXACT_LIMIT:
        raise ExactTooLarge(
            f"{G.n}! permutations exceed the exact limit ({HAT_EXACT_LIMIT}!)"
        )
    if mode not in ("exact", "heuristic"):
        raise InputError(f"unknown mode {mode!r}")
    AG, AH = adjacency_rows(G), adjacency_rows(H)
    return _row_delta(AG, AH, mode == "exact", budget, seed, restarts)


def _row_delta(AG, AH, exact, budget, seed, restarts=16):
    """hat_delta on two n x n 0/1 adjacency row lists. The heuristic scores
    the identity free of budget and charges the canonical start, equal to
    the identity or not."""
    n = len(AG)
    if exact:
        best, sigma = _all_perms_min(*_int_arrays(AG, AH))
        val = Fraction(best, n * n)
        return DeltaBound(val, val, (1, sigma))
    val, sigma = _align(
        AG, AH, 1, _Budget(budget), RandomSource(seed), restarts, EXACT_LIMIT,
        cap=1, free=1,
    )
    return DeltaBound(Fraction(0), val, None if sigma is None else (1, sigma))


def _align(ru, rv, L, bud, rs, restarts, limit, cap, free=0):
    """The alignment search: best (value, sigma) over alignments of the
    K x K scaled rows ru onto rv, or (None, None) if none was scored.

    The candidates are the identity, then the sorted-profile matches
    (_canonical_perms under cap). The first `free` candidates cost no
    budget; the rest are deduplicated and cost one unit each, taken up
    front for as many as the budget covers. Up to `limit` parts the scored
    candidates are stacked into one exact cut call and steepest descent
    runs from the first best one, each sweep stacked likewise. Above it the
    matches are taken under cap 1, the profile-group fits are added, and
    every candidate is scored by _certified_upper with no descent; sigma is
    then None, since the value is a certified bound and not the cut
    distance of a witness.
    """
    K = len(ru)
    certified = K > limit
    cands = [tuple(range(K))]
    cands += _canonical_perms(ru, rv, K, 1 if certified else cap)
    if certified:
        cands += _profile_perms(ru, rv, K)
    cands = cands[:free] + list(dict.fromkeys(cands[free:]))
    n = free + max(0, min(bud.left, len(cands) - free))
    bud.take(n - free)
    if n == 0:
        return None, None
    A, B = _int_arrays(ru, rv)
    if certified:
        best = min(_certified_upper(A[np.ix_(p, p)] - B, K, L) for p in cands[:n])
        return best, None
    best, i = _first_min(A, B, np.array(cands[:n]))
    best, sigma = _descent(A, B, cands[i], best, K, bud, rs, restarts)
    return Fraction(int(best), L * K * K), sigma


def _iroot_ceil(x, r):
    """Smallest integer y with y**r >= x, for x >= 0."""
    if x <= 0:
        return 0
    y = max(1, int(round(x ** (1.0 / r))))
    while y ** r < x:
        y += 1
    while y > 1 and (y - 1) ** r >= x:
        y -= 1
    return y


def _certified_upper(D, K, L):
    """Certified upper bound on the cut value of a scaled symmetric matrix.

    D is a K x K integer array, or a list of rows. min over: Gershgorin and
    trace-power bounds on the top singular value (|1_S D 1_T| <= sigma * K),
    the L1 cap, and 1. The absolute sums run in int64 while K*K*max|e| <
    2**63 and in Python integers above. The trace of D**(2m) is accumulated
    in exact integer arithmetic from float64 powers whose entries stay
    below 2**53. It is taken only at the largest such m up to 12: for
    symmetric D, tr(D**(2m))**(1/2m) is the 2m-norm of the eigenvalues,
    which does not increase with m, and neither does its integer ceiling.
    """
    E = np.abs(D if isinstance(D, np.ndarray) else np.array(D, dtype=object))
    maxabs = int(E.max())
    dtype = np.int64 if K * K * maxabs < 2 ** 63 else object
    row_abs = E.astype(dtype, copy=False).sum(axis=1)
    d1_cap = Fraction(int(row_abs.sum()), L * K * K)
    sigma_bound = int(row_abs.max())
    if maxabs and maxabs * K * maxabs < 2 ** 53:
        Df = np.asarray(D, dtype=np.float64)
        power, ebound, m = Df, maxabs, 1
        while m < 12 and ebound * K * maxabs < 2 ** 53:
            power = power @ Df
            ebound *= K * maxabs
            m += 1
        v = power.ravel().astype(np.int64).astype(object)
        sigma_bound = min(sigma_bound, _iroot_ceil(int(v @ v), 2 * m))
    return min(Fraction(sigma_bound, L * K), d1_cap, Fraction(1))


def _unique_profiles(rows):
    profiles, slots = [], []
    seen = {}
    for i, row in enumerate(rows):
        t = tuple(row)
        if t not in seen:
            seen[t] = len(profiles)
            profiles.append(t)
            slots.append([])
        slots[seen[t]].append(i)
    return profiles, slots


def _profile_perms(rows_ref, rows_other, K, rounds=3):
    """Assign each part of the other graphon to a reference profile group.

    Scores live in the other side's own column labeling: the model value at
    column c for a row assigned to group q is the group-block value against
    c's currently assigned group, so the fit is refined over a few rounds.
    A spectral split seeds the two-group case, in both orientations; more
    groups start from the greedy positional fit.
    """
    profiles, slots = _unique_profiles(rows_ref)
    Q = len(profiles)
    if Q > 8:
        return []
    if Q == 1:
        return [tuple(range(K))]
    X = np.array(rows_other, dtype=np.float64)
    # block value between group q and group r, read off any representative
    B = np.array(
        [[profiles[q][slots[r][0]] for r in range(Q)] for q in range(Q)],
        dtype=np.float64,
    )
    caps = [len(s) for s in slots]

    def assign_from(scores):
        # most-regretful rows pick first, under group capacities
        ranked = np.sort(scores, axis=1)
        order = np.argsort(-(ranked[:, 1] - ranked[:, 0]), kind="stable")
        left = list(caps)
        assign = [-1] * K
        for i in order:
            for q in np.argsort(scores[i], kind="stable"):
                if left[int(q)] > 0:
                    left[int(q)] -= 1
                    assign[int(i)] = int(q)
                    break
        return assign

    def refine(assign):
        for _ in range(rounds):
            model = B[:, assign]
            scores = ((X[:, None, :] - model[None, :, :]) ** 2).sum(axis=2)
            assign = assign_from(scores)
        return assign

    starts = []
    if Q == 2:
        centered = X - X.mean()
        w, v = np.linalg.eigh(centered)
        lead = v[:, -1] if abs(w[-1]) >= abs(w[0]) else v[:, 0]
        order = np.argsort(lead, kind="stable")
        for flip in (False, True):
            assign = [0] * K
            ranked = order[::-1] if flip else order
            for pos, i in enumerate(ranked):
                assign[int(i)] = 0 if pos < caps[0] else 1
            starts.append(assign)
    else:
        P = np.array(profiles, dtype=np.float64)
        starts.append(assign_from(((X[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)))

    out = []
    for start in starts:
        assign = refine(start)
        cur = [list(slots[q]) for q in range(Q)]
        out.append(tuple(cur[q].pop(0) for q in assign))
    return out


def _tie_block_perms(keys, base_order, cap):
    """All reorderings of a sorted part order within equal-key blocks."""
    blocks = []
    i = 0
    while i < len(base_order):
        j = i
        while j < len(base_order) and keys[base_order[j]] == keys[base_order[i]]:
            j += 1
        blocks.append(base_order[i:j])
        i = j
    count = 1
    for b in blocks:
        count *= factorial(len(b))
        if count > cap:
            return [base_order]
    outs = [[]]
    for b in blocks:
        outs = [o + list(p) for o in outs for p in permutations(b)]
    return outs


def _canonical_perms(rows_u, rows_v, K, cap):
    keys_u, keys_v = _sorted_row_keys(rows_u), _sorted_row_keys(rows_v)
    ord_v = sorted(range(K), key=lambda i: (keys_v[i], i))
    base_u = sorted(range(K), key=lambda i: (keys_u[i], i))
    sigmas = []
    for ord_u in _tie_block_perms(keys_u, base_u, cap):
        sigma = [0] * K
        for r in range(K):
            sigma[ord_v[r]] = ord_u[r]
        sigmas.append(tuple(sigma))
    return sigmas


def _counting_lower(U, V, vertex_limit, cost_limit):
    """Largest density-gap bound over small graphs: |t gap| / (4 C(n,2)).

    A graph refused on either side is skipped; V is evaluated only on the
    graphs U did not refuse.
    """
    graphs = []
    i = 1
    while (F := enumerate_graph(i)).n <= vertex_limit:
        graphs.append(F)
        i += 1
    kept = [
        (F, t)
        for F, t in zip(graphs, _t_ind_many(graphs, U, cost_limit))
        if not isinstance(t, TooExpensive)
    ]
    tv = _t_ind_many([F for F, _ in kept], V, cost_limit)
    best = Fraction(0)
    for (F, tu), t in zip(kept, tv):
        if isinstance(t, TooExpensive):
            continue
        best = max(best, abs(tu - t) / (4 * comb(F.n, 2)))
    return best


def delta_bound(
    U,
    V,
    blowup_limit=1,
    budget=10 ** 4,
    seed=0,
    exact_refinement_limit=ALIGN_EXACT_LIMIT,
    lower_vertex_limit=4,
    cost_limit=COST_LIMIT,
):
    """Two-sided bracket on the alignment cut distance between graphons.

    The lower bound inverts the density counting bound over all enumerated
    graphs with at most lower_vertex_limit vertices, on U and V as given, so
    their t_ind state stays on them. The upper bound is the best aligned cut
    distance found within the budget: up to exact_refinement_limit parts of
    the common refinement, an exact cut (the screened minimum over all K!
    when the budget covers K!, otherwise the search _align shared with
    hat_delta); above it, certified spectral and L1 upper bounds, so the
    bracket stays valid but carries no witness.
    """
    if blowup_limit < 1:
        raise InputError(f"blow-up limit must be positive, got {blowup_limit}")
    lower = _counting_lower(U, V, lower_vertex_limit, cost_limit)
    U, V = reduce_step_graphon(U), reduce_step_graphon(V)
    su, sv, L = _scale(U.values, V.values)
    rs = RandomSource(seed)
    bud = _Budget(budget)
    upper, witness = Fraction(1), None
    for m in range(1, blowup_limit + 1):
        if m > 1 and bud.left <= 0:
            break
        K = m * lcm(U.k, V.k)
        ru, rv = _blow_rows(su, K), _blow_rows(sv, K)
        if K <= exact_refinement_limit and factorial(K) <= bud.left:
            bud.take(factorial(K))
            best_int, sigma = _all_perms_min(*_int_arrays(ru, rv))
            val = Fraction(best_int, L * K * K)
        else:
            cap = min(720, bud.left)
            val, sigma = _align(
                ru, rv, L, bud, rs, 3, exact_refinement_limit, cap
            )
        if val is not None and val < upper:
            upper, witness = val, None if sigma is None else (m, sigma)
    return DeltaBound(lower, upper, witness)


def d_w_truncated(U, V, N, cost_limit=COST_LIMIT):
    """Truncated enumeration metric plus a certified tail bound.

    value = sum over i < N of 2**-i times the t_ind gap at the i-th
    enumerated graph; tail = 2**-(N-1) bounds the omitted terms since every
    gap is at most 1. A refusal is raised for the first refused graph, U's
    before V's.
    """
    if N < 1:
        raise InputError(f"truncation length must be positive, got {N}")
    graphs = [enumerate_graph(i) for i in range(N)]
    tu = _t_ind_many(graphs, U, cost_limit)
    stop = next(
        (i for i, t in enumerate(tu) if isinstance(t, TooExpensive)), N
    )
    tv = _t_ind_many(graphs[:stop], V, cost_limit)
    value = Fraction(0)
    for i, (a, b) in enumerate(zip(tu, tv)):
        if isinstance(b, TooExpensive):
            raise b
        value += Fraction(1, 2 ** i) * abs(a - b)
    if stop < N:
        raise tu[stop]
    return value, Fraction(1, 2 ** (N - 1))
