"""Exact metrics: L1, L2, cut norm, alignment brackets, truncated d_w."""

import time
from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm

import numpy as np
import pytest

from conftest import random_graphon
from graphonlab import (
    DeltaBound,
    RandomSource,
    blow_up,
    common_refinement,
    constant_graphon,
    cut_norm,
    cut_norm_full_enumeration,
    d1,
    d2,
    d_square,
    d_w_truncated,
    delta_bound,
    empirical_graphon,
    finite_graph,
    graphon_of_graph,
    hat_delta,
    make_step_graphon,
    permute_parts,
    reduce_step_graphon,
)
from graphonlab import densities, metrics
from graphonlab.core import adjacency_rows
from graphonlab.errors import (
    AsymmetricMatrix,
    EmptyGraph,
    ExactTooLarge,
    InputError,
    OutOfRange,
    SizeMismatch,
    TooManyParts,
)
from graphonlab.metrics import (
    ALIGN_EXACT_LIMIT,
    EXACT_LIMIT,
    _TABLE_CELLS,
    _all_perms_min,
    _certified_upper,
    _cut_extrema,
    _int_arrays,
    _iroot_ceil,
    _scale,
)

F = Fraction
CHECKER = make_step_graphon(2, [[0, 1], [1, 0]])
P4 = finite_graph(4, [(0, 1), (1, 2), (2, 3)])


def test_l1_and_l2_hand_values():
    A = constant_graphon(F(3, 4))
    B = constant_graphon(F(1, 4))
    assert d1(A, B) == F(1, 2)
    assert d2(A, B) == F(1, 4)
    assert d1(A, A) == 0 and d2(B, B) == 0
    # mixed part counts refine to the lcm grid
    W = make_step_graphon(2, [[1, 0], [0, 1]])
    assert d1(W, constant_graphon(F(1, 2))) == F(1, 2)


def test_cut_norm_checker_sign_matrix():
    # best box takes one positive cell: 1/2 over a quarter of the square
    M = [[F(-1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]]
    assert cut_norm(M) == F(1, 8)
    assert cut_norm_full_enumeration(M) == F(1, 8)


def test_cut_norm_validates_input():
    with pytest.raises(OutOfRange):
        cut_norm([[F(3, 2)]])
    with pytest.raises(AsymmetricMatrix):
        cut_norm([[0, F(1, 2)], [F(1, 4), 0]])
    with pytest.raises(InputError):
        cut_norm([[0, 0]])
    with pytest.raises(TooManyParts):
        cut_norm([[0] * 21 for _ in range(21)])
    with pytest.raises(TooManyParts):
        cut_norm_full_enumeration([[0] * 13 for _ in range(13)])
    with pytest.raises(InputError):
        cut_norm([[0]], mode="fast")


def test_cut_norm_routes_agree_on_random_differences():
    rs = RandomSource(11)
    for _ in range(40):
        k = 1 + rs.below(10)
        U, V = random_graphon(k, rs), random_graphon(k, rs)
        diff = [
            [U.values[i][j] - V.values[i][j] for j in range(k)]
            for i in range(k)
        ]
        exact = cut_norm(diff)
        assert exact == cut_norm_full_enumeration(diff)
        # a heuristic value is achieved by a concrete box, never above
        assert cut_norm(diff, mode="heuristic") <= exact


def test_d_square_dominated_by_d1_and_blow_up_invariant():
    rs = RandomSource(12)
    for _ in range(20):
        k = 1 + rs.below(6)
        U, V = random_graphon(k, rs), random_graphon(k, rs)
        assert d_square(U, V) <= d1(U, V)
        assert d_square(U, blow_up(U, 2)) == 0
        assert d_square(blow_up(U, 3), V) == d_square(U, V)


def test_d_square_positive_on_distinct_averages():
    assert d_square(constant_graphon(F(1, 2)), constant_graphon(0)) == F(1, 2)
    # difference is the checker sign matrix: one positive cell, value 1/8
    assert d_square(CHECKER, constant_graphon(F(1, 2))) == F(1, 8)


def test_hat_delta_exact_on_relabeled_graph():
    G = finite_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    sigma = (3, 0, 4, 1, 2)
    H = finite_graph(5, [(sigma[a], sigma[b]) for a, b in G.edges])
    db = hat_delta(G, H)
    assert db.lower == db.upper == 0
    assert db.witness is not None


def test_hat_delta_hand_value_and_modes():
    G = finite_graph(2, [(0, 1)])
    H = finite_graph(2, [])
    db = hat_delta(G, H)
    # the edge cell pair survives every relabeling: 2 cells of 1/4 each
    assert db.lower == db.upper == F(1, 2)
    heur = hat_delta(G, H, mode="heuristic")
    assert heur.lower == 0 and heur.upper >= F(1, 2)
    with pytest.raises(SizeMismatch):
        hat_delta(G, finite_graph(3, []))
    with pytest.raises(ExactTooLarge):
        hat_delta(finite_graph(9, []), finite_graph(9, []))


def test_delta_bound_bracket_and_permutation_blindness():
    rs = RandomSource(13)
    for _ in range(10):
        k = 2 + rs.below(5)
        U = random_graphon(k, rs)
        V = permute_parts(U, tuple(rs.shuffle(list(range(k)))))
        db = delta_bound(U, V, budget=10 ** 5)
        assert db.lower == 0 and db.upper == 0


def test_delta_bound_orders_lower_upper():
    rs = RandomSource(14)
    U, V = random_graphon(6, rs), random_graphon(6, rs)
    db = delta_bound(U, V, budget=10 ** 4)
    assert isinstance(db, DeltaBound)
    assert 0 <= db.lower <= db.upper <= d_square(U, V)
    assert db.witness is not None


def test_delta_bound_certified_route_stays_valid():
    # refinements beyond the exact limit fall back to certified bounds
    src = make_step_graphon(
        2, [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]
    )
    emp = empirical_graphon(src, 16, RandomSource(1000))
    db = delta_bound(src, emp, lower_vertex_limit=2)
    assert 0 <= db.lower <= db.upper <= 1
    assert db.witness is None


def test_d_w_truncated_extreme_constants():
    zero, one = constant_graphon(0), constant_graphon(1)
    head, tail = d_w_truncated(zero, one, 5)
    # gaps of 1 at the two-vertex graphs and the empty three-vertex graph
    assert head == F(7, 8)
    assert tail == F(1, 16)
    assert d_w_truncated(zero, zero, 8)[0] == 0
    with pytest.raises(InputError):
        d_w_truncated(zero, one, 0)


def test_d_w_truncated_presentation_invariance():
    W = graphon_of_graph(P4)
    head_a, _ = d_w_truncated(W, constant_graphon(F(1, 2)), 8)
    head_b, _ = d_w_truncated(blow_up(W, 3), constant_graphon(F(1, 2)), 8)
    assert head_a == head_b


def _brute_extrema(M):
    """(max, min) of the sum over S x T, every pair of subsets, in Python ints."""
    K = len(M)
    sums = [
        sum(M[i][j] for i in range(K) if S >> i & 1 for j in range(K) if T >> j & 1)
        for S in range(1 << K)
        for T in range(1 << K)
    ]
    return max(sums), min(sums)


@pytest.mark.parametrize("den", [64, 2 ** 40, 2 ** 70])
def test_cut_kernel_matches_brute_force(den):
    rs = RandomSource(den % 997)
    for K in range(1, 7):
        mats = [
            [[rs.below(2 * den + 1) - den for _ in range(K)] for _ in range(K)]
            for _ in range(3)
        ]
        # enough copies that the table cannot hold all rows: the sweep runs
        reps = _TABLE_CELLS // (len(mats) * K << K) + 1
        hi, lo = _cut_extrema(np.array(mats * reps, dtype=object))
        assert hi.dtype == (object if den == 2 ** 70 else np.int64)
        expected = [_brute_extrema(M) for M in mats] * reps
        assert [(int(a), int(b)) for a, b in zip(hi, lo)] == expected


def test_cut_kernel_on_all_permuted_differences():
    rs = RandomSource(21)
    K = 6
    U, V = random_graphon(K, rs), random_graphon(K, rs)
    ru, rv, L = _scale(U.values, V.values)
    A, B = _int_arrays(ru, rv)
    perms = np.array(list(permutations(range(K))))
    D = A[perms[:, :, None], perms[:, None, :]] - B
    assert len(D) * K << K > _TABLE_CELLS
    hi, lo = _cut_extrema(D)
    for p in range(len(D)):
        M = [[F(int(v), L) for v in row] for row in D[p]]
        value = F(max(int(hi[p]), -int(lo[p])), L * K * K)
        assert value == cut_norm_full_enumeration(M)


def test_all_perms_min_is_the_permutation_minimum():
    rs = RandomSource(22)
    for K in (2, 3, 4, 5):
        U, V = random_graphon(K, rs), random_graphon(K, rs)
        ru, rv, L = _scale(U.values, V.values)
        best, sigma = _all_perms_min(*_int_arrays(ru, rv))
        value = F(best, L * K * K)
        assert value == min(
            d_square(permute_parts(U, s), V) for s in permutations(range(K))
        )
        assert d_square(permute_parts(U, sigma), V) == value


def test_hat_delta_refuses_empty_graphs():
    E = finite_graph(0, [])
    for mode in ("exact", "heuristic"):
        with pytest.raises(EmptyGraph):
            hat_delta(E, E, mode=mode)


def _permutation_minimum(U, V):
    return min(d_square(permute_parts(U, s), V) for s in permutations(range(U.k)))


def test_delta_bound_sound_past_int64_two_parts():
    # scale lcm(2**61 - 1, 2**31) does not fit int64 at all
    U = make_step_graphon(2, [[F(1, 2 ** 61 - 1), 0], [0, 1]])
    V = make_step_graphon(2, [[F(1, 2 ** 31), 0], [0, 0]])
    db = delta_bound(U, V)
    assert db.upper == _permutation_minimum(U, V)


def test_delta_bound_sound_past_int64_four_parts():
    # entries fit int64 but 16 * max|entry| exceeds 2**62: subset sums wrap
    L = 2 ** 60 - 1
    U = make_step_graphon(4, [[F(L - 1 - i - j, L) for j in range(4)] for i in range(4)])
    V = make_step_graphon(4, [[F(1 + i * j, L) for j in range(4)] for i in range(4)])
    db = delta_bound(U, V, lower_vertex_limit=1)
    assert db.upper == _permutation_minimum(U, V)
    assert db.upper > F(9, 10)


def _lcm_oracle(U, V):
    """(d1, d2) cell by cell on the lcm blow-up: each cell difference is an
    integer over the product of the two cell denominators, summed per
    denominator and combined in Fractions at the end."""
    Ur, Vr = common_refinement(U, V)
    l1, l2 = defaultdict(int), defaultdict(int)
    for ra, rb in zip(Ur.values, Vr.values):
        for a, b in zip(ra, rb):
            q = a.denominator * b.denominator
            d = a.numerator * b.denominator - b.numerator * a.denominator
            l1[q] += abs(d)
            l2[q * q] += d * d
    cells = Ur.k * Ur.k
    return (
        sum(F(v, q) for q, v in l1.items()) / cells,
        sum(F(v, q) for q, v in l2.items()) / cells,
    )


@pytest.mark.parametrize("den", [64, 2 ** 31, 2 ** 70])
def test_d1_d2_match_the_lcm_blow_up(den):
    rs = RandomSource(den % 1009)
    for a, b in [(4, 6), (6, 10), (15, 16), (31, 32), (1, 7), (5, 1)]:
        U, V = random_graphon(a, rs, den), random_graphon(b, rs, den)
        assert (d1(U, V), d2(U, V)) == _lcm_oracle(U, V)
    # a presentation that reduces: a blow-up against a coarser graphon
    U, V = random_graphon(3, rs, den), random_graphon(2, rs, den)
    assert (d1(blow_up(U, 4), V), d2(blow_up(U, 4), V)) == _lcm_oracle(U, V)


def test_d1_on_31_against_32_parts_is_fast():
    rs = RandomSource(31)
    U, V = random_graphon(31, rs), random_graphon(32, rs)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        d1(U, V)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05


def test_d_square_refuses_before_building(monkeypatch):
    rs = RandomSource(32)
    U, V = random_graphon(31, rs), random_graphon(32, rs)

    def unreachable(*args):
        raise AssertionError("refinement built before the refusal")

    monkeypatch.setattr(metrics, "_scale", unreachable)
    monkeypatch.setattr(metrics, "_blow_rows", unreachable)
    with pytest.raises(TooManyParts) as info:
        d_square(U, V)
    assert str(info.value) == "common refinement has 992 parts, exact limit 20"


def test_delta_bound_witness_replays_on_unequal_parts():
    rs = RandomSource(33)
    for a, b in [(2, 3), (2, 4), (3, 6), (4, 6)]:
        U = reduce_step_graphon(random_graphon(a, rs))
        V = reduce_step_graphon(random_graphon(b, rs))
        db = delta_bound(U, V, lower_vertex_limit=2)
        m, sigma = db.witness
        K = len(sigma)
        aligned = permute_parts(blow_up(U, K // U.k), sigma)
        assert d_square(aligned, blow_up(V, K // V.k)) == db.upper
        assert db.upper <= d_square(U, V)


def _certified_upper_every_power(rows, K, L):
    """_certified_upper as a minimum over every admissible trace power."""
    total_abs = sum(abs(e) for row in rows for e in row)
    d1_cap = F(total_abs, L * K * K)
    sigma_bound = max(sum(abs(e) for e in row) for row in rows)
    maxabs = max((abs(e) for row in rows for e in row), default=0)
    if maxabs and maxabs * K * maxabs < 2 ** 53:
        Df = np.array(rows, dtype=np.float64)
        power = Df.copy()
        ebound = maxabs
        m = 1
        while True:
            nb = ebound * K * maxabs
            if nb >= 2 ** 53 or m >= 12:
                break
            power = power @ Df
            ebound = nb
            m += 1
            tr = sum(int(v) * int(v) for v in power.ravel().tolist())
            sigma_bound = min(sigma_bound, _iroot_ceil(tr, 2 * m))
    return min(F(sigma_bound, L * K), d1_cap, F(1))


def test_certified_upper_equals_the_minimum_over_powers():
    rs = RandomSource(34)
    for K, span in [(2, 1), (3, 5), (5, 64), (8, 2 ** 10), (16, 2 ** 20), (24, 3)]:
        for _ in range(10):
            rows = [[0] * K for _ in range(K)]
            for i in range(K):
                for j in range(i, K):
                    rows[i][j] = rows[j][i] = rs.below(2 * span + 1) - span
            L = span * K
            expect = _certified_upper_every_power(rows, K, L)
            assert _certified_upper(rows, K, L) == expect
            assert _certified_upper(np.array(rows), K, L) == expect


@pytest.mark.parametrize("K", [4, 8])
@pytest.mark.parametrize("d", [-1, 0, 1])
def test_certified_upper_at_the_int64_edge(K, d):
    # every |entry| is m, so the absolute sum K*K*m lies just below
    # (d = -1), at or above 2**63, where it wraps in int64
    m = 2 ** 63 // (K * K) + d
    rs = RandomSource(35 + K + d)
    rows = [[m] * K for _ in range(K)]
    for i in range(K):
        for j in range(i, K):
            if rs.below(2):
                rows[i][j] = rows[j][i] = -m
    L = 4 * m
    expect = _certified_upper_every_power(rows, K, L)
    assert expect == F(1, 4)
    for D in (rows, np.array(rows, dtype=np.int64), np.array(rows, dtype=object)):
        assert _certified_upper(D, K, L) == expect


def _sequential_descent(evaluate, sigma, K, budget, rs, restarts):
    """Steepest descent over transpositions, one evaluate() and one budget
    unit per transposition, as the search ran before it was stacked."""
    best_val, best_sigma = evaluate(sigma), tuple(sigma)
    for r in range(restarts + 1):
        if r > 0:
            if not budget.take():
                break
            cur = list(range(K))
            rs.shuffle(cur)
            cur_val = evaluate(tuple(cur))
        else:
            cur, cur_val = list(sigma), best_val
        improved = True
        while improved and budget.left > 0:
            improved = False
            step_val, step_swap = cur_val, None
            for i in range(K):
                for j in range(i + 1, K):
                    if not budget.take():
                        break
                    cur[i], cur[j] = cur[j], cur[i]
                    v = evaluate(tuple(cur))
                    cur[i], cur[j] = cur[j], cur[i]
                    if v < step_val:
                        step_val, step_swap = v, (i, j)
                else:
                    continue
                break
            if step_swap is not None:
                i, j = step_swap
                cur[i], cur[j] = cur[j], cur[i]
                cur_val = step_val
                improved = True
        if cur_val < best_val:
            best_val, best_sigma = cur_val, tuple(cur)
    return best_val, best_sigma


def _graph_loop_reference(G, H, budget, seed, restarts):
    """Heuristic hat_delta as a graph-only loop of its own: the identity
    scored free, the canonical start charged even when it is the identity,
    the least (value, sigma) pair as the descent start."""
    n = G.n
    AG, AH = adjacency_rows(G), adjacency_rows(H)
    A, B = _int_arrays(AG, AH)

    def evaluate(sigma):
        cut = metrics._aligned_cuts(A, B, np.array([sigma]))[0]
        return F(int(cut), n * n)

    bud = metrics._Budget(budget)
    rs = RandomSource(seed)
    start = metrics._canonical_perms(AG, AH, n, cap=1)[0]
    cand = [(evaluate(tuple(range(n))), tuple(range(n)))]
    if bud.take():
        cand.append((evaluate(start), start))
    base_val, base_sigma = min(cand)
    val, sigma = _sequential_descent(evaluate, base_sigma, n, bud, rs, restarts)
    if base_val < val:
        val, sigma = base_val, base_sigma
    return DeltaBound(F(0), val, (1, sigma))


def _random_graph(n, rs):
    return finite_graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rs.below(2)]
    )


@pytest.mark.parametrize("budget", [0, 1, 5, 37, 300, 2000])
def test_hat_delta_heuristic_matches_the_graph_loop(budget):
    # budget 37 runs out inside a transposition sweep from n = 10 on; an
    # exact cut on n vertices costs 2**n work, so larger budgets stop early
    rs = RandomSource(40 + budget)
    for n in range(2, {37: 17, 300: 15, 2000: 15}.get(budget, 21)):
        restarts = (0, 3, 16)[n % 3]
        G, H = _random_graph(n, rs), _random_graph(n, rs)
        got = hat_delta(
            G, H, mode="heuristic", budget=budget, seed=n, restarts=restarts
        )
        assert got == _graph_loop_reference(G, H, budget, n, restarts)


def test_hat_delta_above_the_exact_limit_is_certified_without_cuts(monkeypatch):
    def no_exact_cut(D):
        raise AssertionError(f"exact cut on {D.shape[-1]} parts")

    monkeypatch.setattr(metrics, "_cut_extrema", no_exact_cut)
    rs = RandomSource(41)
    n = EXACT_LIMIT + 4
    G, H = _random_graph(n, rs), _random_graph(n, rs)
    b = hat_delta(G, H, mode="heuristic")
    assert b.witness is None and b.lower == 0
    # S = T = all vertices: the edge-count gap bounds every alignment
    assert F(2 * abs(len(G.edges) - len(H.edges)), n * n) <= b.upper <= 1


def _circulant(k, rs):
    g = [rs.below(65) for _ in range(k // 2 + 1)]
    return make_step_graphon(
        k,
        [[F(g[min((i - j) % k, (j - i) % k)], 64) for j in range(k)]
         for i in range(k)],
    )


# seed -> (upper, witness) of delta_bound on two circulant graphons with
# budget 10 + seed % 30, recorded from the graphon loop as it ran before
# the shared search. A circulant's rows share one sorted key, so its
# sorted-profile match is the identity again; seed 176 changes if that
# duplicate is scored and charged twice.
CIRCULANT_PINS = {
    48: (F(25, 384), (1, (4, 1, 0, 3, 2, 5))),
    51: (F(35, 576), (1, (4, 0, 2, 3, 1, 5))),
    59: (F(151, 2048), (1, (2, 0, 1, 3, 4, 5, 6, 7))),
    176: (F(359, 4096), (1, (7, 2, 5, 3, 6, 1, 4, 0))),
}


@pytest.mark.parametrize("seed", list(CIRCULANT_PINS))
def test_delta_bound_search_is_pinned_on_circulants(seed):
    rs = RandomSource(seed)
    k = 6 + seed % 3
    U, V = _circulant(k, rs), _circulant(k, rs)
    b = delta_bound(U, V, budget=10 + seed % 30, seed=seed, lower_vertex_limit=1)
    assert (b.upper, b.witness) == CIRCULANT_PINS[seed]


def _align_reference(ru, rv, L, bud, rs, restarts, limit, cap):
    """delta_bound's search as a loop of its own: one exact cut, or one
    certified bound on list rows, per candidate and per transposition."""
    K = len(ru)
    certified = K > limit
    cands = [tuple(range(K))]
    cands += metrics._canonical_perms(ru, rv, K, 1 if certified else cap)
    if certified:
        cands += metrics._profile_perms(ru, rv, K)

        def evaluate(sigma):
            rows = [[ru[sigma[i]][sigma[j]] - rv[i][j] for j in range(K)]
                    for i in range(K)]
            return _certified_upper(rows, K, L)
    else:
        A, B = _int_arrays(ru, rv)

        def evaluate(sigma):
            cut = metrics._aligned_cuts(A, B, np.array([sigma]))[0]
            return F(int(cut), L * K * K)

    best = None
    for sigma in dict.fromkeys(cands):
        if not bud.take():
            break
        v = evaluate(sigma)
        if best is None or v < best[0]:
            best = (v, sigma)
    if best is None:
        return None, None
    if certified:
        return best[0], None
    return _sequential_descent(evaluate, best[1], K, bud, rs, restarts)


def _delta_bound_reference(U, V, budget, seed, limit):
    """delta_bound with blow-up limit 1 and lower_vertex_limit 1 (lower 0),
    searching with _align_reference."""
    U, V = reduce_step_graphon(U), reduce_step_graphon(V)
    su, sv, L = _scale(U.values, V.values)
    K = lcm(U.k, V.k)
    ru, rv = metrics._blow_rows(su, K), metrics._blow_rows(sv, K)
    if K <= limit and factorial(K) <= budget:
        best, sigma = _all_perms_min(*_int_arrays(ru, rv))
        val = F(best, L * K * K)
    else:
        val, sigma = _align_reference(
            ru, rv, L, metrics._Budget(budget), RandomSource(seed), 3, limit,
            min(720, budget),
        )
    if val is None or val >= 1:
        return DeltaBound(F(0), F(1), None)
    return DeltaBound(F(0), val, None if sigma is None else (1, sigma))


SEARCH_BUDGETS = [0, 1, 5, 37, 300, 10 ** 4]


@pytest.mark.parametrize("den", [64, 2 ** 31, 2 ** 70])
def test_stacked_search_matches_the_sequential_loop(den):
    # budget 1 runs out inside the candidate list, 5 and 37 inside a sweep;
    # at 2**70 the kernel computes on Python integers, slowly enough that
    # budgets above 37 stop at 9 parts there
    rs = RandomSource(den % 1009)
    for K in range(7, 13):
        for budget in SEARCH_BUDGETS:
            U, V = random_graphon(K, rs, den), random_graphon(K, rs, den)
            if den > 2 ** 62 and budget > 37 and K > 9:
                continue
            got = delta_bound(U, V, budget=budget, seed=K, lower_vertex_limit=1)
            assert got == _delta_bound_reference(U, V, budget, K, ALIGN_EXACT_LIMIT)
    for K in (5, 6, 9):
        for budget in SEARCH_BUDGETS:
            U, V = random_graphon(K, rs, den), random_graphon(K, rs, den)
            got = delta_bound(U, V, budget=budget, lower_vertex_limit=1,
                              exact_refinement_limit=4)
            assert got.witness is None
            assert got == _delta_bound_reference(U, V, budget, 0, 4)


def _screened_sizes(A, B, cands, budget, seed, restarts):
    """Cut-call stack sizes of the screened search, from a loop of its own
    with one exact cut per permutation: the candidate list, then each sweep's
    transpositions whose row-sum cut value is below the current value (none
    scored, and the sweep ends, when there is none), and one per restart
    start. Each sweep charges its min(budget, K(K-1)/2) units up front."""
    K = len(A)
    rA, rB = A.sum(axis=1).tolist(), B.sum(axis=1).tolist()

    def bound(p):
        r = [rA[p[i]] - rB[i] for i in range(K)]
        return max(sum(x for x in r if x > 0), -sum(x for x in r if x < 0))

    def value(p):
        return int(metrics._aligned_cuts(A, B, np.array([p]))[0])

    bud = metrics._Budget(budget)
    rs = RandomSource(seed)
    n = min(budget, len(cands))
    bud.take(n)
    sizes = [n]
    start = min(range(n), key=lambda i: (value(cands[i]), i))
    pairs = [(i, j) for i in range(K) for j in range(i + 1, K)]
    for r in range(restarts + 1):
        if r == 0:
            cur = list(cands[start])
        elif bud.take():
            cur = list(range(K))
            rs.shuffle(cur)
            sizes.append(1)
        else:
            break
        cur_val = value(cur)
        while bud.left > 0:
            m = min(bud.left, len(pairs))
            bud.take(m)
            swaps = []
            for i, j in pairs[:m]:
                p = list(cur)
                p[i], p[j] = p[j], p[i]
                if bound(p) < cur_val:
                    swaps.append(p)
            if not swaps:
                break
            sizes.append(len(swaps))
            vals = [value(p) for p in swaps]
            w = vals.index(min(vals))
            if not vals[w] < cur_val:
                break
            cur, cur_val = swaps[w], vals[w]
    return sizes


def _zero_one_graphon(k, rs):
    return random_graphon(k, rs, 1)


def _count_cut_matrices(monkeypatch):
    """Route _cut_extrema through a stub that records each stack's size."""
    counted = []

    def counting(D):
        counted.append(D.shape[0])
        return _cut_extrema(D)

    monkeypatch.setattr(metrics, "_cut_extrema", counting)
    return counted


def test_search_makes_one_cut_call_per_stack(monkeypatch):
    sizes = _count_cut_matrices(monkeypatch)
    rs = RandomSource(60)
    # budgets 100 and 150 run out inside the descent; 0/1 values tie often
    for make, budget in ((random_graphon, 10 ** 4), (random_graphon, 100),
                         (_zero_one_graphon, 10 ** 4), (_zero_one_graphon, 150)):
        U, V = make(8, rs), make(8, rs)
        A, B, _ = _scale(U.values, V.values)
        cands = list(dict.fromkeys(
            [tuple(range(8))] + metrics._canonical_perms(A, B, 8, 720)
        ))
        # the candidate stack, whose first best value starts the descent,
        # then each sweep's screened transpositions, after it and after each
        # of the 3 restart starts, each scored alone
        expected = _screened_sizes(*_int_arrays(A, B), cands, budget, 8, 3)
        sizes.clear()
        b = delta_bound(U, V, budget=budget, seed=8, lower_vertex_limit=1)
        assert b.witness is not None
        assert sizes == expected


def test_exhaustive_search_scores_only_what_can_still_win(monkeypatch):
    rs = RandomSource(61)
    U, V = random_graphon(7, rs), random_graphon(7, rs)
    # circulants have constant row sums, so every alignment has the same
    # row-sum bound; T below S cell by cell makes the identity's cut value
    # equal that bound, so every alignment can still reach the minimum
    S = _circulant(7, rs)
    T = make_step_graphon(7, [[v / 2 for v in row] for row in S.values])
    A, B = _int_arrays(*_scale(S.values, T.values)[:2])
    perms = np.array(list(permutations(range(7))))
    assert len(set(metrics._row_bounds(A, B, perms).tolist())) == 1
    counted = _count_cut_matrices(monkeypatch)
    delta_bound(U, V, lower_vertex_limit=1)
    assert 0 < sum(counted) < factorial(7)
    counted.clear()
    b = delta_bound(S, T, lower_vertex_limit=1)
    assert sum(counted) == factorial(7)
    assert b.witness == (1, tuple(range(7)))


def _full_stack_min(A, B, perms):
    """Every alignment in perms scored in one stack; the least value and
    its first position."""
    vals = metrics._aligned_cuts(A, B, perms)
    w = int(np.argmin(vals))
    return int(vals[w]), w


def _assert_first_min_matches(ru, rv):
    A, B = _int_arrays(ru, rv)
    perms = np.array(list(permutations(range(len(A)))), dtype=np.intp)
    expect = _full_stack_min(A, B, perms)
    assert metrics._first_min(A, B, perms) == expect
    best, sigma = _all_perms_min(A, B)
    assert (best, sigma) == (expect[0], tuple(int(x) for x in perms[expect[1]]))
    # a shuffled list of candidates, as _align passes them
    sub = perms[np.random.default_rng(len(perms)).permutation(len(perms))[:300]]
    assert metrics._first_min(A, B, sub) == _full_stack_min(A, B, sub)
    return A.dtype


@pytest.mark.parametrize("den", [64, 2 ** 31, 2 ** 70])
def test_first_min_matches_the_full_stack(den):
    rs = RandomSource(den % 1013)
    for K in range(1, 8):
        for _ in range(2 if K < 7 else 1):
            U, V = random_graphon(K, rs, den), random_graphon(K, rs, den)
            dtype = _assert_first_min_matches(*_scale(U.values, V.values)[:2])
            assert dtype == (object if den == 2 ** 70 else np.int64)


def test_first_min_matches_the_full_stack_on_ties():
    rs = RandomSource(63)
    for K in range(2, 8):
        # 0/1 values
        U, V = _zero_one_graphon(K, rs), _zero_one_graphon(K, rs)
        _assert_first_min_matches(*_scale(U.values, V.values)[:2])
    for k, m in ((2, 3), (3, 2), (2, 4), (7, 1)):
        # a relabelled blow-up: many alignments reach 0
        W = blow_up(random_graphon(k, rs, 4), m)
        sigma = list(range(W.k))
        rs.shuffle(sigma)
        ru, rv, _ = _scale(W.values, permute_parts(W, sigma).values)
        _assert_first_min_matches(ru, rv)
    for K in (5, 6, 7):
        # constant row sums: every bound ties
        U, V = _circulant(K, rs), _circulant(K, rs)
        _assert_first_min_matches(*_scale(U.values, V.values)[:2])


def _circulant_graph(n, gaps):
    return finite_graph(n, [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if min(j - i, n - j + i) in gaps
    ])


def _hat_delta_reference(G, H):
    n = G.n
    A, B = _int_arrays(adjacency_rows(G), adjacency_rows(H))
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    best, w = _full_stack_min(A, B, perms)
    val = F(best, n * n)
    return DeltaBound(val, val, (1, tuple(int(x) for x in perms[w])))


def test_exact_hat_delta_matches_the_full_stack():
    rs = RandomSource(64)
    pairs = []
    for n in range(1, 9):
        pairs += [(_random_graph(n, rs), _random_graph(n, rs)) for _ in range(3)]
    # regular graphs: every row-sum bound ties
    for n in (6, 7, 8):
        pairs += [
            (_circulant_graph(n, {1}), _circulant_graph(n, {2})),
            (_circulant_graph(n, {1, 3}), _circulant_graph(n, {2, 3})),
            (_circulant_graph(n, {1}), _circulant_graph(n, {1})),
        ]
    for G, H in pairs:
        assert hat_delta(G, H) == _hat_delta_reference(G, H)


def _row_bound_of(M):
    r = [sum(row) for row in M]
    return max(sum(x for x in r if x > 0), -sum(x for x in r if x < 0))


@pytest.mark.parametrize("den", [64, 2 ** 70])
def test_row_bounds_are_sound_and_their_minimum_is_the_sorted_formula(den):
    rs = RandomSource(den % 1019)
    for K in range(1, 8 if den > 2 ** 62 else 7):
        U, V = random_graphon(K, rs, den), random_graphon(K, rs, den)
        ru, rv, L = _scale(U.values, V.values)
        A, B = _int_arrays(ru, rv)
        perms = np.array(list(permutations(range(K))), dtype=np.intp)
        bounds = metrics._row_bounds(A, B, perms)
        D = A[perms[:, :, None], perms[:, None, :]] - B
        assert bounds.tolist() == [_row_bound_of(M.tolist()) for M in D]
        assert D.dtype == (object if den > 2 ** 62 else np.int64)
        assert (bounds <= metrics._aligned_cuts(A, B, perms)).all()
        if den < 2 ** 62:
            for p in range(0, len(perms), 1 + len(perms) // 40):
                M = [[F(int(v), L) for v in row] for row in D[p]]
                assert F(int(bounds[p]), L * K * K) <= cut_norm_full_enumeration(M)
        sa, sb = sorted(map(sum, ru)), sorted(map(sum, rv))
        formula = sum(abs(a - b) for a, b in zip(sa, sb)) + abs(sum(sa) - sum(sb))
        assert 2 * min(bounds.tolist()) == formula


def test_delta_bound_keeps_density_state_on_the_callers_objects(monkeypatch):
    # a blow-up is not reduced, so a reduced copy would take the state
    rs = RandomSource(65)
    U, V = blow_up(random_graphon(3, rs), 2), random_graphon(2, rs)
    assert reduce_step_graphon(U) is not U
    first = delta_bound(U, V, budget=50)
    assert "t_ind" in U._memo and "t_ind" in V._memo
    evaluated = []
    monkeypatch.setattr(densities, "_contract", lambda *a: evaluated.append(a))
    monkeypatch.setattr(densities, "_t_ind_loop", lambda *a: evaluated.append(a))
    assert delta_bound(U, V, budget=50) == first
    assert not evaluated
