"""Exact metrics: L1, L2, cut norm, alignment brackets, truncated d_w."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from conftest import random_graphon
from graphonlab import (
    DeltaBound,
    RandomSource,
    blow_up,
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
)
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
    _TABLE_CELLS,
    _all_perms_min,
    _cut_extrema,
    _int_arrays,
    _scaled_rows,
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
    ru, rv, L = _scaled_rows([U.values, V.values])
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
        ru, rv, L = _scaled_rows([U.values, V.values])
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
