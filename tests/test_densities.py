"""Labeled-graph enumeration and induced-subgraph densities."""

import gc
import weakref
from fractions import Fraction
from itertools import permutations, product
from math import comb

import numpy as np
import pytest

from conftest import random_graphon
from graphonlab import (
    RandomSource,
    blow_up,
    constant_graphon,
    counting_bound,
    d_w_truncated,
    enumerate_graph,
    finite_graph,
    graph_index,
    make_step_graphon,
    part_index,
    permute_parts,
    sample_graph,
    t_ind_exact,
    t_ind_mc,
)
from graphonlab import densities
from graphonlab.core import StepGraphon
from graphonlab.densities import (
    COST_LIMIT,
    _class_key,
    _route,
    _scaled_factors,
    _t_ind_loop,
)
from graphonlab.metrics import _counting_lower
from graphonlab.errors import InputError, TooExpensive

F = Fraction
HALF = constant_graphon(F(1, 2))
K2 = finite_graph(2, [(0, 1)])
E2 = finite_graph(2, [])
TRIANGLE = finite_graph(3, [(0, 1), (0, 2), (1, 2)])


def test_enumeration_blocks_and_round_trip():
    assert enumerate_graph(0).n == 1
    assert {enumerate_graph(i).n for i in range(1, 3)} == {2}
    assert {enumerate_graph(i).n for i in range(3, 11)} == {3}
    assert {enumerate_graph(i).n for i in range(11, 75)} == {4}
    assert enumerate_graph(75).n == 5
    for i in range(200):
        assert graph_index(enumerate_graph(i)) == i
    with pytest.raises(InputError):
        enumerate_graph(-1)


def test_enumeration_bit_layout():
    # within a block, bit t of the offset switches the t-th row-major pair
    assert enumerate_graph(1).edges == frozenset()
    assert enumerate_graph(2).edges == {(0, 1)}
    assert enumerate_graph(3 + 0b101).edges == {(0, 1), (1, 2)}


def test_t_ind_hand_values():
    assert t_ind_exact(enumerate_graph(0), HALF) == 1
    assert t_ind_exact(K2, HALF) == F(1, 2)
    assert t_ind_exact(E2, HALF) == F(1, 2)
    assert t_ind_exact(TRIANGLE, HALF) == F(1, 8)
    assert t_ind_exact(K2, constant_graphon(F(1, 3))) == F(1, 3)
    # two-part graphon: average the cell values over assignments
    W = make_step_graphon(2, [[1, 0], [0, 1]])
    assert t_ind_exact(K2, W) == F(1, 2)
    assert t_ind_exact(TRIANGLE, W) == F(1, 4)


def test_t_ind_completeness_over_a_block():
    rs = RandomSource(21)
    W = random_graphon(4, rs)
    for n, lo, hi in ((2, 1, 3), (3, 3, 11)):
        total = sum(t_ind_exact(enumerate_graph(i), W) for i in range(lo, hi))
        assert total == 1


def test_t_ind_invariances():
    rs = RandomSource(22)
    W = random_graphon(5, rs)
    sigma = tuple(rs.shuffle(list(range(5))))
    for i in (2, 7, 30, 60):
        Fg = enumerate_graph(i)
        v = t_ind_exact(Fg, W)
        assert t_ind_exact(Fg, blow_up(W, 3)) == v
        assert t_ind_exact(Fg, permute_parts(W, sigma)) == v


def test_t_ind_tensor_route_matches_big_integer_loop():
    rs = RandomSource(23)
    for k in (3, 5, 8):
        W = random_graphon(k, rs, den=8)
        for i in (5, 11, 25, 40, 74):
            Fg = enumerate_graph(i)
            w, c, L = _scaled_factors(W)
            assert t_ind_exact(Fg, _fresh(W)) == _t_ind_loop(Fg, W.k, w, c, L)


def test_t_ind_too_expensive():
    W = random_graphon(7, RandomSource(24), den=257)
    F5 = enumerate_graph(100)
    assert F5.n == 5
    with pytest.raises(TooExpensive):
        t_ind_exact(F5, W, cost_limit=1000)


def test_t_ind_mc_deterministic_with_seed():
    W = random_graphon(3, RandomSource(25))
    est1, err1 = t_ind_mc(TRIANGLE, W, 400, seed=7)
    est2, err2 = t_ind_mc(TRIANGLE, W, 400, seed=7)
    assert (est1, err1) == (est2, err2)
    assert 0 <= est1 <= 1
    # stderr is the binomial rate rounded up to an exact rational
    assert err1 * err1 >= est1 * (1 - est1) / 400
    with pytest.raises(InputError):
        t_ind_mc(TRIANGLE, W, 0, seed=1)


def test_counting_bound_values():
    assert counting_bound(TRIANGLE, F(1, 10)) == F(4 * 3, 10)
    assert counting_bound(enumerate_graph(0), F(1, 2)) == 0
    assert counting_bound(K2, 1) == 4 * comb(2, 2)
    with pytest.raises(InputError):
        counting_bound(K2, F(-1, 2))


def _fresh(W):
    # an equal graphon with an empty memo, so each call runs the kernel
    return StepGraphon(W.k, W.values)


def _brute_t_ind(Fg, W):
    # independent reference: the defining sum over all k**n assignments
    total = F(0)
    for a in product(range(W.k), repeat=Fg.n):
        term = F(1)
        for i in range(Fg.n):
            for j in range(i + 1, Fg.n):
                w = W.values[a[i]][a[j]]
                term *= w if Fg.has_edge(i, j) else 1 - w
        total += term
    return total / W.k ** Fg.n


def _bound(Fg, W):
    L = _scaled_factors(W)[2]
    return W.k ** Fg.n * L ** comb(Fg.n, 2), L


def test_t_ind_int64_route_matches_big_integer_loop():
    rs = RandomSource(41)
    for _ in range(2):
        W = random_graphon(32, rs, den=64)
        for i in (20, 57):
            Fg = enumerate_graph(i)
            B, L = _bound(Fg, W)
            assert Fg.n == 4 and 2 ** 53 <= B < 2 ** 63
            assert _route(Fg.n, W.k, L, COST_LIMIT) is np.int64
            w, c, _ = _scaled_factors(W)
            assert t_ind_exact(Fg, _fresh(W)) == _t_ind_loop(Fg, W.k, w, c, L)
    # the greedy einsum at n = 5 and the matrix product at n = 3, in int64
    for k, den, i in ((4, 32, 200), (32, 2 ** 15, 7)):
        W = random_graphon(k, rs, den=den)
        Fg = enumerate_graph(i)
        B, L = _bound(Fg, W)
        assert _route(Fg.n, W.k, L, COST_LIMIT) is np.int64
        w, c, _ = _scaled_factors(W)
        assert t_ind_exact(Fg, _fresh(W)) == _t_ind_loop(Fg, W.k, w, c, L)


def test_t_ind_loop_route_matches_brute_force():
    rs = RandomSource(42)
    for _ in range(3):
        W = random_graphon(3, rs, den=257)
        for i in (75, 400, 1098):
            Fg = enumerate_graph(i)
            B, L = _bound(Fg, W)
            assert Fg.n == 5 and B >= 2 ** 63
            assert _route(Fg.n, W.k, L, COST_LIMIT) is None
            assert t_ind_exact(Fg, _fresh(W)) == _brute_t_ind(Fg, W)


def test_t_ind_cost_limit_guards_integer_routes_only():
    W = random_graphon(32, RandomSource(43), den=64)
    Fg = enumerate_graph(33)
    terms = W.k ** Fg.n
    assert _route(Fg.n, W.k, _bound(Fg, W)[1], terms) is np.int64
    assert t_ind_exact(Fg, W, cost_limit=terms) == t_ind_exact(Fg, W)
    with pytest.raises(TooExpensive) as info:
        t_ind_exact(Fg, W, cost_limit=terms - 1)
    assert (info.value.required, info.value.limit) == (terms, terms - 1)
    # the float64 route is exact without a guard
    small = random_graphon(4, RandomSource(44), den=8)
    assert _route(4, small.k, _bound(Fg, small)[1], 0) is np.float64
    assert t_ind_exact(Fg, small, cost_limit=0) == _brute_t_ind(Fg, small)


def test_batched_metrics_match_per_graph_reference():
    rs = RandomSource(45)
    graphs = [enumerate_graph(i) for i in range(75)]
    # refusals: U from n = 3 on in the third case, V alone in the fourth
    for ku, kv, den_u, den_v, cost in (
        (3, 5, 64, 64, COST_LIMIT),
        (6, 4, 2 ** 31, 64, COST_LIMIT),
        (6, 4, 2 ** 31, 64, 100),
        (2, 6, 2, 2 ** 31, 100),
        (2, 7, 257, 64, 400),
        (1, 8, 257, 64, COST_LIMIT),
    ):
        U = random_graphon(ku, rs, den=den_u)
        V = random_graphon(kv, rs, den=den_v)
        best, first_refusal, value = F(0), None, F(0)
        for i, Fg in enumerate(graphs):
            try:
                tu = t_ind_exact(Fg, _fresh(U), cost)
                gap = abs(tu - t_ind_exact(Fg, _fresh(V), cost))
            except TooExpensive as exc:
                first_refusal = first_refusal or exc
                continue
            if Fg.n > 1:
                best = max(best, gap / (4 * comb(Fg.n, 2)))
            if first_refusal is None:
                value += F(1, 2 ** i) * gap
        assert _counting_lower(U, V, 4, cost) == best
        if first_refusal is None:
            assert d_w_truncated(U, V, 75, cost) == (value, F(1, 2 ** 74))
        else:
            with pytest.raises(TooExpensive) as info:
                d_w_truncated(U, V, 75, cost)
            assert str(info.value) == str(first_refusal)


def test_t_ind_invariant_under_relabeling_every_four_vertex_graph():
    rs = RandomSource(46)
    for W in (random_graphon(5, rs), random_graphon(3, rs, den=257)):
        for i in range(11, 75):
            Fg = enumerate_graph(i)
            v = t_ind_exact(Fg, W)
            for s in permutations(range(4)):
                moved = finite_graph(4, [(s[a], s[b]) for (a, b) in Fg.edges])
                assert t_ind_exact(moved, _fresh(W)) == v


def _sample_reference(W, n, seed):
    # the documented stream with Fraction compares
    rs = RandomSource(seed)
    idx = [part_index(W.k, rs.uniform()) for _ in range(n)]
    return frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rs.uniform() < W.values[idx[i]][idx[j]]
    )


def test_integer_sample_graph_matches_fraction_reference():
    d = 2 ** 31
    edge_cases = make_step_graphon(
        3,
        [
            [0, 1, F(1, d)],
            [1, F(d - 1, d), F(1, 3)],
            [F(1, d), F(1, 3), 1],
        ],
    )
    rs = RandomSource(47)
    for W in (edge_cases, random_graphon(7, rs, den=d), constant_graphon(F(1, 2))):
        for seed in range(4):
            G = sample_graph(W, 40, RandomSource(seed))
            assert G.edges == _sample_reference(W, 40, seed)


def test_route_thresholds_are_strict_powers_of_two():
    # n = 2 on one part makes the bound k**n * L**C(n,2) equal to L
    assert _route(2, 1, 2 ** 53 - 1, 0) is np.float64
    assert _route(2, 1, 2 ** 53, 1) is np.int64
    assert _route(2, 1, 2 ** 63 - 1, 1) is np.int64
    assert _route(2, 1, 2 ** 63, 1) is None
    with pytest.raises(TooExpensive):
        _route(2, 1, 2 ** 53, 0)
    # a real graphon just past the int64 bound takes the loop
    W = random_graphon(15, RandomSource(48), den=257)
    B, L = _bound(enumerate_graph(40), W)
    assert 2 ** 63 <= B < 2 ** 64
    assert _route(4, W.k, L, COST_LIMIT) is None


def test_chunked_four_vertex_contraction(monkeypatch):
    # one first vertex per chunk, on the int64 and the float64 route; 30
    # and 52 are relabelings, so each call gets a graphon of its own
    monkeypatch.setattr(densities, "_CHUNK", 1)
    rs = RandomSource(49)
    for W in (random_graphon(5, rs, den=257), random_graphon(5, rs, den=8)):
        for i in (11, 30, 52, 74):
            Fg = enumerate_graph(i)
            assert t_ind_exact(Fg, _fresh(W)) == _brute_t_ind(Fg, W)


def test_isomorphism_classes_by_vertex_count():
    # numbers of unlabeled graphs on 1..5 vertices
    for n, count in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34)):
        keys = {_class_key(n, mask) for mask in range(2 ** comb(n, 2))}
        assert len(keys) == count


def test_memo_matches_fresh_objects_and_brute_force():
    # the float64, int64 and loop routes all run: at denominator 64 five
    # vertices take the loop (int64 on one part), at 2**31 three and four
    # vertices do, and at 257 four vertices take int64 from three parts
    graphs = [enumerate_graph(i) for i in range(75)]
    graphs += [enumerate_graph(i) for i in (75, 300, 777, 1098)]
    rs = RandomSource(50)
    routes = set()
    for den in (64, 2 ** 31, 257):
        for k in range(1, 7):
            base = random_graphon(k, rs, den=den)
            # the brute-force oracle up to 4 parts; above, the blow-up is
            # checked against its base
            expect = k <= 4 and [_brute_t_ind(Fg, base) for Fg in graphs]
            for W in (base, blow_up(base, 2)):
                first = [t_ind_exact(Fg, W) for Fg in graphs]
                assert "t_ind" in W._memo
                assert densities._t_ind_many(graphs, W, COST_LIMIT) == first
                fresh = _fresh(W)
                assert fresh == W and not fresh._memo
                assert [t_ind_exact(Fg, fresh) for Fg in graphs] == first
                expect = expect or first
                assert first == expect
            L = _scaled_factors(base)[2]
            routes |= {_route(n, k, L, COST_LIMIT) for n in range(2, 6)}
    assert routes == {np.float64, np.int64, None}


def test_memo_filled_in_mixed_order():
    rs = RandomSource(51)
    W, V = random_graphon(5, rs, den=257), random_graphon(3, rs, den=64)
    expect_dw = d_w_truncated(_fresh(W), _fresh(V), 20)
    expect_lower = _counting_lower(_fresh(W), _fresh(V), 4, COST_LIMIT)
    expect_t = {
        i: t_ind_exact(enumerate_graph(i), _fresh(W)) for i in (30, 74, 400)
    }
    assert t_ind_exact(enumerate_graph(30), W) == expect_t[30]
    assert d_w_truncated(W, V, 20) == expect_dw
    assert t_ind_exact(enumerate_graph(400), W) == expect_t[400]
    assert _counting_lower(W, V, 4, COST_LIMIT) == expect_lower
    assert t_ind_exact(enumerate_graph(74), W) == expect_t[74]
    assert d_w_truncated(W, V, 20) == expect_dw
    # every class on 2 to 4 vertices plus graph 400's; one vertex is not
    # evaluated
    assert len(W._memo["t_ind"][-1]) == 2 + 4 + 11 + 1


def test_memo_never_answers_a_refusal_and_stays_private():
    W = random_graphon(7, RandomSource(52), den=257)
    F5 = enumerate_graph(100)
    terms = W.k ** F5.n
    assert _route(F5.n, W.k, _scaled_factors(W)[2], COST_LIMIT) is None
    before = (W == _fresh(W), hash(W), repr(W))
    value = t_ind_exact(F5, W)
    assert value == t_ind_exact(F5, _fresh(W))
    with pytest.raises(TooExpensive) as fresh_refusal:
        t_ind_exact(F5, _fresh(W), cost_limit=terms - 1)
    with pytest.raises(TooExpensive) as memo_refusal:
        t_ind_exact(F5, W, cost_limit=terms - 1)
    assert str(memo_refusal.value) == str(fresh_refusal.value)
    # one instance per refused class within a call, and none is stored
    moved = finite_graph(5, [(4 - a, 4 - b) for (a, b) in F5.edges])
    a, b = densities._t_ind_many([F5, moved], W, terms - 1)
    assert isinstance(a, TooExpensive) and a is b
    assert t_ind_exact(moved, W, cost_limit=terms) == value
    # eq, hash and repr ignore the filled memo
    assert W._memo and (W == _fresh(W), hash(W), repr(W)) == before
    # the memo holds no reference back to its graphon: refcounting frees it
    X = _fresh(W)
    densities._t_ind_many([K2, F5], X, COST_LIMIT)
    assert X._memo["t_ind"][-2]  # the float64 arrays
    gc.disable()
    try:
        ref = weakref.ref(X)
        del X
        assert ref() is None
    finally:
        gc.enable()
