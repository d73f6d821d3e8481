"""Step graphon container, blow-ups, dyadic averaging, reduction."""

from fractions import Fraction
from math import lcm

import pytest

from conftest import random_graphon
from graphonlab import (
    RandomSource,
    average,
    blow_up,
    common_refinement,
    d1,
    evaluate,
    finite_graph,
    graphon_of_graph,
    make_step_graphon,
    part_index,
    permute_parts,
    reduce_step_graphon,
    stepping,
)
from graphonlab.errors import (
    AsymmetricMatrix,
    EmptyGraph,
    InputError,
    NotAPermutation,
    OutOfDomain,
    OutOfRange,
)

F = Fraction
CHECKER = make_step_graphon(2, [[0, 1], [1, 0]])


def test_make_step_graphon_validates():
    with pytest.raises(InputError):
        make_step_graphon(0, [])
    with pytest.raises(InputError):
        make_step_graphon(2, [[0, 0]])
    with pytest.raises(OutOfRange):
        make_step_graphon(1, [[2]])
    with pytest.raises(OutOfRange):
        make_step_graphon(1, [[F(-1, 4)]])
    with pytest.raises(AsymmetricMatrix):
        make_step_graphon(2, [[0, 1], [0, 0]])


def test_values_frozen_as_fractions():
    W = make_step_graphon(2, [["1/2", 0], [0, 1]])
    assert W.values[0][0] == F(1, 2)
    assert isinstance(W.values, tuple)
    assert all(isinstance(v, Fraction) for row in W.values for v in row)


def test_finite_graph_normalizes_and_validates():
    G = finite_graph(3, [(2, 0), (0, 1)])
    assert G.edges == frozenset({(0, 2), (0, 1)})
    assert G.has_edge(2, 0) and G.has_edge(0, 2)
    assert not G.has_edge(1, 2)
    with pytest.raises(InputError):
        finite_graph(3, [(0, 0)])
    with pytest.raises(InputError):
        finite_graph(3, [(0, 3)])
    with pytest.raises(EmptyGraph):
        graphon_of_graph(finite_graph(0, []))


def test_graphon_of_graph_is_adjacency():
    W = graphon_of_graph(finite_graph(3, [(0, 1)]))
    assert W.k == 3
    assert W.values[0][1] == 1 and W.values[1][0] == 1
    assert W.values[0][2] == 0 and all(W.values[i][i] == 0 for i in range(3))


def test_part_index_and_evaluate():
    assert part_index(4, F(1, 2)) == 2
    assert part_index(4, 0) == 0
    assert part_index(4, 1) == 3
    with pytest.raises(OutOfDomain):
        part_index(4, F(3, 2))
    assert evaluate(CHECKER, F(1, 4), F(3, 4)) == 1
    assert evaluate(CHECKER, F(3, 4), F(3, 4)) == 0


def test_blow_up_replicates_cells():
    W = make_step_graphon(2, [[F(1, 4), F(1, 2)], [F(1, 2), 1]])
    B = blow_up(W, 3)
    assert B.k == 6
    assert all(
        B.values[a][b] == W.values[a // 3][b // 3]
        for a in range(6)
        for b in range(6)
    )
    assert blow_up(W, 1) is W
    assert d1(W, B) == 0
    with pytest.raises(InputError):
        blow_up(W, 0)


def test_common_refinement_uses_lcm():
    U = random_graphon(4, RandomSource(1))
    V = random_graphon(6, RandomSource(2))
    Ur, Vr = common_refinement(U, V)
    assert Ur.k == Vr.k == 12
    assert d1(U, Ur) == 0 and d1(V, Vr) == 0


def test_stepping_passthrough_when_grid_is_finer():
    W = random_graphon(4, RandomSource(3))
    assert stepping(W, 2) is W
    assert stepping(W, 5) is W
    with pytest.raises(InputError):
        stepping(W, -1)


def _overlap(c, cells, p, k):
    lo = max(F(c, cells), F(p, k))
    hi = min(F(c + 1, cells), F(p + 1, k))
    return max(F(0), hi - lo)


def _stepping_oracle(W, n):
    # independent route: integrate over interval intersections
    cells = 2 ** n
    out = []
    for a in range(cells):
        row = []
        for b in range(cells):
            total = F(0)
            for i in range(W.k):
                wa = _overlap(a, cells, i, W.k)
                if not wa:
                    continue
                for j in range(W.k):
                    wb = _overlap(b, cells, j, W.k)
                    if wb:
                        total += wa * wb * W.values[i][j]
            row.append(total * cells * cells)
        out.append(row)
    return out


def test_stepping_matches_interval_overlap_oracle():
    rs = RandomSource(4)
    base = random_graphon(2, rs)
    # a non-reduced blow-up keeps its 2**n cells instead of passing its
    # 2-part base through
    cases = [(blow_up(base, 3), n, None) for n in (1, 2, 3)]
    for den in (64, 2 ** 70):
        for k in (3, 5, 6, 7, 12):
            W = random_graphon(k, rs, den)
            cases += [(W, n, den) for n in range(5)]
    for W, n, den in cases:
        if den is not None:
            # cell sums are at most fc * fc * L: int64 below 2**63,
            # Python integers above
            L = lcm(*(v.denominator for row in W.values for v in row))
            fc = lcm(2 ** n, W.k) // 2 ** n
            assert (fc * fc * L < 2 ** 63) == (den == 64)
        S = stepping(W, n)
        assert S.k == 2 ** n
        assert [list(row) for row in S.values] == _stepping_oracle(W, n)


def test_stepping_level_zero_is_average():
    W = random_graphon(5, RandomSource(5))
    S = stepping(W, 0)
    assert S.k == 1 and S.values[0][0] == average(W)
    assert average(W) == sum(v for row in W.values for v in row) / 25


def test_permute_parts_round_trip():
    W = random_graphon(5, RandomSource(6))
    sigma = (2, 0, 4, 1, 3)
    P = permute_parts(W, sigma)
    inverse = [0] * 5
    for i, s in enumerate(sigma):
        inverse[s] = i
    assert permute_parts(P, inverse) == W
    assert P.values[0][2] == W.values[sigma[0]][sigma[2]]
    with pytest.raises(NotAPermutation):
        permute_parts(W, (0, 0, 1, 2, 3))


def test_reduce_undoes_blow_up():
    W = make_step_graphon(2, [[F(1, 8), F(3, 4)], [F(3, 4), F(5, 8)]])
    for m in (2, 3, 5):
        assert reduce_step_graphon(blow_up(W, m)) == W
    R = reduce_step_graphon(W)
    assert reduce_step_graphon(R) == R
    assert d1(R, W) == 0


def test_reduce_keeps_distinct_parts():
    W = graphon_of_graph(finite_graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert reduce_step_graphon(W) == W
    C = make_step_graphon(1, [[F(1, 3)]])
    assert reduce_step_graphon(blow_up(C, 6)) == C
