"""Names: validity checking, weakening, and metric-to-metric upgrades."""

import hashlib
from fractions import Fraction

import pytest

from conftest import random_graphon
from graphonlab import (
    GraphonName,
    Inconclusive,
    MartingaleStream,
    MetricTag,
    NotRandomFree,
    Ok,
    RandomSource,
    Undecided,
    Violation,
    canonical_name,
    constant_graphon,
    constant_name,
    d1,
    d1_name_with_ground_truth,
    d_square,
    empirical_graphon,
    finite_graph,
    fractal_stage,
    graphon_of_graph,
    make_step_graphon,
    martingale_from_dsquare_name,
    name_delta_to_dw,
    name_dw_to_delta,
    randomfree_d1_distance,
    randomfree_d1_name,
    randomfree_defect,
    randomfree_semidecide,
    render_dense,
    section_delta_to_dsquare,
    stepping,
    validate_name_prefix,
    weaken_name,
)
from graphonlab.errors import (
    AlignmentBudgetExceeded,
    IllegalWeakening,
    InputError,
    NonConvergence,
    TruthMismatch,
)
from graphonlab.names import (
    DW_THINNING_SHIFT,
    _graph_cut_distance,
    dw_counting_constant_bound,
    thinning_schedule,
)

F = Fraction
HALF = constant_graphon(F(1, 2))
CHECKER = make_step_graphon(2, [[0, 1], [1, 0]])
TWO_PART = make_step_graphon(
    2, [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]
)
P4 = finite_graph(4, [(0, 1), (1, 2), (2, 3)])


def test_constant_names_are_valid_under_every_tag():
    for tag in MetricTag:
        name = constant_name(CHECKER, tag)
        assert name.tag is tag
        assert isinstance(validate_name_prefix(name, 4), Ok)


def test_strict_violation_at_the_threshold():
    name = GraphonName(
        MetricTag.D1,
        lambda j: constant_graphon(1) if j % 2 == 0 else constant_graphon(0),
    )
    verdict = validate_name_prefix(name, 3)
    assert verdict == Violation(0, 1, "d1 = 1 >= 1")


def test_threshold_is_strict_under_every_exact_and_alignment_tag():
    # delta-square of constants 0 and 1/2 is |0 - 1/2| = 2**-1, the threshold
    elems = [constant_graphon(0), constant_graphon(0), constant_graphon(F(1, 2))]
    for tag in (MetricTag.D1, MetricTag.DSQUARE):
        verdict = validate_name_prefix(GraphonName(tag, elems.__getitem__), 3)
        assert verdict == Violation(1, 2, f"{tag.value} = 1/2 >= 1/2")
    verdict = validate_name_prefix(
        GraphonName(MetricTag.DELTASQUARE, elems.__getitem__), 3
    )
    assert isinstance(verdict, Inconclusive)
    assert (verdict.j, verdict.l) == (1, 2)


def test_validate_rejects_short_prefixes():
    with pytest.raises(InputError):
        validate_name_prefix(constant_name(HALF, MetricTag.D1), 1)


def test_canonical_name_converges_at_the_declared_rate():
    rs = RandomSource(31)
    for k in (3, 5, 8):
        U = random_graphon(k, rs)
        name = canonical_name(U)
        assert name.tag is MetricTag.D1
        assert isinstance(validate_name_prefix(name, 5), Ok)
        for j in range(5):
            assert d1(name.element(j), U) < F(1, 2 ** (j + 1))


def test_weakening_chain_and_illegal_jumps():
    name = canonical_name(CHECKER)
    weak = weaken_name(name, MetricTag.D1, MetricTag.DSQUARE)
    weaker = weaken_name(weak, MetricTag.DSQUARE, MetricTag.DELTASQUARE)
    assert weak.tag is MetricTag.DSQUARE
    assert weaker.tag is MetricTag.DELTASQUARE
    assert weak.element(2) is name.element(2)
    assert isinstance(validate_name_prefix(weak, 4), Ok)
    with pytest.raises(InputError):
        weaken_name(name, MetricTag.DSQUARE, MetricTag.DELTASQUARE)
    with pytest.raises(IllegalWeakening):
        weaken_name(weak, MetricTag.DSQUARE, MetricTag.D1)
    with pytest.raises(IllegalWeakening):
        weaken_name(weaker, MetricTag.DELTASQUARE, MetricTag.DW)


def test_thinning_to_the_enumeration_metric():
    assert [thinning_schedule(j) for j in range(3)] == [3, 4, 5]
    assert DW_THINNING_SHIFT == 3
    cstar = dw_counting_constant_bound()
    assert 6 < cstar < F(49, 8)
    delta = constant_name(TWO_PART, MetricTag.DELTASQUARE)
    dw = name_delta_to_dw(delta)
    assert dw.tag is MetricTag.DW
    assert dw.element(1) is delta.element(4)
    assert isinstance(validate_name_prefix(dw, 4), Ok)


def test_dw_name_violation_is_detected():
    name = GraphonName(
        MetricTag.DW,
        lambda j: constant_graphon(1) if j % 2 == 0 else constant_graphon(0),
    )
    verdict = validate_name_prefix(name, 3)
    assert isinstance(verdict, Violation)
    assert (verdict.j, verdict.l) == (1, 2)


def test_dw_inconclusive_when_the_tail_straddles():
    name = constant_name(HALF, MetricTag.DW)
    verdict = validate_name_prefix(name, 3, dw_truncation=1)
    assert isinstance(verdict, Inconclusive)


def test_sampling_conversion_shapes_and_vacuous_claim():
    dw = constant_name(TWO_PART, MetricTag.DW)
    conv = name_dw_to_delta(dw, RandomSource(5))
    assert conv.tag is MetricTag.DELTASQUARE
    assert conv.element(0).k == 16
    assert conv.element(1).k == 64
    again = name_dw_to_delta(dw, RandomSource(5))
    assert conv.element(0) == again.element(0)
    claim = conv.claimed_tolerance(0)
    assert claim > 1
    assert abs(claim - 26.42) < 0.01


def test_martingale_extraction_errors_and_stream():
    U = random_graphon(4, RandomSource(32))
    name = canonical_name(U, MetricTag.DSQUARE)
    f, err = martingale_from_dsquare_name(name, 2, F(1, 64))
    assert err == F(1, 64)
    assert d1(f, stepping(U, 2)) <= err
    ms = MartingaleStream(name)
    assert ms.error(2) <= F(1, 2 ** 4)
    assert ms.level(2).k == 4
    assert ms.level(2) == ms.level(2)
    with pytest.raises(InputError):
        martingale_from_dsquare_name(name, -1, F(1, 4))
    with pytest.raises(InputError):
        martingale_from_dsquare_name(name, 1, 0)


def test_randomfree_formulas_hand_values():
    assert randomfree_defect(HALF) == F(1, 4)
    assert randomfree_d1_distance(HALF) == F(1, 2)
    W = make_step_graphon(2, [[F(1, 4), 1], [1, 0]])
    assert randomfree_defect(W) == F(3, 64)
    assert randomfree_d1_distance(W) == F(3, 32)
    assert randomfree_defect(CHECKER) == 0


def test_randomfree_upgrade_on_zero_one_limits():
    for W in (graphon_of_graph(P4), render_dense(fractal_stage(2))):
        name = randomfree_d1_name(canonical_name(W, MetricTag.DSQUARE))
        assert name.tag is MetricTag.D1
        assert isinstance(validate_name_prefix(name, 5), Ok)
    with pytest.raises(InputError):
        randomfree_d1_name(
            canonical_name(HALF, MetricTag.DSQUARE), rf_promise=False
        )


def test_randomfree_upgrade_flags_a_broken_promise():
    name = randomfree_d1_name(canonical_name(HALF, MetricTag.DSQUARE))
    with pytest.raises(NonConvergence):
        name.element(0)


def test_semidecide_constant_half_and_zero_one():
    verdict = randomfree_semidecide(constant_name(HALF, MetricTag.D1), 10)
    assert verdict == NotRandomFree(4)
    verdict = randomfree_semidecide(constant_name(CHECKER, MetricTag.D1), 6)
    assert verdict == Undecided(7)
    with pytest.raises(InputError):
        randomfree_semidecide(constant_name(HALF, MetricTag.D1), -1)


def test_ground_truth_name_checks_the_claimed_limit():
    U = random_graphon(4, RandomSource(33))
    name = canonical_name(U, MetricTag.DSQUARE)
    gt = d1_name_with_ground_truth(name, U)
    assert isinstance(validate_name_prefix(gt, 4), Ok)
    liar = d1_name_with_ground_truth(
        constant_name(constant_graphon(1), MetricTag.DSQUARE),
        constant_graphon(0),
    )
    liar.element(0)
    with pytest.raises(TruthMismatch):
        liar.element(1)


def _shuffled_blowup(G, m, rs):
    n = G.n * m
    perm = rs.shuffle(list(range(n)))
    edges = []
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if G.has_edge(u, v):
                for a in range(m):
                    for b in range(m):
                        edges.append((perm[u * m + a], perm[v * m + b]))
    return finite_graph(n, edges)


def _presentations(break_at=None):
    def present(i):
        if break_at is not None and i == break_at:
            return make_step_graphon(4, [[0] * 4 for _ in range(4)])
        return graphon_of_graph(
            _shuffled_blowup(P4, 1 + i % 3, RandomSource(1000 + i))
        )

    return GraphonName(MetricTag.DELTASQUARE, present)


def test_section_stages_align_shuffled_presentations():
    out = section_delta_to_dsquare(_presentations())
    assert out.tag is MetricTag.DSQUARE
    for n in range(5):
        st = out.stages(n)
        assert st.certificate == 0
        assert st.graph.n == 4
        degrees = sorted(
            sum(1 for j in range(4) if st.graph.has_edge(i, j))
            for i in range(4)
        )
        assert degrees == [1, 1, 2, 2]


def test_section_rejects_a_divergent_presentation():
    out = section_delta_to_dsquare(_presentations(break_at=2 ** 16 + 1))
    out.element(0)
    with pytest.raises(AlignmentBudgetExceeded) as exc:
        out.element(1)
    assert "stage 8" in str(exc.value)


def test_delta_validation_can_be_inconclusive():
    def build(j):
        return empirical_graphon(TWO_PART, 16, RandomSource(j))

    name = GraphonName(MetricTag.DELTASQUARE, build)
    verdict = validate_name_prefix(name, 4, delta_budget=50)
    assert isinstance(verdict, Inconclusive)


def _complete_bipartite(a):
    return finite_graph(2 * a, [(i, a + j) for i in range(a) for j in range(a)])


def test_graph_cut_distance_zero_test_above_the_exact_limit():
    # coprime vertex counts, lcm 28 > 20: equal as functions, so exactly 0
    assert _graph_cut_distance(finite_graph(4, []), finite_graph(7, [])) == 0
    # K_{3,3} and K_{5,5} both reduce to the 2-part checker; lcm 30 > 20
    assert _graph_cut_distance(_complete_bipartite(3), _complete_bipartite(5)) == 0
    # one edge apart on coprime counts: no exact certificate on 28 parts
    with pytest.raises(AlignmentBudgetExceeded):
        _graph_cut_distance(finite_graph(4, []), finite_graph(7, [(0, 1)]))
    # past the blow-up cap the pair is refused even when equal
    with pytest.raises(AlignmentBudgetExceeded):
        _graph_cut_distance(finite_graph(4, []), finite_graph(7, []), blow_cap=27)


# Stage graphs and certificates of section names over sampled presentations,
# (sizes, seed) -> (stage vertex counts, certificates, digest of the stage
# edge lists), recorded from the FiniteGraph twin reductions and the graph
# alignment loop the section used before it ran on adjacency rows. Stages
# on at most 8 vertices align exhaustively, larger ones by descent; (2, 3),
# (8, 4), (4, 6) and (3, 4) collapse a blow-up back to fewer vertices, and
# (3, 5) quotients scattered twins down to one vertex.
SECTION_PINS = {
    ((6,), 1): (
        [6, 6, 6, 6], [(0, 1), (1, 18), (1, 9), (1, 9)], "685e3185e7b78a99"
    ),
    ((2, 3), 3): (
        [2, 6, 6, 3], [(0, 1), (1, 6), (0, 1), (2, 9)], "3597c4839ae55a11"
    ),
    ((8, 4), 3): (
        [8, 8, 2, 4], [(0, 1), (1, 8), (1, 8), (1, 8)], "6e5ad19fbbb3b099"
    ),
    ((3, 5), 3): (
        [1, 5, 5, 5], [(0, 1), (16, 25), (6, 25), (2, 25)], "8fce14f936cc661f"
    ),
    ((9,), 0): (
        [9, 9, 9, 9], [(0, 1), (16, 81), (10, 81), (2, 27)], "0daf34a9c8629b98"
    ),
    ((4, 6), 1): (
        [4, 12, 6, 6], [(0, 1), (7, 72), (1, 9), (1, 9)], "44125aa6d1525d68"
    ),
    ((3, 4), 0): (
        [3, 12, 12, 4], [(0, 1), (1, 9), (1, 8), (3, 8)], "058c6772af32de7a"
    ),
    ((10, 5), 2): (
        [10, 10, 5, 5], [(0, 1), (7, 50), (6, 25), (4, 25)], "e2cbbf19b2f4ddff"
    ),
}


@pytest.mark.parametrize("sizes, seed", list(SECTION_PINS))
def test_section_stages_are_pinned(sizes, seed):
    def present(i):
        n = sizes[i % len(sizes)]
        return empirical_graphon(TWO_PART, n, RandomSource(seed + i))

    name = GraphonName(MetricTag.DELTASQUARE, present)
    out = section_delta_to_dsquare(name, align_budget=200, seed=seed)
    h = hashlib.sha256()
    counts, certs = [], []
    for n in range(4):
        st = out.stages(n)
        h.update(f"{st.graph.n} {sorted(st.graph.edges)}\n".encode())
        counts.append(st.graph.n)
        certs.append((st.certificate.numerator, st.certificate.denominator))
    assert (counts, certs, h.hexdigest()[:16]) == SECTION_PINS[sizes, seed]
