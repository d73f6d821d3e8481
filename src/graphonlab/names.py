"""Graphons as names: rapidly converging sequences under a tagged metric,
and the translations between the four representations.

A name is valid when dist(s_j, s_l) stays below 2**-j for all j < l in the
tagged metric. Validation is exact for the L1, cut-norm, and truncated
enumeration metrics; for the alignment metric only brackets exist, so the
verdict can be Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, lcm

from .core import (
    FiniteGraph,
    _scale,
    adjacency_rows,
    finite_graph,
    graphon_of_graph,
    stepping,
    vertex_pairs,
)
from .errors import (
    AlignmentBudgetExceeded,
    IllegalWeakening,
    InputError,
    NonConvergence,
    TruthMismatch,
)
from .metrics import (
    EXACT_LIMIT,
    HAT_EXACT_LIMIT,
    _blow_rows,
    _row_delta,
    d1,
    d_square,
    d_w_truncated,
    delta_bound,
)
from .sampling import RandomSource, empirical_graphon


class MetricTag(Enum):
    D1 = "d1"
    DSQUARE = "dsquare"
    DELTASQUARE = "deltasquare"
    DW = "dw"


class GraphonName:
    """Lazy memoized element sequence under a metric tag."""

    def __init__(self, tag, element_fn, claimed_tol_fn=None):
        self.tag = tag
        self._fn = element_fn
        self._memo = {}
        self._tol_fn = claimed_tol_fn

    def element(self, j):
        if j < 0:
            raise InputError(f"element index must be nonnegative, got {j}")
        if j not in self._memo:
            self._memo[j] = self._fn(j)
        return self._memo[j]

    def claimed_tolerance(self, j):
        return self._tol_fn(j) if self._tol_fn is not None else None


def constant_name(W, tag):
    return GraphonName(tag, lambda j: W)


def _d1_averaging(W, eps):
    """Dyadic averaging of W at the smallest level within eps of W in d1."""
    for n in range(0, 40):
        S = stepping(W, n)
        if d1(S, W) <= eps:
            return S
    raise NonConvergence(f"dyadic averaging does not reach {eps} by level 40")


def canonical_name(U, tag=MetricTag.D1):
    """Name of a step graphon by its own dyadic averagings, one per level,
    each within 2**-(j+1) of U in d1 (hence valid under every weaker tag)."""
    return GraphonName(tag, lambda j: _d1_averaging(U, Fraction(1, 2 ** (j + 1))))


@dataclass(frozen=True)
class Ok:
    pass


@dataclass(frozen=True)
class Violation:
    j: int
    l: int
    evidence: str


@dataclass(frozen=True)
class Inconclusive:
    j: int
    l: int
    detail: str


def _as_graphon(elem):
    return graphon_of_graph(elem) if isinstance(elem, FiniteGraph) else elem


def validate_name_prefix(
    name, m, delta_budget=10 ** 4, dw_truncation=20, seed=0
):
    """Check dist(s_j, s_l) < 2**-j over all pairs j < l < m.

    Exact metrics give Ok or Violation; the alignment tag and the
    tail-bounded enumeration metric can also return Inconclusive when the
    certified bracket straddles the threshold.
    """
    if m < 2:
        raise InputError(f"prefix length must be at least 2, got {m}")
    pending = None
    for j in range(m):
        for l in range(j + 1, m):
            th = Fraction(1, 2 ** j)
            if name.tag in (MetricTag.D1, MetricTag.DSQUARE):
                dist_fn = d1 if name.tag is MetricTag.D1 else d_square
                dist = dist_fn(name.element(j), name.element(l))
                if dist >= th:
                    return Violation(
                        j, l, f"{name.tag.value} = {dist} >= {th}"
                    )
            elif name.tag is MetricTag.DELTASQUARE:
                b = delta_bound(
                    name.element(j), name.element(l),
                    budget=delta_budget, seed=seed,
                )
                if b.lower >= th:
                    return Violation(
                        j, l, f"certified lower bound {b.lower} >= {th}"
                    )
                if b.upper >= th and pending is None:
                    pending = Inconclusive(
                        j, l, f"bracket [{b.lower}, {b.upper}] straddles {th}"
                    )
            else:
                U = _as_graphon(name.element(j))
                V = _as_graphon(name.element(l))
                value, tail = d_w_truncated(U, V, dw_truncation)
                if value >= th:
                    return Violation(j, l, f"truncated dw = {value} >= {th}")
                if value + tail >= th and pending is None:
                    pending = Inconclusive(
                        j, l,
                        f"head {value} + tail {tail} straddles {th}",
                    )
    return pending if pending is not None else Ok()


def weaken_name(name, frm, to):
    """Retag along a declared weakening; the element sequence is shared."""
    if name.tag is not frm:
        raise InputError(f"name is tagged {name.tag}, not {frm}")
    if (frm, to) not in TRANSFORMS or TRANSFORMS[frm, to][0] is not None:
        raise IllegalWeakening(f"{frm.value} does not weaken to {to.value}")
    return GraphonName(to, name.element)


DW_THINNING_SHIFT = 3


def thinning_schedule(j):
    return j + DW_THINNING_SHIFT


def dw_counting_constant_bound():
    """Certified upper bound on sum over i of 2**-i * 4 * C(n_i, 2), the
    factor relating alignment distance to the enumeration metric.

    Blocks of fixed vertex count n occupy index ranges [start_n, end_n);
    their weight is summed in closed form. Orders above 5 start past index
    1098, bounded crudely by 2**-1080.
    """
    total = Fraction(0)
    start = 0
    for n in range(1, 6):
        end = start + 2 ** comb(n, 2)
        total += 4 * comb(n, 2) * (Fraction(2, 2 ** start) - Fraction(2, 2 ** end))
        start = end
    return total + Fraction(1, 2 ** 1080)


def name_delta_to_dw(name):
    """Thin an alignment-metric name into an enumeration-metric name.

    Element j reads input index j + 3: the counting bound gives
    dw <= C* * dist with C* certified below 8 = 2**3, so the shifted rate
    2**-(j+3) lands under 2**-j.
    """
    return GraphonName(MetricTag.DW, lambda j: name.element(thinning_schedule(j)))


def name_dw_to_delta(name, rs):
    """Sample finite graphs of growing order from the name's elements.

    Element j is the empirical graphon of a 4**(j+2)-vertex sample. The
    theoretical tolerance 44/sqrt(log k) is recorded per element; it is
    vacuous at these orders, so downstream checks rely on measured
    alignment brackets instead.
    """
    base = rs if isinstance(rs, RandomSource) else RandomSource(rs)

    def build(j):
        src = _as_graphon(name.element(j + 2))
        return empirical_graphon(src, 4 ** (j + 2), base.derive(j))

    def claim(j):
        return 44.0 / math.sqrt(math.log(4 ** (j + 2)))

    return GraphonName(MetricTag.DELTASQUARE, build, claimed_tol_fn=claim)


def _graphify(W):
    """Present a rational step graphon as the 0/1 adjacency rows of a finite
    graph with the same block densities: banded bipartite blocks off the
    diagonal, symmetric circulant bands inside it. 0/1 graphons with a zero
    diagonal pass through as plain graphs."""
    k = W.k
    if all(
        W.values[i][j] in (0, 1) and (i != j or W.values[i][j] == 0)
        for i in range(k)
        for j in range(k)
    ):
        return [[int(v) for v in row] for row in W.values]
    ws, b = _scale(W.values)
    # resolution floor keeps the diagonal rounding error 2/R below 1/8
    R = 2 * b * max(1, -(-8 // b))
    n = k * R

    def edge(x, y):
        i, j = x // R, y // R
        a, c = x % R, y % R
        d = (a - c) % R
        w = ws[i][j] * (R // b)
        if i != j:
            return d < w
        # loop-free diagonal bands cap at density (R-2)/R; rounding error
        # per such block is at most 2/R
        h = min(w, R - 2) // 2
        return d != 0 and (d <= h or d >= R - h)

    rows = [[0] * n for _ in range(n)]
    for x, y in vertex_pairs(n):
        if edge(x, y):
            rows[x][y] = rows[y][x] = 1
    return rows


def _quotient(rows, contiguous):
    """Quotient of symmetric 0/1 rows by their classes of equal rows (for a
    zero diagonal, vertices with equal neighbour sets) when all classes
    have one size above 1. With contiguous, classes are maximal runs of
    consecutive rows, so the labeled graphon is unchanged, being its own
    uniform blow-up; otherwise they are scattered and ordered by least
    member, which only alignment, reordering anyway, may use. One pass
    reaches the fixed point: by symmetry, rows that differ still differ on
    the class representatives, so no two quotient classes merge."""
    classes = {}
    run = 0
    for i, row in enumerate(rows):
        if contiguous and i and row != rows[i - 1]:
            run += 1
        classes.setdefault((run, tuple(row)), []).append(i)
    sizes = {len(c) for c in classes.values()}
    if len(sizes) != 1 or sizes == {1}:
        return rows
    reps = [c[0] for c in classes.values()]
    return [[rows[a][b] for b in reps] for a in reps]


def _graph(rows):
    n = len(rows)
    return finite_graph(n, [(i, j) for i, j in vertex_pairs(n) if rows[i][j]])


def _graph_cut_distance(G, H, exact_part_limit=20, blow_cap=4096):
    """Exact labeled cut distance between two graph presentations."""
    U, V = graphon_of_graph(G), graphon_of_graph(H)
    K = lcm(U.k, V.k)
    if K <= exact_part_limit:
        return d_square(U, V, mode="exact")
    # step functions agree almost everywhere exactly when d1 is 0
    if K <= blow_cap and d1(U, V) == 0:
        return Fraction(0)
    raise AlignmentBudgetExceeded(
        f"certificate needs an exact cut norm on {K} parts"
    )


@dataclass(frozen=True)
class SectionStage:
    graph: FiniteGraph
    certificate: Fraction


SECTION_STAGE_SHIFT = 7


def section_delta_to_dsquare(name, align_budget=2000, seed=0):
    """Convert an alignment-metric name of graph presentations into a
    cut-norm name by iterated aligning.

    Stage n reads input index 2**(2n) + 1, presents it as the 0/1
    adjacency rows of a graph with its twin classes quotiented, aligns it
    to the previous stage on a common blow-up with hat_delta's search
    (exhaustive through 8 vertices, descent through EXACT_LIMIT; a larger
    blow-up is refused, since the search has no witness there), and emits
    it only with an exact cut-norm certificate <= 45 * 2**-(n-1) to its
    predecessor. Output element j is stage j + 7, so the certified chain
    tail 90 * 2**-(j+7) sits inside the 2**-j rate. The stages themselves
    are exposed as name.stages; only their graphs are FiniteGraphs.
    """
    stages = []

    def stage(n):
        if n < 0:
            raise InputError(f"stage index must be nonnegative, got {n}")
        while len(stages) <= n:
            m = len(stages)
            H = _quotient(_graphify(name.element(2 ** (2 * m) + 1)), False)
            if m == 0:
                stages.append(SectionStage(_graph(H), Fraction(0)))
                continue
            prev = stages[m - 1].graph
            L = lcm(prev.n, len(H))
            if L > EXACT_LIMIT:
                # the alignment search has no witness above EXACT_LIMIT
                raise AlignmentBudgetExceeded(
                    f"stage {m} aligns on {L} vertices, "
                    f"exact limit {EXACT_LIMIT}"
                )
            Hb = _blow_rows(H, L)
            db = _row_delta(
                Hb, _blow_rows(adjacency_rows(prev), L), L <= HAT_EXACT_LIMIT,
                align_budget, seed + m,
            )
            sigma = db.witness[1]
            aligned = _graph(
                _quotient([[Hb[i][j] for j in sigma] for i in sigma], True)
            )
            cert = _graph_cut_distance(aligned, prev)
            threshold = Fraction(45, 2 ** (m - 1))
            if cert > threshold:
                raise AlignmentBudgetExceeded(
                    f"stage {m} certificate {cert} exceeds 45 * 2**-{m - 1}"
                )
            stages.append(SectionStage(aligned, cert))
        return stages[n]

    out = GraphonName(
        MetricTag.DSQUARE,
        lambda j: graphon_of_graph(stage(j + SECTION_STAGE_SHIFT).graph),
    )
    out.stages = stage
    return out


def martingale_from_dsquare_name(name, n, target_err):
    """Dyadic level n of the limit, from deep enough in a cut-norm name.

    The cut norm bounds every rectangle integral, so each level-n cell
    average of element K is within 4**n * 2**-K of the limit's; K is the
    smallest index meeting target_err.
    """
    if n < 0:
        raise InputError(f"dyadic level must be nonnegative, got {n}")
    target = Fraction(target_err)
    if target <= 0:
        raise InputError(f"error target must be positive, got {target}")
    K = 0
    while Fraction(4 ** n, 2 ** K) > target:
        K += 1
    return stepping(name.element(K), n), Fraction(4 ** n, 2 ** K)


class MartingaleStream:
    """Lazy sequence of dyadic averaging levels with per-level error bounds."""

    def __init__(self, name, target_fn=None):
        self._name = name
        self._target = target_fn or (lambda n: Fraction(1, 2 ** (n + 2)))
        self._memo = {}

    def _get(self, n):
        if n not in self._memo:
            self._memo[n] = martingale_from_dsquare_name(
                self._name, n, self._target(n)
            )
        return self._memo[n]

    def level(self, n):
        return self._get(n)[0]

    def error(self, n):
        return self._get(n)[1]


def randomfree_d1_distance(f):
    """Exact L1 distance from f to the 0/1 graphon it averages, cellwise
    2 p (1 - p). Meaningful only when f is a dyadic averaging of a 0/1
    graphon; the formula is evaluated regardless."""
    k = f.k
    return sum(
        2 * p * (1 - p) for row in f.values for p in row
    ) * Fraction(1, k * k)


def randomfree_defect(W):
    """Exact integral of W(1-W); zero iff W is 0/1 valued."""
    k = W.k
    return sum(p * (1 - p) for row in W.values for p in row) * Fraction(1, k * k)


def randomfree_d1_name(name, rf_promise=True, level_budget=16):
    """Upgrade a cut-norm name to an L1 name under a random-free promise.

    Element j scans dyadic levels: the L1 distance from level f to the
    promised 0/1 limit is the cellwise defect formula, off by at most three
    times the extraction error. Levels that never sink below the rate
    expose a violated promise as NonConvergence.
    """
    if not rf_promise:
        raise InputError("requires the caller's random-free promise")

    def build(j):
        slack = Fraction(1, 2 ** (j + 3))
        for n in range(1, level_budget + 1):
            f, e = martingale_from_dsquare_name(name, n, slack)
            if randomfree_d1_distance(f) + 3 * e < Fraction(1, 2 ** (j + 1)):
                return f
        raise NonConvergence(
            f"element {j}: no level within {level_budget} reaches "
            f"2**-{j + 1}; the limit may not be random-free"
        )

    return GraphonName(MetricTag.D1, build)


@dataclass(frozen=True)
class NotRandomFree:
    level: int


@dataclass(frozen=True)
class Undecided:
    levels_checked: int


def randomfree_semidecide(name, budget):
    """Report a certified witness that the L1 name's limit is not
    random-free, or Undecided within the level budget.

    The defect is 2-Lipschitz in d1, so defect(s_j) - 2 * 2**-j lower
    bounds the limit's defect.
    """
    if budget < 0:
        raise InputError(f"budget must be nonnegative, got {budget}")
    for j in range(budget + 1):
        lower = randomfree_defect(name.element(j)) - Fraction(2, 2 ** j)
        if lower > 0:
            return NotRandomFree(j)
    return Undecided(budget + 1)


def d1_name_with_ground_truth(name, truth):
    """L1 name derived from a cut-norm name plus exact knowledge of its
    limit, standing in for the classical jump oracle.

    Each requested element first verifies the input element against the
    limit by exact cut norm, then emits a dyadic averaging of the limit
    fine enough for the L1 rate.
    """

    def build(j):
        gap = d_square(name.element(j), truth)
        if gap > Fraction(1, 2 ** j):
            raise TruthMismatch(
                f"element {j} sits {gap} from the claimed limit, above 2**-{j}"
            )
        return _d1_averaging(truth, Fraction(1, 2 ** (j + 1)))

    return GraphonName(MetricTag.D1, build)


# Declared name transforms: (from, to) -> (builder, prefix cap). A builder
# maps (name, seed, budget) to the new name; None marks a pure retag along a
# weakening (weaken_name). The cap bounds how many elements a materialized
# transform writes; None keeps the whole input prefix.
TRANSFORMS = {
    (MetricTag.D1, MetricTag.DSQUARE): (None, None),
    (MetricTag.DSQUARE, MetricTag.DELTASQUARE): (None, None),
    (MetricTag.DELTASQUARE, MetricTag.DW): (lambda nm, *_: name_delta_to_dw(nm), None),
    # sample sizes grow as 4**(j+2)
    (MetricTag.DW, MetricTag.DELTASQUARE): (lambda nm, s, _: name_dw_to_delta(nm, s), 3),
    (MetricTag.DELTASQUARE, MetricTag.DSQUARE): (
        lambda nm, s, b: section_delta_to_dsquare(nm, align_budget=b, seed=s), 3
    ),
    # sound only for random-free limits; the command asserts the promise
    (MetricTag.DSQUARE, MetricTag.D1): (lambda nm, *_: randomfree_d1_name(nm), 6),
}
