"""Explicit graphon families: halting-set encodings, the diagonal fractal,
and small combinators.

The halting graphon places scaled two-value patterns on diagonal blocks
A_e = (1 - 2**-e, 1 - 2**-(e+1)); each block's value triple
(l_e, m_e, r_e) lives strictly inside (0, 1) and the triples of distinct
blocks are pairwise disjoint, so the value spectrum decodes the divergent
program set. The fractal fills diagonal squares inside surviving white
squares, subdividing by a factor 2**level at each stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ONE, ZERO, StepGraphon, common_refinement, make_step_graphon
from .errors import (
    BlockLimitExceeded,
    CertificateError,
    InputError,
    MalformedSpectrum,
    RenderTooLarge,
    TooManyParts,
)
from .metrics import _cut_extrema

BLOCK_LIMIT = 6
RENDER_DEPTH_LIMIT = 4
MATCHING_DEPTH_LIMIT = 5
PROBE_DEPTH_LIMIT = 4


@dataclass
class HaltingTable:
    """Partial map from program id to halt step (None = diverges)."""

    entries: dict

    def __post_init__(self):
        for e, t in self.entries.items():
            if not isinstance(e, int) or e < 0:
                raise InputError(f"program id must be a nonnegative int, got {e!r}")
            if t is not None and (not isinstance(t, int) or t < 1):
                raise InputError(f"halt step must be None or an int >= 1, got {t!r}")

    def halted_by(self, e, s):
        t = self.entries.get(e)
        return t is not None and t <= s


@dataclass(frozen=True)
class SpectrumEntry:
    value: Fraction
    mass: Fraction


def constant_graphon(p):
    return make_step_graphon(1, [[p]])


def level_constants(e):
    """Value triple (l_e, m_e, r_e) of block e: nested midpoint scale."""
    left = 1 - Fraction(1, 2 ** (2 * e + 1))
    right = 1 - Fraction(1, 2 ** (2 * e + 2))
    return left, (left + right) / 2, right


def prop46_gadget(e, table, s):
    """Constant graphon 2**-s while e is unhalted at s, frozen at 2**-t
    after the table's halt step t <= s."""
    if s < 0:
        raise InputError(f"stage must be nonnegative, got {s}")
    t = table.entries.get(e)
    if t is not None and t <= s:
        return constant_graphon(Fraction(1, 2 ** t))
    return constant_graphon(Fraction(1, 2 ** s))


def _sylvester_signs(k):
    # sign (-1)**popcount(i & j); k a power of two
    return [
        [-1 if bin(i & j).count("1") % 2 else 1 for j in range(k)]
        for i in range(k)
    ]


def _block_specs(table, E, s, approx_param):
    """Geometry and content descriptors of every block present at stage s."""
    g = max(0, 2 * approx_param - 2)
    N = 2 ** (E + 1 + g)
    specs = []
    for e in range(0, min(E, s) + 1):
        bp = N // 2 ** (e + 1)
        start = N - N // 2 ** e
        k_in = min(2 ** max(1, 2 * approx_param - 2), bp)
        left, mid, right = level_constants(e)
        # pattern cut distance (r-l)/(2 sqrt(k)) must certify <= 2**-a
        if (right - left) ** 2 * 4 ** approx_param > 4 * k_in:
            raise CertificateError(
                f"block {e} pattern cut distance exceeds 2**-{approx_param}"
            )
        specs.append(
            {
                "e": e,
                "start": start,
                "bp": bp,
                "k_in": k_in,
                "halted": table.halted_by(e, s),
                "levels": (left, mid, right),
            }
        )
    return N, specs


def _block_rows(spec):
    """Dense bp x bp value rows for one block."""
    left, mid, right = spec["levels"]
    bp, k_in = spec["bp"], spec["k_in"]
    if not spec["halted"]:
        return [[mid] * bp for _ in range(bp)]
    signs = _sylvester_signs(k_in)
    f = bp // k_in
    return [
        [right if signs[i // f][j // f] > 0 else left for j in range(bp)]
        for i in range(bp)
    ]


def halting_graphon(table, E, s, approx_param, block_limit=BLOCK_LIMIT):
    """Stage-s truncation of the halting-encoding graphon.

    Zero outside the diagonal blocks A_e for e <= min(E, s). An unhalted
    block is constant m_e; a halted one carries the two-value {l_e, r_e}
    sign pattern whose cut distance from the constant m_e is certified
    below 2**-approx_param. Parts: 2**(E + 1 + g) with g = grid refinement
    needed by approx_param.
    """
    if E < 0:
        raise InputError(f"program bound must be nonnegative, got {E}")
    if E > block_limit:
        raise BlockLimitExceeded(f"E = {E} exceeds block limit {block_limit}")
    if s < 0:
        raise InputError(f"stage must be nonnegative, got {s}")
    if approx_param < 0:
        raise InputError(f"approximation level must be nonnegative, got {approx_param}")
    N, specs = _block_specs(table, E, s, approx_param)
    rows = [[ZERO] * N for _ in range(N)]
    for spec in specs:
        start, bp = spec["start"], spec["bp"]
        content = _block_rows(spec)
        for i in range(bp):
            rows[start + i][start : start + bp] = content[i]
    return StepGraphon(N, tuple(tuple(r) for r in rows))


def halting_tail_measure(E):
    """Mass of the discarded blocks beyond E: sum of 2**-2(n+1), n > E."""
    return Fraction(1, 3 * 4 ** (E + 1))


def halting_chain_certificate(table, E, s, approx_param):
    """Exact cut distance between consecutive stage truncations s and s+1.

    The difference is supported on disjoint diagonal blocks, so its exact
    cut norm decomposes: the one-sided suprema add across blocks, and the
    norm is the larger of the two totals. Per block the supremum is either
    closed-form (all-positive new content) or an exact subset enumeration
    of the sign pattern, transferred through the blow-up (the bilinear
    objective is maximized at membership-box vertices, so blown-up and base
    suprema coincide after scaling).
    """
    N, old = _block_specs(table, E, s, approx_param)
    _, new = _block_specs(table, E, s + 1, approx_param)
    old_by_e = {spec["e"]: spec for spec in old}
    pos_total, neg_total = Fraction(0), Fraction(0)
    for spec in new:
        e = spec["e"]
        left, mid, right = spec["levels"]
        bp, k_in = spec["bp"], spec["k_in"]
        area = Fraction(bp * bp, N * N)
        prev = old_by_e.get(e)
        if prev is not None and prev["halted"] == spec["halted"]:
            continue
        if prev is None:
            # block enters at stage s+1; content minus zero is positive
            if spec["halted"]:
                mean = mid + (right - left) * Fraction(k_in, 2 * k_in * k_in)
            else:
                mean = mid
            pos_total += mean * area
            continue
        # constant m_e replaced by the sign pattern: +-(r-l)/2 layout
        if k_in > 20:
            raise TooManyParts(
                f"pattern resolution {k_in} too fine for exact certificate"
            )
        hi, lo = _cut_extrema(np.array([_sylvester_signs(k_in)]))
        amp = (right - left) / 2
        scale = Fraction(bp * bp, k_in * k_in * N * N)
        pos_total += amp * int(hi[0]) * scale
        neg_total += amp * int(lo[0]) * scale
    return max(pos_total, -neg_total)


def value_spectrum(W):
    """Exact (value, mass) pairs with positive mass, sorted by value."""
    counts = {}
    for row in W.values:
        for v in row:
            counts[v] = counts.get(v, 0) + 1
    area = Fraction(1, W.k * W.k)
    return [
        SpectrumEntry(v, counts[v] * area) for v in sorted(counts)
    ]


def decode_halting(spectrum, E):
    """Program ids e <= E whose midpoint value m_e carries positive mass."""
    values = set()
    total = Fraction(0)
    for entry in spectrum:
        v, mass = Fraction(entry.value), Fraction(entry.mass)
        if not 0 <= v <= 1:
            raise MalformedSpectrum(f"value {v} outside [0,1]")
        if mass <= 0:
            raise MalformedSpectrum(f"mass of value {v} must be positive")
        if v in values:
            raise MalformedSpectrum(f"duplicate spectrum value {v}")
        values.add(v)
        total += mass
    if total > 1:
        raise MalformedSpectrum(f"masses sum to {total} > 1")
    return {e for e in range(E + 1) if level_constants(e)[1] in values}


@dataclass(frozen=True)
class FractalStage:
    """Diagonal-fill fractal truncated after `depth` subdivision rounds."""

    depth: int

    @property
    def axis_parts(self):
        return 2 ** (self.depth * (self.depth + 1) // 2)

    def axis_digits(self, p):
        """Per-stage digits of part p; stage m contributes m bits."""
        bits = self.depth * (self.depth + 1) // 2
        if not 0 <= p < 2 ** bits:
            raise InputError(f"part index {p} out of range")
        out = []
        shift = bits
        for m in range(1, self.depth + 1):
            shift -= m
            out.append((p >> shift) & (2 ** m - 1))
        return tuple(out)

    def is_black(self, xdigits, ydigits):
        # the first matching stage blackens the cell and all its children
        return any(a == b for a, b in zip(xdigits, ydigits))

    def white_measure(self):
        out = Fraction(1)
        for m in range(1, self.depth + 1):
            out *= 1 - Fraction(1, 2 ** m)
        return out

    def black_measure(self):
        return 1 - self.white_measure()


def fractal_stage(d):
    if d < 1:
        raise InputError(f"depth must be positive, got {d}")
    return FractalStage(d)


def render_dense(stage):
    """0/1 step graphon of the stage: black cells 1, undecided cells 0."""
    if stage.depth > RENDER_DEPTH_LIMIT:
        raise RenderTooLarge(
            f"depth {stage.depth} needs {stage.axis_parts} parts, "
            f"render limit is depth {RENDER_DEPTH_LIMIT}"
        )
    P = stage.axis_parts
    digits = np.array([stage.axis_digits(p) for p in range(P)], dtype=np.int64)
    black = np.zeros((P, P), dtype=bool)
    for m in range(stage.depth):
        col = digits[:, m]
        black |= col[:, None] == col[None, :]
    rows = tuple(
        tuple(ONE if black[i, j] else ZERO for j in range(P)) for i in range(P)
    )
    return StepGraphon(P, rows)


def fractal_white_limit(tol):
    """Certified rational enclosure of the limiting undecided measure.

    The limit is exp(-S) with S = sum over k of (1/k)/(2**k - 1); the head
    is summed exactly and the tail is below 2**-K / K, since
    1/(2**k - 1) <= 2**-k + 2**(1-2k) and (2/3) K 2**-K <= 1. The
    exponential brackets come from alternating series after argument
    halving, squared back up.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    K = 1
    while Fraction(1, K * 2 ** K) > tol / 4:
        K += 1
    head = sum(Fraction(1, k * (2 ** k - 1)) for k in range(1, K + 1))
    tail = Fraction(1, K * 2 ** K)
    lo = _exp_neg_interval(head + tail, tol / 4)[0]
    hi = _exp_neg_interval(head, tol / 4)[1]
    # brackets add tol/8, the tail gap tol/4; total stays below tol
    if hi - lo > tol:
        raise CertificateError(f"enclosure width {hi - lo} exceeds {tol}")
    return lo, hi


def _exp_neg_interval(x, delta):
    """Rational (lo, hi) with lo <= exp(-x) <= hi and hi - lo small."""
    r = 0
    while x / 2 ** r > Fraction(1, 2):
        r += 1
    xr = x / 2 ** r
    # consecutive alternating partial sums bracket exp(-xr) once terms
    # shrink, which holds from the start for xr <= 1/2
    stop = delta / 2 ** (r + 2)
    term = Fraction(1)
    partial = Fraction(1)
    prev = partial
    n = 0
    while term > stop or n < 2:
        n += 1
        term = term * xr / n
        prev = partial
        partial = partial + (-term if n % 2 else term)
    lo, hi = min(prev, partial), max(prev, partial)
    lo = max(lo, Fraction(0))
    for _ in range(r):
        lo, hi = lo * lo, hi * hi
    return lo, hi


@dataclass(frozen=True)
class MatchingReport:
    ok: bool
    level: int | None = None
    cell: tuple | None = None
    reason: str = ""


def verify_diagonal_matching(d, pattern=None):
    """Walk every white square through depth d and check that the
    next-stage black cells form a perfect row/column matching.

    pattern(level, xdigits, ydigits) may override the construction's
    diagonal rule (used to inject faults); default is the identity
    matching on 2**level sub-intervals.
    """
    if not 1 <= d <= MATCHING_DEPTH_LIMIT:
        raise InputError(
            f"matching walk supports depth 1..{MATCHING_DEPTH_LIMIT}, got {d}"
        )
    if pattern is None:
        def pattern(level, xd, yd):
            return [(i, i) for i in range(2 ** level)]

    whites = [((), ())]
    for level in range(1, d + 1):
        size = 2 ** level
        nxt = []
        for xd, yd in whites:
            pairs = list(pattern(level, xd, yd))
            rows = {p[0] for p in pairs}
            cols = {p[1] for p in pairs}
            if (
                len(pairs) != size
                or len(rows) != size
                or len(cols) != size
                or not all(0 <= i < size and 0 <= j < size for i, j in pairs)
            ):
                return MatchingReport(
                    False, level, (xd, yd),
                    f"black cells are not a bijection on {size} sub-intervals",
                )
            if level < d:
                black = set(pairs)
                for i in range(size):
                    for j in range(size):
                        if (i, j) not in black:
                            nxt.append((xd + (i,), yd + (j,)))
        whites = nxt
    return MatchingReport(True)


@dataclass(frozen=True)
class RectangleProbe:
    max_product: Fraction
    threshold: Fraction
    passed: bool
    trials: int


def rectangle_bound_probe(d, trials, rs, pool_limit=2048):
    """Randomized adversarial search for large white rectangles.

    Candidate unions X, Y are built from dyadic intervals of width
    2**-(2**d - 1); a product is admissible when it avoids every black
    cell of the stages resolvable at that width. Reports the largest
    product measure found and whether it stays within 4**-d.
    """
    if not 1 <= d <= PROBE_DEPTH_LIMIT:
        raise InputError(f"probe supports depth 1..{PROBE_DEPTH_LIMIT}, got {d}")
    if trials < 1:
        raise InputError(f"trial count must be positive, got {trials}")
    bits = 2 ** d - 1
    level = 1
    while (level + 1) * (level + 2) // 2 <= bits:
        level += 1
    universe = 2 ** bits

    def stage_digits(v):
        out = []
        shift = bits
        for m in range(1, level + 1):
            shift -= m
            out.append((v >> shift) & (2 ** m - 1))
        return out

    if universe <= pool_limit:
        pool = list(range(universe))
    else:
        seen = set()
        while len(seen) < pool_limit:
            seen.add(rs.getrandbits(bits))
        pool = sorted(seen)
    P = len(pool)
    digits = np.array([stage_digits(v) for v in pool], dtype=np.int64)
    clean = np.ones((P, P), dtype=bool)
    for m in range(level):
        col = digits[:, m]
        clean &= col[:, None] != col[None, :]

    width = Fraction(1, universe)
    # level-wise complementary digit halves: always admissible, measure 4**-level
    best = Fraction(1, 4 ** level)
    for _ in range(trials):
        xs = list(range(P))
        ys = list(range(P))
        rs.shuffle(xs)
        rs.shuffle(ys)
        X, Y = [], []
        for xi, yi in zip(xs, ys):
            if not Y or bool(clean[xi, Y].all()):
                X.append(xi)
            if not X or bool(clean[X, yi].all()):
                Y.append(yi)
        product = len(X) * len(Y) * width * width
        best = max(best, product)
    threshold = Fraction(1, 4 ** d)
    return RectangleProbe(best, threshold, best <= threshold, trials)


def direct_sum(U, V):
    """Half-scale copies of U and V on the diagonal, zero elsewhere."""
    Ub, Vb = common_refinement(U, V)
    zeros = (ZERO,) * Ub.k
    rows = [r + zeros for r in Ub.values] + [zeros + r for r in Vb.values]
    return StepGraphon(2 * Ub.k, tuple(rows))


def twin_parts(W):
    """Unordered part pairs whose value rows are identical."""
    return [
        (i, j)
        for i in range(W.k)
        for j in range(i + 1, W.k)
        if W.values[i] == W.values[j]
    ]
