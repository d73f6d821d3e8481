"""Random graph generation, empirical graphons, and the questionnaire sampler.

All randomness flows through RandomSource, a seeded wrapper around a fixed,
platform-stable bit generator. Latent vertex positions are 64-bit dyadic
rationals, so comparisons against rational edge probabilities are exact
integer arithmetic; the residual bias against an ideal uniform is below
2**-64 per comparison.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .core import finite_graph, graphon_of_graph, vertex_pairs
from .errors import DigitOutOfRange, InputError

_ALGORITHM = "mt19937-getrandbits"


@dataclass
class RandomSource:
    """Deterministic bit stream; same seed gives the same stream everywhere."""

    seed: int
    algorithm: str = _ALGORITHM
    _gen: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.algorithm != _ALGORITHM:
            raise InputError(f"unknown algorithm id {self.algorithm!r}")
        self._gen = random.Random(self.seed)

    def getrandbits(self, bits):
        if bits < 0:
            raise InputError(f"bit count must be nonnegative, got {bits}")
        if bits == 0:
            return 0
        return self._gen.getrandbits(bits)

    def below(self, n):
        """Uniform integer in [0, n) by rejection, unbiased."""
        if n < 1:
            raise InputError(f"need a positive range, got {n}")
        bits = (n - 1).bit_length()
        while True:
            v = self.getrandbits(bits)
            if v < n:
                return v

    def uniform(self, precision=64):
        """Dyadic uniform in [0, 1) with the given number of bits."""
        if precision < 1:
            raise InputError(f"precision must be positive, got {precision}")
        return Fraction(self.getrandbits(precision), 2 ** precision)

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle driven by this source."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def derive(self, index):
        """Independent child source for parallel experiment streams."""
        raw = hashlib.blake2b(
            f"{self.seed}:{index}".encode("ascii"), digest_size=8
        ).digest()
        return RandomSource(int.from_bytes(raw, "big"), self.algorithm)


def sample_graph(W, n, rs):
    """Vertex-exchangeable random graph: latent positions, then edge coins.

    Draws zeta_0..zeta_{n-1} as 64-bit dyadic uniforms in vertex order, then
    one uniform per vertex pair in lexicographic order; edge {i,j} appears
    iff the pair's uniform is below W(zeta_i, zeta_j).
    """
    if n < 1:
        raise InputError(f"need at least one vertex, got {n}")
    k = W.k
    # a uniform u / 2**64 lies in part floor(u * k / 2**64) and is below
    # p/q iff u * q < p * 2**64: integer compares equal to the Fraction
    # ones, with (q, p * 2**64) kept per cell of the parts drawn
    idx = [(rs.getrandbits(64) * k) >> 64 for _ in range(n)]
    cells = {
        a: [(v.denominator, v.numerator << 64) for v in W.values[a]]
        for a in set(idx)
    }
    edges = []
    for i in range(n):
        row = cells[idx[i]]
        for j in range(i + 1, n):
            q, p_shifted = row[idx[j]]
            if rs.getrandbits(64) * q < p_shifted:
                edges.append((i, j))
    return finite_graph(n, edges)


def empirical_graphon(W, m, rs):
    """Random-free m-part graphon of a sampled m-vertex graph."""
    return graphon_of_graph(sample_graph(W, m, rs))


def questionnaire_sample(n, Q, rs):
    """Graph where two vertices are adjacent iff some questionnaire answer
    matches, truncated after question Q.

    Question q has 2**q equally likely answers. Per vertex the answers are
    drawn for q = 1..Q ascending, vertices in ascending order. Returns the
    graph plus a total-variation bound C(n,2) * 2**-Q on the truncation
    error against the untruncated law: a pair's answers match at some q > Q
    with probability at most sum_{q>Q} 2**-q, then union-bound over pairs.
    """
    if n < 1:
        raise InputError(f"need at least one vertex, got {n}")
    if Q < 1:
        raise InputError(f"need at least one question, got {Q}")
    answers = [[rs.getrandbits(q) for q in range(1, Q + 1)] for _ in range(n)]
    edges = [
        (i, j)
        for (i, j) in vertex_pairs(n)
        if any(answers[i][q] == answers[j][q] for q in range(Q))
    ]
    tv_bound = comb(n, 2) * Fraction(1, 2 ** Q)
    return finite_graph(n, edges), tv_bound


def answers_to_point(answers):
    """Half-open dyadic interval selected by nested subdivision.

    Answer a_q picks one of 2**q equal subintervals of the current interval,
    so after Q answers the width is 2**-(Q(Q+1)/2). Returns (lo, hi).
    """
    lo = Fraction(0)
    width = Fraction(1)
    for q, a in enumerate(answers, start=1):
        if not 0 <= a < 2 ** q:
            raise DigitOutOfRange(f"answer {a} to question {q} not in [0, {2 ** q})")
        width /= 2 ** q
        lo += a * width
    return lo, lo + width
