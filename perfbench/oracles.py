"""Independent reference computations and input builders for the benchmark.

Nothing here calls graphonlab: graphons are plain tuples of Fraction rows,
graphs are (n, frozenset of (i, j) pairs with i < j). The sampler
reimplements the stream that graphonlab.sampling documents (Python's
Mersenne Twister, 64-bit dyadic positions, one coin per pair in
lexicographic order), so seeded samples can be checked bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import isqrt, lcm


class WrongOutput(AssertionError):
    """A request returned an output that an oracle rejects."""


def expect(cond, message):
    if not cond:
        raise WrongOutput(message)


# inputs

def _symmetric(k, entry):
    vals = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            vals[i][j] = vals[j][i] = entry(i, j)
    return tuple(tuple(row) for row in vals)


def random_values(rng, k, den):
    """Symmetric k x k matrix of multiples of 1/den in [0, 1]."""
    return _symmetric(k, lambda i, j: Fraction(rng.randrange(den + 1), den))


def banded_values(rng, k):
    """Banded k-part graphon: 3/4 on and next to the diagonal, 1/4 elsewhere,
    each entry moved by a seeded multiple of 1/64 in [-3/64, 3/64]. Its
    dyadic averagings reach the canonical-name rates at similar levels for
    every seed, so name workloads cost about the same from seed to seed."""
    return _symmetric(k, lambda i, j: Fraction(
        (48 if abs(i - j) <= 1 else 16) + rng.randint(-3, 3), 64))


def random_edges(rng, n, p=0.5):
    return frozenset(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )


def blow_up_values(values, m):
    k = len(values) * m
    return tuple(
        tuple(values[a // m][b // m] for b in range(k)) for a in range(k)
    )


def permute_values(values, sigma):
    k = len(values)
    return tuple(
        tuple(values[sigma[i]][sigma[j]] for j in range(k)) for i in range(k)
    )


def difference_on_refinement(u, v):
    """U - V on the lcm blow-up, as a signed matrix of Fractions."""
    K = lcm(len(u), len(v))
    ub, vb = blow_up_values(u, K // len(u)), blow_up_values(v, K // len(v))
    return [[ub[i][j] - vb[i][j] for j in range(K)] for i in range(K)]


def graph_values(n, edges):
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if (min(i, j), max(i, j)) in edges and i != j else zero
              for j in range(n))
        for i in range(n)
    )


# the documented sampling stream

def _part(k, x_bits):
    # part_index(k, x) for x = x_bits / 2**64 < 1
    return min((x_bits * k) >> 64, k - 1)


def _below(values, a, b, u_bits):
    # u_bits / 2**64 < W[a][b], in integers
    w = values[a][b]
    return u_bits * w.denominator < w.numerator << 64


def _draw(gen, values, n):
    k = len(values)
    idx = [_part(k, gen.getrandbits(64)) for _ in range(n)]
    return frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if _below(values, idx[i], idx[j], gen.getrandbits(64))
    )


def sample_edges(values, n, seed):
    return _draw(random.Random(seed), values, n)


def empirical_values(values, n, seed):
    return graph_values(n, sample_edges(values, n, seed))


def questionnaire_edges(n, Q, seed):
    gen = random.Random(seed)
    answers = [[gen.getrandbits(q) for q in range(1, Q + 1)] for _ in range(n)]
    return frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if any(answers[i][q] == answers[j][q] for q in range(Q))
    )


# densities

def brute_t_ind(n, edges, values):
    """Induced density by summing over all k**n part assignments."""
    k = len(values)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = Fraction(0)
    for a in product(range(k), repeat=n):
        term = Fraction(1)
        for (i, j) in pairs:
            w = values[a[i]][a[j]]
            term *= w if (i, j) in edges else 1 - w
            if not term:
                break
        total += term
    return total / k ** n


def mc_hits(values, n, edges, trials, seed):
    """Trials whose sample equals the target graph, on the sampling stream."""
    gen = random.Random(seed)
    return sum(_draw(gen, values, n) == edges for _ in range(trials))


def stderr_of(estimate, trials):
    """The rounded-up binomial standard error that t_ind_mc documents."""
    var = estimate * (1 - estimate) / trials
    a, b = var.numerator, var.denominator
    root = isqrt(a * b)
    if root * root < a * b:
        root += 1
    return Fraction(root, b)


# halting

def unhalted(entries, e_max, stage):
    return {
        e for e in range(min(e_max, stage) + 1)
        if entries.get(e) is None or entries[e] > stage
    }


# text formats, written and read independently of graphonlab.formats

def format_sg(values):
    rows = [" ".join(f"{v.numerator}/{v.denominator}" for v in row) for row in values]
    return "\n".join([str(len(values))] + rows) + "\n"


def parse_sg(text):
    lines = [line.split() for line in text.splitlines() if line.strip()]
    k = int(lines[0][0])
    expect(len(lines) == k + 1, "step graphon file has the wrong row count")
    return tuple(tuple(Fraction(t) for t in row) for row in lines[1:])


def format_table(entries):
    return "".join(
        f"{e} -\n" if t is None else f"{e} {t}\n" for e, t in sorted(entries.items())
    )


def check_chain(lower, upper, dsq, d1):
    """lower <= upper <= d_square <= d1, skipping the values not given."""
    expect(0 <= lower <= upper, f"bracket [{lower}, {upper}] is not ordered")
    if dsq is not None:
        expect(upper <= dsq, f"upper {upper} exceeds d_square {dsq}")
    if d1 is not None:
        expect((dsq if dsq is not None else upper) <= d1, "d_square exceeds d1")
