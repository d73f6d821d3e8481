"""The three workloads: seeded request rounds, their checks and digests.

A round is a fixed list of request kinds with fresh seeded inputs, so
every round costs about the same and a run's mix does not depend on
where its time runs out. Inputs come from random.Random seeded with
(workload, seed, round); graphonlab receives only the generated values.

Request code calls graphonlab through module attributes (gl.metrics.d1,
not a name imported once), so the traced run's rebinding is seen. A
request returns its raw output; check() runs afterwards, outside the
request's timer, and raises oracles.WrongOutput on a wrong output.
check() returns the request's brackets (lower, upper) and whether its
answer stayed open (an Inconclusive verdict or a bracket with a gap);
digest() returns the canonical text of its uniquely defined outputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import oracles as O
from oracles import expect

TWO_PART = ((Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)))
UNEQUAL = ((4, 6), (6, 10), (8, 12), (12, 16), (15, 16))
FULL_ENUM_PARTS = 12


@dataclass
class Request:
    kind: str
    run: object
    check: object
    digest: object = None
    inputs: tuple = field(default_factory=tuple)


@dataclass
class Answer:
    brackets: list = field(default_factory=list)
    open: bool = False


def _frac(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _rng(workload, seed, r):
    return random.Random(f"{workload}:{seed}:{r}")


class Workload:
    name = ""

    def __init__(self, gl, seed, workdir):
        self.gl = gl
        self.seed = seed
        self.workdir = workdir

    def graphon(self, values):
        return self.gl.core.StepGraphon(len(values), tuple(values))

    def graph(self, n, edges):
        return self.gl.core.FiniteGraph(n, frozenset(edges))

    def setup(self):
        """Fixed inputs shared by every round."""

    def round(self, r):
        raise NotImplementedError

    def end_round(self, r):
        """Drop files a round wrote."""

    def close(self):
        pass

    # shared checks

    def check_witness(self, U, V, bound):
        """Re-evaluate a delta_bound witness: d_square after aligning the
        blow-ups must equal the reported upper bound."""
        if bound.witness is None:
            return
        gl = self.gl
        m, sigma = bound.witness
        Ur, Vr = gl.reduce_step_graphon(U), gl.reduce_step_graphon(V)
        K = m * lcm(Ur.k, Vr.k)
        aligned = gl.permute_parts(gl.blow_up(Ur, K // Ur.k), sigma)
        expect(
            gl.d_square(aligned, gl.blow_up(Vr, K // Vr.k)) == bound.upper,
            f"witness {bound.witness} does not reproduce upper {bound.upper}",
        )

    def check_cut(self, U, V, dsq):
        """d_square against the full (S, T) enumeration oracle."""
        if lcm(U.k, V.k) > FULL_ENUM_PARTS:
            return
        diff = O.difference_on_refinement(U.values, V.values)
        expect(
            self.gl.cut_norm_full_enumeration(diff) == dsq,
            "d_square differs from the full enumeration oracle",
        )


class Align(Workload):
    """Certified distances between fresh seeded pairs; every pair is new,
    so no per-graphon cache can help."""

    name = "align"

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        reqs = []
        for k in list(range(1, 9)) * 2:
            U, V = (self.graphon(O.random_values(rng, k, 64)) for _ in range(2))
            reqs.append(self._distance("equal_small", U, V, 2))
        # three 18-part pairs and the two empirical pairs below are the
        # heaviest answered requests, close in time; with five of them a
        # round, p90 falls inside that cluster rather than at its edge
        for k in (12, 14, 16, 18, 18, 18):
            U, V = (self.graphon(O.random_values(rng, k, 64)) for _ in range(2))
            reqs.append(self._d1_dsq(U, V))
        for k in (4, 6, 7, 8):
            U, V = (self.graphon(O.random_values(rng, k, 2 ** 31)) for _ in range(2))
            reqs.append(self._distance("large_den", U, V, 3))
        for a, b in UNEQUAL:
            U = self.graphon(O.random_values(rng, a, 64))
            V = self.graphon(O.random_values(rng, b, 64))
            reqs.append(self._unequal(U, V))
        for n in (6, 7, 7):
            reqs.append(self._hat(
                self.graph(n, O.random_edges(rng, n)),
                self.graph(n, O.random_edges(rng, n)),
            ))
        for _ in range(2):
            emp = self.graphon(O.empirical_values(TWO_PART, 64, rng.getrandbits(64)))
            reqs.append(self._vs_empirical(self.graphon(TWO_PART), emp))
        for k, m in ((3, 2), (2, 4)):
            U = self.graphon(O.random_values(rng, k, 64))
            sigma = list(range(k * m))
            rng.shuffle(sigma)
            V = self.graphon(O.permute_values(O.blow_up_values(U.values, m), sigma))
            reqs.append(self._known_zero(U, V, m))
        return reqs

    def _distance(self, kind, U, V, lower_limit):
        gl = self.gl

        def run():
            return (
                gl.metrics.d1(U, V),
                gl.metrics.d2(U, V),
                gl.metrics.d_square(U, V),
                gl.metrics.delta_bound(U, V, lower_vertex_limit=lower_limit),
            )

        def check(out):
            d1, d2, dsq, b = out
            O.check_chain(b.lower, b.upper, dsq, d1)
            expect(d2 <= d1, "d2 exceeds d1")
            self.check_cut(U, V, dsq)
            self.check_witness(U, V, b)
            return Answer([(b.lower, b.upper)], b.lower < b.upper)

        def digest(out):
            return " ".join(_frac(x) for x in out[:3])

        return Request(kind, run, check, digest, (U.values, V.values))

    def _d1_dsq(self, U, V):
        gl = self.gl

        def run():
            return gl.metrics.d1(U, V), gl.metrics.d_square(U, V)

        def check(out):
            d1, dsq = out
            expect(0 <= dsq <= d1, "d_square exceeds d1")
            self.check_cut(U, V, dsq)
            return Answer()

        return Request("equal_large", run, check,
                       lambda out: " ".join(_frac(x) for x in out),
                       (U.values, V.values))

    def _unequal(self, U, V):
        gl = self.gl

        def run():
            return (
                gl.metrics.d1(U, V),
                gl.metrics.d2(U, V),
                gl.metrics.d_square(U, V),
            )

        def check(out):
            d1, d2, dsq = out
            expect(d2 <= d1 and dsq <= d1, "distance chain broken")
            self.check_cut(U, V, dsq)
            return Answer()

        return Request("unequal", run, check,
                       lambda out: " ".join(_frac(x) for x in out),
                       (U.values, V.values))

    def _hat(self, G, H):
        gl = self.gl

        def run():
            return gl.metrics.hat_delta(G, H)

        def check(b):
            expect(b.lower == b.upper, "exact hat_delta is not a point")
            _, sigma = b.witness
            UG = self.graphon(O.graph_values(G.n, G.edges))
            UH = self.graphon(O.graph_values(H.n, H.edges))
            expect(
                gl.d_square(gl.permute_parts(UG, sigma), UH) == b.upper,
                "hat_delta witness does not reproduce its value",
            )
            expect(b.upper <= gl.d_square(UG, UH), "alignment worse than identity")
            return Answer([(b.lower, b.upper)], False)

        return Request("hat_exact", run, check, None, (G, H))

    def _vs_empirical(self, U, V):
        gl = self.gl

        def run():
            return gl.metrics.delta_bound(U, V, lower_vertex_limit=2)

        def check(b):
            O.check_chain(b.lower, b.upper, None, None)
            expect(b.upper <= gl.d1(U, V), "upper exceeds the identity L1")
            return Answer([(b.lower, b.upper)], b.lower < b.upper)

        return Request("vs_empirical", run, check, None, (V.values,))

    def _known_zero(self, U, V, m):
        gl = self.gl

        def run():
            b = gl.metrics.delta_bound(U, V, lower_vertex_limit=2)
            return b, gl.metrics.d1(U, gl.core.blow_up(U, m))

        def check(out):
            b, d1 = out
            expect(b.lower == 0, "nonzero lower bound on a zero distance")
            expect(d1 == 0, "blow-up moved the graphon in L1")
            O.check_chain(b.lower, b.upper, None, None)
            self.check_witness(U, V, b)
            return Answer([(b.lower, b.upper)], b.lower < b.upper)

        return Request("known_zero", run, check, lambda out: _frac(out[1]),
                       (U.values, V.values))


class Density(Workload):
    """Densities and samples against a few fixed sources; the sources
    recur in every round, so caching shows here and not in align."""

    name = "density"

    def setup(self):
        rng = _rng(self.name, self.seed, "sources")
        self.sources = {
            k: self.graphon(O.random_values(rng, k, 64)) for k in (4, 8, 16, 32)
        }
        self.graphs = [self.gl.densities.enumerate_graph(i) for i in range(75)]
        self._profile_oracle = {}

    def round(self, r):
        # Counts are set so that the median falls inside the run of
        # identical 8-part profiles and p90 inside the run of samples,
        # which keeps both percentiles steady from seed to seed. In
        # rising cost: questionnaires, small t_ind, mc and 4-part profiles;
        # 8-part profiles; profiles of 16 parts, dw at n = 32; samples;
        # t_ind on 32 parts and dw at n = 128.
        rng = _rng(self.name, self.seed, r)
        S = self.sources
        reqs = [self._questionnaire(rng.getrandbits(64)) for _ in range(4)]
        for k, n, count in ((4, 5, 4), (16, 4, 4), (8, 5, 1), (32, 4, 1)):
            for _ in range(count):
                F = self.graph(n, O.random_edges(rng, n))
                reqs.append(self._t_ind(F, S[k]))
        for n, count in ((8, 1), (32, 2), (128, 1)):
            reqs += [self._dw(n, rng.getrandbits(64)) for _ in range(count)]
        for _ in range(2):
            n = rng.choice((3, 4))
            F = self.graph(n, O.random_edges(rng, n))
            reqs.append(self._mc(F, S[4], rng.getrandbits(64)))
        for k, count in ((4, 2), (8, 9), (16, 4)):
            reqs += [self._profile(k) for _ in range(count)]
        for _ in range(4):
            reqs.append(self._sample(S[8], rng.getrandbits(64)))
        return reqs

    def _profile(self, k):
        gl, W = self.gl, self.sources[k]

        def run():
            return [gl.densities.t_ind_exact(F, W) for F in self.graphs]

        def check(ts):
            sums = {}
            for F, t in zip(self.graphs, ts):
                expect(0 <= t <= 1, "density outside [0, 1]")
                sums[F.n] = sums.get(F.n, 0) + t
            expect(all(s == 1 for s in sums.values()),
                   "labelled densities on n vertices do not sum to 1")
            if k <= 4:
                if k not in self._profile_oracle:
                    self._profile_oracle[k] = [
                        O.brute_t_ind(F.n, F.edges, W.values) for F in self.graphs
                    ]
                expect(ts == self._profile_oracle[k],
                       "t_ind_exact differs from brute force")
            return Answer()

        return Request("profile", run, check,
                       lambda ts: " ".join(_frac(t) for t in ts), (W.values,))

    def _t_ind(self, F, W):
        gl = self.gl

        def run():
            return gl.densities.t_ind_exact(F, W)

        def check(t):
            expect(0 <= t <= 1, "density outside [0, 1]")
            if W.k <= 4:
                expect(t == O.brute_t_ind(F.n, F.edges, W.values),
                       "t_ind_exact differs from brute force")
            return Answer()

        return Request("t_ind", run, check, _frac, (F, W.values))

    def _dw(self, n, seed):
        gl = self.gl
        V = self.graphon(TWO_PART)

        def run():
            U = gl.sampling.empirical_graphon(V, n, gl.sampling.RandomSource(seed))
            return U, gl.metrics.d_w_truncated(U, V, 20)

        def check(out):
            U, (head, tail) = out
            expect(U.values == O.empirical_values(TWO_PART, n, seed),
                   "empirical graphon differs from the documented stream")
            expect(tail == Fraction(1, 2 ** 19), "tail bound is not 2**-19")
            expect(0 <= head <= 2, "truncated metric outside [0, 2]")
            return Answer([(head, head + tail)], True)

        return Request("dw", run, check, lambda out: _frac(out[1][0]), (n, seed))

    def _mc(self, F, W, seed, trials=300):
        gl = self.gl

        def run():
            return gl.densities.t_ind_mc(F, W, trials, seed)

        def check(out):
            est, err = out
            hits = O.mc_hits(W.values, F.n, F.edges, trials, seed)
            expect(est == Fraction(hits, trials),
                   "Monte-Carlo estimate differs from the documented stream")
            expect(err == O.stderr_of(est, trials), "wrong standard error")
            return Answer()

        return Request("mc", run, check,
                       lambda out: f"{_frac(out[0])} {_frac(out[1])}",
                       (F, W.values, seed))

    def _sample(self, W, seed, n=256):
        gl = self.gl

        def run():
            return gl.sampling.sample_graph(W, n, gl.sampling.RandomSource(seed))

        def check(G):
            expect(G.n == n and G.edges == O.sample_edges(W.values, n, seed),
                   "sample differs from the documented stream")
            return Answer()

        return Request("sample", run, check, lambda G: str(sorted(G.edges)),
                       (W.values, seed))

    def _questionnaire(self, seed, n=64, Q=6):
        gl = self.gl

        def run():
            return gl.sampling.questionnaire_sample(
                n, Q, gl.sampling.RandomSource(seed)
            )

        def check(out):
            G, tv = out
            expect(G.edges == O.questionnaire_edges(n, Q, seed),
                   "questionnaire graph differs from the documented stream")
            expect(tv == Fraction(n * (n - 1) // 2, 2 ** Q), "wrong TV bound")
            return Answer()

        return Request("questionnaire", run, check,
                       lambda out: f"{sorted(out[0].edges)} {_frac(out[1])}", (seed,))


class Names(Workload):
    """A file-backed name pipeline through graphonlab.cli.main, in process:
    builds and transforms write name directories, validations read them."""

    name = "names"
    E_MAX, STAGE = 3, 8

    def setup(self):
        self.fractal = self.gl.constructions.render_dense(
            self.gl.constructions.fractal_stage(3)
        )
        self.round_inputs = {}
        self._round_inputs(0)

    def _dir(self, r, *parts):
        return os.path.join(self.workdir, f"r{r}", *parts)

    def _round_inputs(self, r):
        """Write the round's input files: empirical deltasquare names and a
        halting table, with the benchmark's own writer."""
        if r in self.round_inputs:
            return self.round_inputs[r]
        rng = _rng(self.name, self.seed, r)
        os.makedirs(self._dir(r), exist_ok=True)
        sources = {k: O.banded_values(rng, k) for k in (3, 5, 6)}
        empirical = []
        for i in range(2):
            d = self._dir(r, f"emp{i}")
            os.makedirs(d)
            names = []
            for j, n in enumerate((2, 4, 16, 32)):
                fname = f"elem_{j:03d}.sg"
                with open(os.path.join(d, fname), "w", encoding="ascii") as fh:
                    fh.write(O.format_sg(O.empirical_values(TWO_PART, n, rng.getrandbits(64))))
                names.append(fname)
            with open(os.path.join(d, "manifest.txt"), "w", encoding="ascii") as fh:
                fh.write("\n".join(["deltasquare"] + names) + "\n")
            empirical.append(d)
        entries = {
            e: (None if rng.random() < 0.4 else rng.randint(1, 12))
            for e in range(self.E_MAX + 1)
        }
        table = self._dir(r, "table.txt")
        with open(table, "w", encoding="ascii") as fh:
            fh.write(O.format_table(entries))
        self.round_inputs[r] = (sources, empirical, entries, table)
        return self.round_inputs[r]

    def end_round(self, r):
        self.round_inputs.pop(r, None)
        shutil.rmtree(self._dir(r), ignore_errors=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def cli(self, argv):
        """Run cli.main in process and return its standard output. Exit
        codes 2 (invalid input) and 3 (certificate failure) are refusals;
        any other nonzero code, such as 1 from a failed verify suite, is a
        wrong answer."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.gl.cli.main(argv)
        if code in CLI_REFUSAL_CODES:
            raise CliRefusal(code, err.getvalue())
        expect(code == 0, f"{' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def round(self, r):
        sources, empirical, entries, table = self._round_inputs(r)
        reqs = []
        built = {}
        for k, vals in sources.items():
            built[k] = {}
            reqs.append(self._build(r, k, vals, built[k]))
        chain = (("d1", "c"), ("dsquare", "s"), ("deltasquare", "ds"), ("dw", "dw"))
        for k in sources:
            for (frm, a), (to, b) in zip(chain, chain[1:]):
                reqs.append(self._transform(r, k, frm, to, a, b))
        for k in sources:
            reqs.append(self._dist(r, k, "d1", 2, 3))
            reqs += [self._dist(r, k, m, 1, 2) for m in ("d1", "d2", "dsquare")]
        for d in empirical:
            reqs.append(self._transform_empirical(d))
        for k in sources:
            reqs.append(self._validate(r, k, "c", "d1", 4))
            reqs.append(self._validate(r, k, "s", "dsquare", 3))
            reqs.append(self._validate(r, k, "ds", "deltasquare", 3))
            reqs.append(self._validate_dw(built[k], 3))
        reqs.append(self._validate_empirical(empirical[0]))
        for d in empirical:
            reqs += [self._bracket(d, i, 3) for i in (0, 1, 2)]
        reqs.append(self._randomfree())
        reqs += self._halting(r, entries, table)
        return reqs

    def _build(self, r, k, vals, slot):
        gl = self.gl
        U = self.graphon(vals)
        d = self._dir(r, f"c{k}")

        def run():
            name = gl.names.canonical_name(U)
            elems = [name.element(j) for j in range(4)]
            gl.formats.write_name_dir(d, "d1", elems)
            return elems

        def check(elems):
            slot["elems"] = elems
            for j, e in enumerate(elems):
                expect(O.parse_sg(_read(d, f"elem_{j:03d}.sg")) == e.values,
                       "name directory does not hold the element")
                expect(gl.d1(e, U) <= Fraction(1, 2 ** (j + 1)),
                       "canonical element off its rate")
            return Answer()

        return Request("build", run, check, lambda elems: _dir_bytes(d), (vals,))

    def _transform(self, r, k, frm, to, a, b):
        src, dst = self._dir(r, f"{a}{k}"), self._dir(r, f"{b}{k}")

        def run():
            return self.cli(["name", "transform", "--from", frm, "--to", to,
                             "--in", src, "--out", dst])

        def check(out):
            expect(out == f"wrote 4 elements to {dst}\n", f"unexpected output {out!r}")
            expect(_read(dst, "manifest.txt").split()[0] == to, "wrong tag in manifest")
            shift = 3 if to == "dw" else 0
            for j in range(4):
                expect(
                    _read(dst, f"elem_{j:03d}.sg") == _read(src, f"elem_{min(j + shift, 3):03d}.sg"),
                    "transform changed an element",
                )
            return Answer()

        return Request("transform", run, check,
                       lambda out: out.replace(dst, "OUT") + _dir_bytes(dst))

    def _dist(self, r, k, metric, i, j):
        d = self._dir(r, f"c{k}")
        fa, fb = f"elem_{i:03d}.sg", f"elem_{j:03d}.sg"

        def run():
            return self.cli(["dist", "--metric", metric, os.path.join(d, fa),
                             os.path.join(d, fb)])

        def check(out):
            value = Fraction(out.split()[0])
            diff = O.difference_on_refinement(*(O.parse_sg(_read(d, f)) for f in (fa, fb)))
            cells = len(diff) ** 2
            l1 = sum(abs(x) for row in diff for x in row) / cells
            if metric == "d1":
                expect(value == l1, "d1 differs from the cellwise mean")
            elif metric == "d2":
                expect(value == sum(x * x for row in diff for x in row) / cells,
                       "d2 differs from the cellwise mean square")
            else:
                expect(value <= l1, "dsquare exceeds d1")
                if len(diff) <= FULL_ENUM_PARTS:
                    expect(value == self.gl.cut_norm_full_enumeration(diff),
                           "dsquare differs from the full enumeration oracle")
            return Answer()

        return Request(f"dist_{metric}", run, check, lambda out: out)

    def _transform_empirical(self, d):
        dst = d + "_dw"

        def run():
            return self.cli(["name", "transform", "--from", "deltasquare", "--to", "dw",
                             "--in", d, "--out", dst])

        def check(out):
            expect(out == f"wrote 4 elements to {dst}\n", f"unexpected output {out!r}")
            last = O.parse_sg(_read(d, "elem_003.sg"))
            for j in range(4):
                expect(O.parse_sg(_read(dst, f"elem_{j:03d}.sg")) == last,
                       "thinning did not repeat the last element")
            return Answer()

        return Request("transform", run, check)

    def _validate(self, r, k, prefix, tag, m):
        d = self._dir(r, f"{prefix}{k}")

        def run():
            return self.cli(["name", "validate", "--in", d, "-m", str(m)])

        def check(out):
            return _verdict(out, exact=tag in ("d1", "dsquare"))

        return Request(f"validate_{tag}", run, check)

    def _validate_dw(self, slot, m):
        gl = self.gl

        def run():
            elems = slot["elems"]
            name = gl.names.GraphonName(gl.names.MetricTag.DW, lambda j: elems[j])
            return repr(gl.names.validate_name_prefix(name, m))

        def check(out):
            return _verdict(out, exact=False)

        return Request("validate_dw", run, check)

    def _validate_empirical(self, d):
        def run():
            return self.cli(["name", "validate", "--in", d, "-m", "4"])

        def check(out):
            if out.startswith("Violation"):
                return Answer()
            return _verdict(out, exact=False)

        return Request("validate_empirical", run, check, None, (_dir_bytes(d),))

    def _bracket(self, d, i, j):
        fa, fb = f"elem_{i:03d}.sg", f"elem_{j:03d}.sg"

        def run():
            return self.cli(["dist", "--metric", "deltabound",
                             os.path.join(d, fa), os.path.join(d, fb)])

        def check(out):
            vals = {}
            for line in out.splitlines():
                label, rest = line.split(": ", 1)
                vals[label] = Fraction(rest.split()[0])
            lower, upper = vals["lower"], vals["upper"]
            U, V = (self.graphon(O.parse_sg(_read(d, f))) for f in (fa, fb))
            O.check_chain(lower, upper, None, None)
            expect(upper <= self.gl.d1(U, V), "upper exceeds the identity L1")
            return Answer([(lower, upper)], lower < upper)

        return Request("bracket", run, check)

    def _randomfree(self):
        gl = self.gl
        W = self.fractal

        def run():
            name = gl.names.randomfree_d1_name(
                gl.names.canonical_name(W, gl.names.MetricTag.DSQUARE)
            )
            return name.element(0)

        def check(e):
            dist = gl.d1(e, W)
            expect(dist == gl.randomfree_d1_distance(e),
                   "2p(1-p) formula differs from exact L1")
            expect(dist < Fraction(1, 2), "upgraded element off its rate")
            return Answer()

        return Request("randomfree", run, check, lambda e: O.format_sg(e.values))

    def _halting(self, r, entries, table):
        H, spec = self._dir(r, "H.sg"), self._dir(r, "spec.txt")
        E, s = str(self.E_MAX), str(self.STAGE)
        expected = O.unhalted(entries, self.E_MAX, self.STAGE)

        def construct():
            return self.cli(["construct", "halting", "--table", table,
                             "-E", E, "-s", s, "-o", H])

        def spectrum():
            out = self.cli(["spectrum", H])
            with open(spec, "w", encoding="ascii") as fh:
                fh.write(out)
            return out

        def decode():
            return self.cli(["decode", "--spectrum", spec, "-E", E])

        def verify():
            return self.cli(["verify", "halting-roundtrip", "--table", table])

        def check_construct(out):
            expect(out.startswith("parts: "), "construct printed no part count")
            return Answer()

        def check_spectrum(out):
            masses = [Fraction(line.split()[1]) for line in out.splitlines()]
            expect(sum(masses) == 1, "spectrum masses do not sum to 1")
            return Answer()

        def check_decode(out):
            expect(out.split() == [str(e) for e in sorted(expected)],
                   f"decoded {out.split()}, expected {sorted(expected)}")
            return Answer()

        def check_verify(out):
            expect(out.splitlines()[-1].startswith("suite halting-roundtrip: pass"),
                   "halting round trip failed")
            return Answer()

        same = lambda out: out.replace(H, "H").replace(table, "T")
        return [
            Request("halting_construct", construct, check_construct,
                    lambda out: same(out) + _read(H), (sorted(entries.items()),)),
            Request("halting_spectrum", spectrum, check_spectrum, same),
            Request("halting_decode", decode, check_decode, same),
            Request("halting_verify", verify, check_verify, same),
        ]


CLI_REFUSAL_CODES = (2, 3)


class CliRefusal(Exception):
    """The CLI refused a request: exit code 2 or 3."""

    def __init__(self, code, stderr):
        super().__init__(f"exit {code}: {stderr.strip()}")
        self.code = code


def refusal_types(gl):
    """Exceptions that count as a refused request rather than a failed run:
    graphonlab's input errors, an exhausted alignment budget, and CLI
    refusals."""
    return (gl.errors.InputError, gl.errors.AlignmentBudgetExceeded, CliRefusal)


def _verdict(out, exact):
    out = out.strip()
    expect(not out.startswith("Violation"),
           f"canonical name reported invalid: {out}")
    if exact:
        expect(out == "Ok()", f"exact tag gave {out}")
    expect(out == "Ok()" or out.startswith("Inconclusive("), f"unknown verdict {out}")
    return Answer([], out.startswith("Inconclusive("))


def _read(*path):
    with open(os.path.join(*path), encoding="ascii") as fh:
        return fh.read()


def _dir_bytes(d):
    return "".join(f"{f}\n{_read(d, f)}" for f in sorted(os.listdir(d)))


WORKLOADS = {w.name: w for w in (Align, Density, Names)}
