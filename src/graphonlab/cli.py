"""Single command-line entry point: exact-rational results, seeded
determinism, and the file formats shared with the library.

Scalar results print as "p/q (≈ decimal)"; the decimal is display-only
and every persisted value is an exact rational. Exit codes: 0 success,
2 invalid input, 3 certificate failure. A --manifest flag records the
command line, seeds, input/output hashes, results, and wall time in one
structured text file, plus the error class on exit 2 or 3; re-running the
recorded command reproduces the outputs byte-exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from fractions import Fraction

from .constructions import (
    HaltingTable,
    SpectrumEntry,
    decode_halting,
    fractal_stage,
    halting_chain_certificate,
    halting_graphon,
    halting_tail_measure,
    render_dense,
    value_spectrum,
)
from .core import make_step_graphon
from .densities import (
    COST_LIMIT,
    _t_ind_many,
    counting_bound,
    enumerate_graph,
    t_ind_exact,
    t_ind_mc,
)
from .errors import CertificateError, FormatError, IllegalWeakening, InputError, UnknownSuite
from .formats import (
    format_graph,
    parse_rational,
    read_graph,
    read_halting_table,
    read_name_dir,
    read_step_graphon,
    write_graph,
    write_name_dir,
    write_pgm,
    write_step_graphon,
)
from .metrics import d1, d2, d_square, d_w_truncated, delta_bound
from .names import (
    TRANSFORMS,
    GraphonName,
    MetricTag,
    validate_name_prefix,
    weaken_name,
)
from .sampling import RandomSource, questionnaire_sample, sample_graph

# user-set sizes refused before any draw
SAMPLE_LIMIT = 4096
MC_TRIALS_LIMIT = 10 ** 5
# refused before any graph is enumerated: the graphs on at most 5 vertices
TRUNC_LIMIT = 1099


class RunManifest:
    """Reproducibility record for one invocation."""

    def __init__(self, argv):
        self.command = "graphonlab " + " ".join(argv)
        self.seeds = []
        self.inputs = []
        self.outputs = []
        self.results = []
        self.error = None

    def note_seed(self, seed):
        self.seeds.append(seed)

    def note_input(self, path):
        self.inputs.append((path, _hash_path(path)))

    def note_output(self, path):
        self.outputs.append((path, _hash_path(path)))

    def note_result(self, label, value):
        self.results.append((label, _frac(value)))

    def render(self, wall):
        lines = [f"command: {self.command}"]
        lines += [f"seed: {s}" for s in self.seeds]
        lines += [f"input: {p} sha256={h}" for (p, h) in self.inputs]
        lines += [f"output: {p} sha256={h}" for (p, h) in self.outputs]
        lines += [f"result: {label} = {v}" for (label, v) in self.results]
        if self.error is not None:
            lines.append(f"error: {self.error}")
        lines.append(f"wall_time_s: {wall:.3f}")
        return "\n".join(lines) + "\n"


def _hash_path(path):
    """sha256 of a file's bytes, or of a directory's files in name order,
    each name and each content prefixed with its length so that no two
    directories share a byte stream."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if os.path.isfile(full):
                with open(full, "rb") as fh:
                    data = fh.read()
                for part in (name.encode(), data):
                    h.update(f"{len(part)}:".encode())
                    h.update(part)
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _frac(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _value_line(q):
    return f"{_frac(q)} (≈ {float(q):.6g})"


def _emit(man, label, q, labeled=False):
    man.note_result(label, q)
    print(f"{label}: {_value_line(q)}" if labeled else _value_line(q))


def _read_sg(path, man):
    W = read_step_graphon(path)
    man.note_input(path)
    return W


def _read_g(path, man):
    G = read_graph(path)
    man.note_input(path)
    return G


def cmd_dist(args, man):
    if args.metric == "dw" and args.trunc > TRUNC_LIMIT:
        raise InputError(f"{args.trunc} terms above the limit {TRUNC_LIMIT}")
    U = _read_sg(args.a, man)
    V = _read_sg(args.b, man)
    if args.metric == "d1":
        _emit(man, "d1", d1(U, V))
    elif args.metric == "d2":
        _emit(man, "d2", d2(U, V))
    elif args.metric == "dsquare":
        _emit(man, "dsquare", d_square(U, V))
    elif args.metric == "deltabound":
        man.note_seed(args.seed)
        b = delta_bound(
            U,
            V,
            blowup_limit=args.blowup_limit,
            budget=args.budget,
            seed=args.seed,
        )
        _emit(man, "lower", b.lower, labeled=True)
        _emit(man, "upper", b.upper, labeled=True)
    else:
        head, tail = d_w_truncated(U, V, args.trunc)
        _emit(man, "head", head, labeled=True)
        _emit(man, "tail", tail, labeled=True)
    return 0


def cmd_tind(args, man):
    if args.mc is not None and args.mc > MC_TRIALS_LIMIT:
        raise InputError(f"{args.mc} trials above the limit {MC_TRIALS_LIMIT}")
    F = _read_g(args.graph, man)
    W = _read_sg(args.graphon, man)
    if args.mc is None:
        _emit(man, "t_ind", t_ind_exact(F, W))
    else:
        man.note_seed(args.seed)
        estimate, stderr = t_ind_mc(F, W, args.mc, args.seed)
        _emit(man, "estimate", estimate, labeled=True)
        _emit(man, "stderr", stderr, labeled=True)
    return 0


def cmd_sample(args, man):
    if args.n > SAMPLE_LIMIT:
        raise InputError(f"{args.n} vertices above the limit {SAMPLE_LIMIT}")
    W = _read_sg(args.graphon, man)
    man.note_seed(args.seed)
    G = sample_graph(W, args.n, RandomSource(args.seed))
    if args.out:
        write_graph(args.out, G)
        man.note_output(args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(format_graph(G))
    return 0


def cmd_questionnaire(args, man):
    man.note_seed(args.seed)
    G, bound = questionnaire_sample(args.n, args.q, RandomSource(args.seed))
    if args.out:
        write_graph(args.out, G)
        man.note_output(args.out)
        _emit(man, "tv_bound", bound, labeled=True)
    else:
        man.note_result("tv_bound", bound)
        print(f"tv_bound: {_value_line(bound)}", file=sys.stderr)
        sys.stdout.write(format_graph(G))
    return 0


def _load_name(indir, man):
    """Name from a finite directory; indices past the end repeat the last
    element, which preserves validity (it is within its own rate of the
    limit)."""
    tag, loaders = read_name_dir(indir)
    man.note_input(indir)
    try:
        mt = MetricTag(tag)
    except ValueError:
        raise FormatError(f"unknown metric tag {tag!r} in manifest") from None
    elems = [load() for load in loaders]
    if not elems:
        raise FormatError(f"name directory {indir} has no elements")
    return GraphonName(mt, lambda j: elems[min(j, len(elems) - 1)]), len(elems)


def cmd_name_transform(args, man):
    frm, to = MetricTag(args.from_tag), MetricTag(args.to_tag)
    name, m = _load_name(args.indir, man)
    if name.tag is not frm:
        raise InputError(f"directory is tagged {name.tag.value}, not {frm.value}")
    man.note_seed(args.seed)
    if (frm, to) not in TRANSFORMS:
        raise IllegalWeakening(
            f"no declared transform from {frm.value} to {to.value}"
        )
    build, cap = TRANSFORMS[frm, to]
    out = build(name, args.seed, args.budget) if build else weaken_name(name, frm, to)
    count = m if cap is None else min(m, cap)
    elements = [out.element(j) for j in range(count)]
    write_name_dir(args.outdir, to.value, elements)
    man.note_output(args.outdir)
    print(f"wrote {count} elements to {args.outdir}")
    return 0


def cmd_name_validate(args, man):
    name, _ = _load_name(args.indir, man)
    man.note_seed(args.seed)
    verdict = validate_name_prefix(
        name, args.m, delta_budget=args.budget, seed=args.seed
    )
    man.results.append(("verdict", type(verdict).__name__))
    print(verdict)
    return 0


def cmd_construct_fractal(args, man):
    stage = fractal_stage(args.d)
    man.results.append(("axis_parts", str(stage.axis_parts)))
    print(f"axis_parts: {stage.axis_parts}")
    _emit(man, "white_measure", stage.white_measure(), labeled=True)
    if args.render:
        write_step_graphon(args.render, render_dense(stage))
        man.note_output(args.render)
        print(f"wrote {args.render}")
    return 0


def cmd_construct_halting(args, man):
    table = read_halting_table(args.table)
    man.note_input(args.table)
    W = halting_graphon(table, args.e_max, args.stage, args.approx)
    write_step_graphon(args.out, W)
    man.note_output(args.out)
    man.results.append(("parts", str(W.k)))
    print(f"parts: {W.k}")
    _emit(man, "tail_measure", halting_tail_measure(args.e_max), labeled=True)
    return 0


def cmd_spectrum(args, man):
    W = _read_sg(args.graphon, man)
    for entry in value_spectrum(W):
        man.note_result(f"mass[{_frac(entry.value)}]", entry.mass)
        print(f"{_frac(entry.value)} {_frac(entry.mass)}")
    return 0


def cmd_decode(args, man):
    man.note_input(args.spectrum)
    entries = []
    with open(args.spectrum, "r", encoding="ascii") as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise FormatError(f"bad spectrum line {line.rstrip()!r}")
            entries.append(
                SpectrumEntry(parse_rational(tokens[0]), parse_rational(tokens[1]))
            )
    shown = decode_halting(entries, args.e_max)
    line = " ".join(str(e) for e in sorted(shown))
    man.results.append(("unhalted", line or "none"))
    print(line)
    return 0


def cmd_render_pgm(args, man):
    W = _read_sg(args.graphon, man)
    write_pgm(args.out, W, args.resolution)
    man.note_output(args.out)
    print(f"wrote {args.out}")
    return 0


def _random_graphon(k, rs, den=64):
    """Symmetric k-part graphon with seeded cells in {0, 1/den, ..., 1};
    the verify suites and the test suite draw from this one stream."""
    vals = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            v = Fraction(rs.below(den + 1), den)
            vals[i][j] = vals[j][i] = v
    return make_step_graphon(k, vals)


def _suite_metric_chain(rs):
    pairs = []
    for _ in range(40):
        k = 1 + rs.below(8)
        pairs.append((_random_graphon(k, rs), _random_graphon(k, rs)))
    triples = []
    for _ in range(20):
        k = 1 + rs.below(6)
        triples.append(tuple(_random_graphon(k, rs) for _ in range(3)))

    def chain(pair):
        U, V = pair
        b = delta_bound(U, V)
        return b.lower <= b.upper <= d_square(U, V) <= d1(U, V)

    def triangle(triple):
        A, B, C = triple
        return d1(A, C) <= d1(A, B) + d1(B, C) and d_square(A, C) <= d_square(
            A, B
        ) + d_square(B, C)

    return [
        ("chain-order", all([chain(p) for p in pairs])),
        ("triangle", all([triangle(t) for t in triples])),
    ]


def _suite_counting_lemma(rs):
    graphs = [enumerate_graph(i) for i in range(75)]  # all orders <= 4
    pairs = []
    for _ in range(20):
        k = 1 + rs.below(5)
        pairs.append((_random_graphon(k, rs), _random_graphon(k, rs)))

    def check(pair):
        U, V = pair
        eps = d_square(U, V)
        # at most 5 parts and 4 vertices: far below COST_LIMIT, no refusals
        tu, tv = (_t_ind_many(graphs, W, COST_LIMIT) for W in pair)
        return all(
            abs(a - b) <= counting_bound(F, eps)
            for F, a, b in zip(graphs, tu, tv)
        )

    return [("counting-lemma", all([check(p) for p in pairs]))]


def _suite_halting_roundtrip(table):
    e_max = max(table.entries, default=0)
    stage, approx = 8, 2
    W = halting_graphon(table, e_max, stage, approx)
    decoded = decode_halting(value_spectrum(W), e_max)
    expected = {e for e in range(e_max + 1) if not table.halted_by(e, stage)}

    def chain(s):
        cert = halting_chain_certificate(table, e_max, s, approx)
        return cert <= Fraction(1, 2 ** (s - 1))

    return [
        ("spectrum-roundtrip", decoded == expected),
        ("stage-chain", all([chain(s) for s in range(1, 7)])),
    ]


def cmd_verify(args, man):
    suites = {
        "metric-chain": _suite_metric_chain,
        "counting-lemma": _suite_counting_lemma,
    }
    if args.suite == "halting-roundtrip":
        if args.table:
            table = read_halting_table(args.table)
            man.note_input(args.table)
        else:
            table = HaltingTable({0: 3, 1: None, 2: 7, 3: None})
        checks = _suite_halting_roundtrip(table)
    elif args.suite in suites:
        man.note_seed(args.seed)
        checks = suites[args.suite](RandomSource(args.seed))
    else:
        raise UnknownSuite(
            f"unknown suite {args.suite!r}; declared: metric-chain, "
            f"counting-lemma, halting-roundtrip"
        )

    failed = 0
    for label, ok in checks:
        status = "pass" if ok else "fail"
        failed += 0 if ok else 1
        man.results.append((f"check[{label}]", status))
        print(f"check {label}: {status}")
    overall = "pass" if failed == 0 else "fail"
    man.results.append(("suite", overall))
    print(f"suite {args.suite}: {overall} ({len(checks)} checks)")
    return 0 if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphonlab",
        description="exact-rational graphon toolkit",
    )
    parser.add_argument(
        "--manifest", metavar="PATH", help="write a reproducibility manifest"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("dist", help="distance between two step graphons")
    p.add_argument(
        "--metric",
        required=True,
        choices=["d1", "d2", "dsquare", "deltabound", "dw"],
    )
    p.add_argument("a", metavar="A.sg")
    p.add_argument("b", metavar="B.sg")
    p.add_argument("--blowup-limit", type=int, default=1, metavar="M")
    p.add_argument("--budget", type=int, default=10 ** 4, metavar="B")
    p.add_argument("--trunc", type=int, default=20, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("tind", help="exact or Monte-Carlo induced density")
    p.add_argument("--graph", required=True, metavar="F.g")
    p.add_argument("--graphon", required=True, metavar="W.sg")
    p.add_argument("--mc", type=int, default=None, metavar="TRIALS")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.set_defaults(func=cmd_tind)

    p = sub.add_parser("sample", help="sample a graph from a graphon")
    p.add_argument("--graphon", required=True, metavar="W.sg")
    p.add_argument("-n", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("-o", "--out", metavar="OUT.g")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "questionnaire", help="answer-matching random graph plus TV bound"
    )
    p.add_argument("-n", type=int, required=True, metavar="N")
    p.add_argument("-Q", dest="q", type=int, required=True, metavar="Q")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("-o", "--out", metavar="OUT.g")
    p.set_defaults(func=cmd_questionnaire)

    p = sub.add_parser("name", help="operations on name directories")
    nsub = p.add_subparsers(dest="name_cmd", required=True)
    q = nsub.add_parser("transform", help="translate between metric tags")
    q.add_argument("--from", dest="from_tag", required=True, metavar="TAG")
    q.add_argument("--to", dest="to_tag", required=True, metavar="TAG")
    q.add_argument("--in", dest="indir", required=True, metavar="DIR")
    q.add_argument("--out", dest="outdir", required=True, metavar="DIR")
    q.add_argument("--seed", type=int, default=0, metavar="S")
    q.add_argument("--budget", type=int, default=2000, metavar="B")
    q.set_defaults(func=cmd_name_transform)
    q = nsub.add_parser("validate", help="check the 2**-j rate on a prefix")
    q.add_argument("--in", dest="indir", required=True, metavar="DIR")
    q.add_argument("-m", type=int, required=True)
    q.add_argument("--budget", type=int, default=10 ** 4, metavar="B")
    q.add_argument("--seed", type=int, default=0, metavar="S")
    q.set_defaults(func=cmd_name_validate)

    p = sub.add_parser("construct", help="build the reference constructions")
    csub = p.add_subparsers(dest="construct_cmd", required=True)
    q = csub.add_parser("fractal", help="diagonal-fill fractal stage")
    q.add_argument("-d", type=int, required=True)
    q.add_argument("--render", metavar="OUT.sg")
    q.set_defaults(func=cmd_construct_fractal)
    q = csub.add_parser("halting", help="halting-table encoding graphon")
    q.add_argument("--table", required=True, metavar="T")
    q.add_argument("-E", dest="e_max", type=int, required=True)
    q.add_argument("-s", dest="stage", type=int, required=True)
    q.add_argument("-a", dest="approx", type=int, default=2)
    q.add_argument("-o", "--out", required=True, metavar="OUT.sg")
    q.set_defaults(func=cmd_construct_halting)

    p = sub.add_parser("spectrum", help="value spectrum of a step graphon")
    p.add_argument("graphon", metavar="W.sg")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("decode", help="unhalted program ids from a spectrum")
    p.add_argument("--spectrum", required=True, metavar="FILE")
    p.add_argument("-E", dest="e_max", type=int, required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("render-pgm", help="greyscale PGM image of a graphon")
    p.add_argument("graphon", metavar="W.sg")
    p.add_argument("-r", "--resolution", type=int, required=True)
    p.add_argument("-o", "--out", required=True, metavar="OUT.pgm")
    p.set_defaults(func=cmd_render_pgm)

    p = sub.add_parser("verify", help="run a declared invariant suite")
    p.add_argument("suite")
    p.add_argument("--table", metavar="T")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    man = RunManifest(argv)
    start = time.perf_counter()
    try:
        code = args.func(args, man)
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        code, man.error = 3, type(exc).__name__
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, man.error = 2, type(exc).__name__
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(man.render(time.perf_counter() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
