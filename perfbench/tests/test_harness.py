"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q

The seeded-digest test imports graphonlab from the checkout's src/.
"""

import os
import sys
import types
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import Answer, Request  # noqa: E402


# percentile rule


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.5) == 50
    assert harness.percentile(values, 0.9) == 90
    assert harness.percentile(list(reversed(values)), 0.9) == 90
    assert harness.percentile([7], 0.9) == 7


def test_p90_needs_one_hundred_samples():
    assert harness.min_samples_for(0.9) == 100
    assert harness.samples_beyond(100, 0.9) == 10
    assert harness.samples_beyond(99, 0.9) == 9


def test_end_to_end_refuses_too_few_samples():
    res = harness.LoopResult(latencies=[0.01] * 99, attempted=99, busy=0.99,
                             answers=[Answer()] * 99)
    with pytest.raises(ValueError):
        harness.end_to_end(res, 0.1, 10.0)
    res.latencies.append(0.02)
    res.answers.append(Answer([(Fraction(0), Fraction(1, 4))], True))
    res.attempted = 100
    m = harness.end_to_end(res, 0.1, 10.0)
    assert m["latency_p90_ms"] == pytest.approx(10.0)
    assert m["inconclusive_share"] == pytest.approx(0.01)
    assert m["bracket_gap_median"] == 0.25


class _Host:
    """A fake calibration: fixed chunk times, slowdown = their mean."""

    def __init__(self, chunks=()):
        self.chunks = iter(list(chunks) + [1.0] * 1000)

    def chunk(self):
        return next(self.chunks)

    def slowdown(self, samples):
        return sum(samples) / len(samples)


def test_each_request_is_scaled_by_its_neighbouring_chunks():
    assert harness.HALF_WINDOW == 4
    # chunk i runs just before request i, chunk i + 1 just after it; one slow
    # chunk at index 5 is seen by requests 1 to 8 and by no other
    res = harness.run_loop(_round(["ok"] * 50), 0.0, (_Refusal,),
                           _Host([1.0] * 5 + [9.0]), clock=_clock())
    assert res.latencies[0] == pytest.approx(0.001)        # chunks 0-4
    assert res.latencies[1] == pytest.approx(0.001 * 6 / 14)  # chunks 0-5
    assert res.latencies[4] == pytest.approx(0.0005)       # chunks 1-8
    assert res.latencies[8] == pytest.approx(0.0005)       # chunks 5-12
    assert res.latencies[9] == pytest.approx(0.001)        # chunks 6-13
    assert res.raw_busy == pytest.approx(0.1)
    assert len(res.calibration) == 101


def test_slowdown_is_one_at_the_nominal_chunk_time():
    nominal = calibrate.NOMINAL_CHUNK_S
    assert calibrate.slowdown([nominal] * 3) == pytest.approx(1.0)
    assert calibrate.slowdown([2 * nominal, 4 * nominal]) == pytest.approx(3.0)
    assert calibrate.chunk() > 0


# self time with nested spans


def _span(name, start, end, parent):
    return (name, start, end, parent, 0, False)


def test_self_time_subtracts_children_once():
    spans = [
        _span("names.validate_name_prefix", 0.0, 10.0, -1),
        _span("metrics.delta_bound", 1.0, 5.0, 0),
        _span("densities.t_ind_exact", 2.0, 3.0, 1),
        _span("metrics.d1", 6.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 3.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children():
    spans = [
        _span("cli.main", 0.0, 4.0, -1),
        _span("formats.read_step_graphon", 1.0, 3.0, 0),
        _span("formats.read_graph", 2.0, 5.0, 0),  # clipped at the parent end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parents_and_refusals():
    class Refused(Exception):
        pass

    tracer = tracing.Tracer((Refused,))

    def inner(x):
        if x < 0:
            raise Refused()
        return x

    inner_w = tracer.span("metrics.inner", inner)
    outer_w = tracer.span("names.outer", lambda x: inner_w(x))
    tracer.start_request(7)
    assert outer_w(1) == 1
    with pytest.raises(Refused):
        outer_w(-1)
    tracer.end_request()
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["names.outer", "metrics.inner", "names.outer", "metrics.inner"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, -1, 2]
    assert all(s[tracing.REQUEST] == 7 for s in tracer.spans)
    # the refusal is counted at the span it first escaped, not again above
    assert [s[tracing.REFUSED] for s in tracer.spans] == [False, False, False, True]
    metrics = harness.layer_metrics(tracer.spans, {})
    assert metrics["metrics.refusals"] == 1 and metrics["names.refusals"] == 0
    assert metrics["names.calls"] == 2


def test_annotations_run_after_the_request_outside_every_span():
    tracer = tracing.Tracer()
    calls = []

    def annotate(args, kwargs, result):
        calls.append(len(tracer.spans))
        return {"n": args[0], "result": result}

    inner_w = tracer.span("densities.inner", lambda x: x + 1, annotate)
    outer_w = tracer.span("names.outer", lambda x: inner_w(x) + inner_w(x))
    tracer.start_request(0)
    assert outer_w(3) == 8
    assert calls == [] and tracer.extra == {}
    tracer.end_request()
    assert tracer.extra == {1: {"n": 3, "result": 4}, 2: {"n": 3, "result": 4}}
    # annotators ran once the request was over, after every span had closed
    assert calls == [3, 3] and not tracer.enabled
    assert outer_w(3) == 8 and len(tracer.spans) == 3  # nothing recorded between requests


# refusals against wrong outputs


class _Refusal(Exception):
    pass


def _round(kinds):
    def make(r):
        reqs = []
        for kind in kinds:
            if kind == "refused":
                def run():
                    raise _Refusal()
                reqs.append(Request(kind, run, lambda out: Answer()))
            elif kind == "bracket":
                reqs.append(Request(kind, lambda: 1,
                                    lambda out: Answer([(Fraction(0), Fraction(1, 2))], True)))
            elif kind == "wrong":
                def check(out):
                    raise oracles.WrongOutput("bad")
                reqs.append(Request(kind, lambda: 1, check))
            else:
                reqs.append(Request(kind, lambda: 1, lambda out: Answer()))
        return reqs
    return make


def _clock():
    t = [0.0]

    def tick():
        t[0] += 0.001
        return t[0]
    return tick


def test_refusals_count_as_failed_and_keep_running():
    res = harness.run_loop(_round(["ok", "refused", "ok", "bracket"]), 0.0, (_Refusal,),
                           _Host(), clock=_clock())
    assert res.attempted == 100 and res.failed == 25
    assert len(res.latencies) == 75
    assert res.refused_by == {"refused:_Refusal": 25}
    assert harness.end_to_end(
        harness.LoopResult(latencies=res.latencies * 2, attempted=200, busy=1.0,
                           answers=res.answers * 2), 0.1, 1.0
    )["completed_share"] == 0.75


def test_wrong_output_ends_the_run():
    with pytest.raises(oracles.WrongOutput):
        harness.run_loop(_round(["ok", "wrong"]), 0.0, (_Refusal,), _Host(), clock=_clock())


def test_unexpected_exception_is_not_a_refusal():
    def make(r):
        def run():
            raise TypeError("bug")
        return [Request("bug", run, lambda out: Answer())]

    with pytest.raises(TypeError):
        harness.run_loop(make, 0.0, (_Refusal,), _Host(), clock=_clock())


def _names_with_cli_exit(code):
    from workloads import Names

    gl = types.SimpleNamespace(cli=types.SimpleNamespace(main=lambda argv: code))
    return Names(gl, 0, "unused")


def test_cli_refusal_codes_are_refusals():
    from workloads import CliRefusal

    for code in (2, 3):
        names = _names_with_cli_exit(code)
        res = harness.run_loop(
            lambda r: [Request("cli", lambda: names.cli(["dist"]), lambda out: Answer())] * 100,
            0.0, (CliRefusal,), _Host(), clock=_clock())
        assert res.failed == 100 and res.refused_by == {"cli:CliRefusal": 100}


def test_cli_exit_one_is_a_wrong_output():
    from workloads import CliRefusal

    names = _names_with_cli_exit(1)
    with pytest.raises(oracles.WrongOutput):
        harness.run_loop(
            lambda r: [Request("cli", lambda: names.cli(["verify"]), lambda out: Answer())],
            0.0, (CliRefusal,), _Host(), clock=_clock())


def test_loop_finishes_whole_rounds():
    res = harness.run_loop(_round(["ok"] * 30), 0.0, (_Refusal,), _Host(), clock=_clock())
    assert res.attempted == 120 and res.rounds == 4


# seeded inputs


@pytest.fixture(scope="module")
def gl():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import graphonlab

    return graphonlab


@pytest.mark.parametrize("name", ["align", "density", "names"])
def test_request_list_digest_follows_the_seed(gl, name):
    from workloads import WORKLOADS

    scratch = os.path.join(ROOT, ".perfbench_out", "tests", name)

    def digest(seed, sub):
        w = WORKLOADS[name](gl, seed, os.path.join(scratch, sub))
        w.setup()
        try:
            return harness.request_list_digest(w, 2)
        finally:
            w.close()

    a, b, c = digest(3, "a"), digest(3, "b"), digest(4, "c")
    assert a == b
    assert a != c


# oracles


def test_sampler_matches_graphonlab(gl):
    W = gl.make_step_graphon(2, [[Fraction(3, 4), Fraction(1, 4)],
                                 [Fraction(1, 4), Fraction(3, 4)]])
    G = gl.sample_graph(W, 40, gl.RandomSource(11))
    assert G.edges == oracles.sample_edges(W.values, 40, 11)


def test_brute_force_density_sums_to_one():
    rng = __import__("random").Random(5)
    values = oracles.random_values(rng, 3, 8)
    pairs = [(0, 1), (0, 2), (1, 2)]
    total = sum(
        oracles.brute_t_ind(3, frozenset(p for t, p in enumerate(pairs) if bits >> t & 1),
                            values)
        for bits in range(8)
    )
    assert total == 1
