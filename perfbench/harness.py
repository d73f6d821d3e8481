"""Closed-loop request runner and the statistics the benchmark reports.

One client sends the next request only after the previous one answered.
The loop runs whole rounds until the timed requests have taken the run's
seconds and at least MIN_REQUESTS were sent, so every run keeps the same
mix of request kinds. Checks and input generation run between requests,
outside the timers.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from tracing import LAYERS, NAME, PARENT, REFUSED, layer_of, self_times

MIN_REQUESTS = 100
HALF_WINDOW = 4  # calibration chunks on each side of a request
P_HIGH = 0.90
METRIC_FUNCS = ("d1", "d_square", "delta_bound", "hat_delta")
PART_BUCKETS = ("k_le12", "k_13_20", "k_gt20")
DEN_BUCKETS = ("den_64", "den_2p31", "den_other")
T_IND_VERTICES = range(1, 6)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - max(1, math.ceil(q * n))


def min_samples_for(q, beyond=10):
    """Fewest samples that leave at least `beyond` above the q-percentile."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # scaled seconds, answered requests
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0  # scaled seconds, every request
    raw_busy: float = 0.0
    rounds: int = 0
    answers: list = field(default_factory=list)
    kind_seconds: dict = field(default_factory=dict)
    kind_counts: dict = field(default_factory=dict)
    kind_latencies: dict = field(default_factory=dict)
    refused_by: dict = field(default_factory=dict)
    calibration: list = field(default_factory=list)  # chunk seconds


def run_loop(make_round, seconds, refusal_types, calibration, end_round=lambda r: None,
             tracer=None, clock=time.perf_counter):
    """Run rounds of requests until `seconds` of request time and
    MIN_REQUESTS requests are reached, finishing the last round.

    A request that raises one of refusal_types is counted as failed; any
    other exception, including a check's WrongOutput, propagates and ends
    the run. A calibration chunk (see calibrate.py) runs before the first
    request and after every request, and each request's time is divided
    by calibration.slowdown() of the chunks within HALF_WINDOW requests of
    it: the host's speed changes within a second, and neighbouring work
    runs at nearly the same speed.
    """
    res = LoopResult()
    res.calibration.append(calibration.chunk())
    records = []  # (kind, raw seconds, answered)
    r = 0
    while res.raw_busy < seconds or res.attempted < MIN_REQUESTS:
        for req in make_round(r):
            if tracer is not None:
                tracer.start_request(res.attempted)
            res.attempted += 1
            start = clock()
            try:
                out = req.run()
            except refusal_types as exc:
                elapsed = clock() - start
                res.failed += 1
                key = f"{req.kind}:{type(exc).__name__}"
                res.refused_by[key] = res.refused_by.get(key, 0) + 1
                out = None
            else:
                elapsed = clock() - start
            finally:
                if tracer is not None:
                    tracer.end_request()
            res.raw_busy += elapsed
            records.append((req.kind, elapsed, out is not None))
            res.calibration.append(calibration.chunk())
            if out is not None:
                res.answers.append(req.check(out))
        end_round(r)
        r += 1
        res.rounds += 1
    chunks = res.calibration
    for i, (kind, elapsed, answered) in enumerate(records):
        # chunk i ran just before request i, chunk i + 1 just after it
        window = chunks[max(0, i + 1 - HALF_WINDOW): i + 1 + HALF_WINDOW]
        elapsed /= calibration.slowdown(window)
        res.busy += elapsed
        res.kind_seconds[kind] = res.kind_seconds.get(kind, 0.0) + elapsed
        res.kind_counts[kind] = res.kind_counts.get(kind, 0) + 1
        if answered:
            res.latencies.append(elapsed)
            res.kind_latencies.setdefault(kind, []).append(elapsed)
    return res


def end_to_end(res, setup_s, peak_rss_mb):
    """The end-to-end metrics of one run, before units are attached."""
    n = len(res.latencies)
    if n < min_samples_for(P_HIGH):
        raise ValueError(f"{n} answered requests cannot support p{int(P_HIGH * 100)}")
    gaps = [up - lo for a in res.answers for (lo, up) in a.brackets]
    open_answers = sum(1 for a in res.answers if a.open)
    return {
        "req_per_s": n / res.busy,
        "latency_p50_ms": 1000 * percentile(res.latencies, 0.5),
        "latency_p90_ms": 1000 * percentile(res.latencies, P_HIGH),
        "completed_share": n / res.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "bracket_gap_median": float(_median_exact(gaps)),
        "inconclusive_share": open_answers / n,
    }


def _median_exact(values):
    if not values:
        raise ValueError("the run returned no certified brackets")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return Fraction(ordered[mid - 1] + ordered[mid]) / 2


def request_list_digest(workload, rounds):
    """sha256 over the kinds and inputs of the first `rounds` rounds."""
    h = hashlib.sha256()
    for r in range(rounds):
        for req in workload.round(r):
            h.update(req.kind.encode())
            h.update(repr(_plain(req.inputs)).encode())
        workload.end_round(r)
    return h.hexdigest()


def _plain(x):
    if hasattr(x, "edges") and hasattr(x, "n"):
        return (x.n, sorted(x.edges))
    if isinstance(x, (tuple, list)):
        return tuple(_plain(v) for v in x)
    return x


def part_bucket(k):
    return "k_le12" if k <= 12 else "k_13_20" if k <= 20 else "k_gt20"


def den_bucket(den):
    if 64 % den == 0:
        return "den_64"
    if 2 ** 31 % den == 0:
        return "den_2p31"
    return "den_other"


def layer_metrics(spans, extra):
    """Per-layer and per-function figures from one traced run's spans."""
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.refusals"] = 0
    fn_self, fn_calls = {}, {}
    for i, s in enumerate(spans):
        layer = layer_of(s[NAME])
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += selfs[i]
        out[f"{layer}.refusals"] += s[REFUSED]
        fn_self[s[NAME]] = fn_self.get(s[NAME], 0.0) + selfs[i]
        fn_calls[s[NAME]] = fn_calls.get(s[NAME], 0) + 1

    out["core.stepping.self_s"] = fn_self.get("core.stepping", 0.0)
    out["core.blow_up.calls"] = fn_calls.get("core.blow_up", 0)
    out["core.reduce_step_graphon.calls"] = fn_calls.get("core.reduce_step_graphon", 0)
    for f in METRIC_FUNCS:
        for b in PART_BUCKETS + DEN_BUCKETS:
            out[f"metrics.{f}.self_s.{b}"] = 0.0
    for n in T_IND_VERTICES:
        out[f"densities.t_ind_exact.calls.n{n}"] = 0
        out[f"densities.t_ind_exact.self_s.n{n}"] = 0.0
    repeats = t_ind_calls = 0
    pairs = read_b = write_b = validate_pairs = 0
    validate_ids = {i for i, s in enumerate(spans)
                    if s[NAME] == "names.validate_name_prefix"}
    for i, s in enumerate(spans):
        name, ex = s[NAME], extra.get(i, {})
        short = name.split(".", 1)[1]
        if name.startswith("metrics.") and short in METRIC_FUNCS and ex:
            out[f"metrics.{short}.self_s.{part_bucket(ex['k'])}"] += selfs[i]
            out[f"metrics.{short}.self_s.{den_bucket(ex['den'])}"] += selfs[i]
        elif name == "densities.t_ind_exact" and ex:
            n = min(ex["n"], 5)
            out[f"densities.t_ind_exact.calls.n{n}"] += 1
            out[f"densities.t_ind_exact.self_s.n{n}"] += selfs[i]
            t_ind_calls += 1
            repeats += ex["repeat"]
        elif name == "sampling.sample_graph" and ex:
            pairs += ex["pairs"]
        elif name.startswith("formats.") and ex:
            read_b += ex.get("read", 0)
            write_b += ex.get("write", 0)
        if s[PARENT] in validate_ids and short in (
            "d1", "d_square", "delta_bound", "d_w_truncated"
        ):
            validate_pairs += 1
    out["densities.t_ind_exact.repeat_share"] = repeats / t_ind_calls if t_ind_calls else 0.0
    out["sampling.sample_graph.self_s"] = fn_self.get("sampling.sample_graph", 0.0)
    out["sampling.sample_graph.pairs"] = pairs
    out["names.validate_name_prefix.pairs"] = validate_pairs
    out["formats.read_bytes"] = read_b
    out["formats.write_bytes"] = write_b
    out["cli.main.self_s"] = fn_self.get("cli.main", 0.0)
    out["trace.spans"] = len(spans)
    return out
