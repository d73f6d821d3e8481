"""One workload process: set up, run the closed loop, check, report.

Started by run.py with BLAS pinned to one thread. Writes its result as
JSON to OUT/result.json; a traced run also writes OUT/spans.jsonl.

    python3 perfbench/worker.py --workload align --seed 1 --seconds 20 \
        --mode plain --out .perfbench_out/align-1
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

GOLDEN_SEED = 20180130
SETUP_CHUNKS = 100  # calibration chunks right after set-up
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def import_program(root):
    """Import graphonlab from the checkout's src/, and from nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import graphonlab
    import graphonlab.cli  # noqa: F401

    where = os.path.realpath(graphonlab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"graphonlab imported from {where}, not from {src}")
    return graphonlab


def blas_facts():
    """numpy and BLAS versions, and the BLAS thread count this process got."""
    import ctypes

    import numpy

    cfg = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {"numpy": numpy.__version__, "blas": cfg.get("name"),
             "blas_version": cfg.get("version"), "blas_threads": None}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_int
                    facts["blas_threads"] = get()
                    return facts
    return facts


def annotators(gl):
    """Per-span figures the traced run records. They run after the request
    has ended (Tracer.end_request), with the unwrapped functions."""
    from math import lcm

    reduce = gl.core.reduce_step_graphon
    seen = set()

    def den_of(x):
        vals = getattr(x, "values", None)
        if vals is None:  # a FiniteGraph
            return 1
        return lcm(*(v.denominator for row in vals for v in row))

    def parts(x):
        return x.k if hasattr(x, "k") else x.n

    def metric(args, kwargs, result):
        a, b = args[0], args[1]
        return {"k": max(parts(a), parts(b)), "den": lcm(den_of(a), den_of(b))}

    def t_ind(args, kwargs, result):
        F, W = args[0], args[1]
        R = reduce(W)
        before = len(seen)
        seen.add((F.n, F.edges, R.values))
        return {"n": F.n, "repeat": len(seen) == before}

    def sample(args, kwargs, result):
        n = args[1]
        return {"pairs": n * (n - 1) // 2}

    def file_bytes(direction):
        def note(args, kwargs, result):
            path = args[0]
            if os.path.isdir(path):
                path = os.path.join(path, gl.formats.MANIFEST_NAME)
            return {direction: os.path.getsize(path)}
        return note

    out = {f"metrics.{f}": metric for f in ("d1", "d_square", "delta_bound", "hat_delta")}
    out["densities.t_ind_exact"] = t_ind
    out["sampling.sample_graph"] = sample
    for attr in dir(gl.formats):
        if attr.startswith("read_"):
            out[f"formats.{attr}"] = file_bytes("read")
        elif attr.startswith("write_"):
            out[f"formats.{attr}"] = file_bytes("write")
    return out


def golden(gl, workload_cls, workdir, refusals):
    """Digests of the uniquely defined outputs of one fixed round."""
    w = workload_cls(gl, GOLDEN_SEED, workdir)
    w.setup()
    digests = {}
    try:
        for req in w.round(0):
            try:
                out = req.run()
            except refusals as exc:
                text = f"refused {type(exc).__name__}"
            else:
                req.check(out)
                if req.digest is None:
                    continue
                text = req.digest(out)
            h = digests.setdefault(req.kind, hashlib.sha256())
            h.update(text.encode())
    finally:
        w.end_round(0)
        w.close()
    return {k: h.hexdigest() for k, h in sorted(digests.items())}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "setup", "record"),
                    required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    root = os.getcwd()
    os.makedirs(args.out, exist_ok=True)

    gl = import_program(root)
    import calibrate
    from harness import end_to_end, layer_metrics, run_loop
    from oracles import WrongOutput
    from tracing import Tracer, install
    from workloads import WORKLOADS, refusal_types

    cls = WORKLOADS[args.workload]
    refusals = refusal_types(gl)
    if args.mode == "record":
        table = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="ascii") as fh:
                table = json.load(fh)
        table[args.workload] = golden(gl, cls, os.path.join(args.out, "golden"), refusals)
        with open(DIGESTS, "w", encoding="ascii") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    workload = cls(gl, args.seed, os.path.join(args.out, "names"))
    workload.setup()
    first = workload.round(0)
    setup_raw = time.perf_counter() - _T0
    setup_slowdown = calibrate.slowdown(calibrate.measure(SETUP_CHUNKS))
    setup_s = setup_raw / setup_slowdown
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw}
    if args.mode == "setup":
        workload.end_round(0)
        workload.close()
        _write(args.out, result)
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = Tracer(refusals)
        install(tracer, gl, annotators(gl))
    rounds = {0: first}

    def end_round(r):
        workload.end_round(r)
        gc.collect()

    try:
        res = run_loop(
            lambda r: rounds.pop(r, None) or workload.round(r),
            args.seconds, refusals, calibrate, end_round, tracer,
        )
    except WrongOutput as exc:
        result["wrong_output"] = str(exc)
        _write(args.out, result)
        return 1
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        slowdown=calibrate.slowdown(res.calibration),
        raw={"req_per_s": len(res.latencies) / res.raw_busy, "setup_s": setup_raw},
        attempted=res.attempted,
        failed=res.failed,
        rounds=res.rounds,
        busy_s=res.busy,
        kind_seconds=res.kind_seconds,
        kind_counts=res.kind_counts,
        kind_p50_ms={k: 1000 * statistics.median(v) for k, v in res.kind_latencies.items()},
        refused_by=res.refused_by,
        metrics=end_to_end(res, setup_s, peak_rss_mb),
        blas=blas_facts(),
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, tracer.extra)
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    else:
        with open(DIGESTS, encoding="ascii") as fh:
            want = json.load(fh).get(args.workload)
        try:
            got = golden(gl, cls, os.path.join(args.out, "golden"), refusals)
        except WrongOutput as exc:
            got = {"error": str(exc)}
        if got != want:
            bad = sorted(k for k in set(got) | set(want or {})
                         if got.get(k) != (want or {}).get(k))
            result["wrong_output"] = f"golden digests differ for {bad}"
            _write(args.out, result)
            return 1
    _write(args.out, result)
    return 0


def _write(out, result):
    with open(os.path.join(out, "result.json"), "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
