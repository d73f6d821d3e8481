"""graphonlab benchmark: three seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload align --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of one run; --trace 1 runs the
workload once untraced and once traced and prints the per-layer metrics,
with the tracing overhead as the ratio of the two request rates. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A wrong output, a failed check or a missing
program ends the run with a nonzero exit code and no result line.

    python3 perfbench/run.py --record-digests

records the golden-round digests in perfbench/digests.json; run it only
when outputs are meant to change.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("align", "density", "names")
SETUP_PROBES = 4  # extra set-up-only processes; setup_s is the median
WORKER_TIMEOUT_S = 150

# BLAS stays on one thread: the workloads run one client in one process.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

END_TO_END_UNITS = {
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "completed_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bracket_gap_median": "dist",
    "inconclusive_share": "share",
}


def layer_unit(name):
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class RunFailed(Exception):
    pass


def worker(root, workload, seed, seconds, mode, out):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out", out]
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=WORKER_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
    result = {}
    path = os.path.join(out, "result.json")
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            result = json.load(fh)
    if "wrong_output" in result:
        raise RunFailed(f"wrong output: {result['wrong_output']}")
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return result


def run_record(root, workload, seed, blas):
    rec = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "blas_threads_env": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "gc": "enabled (default thresholds)",
        "git_commit": _git_commit(root),
    }
    rec.update(blas)  # numpy and BLAS facts, read inside the measured worker
    return rec


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "not a git checkout"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def _with_units(values, unit_of):
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def measure(root, workload, seed, seconds, trace):
    base = os.path.join(root, ".perfbench_out", workload)
    shutil.rmtree(base, ignore_errors=True)
    setups = [
        worker(root, workload, seed, seconds, "setup", os.path.join(base, f"setup{i}"))["setup_s"]
        for i in range(SETUP_PROBES)
    ]
    plain = worker(root, workload, seed, seconds, "plain", os.path.join(base, "plain"))
    setups.append(plain["setup_s"])
    metrics = dict(plain["metrics"], setup_s=statistics.median(setups))
    record = run_record(root, workload, seed, plain["blas"])
    record["setup_samples_s"] = setups
    summary = {k: plain[k] for k in ("attempted", "failed", "rounds", "busy_s", "slowdown",
                                     "raw", "kind_seconds", "kind_counts", "kind_p50_ms",
                                     "refused_by")}
    print(json.dumps({"record": record}))
    print(json.dumps({"summary": summary}))
    if not trace:
        return plain["attempted"], plain["failed"], _with_units(
            metrics, END_TO_END_UNITS.__getitem__)
    traced = worker(root, workload, seed, seconds, "traced", os.path.join(base, "traced"))
    layers = dict(traced["layers"])
    layers["trace.req_per_s_ratio"] = (
        traced["metrics"]["req_per_s"] / plain["metrics"]["req_per_s"]
    )
    print(json.dumps({"traced_summary": {
        k: traced[k] for k in ("attempted", "failed", "rounds", "busy_s")}}))
    return traced["attempted"], traced["failed"], _with_units(layers, layer_unit)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphonlab", "__init__.py")):
        print("error: run from the root of a graphonlab checkout "
              "(src/graphonlab is missing)", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            for w in WORKLOADS:
                worker(root, w, 0, 0, "record", os.path.join(root, ".perfbench_out", "record"))
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        start = time.perf_counter()
        attempted, failed, metrics = measure(
            root, args.workload, args.seed, args.seconds, args.trace
        )
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wall_s: {time.perf_counter() - start:.1f}", file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
