"""Host-speed calibration interleaved with the requests.

The host these benchmarks run on changes speed by up to 2x from one
task to the next and by up to 1.5x between runs of identical work; steal
time does not show it, and process CPU time moves with wall time. Work
done back to back runs at nearly the same speed, so a fixed chunk of
reference work, independent of graphonlab, runs before the first request
and after every request, outside the request's timer. Each request's
time is divided by the mean of the chunks nearest it over NOMINAL_CHUNK_S
(harness.run_loop); set-up time is divided by the factor of the chunks
run right after it.

The plain ratio is the measured fit. Over ten 20-second runs per
workload on a 2-core Intel Xeon VM, with the run's mean factor between
0.77 and 1.14, dividing by the factor raised to 0.75 left every scaled
latency rising with the factor (log-log slopes up to +0.6 on the
density median, whose quartile spread was 0.134); with the plain ratio
the quartile spreads of req_per_s, p50 and p90 were 0.075 or less on
every workload. A change to graphonlab
does not change the chunk, so it moves the scaled figures exactly as
much as the raw ones; the raw figures stay in the run summary.

The chunk mixes the work graphonlab spends its time on: Fraction
arithmetic, 64-bit integer streams, small numpy products, and building
and sorting containers of Fractions.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

# about the mean chunk time on a 2-core Intel Xeon VM (Python 3.11.7, numpy 2.4)
NOMINAL_CHUNK_S = 0.0015

_VALUES = [[Fraction(a * 7 + b * 3 + 1, 64) for b in range(4)] for a in range(4)]
_MAT = np.arange(256, dtype=np.float64).reshape(16, 16) % 7


def chunk():
    """Run the reference work once; return its duration in seconds."""
    start = time.perf_counter()
    total = Fraction(0)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                total += _VALUES[a][b] * (1 - _VALUES[b][c]) * _VALUES[a][c]
    gen = random.Random(7)
    hits = sum(gen.getrandbits(64) * 3 < 1 << 65 for _ in range(150))
    m = _MAT
    for _ in range(6):
        m = (m @ _MAT) % 5
    table = {(i, i * 7): [Fraction(i, 64)] * 4 for i in range(300)}
    ordered = sorted(table.items(), key=lambda kv: -kv[0][1])
    if total <= 0 or hits < 0 or m.sum() < 0 or len(ordered) != 300:
        raise AssertionError("calibration work was skipped")
    return time.perf_counter() - start


def slowdown(samples):
    """Factor to divide measured times by: the mean chunk time over the
    nominal one; above 1 on a slower host."""
    return (sum(samples) / len(samples)) / NOMINAL_CHUNK_S


def measure(n):
    return [chunk() for _ in range(n)]
