"""Time per receiver, kernel share and tracemalloc peak of one radio pass at M receivers.

    PYTHONPATH=src python3 scripts/radio_pass_bench.py [--passes 50]

One pass is CommsModule._sweep: one batched trace, one channel synthesis and
one stacked beam sweep for M receivers, on the built-in scene with the
shipped comms config. The receivers are drawn uniformly (seed 0) over the
shipped route's corridor at the route's altitude, fresh ones for each pass.
For each M in 1, 4, 8, 10, 16, 20 and 32, after one untimed warm-up pass, it
prints the median and the quartiles of the pass time divided by M over
--passes passes, the kernel's median share of a pass (the time inside
kernels.trace_batch, the numpy tracer, which also lays out the path table;
the rest is the Python and numpy work around it: gains, angles, sorting,
synthesis and the sweep), then the
tracemalloc peak of one more pass, run untimed because tracing slows
allocation. This is the per-layer measure behind
blueprint.TRACE_BATCH: a lone UE's pass holds 16 receivers, and ten moving UEs
trace 20 (each position and its next move) on every other snapshot, the
largest pass the look-ahead rule makes at that count.
"""

from __future__ import annotations

import argparse
import statistics
import time
import tracemalloc

import numpy as np

from skycell import kernels
from skycell.blueprint import CommsModule
from skycell.config import base_route, comms_config, default_scene, load_config
from skycell.mobility import Corridor

BATCHES = (1, 4, 8, 10, 16, 20, 32)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--passes", type=int, default=50)
    args = ap.parse_args()
    if args.passes < 2:  # the quartiles need at least two passes
        ap.error(f"--passes must be at least 2, got {args.passes}")
    cfg = load_config()
    route = base_route(cfg)
    half_width = cfg["mobility"]["corridor_half_width"]
    lo, hi = Corridor(route.start, route.end, half_width).bounds()
    comms = CommsModule(default_scene(), comms_config(cfg))
    rng = np.random.default_rng(0)

    def receivers(m):
        xy = rng.uniform(lo, hi, size=(m, 2))
        return [(float(x), float(y), float(route.start[2])) for x, y in xy]

    kernel_s = 0.0  # time inside kernels.trace_batch since the last reset
    trace_batch = kernels.trace_batch

    def timed_trace_batch(*a):
        nonlocal kernel_s
        t0 = time.perf_counter()
        try:
            return trace_batch(*a)
        finally:
            kernel_s += time.perf_counter() - t0

    kernels.trace_batch = timed_trace_batch
    for m in BATCHES:
        comms._sweep(receivers(m))
        per_rx = []
        share = []
        for _ in range(args.passes):
            batch = receivers(m)
            kernel_s = 0.0
            t0 = time.perf_counter()
            comms._sweep(batch)
            elapsed = time.perf_counter() - t0
            per_rx.append(elapsed / m * 1e3)
            share.append(kernel_s / elapsed)
        batch = receivers(m)
        tracemalloc.start()
        comms._sweep(batch)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        q1, med, q3 = statistics.quantiles(per_rx, n=4)
        print(f"M={m}: {med:.3f} ms per receiver (quartiles {q1:.3f}-{q3:.3f}), "
              f"kernel {statistics.median(share):.0%} of the pass, peak {peak / 1024:.0f} KB")


if __name__ == "__main__":
    main()
