"""Time per receiver and tracemalloc peak of one radio pass at M receivers.

    PYTHONPATH=src python3 scripts/radio_pass_bench.py [--passes 50]

One pass is CommsModule._sweep: one batched trace, one channel synthesis and
one stacked beam sweep for M receivers, on the built-in scene with the
shipped comms config. The receivers are drawn uniformly (seed 0) over the
shipped route's corridor at the route's altitude, fresh ones for each pass.
For each M in 1, 4, 8, 10, 16, 20 and 32, after one untimed warm-up pass, it
prints the median and the quartiles of the pass time divided by M over
--passes passes, then the tracemalloc peak of one more pass, run untimed because
tracing slows allocation. This is the per-layer measure behind
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

    for m in BATCHES:
        comms._sweep(receivers(m))
        per_rx = []
        for _ in range(args.passes):
            batch = receivers(m)
            t0 = time.perf_counter()
            comms._sweep(batch)
            per_rx.append((time.perf_counter() - t0) / m * 1e3)
        batch = receivers(m)
        tracemalloc.start()
        comms._sweep(batch)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        q1, med, q3 = statistics.quantiles(per_rx, n=4)
        print(f"M={m}: {med:.3f} ms per receiver (quartiles {q1:.3f}-{q3:.3f}), "
              f"peak {peak / 1024:.0f} KB")


if __name__ == "__main__":
    main()
