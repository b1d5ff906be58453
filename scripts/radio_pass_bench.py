"""Time per receiver, kernel share and tracemalloc peak of one radio pass at M receivers.

    PYTHONPATH=src python3 scripts/radio_pass_bench.py [--passes 50]

One pass is CommsModule._sweep: one batched trace, one channel synthesis and
one stacked beam sweep for M receivers, on the built-in scene with the
shipped comms config. For each M in 1, 4, 8, 10, 16, 20, 32 and 64 the
receivers are drawn uniformly (seed 0) over the shipped route's corridor at
the route's altitude, fresh ones for each pass. Two more lines lay a pass out
as the loop does with blueprint.TRACE_BATCH, from a random point of the route
for each pass: "along one route" is a lone UAV's position and its next
TRACE_BATCH - 1 moves, and "across ten routes" is ten UAVs 3 m apart across
the route, as the swarm benchmark flies them, each position followed by the
moves the look-ahead rule traces with it (M=64 and M=60 at TRACE_BATCH = 64).
The tracer culls its image tree to each pass's receiver box, so its survivor
counts, and so its time, follow the layout: receivers close together see the
same faces. For each line, after one untimed warm-up pass, it prints the
median and the quartiles of the pass time divided by M over --passes passes,
the kernel's median share of a pass (the time inside kernels.trace_batch, the
numpy tracer, which also lays out the path table; the rest is the Python and
numpy work around it: gains, angles, sorting, synthesis and the sweep), then
the tracemalloc peak of one more pass, run untimed because tracing slows
allocation. This is the per-layer measure behind blueprint.TRACE_BATCH.
A last line gives the median and the quartiles of kernels.build_image_tree on
the shipped scene with its ground over --passes builds, and the tree's pair
count: the build runs once per Scene, so its cost falls on a run's setup, not
on a pass.
"""

from __future__ import annotations

import argparse
import statistics
import time
import tracemalloc

import numpy as np

from skycell import kernels
from skycell.blueprint import TRACE_BATCH, CommsModule, offset_plan
from skycell.config import base_route, comms_config, default_scene, load_config
from skycell.mobility import Corridor, positions_ahead, uav_state

BATCHES = (1, 4, 8, 10, 16, 20, 32, 64)


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
    scene = default_scene()
    comms = CommsModule(scene, comms_config(cfg))
    rng = np.random.default_rng(0)

    def uniform(m):
        def draw():
            xy = rng.uniform(lo, hi, size=(m, 2))
            return [(float(x), float(y), float(route.start[2])) for x, y in xy]
        return draw

    def along(routes, n):
        """n consecutive positions of each route, from one random point of them all."""
        def draw():
            k = int(rng.integers(0, len(routes[0]) - n + 1))
            return [p for r in routes for p in r[k:k + n]]
        return draw

    dt = cfg["episode"]["sampling_interval"]
    lone = positions_ahead(uav_state("uav", route), dt, 10**6)
    fans = [positions_ahead(uav_state(f"uav{i}", offset_plan(route, 3.0 * (i - 4.5))), dt, 10**6)
            for i in range(10)]
    per_uav = 1 + max(1, TRACE_BATCH // 10 - 1)  # each position and the moves traced with it
    passes = [(f"M={m}", m, uniform(m)) for m in BATCHES] + [
        (f"M={TRACE_BATCH} along one route", TRACE_BATCH, along([lone], TRACE_BATCH)),
        (f"M={10 * per_uav} across ten routes", 10 * per_uav, along(fans, per_uav)),
    ]

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
    for label, m, receivers in passes:
        comms._sweep(receivers())
        per_rx = []
        share = []
        for _ in range(args.passes):
            batch = receivers()
            kernel_s = 0.0
            t0 = time.perf_counter()
            comms._sweep(batch)
            elapsed = time.perf_counter() - t0
            per_rx.append(elapsed / m * 1e3)
            share.append(kernel_s / elapsed)
        batch = receivers()
        tracemalloc.start()
        comms._sweep(batch)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        q1, med, q3 = statistics.quantiles(per_rx, n=4)
        print(f"{label}: {med:.3f} ms per receiver (quartiles {q1:.3f}-{q3:.3f}), "
              f"kernel {statistics.median(share):.0%} of the pass, peak {peak / 1024:.0f} KB")

    faces = scene.faces()
    build_ms = []
    for _ in range(args.passes):
        t0 = time.perf_counter()
        tree = kernels.build_image_tree(scene.tx.position, *faces)
        build_ms.append((time.perf_counter() - t0) * 1e3)
    q1, med, q3 = statistics.quantiles(build_ms, n=4)
    print(f"image tree build: {med:.3f} ms (quartiles {q1:.3f}-{q3:.3f}), "
          f"{tree.pair_i.size} pairs")


if __name__ == "__main__":
    main()
