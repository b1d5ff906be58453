"""Set-up time of one cold process, and the host-speed kernel time after it.

Times from just before ``import skycell`` to the end of the workload's first
snapshot: imports, config, scene, codebooks and module wiring. Then runs the
calibration kernel in the same process, so that run.py can scale the set-up
time by the speed of the CPU this process ran on. run.py starts this script
several times and reports the median.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import skycell  # noqa: F401
    import workloads

    work_dir = HERE.parent / ".bench_out" / f"probe-{os.getpid()}"
    try:
        ctx = workloads.Context.load(work_dir)
        workloads.first_snapshot(ctx, workload, seed)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    import calibrate

    print(repr(elapsed), repr(calibrate.point()))


if __name__ == "__main__":
    main()
