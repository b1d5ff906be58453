"""Host-speed calibration: a fixed CPU kernel timed next to each measured operation.

The benchmark host is shared with other tenants, and the speed it gives one
thread drifts by tens of percent over seconds (measured on a 2-vCPU host:
the same 3 s episode took 2.5 s in one minute and 3.5 s in another, and
process CPU time drifted with it, so it is not time spent descheduled). A
kernel that uses no skycell code runs before and after every timed
operation; the operation's host time is scaled by REFERENCE_S over the mean
of the two kernel times. The scaled time reads as host seconds on a host
running the kernel in REFERENCE_S. A change to skycell cannot move the
kernel, so it cannot move the scale.
"""

import gc
import json
import time

import numpy as np

# Kernel time on an otherwise idle 2-vCPU x86-64 host, Python 3.11, numpy 2.4.
REFERENCE_S = 0.015

_RNG = np.random.default_rng(12345)
_H = _RNG.standard_normal((4, 64)) + 1j * _RNG.standard_normal((4, 64))
_CB = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))
_P = _RNG.standard_normal(3)


def kernel_seconds() -> float:
    """Time one run of the kernel. Its mix follows a simulator snapshot:
    interpreter work, float formatting and JSON, many numpy calls on tiny
    arrays, and small complex matrix products."""
    # no garbage collection inside: its cost grows with the caller's heap
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(6_000):
            acc += i * i % 7
        for i in range(1_500):
            doc = {"UE_Id": "uav0", "position": {"x": i * 0.1, "y": 2.5, "z": 40.0}}
            json.loads(json.dumps(doc))
            repr(i / 7.0)
        v = np.array([1.0, 2.0, 3.0])
        for _ in range(1_500):
            float(np.linalg.norm(np.asarray(v) - _P))
        for _ in range(100):
            int(np.argmax(np.abs(_H @ _CB)))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def point() -> float:
    """Kernel seconds now: the median of three runs, robust to one preemption."""
    return sorted(kernel_seconds() for _ in range(3))[1]


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns host seconds into reference-host seconds."""
    return REFERENCE_S / ((before_s + after_s) / 2.0)
