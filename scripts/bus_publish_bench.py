"""Microseconds per Broker.publish of one position message to 8 subscribers.

    PYTHONPATH=src python3 scripts/bus_publish_bench.py [--publishes 20000]

Eight subscriptions match the published topic (exact, '*' and '>' patterns)
and two do not. Each publish sends the position text with its doc, as the
loop does. Publishes run in blocks of 100; each subscription is drained
between blocks, outside the timed span. Prints the median and the quartiles
of the per-block cost, then those of the first ``.doc`` read of a message
published as text alone (the parse such a message costs its first reader),
timed over the same blocks.
"""

from __future__ import annotations

import argparse
import statistics
import time

from skycell.bus import Broker, position_text

TOPIC = "3D.mobility.positions"
MATCHING = (
    TOPIC, TOPIC, TOPIC, "3D.*.positions", "*.mobility.positions", "3D.>", "*.*.*", ">",
)
OTHERS = ("communications.state", "*.events")
PAYLOAD, DOC = position_text("UAV", "uav0", 12.5, -3.25, 40.0)
BLOCK = 100


def _quartiles(per_block) -> str:
    q1, med, q3 = statistics.quantiles(per_block, n=4)
    return f"{med:.2f} us (quartiles {q1:.2f}-{q3:.2f})"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--publishes", type=int, default=20_000)
    args = ap.parse_args()
    if args.publishes < 2 * BLOCK:  # the quartiles need at least two blocks
        ap.error(f"--publishes must be at least {2 * BLOCK}, got {args.publishes}")
    broker = Broker()
    subs = [broker.subscribe(p) for p in MATCHING + OTHERS]
    publish, first_read = [], []
    for _ in range(args.publishes // BLOCK):
        t0 = time.perf_counter()
        for _ in range(BLOCK):
            broker.publish(TOPIC, PAYLOAD, publisher="uav0", doc=DOC)
        publish.append((time.perf_counter() - t0) / BLOCK * 1e6)
        delivered = sum(len(s.drain()) for s in subs)
        assert delivered == BLOCK * len(MATCHING), delivered
        for _ in range(BLOCK):
            broker.publish(TOPIC, PAYLOAD, publisher="uav0")
        messages = subs[0].drain()
        for s in subs[1:]:
            s.drain()
        t0 = time.perf_counter()
        for msg in messages:
            msg.doc
        first_read.append((time.perf_counter() - t0) / BLOCK * 1e6)
        assert messages[-1].doc == DOC
    print(f"publish to {len(MATCHING)} subscribers: {_quartiles(publish)}")
    print(f"first .doc read of a text-only message: {_quartiles(first_read)}")


if __name__ == "__main__":
    main()
