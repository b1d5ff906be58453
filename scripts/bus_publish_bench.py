"""Microseconds per Broker.publish of one position message to 8 subscribers.

    PYTHONPATH=src python3 scripts/bus_publish_bench.py [--publishes 20000]

Eight subscriptions match the published topic (exact, '*' and '>' patterns)
and two do not. Each publish sends the position text with its doc, as the
loop does. Publishes run in blocks of 100; each subscription is drained
between blocks, outside the timed span. Prints the median and the quartiles
of the per-block cost, then those of the first ``.doc`` read of a message
published as text alone (the parse such a message costs its first reader),
then the cost of building one position text, one pair text (``value_text``)
and one one-UE episode-log line (``SnapshotRecord.to_json``), each timed over
the same blocks. The last line is one mission snapshot's bus traffic, in the
loop's order on a broker holding the loop's eight subscriptions: the virtual
time set, the position published to its three subscribers (communications, AI
and the orchestrator), the pair, Ready, throughput and decision published to one
each, the barrier's ``next_message`` and seven drains.
"""

from __future__ import annotations

import argparse
import statistics
import time

from skycell import orchestrator as orch
from skycell.bus import Broker, position_text, value_text
from skycell.orchestrator import SnapshotRecord

TOPIC = "3D.mobility.positions"
MATCHING = (
    TOPIC, TOPIC, TOPIC, "3D.*.positions", "*.mobility.positions", "3D.>", "*.*.*", ">",
)
OTHERS = ("communications.state", "*.events")
PAYLOAD, DOC = position_text("UAV", "uav0", 12.5, -3.25, 40.0)
RECORD = SnapshotRecord(t=12.5, ue_states=[("UAV", "uav0", (12.5, -3.25, 40.0))],
                        chosen_pair=17, throughput_mbps=845.25)
PAIR, PAIR_DOC = value_text("pair", "UAV", "uav0", 17)
TPUT, TPUT_DOC = value_text("throughput", "UAV", "uav0", 845.25)
BLOCK = 100


def _snapshot_bus(t: float) -> float:
    """Seconds for BLOCK snapshots' bus traffic, as one mission snapshot makes it."""
    broker = Broker()
    ready, pos, tput, best, decision, events = (broker.subscribe(p) for p in (
        orch.READY_TOPIC, orch.POSITIONS_TOPIC, orch.THROUGHPUT_TOPIC, orch.BEST_PAIR_TOPIC,
        orch.DECISION_TOPIC, orch.EVENTS_PATTERN))
    comms, ai = broker.subscribe(orch.POSITIONS_TOPIC), broker.subscribe(orch.POSITIONS_TOPIC)
    t0 = time.perf_counter()
    for k in range(BLOCK):
        broker.set_virtual_time(t + k)
        broker.publish(orch.POSITIONS_TOPIC, PAYLOAD, publisher="uav0", doc=DOC)
        comms.drain()
        broker.publish(orch.BEST_PAIR_TOPIC, PAIR, publisher="communications", doc=PAIR_DOC)
        broker.publish(orch.READY_TOPIC, orch.READY_PAYLOAD, publisher="communications")
        broker.publish(orch.THROUGHPUT_TOPIC, TPUT, publisher="communications", doc=TPUT_DOC)
        ready.next_message()
        ai.drain()
        broker.publish(orch.DECISION_TOPIC, PAIR, publisher="ai", doc=PAIR_DOC)
        pos.drain(), best.drain(), decision.drain(), tput.drain(), events.drain()
    elapsed = time.perf_counter() - t0
    assert broker.publish(orch.POSITIONS_TOPIC, PAYLOAD, publisher="uav0") == BLOCK + 1
    return elapsed


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
    publish, first_read, position, value, record, snapshot = [], [], [], [], [], []
    for block in range(args.publishes // BLOCK):
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
        t0 = time.perf_counter()
        for _ in range(BLOCK):
            position_text("UAV", "uav0", 12.5, -3.25, 40.0)
        t1 = time.perf_counter()
        for _ in range(BLOCK):
            value_text("pair", "UAV", "uav0", 17)
        t2 = time.perf_counter()
        for _ in range(BLOCK):
            RECORD.to_json()
        t3 = time.perf_counter()
        position.append((t1 - t0) / BLOCK * 1e6)
        value.append((t2 - t1) / BLOCK * 1e6)
        record.append((t3 - t2) / BLOCK * 1e6)
        snapshot.append(_snapshot_bus(block * BLOCK) / BLOCK * 1e6)
    print(f"publish to {len(MATCHING)} subscribers: {_quartiles(publish)}")
    print(f"first .doc read of a text-only message: {_quartiles(first_read)}")
    print(f"position_text: {_quartiles(position)}")
    print(f"value_text: {_quartiles(value)}")
    print(f"one-UE SnapshotRecord.to_json: {_quartiles(record)}")
    print(f"one mission snapshot's bus traffic: {_quartiles(snapshot)}")


if __name__ == "__main__":
    main()
