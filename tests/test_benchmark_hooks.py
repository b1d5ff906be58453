"""The benchmark's span and counter hooks must find their targets.

perfbench/spans.py wraps skycell names as stored on their owner (a module
attribute or a class's own __dict__) and reports a missing one as "not
observed" without failing. A refactor that renames such a name or moves a
method into a base class would silently blind the benchmark; this test makes
it fail instead. The file is loaded read-only; nothing is patched.

The workloads' entry points (perfbench/workloads.py) are run for one
snapshot each, so a signature or config-key change that would crash the
benchmark fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


TARGETS = spans.SPAN_TARGETS + spans.COUNT_TARGETS


@pytest.mark.parametrize("owner, attr, name", TARGETS, ids=[name for *_, name in TARGETS])
def test_hook_target_is_defined_on_its_owner(owner, attr, name):
    assert attr in vars(spans._resolve(owner)), f"{name}: {owner}.{attr} is not defined there"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["swarm10", "dataset10", "mission_random"])
def test_workload_first_snapshot_runs(workloads, workload, tmp_path):
    assert workload in workloads.WORKLOADS
    ctx = workloads.Context.load(tmp_path)
    workloads.first_snapshot(ctx, workload, 0)


def test_delivery_counter_sees_every_drained_message(monkeypatch):
    """spans.py counts bus.deliveries by wrapping Subscription._deliver on the class.

    A router that kept bound methods, or queued without calling _deliver,
    would let messages through uncounted and silently zero the counter.
    """
    from skycell import bus

    broker = bus.Broker()
    subs = [broker.subscribe(p) for p in ("3D.mobility.positions", "3D.>", "*.*.positions",
                                          "communications.*", ">", "ai.events")]
    broker.publish("3D.mobility.positions", "{}")  # route map warm before the counter goes in
    for sub in subs:
        sub.drain()
    delivered = 0
    raw = vars(bus.Subscription)["_deliver"]

    def counted(self, msg):
        nonlocal delivered
        delivered += 1
        return raw(self, msg)

    monkeypatch.setattr(bus.Subscription, "_deliver", counted)
    topics = ("3D.mobility.positions", "communications.state", "ai.events", "x.y.positions")
    for i in range(40):
        broker.publish(topics[i % len(topics)], str(i), publisher=f"p{i % 3}")
    late = broker.subscribe("ai.>")
    for i in range(10):
        broker.publish("ai.events", str(i))
    drained = sum(len(sub.drain()) for sub in subs + [late])
    assert drained == delivered == 10 * (4 + 2 + 2 + 2) + 10 * 3
