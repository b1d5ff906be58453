import json
import logging
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skycell import bus
from skycell.mobility import UE_TYPES
from skycell.bus import (
    Broker,
    PayloadTooLarge,
    TopicError,
    topic_matches,
)


def test_publish_delivers_verbatim():
    broker = Broker()
    sub = broker.subscribe("communications.state")
    broker.publish("communications.state", "Ready")
    msg = sub.next_message()
    assert msg.payload == "Ready"
    assert msg.topic == "communications.state"


def test_publish_without_subscribers_assigns_seq():
    broker = Broker()
    seq = broker.publish("3D.mobility.positions", '{"x":0}')
    assert seq == 1
    assert broker.publish("3D.mobility.positions", '{"x":1}') == 2


def test_wildcard_matching_examples():
    assert topic_matches("3D.*.positions", "3D.mobility.positions")
    assert topic_matches("3D.>", "3D.mobility.positions")
    assert not topic_matches("communications.>", "3D.mobility.positions")
    assert topic_matches("*.mobility.positions", "3D.mobility.positions")
    # '>' needs at least one further segment
    assert not topic_matches("3D.mobility.positions.>", "3D.mobility.positions")


def test_no_replay_for_late_subscriber():
    broker = Broker()
    broker.publish("a.b", "early")
    sub = broker.subscribe("a.b")
    assert sub.next_message() is None


def test_fifo_per_publisher():
    broker = Broker()
    sub = broker.subscribe("a.b")
    for _ in range(3):
        broker.publish("a.b", "x", publisher="p1")
    seqs = [sub.next_message().seq for _ in range(3)]
    assert seqs == [1, 2, 3]


def test_no_loss_no_duplication():
    broker = Broker()
    sub = broker.subscribe("load.>")
    n = 500
    for i in range(n):
        broker.publish(f"load.t{i % 7}", str(i))
    got = sub.drain()
    assert len(got) == n
    assert [m.payload for m in got] == [str(i) for i in range(n)]


def test_malformed_topics_rejected():
    broker = Broker()
    sub = broker.subscribe("a.>")
    broker.publish("a.b", "warm")  # rejections hold with the route map filled
    for bad in ("", "a..b", "a b.c", "a.>.b", ".a", "a.", None, 3, ["a"]):
        with pytest.raises(TopicError):
            broker.publish(bad, "x")
    with pytest.raises(TopicError):
        broker.publish("a.*", "wildcards not allowed on publish")
    with pytest.raises(TopicError):
        broker.subscribe("a.>.b")
    assert [m.payload for m in sub.drain()] == ["warm"]


def test_payload_size_limit():
    broker = Broker(max_payload_bytes=64)
    with pytest.raises(PayloadTooLarge):
        broker.publish("a.b", "x" * 65)
    broker.publish("a.b", "x" * 64)
    # the limit counts UTF-8 bytes; 4 bytes per character: 16 fill it exactly
    broker.publish("a.b", "\U0001F600" * 16)
    with pytest.raises(PayloadTooLarge):
        broker.publish("a.b", "\U0001F600" * 16 + "x")
    # 2 bytes per character: more characters than a 4-byte bound would admit unencoded
    broker.publish("a.b", "\u00e9" * 32)
    with pytest.raises(PayloadTooLarge):
        broker.publish("a.b", "\u00e9" * 32 + "x")
    with pytest.raises(PayloadTooLarge):
        broker.publish("a.b", "\u20ac" * 21 + "xx")  # 3 * 21 + 2 = 65 bytes


def test_route_map_stays_bounded(monkeypatch):
    monkeypatch.setattr(bus, "ROUTE_CACHE_SIZE", 4)
    broker = Broker()
    subs = {p: broker.subscribe(p) for p in ("t.>", "t.*", "t.k3")}
    for round_ in range(2):
        for i in range(10):
            broker.publish(f"t.k{i}", f"{round_}:{i}")
            assert len(broker._routes) <= 4
    assert len(subs["t.>"].drain()) == 20
    assert len(subs["t.*"].drain()) == 20
    assert [m.payload for m in subs["t.k3"].drain()] == ["0:3", "1:3"]


def test_publish_after_unsubscribe_reaches_only_live_subscriptions():
    broker = Broker()
    gone = broker.subscribe("a.b")
    kept = broker.subscribe("a.*")
    broker.publish("a.b", "1")  # fills the route map with both subscriptions
    broker.unsubscribe(gone)
    broker.publish("a.b", "2")
    later = broker.subscribe("a.>")
    broker.publish("a.b", "3")
    assert [m.payload for m in gone.drain()] == ["1"]
    assert [m.payload for m in kept.drain()] == ["1", "2", "3"]
    assert [m.payload for m in later.drain()] == ["3"]


def test_a_text_only_message_is_parsed_once_on_its_first_read(monkeypatch):
    parses = []
    monkeypatch.setattr(bus, "json", types.SimpleNamespace(
        loads=lambda text: parses.append(text) or json.loads(text)))
    broker = Broker()
    a, b = broker.subscribe("x.y"), broker.subscribe("x.>")
    payload = '{"k": [1, 2.5], "s": "t"}'
    broker.publish("x.y", payload)
    (ma,), (mb,) = a.drain(), b.drain()
    assert ma is mb
    assert parses == []  # not at publish
    assert ma.doc == json.loads(payload)
    assert ma.doc is mb.doc
    assert parses == [payload]
    assert ma.payload == payload  # the wire text is untouched
    assert ma == bus.Message("x.y", payload, 1, "default", 0.0)
    broker.publish("x.y", payload)  # an equal text is another message, parsed on its own
    assert a.drain()[0].doc is not ma.doc
    assert parses == [payload, payload]


def test_a_published_doc_is_returned_as_is(monkeypatch):
    monkeypatch.setattr(bus, "json", None)  # nothing may parse
    broker = Broker()
    a, b = broker.subscribe("x.y"), broker.subscribe("x.*")
    text, doc = bus.pair_text("UAV", "uav0", 7)
    broker.publish("x.y", text, publisher="ai", doc=doc)
    (ma,), (mb,) = a.drain(), b.drain()
    assert ma is mb
    assert ma.doc is doc
    assert ma == bus.Message("x.y", text, 1, "ai", 0.0)


def test_message_repr_equality_and_hash_follow_its_five_fields():
    m = bus.Message("x.y", '{"k": 1}', 3, "pub", 0.5)
    assert repr(m) == (
        "Message(topic='x.y', payload='{\"k\": 1}', seq=3, publisher='pub', publish_time=0.5)"
    )
    twin = bus.Message("x.y", '{"k": 1}', 3, "pub", 0.5, {"k": 1})
    assert twin.doc == {"k": 1}  # a doc is not a field
    assert m == twin and hash(m) == hash(twin) == hash(("x.y", '{"k": 1}', 3, "pub", 0.5))
    assert len({m, twin}) == 1
    assert m != bus.Message("x.y", '{"k": 1}', 4, "pub", 0.5)
    assert m != ("x.y", '{"k": 1}', 3, "pub", 0.5)


def _typed(doc):
    """doc with each leaf as (type, repr): equal only where every leaf has the same type
    and value, -0.0 and nan told apart."""
    if type(doc) is dict:
        return {key: _typed(value) for key, value in doc.items()}
    return (type(doc), repr(doc))


_coord = st.one_of(
    st.floats(), st.integers(), st.integers(-2**53, 2**53).map(float), st.just(-0.0),
    st.floats().map(np.float64),
)


@given(ue_type=st.sampled_from(UE_TYPES), ue_id=st.text(max_size=8),
       position=st.tuples(_coord, _coord, _coord),
       pair=st.one_of(st.integers(0, 255), st.booleans(), _coord), throughput=_coord)
@example(ue_type="UAV", ue_id="üav-零", position=(-0.0, 3, 40.0), pair=True, throughput=-0.0)
@settings(max_examples=200, deadline=None)
def test_message_texts_and_docs_agree(ue_type, ue_id, position, pair, throughput):
    """Each bus text is json.dumps of its doc, and its doc is what json.loads reads back
    from the text, a type for a type at every leaf: -0.0, ints next to integral floats,
    True as a pair, non-ASCII ids, nan and inf, and numpy floats (read back as float)."""
    for text, doc in (bus.position_text(ue_type, ue_id, *position),
                      bus.pair_text(ue_type, ue_id, pair),
                      bus.throughput_text(ue_type, ue_id, throughput)):
        assert text == json.dumps(doc)
        assert _typed(doc) == _typed(json.loads(text))


def test_high_water_warning_once(monkeypatch, caplog):
    monkeypatch.setattr(bus, "QUEUE_HIGH_WATER", 3)
    broker = Broker()
    sub = broker.subscribe("a.b")
    with caplog.at_level(logging.WARNING, logger="skycell.bus"):
        for i in range(10):
            broker.publish("a.b", str(i))
    assert [r.getMessage() for r in caplog.records] == [
        "subscription 'a.b' exceeded 3 queued messages"
    ]
    assert len(sub.drain()) == 10


def test_publish_races_subscription_churn_and_drains():
    """Four publishers, a subscribe/unsubscribe loop and a drainer share one broker."""
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        broker = Broker()
        stable = broker.subscribe("t.>")
        n, names = 2000, [f"p{i}" for i in range(4)]
        stop = threading.Event()
        got = []

        def publish(name):
            for i in range(n):
                broker.publish(f"t.k{i % 3}", str(i), publisher=name)

        def churn():
            while not stop.is_set():
                broker.unsubscribe(broker.subscribe("t.*"))

        def drain():
            while not stop.is_set():
                got.extend(stable.drain())

        helpers = [threading.Thread(target=f, daemon=True) for f in (churn, drain)]
        publishers = [threading.Thread(target=publish, args=(p,), daemon=True) for p in names]
        for t in helpers + publishers:
            t.start()
        for t in publishers:
            t.join(timeout=30.0)
            assert not t.is_alive()
        stop.set()
        for t in helpers:
            t.join(timeout=5.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    got.extend(stable.drain())
    assert len(got) == len(names) * n
    last = {}
    for msg in got:  # per (publisher, topic): every seq once, in order
        key = (msg.publisher, msg.topic)
        assert msg.seq == last.get(key, 0) + 1
        last[key] = msg.seq
    assert broker._subs == [stable]


def test_concurrent_publishers_keep_per_publisher_fifo():
    broker = Broker()
    sub = broker.subscribe("t.>")
    n = 200

    def work(name):
        for _ in range(n):
            broker.publish("t.x", name, publisher=name)

    threads = [threading.Thread(target=work, args=(f"p{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seen = {}
    for _ in range(4 * n):
        msg = sub.next_message()
        assert msg.seq == seen.get(msg.publisher, 0) + 1
        seen[msg.publisher] = msg.seq
    assert all(v == n for v in seen.values())


# brute-force reference matcher, independent of the implementation
def _ref_match(pattern, topic):
    p = pattern.split(".")
    t = topic.split(".")
    def rec(i, j):
        if i == len(p):
            return j == len(t)
        if p[i] == ">":
            return i == len(p) - 1 and j < len(t)
        if j == len(t):
            return False
        if p[i] == "*" or p[i] == t[j]:
            return rec(i + 1, j + 1)
        return False
    return rec(0, 0)


_seg = st.sampled_from(["a", "b", "cc", "d1"])
_topic = st.lists(_seg, min_size=1, max_size=5).map(".".join)
_pat_seg = st.sampled_from(["a", "b", "cc", "d1", "*"])


@st.composite
def _pattern(draw):
    segs = draw(st.lists(_pat_seg, min_size=1, max_size=5))
    if draw(st.booleans()):
        segs.append(">")
    return ".".join(segs)


@given(pattern=_pattern(), topic=_topic)
@settings(max_examples=400)
def test_wildcard_matches_brute_force(pattern, topic):
    assert topic_matches(pattern, topic) == _ref_match(pattern, topic)


_op = st.one_of(
    st.tuples(st.just("sub"), _pattern()),
    st.tuples(st.just("unsub"), st.integers(0, 7)),
    st.tuples(st.just("pub"), _topic),
    st.tuples(st.just("drain"), st.integers(0, 7)),
)


@given(ops=st.lists(_op, max_size=40))
@settings(max_examples=200, deadline=None)
def test_routing_matches_brute_force_across_subscription_changes(ops):
    """Each subscription drains what a scan of every live pattern would deliver."""
    broker = Broker()
    subs, expected, live = [], [], []
    for i, (kind, arg) in enumerate(ops):
        if kind == "sub":
            subs.append(broker.subscribe(arg))
            expected.append([])
            live.append(True)
        elif kind == "pub":
            payload = f"{i}:{arg}"
            broker.publish(arg, payload)
            for k, sub in enumerate(subs):
                if live[k] and _ref_match(sub.pattern, arg):
                    expected[k].append(payload)
        elif subs:
            k = arg % len(subs)
            if kind == "unsub":
                broker.unsubscribe(subs[k])
                live[k] = False
            else:
                assert [m.payload for m in subs[k].drain()] == expected[k]
                expected[k] = []
    for sub, want in zip(subs, expected):
        assert [m.payload for m in sub.drain()] == want


def test_unsubscribe_stops_delivery_and_closes_the_queue():
    """Unsubscribing closes the queue to delivery; what it already holds still drains."""
    broker = Broker()
    sub = broker.subscribe("a.>")
    broker.publish("a.b", "kept")
    broker.unsubscribe(sub)
    broker.publish("a.b", "dropped")
    assert sub.next_message().payload == "kept"
    assert sub.next_message() is None
    broker.unsubscribe(sub)  # a second call is a no-op
    assert broker._subs == []

