import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skycell.bus import (
    Broker,
    BrokerClosed,
    BusClient,
    BusServer,
    PayloadTooLarge,
    TopicError,
    topic_matches,
)


def test_publish_delivers_verbatim():
    broker = Broker()
    sub = broker.subscribe("communications.state")
    broker.publish("communications.state", "Ready")
    msg = sub.next_message(timeout=1.0)
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
    assert sub.next_message(timeout=0) is None


def test_fifo_per_publisher():
    broker = Broker()
    sub = broker.subscribe("a.b")
    for _ in range(3):
        broker.publish("a.b", "x", publisher="p1")
    seqs = [sub.next_message(timeout=0).seq for _ in range(3)]
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
    for bad in ("", "a..b", "a b.c", "a.>.b", ".a", "a."):
        with pytest.raises(TopicError):
            broker.publish(bad, "x")
    with pytest.raises(TopicError):
        broker.publish("a.*", "wildcards not allowed on publish")
    with pytest.raises(TopicError):
        broker.subscribe("a.>.b")


def test_payload_size_limit():
    broker = Broker(max_payload_bytes=64)
    with pytest.raises(PayloadTooLarge):
        broker.publish("a.b", "x" * 65)
    broker.publish("a.b", "x" * 64)


def test_timeout_and_close():
    broker = Broker()
    sub = broker.subscribe("a.b")
    assert sub.next_message(timeout=0) is None
    broker.publish("a.b", "last")
    broker.close()
    # queued message still drains, then the closed signal is terminal
    assert sub.next_message(timeout=0).payload == "last"
    with pytest.raises(BrokerClosed):
        sub.next_message(timeout=0)
    with pytest.raises(BrokerClosed):
        sub.next_message(timeout=0)
    with pytest.raises(BrokerClosed):
        broker.publish("a.b", "no")


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
        msg = sub.next_message(timeout=1.0)
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


def _subscribe_and_sync(client, pattern, probe_topic):
    """Subscribe, then wait for a probe the client publishes itself.

    The server handles one connection's frames in order, so once the probe is
    back the subscription is registered with the broker.
    """
    client.subscribe(pattern)
    client.publish(probe_topic, "probe")
    msg = client.next_message(timeout=5.0)
    assert msg is not None and (msg.topic, msg.payload) == (probe_topic, "probe")


def test_tcp_transport_round_trip():
    broker = Broker()
    server = BusServer(broker)
    host, port = server.address
    sub_client = BusClient(host, port)
    pub_client = BusClient(host, port)
    try:
        _subscribe_and_sync(sub_client, "3D.>", "3D.probe")
        local = broker.subscribe("3D.mobility.positions")
        payload = '{"UE_type":"UAV", "UE_Id":"uav0", "position":{"x":0, "y":0, "z":0}}'
        pub_client.publish("3D.mobility.positions", payload)
        msg = sub_client.next_message(timeout=5.0)
        assert msg is not None
        assert msg.topic == "3D.mobility.positions"
        assert msg.payload == payload  # byte-identical text
        assert local.next_message(timeout=1.0).payload == payload
    finally:
        sub_client.close()
        pub_client.close()
        server.close()
        broker.close()


def test_tcp_subscription_ends_with_its_connection():
    broker = Broker()
    server = BusServer(broker)
    client = BusClient(*server.address)
    try:
        _subscribe_and_sync(client, "a.>", "a.probe")
        (sub,) = broker._subs
        client.close()
        # the connection's thread unsubscribes and joins its pumps before it ends
        for t in list(server._threads):
            t.join(timeout=5.0)
            assert not t.is_alive()
        assert broker._subs == []
        for i in range(1000):
            broker.publish("a.b", str(i))
        assert sub.drain() == []  # nothing queued for the closed client
        with pytest.raises(BrokerClosed):
            sub.next_message(timeout=0)
    finally:
        client.close()
        server.close()
        broker.close()


def test_unsubscribe_stops_delivery_and_closes_the_queue():
    broker = Broker()
    sub = broker.subscribe("a.>")
    broker.publish("a.b", "kept")
    broker.unsubscribe(sub)
    broker.publish("a.b", "dropped")
    assert sub.next_message(timeout=0).payload == "kept"
    with pytest.raises(BrokerClosed):
        sub.next_message(timeout=0)
    broker.unsubscribe(sub)  # a second call is a no-op
