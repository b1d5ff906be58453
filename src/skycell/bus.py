"""In-process publish/subscribe broker with hierarchical dot topics.

Topics are dot-separated segments ("3D.mobility.positions"). Subscription
patterns may use "*" to match exactly one segment and a trailing ">" to match
one or more segments. Delivery is per-publisher, per-topic FIFO with no
replay and no persistence. The broker is safe for concurrent publishers and
subscribers; an optional TCP transport (length-prefixed JSON frames) bridges
remote processes to the same semantics.
"""

from __future__ import annotations

import json
import logging
import queue
import socket
import struct
import threading
from dataclasses import dataclass

logger = logging.getLogger(__name__)

MAX_PAYLOAD_BYTES = 1 << 20
QUEUE_HIGH_WATER = 10_000

_CLOSED = object()


class TopicError(ValueError):
    """Malformed topic or pattern."""


class PayloadTooLarge(ValueError):
    """Payload exceeds the broker's configured maximum size."""


class BrokerClosed(RuntimeError):
    """The broker was shut down and the queue is drained."""


def split_topic(topic: str, allow_wildcards: bool) -> list:
    if not isinstance(topic, str) or not topic:
        raise TopicError(f"topic must be a non-empty string, got {topic!r}")
    segments = topic.split(".")
    for i, seg in enumerate(segments):
        if not seg:
            raise TopicError(f"empty segment in topic {topic!r}")
        if any(c.isspace() for c in seg):
            raise TopicError(f"whitespace in topic {topic!r}")
        if seg == ">" and i != len(segments) - 1:
            raise TopicError(f"'>' must be the final segment in {topic!r}")
        if not allow_wildcards and seg in ("*", ">"):
            raise TopicError(f"wildcard {seg!r} not allowed in a publish topic")
    return segments


def topic_matches(pattern: str, topic: str) -> bool:
    """Segment-wise wildcard match: '*' = one segment, trailing '>' = one+."""
    pat = split_topic(pattern, allow_wildcards=True)
    top = split_topic(topic, allow_wildcards=False)
    for i, p in enumerate(pat):
        if p == ">":
            return len(top) >= i + 1
        if i >= len(top):
            return False
        if p != "*" and p != top[i]:
            return False
    return len(top) == len(pat)


@dataclass(frozen=True)
class Message:
    topic: str
    payload: str
    seq: int
    publisher: str
    publish_time: float


class Subscription:
    """FIFO delivery queue for one wildcard pattern."""

    def __init__(self, broker: "Broker", pattern: str):
        self.pattern = pattern
        self._broker = broker
        self._queue: queue.Queue = queue.Queue()
        self._warned = False

    def _deliver(self, msg: Message) -> None:
        self._queue.put(msg)
        if not self._warned and self._queue.qsize() > QUEUE_HIGH_WATER:
            self._warned = True
            logger.warning(
                "subscription %r exceeded %d queued messages", self.pattern, QUEUE_HIGH_WATER
            )

    def next_message(self, timeout: float = None):
        """Oldest undelivered message, or None once the timeout elapses.

        Raises BrokerClosed after shutdown once the queue is drained.
        """
        try:
            item = self._queue.get(block=timeout is None or timeout > 0, timeout=timeout)
        except queue.Empty:
            return None
        if item is _CLOSED:
            self._queue.put(_CLOSED)  # keep the terminal marker for later calls
            raise BrokerClosed("broker was shut down")
        return item

    def drain(self) -> list:
        """All currently queued messages, without blocking."""
        out = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return out
            if item is _CLOSED:
                self._queue.put(_CLOSED)
                return out
            out.append(item)


class Broker:
    """Linearizable in-process pub/sub hub with a virtual-time stamp."""

    def __init__(self, max_payload_bytes: int = MAX_PAYLOAD_BYTES):
        self._lock = threading.Lock()
        self._subs: list[Subscription] = []
        self._seq: dict = {}
        self._closed = False
        self._virtual_time = 0.0
        self.max_payload_bytes = max_payload_bytes

    def set_virtual_time(self, t: float) -> None:
        with self._lock:
            self._virtual_time = float(t)

    def publish(self, topic: str, payload: str, publisher: str = "default") -> int:
        split_topic(topic, allow_wildcards=False)
        if not isinstance(payload, str):
            raise TypeError("payload must be text")
        if len(payload.encode("utf-8")) > self.max_payload_bytes:
            raise PayloadTooLarge(
                f"payload of {len(payload)} chars exceeds {self.max_payload_bytes} bytes"
            )
        with self._lock:
            if self._closed:
                raise BrokerClosed("cannot publish on a closed broker")
            key = (publisher, topic)
            seq = self._seq.get(key, 0) + 1
            self._seq[key] = seq
            msg = Message(
                topic=topic,
                payload=payload,
                seq=seq,
                publisher=publisher,
                publish_time=self._virtual_time,
            )
            for sub in self._subs:
                if topic_matches(sub.pattern, topic):
                    sub._deliver(msg)
        return seq

    def subscribe(self, pattern: str) -> Subscription:
        split_topic(pattern, allow_wildcards=True)
        sub = Subscription(self, pattern)
        with self._lock:
            if self._closed:
                raise BrokerClosed("cannot subscribe on a closed broker")
            self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            if sub in self._subs:
                self._subs.remove(sub)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for sub in self._subs:
                sub._queue.put(_CLOSED)

    @property
    def closed(self) -> bool:
        return self._closed


# ---------------------------------------------------------------------------
# TCP transport: 4-byte big-endian length prefix + UTF-8 JSON envelope
# ---------------------------------------------------------------------------


def _send_frame(sock: socket.socket, doc: dict) -> None:
    data = json.dumps(doc).encode("utf-8")
    sock.sendall(struct.pack(">I", len(data)) + data)


def _recv_frame(sock: socket.socket):
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (size,) = struct.unpack(">I", header)
    body = _recv_exact(sock, size)
    if body is None:
        return None
    return json.loads(body.decode("utf-8"))


def _recv_exact(sock: socket.socket, size: int):
    buf = b""
    while len(buf) < size:
        try:
            chunk = sock.recv(size - len(buf))
        except OSError:
            return None
        if not chunk:
            return None
        buf += chunk
    return buf


class BusServer:
    """Exposes a Broker over TCP with the frame format above."""

    def __init__(self, broker: Broker, host: str = "127.0.0.1", port: int = 0):
        self.broker = broker
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()
        self.address = self._sock.getsockname()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = self._sock.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve, args=(conn, addr), daemon=True)
            t.start()
            self._threads.append(t)

    def _serve(self, conn: socket.socket, addr) -> None:
        publisher = f"tcp:{addr[0]}:{addr[1]}"
        pumps: list[threading.Thread] = []
        send_lock = threading.Lock()
        try:
            while True:
                doc = _recv_frame(conn)
                if doc is None:
                    return
                op = doc.get("op")
                if op == "pub":
                    self.broker.publish(doc["topic"], doc["payload"], publisher=publisher)
                elif op == "sub":
                    sub = self.broker.subscribe(doc["topic"])
                    t = threading.Thread(
                        target=self._pump, args=(conn, sub, send_lock), daemon=True
                    )
                    t.start()
                    pumps.append(t)
                else:
                    logger.warning("ignoring unknown frame op %r", op)
        except (TopicError, PayloadTooLarge, BrokerClosed) as exc:
            logger.warning("closing connection %s: %s", addr, exc)
        finally:
            conn.close()

    def _pump(self, conn: socket.socket, sub: Subscription, send_lock) -> None:
        while True:
            try:
                msg = sub.next_message(timeout=0.2)
            except BrokerClosed:
                return
            if msg is None:
                if self._stop.is_set():
                    return
                continue
            try:
                with send_lock:
                    _send_frame(
                        conn,
                        {"op": "msg", "topic": msg.topic, "payload": msg.payload, "seq": msg.seq},
                    )
            except OSError:
                return

    def close(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass


class BusClient:
    """Blocking TCP client mirroring the in-process API."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def publish(self, topic: str, payload: str) -> None:
        _send_frame(self._sock, {"op": "pub", "topic": topic, "payload": payload, "seq": 0})

    def subscribe(self, pattern: str) -> None:
        _send_frame(self._sock, {"op": "sub", "topic": pattern, "payload": "", "seq": 0})

    def next_message(self, timeout: float = None):
        self._sock.settimeout(timeout)
        try:
            doc = _recv_frame(self._sock)
        except socket.timeout:
            return None
        if doc is None or doc.get("op") != "msg":
            return None
        return Message(
            topic=doc["topic"],
            payload=doc["payload"],
            seq=doc["seq"],
            publisher="remote",
            publish_time=0.0,
        )

    def close(self) -> None:
        self._sock.close()
