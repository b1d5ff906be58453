"""In-process publish/subscribe broker with hierarchical dot topics.

Topics are dot-separated segments ("3D.mobility.positions"). Subscription
patterns may use "*" to match exactly one segment and a trailing ">" to match
one or more segments. Delivery is per-publisher, per-topic FIFO with no
replay and no persistence. Reads never block: every module step is a
synchronous call, so a reader takes what is already queued. One lock per broker
guards its routes, sequence numbers and queues: a publish delivers under it and
a read takes it, so the broker is safe for concurrent publishers and readers.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

logger = logging.getLogger(__name__)

MAX_PAYLOAD_BYTES = 1 << 20
QUEUE_HIGH_WATER = 10_000
# distinct published topics whose subscriber tuples a broker keeps; a library
# caller may publish any topic and the bound is cheap (oldest entry goes)
ROUTE_CACHE_SIZE = 1024


class TopicError(ValueError):
    """Malformed topic or pattern."""


class PayloadTooLarge(ValueError):
    """Payload exceeds the broker's configured maximum size."""


def split_topic(topic: str, allow_wildcards: bool) -> tuple:
    if not isinstance(topic, str) or not topic:
        raise TopicError(f"topic must be a non-empty string, got {topic!r}")
    segments = tuple(topic.split("."))
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


def _segments_match(pat: tuple, top: tuple) -> bool:
    """Match split segments: '*' = one segment, trailing '>' = one or more."""
    for i, p in enumerate(pat):
        if p == ">":
            return len(top) >= i + 1
        if i >= len(top):
            return False
        if p != "*" and p != top[i]:
            return False
    return len(top) == len(pat)


def topic_matches(pattern: str, topic: str) -> bool:
    """Segment-wise wildcard match, the rule the broker routes by."""
    return _segments_match(
        split_topic(pattern, allow_wildcards=True), split_topic(topic, allow_wildcards=False)
    )


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def json_leaf(v) -> str:
    """v as json.dumps(v, sort_keys=True, separators=(",", ":")) writes it, which for a
    scalar is also what json.dumps(v) writes. Text, ints and finite floats skip the
    encoder, and a list or a tuple joins the leaves of its items."""
    tv = type(v)
    if tv is str:
        return encode_basestring_ascii(v)
    if tv is int or (tv is float and math.isfinite(v)):
        return repr(v)
    if tv is list or tv is tuple:
        return "[" + ",".join(map(json_leaf, v)) + "]"
    return _encode(v)


# json.loads reads a leaf of these types back as its own value (nan and inf included);
# a subclass (a numpy float, an IntEnum) comes back as its base type
_LEAF_TYPES = frozenset((str, int, float, bool))


# The per-UE messages, each (text, doc) from the same values: the text is json.dumps of
# the doc byte for byte (key order, ", " and ": " separators), a fixed template with its
# scalar leaves filled in by json_leaf, and the doc is what json.loads reads back from
# the text: the values as given, or the text parsed when a leaf would come back as
# another type. A position has its own nested template; a pair or a throughput is one
# value under its key. So the wire format of these messages is written in this module
# only, and a reader of a published doc never parses its text.
def position_text(ue_type: str, ue_id: str, x, y, z) -> tuple:
    text = '{"UE_type": %s, "UE_Id": %s, "position": {"x": %s, "y": %s, "z": %s}}' % (
        json_leaf(ue_type), json_leaf(ue_id), json_leaf(x), json_leaf(y), json_leaf(z)
    )
    if (type(ue_type) in _LEAF_TYPES and type(ue_id) in _LEAF_TYPES and type(x) in _LEAF_TYPES
            and type(y) in _LEAF_TYPES and type(z) in _LEAF_TYPES):
        return text, {"UE_type": ue_type, "UE_Id": ue_id, "position": {"x": x, "y": y, "z": z}}
    return text, json.loads(text)


def value_text(key: str, ue_type: str, ue_id: str, value) -> tuple:
    """The message of one value under key ("pair" or "throughput") for a UE."""
    text = '{"UE_type": %s, "UE_Id": %s, "%s": %s}' % (
        json_leaf(ue_type), json_leaf(ue_id), key, json_leaf(value)
    )
    if type(ue_type) in _LEAF_TYPES and type(ue_id) in _LEAF_TYPES and type(value) in _LEAF_TYPES:
        return text, {"UE_type": ue_type, "UE_Id": ue_id, key: value}
    return text, json.loads(text)


_UNPARSED = object()


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """One published message: its fields, and the doc its payload encodes.

    Messages with equal fields compare equal; the doc is not a field.
    """

    topic: str
    payload: str
    seq: int
    publisher: str
    publish_time: float
    _doc: object = field(default=_UNPARSED, repr=False, compare=False)

    @property
    def doc(self):
        """The payload as JSON: the doc its publisher sent with it, as is, or else the
        payload parsed on the first read. Shared by every reader: treat as read-only."""
        doc = self._doc
        if doc is _UNPARSED:
            doc = self._doc = json.loads(self.payload)
        return doc


class Subscription:
    """FIFO queue for one wildcard pattern; publish delivers under the broker's lock."""

    def __init__(self, pattern: str, lock: threading.Lock):
        self.pattern = pattern
        self.segments = split_topic(pattern, allow_wildcards=True)
        self._items: deque = deque()
        self._lock = lock
        self._warned = False

    def _deliver(self, msg: Message) -> None:
        self._items.append(msg)
        if not self._warned and len(self._items) > QUEUE_HIGH_WATER:
            self._warned = True
            logger.warning(
                "subscription %r exceeded %d queued messages", self.pattern, QUEUE_HIGH_WATER
            )

    def next_message(self):
        """Oldest queued message, or None when the queue is empty."""
        with self._lock:
            return self._items.popleft() if self._items else None

    def drain(self) -> list:
        """All currently queued messages, oldest first."""
        with self._lock:
            out = list(self._items)
            self._items.clear()
        return out


class Broker:
    """Linearizable in-process pub/sub hub with a virtual-time stamp.

    Each published topic is validated once and mapped to the tuple of
    subscriptions whose compiled pattern matches it; the map is cleared
    whenever the subscription set changes. A message published with its doc
    hands that doc to every reader; one published as text alone is parsed on
    its first read.
    """

    def __init__(self, max_payload_bytes: int = MAX_PAYLOAD_BYTES):
        self._lock = threading.Lock()
        self._subs: list[Subscription] = []
        self._routes: dict = {}  # published topic -> matching subscriptions
        self._seq: dict = {}
        self._virtual_time = 0.0
        self.max_payload_bytes = max_payload_bytes

    def set_virtual_time(self, t: float) -> None:
        with self._lock:
            self._virtual_time = float(t)

    def _route(self, topic: str) -> tuple:
        """Validate a topic not in the route map and add its subscribers (lock held)."""
        top = split_topic(topic, allow_wildcards=False)
        subs = tuple(sub for sub in self._subs if _segments_match(sub.segments, top))
        if len(self._routes) >= ROUTE_CACHE_SIZE:
            del self._routes[next(iter(self._routes))]
        self._routes[topic] = subs
        return subs

    def publish(self, topic: str, payload: str, publisher: str = "default",
                doc=_UNPARSED) -> int:
        """Queue payload on every matching subscription; returns its per-publisher,
        per-topic sequence number. doc, when given, is what json.loads(payload) returns
        (a bus text's own doc): readers take it as is, and nothing is parsed."""
        if not isinstance(topic, str):  # ahead of the lookup: a list topic is unhashable
            raise TopicError(f"topic must be a non-empty string, got {topic!r}")
        with self._lock:
            subs = self._routes.get(topic)
            if subs is None:
                subs = self._route(topic)
            if not isinstance(payload, str):
                raise TypeError("payload must be text")
            # UTF-8 takes at most 4 bytes per code point, so most payloads skip encoding
            if (
                4 * len(payload) > self.max_payload_bytes
                and len(payload.encode("utf-8")) > self.max_payload_bytes
            ):
                raise PayloadTooLarge(
                    f"payload of {len(payload)} chars exceeds {self.max_payload_bytes} bytes"
                )
            key = (publisher, topic)
            seq = self._seq[key] = self._seq.get(key, 0) + 1
            msg = Message(topic, payload, seq, publisher, self._virtual_time, doc)
            for sub in subs:
                sub._deliver(msg)
        return seq

    def subscribe(self, pattern: str) -> Subscription:
        sub = Subscription(pattern, self._lock)
        with self._lock:
            self._subs.append(sub)
            self._routes.clear()
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Stop delivery to sub; what it already queued can still be read."""
        with self._lock:
            if sub in self._subs:
                self._subs.remove(sub)
                self._routes.clear()
