"""Discrete-time main loop over registered modules.

One episode is N snapshots at t = 0, Ts, 2*Ts, ... Modules run sequentially
inside each snapshot in registration order (position source, communications,
AI). Every step is a synchronous in-process call, so after the communications
step the loop checks that it queued "Ready" on "communications.state" - the
ray-tracing barrier - and aborts the episode if it did not; it never blocks.
The virtual clock never depends on wall-clock time.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from .bus import Broker, json_leaf
from .mobility import UE_TYPES, position_of

ALL_IN_LOOP = "AllInLoop"
AI_COMM_IN_LOOP = "AiCommInLoop"
MOB3D_COMM_IN_LOOP = "Mob3dCommInLoop"
# module roles of each category in registration order; "replay" is a recorded
# trajectory standing in for "mobility"
_WIRING = {
    ALL_IN_LOOP: ("mobility", "comms", "ai"),
    AI_COMM_IN_LOOP: ("replay", "comms", "ai"),
    MOB3D_COMM_IN_LOOP: ("mobility", "comms"),
}
CATEGORIES = tuple(_WIRING)

READY_TOPIC = "communications.state"
READY_PAYLOAD = "Ready"
THROUGHPUT_TOPIC = "communications.throughput"
POSITIONS_TOPIC = "3D.mobility.positions"
BEST_PAIR_TOPIC = "communications.best_pair"
DECISION_TOPIC = "ai.decision"
EVENTS_PATTERN = "*.events"


class EpisodeAbort(RuntimeError):
    """Episode failed; carries the partial log and a diagnostic."""

    def __init__(self, diagnostic: str, log: "EpisodeLog"):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic
        self.log = log


@dataclass
class EpisodeConfig:
    n_snapshots: int
    sampling_interval: float = 0.5
    category: str = ALL_IN_LOOP
    seed: int = 0

    def __post_init__(self):
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be >= 1")
        if not 0 < self.sampling_interval < math.inf:
            raise ValueError(
                f"sampling_interval must be finite and > 0, got {self.sampling_interval}")
        if self.category not in CATEGORIES:
            raise ValueError(f"category must be one of {CATEGORIES}, got {self.category!r}")


class ModuleHandle:
    """Contract every in-loop module satisfies."""

    name = "module"
    role = "module"
    source = None  # the episode's position source; run_episode sets it before init

    def init(self, broker: Broker) -> tuple:
        """Open the module's subscriptions; the episode unsubscribes the ones returned."""
        return ()

    def step(self, t: float, broker: Broker) -> None:  # pragma: no cover - interface
        raise NotImplementedError


def finite_number(value) -> bool:
    """A JSON integer or float that is finite: a boolean, text, NaN, an infinity or an
    integer beyond the float range is no number."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # a JSON integer beyond the float range
        return False


def _replay_state(u) -> tuple:
    """A recorded UE state: a known UE_type, a string UE_Id and a list of exactly
    three finite JSON numbers."""
    ue_type, ue_id, pos = u["UE_type"], u["UE_Id"], u["position"]
    if ue_type not in UE_TYPES:
        raise ValueError(f"episode-log UE_type must be one of {UE_TYPES}, got {ue_type!r}")
    if type(ue_id) is not str:
        raise ValueError(f"episode-log UE_Id must be a string, got {ue_id!r}")
    if type(pos) is not list or len(pos) != 3 or not all(type(v) in (int, float) for v in pos):
        raise ValueError(f"episode-log position must be a list of three numbers, got {pos!r}")
    if not all(map(finite_number, pos)):  # json reads NaN, Infinity and integers of any size
        raise ValueError(f"episode-log position must be finite, got {pos!r}")
    return ue_type, ue_id, tuple(pos)


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _leaf(v) -> str:
    """v as _encode writes it; text, finite numbers and lists of them skip the encoder."""
    tv = type(v)
    if tv is str or tv is int or tv is float:
        return json_leaf(v)
    if tv is list or tv is tuple:
        return _leaf_list(v)
    return _encode(v)


def _leaf_list(items) -> str:
    """The JSON array of an iterable's items."""
    return "[" + ",".join(map(_leaf, items)) + "]"


@dataclass
class SnapshotRecord:
    t: float
    ue_states: list  # [(ue_type, ue_id, (x, y, z)), ...]
    chosen_pair: int
    throughput_mbps: float
    events: list = field(default_factory=list)

    def to_json(self) -> str:
        """One compact line with sorted keys, as json.dumps(sort_keys=True) writes it.

        The keys are fixed, so only the leaf values go through the encoder.
        """
        states = ",".join(
            '{"UE_Id":%s,"UE_type":%s,"position":%s}' % (_leaf(i), _leaf(k), _leaf_list(p))
            for k, i, p in self.ue_states
        )
        return '{"chosen_pair":%s,"events":%s,"t":%s,"throughput_mbps":%s,"ue_states":[%s]}' % (
            _leaf(self.chosen_pair),
            _leaf(self.events),
            _leaf(self.t),
            _leaf(self.throughput_mbps),
            states,
        )

    @classmethod
    def from_json(cls, line: str) -> "SnapshotRecord":
        doc = json.loads(line)
        try:
            record = cls(
                t=doc["t"],
                ue_states=[_replay_state(u) for u in doc["ue_states"]],
                chosen_pair=doc["chosen_pair"],
                throughput_mbps=doc["throughput_mbps"],
                events=list(doc["events"]),
            )
            seen = set()
            for _, ue_id, _ in record.ue_states:  # a UE has one position per snapshot
                if ue_id in seen:
                    raise ValueError(f"episode-log record lists UE_Id {ue_id!r} twice")
                seen.add(ue_id)
        except KeyError as exc:
            raise ValueError(f"episode-log record lacks key {exc}") from exc
        except TypeError as exc:  # a non-object where an object or a list belongs
            raise ValueError(f"malformed episode-log record: {exc}") from exc
        return record


@dataclass
class EpisodeLog:
    records: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)  # module name -> cumulative seconds
    wall_clock_s: float = 0.0

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(rec.to_json() + "\n")

    @classmethod
    def read_jsonl(cls, path) -> "EpisodeLog":
        log = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    try:
                        log.records.append(SnapshotRecord.from_json(line))
                    except ValueError as exc:
                        raise ValueError(f"line {n}: {exc}") from exc
        return log


def category_wiring(category: str) -> tuple:
    """Roles of a category's in-loop modules, in registration order."""
    try:
        return _WIRING[category]
    except KeyError:
        raise ValueError(f"unknown category {category!r}") from None


def run_episode(
    config: EpisodeConfig,
    modules,
    broker: Broker | None = None,
    stop_early=None,
) -> EpisodeLog:
    """Drive one episode; returns the log of one record per snapshot.

    stop_early, when given, sees each completed SnapshotRecord and may end
    the episode ahead of the configured N (used by the rescue mission, whose
    length depends on in-loop decisions).

    Before any module's init, every module after the first gets the first, the
    episode's position source, as its source: communications reads the moves a
    UE will make from it, however the module list was built.

    The episode's own subscriptions and those its modules' init returns are
    unsubscribed when it ends, aborted or not; a caller's own subscriptions on a
    passed-in broker stay open.
    """
    modules = list(modules)
    wiring = category_wiring(config.category)
    roles = tuple(m.role for m in modules)
    if roles != wiring:
        raise ValueError(f"category {config.category} needs module roles {wiring}, got {roles}")
    broker = broker or Broker()

    sub_ready = broker.subscribe(READY_TOPIC)
    sub_pos = broker.subscribe(POSITIONS_TOPIC)
    sub_tput = broker.subscribe(THROUGHPUT_TOPIC)
    sub_best = broker.subscribe(BEST_PAIR_TOPIC)
    sub_decision = broker.subscribe(DECISION_TOPIC)
    sub_events = broker.subscribe(EVENTS_PATTERN)
    subs = [sub_ready, sub_pos, sub_tput, sub_best, sub_decision, sub_events]

    log = EpisodeLog(timings={m.name: 0.0 for m in modules})
    t_start = time.perf_counter()

    def abort(diagnostic: str):
        log.wall_clock_s = time.perf_counter() - t_start
        return EpisodeAbort(diagnostic, log)

    # looked up once: (name, step, whether the barrier follows it) per module
    steps = [(m.name, m.step, m.role == "comms") for m in modules]
    clock, timings, records = time.perf_counter, log.timings, log.records
    ready = sub_ready.next_message
    try:
        broker.set_virtual_time(0.0)
        for m in modules[1:]:  # the wiring puts the position source first
            m.source = modules[0]
        for m in modules:
            subs.extend(m.init(broker))
        for k in range(config.n_snapshots):
            t = k * config.sampling_interval
            broker.set_virtual_time(t)
            for name, step, barrier in steps:
                t0 = clock()
                try:
                    step(t, broker)
                except Exception as exc:  # noqa: BLE001 - module failure aborts the run
                    raise abort(f"module {name!r} failed at t={t}: {exc}") from exc
                timings[name] += clock() - t0
                if barrier and ready() is None:
                    raise abort(f"barrier: no {READY_PAYLOAD!r} queued on {READY_TOPIC} at t={t}")
            positions = [
                (doc["UE_type"], doc["UE_Id"], position_of(doc))
                for doc in [m.doc for m in sub_pos.drain()]
            ]
            best_msgs = sub_best.drain()
            pair_msgs = sub_decision.drain() or best_msgs  # the AI decision wins over the sweep
            tput_msgs = sub_tput.drain()
            record = SnapshotRecord(
                t=t,
                ue_states=positions,
                chosen_pair=int(pair_msgs[-1].doc["pair"]) if pair_msgs else 0,
                throughput_mbps=float(tput_msgs[-1].doc["throughput"]) if tput_msgs else 0.0,
                events=[m.payload for m in sub_events.drain()],
            )
            records.append(record)
            if stop_early is not None and stop_early(record):
                break
    finally:
        for sub in subs:
            broker.unsubscribe(sub)

    log.wall_clock_s = time.perf_counter() - t_start
    return log
