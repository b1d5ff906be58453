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
import time
from dataclasses import dataclass, field

from .bus import Broker
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
        if self.sampling_interval <= 0:
            raise ValueError("sampling_interval must be > 0")
        if self.category not in CATEGORIES:
            raise ValueError(f"category must be one of {CATEGORIES}, got {self.category!r}")

    @property
    def virtual_duration_s(self) -> float:
        return self.n_snapshots * self.sampling_interval


class ModuleHandle:
    """Contract every in-loop module satisfies."""

    name = "module"
    role = "module"

    def init(self, broker: Broker) -> tuple:
        """Open the module's subscriptions; the episode unsubscribes the ones returned."""
        return ()

    def step(self, t: float, broker: Broker) -> None:  # pragma: no cover - interface
        raise NotImplementedError


def _replay_state(u) -> tuple:
    """A recorded UE state: a known UE_type and a list of exactly three JSON numbers."""
    ue_type, ue_id, pos = u["UE_type"], u["UE_Id"], u["position"]
    if ue_type not in UE_TYPES:
        raise ValueError(f"episode-log UE_type must be one of {UE_TYPES}, got {ue_type!r}")
    if type(pos) is not list or len(pos) != 3 or not all(type(v) in (int, float) for v in pos):
        raise ValueError(f"episode-log position must be a list of three numbers, got {pos!r}")
    return ue_type, ue_id, tuple(pos)


@dataclass
class SnapshotRecord:
    t: float
    ue_states: list  # [(ue_type, ue_id, (x, y, z)), ...]
    chosen_pair: int
    throughput_mbps: float
    events: list = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "t": self.t,
            "ue_states": [
                {"UE_type": k, "UE_Id": i, "position": list(p)} for k, i, p in self.ue_states
            ],
            "chosen_pair": self.chosen_pair,
            "throughput_mbps": self.throughput_mbps,
            "events": self.events,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

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
            for line in fh:
                line = line.strip()
                if line:
                    log.records.append(SnapshotRecord.from_json(line))
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

    try:
        broker.set_virtual_time(0.0)
        for m in modules:
            subs.extend(m.init(broker))
        for k in range(config.n_snapshots):
            t = k * config.sampling_interval
            broker.set_virtual_time(t)
            for m in modules:
                t0 = time.perf_counter()
                try:
                    m.step(t, broker)
                except Exception as exc:  # noqa: BLE001 - module failure aborts the run
                    raise abort(f"module {m.name!r} failed at t={t}: {exc}") from exc
                log.timings[m.name] += time.perf_counter() - t0
                if m.role == "comms" and sub_ready.next_message() is None:
                    raise abort(f"barrier: no {READY_PAYLOAD!r} queued on {READY_TOPIC} at t={t}")
            positions = [
                (doc["UE_type"], doc["UE_Id"], position_of(doc))
                for doc in (m.doc for m in sub_pos.drain())
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
            log.records.append(record)
            if stop_early is not None and stop_early(record):
                break
    finally:
        for sub in subs:
            broker.unsubscribe(sub)

    log.wall_clock_s = time.perf_counter() - t_start
    return log
