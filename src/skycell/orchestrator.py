"""Discrete-time main loop over registered modules.

One episode is N snapshots at t = 0, Ts, 2*Ts, ... Modules run sequentially
inside each snapshot in registration order (position source, communications,
AI). After the communications step the loop blocks until "Ready" appears on
"communications.state" - the ray-tracing barrier - before any later module
runs. The virtual clock never depends on wall-clock time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .bus import Broker

ALL_IN_LOOP = "AllInLoop"
AI_COMM_IN_LOOP = "AiCommInLoop"
MOB3D_COMM_IN_LOOP = "Mob3dCommInLoop"
CATEGORIES = (ALL_IN_LOOP, AI_COMM_IN_LOOP, MOB3D_COMM_IN_LOOP)

READY_TOPIC = "communications.state"
READY_PAYLOAD = "Ready"
THROUGHPUT_TOPIC = "communications.throughput"
POSITIONS_TOPIC = "3D.mobility.positions"
BEST_PAIR_TOPIC = "communications.best_pair"
DECISION_TOPIC = "ai.decision"
EVENTS_PATTERN = "*.events"

# role order inside one snapshot; "replay" substitutes for "mobility"
_ROLE_ORDER = {"mobility": 0, "replay": 0, "comms": 1, "ai": 2}


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
    barrier_timeout_s: float = 60.0

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

    def init(self, t: float, broker: Broker) -> None:  # pragma: no cover - interface
        pass

    def step(self, t: float, broker: Broker) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def shutdown(self) -> None:  # pragma: no cover - interface
        pass


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
            return cls(
                t=doc["t"],
                ue_states=[
                    (u["UE_type"], u["UE_Id"], tuple(u["position"])) for u in doc["ue_states"]
                ],
                chosen_pair=doc["chosen_pair"],
                throughput_mbps=doc["throughput_mbps"],
                events=list(doc["events"]),
            )
        except KeyError as exc:
            raise ValueError(f"episode-log record lacks key {exc}") from exc
        except TypeError as exc:  # a non-object where an object or a list belongs
            raise ValueError(f"malformed episode-log record: {exc}") from exc


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


def category_wiring(category: str) -> frozenset:
    """In-loop module roles for a simulation category."""
    if category == ALL_IN_LOOP:
        return frozenset({"mobility", "comms", "ai"})
    if category == AI_COMM_IN_LOOP:
        return frozenset({"comms", "ai"})
    if category == MOB3D_COMM_IN_LOOP:
        return frozenset({"mobility", "comms"})
    raise ValueError(f"unknown category {category!r}")


def _check_modules(category: str, modules) -> None:
    roles = [m.role for m in modules]
    wanted = set(category_wiring(category))
    if category == AI_COMM_IN_LOOP:
        if "replay" not in roles:
            raise ValueError("AiCommInLoop requires a pre-recorded trajectory source")
        wanted |= {"replay"}
    if category == MOB3D_COMM_IN_LOOP and "ai" in roles:
        raise ValueError("Mob3dCommInLoop must not register an AI module in-loop")
    present = set(roles)
    missing = wanted - present
    if missing:
        raise ValueError(f"category {category} needs modules with roles {sorted(missing)}")
    unexpected = present - wanted
    if unexpected:
        raise ValueError(f"category {category} does not admit roles {sorted(unexpected)}")
    order = [_ROLE_ORDER[r] for r in roles]
    if order != sorted(order):
        raise ValueError("modules must register in order: positions, communications, AI")


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
    """
    modules = list(modules)
    _check_modules(config.category, modules)
    broker = broker or Broker()

    sub_ready = broker.subscribe(READY_TOPIC)
    sub_pos = broker.subscribe(POSITIONS_TOPIC)
    sub_tput = broker.subscribe(THROUGHPUT_TOPIC)
    sub_best = broker.subscribe(BEST_PAIR_TOPIC)
    sub_decision = broker.subscribe(DECISION_TOPIC)
    sub_events = broker.subscribe(EVENTS_PATTERN)

    log = EpisodeLog(timings={m.name: 0.0 for m in modules})
    t_start = time.perf_counter()

    def abort(diagnostic: str):
        for m in modules:
            try:
                m.shutdown()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        log.wall_clock_s = time.perf_counter() - t_start
        return EpisodeAbort(diagnostic, log)

    broker.set_virtual_time(0.0)
    for m in modules:
        m.init(0.0, broker)

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
            if m.role == "comms":
                msg = sub_ready.next_message(timeout=config.barrier_timeout_s)
                if msg is None:
                    raise abort(
                        f"barrier timeout: no {READY_PAYLOAD!r} on {READY_TOPIC} at t={t}"
                    )
        positions = [
            (doc["UE_type"], doc["UE_Id"], _position_tuple(doc["position"]))
            for doc in (m.doc for m in sub_pos.drain())
        ]
        best_msgs = sub_best.drain()
        decision_msgs = sub_decision.drain()
        tput_msgs = sub_tput.drain()
        chosen = 0
        if decision_msgs:
            chosen = int(decision_msgs[-1].doc["pair"])
        elif best_msgs:
            chosen = int(best_msgs[-1].doc["pair"])
        throughput = 0.0
        if tput_msgs:
            throughput = float(tput_msgs[-1].doc["throughput"])
        record = SnapshotRecord(
            t=t,
            ue_states=positions,
            chosen_pair=chosen,
            throughput_mbps=throughput,
            events=[m.payload for m in sub_events.drain()],
        )
        log.records.append(record)
        if stop_early is not None and stop_early(record):
            break

    for m in modules:
        m.shutdown()
    log.wall_clock_s = time.perf_counter() - t_start
    return log


def _position_tuple(doc: dict) -> tuple:
    return (float(doc["x"]), float(doc["y"]), float(doc["z"]))
