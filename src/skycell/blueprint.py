"""Concrete in-loop modules wiring the tracer, arrays and kinematics together.

The position source publishes on "3D.mobility.positions"; communications
traces every UE that moved in one batch, runs the full beam sweep over the
stack of their channels in one call, queues "Ready" on "communications.state"
before its step returns (the loop checks it there, the ray-tracing barrier)
and reports throughput on "communications.throughput"; the AI module consumes
positions plus sweep gains and publishes its beam-pair decision. Data that
does not fit the message contract (the gains vector, one entry per beam pair)
moves by direct reference, mirroring the file-based flow of heavyweight
simulators.

Each message text is built by its bus template when it is sent. A held
snapshot reuses only its sweep (CommsModule.last, keyed by UE) and the
broker's parsed docs.

A UE's next positions are fixed by its route (a hold delays them, never
changes them), so when communications knows the MobilityModule feeding it,
the pass that traces a moved UE also traces its next moves, up to
TRACE_BATCH receivers in all, and later moves are served from that queue.
Every SweepResult is bit-equal whichever batch traced it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice, takewhile

import numpy as np

from . import orchestrator as orch
from .ai import Policy, policy_decide
from .bus import Broker, pair_text, position_text, throughput_text
# trace_paths and synthesize_channel stay importable here: perfbench's spans
# wrap these one-receiver names on this module
from .geometry import Scene, los_class, trace_paths, trace_paths_batch  # noqa: F401
from .mobility import (
    TrajectoryPlan,
    position_of,
    position_payload,
    positions_ahead,
    step_kinematics,
    uav_state,
)
from .phy import (  # noqa: F401
    CommsConfig,
    beam_sweep,
    boresight_rotation,
    dft_codebook,
    synthesize_channel,
    synthesize_channels,
    throughput_mbps,
)


class MobilityModule(orch.ModuleHandle):
    """Advances every UE along its route and publishes positions."""

    role = "mobility"
    name = "3D"

    def __init__(self, plans: dict, sampling_interval: float):
        self.sampling_interval = sampling_interval
        self.states = {ue_id: uav_state(ue_id, plan) for ue_id, plan in plans.items()}
        self._hold = {ue_id: 0 for ue_id in plans}

    def hold(self, ue_id: str, n_snapshots: int) -> None:
        """Keep a UE stationary for the next n snapshots."""
        self._hold[ue_id] = max(self._hold[ue_id], n_snapshots)

    def upcoming(self, ue_id: str, k: int) -> list:
        """The next k positions the UE publishes as it moves; fewer once its route ends.

        The steps run inside mobility.positions_ahead, so perfbench's mobility.step
        span, which wraps this module's step_kinematics, still counts published moves.
        """
        return positions_ahead(self.states[ue_id], self.sampling_interval, k)

    def route_complete(self, ue_id: str) -> bool:
        return self.states[ue_id].done

    def step(self, t: float, broker: Broker) -> None:
        for ue_id, state in self.states.items():
            if self._hold[ue_id] > 0:
                self._hold[ue_id] -= 1
            else:
                state = self.states[ue_id] = step_kinematics(state, self.sampling_interval)
            broker.publish(orch.POSITIONS_TOPIC, position_payload(state), publisher=ue_id)


class ReplayModule(orch.ModuleHandle):
    """Publishes UE positions replayed from a recorded episode log."""

    role = "replay"
    name = "3D"

    def __init__(self, records):
        self._frames = [rec.ue_states for rec in records]
        self._k = 0

    def step(self, t: float, broker: Broker) -> None:
        if self._k >= len(self._frames):
            raise RuntimeError("replay source exhausted: episode longer than recording")
        for ue_type, ue_id, pos in self._frames[self._k]:
            text = position_text(ue_type, ue_id, *pos)
            broker.publish(orch.POSITIONS_TOPIC, text, publisher=ue_id)
        self._k += 1


# receivers one radio pass aims at: a pass for a lone moving UE also traces its
# next three moves; with three or more UEs moving it traces none ahead
TRACE_BATCH = 4


@dataclass
class SweepResult:
    position: tuple
    los: str
    best_pair: int
    gains: np.ndarray


class CommsModule(orch.ModuleHandle):
    """One batched trace, channel synthesis and beam sweep per snapshot."""

    role = "comms"
    name = "communications"

    def __init__(
        self,
        scene: Scene,
        cfg: CommsConfig,
        publish_throughput_in_step: bool = False,
        sweep_hook=None,
        mobility: MobilityModule | None = None,
    ):
        self.scene = scene
        self.mobility = mobility
        self.cfg = cfg
        self.publish_throughput_in_step = publish_throughput_in_step
        self.sweep_hook = sweep_hook
        self.tx_codebook = dft_codebook(self.cfg.tx_upa)
        self.rx_codebook = dft_codebook(self.cfg.rx_upa)
        # the sweep's gains vector is this (n_rx, n_tx) grid flattened row-major
        self.pair_grid = (self.rx_codebook.n_codewords, self.tx_codebook.n_codewords)
        self.tx_rotation = boresight_rotation(scene.tx.azimuth_deg, scene.tx.downtilt_deg)
        self.rx_rotation = boresight_rotation(self.cfg.rx_azimuth_deg, self.cfg.rx_downtilt_deg)
        self.last: dict = {}
        self._ahead: dict = {}  # UE_Id -> deque of SweepResults of its next moves
        self._sub = None

    def init(self, broker: Broker) -> tuple:
        self._sub = broker.subscribe(orch.POSITIONS_TOPIC)
        return (self._sub,)

    def _sweep(self, positions) -> list:
        """One SweepResult per position: one trace, one synthesis and one sweep for them all."""
        bundles = trace_paths_batch(
            self.scene, self.scene.tx.position, positions, carrier_hz=self.cfg.carrier_hz
        )
        lit = [b for b in bundles if b.paths]
        if lit:
            channels = synthesize_channels(
                lit, self.cfg.tx_upa, self.cfg.rx_upa, self.tx_rotation, self.rx_rotation
            )
            swept = zip(*beam_sweep(channels, self.tx_codebook, self.rx_codebook))
        results = []
        for position, bundle in zip(positions, bundles):
            if bundle.paths:
                results.append(SweepResult(position, los_class(bundle), *next(swept)))
            else:
                results.append(
                    SweepResult(position, "outage", 0, np.zeros(math.prod(self.pair_grid)))
                )
        return results

    def _route_ahead(self, ue_id: str, k: int) -> list:
        """Up to k next positions of the UE, cut before the first one the tracer
        rejects (at or below the ground, or at the transmitter): a move not made
        yet must not abort the episode."""
        if ue_id not in self.mobility.states:
            return []
        tx = self.scene.tx.position
        return list(takewhile(lambda p: p[2] > 0 and p != tx, self.mobility.upcoming(ue_id, k)))

    def _trace_moved(self, moved: dict) -> None:
        """Sweep every moved UE's position in one pass and, when the pass has room and
        a mobility module, each one's next moves into its queue."""
        k = TRACE_BATCH // len(moved) - 1
        if self.mobility is None or k < 1:
            # a queue these UEs keep holds sweeps of exact positions, so it stays valid
            self.last.update(zip(moved, self._sweep(list(moved.values()))))
            return
        ahead = {ue_id: self._route_ahead(ue_id, k) for ue_id in moved}
        positions = []
        for ue_id, pos in moved.items():
            positions.append(pos)
            positions.extend(ahead[ue_id])
        results = iter(self._sweep(positions))
        for ue_id in moved:
            self.last[ue_id] = next(results)
            self._ahead[ue_id] = deque(islice(results, len(ahead[ue_id])))

    def step(self, t: float, broker: Broker) -> None:
        docs = [msg.doc for msg in self._sub.drain()]
        moved = {}  # UE_Id -> new position, in message order
        for doc in docs:
            pos = position_of(doc)
            cached = self.last.get(doc["UE_Id"])
            if cached is None or cached.position != pos:
                moved[doc["UE_Id"]] = pos
        if self._ahead:  # a move to the head of the UE's queue takes that sweep
            for ue_id, pos in list(moved.items()):
                queue = self._ahead.get(ue_id)
                if queue and queue[0].position == pos:
                    self.last[ue_id] = queue.popleft()
                    del moved[ue_id]
        if moved:
            self._trace_moved(moved)
        for doc in docs:
            ue_id = doc["UE_Id"]
            result = self.last[ue_id]
            payload = pair_text(doc["UE_type"], ue_id, result.best_pair)
            broker.publish(orch.BEST_PAIR_TOPIC, payload, publisher=self.name)
            if self.sweep_hook is not None:
                self.sweep_hook(t, ue_id, result)
            if self.publish_throughput_in_step:
                self.report_throughput(doc, result.best_pair, broker)
        broker.publish(orch.READY_TOPIC, orch.READY_PAYLOAD, publisher=self.name)

    def report_throughput(self, doc: dict, pair: int, broker: Broker) -> float:
        """Throughput of the chosen pair for the UE of a position message, published."""
        tput = throughput_mbps(float(self.last[doc["UE_Id"]].gains[pair]), self.cfg)
        text = throughput_text(doc["UE_type"], doc["UE_Id"], tput)
        broker.publish(orch.THROUGHPUT_TOPIC, text, publisher=self.name)
        return tput


class PolicyModule(orch.ModuleHandle):
    """Chooses a beam pair per UE each snapshot and triggers throughput reports."""

    role = "ai"
    name = "ai"

    def __init__(self, policy: Policy, comms: CommsModule, rng):
        n_pairs = math.prod(comms.pair_grid)
        if policy.model is not None and policy.model.n_classes != n_pairs:
            raise ValueError(f"tree model has {policy.model.n_classes} pairs, arrays {n_pairs}")
        self.policy = policy
        self.comms = comms
        self.rng = rng
        self._sub = None

    def init(self, broker: Broker) -> tuple:
        self._sub = broker.subscribe(orch.POSITIONS_TOPIC)
        return (self._sub,)

    def step(self, t: float, broker: Broker) -> None:
        for msg in self._sub.drain():
            doc = msg.doc
            ue_id = doc["UE_Id"]
            pos = position_of(doc)
            grid = self.comms.last[ue_id].gains.reshape(self.comms.pair_grid)
            pair = policy_decide(self.policy, pos, grid, self.rng)
            payload = pair_text(doc["UE_type"], ue_id, pair)
            broker.publish(orch.DECISION_TOPIC, payload, publisher=self.name)
            tput = self.comms.report_throughput(doc, pair, broker)
            self.on_throughput(t, broker, ue_id, pos, tput)

    def on_throughput(self, t: float, broker: Broker, ue_id: str, pos, tput: float) -> None:
        """Per-UE hook after the throughput report; subclasses add behaviour."""


def offset_plan(plan: TrajectoryPlan, offset_m: float) -> TrajectoryPlan:
    """Shift a route laterally; used to fan out extra UAV receivers."""
    dy = (0.0, offset_m, 0.0)

    def shift(p):
        return (p[0] + dy[0], p[1] + dy[1], p[2] + dy[2])

    return TrajectoryPlan(
        start=shift(plan.start),
        end=shift(plan.end),
        waypoints=tuple(shift(w) for w in plan.waypoints),
        speed_mps=plan.speed_mps,
    )


def generate_dataset_rows(
    scene: Scene,
    plan: TrajectoryPlan,
    comms_cfg: CommsConfig,
    sampling_interval: float = 0.5,
    max_snapshots: int = 2000,
):
    """Fly one route in the dataset category and sweep every snapshot.

    Returns (position, los_class, best_pair, gains) tuples, outages skipped.
    """
    rows = []

    def hook(t, ue_id, result):
        if result.los != "outage":
            rows.append((result.position, result.los, result.best_pair, result.gains.copy()))

    mobility = MobilityModule({"uav0": plan}, sampling_interval)
    comms = CommsModule(
        scene, comms_cfg, publish_throughput_in_step=True, sweep_hook=hook, mobility=mobility
    )
    n_cap = min(max_snapshots, int(np.ceil(plan.total_length / (plan.speed_mps * sampling_interval))) + 2)
    cfg = orch.EpisodeConfig(
        n_snapshots=n_cap,
        sampling_interval=sampling_interval,
        category=orch.MOB3D_COMM_IN_LOOP,
    )
    orch.run_episode(cfg, [mobility, comms], stop_early=lambda rec: mobility.route_complete("uav0"))
    return rows
