"""Concrete in-loop modules wiring the tracer, arrays and kinematics together.

The position source publishes on "3D.mobility.positions"; communications
traces every UE that moved in one batch, runs the full beam sweep per UE,
queues "Ready" on "communications.state" before its step returns (the loop
checks it there, the ray-tracing barrier) and reports throughput on
"communications.throughput"; the AI module consumes positions plus sweep
gains and publishes its beam-pair decision. Data that does not fit the
message contract (the gains vector, one entry per beam pair) moves by direct
reference, mirroring the file-based flow of heavyweight simulators.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import orchestrator as orch
from .ai import Policy, policy_decide
from .bus import Broker
# trace_paths and synthesize_channel stay importable here: perfbench's spans
# wrap these one-receiver names on this module
from .geometry import Scene, los_class, trace_paths, trace_paths_batch  # noqa: F401
from .mobility import (
    TrajectoryPlan,
    UeState,
    position_of,
    position_payload,
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

    def route_complete(self, ue_id: str) -> bool:
        return self.states[ue_id].done

    def step(self, t: float, broker: Broker) -> None:
        for ue_id, state in self.states.items():
            if self._hold[ue_id] > 0:
                self._hold[ue_id] -= 1
            else:
                state = step_kinematics(state, self.sampling_interval)
                self.states[ue_id] = state
            broker.publish(
                orch.POSITIONS_TOPIC, position_payload(self.states[ue_id]), publisher=ue_id
            )


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
            state = UeState(ue_type=ue_type, ue_id=ue_id, position=tuple(pos), speed=0.0)
            broker.publish(orch.POSITIONS_TOPIC, position_payload(state), publisher=ue_id)
        self._k += 1


@dataclass
class SweepResult:
    position: tuple
    los: str
    best_pair: int
    gains: np.ndarray


class CommsModule(orch.ModuleHandle):
    """One batched trace and channel synthesis per snapshot, then the beam sweep per UE."""

    role = "comms"
    name = "communications"

    def __init__(
        self,
        scene: Scene,
        cfg: CommsConfig,
        publish_throughput_in_step: bool = False,
        sweep_hook=None,
    ):
        self.scene = scene
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
        self._sub = None

    def init(self, broker: Broker) -> tuple:
        self._sub = broker.subscribe(orch.POSITIONS_TOPIC)
        return (self._sub,)

    def _sweep(self, positions) -> list:
        """One SweepResult per position: one trace and one synthesis for them all."""
        bundles = trace_paths_batch(
            self.scene, self.scene.tx.position, positions, carrier_hz=self.cfg.carrier_hz
        )
        lit = [b for b in bundles if b.paths]
        channels = iter(
            synthesize_channels(
                lit, self.cfg.tx_upa, self.cfg.rx_upa, self.tx_rotation, self.rx_rotation
            )
        )
        results = []
        for position, bundle in zip(positions, bundles):
            if bundle.paths:
                best, gains = beam_sweep(next(channels), self.tx_codebook, self.rx_codebook)
                results.append(SweepResult(position, los_class(bundle), best, gains))
            else:
                results.append(
                    SweepResult(position, "outage", 0, np.zeros(math.prod(self.pair_grid)))
                )
        return results

    def step(self, t: float, broker: Broker) -> None:
        docs = [msg.doc for msg in self._sub.drain()]
        moved = {}  # UE_Id -> new position, in message order
        for doc in docs:
            pos = position_of(doc)
            cached = self.last.get(doc["UE_Id"])
            if cached is None or cached.position != pos:
                moved[doc["UE_Id"]] = pos
        if moved:
            self.last.update(zip(moved, self._sweep(list(moved.values()))))
        for doc in docs:
            ue_id = doc["UE_Id"]
            result = self.last[ue_id]
            broker.publish(
                orch.BEST_PAIR_TOPIC,
                json.dumps({"UE_type": doc["UE_type"], "UE_Id": ue_id, "pair": result.best_pair}),
                publisher=self.name,
            )
            if self.sweep_hook is not None:
                self.sweep_hook(t, ue_id, result)
            if self.publish_throughput_in_step:
                self.report_throughput(doc, result.best_pair, broker)
        broker.publish(orch.READY_TOPIC, orch.READY_PAYLOAD, publisher=self.name)

    def report_throughput(self, doc: dict, pair: int, broker: Broker) -> float:
        """Throughput of the chosen pair for the UE of a position message, published."""
        ue_id = doc["UE_Id"]
        tput = throughput_mbps(float(self.last[ue_id].gains[pair]), self.cfg)
        broker.publish(
            orch.THROUGHPUT_TOPIC,
            json.dumps({"UE_type": doc["UE_type"], "UE_Id": ue_id, "throughput": tput}),
            publisher=self.name,
        )
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
            broker.publish(
                orch.DECISION_TOPIC,
                json.dumps({"UE_type": doc["UE_type"], "UE_Id": ue_id, "pair": pair}),
                publisher=self.name,
            )
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
    comms = CommsModule(scene, comms_cfg, publish_throughput_in_step=True, sweep_hook=hook)
    n_cap = min(max_snapshots, int(np.ceil(plan.total_length / (plan.speed_mps * sampling_interval))) + 2)
    cfg = orch.EpisodeConfig(
        n_snapshots=n_cap,
        sampling_interval=sampling_interval,
        category=orch.MOB3D_COMM_IN_LOOP,
    )
    orch.run_episode(cfg, [mobility, comms], stop_early=lambda rec: mobility.route_complete("uav0"))
    return rows
