"""Concrete in-loop modules wiring the tracer, arrays and kinematics together.

The position source publishes on "3D.mobility.positions"; communications
traces each UE, runs the full beam sweep, publishes "Ready" on
"communications.state" (the barrier) and reports throughput on
"communications.throughput"; the AI module consumes positions plus sweep
gains and publishes its beam-pair decision. Data that does not fit the
message contract (the gains vector, one entry per beam pair) moves by direct
reference, mirroring the file-based flow of heavyweight simulators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import orchestrator as orch
from .ai import Policy, policy_decide
from .bus import Broker
from .geometry import Scene, los_class, trace_paths
from .mobility import (
    TrajectoryPlan,
    UeState,
    position_payload,
    step_kinematics,
    uav_state,
)
from .phy import (
    ChannelOutage,
    CommsConfig,
    beam_sweep,
    boresight_rotation,
    dft_codebook,
    synthesize_channel,
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

    def shutdown(self) -> None:
        pass


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
    """Ray tracing, channel synthesis and the exhaustive beam sweep per UE."""

    role = "comms"
    name = "communications"

    def __init__(
        self,
        scene: Scene,
        cfg: CommsConfig | None = None,
        max_order: int = 2,
        publish_throughput_in_step: bool = False,
        sweep_hook=None,
    ):
        self.scene = scene
        self.cfg = cfg or CommsConfig()
        self.max_order = max_order
        self.publish_throughput_in_step = publish_throughput_in_step
        self.sweep_hook = sweep_hook
        self.tx_codebook = dft_codebook(self.cfg.tx_upa)
        self.rx_codebook = dft_codebook(self.cfg.rx_upa)
        self.tx_rotation = boresight_rotation(scene.tx.azimuth_deg, scene.tx.downtilt_deg)
        self.rx_rotation = boresight_rotation(self.cfg.rx_azimuth_deg, self.cfg.rx_downtilt_deg)
        self.last: dict = {}
        self._ue_types: dict = {}
        self._sub = None

    def init(self, t: float, broker: Broker) -> None:
        self._sub = broker.subscribe(orch.POSITIONS_TOPIC)

    def _sweep_at(self, position) -> SweepResult:
        bundle = trace_paths(
            self.scene,
            self.scene.tx.position,
            position,
            max_order=self.max_order,
            carrier_hz=self.cfg.carrier_hz,
        )
        cls = los_class(bundle)
        try:
            h = synthesize_channel(
                bundle,
                self.cfg.tx_upa,
                self.cfg.rx_upa,
                carrier_hz=self.cfg.carrier_hz,
                tx_rotation=self.tx_rotation,
                rx_rotation=self.rx_rotation,
            )
        except ChannelOutage:
            n_pairs = self.tx_codebook.n_codewords * self.rx_codebook.n_codewords
            return SweepResult(tuple(position), cls, 0, np.zeros(n_pairs))
        best, gains = beam_sweep(h, self.tx_codebook, self.rx_codebook)
        return SweepResult(tuple(position), cls, best, gains)

    def step(self, t: float, broker: Broker) -> None:
        for msg in self._sub.drain():
            doc = json.loads(msg.payload)
            ue_id = doc["UE_Id"]
            self._ue_types[ue_id] = doc["UE_type"]
            pos = (doc["position"]["x"], doc["position"]["y"], doc["position"]["z"])
            cached = self.last.get(ue_id)
            if cached is None or cached.position != pos:
                result = self._sweep_at(pos)
                self.last[ue_id] = result
            else:
                result = cached
            broker.publish(
                orch.BEST_PAIR_TOPIC,
                json.dumps({"UE_type": doc["UE_type"], "UE_Id": ue_id, "pair": result.best_pair}),
                publisher=self.name,
            )
            if self.sweep_hook is not None:
                self.sweep_hook(t, ue_id, result)
            if self.publish_throughput_in_step:
                self.report_throughput(ue_id, result.best_pair, broker)
        broker.publish(orch.READY_TOPIC, orch.READY_PAYLOAD, publisher=self.name)

    def report_throughput(self, ue_id: str, pair: int, broker: Broker) -> float:
        """Throughput of the chosen pair for a UE, published on the wire topic."""
        result = self.last[ue_id]
        tput = throughput_mbps(float(result.gains[pair]), self.cfg)
        broker.publish(
            orch.THROUGHPUT_TOPIC,
            json.dumps({
                "UE_type": self._ue_types.get(ue_id, "UAV"),
                "UE_Id": ue_id,
                "throughput": tput,
            }),
            publisher=self.name,
        )
        return tput


class PolicyModule(orch.ModuleHandle):
    """Chooses a beam pair per UE each snapshot and triggers throughput reports."""

    role = "ai"
    name = "ai"

    def __init__(self, policy: Policy, comms: CommsModule, rng):
        self.policy = policy
        self.comms = comms
        self.rng = rng
        self.last_choice: dict = {}
        self._sub = None

    def init(self, t: float, broker: Broker) -> None:
        self._sub = broker.subscribe(orch.POSITIONS_TOPIC)

    def decide(self, ue_id: str, position) -> int:
        sweep = self.comms.last[ue_id]
        return policy_decide(self.policy, position, sweep.gains, self.rng)

    def step(self, t: float, broker: Broker) -> None:
        for msg in self._sub.drain():
            doc = json.loads(msg.payload)
            ue_id = doc["UE_Id"]
            pos = (doc["position"]["x"], doc["position"]["y"], doc["position"]["z"])
            pair = self.decide(ue_id, pos)
            self.last_choice[ue_id] = pair
            broker.publish(
                orch.DECISION_TOPIC,
                json.dumps({"UE_type": doc["UE_type"], "UE_Id": ue_id, "pair": pair}),
                publisher=self.name,
            )
            tput = self.comms.report_throughput(ue_id, pair, broker)
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
