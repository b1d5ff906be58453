"""Concrete in-loop modules wiring the tracer, arrays and kinematics together.

The position source publishes on "3D.mobility.positions"; communications
traces every UE that moved in one batch, runs the full beam sweep over the
stack of their channels in one call (a UE without paths is no special case:
its channel sums no path, and the zero channel sweeps to all-zero gains, its
outage), queues "Ready" on "communications.state"
before its step returns (the loop checks it there, the ray-tracing barrier);
the AI module consumes positions plus sweep gains, publishes its beam-pair
decision and reports that pair's throughput on "communications.throughput"
(in a loop without one, communications reports its best pair's). Data that
does not fit the message contract (the gains vector, one entry per beam pair)
moves by direct reference, mirroring the file-based flow of heavyweight
simulators. loop_modules builds every category's modules, in order.

Each message is built when it is sent: its bus template gives the text and
the doc the text encodes, from the same values, and the broker hands that doc
to every reader, so no module parses JSON. A held snapshot reuses only its
sweep.

Communications keeps one queue of SweepResults per UE, headed by the sweep of
its published position. A UE's next positions are fixed by its route (a hold
delays them, never changes them). run_episode hands every module the
episode's position source, which lists a UE's next moves (its upcoming: the
route's for a MobilityModule, the recording's for a ReplayModule), and the
pass that traces a moved UE also traces at least its next move, more while
the pass has room (see TRACE_BATCH), into the rest of its queue. A move to the
next queued position drops the head; any other move is traced into a new
queue. Every SweepResult is bit-equal whichever batch traced it.
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
from .geometry import Scene, trace_path_arrays, trace_paths  # noqa: F401
from .mobility import (
    TrajectoryPlan,
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
        self._routes = {}  # UE_Id -> the states its moves step through; see _route

    def hold(self, ue_id: str, n_snapshots: int) -> None:
        """Keep a UE stationary for the next n snapshots."""
        self._hold[ue_id] = max(self._hold[ue_id], n_snapshots)

    def _route(self, ue_id: str, k: int) -> deque:
        """The UE's stepped route: the state it is in, then the states its next moves step
        to, stepped on to k of them unless the route ends first. A hold delays these moves
        and never changes them; a state set from outside starts a new route."""
        state = self.states[ue_id]
        route = self._routes.get(ue_id)
        if route is None or route[0] is not state:
            route = self._routes[ue_id] = deque((state,))
        while len(route) <= k and not route[-1].done:
            route.append(step_kinematics(route[-1], self.sampling_interval))
        return route

    def upcoming(self, ue_id: str, k: int) -> list:
        """The next k positions the UE publishes as it moves; fewer once its route ends.

        Each state of a route is stepped once, whether upcoming or step reaches it first,
        by this module's step_kinematics, so the span perfbench puts on that name (its
        mobility.step) counts every state once. Empty for a UE this module does not move.
        """
        if k <= 0 or ue_id not in self.states:
            return []
        return [state.position for state in islice(self._route(ue_id, k), 1, k + 1)]

    def route_complete(self, ue_id: str) -> bool:
        return self.states[ue_id].done

    def step(self, t: float, broker: Broker) -> None:
        for ue_id, state in self.states.items():
            if self._hold[ue_id] > 0:
                self._hold[ue_id] -= 1
            else:
                route = self._route(ue_id, 1)
                if len(route) > 1:  # else the route has ended
                    route.popleft()
                    state = self.states[ue_id] = route[0]
            text, doc = position_payload(state)
            broker.publish(orch.POSITIONS_TOPIC, text, publisher=ue_id, doc=doc)


class ReplayModule(orch.ModuleHandle):
    """Publishes UE positions replayed from a recorded episode log."""

    role = "replay"
    name = "3D"

    def __init__(self, records):
        self._frames = [rec.ue_states for rec in records]
        self._k = 0
        # each UE's moves: the positions it takes, a repeat (a hold) listed once, as
        # position_of reads them back; and per frame, each UE's index into its moves
        self._moves = {}
        self._at = []
        for frame in self._frames:
            at = {}
            for _, ue_id, pos in frame:
                moves = self._moves.setdefault(ue_id, [])
                pos = tuple(map(float, pos))
                if not moves or moves[-1] != pos:
                    moves.append(pos)
                at[ue_id] = len(moves) - 1
            self._at.append(at)

    def upcoming(self, ue_id: str, k: int) -> list:
        """The next k positions the UE moves to after the one last published, as the
        recording lists them; fewer once it ends, none for a UE the last frame lacks."""
        i = self._at[self._k - 1].get(ue_id) if self._k else None
        return [] if i is None else self._moves[ue_id][i + 1 : i + 1 + k]

    def step(self, t: float, broker: Broker) -> None:
        if self._k >= len(self._frames):
            raise RuntimeError("replay source exhausted: episode longer than recording")
        for ue_type, ue_id, pos in self._frames[self._k]:
            text, doc = position_text(ue_type, ue_id, *pos)
            broker.publish(orch.POSITIONS_TOPIC, text, publisher=ue_id, doc=doc)
        self._k += 1


# receivers one radio pass aims at: each of M moving UEs also has its next
# max(1, TRACE_BATCH // M - 1) moves traced (63 for a lone UE, five each for ten,
# one each from 22 on), so a pass holds at most max(TRACE_BATCH, 2M) receivers:
# ten UAVs trace 60 on every sixth snapshot. The tracer culls its image tree to
# each pass's receiver box, so a pass of 64 nearby receivers costs no more per
# receiver than one of 16, ten UAVs' 60 less than their 20, and the loop makes
# fewer passes (scripts/radio_pass_bench.py)
TRACE_BATCH = 64


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

    def __init__(self, scene: Scene, cfg: CommsConfig, sweep_hook=None):
        self.scene = scene
        self.cfg = cfg
        self.reports_throughput = True  # until a PolicyModule built on it takes the report
        self.sweep_hook = sweep_hook
        self.tx_codebook = dft_codebook(self.cfg.tx_upa)
        self.rx_codebook = dft_codebook(self.cfg.rx_upa)
        # the sweep's gains vector is this (n_rx, n_tx) grid flattened row-major
        self.pair_grid = (self.rx_codebook.n_codewords, self.tx_codebook.n_codewords)
        self.tx_rotation = boresight_rotation(scene.tx.azimuth_deg, scene.tx.downtilt_deg)
        self.rx_rotation = boresight_rotation(self.cfg.rx_azimuth_deg, self.cfg.rx_downtilt_deg)
        self.queues: dict = {}  # UE_Id -> deque of SweepResults; see current()
        self._sub = None

    def init(self, broker: Broker) -> tuple:
        self._sub = broker.subscribe(orch.POSITIONS_TOPIC)
        return (self._sub,)

    def _sweep(self, positions) -> list:
        """One SweepResult per position: one trace, one synthesis and one sweep for them all."""
        paths = trace_path_arrays(self.scene, positions, carrier_hz=self.cfg.carrier_hz)
        # a receiver without paths sums none: its zero channel sweeps to all-zero gains
        # and best pair 0, its outage
        counts = np.bincount(paths.rows, minlength=len(positions))
        channels = synthesize_channels(
            counts, paths.gains, paths.aod, paths.aoa,
            self.cfg.tx_upa, self.cfg.rx_upa, self.tx_rotation, self.rx_rotation,
        )
        best, gains = beam_sweep(channels, self.tx_codebook, self.rx_codebook)
        los = set(paths.rows[paths.kinds == 0].tolist())  # kind 0: no reflection, line of sight
        classes = ["LOS" if m in los else "NLOS" if n else "outage"
                   for m, n in enumerate(counts.tolist())]
        return list(map(SweepResult, positions, classes, best, gains))

    def current(self, ue_id: str) -> SweepResult:
        """The sweep of the UE's published position: the head of its queue, whose rest
        are the sweeps of its next moves, traced ahead."""
        return self.queues[ue_id][0]

    def _route_ahead(self, ue_id: str, k: int) -> list:
        """Up to k next positions of the UE as the episode's position source lists them,
        cut before the first one the tracer rejects (at or below the ground, or at the
        transmitter): a move not made yet must not abort the episode. Empty before
        run_episode links the module to its source."""
        if self.source is None:
            return []
        tx = self.scene.tx.position
        return list(takewhile(lambda p: p[2] > 0 and p != tx, self.source.upcoming(ue_id, k)))

    def _trace_moved(self, moved: dict) -> None:
        """Sweep every moved UE's position and its next moves in one pass, at least one
        each and more while the pass has room; each UE's sweeps become its new queue."""
        k = max(1, TRACE_BATCH // len(moved) - 1)
        routes = [[pos, *self._route_ahead(ue_id, k)] for ue_id, pos in moved.items()]
        results = iter(self._sweep([pos for route in routes for pos in route]))
        for ue_id, route in zip(moved, routes):
            self.queues[ue_id] = deque(islice(results, len(route)))

    def step(self, t: float, broker: Broker) -> None:
        docs = [msg.doc for msg in self._sub.drain()]
        moved = {}  # UE_Id -> new position, in message order
        for doc in docs:
            ue_id, pos = doc["UE_Id"], position_of(doc)
            queue = self.queues.get(ue_id, ())
            if queue and queue[0].position == pos:
                continue  # held
            if len(queue) > 1 and queue[1].position == pos:
                queue.popleft()  # took its queued next move
            else:
                moved[ue_id] = pos
        if moved:
            self._trace_moved(moved)
        for doc in docs:
            ue_id = doc["UE_Id"]
            result = self.queues[ue_id][0]
            text, pair_doc = pair_text(doc["UE_type"], ue_id, result.best_pair)
            broker.publish(orch.BEST_PAIR_TOPIC, text, publisher=self.name, doc=pair_doc)
            if self.sweep_hook is not None:
                self.sweep_hook(t, ue_id, result)
            if self.reports_throughput:
                self.report_throughput(doc, result.best_pair, broker)
        broker.publish(orch.READY_TOPIC, orch.READY_PAYLOAD, publisher=self.name)

    def report_throughput(self, doc: dict, pair: int, broker: Broker) -> float:
        """Throughput of the chosen pair for the UE of a position message, published."""
        tput = throughput_mbps(float(self.current(doc["UE_Id"]).gains[pair]), self.cfg)
        text, tput_doc = throughput_text(doc["UE_type"], doc["UE_Id"], tput)
        broker.publish(orch.THROUGHPUT_TOPIC, text, publisher=self.name, doc=tput_doc)
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
        comms.reports_throughput = False  # this module reports its chosen pair's instead
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
            grid = self.comms.current(ue_id).gains.reshape(self.comms.pair_grid)
            pair = policy_decide(self.policy, pos, grid, self.rng)
            text, pair_doc = pair_text(doc["UE_type"], ue_id, pair)
            broker.publish(orch.DECISION_TOPIC, text, publisher=self.name, doc=pair_doc)
            tput = self.comms.report_throughput(doc, pair, broker)
            self.on_throughput(t, broker, ue_id, pos, tput)

    def on_throughput(self, t: float, broker: Broker, ue_id: str, pos, tput: float) -> None:
        """Per-UE hook after the throughput report; subclasses add behaviour."""


def loop_modules(category: str, scene: Scene, comms_cfg: CommsConfig, source, ai=None,
                 sweep_hook=None) -> list:
    """A category's modules in registration order: the position source, communications
    and, when the category has an AI role, the module ai(comms) builds on it."""
    has_ai = "ai" in orch.category_wiring(category)
    if (ai is not None) != has_ai:
        raise ValueError(f"category {category} {'needs an' if has_ai else 'has no'} AI module")
    comms = CommsModule(scene, comms_cfg, sweep_hook=sweep_hook)
    return [source, comms] + ([ai(comms)] if has_ai else [])


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


DATASET_MAX_SNAPSHOTS = 2000  # the cap a dataset flight runs to, whatever its route


def generate_dataset_rows(
    scene: Scene,
    plan: TrajectoryPlan,
    comms_cfg: CommsConfig,
    sampling_interval: float = 0.5,
    max_snapshots: int = DATASET_MAX_SNAPSHOTS,
):
    """Fly one route in the dataset category and sweep every snapshot.

    Returns (position, los_class, best_pair, gains) tuples, outages skipped.
    """
    rows = []

    def hook(t, ue_id, result):
        if result.los != "outage":
            rows.append((result.position, result.los, result.best_pair, result.gains.copy()))

    mobility = MobilityModule({"uav0": plan}, sampling_interval)
    category = orch.MOB3D_COMM_IN_LOOP
    modules = loop_modules(category, scene, comms_cfg, mobility, sweep_hook=hook)
    cfg = orch.EpisodeConfig(
        n_snapshots=max_snapshots, sampling_interval=sampling_interval, category=category
    )
    orch.run_episode(cfg, modules, stop_early=lambda rec: mobility.route_complete("uav0"))
    return rows
