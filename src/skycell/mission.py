"""Search-and-rescue mission: link-gated detection, rescue pauses and metrics.

A UAV flies its route; targets near the route become detectable when the
drone is within the detection radius AND the current throughput tier keeps
image quality (PSNR) above the detection threshold. Each detection pauses
the flight for the time needed to upload the evidence payload at the
throughput seen at detection.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import orchestrator as orch
from .ai import Policy
from .blueprint import CommsModule, MobilityModule, PolicyModule
from .bus import Broker
from .geometry import Scene
from .mobility import TrajectoryPlan
from .phy import CommsConfig

logger = logging.getLogger(__name__)

EVENTS_TOPIC = "ai.events"


@dataclass(frozen=True)
class DegradationTier:
    lo_mbps: float  # exclusive lower bound (inclusive for the bottom tier)
    hi_mbps: float  # inclusive upper bound
    packet_loss_percent: float
    psnr_db: float


# throughput tiers partition [0, 90] Mbps
DEGRADATION_TIERS = (
    DegradationTier(60.0, 90.0, 1.0, 26.36),
    DegradationTier(30.0, 60.0, 25.0, 12.39),
    DegradationTier(0.0, 30.0, 50.0, 9.37),
)


def degradation(throughput: float) -> DegradationTier:
    """Tier lookup for a throughput in Mbps; out-of-range values clamp."""
    if throughput < 0.0 or throughput > 90.0:
        logger.warning("throughput %.3f outside [0, 90] Mbps; clamping", throughput)
        throughput = min(90.0, max(0.0, throughput))
    for tier in DEGRADATION_TIERS[:-1]:
        if throughput > tier.lo_mbps:
            return tier
    return DEGRADATION_TIERS[-1]


class RescueStalled(Exception):
    """Throughput is zero; the transfer cannot start this snapshot."""


def rescue_wait_s(payload_bytes: float, throughput_mbps: float) -> float:
    """Seconds to push the payload at the given rate: 8*B / (T*1e6)."""
    if throughput_mbps < 0:
        raise ValueError("throughput must be non-negative")
    if throughput_mbps == 0:
        raise RescueStalled("zero throughput; retrying next snapshot")
    return 8.0 * payload_bytes / (throughput_mbps * 1e6)


def estimate_rescue_curve(payload_bytes: float, throughput_grid) -> list:
    """(throughput, wait) samples of the hyperbolic rescue-time curve."""
    out = []
    for t in throughput_grid:
        if t <= 0:
            raise ValueError("throughput grid must be positive")
        out.append((float(t), rescue_wait_s(payload_bytes, float(t))))
    return out


# ---------------------------------------------------------------------------
# image degradation pipeline
# ---------------------------------------------------------------------------

BLOCK = 16


def simulate_image_loss(image: np.ndarray, loss_percent: float, seed: int) -> np.ndarray:
    """Drop 16x16 blocks ("packets") independently with probability loss/100."""
    if not 0.0 <= loss_percent <= 100.0:
        raise ValueError("loss_percent must be in [0, 100]")
    img = np.asarray(image)
    if img.ndim != 2 or img.shape[0] % BLOCK or img.shape[1] % BLOCK:
        raise ValueError(f"image dimensions must be multiples of {BLOCK}")
    rows, cols = img.shape[0] // BLOCK, img.shape[1] // BLOCK
    drop = np.random.default_rng(seed).random((rows, cols)) < loss_percent / 100.0
    out = img.copy()
    mask = np.kron(drop, np.ones((BLOCK, BLOCK), dtype=bool))
    out[mask] = 0
    return out


def psnr_db(original: np.ndarray, received: np.ndarray) -> float:
    """10*log10(255^2 / MSE); infinite when the images are identical."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(received, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("image shapes differ")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def default_test_image(size: int = 256) -> np.ndarray:
    """Deterministic gradient-plus-shapes grayscale test card.

    Pixel energy is tuned so that dropping a fraction f of its blocks lands
    the PSNR near the degradation table (26.36 / 12.39 / 9.37 dB at
    1% / 25% / 50% loss).
    """
    x = np.linspace(35.0, 195.0, size)[None, :]
    y = np.linspace(0.0, 30.0, size)[:, None]
    img = np.broadcast_to(x, (size, size)) + y
    img = img.copy()
    # bright panel, dark disc, mid-gray cross
    img[32:96, 160:240] = 225.0
    yy, xx = np.mgrid[0:size, 0:size]
    img[(yy - 180) ** 2 + (xx - 70) ** 2 < 40**2] = 20.0
    img[120:136, :] = 128.0
    img[:, 120:136] = 128.0
    target_ms = 255.0**2 / (0.5 * 10.0 ** (9.37 / 10.0))
    img *= math.sqrt(target_ms / float(np.mean(img**2)))
    return np.clip(np.round(img), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# mission state machine
# ---------------------------------------------------------------------------


@dataclass
class MissionConfig:
    payload_bytes: float = 4e7
    n_targets: int = 5
    detection_radius_m: float = 20.0
    # 9 dB admits every degradation tier; >= 12.39 restricts detection to the
    # top two tiers and makes random-policy misses emerge from bad links
    psnr_detect_threshold_db: float = 9.0
    # below this rate no image reaches the detector within a snapshot
    min_detect_throughput_mbps: float = 1.0
    target_fractions: tuple = (0.15, 0.35, 0.55, 0.75, 0.90)
    targets: tuple | None = None  # explicit (x, y, z); overrides fractions
    fixed_wait: bool = True
    max_snapshots: int = 100_000

    def __post_init__(self):
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.n_targets < 0:
            raise ValueError("n_targets must be >= 0")

    def target_positions(self, plan: TrajectoryPlan) -> list:
        if self.targets is not None:
            return [tuple(t) for t in self.targets][: self.n_targets]
        pts = [plan.arc_point(f) for f in self.target_fractions[: self.n_targets]]
        return [(p[0], p[1], 0.0) for p in pts]


@dataclass
class MissionMetrics:
    total_time_s: float
    rescued: int
    n_targets: int
    policy_kind: str
    outcomes: list = field(default_factory=list)  # per-target dicts

    def to_dict(self) -> dict:
        return {
            "total_time_s": self.total_time_s,
            "rescued": self.rescued,
            "n_targets": self.n_targets,
            "policy": self.policy_kind,
            "outcomes": self.outcomes,
        }


class MissionModule(PolicyModule):
    """Policy module plus target detection, rescue pauses and outcome log."""

    name = "ai"

    def __init__(
        self,
        policy: Policy,
        comms: CommsModule,
        mobility: MobilityModule,
        mission_cfg: MissionConfig,
        targets,
        sampling_interval: float,
        rng,
        ue_id: str = "uav0",
    ):
        super().__init__(policy, comms, rng)
        self.mobility = mobility
        self.cfg = mission_cfg
        self.ue_id = ue_id
        self.sampling_interval = sampling_interval
        self.targets = list(targets)
        self.state = ["pending"] * len(self.targets)  # pending|rescued|missed
        self.outcome_t = [None] * len(self.targets)
        self._pause_left = 0
        self._await_rate = False
        self._remaining_bits = 0.0
        self.finished = False

    @property
    def rescued_count(self) -> int:
        return sum(1 for s in self.state if s == "rescued")

    def _event(self, broker: Broker, tag: str) -> None:
        broker.publish(EVENTS_TOPIC, tag, publisher=self.name)

    def _begin_pause(self, broker: Broker, t: float, tput: float) -> None:
        if self.cfg.fixed_wait:
            try:
                wait = rescue_wait_s(self.cfg.payload_bytes, tput)
            except RescueStalled:
                self._await_rate = True
                self._event(broker, "stalled")
                self.mobility.hold(self.ue_id, 1)
                return
            self._await_rate = False
            self._pause_left = math.ceil(wait / self.sampling_interval)
            self.mobility.hold(self.ue_id, self._pause_left)
        else:
            self._remaining_bits = 8.0 * self.cfg.payload_bytes
            self._pause_left = 1  # adaptive: re-evaluated every snapshot
            self.mobility.hold(self.ue_id, 1)

    def on_throughput(self, t: float, broker: Broker, ue_id: str, pos, tput: float) -> None:
        """Detection and rescue-pause state machine for the mission's own UE."""
        if ue_id != self.ue_id:
            return
        tier = degradation(tput)
        if self._await_rate:
            # a detection is waiting for a non-zero rate to start the upload
            self._begin_pause(broker, t, tput)
        elif self._pause_left > 0:
            if self.cfg.fixed_wait:
                self._pause_left -= 1
            else:
                self._remaining_bits -= tput * 1e6 * self.sampling_interval
                if self._remaining_bits > 0:
                    self.mobility.hold(self.ue_id, 1)
                else:
                    self._pause_left = 0
        else:
            self._check_targets(broker, t, pos, tier, tput)

    def step(self, t: float, broker: Broker) -> None:
        """The policy step, then the end-of-route check.

        Defined here rather than inherited so that perfbench's span recorder,
        which wraps MissionModule.step by name, sees the mission layer.
        """
        super().step(t, broker)
        if (
            self.mobility.route_complete(self.ue_id)
            and self._pause_left == 0
            and not self._await_rate
        ):
            for i, s in enumerate(self.state):
                if s == "pending":
                    self.state[i] = "missed"
                    self.outcome_t[i] = t
                    self._event(broker, f"missed:{i}")
            if not self.finished:
                self._event(broker, "mission_complete")
            self.finished = True

    def _check_targets(self, broker: Broker, t: float, pos, tier, tput: float) -> None:
        for i, target in enumerate(self.targets):
            if self.state[i] != "pending":
                continue
            dist = math.hypot(pos[0] - target[0], pos[1] - target[1])
            inside = dist <= self.cfg.detection_radius_m
            usable = tput >= self.cfg.min_detect_throughput_mbps
            if inside and usable and tier.psnr_db >= self.cfg.psnr_detect_threshold_db:
                self.state[i] = "rescued"
                self.outcome_t[i] = t
                self._event(broker, f"detected:{i}")
                self._event(broker, f"rescued:{i}")
                self._begin_pause(broker, t, tput)
                return  # at most one rescue starts per snapshot

    def metrics(self, total_time_s: float) -> MissionMetrics:
        outcomes = [
            {"target": i, "position": list(self.targets[i]), "outcome": s, "t": self.outcome_t[i]}
            for i, s in enumerate(self.state)
        ]
        return MissionMetrics(
            total_time_s=total_time_s,
            rescued=self.rescued_count,
            n_targets=len(self.targets),
            policy_kind=self.policy.kind,
            outcomes=outcomes,
        )


def run_mission(
    scene: Scene,
    trajectory: TrajectoryPlan,
    mission_cfg: MissionConfig,
    episode_cfg: orch.EpisodeConfig,
    broker: Broker | None = None,
    policy: Policy | None = None,
    comms_cfg: CommsConfig | None = None,
    rng=None,
):
    """Fly the rescue mission all-in-loop; returns (metrics, episode log)."""
    if episode_cfg.category != orch.ALL_IN_LOOP:
        raise ValueError("run_mission requires the AllInLoop category")
    policy = policy or Policy(kind="oracle")
    rng = rng if rng is not None else np.random.default_rng(episode_cfg.seed)
    mobility = MobilityModule({"uav0": trajectory}, episode_cfg.sampling_interval)
    comms = CommsModule(scene, comms_cfg or CommsConfig())
    mission = MissionModule(
        policy,
        comms,
        mobility,
        mission_cfg,
        mission_cfg.target_positions(trajectory),
        episode_cfg.sampling_interval,
        rng,
    )
    log = orch.run_episode(
        episode_cfg,
        [mobility, comms, mission],
        broker=broker,
        stop_early=lambda rec: mission.finished,
    )
    total_time = len(log.records) * episode_cfg.sampling_interval
    return mission.metrics(total_time), log
