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
DEGRADATION_CEILING_MBPS = DEGRADATION_TIERS[0].hi_mbps


def degradation(throughput: float) -> DegradationTier:
    """Tier lookup for a throughput in Mbps; out-of-range values clamp."""
    top = DEGRADATION_CEILING_MBPS
    if throughput < 0.0 or throughput > top:
        logger.warning("throughput %.3f outside [0, %g] Mbps; clamping", throughput, top)
        throughput = min(top, max(0.0, throughput))
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
    fixed_wait: bool = True
    max_snapshots: int = 100_000

    def __post_init__(self):
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.n_targets < 0:
            raise ValueError("n_targets must be >= 0")
        if not self.detection_radius_m >= 0:
            raise ValueError(
                f"mission.detection_radius_m must be >= 0, got {self.detection_radius_m}"
            )
        n = len(self.target_fractions)
        if self.n_targets > n:
            raise ValueError(f"n_targets {self.n_targets} exceeds the {n} target_fractions")
        if not all(0.0 <= f <= 1.0 for f in self.target_fractions):
            raise ValueError(f"target_fractions must lie in [0, 1], got {self.target_fractions}")

    def target_positions(self, plan: TrajectoryPlan) -> list:
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
    """Policy module plus detection, rescue pauses and outcomes for its mobility's one UE."""

    def __init__(
        self,
        policy: Policy,
        comms: CommsModule,
        mobility: MobilityModule,
        mission_cfg: MissionConfig,
        targets,
        rng,
    ):
        super().__init__(policy, comms, rng)
        if len(mobility.states) != 1:
            raise ValueError(f"a mission follows one UE; its mobility has {len(mobility.states)}")
        (self.ue_id,) = mobility.states
        self.mobility = mobility
        self.cfg = mission_cfg
        # outcome: pending|rescued|missed; t: when it stopped being pending
        self.outcomes = [
            {"target": i, "position": list(target), "outcome": "pending", "t": None}
            for i, target in enumerate(targets)
        ]
        self._pause_left = 0  # fixed wait: snapshots still held
        self._remaining_bits = 0.0  # adaptive wait: held while bits remain
        self._await_rate = False
        self.finished = False

    def _event(self, broker: Broker, tag: str) -> None:
        broker.publish(EVENTS_TOPIC, tag, publisher=self.name)

    def _begin_pause(self, broker: Broker, tput: float) -> None:
        if not self.cfg.fixed_wait:  # re-evaluated every snapshot
            self._remaining_bits = 8.0 * self.cfg.payload_bytes
            self.mobility.hold(self.ue_id, 1)
            return
        try:
            wait = rescue_wait_s(self.cfg.payload_bytes, tput)
        except RescueStalled:
            self._await_rate = True
            self._event(broker, "stalled")
            self.mobility.hold(self.ue_id, 1)
            return
        self._await_rate = False
        self._pause_left = math.ceil(wait / self.mobility.sampling_interval)
        self.mobility.hold(self.ue_id, self._pause_left)

    def on_throughput(self, t: float, broker: Broker, ue_id: str, pos, tput: float) -> None:
        """Detection and rescue-pause state machine for the mission's own UE."""
        if ue_id != self.ue_id:
            return
        tier = degradation(tput)
        if self._await_rate:
            # a detection is waiting for a non-zero rate to start the upload
            self._begin_pause(broker, tput)
        elif self._pause_left > 0:
            self._pause_left -= 1
        elif self._remaining_bits > 0:
            self._remaining_bits -= tput * 1e6 * self.mobility.sampling_interval
            if self._remaining_bits > 0:
                self.mobility.hold(self.ue_id, 1)
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
            and self._remaining_bits <= 0
            and not self._await_rate
        ):
            for o in self.outcomes:
                if o["outcome"] == "pending":
                    o["outcome"], o["t"] = "missed", t
                    self._event(broker, f"missed:{o['target']}")
            if not self.finished:
                self._event(broker, "mission_complete")
            self.finished = True

    def _check_targets(self, broker: Broker, t: float, pos, tier, tput: float) -> None:
        for o in self.outcomes:
            if o["outcome"] != "pending":
                continue
            target = o["position"]
            dist = math.hypot(pos[0] - target[0], pos[1] - target[1])
            inside = dist <= self.cfg.detection_radius_m
            usable = tput >= self.cfg.min_detect_throughput_mbps
            if inside and usable and tier.psnr_db >= self.cfg.psnr_detect_threshold_db:
                o["outcome"], o["t"] = "rescued", t
                self._event(broker, f"detected:{o['target']}")
                self._event(broker, f"rescued:{o['target']}")
                self._begin_pause(broker, tput)
                return  # at most one rescue starts per snapshot

    def metrics(self, total_time_s: float) -> MissionMetrics:
        return MissionMetrics(
            total_time_s=total_time_s,
            rescued=sum(o["outcome"] == "rescued" for o in self.outcomes),
            n_targets=len(self.outcomes),
            policy_kind=self.policy.kind,
            outcomes=[dict(o) for o in self.outcomes],
        )


def run_mission(
    scene: Scene,
    trajectory: TrajectoryPlan,
    mission_cfg: MissionConfig,
    episode_cfg: orch.EpisodeConfig,
    comms_cfg: CommsConfig,
    policy: Policy,
    rng,
):
    """Fly the rescue mission all-in-loop; returns (metrics, episode log)."""
    if comms_cfg.max_throughput_mbps > DEGRADATION_CEILING_MBPS:
        raise ValueError(
            f"comms.max_throughput_mbps {comms_cfg.max_throughput_mbps:g} is above the "
            f"{DEGRADATION_CEILING_MBPS:g} Mbps the degradation table grades"
        )
    mobility = MobilityModule({"uav0": trajectory}, episode_cfg.sampling_interval)
    comms = CommsModule(scene, comms_cfg, mobility=mobility)
    mission = MissionModule(
        policy,
        comms,
        mobility,
        mission_cfg,
        mission_cfg.target_positions(trajectory),
        rng,
    )
    log = orch.run_episode(
        episode_cfg,
        [mobility, comms, mission],
        stop_early=lambda rec: mission.finished,
    )
    total_time = len(log.records) * episode_cfg.sampling_interval
    return mission.metrics(total_time), log
