"""skycell: co-simulation kernel for UAV mmWave missions.

Modules: bus (pub/sub), orchestrator (discrete-time loop), geometry
(image-method tracer), phy (arrays / codebooks / sweep), mobility (waypoint
kinematics), ai (decision-tree beam selection), mission (search and rescue),
bench (real-time factor), cli (entry point).
"""

__version__ = "0.1.0"

from .bus import Broker, Message, Subscription, topic_matches
from .geometry import PathBundle, PropagationPath, Scene, los_class, trace_paths, trace_paths_batch
from .orchestrator import EpisodeConfig, EpisodeLog, SnapshotRecord, category_wiring, run_episode
from .phy import (
    CommsConfig,
    UpaConfig,
    beam_sweep,
    dft_codebook,
    pair_index,
    steering_from_direction,
)

__all__ = [
    "Broker",
    "Message",
    "Subscription",
    "topic_matches",
    "Scene",
    "PathBundle",
    "PropagationPath",
    "trace_paths",
    "trace_paths_batch",
    "los_class",
    "EpisodeConfig",
    "EpisodeLog",
    "SnapshotRecord",
    "category_wiring",
    "run_episode",
    "CommsConfig",
    "UpaConfig",
    "dft_codebook",
    "steering_from_direction",
    "beam_sweep",
    "pair_index",
    "__version__",
]
