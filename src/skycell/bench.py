"""Real-time-factor benchmark: wall-clock cost of a fixed virtual duration.

Runs the blueprint loop for 60 virtual seconds with 1..n UAV receivers and
no rescue pauses, recording wall-clock and per-module step time. The counts
are interleaved: every repetition runs each count once, in turn. A first,
discarded warm-up round also absorbs the one-off image-tree build, so the
reported median and minimum are steady state.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass

import numpy as np

from . import orchestrator as orch
from .ai import Policy
from .blueprint import CommsModule, MobilityModule, PolicyModule, offset_plan
from .geometry import Scene
from .mobility import TrajectoryPlan
from .phy import CommsConfig

CSV_FIELDS = ("n_uavs", "Tp_s", "Tv_s", "rtf", "t_mobility_s", "t_comms_s", "t_ai_s")


def rtf(tp_s: float, tv_s: float) -> float:
    """Real-time factor: wall-clock seconds per virtual second."""
    if tv_s <= 0:
        raise ValueError("virtual duration must be positive")
    return tp_s / tv_s


@dataclass
class TimingReport:
    n_uavs: int
    n_snapshots: int
    tp_s: float
    tv_s: float
    t_mobility_s: float
    t_comms_s: float
    t_ai_s: float
    tp_min_s: float = float("nan")
    error: str | None = None

    @property
    def rtf(self) -> float:
        return rtf(self.tp_s, self.tv_s)

    def to_dict(self) -> dict:
        return {
            "n_uavs": self.n_uavs,
            "n_snapshots": self.n_snapshots,
            "Tp_s": self.tp_s,
            "Tp_min_s": self.tp_min_s,
            "Tv_s": self.tv_s,
            "rtf": self.rtf,
            "t_mobility_s": self.t_mobility_s,
            "t_comms_s": self.t_comms_s,
            "t_ai_s": self.t_ai_s,
            "error": self.error,
        }


def run_benchmark(
    scene: Scene,
    uav_counts,
    base_plan: TrajectoryPlan,
    comms_cfg: CommsConfig,
    virtual_seconds: float = 60.0,
    sampling_interval: float = 0.5,
    repetitions: int = 3,
    seed: int = 0,
) -> list:
    """One report per UAV count; Tp is the median of `repetitions` timed runs.

    One more round of every count runs first, and its timings are discarded.
    A count whose episode aborts is reported with its error and not run again.
    """
    if not uav_counts:
        raise ValueError("uav_counts must be non-empty")
    n_snapshots = int(round(virtual_seconds / sampling_interval))
    if abs(n_snapshots * sampling_interval - virtual_seconds) > 1e-12:
        raise ValueError("virtual_seconds must be a multiple of the sampling interval")
    # each repetition runs every count in turn, so drift in host speed over
    # the run hits all counts alike; repetition 0 is the discarded warm-up
    samples = [([], [], [], []) for _ in uav_counts]  # tp, t_mobility, t_comms, t_ai
    errors = [None] * len(uav_counts)
    for rep in range(repetitions + 1):
        for k, count in enumerate(uav_counts):
            if errors[k] is not None:
                continue
            plans = {
                f"uav{i}": offset_plan(base_plan, 3.0 * (i - (count - 1) / 2.0))
                for i in range(count)
            }
            mobility = MobilityModule(plans, sampling_interval)
            comms = CommsModule(scene, comms_cfg, mobility=mobility)
            ai_mod = PolicyModule(
                Policy(kind="random"), comms, np.random.default_rng((seed, count, rep))
            )
            cfg = orch.EpisodeConfig(
                n_snapshots=n_snapshots,
                sampling_interval=sampling_interval,
                category=orch.ALL_IN_LOOP,
                seed=seed,
            )
            try:
                log = orch.run_episode(cfg, [mobility, comms, ai_mod])
            except orch.EpisodeAbort as exc:
                errors[k] = str(exc)
                continue
            if rep == 0:
                continue  # warm-up
            tp, tm, tc, ta = samples[k]
            tp.append(log.wall_clock_s)
            tm.append(log.timings["3D"])
            tc.append(log.timings["communications"])
            ta.append(log.timings["ai"])
    reports = []
    for count, (tp, tm, tc, ta), error in zip(uav_counts, samples, errors):
        if error is not None:
            reports.append(
                TimingReport(count, n_snapshots, float("nan"), n_snapshots * sampling_interval,
                             float("nan"), float("nan"), float("nan"), error=error)
            )
            continue
        reports.append(
            TimingReport(
                n_uavs=count,
                n_snapshots=n_snapshots,
                tp_s=statistics.median(tp),
                tv_s=n_snapshots * sampling_interval,
                t_mobility_s=statistics.median(tm),
                t_comms_s=statistics.median(tc),
                t_ai_s=statistics.median(ta),
                tp_min_s=min(tp),
            )
        )
    return reports


def write_csv(reports, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for r in reports:
            d = r.to_dict()
            writer.writerow([d[k] for k in CSV_FIELDS])


def write_json(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)
