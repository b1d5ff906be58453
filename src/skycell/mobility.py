"""Waypoint-following UAV kinematics and the UE position topic.

Motion is constant-speed piecewise-linear along a waypoint route; no flight
dynamics. Positions go out as JSON on "3D.mobility.positions" with the
UE_type / UE_Id / position keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bus import position_text

UE_TYPES = ("UAV", "CAR", "PERSON")


@dataclass(frozen=True)
class UeState:
    ue_type: str
    ue_id: str
    position: tuple
    speed: float
    waypoints: tuple = ()

    def __post_init__(self):
        if self.ue_type not in UE_TYPES:
            raise ValueError(f"ue_type must be one of {UE_TYPES}, got {self.ue_type!r}")

    @property
    def done(self) -> bool:
        return not self.waypoints


@dataclass(frozen=True)
class TrajectoryPlan:
    start: tuple
    end: tuple
    waypoints: tuple = ()  # intermediate points, in visit order
    speed_mps: float = 5.0

    def __post_init__(self):
        if not 0 < self.speed_mps < math.inf:
            raise ValueError(f"route speed_mps must be > 0 and finite, got {self.speed_mps}")

    @property
    def points(self) -> tuple:
        return (self.start,) + tuple(self.waypoints) + (self.end,)

    @property
    def total_length(self) -> float:
        pts = np.asarray(self.points, dtype=float)
        return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())

    def arc_point(self, fraction: float) -> tuple:
        """Point at the given fraction of total arc length along the route."""
        pts = np.asarray(self.points, dtype=float)
        segs = np.diff(pts, axis=0)
        seg_len = np.linalg.norm(segs, axis=1)
        target = np.clip(fraction, 0.0, 1.0) * seg_len.sum()
        for p, d, ln in zip(pts[:-1], segs, seg_len):
            if target <= ln and ln > 0:
                return tuple(p + (target / ln) * d)
            target -= ln
        return tuple(pts[-1])


@dataclass(frozen=True)
class Corridor:
    """Axis-aligned region around the A->B route where waypoints may fall.

    Expansion by half_width applies laterally: axes the route barely spans
    widen by half_width, while the along-route axis keeps the A..B extent so
    waypoints never fall behind the start or beyond the end.
    """

    start: tuple
    end: tuple
    half_width: float = 30.0

    def bounds(self):
        a = np.asarray(self.start, dtype=float)
        b = np.asarray(self.end, dtype=float)
        lo = np.minimum(a[:2], b[:2])
        hi = np.maximum(a[:2], b[:2])
        lateral = (hi - lo) < self.half_width
        lo = np.where(lateral, lo - self.half_width, lo)
        hi = np.where(lateral, hi + self.half_width, hi)
        if not (hi > lo).all():
            raise ValueError("corridor has empty area")
        return lo, hi


def uav_state(ue_id: str, plan: TrajectoryPlan) -> UeState:
    """Initial UAV state at the route start with the full waypoint queue."""
    return UeState(
        ue_type="UAV",
        ue_id=ue_id,
        position=tuple(plan.start),
        speed=plan.speed_mps,
        waypoints=tuple(plan.waypoints) + (tuple(plan.end),),
    )


def step_kinematics(state: UeState, dt: float) -> UeState:
    """Advance along the remaining route by speed*dt, never overshooting."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not state.waypoints or state.speed == 0:
        return state
    remaining = state.speed * dt
    if not remaining < math.inf:  # NaN fails this too
        raise ValueError(f"a step must be finite, got speed {state.speed} over dt {dt}")
    x, y, z = map(float, state.position)
    waypoints = list(state.waypoints)
    while remaining > 0 and waypoints:
        wx, wy, wz = map(float, waypoints[0])
        dx, dy, dz = wx - x, wy - y, wz - z
        leg = np.array((dx, dy, dz))
        dist = math.sqrt(leg.dot(leg))  # np.linalg.norm's own arithmetic
        if dist <= remaining:
            x, y, z = wx, wy, wz
            waypoints.pop(0)
            remaining -= dist
        else:
            f = remaining / dist  # float arithmetic has the bits of numpy's pos + leg * f
            x, y, z = x + dx * f, y + dy * f, z + dz * f
            remaining = 0.0
    speed = state.speed if waypoints else 0.0
    return UeState(state.ue_type, state.ue_id, (x, y, z), speed, tuple(waypoints))


def position_payload(state: UeState) -> tuple:
    """The state's position message: its text and the doc the text encodes."""
    return position_text(state.ue_type, state.ue_id, *state.position)


def position_of(doc: dict) -> tuple:
    """The (x, y, z) floats of a decoded position message."""
    p = doc["position"]
    return (float(p["x"]), float(p["y"]), float(p["z"]))


def random_waypoints(seed: int, corridor: Corridor, k: int = 5) -> TrajectoryPlan:
    """Deterministic plan with k intermediate waypoints uniform in the corridor.

    Waypoints keep the route's altitude and are ordered by progress along
    the A->B axis so the flight always advances toward B.
    """
    if k < 1:
        raise ValueError("need at least one waypoint")
    lo, hi = corridor.bounds()
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(k, 2))
    a = np.asarray(corridor.start, dtype=float)
    b = np.asarray(corridor.end, dtype=float)
    axis = b[:2] - a[:2]
    order = np.argsort(pts @ axis, kind="stable")
    z = corridor.start[2]
    waypoints = tuple((float(p[0]), float(p[1]), z) for p in pts[order])
    return TrajectoryPlan(start=tuple(corridor.start), end=tuple(corridor.end), waypoints=waypoints)
