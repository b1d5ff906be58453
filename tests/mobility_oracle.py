"""Frozen reference: the waypoint kinematics step as first written.

Test-only. It measures each leg with ``np.linalg.norm`` and builds the new
state with ``dataclasses.replace``, keeping numpy floats in the position.
``skycell.mobility.step_kinematics`` must give the same state and the same
position text for every input.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from skycell.mobility import UeState


def step_kinematics(state: UeState, dt: float) -> UeState:
    """Advance along the remaining route by speed*dt, never overshooting."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not state.waypoints or state.speed == 0:
        return state
    pos = np.asarray(state.position, dtype=float)
    remaining = state.speed * dt
    waypoints = list(state.waypoints)
    while remaining > 0 and waypoints:
        target = np.asarray(waypoints[0], dtype=float)
        leg = target - pos
        dist = float(np.linalg.norm(leg))
        if dist <= remaining:
            pos = target
            waypoints.pop(0)
            remaining -= dist
        else:
            pos = pos + leg * (remaining / dist)
            remaining = 0.0
    speed = state.speed if waypoints else 0.0
    return replace(state, position=tuple(pos), waypoints=tuple(waypoints), speed=speed)
