import json
import math

import mobility_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skycell import orchestrator as orch
from skycell.blueprint import MobilityModule
from skycell.bus import Broker
from skycell.mobility import (
    Corridor,
    TrajectoryPlan,
    UeState,
    position_payload,
    random_waypoints,
    step_kinematics,
    uav_state,
)


def straight_plan(length=331.0, speed=5.0):
    return TrajectoryPlan(start=(0.0, 0.0, 40.0), end=(length, 0.0, 40.0), speed_mps=speed)


def test_step_moves_speed_times_dt():
    state = uav_state("uav0", straight_plan())
    moved = step_kinematics(state, 0.5)
    assert moved.position == pytest.approx((2.5, 0.0, 40.0))


def test_step_clamps_at_route_end():
    state = UeState("UAV", "uav0", (330.0, 0.0, 40.0), 5.0, waypoints=((331.0, 0.0, 40.0),))
    moved = step_kinematics(state, 0.5)
    assert moved.position == pytest.approx((331.0, 0.0, 40.0))
    assert moved.speed == 0.0
    assert moved.done


def test_route_completes_in_133_snapshots():
    state = uav_state("uav0", straight_plan(331.0, 5.0))
    steps = 0
    while not state.done:
        state = step_kinematics(state, 0.5)
        steps += 1
    assert steps == math.ceil(331.0 / 2.5) == 133


def _fly(mobility, n_snapshots, dt=0.5):
    """Step a mobility module n times; the position payloads it published."""
    broker = Broker()
    sub = broker.subscribe(orch.POSITIONS_TOPIC)
    for k in range(n_snapshots):
        mobility.step(k * dt, broker)
    return [m.payload for m in sub.drain()]


def test_pause_holds_position_until_deadline():
    mobility = MobilityModule({"uav0": straight_plan()}, 0.5)
    mobility.hold("uav0", 4)
    positions = [json.loads(p)["position"] for p in _fly(mobility, 6)]
    # held at t=0,0.5,1.0,1.5; moves from t=2.0
    assert positions[0] == positions[1] == positions[2] == positions[3]
    assert positions[0] == {"x": 0.0, "y": 0.0, "z": 40.0}
    assert positions[4] == {"x": 2.5, "y": 0.0, "z": 40.0}
    assert positions[5] == {"x": 5.0, "y": 0.0, "z": 40.0}


def test_consecutive_published_positions_identical_while_paused():
    mobility = MobilityModule({"uav0": straight_plan()}, 0.5)
    mobility.hold("uav0", 20)
    mobility.hold("uav0", 1)  # a shorter hold never cuts a longer one short
    payloads = _fly(mobility, 3)
    assert payloads[0] == payloads[1] == payloads[2]
    assert payloads[0] == position_payload(uav_state("uav0", straight_plan()))[0]


def test_position_payload_wire_shape():
    state = UeState("UAV", "uav0", (0.0, 0.0, 0.0), 5.0)
    text, doc = position_payload(state)
    assert doc == {"UE_type": "UAV", "UE_Id": "uav0", "position": {"x": 0.0, "y": 0.0, "z": 0.0}}
    assert json.loads(text) == doc


def test_payload_round_trip():
    state = UeState("CAR", "car3", (12.5, -3.25, 0.5), 10.0)
    doc = json.loads(position_payload(state)[0])
    assert (doc["UE_type"], doc["UE_Id"]) == ("CAR", "car3")
    assert (doc["position"]["x"], doc["position"]["y"], doc["position"]["z"]) == state.position


_coord = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**9, 10**9))


@given(position=st.tuples(_coord, _coord, _coord), ue_id=st.text(max_size=8))
def test_position_payload_is_a_fresh_encoding(position, ue_id):
    """A state's position text is json.dumps of a fresh doc, -0.0 and integers included,
    and its doc is that doc."""
    state = UeState("CAR", ue_id, position, 1.0)
    x, y, z = position
    fresh = {"UE_type": "CAR", "UE_Id": ue_id, "position": {"x": x, "y": y, "z": z}}
    assert position_payload(state) == (json.dumps(fresh), fresh)


@pytest.mark.parametrize("a, b", [((0.0, 325.0, 40.0), (-0.0, 325.0, 40.0)),
                                  ((190.0, 325, 40.0), (190.0, 325.0, 40.0))])
def test_equal_states_keep_their_own_texts(a, b):
    """0.0 == -0.0 and 325 == 325.0 compare and hash alike, but each state says its own."""
    first, second = UeState("UAV", "uav0", a, 5.0), UeState("UAV", "uav0", b, 5.0)
    assert first == second and hash(first) == hash(second)
    assert position_payload(first)[0] != position_payload(second)[0]
    for state in (first, second):
        assert position_payload(state)[0] == json.dumps(
            {"UE_type": "UAV", "UE_Id": "uav0", "position": dict(zip("xyz", state.position))})


@pytest.mark.parametrize("speed", [0.0, -5.0, float("nan")])
def test_plan_rejects_a_speed_that_is_not_positive(speed):
    with pytest.raises(ValueError, match="speed_mps must be > 0"):
        straight_plan(speed=speed)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_step_that_is_not_finite_is_refused(bad):
    """A NaN step would leave the UE unmoved and an infinite one jump it to the route's
    end; an interval or a speed that makes one is refused, as a zero interval is."""
    with pytest.raises(ValueError, match=f"dt must be finite and > 0, got {bad}"):
        step_kinematics(uav_state("uav0", straight_plan()), bad)
    with pytest.raises(ValueError, match=f"sampling_interval must be finite and > 0, got {bad}"):
        orch.EpisodeConfig(n_snapshots=3, sampling_interval=bad)
    with pytest.raises(ValueError, match=f"speed_mps must be > 0 and finite, got {bad}"):
        straight_plan(speed=bad)
    state = UeState("UAV", "uav0", (0.0, 0.0, 40.0), bad, ((10.0, 0.0, 40.0),))
    with pytest.raises(ValueError, match=f"a step must be finite, got speed {bad} over dt 0.5"):
        step_kinematics(state, 0.5)


@pytest.mark.parametrize("where", ["start", "waypoint", "end"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plan_rejects_a_point_that_is_not_finite(where, bad):
    """A route point that is not finite would put the UE at NaN on its first step; the
    plan refuses it and names the point."""
    points = {"start": [200.0, 325.0, 40.0], "waypoint": [250.0, 325.0, 40.0],
              "end": [300.0, 325.0, 40.0]}
    points[where][{"start": 0, "waypoint": 1, "end": 2}[where]] = bad
    with pytest.raises(ValueError, match=r"route point must be finite, got \(") as err:
        TrajectoryPlan(start=tuple(points["start"]), end=tuple(points["end"]),
                       waypoints=(tuple(points["waypoint"]),))
    assert repr(bad) in str(err.value)


def test_two_uavs_publish_distinct_messages():
    plan = straight_plan()
    mobility = MobilityModule({"uav0": plan, "uav1": plan}, 0.5)
    mobility.hold("uav1", 1)
    docs = [json.loads(p) for p in _fly(mobility, 1)]
    assert [doc["UE_Id"] for doc in docs] == ["uav0", "uav1"]
    assert docs[0]["position"] != docs[1]["position"]


def test_ue_type_restricted():
    with pytest.raises(ValueError):
        UeState("DRONE", "x", (0, 0, 0), 1.0)


def test_random_waypoints_deterministic_and_contained():
    corridor = Corridor(start=(190.0, 325.0, 40.0), end=(521.0, 325.0, 40.0), half_width=30.0)
    a = random_waypoints(123, corridor, k=5)
    b = random_waypoints(123, corridor, k=5)
    assert a == b
    assert len(a.waypoints) == 5
    lo, hi = corridor.bounds()
    for seed in range(1000):
        plan = random_waypoints(seed, corridor, k=5)
        for w in plan.waypoints:
            assert lo[0] <= w[0] <= hi[0] and lo[1] <= w[1] <= hi[1]
            assert w[2] == 40.0


def test_corridor_expands_laterally_only():
    corridor = Corridor(start=(190.0, 325.0, 40.0), end=(521.0, 325.0, 40.0), half_width=30.0)
    lo, hi = corridor.bounds()
    assert (lo[0], hi[0]) == (190.0, 521.0)
    assert (lo[1], hi[1]) == (295.0, 355.0)
    with pytest.raises(ValueError):
        Corridor(start=(0, 0, 1), end=(0, 0, 1), half_width=0.0).bounds()


def test_waypoints_sorted_by_progress():
    corridor = Corridor(start=(190.0, 325.0, 40.0), end=(521.0, 325.0, 40.0), half_width=30.0)
    plan = random_waypoints(7, corridor, k=5)
    xs = [w[0] for w in plan.waypoints]
    assert xs == sorted(xs)


def _point_at_arc(points, s):
    # independent piecewise-linear arc-length parametrization
    pts = [np.asarray(p, dtype=float) for p in points]
    for a, b in zip(pts[:-1], pts[1:]):
        seg = float(np.linalg.norm(b - a))
        if s <= seg:
            return a + (b - a) * (s / seg if seg else 0.0)
        s -= seg
    return pts[-1]


def test_distance_conservation():
    rng = np.random.default_rng(4)
    dt = 0.5
    for seed in range(20):
        corridor = Corridor(start=(0.0, 0.0, 40.0), end=(300.0, 0.0, 40.0), half_width=25.0)
        plan = random_waypoints(seed, corridor, k=4)
        state = uav_state("uav0", plan)
        n = int(rng.integers(10, 400))
        for k in range(n):
            state = step_kinematics(state, dt)
        arc = min(plan.speed_mps * n * dt, plan.total_length)
        expected = _point_at_arc(plan.points, arc)
        assert np.asarray(state.position) == pytest.approx(expected, abs=1e-9)
        if arc >= plan.total_length:
            assert state.done and state.speed == 0.0


_int_point = st.tuples(*[st.integers(-500, 500)] * 3)
_float_point = st.tuples(*[st.floats(-500.0, 500.0)] * 3)
_point = st.one_of(_int_point, _float_point)


@given(start=_point, waypoints=st.lists(_point, max_size=5), zero_legs=st.booleans(),
       speed=st.floats(0.0, 300.0), dt=st.floats(1e-3, 10.0), steps=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_step_equals_the_frozen_step(start, waypoints, zero_legs, speed, dt, steps):
    """Integer start points, zero-length legs (a repeated point) and steps that overshoot
    the route end: the same state, position bits and position text as the frozen step,
    with Python floats in every position the step moved."""
    if zero_legs and waypoints:
        waypoints = [start] + waypoints + [waypoints[-1]]
    new = old = UeState("UAV", "uav0", start, speed, tuple(waypoints))
    for _ in range(steps):
        before = new
        new, old = step_kinematics(new, dt), mobility_oracle.step_kinematics(old, dt)
        assert new == old
        assert [float(v).hex() for v in new.position] == [float(v).hex() for v in old.position]
        assert position_payload(new) == position_payload(old)
        if new is not before:
            assert all(type(v) is float for v in new.position)


def test_altitude_constant_on_level_routes():
    corridor = Corridor(start=(0.0, 0.0, 40.0), end=(300.0, 0.0, 40.0), half_width=25.0)
    state = uav_state("uav0", random_waypoints(9, corridor, k=5))
    for k in range(200):
        state = step_kinematics(state, 0.5)
        assert state.position[2] == pytest.approx(40.0, abs=1e-12)


def test_arc_point_endpoints_and_midpoint():
    plan = TrajectoryPlan(start=(0.0, 0.0, 0.0), end=(10.0, 0.0, 0.0),
                          waypoints=((5.0, 0.0, 0.0),))
    assert plan.arc_point(0.0) == pytest.approx((0.0, 0.0, 0.0))
    assert plan.arc_point(1.0) == pytest.approx((10.0, 0.0, 0.0))
    assert plan.arc_point(0.5) == pytest.approx((5.0, 0.0, 0.0))
    assert plan.total_length == pytest.approx(10.0)

