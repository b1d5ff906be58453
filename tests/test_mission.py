import json
import math

import numpy as np
import pytest

from skycell.ai import Policy
from skycell.blueprint import CommsModule, MobilityModule, offset_plan
from skycell.config import comms_config, default_scene, load_config, rng_for, seeded_route, stream_seed
from skycell.mission import (
    DEGRADATION_TIERS,
    MissionConfig,
    MissionModule,
    RescueStalled,
    default_test_image,
    degradation,
    estimate_rescue_curve,
    psnr_db,
    rescue_wait_s,
    run_mission,
    simulate_image_loss,
)
from skycell.mobility import TrajectoryPlan
from skycell.orchestrator import ALL_IN_LOOP, EpisodeConfig


def test_degradation_table_exact():
    assert (degradation(70.0).packet_loss_percent, degradation(70.0).psnr_db) == (1.0, 26.36)
    assert (degradation(45.0).packet_loss_percent, degradation(45.0).psnr_db) == (25.0, 12.39)
    assert (degradation(10.0).packet_loss_percent, degradation(10.0).psnr_db) == (50.0, 9.37)
    assert (degradation(0.0).packet_loss_percent, degradation(0.0).psnr_db) == (50.0, 9.37)


def test_degradation_boundaries_partition():
    assert degradation(90.0).packet_loss_percent == 1.0
    assert degradation(60.0).packet_loss_percent == 25.0  # 60 belongs to the middle tier
    assert degradation(30.0).packet_loss_percent == 50.0
    lows = [t.lo_mbps for t in DEGRADATION_TIERS]
    his = [t.hi_mbps for t in DEGRADATION_TIERS]
    assert his[1] == lows[0] and his[2] == lows[1] and lows[2] == 0.0 and his[0] == 90.0


def test_degradation_clamps_with_warning(caplog):
    with caplog.at_level("WARNING"):
        assert degradation(95.0).packet_loss_percent == 1.0
        assert degradation(-3.0).packet_loss_percent == 50.0
    assert "clamping" in caplog.text


def test_rescue_wait_values():
    assert rescue_wait_s(4e7, 60.0) == pytest.approx(3.2e8 / 6e7, rel=1e-9)
    assert rescue_wait_s(4e7, 90.0) == pytest.approx(3.2e8 / 9e7, rel=1e-9)
    assert rescue_wait_s(4e7, 30.0) == pytest.approx(3.2e8 / 3e7, rel=1e-9)


def test_rescue_wait_stalled_at_zero():
    with pytest.raises(RescueStalled):
        rescue_wait_s(4e7, 0.0)
    with pytest.raises(ValueError):
        rescue_wait_s(4e7, -1.0)


def test_rescue_curve_shape():
    curve = estimate_rescue_curve(4e7, [30.0, 60.0, 90.0])
    waits = [s for _, s in curve]
    assert waits == pytest.approx([10.666666666, 5.3333333333, 3.5555555555], rel=1e-9)
    fine = estimate_rescue_curve(4e7, np.linspace(1.0, 90.0, 90))
    values = [s for _, s in fine]
    assert all(a > b for a, b in zip(values, values[1:]))  # strictly decreasing
    assert rescue_wait_s(4e7, 20.0) == pytest.approx(2 * rescue_wait_s(4e7, 40.0))
    with pytest.raises(ValueError):
        estimate_rescue_curve(4e7, [0.0])


def test_image_loss_endpoints():
    img = default_test_image()
    assert np.array_equal(simulate_image_loss(img, 0.0, seed=1), img)
    assert not simulate_image_loss(img, 100.0, seed=1).any()
    with pytest.raises(ValueError):
        simulate_image_loss(img, 101.0, seed=1)
    with pytest.raises(ValueError):
        simulate_image_loss(np.zeros((100, 100)), 10.0, seed=1)


def test_image_loss_deterministic_in_seed():
    img = default_test_image()
    a = simulate_image_loss(img, 25.0, seed=7)
    b = simulate_image_loss(img, 25.0, seed=7)
    c = simulate_image_loss(img, 25.0, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropped_block_fraction_matches_rate():
    img = np.full((256, 256), 200, dtype=np.uint8)
    for rate in (0.25, 0.5):
        fractions = []
        for seed in range(1000):
            out = simulate_image_loss(img, rate * 100, seed=seed)
            blocks = out.reshape(16, 16, 16, 16)  # (block_row, in_row, block_col, in_col)
            dropped = (blocks == 0).all(axis=(1, 3)).mean()
            fractions.append(dropped)
        assert abs(np.mean(fractions) - rate) <= 0.02


def test_psnr_formulas():
    img = default_test_image()
    assert psnr_db(img, img) == math.inf
    a = np.full((16, 16), 255.0)
    b = np.zeros((16, 16))
    assert psnr_db(a, b) == pytest.approx(0.0, abs=1e-12)
    # MSE 650.25 -> 20 dB
    a = np.zeros((4, 4))
    b = np.full((4, 4), math.sqrt(650.25))
    assert psnr_db(a, b) == pytest.approx(20.0, rel=1e-12)
    with pytest.raises(ValueError):
        psnr_db(np.zeros((2, 2)), np.zeros((3, 3)))


def test_shipped_image_hits_degradation_psnr_rows():
    img = default_test_image()
    assert img.shape == (256, 256) and img.dtype == np.uint8
    for tier in DEGRADATION_TIERS:
        values = []
        for seed in range(100):
            lossy = simulate_image_loss(img, tier.packet_loss_percent, seed)
            p = psnr_db(img, lossy)
            if math.isfinite(p):
                values.append(p)
        assert values, f"all seeds lossless at {tier.packet_loss_percent}%"
        assert abs(np.mean(values) - tier.psnr_db) <= 3.0


@pytest.fixture(scope="module")
def sar_env():
    cfg = load_config(None)
    return cfg, default_scene(), comms_config(cfg)


def _mission(cfg, scene, ccfg, mission_cfg, policy, seed=0, dt=0.5):
    plan = seeded_route(cfg, stream_seed(seed, "mission-route"))
    ep = EpisodeConfig(n_snapshots=mission_cfg.max_snapshots, sampling_interval=dt,
                       category=ALL_IN_LOOP, seed=seed)
    return run_mission(scene, plan, mission_cfg, ep, policy=policy, comms_cfg=ccfg,
                       rng=rng_for(seed, "random-policy"))


def test_zero_targets_flight_time_only(sar_env):
    cfg, scene, ccfg = sar_env
    mission_cfg = MissionConfig(n_targets=0)
    metrics, log = _mission(cfg, scene, ccfg, mission_cfg, Policy(kind="oracle"), seed=3)
    plan = seeded_route(cfg, stream_seed(3, "mission-route"))
    expected_snapshots = math.ceil(plan.total_length / (plan.speed_mps * 0.5))
    assert metrics.total_time_s == pytest.approx(expected_snapshots * 0.5)
    assert metrics.rescued == 0
    assert len(log.records) == expected_snapshots


def test_mission_conservation_and_throughput_topic(sar_env):
    cfg, scene, ccfg = sar_env
    mission_cfg = MissionConfig()
    metrics, log = _mission(cfg, scene, ccfg, mission_cfg, Policy(kind="oracle"), seed=1)
    plan = seeded_route(cfg, stream_seed(1, "mission-route"))
    flight_snapshots = math.ceil(plan.total_length / (plan.speed_mps * 0.5))
    pause_snapshots = len(log.records) - flight_snapshots
    waits = []
    for rec in log.records:
        if any(e.startswith("rescued:") for e in rec.events):
            waits.append(math.ceil(rescue_wait_s(mission_cfg.payload_bytes,
                                                 rec.throughput_mbps) / 0.5))
    assert metrics.rescued == 5
    assert pause_snapshots == sum(waits)
    assert metrics.total_time_s == pytest.approx(len(log.records) * 0.5)
    # every snapshot carried a throughput report
    assert all(rec.throughput_mbps >= 0.0 for rec in log.records)


@pytest.mark.parametrize("fixed_wait", [True, False])
def test_rescue_pauses_count_snapshots_of_the_mobility_interval(sar_env, fixed_wait):
    cfg, scene, ccfg = sar_env
    mission_cfg = MissionConfig(fixed_wait=fixed_wait)
    metrics, log = _mission(cfg, scene, ccfg, mission_cfg, Policy(kind="oracle"), seed=1, dt=0.25)
    plan = seeded_route(cfg, stream_seed(1, "mission-route"))
    flight_snapshots = math.ceil(plan.total_length / (plan.speed_mps * 0.25))
    waits = [math.ceil(rescue_wait_s(mission_cfg.payload_bytes, rec.throughput_mbps) / 0.25)
             for rec in log.records if any(e.startswith("rescued:") for e in rec.events)]
    assert metrics.rescued == len(waits) == 5
    # the oracle's rate is steady while held, so the adaptive wait lasts as long
    assert len(log.records) - flight_snapshots == sum(waits)
    assert metrics.total_time_s == pytest.approx(len(log.records) * 0.25)


def test_detection_gated_by_psnr_threshold(sar_env):
    cfg, scene, ccfg = sar_env
    strict = MissionConfig(psnr_detect_threshold_db=20.0)
    metrics, log = _mission(cfg, scene, ccfg, strict, Policy(kind="random"), seed=2)
    for rec in log.records:
        if any(e.startswith("detected:") for e in rec.events):
            tier = degradation(rec.throughput_mbps)
            assert tier.packet_loss_percent == 1.0  # detections only in the top tier


def test_oracle_outperforms_random_single_seed(sar_env):
    cfg, scene, ccfg = sar_env
    mission_cfg = MissionConfig()
    oracle, _ = _mission(cfg, scene, ccfg, mission_cfg, Policy(kind="oracle"), seed=5)
    random_, _ = _mission(cfg, scene, ccfg, mission_cfg, Policy(kind="random"), seed=5)
    assert oracle.total_time_s <= random_.total_time_s
    assert oracle.rescued >= random_.rescued
    assert oracle.rescued == 5


def test_adaptive_wait_shorter_when_rate_recovers(sar_env):
    cfg, scene, ccfg = sar_env
    fixed = MissionConfig(fixed_wait=True)
    adaptive = MissionConfig(fixed_wait=False)
    m_fixed, _ = _mission(cfg, scene, ccfg, fixed, Policy(kind="oracle"), seed=7)
    m_adapt, _ = _mission(cfg, scene, ccfg, adaptive, Policy(kind="oracle"), seed=7)
    assert m_adapt.rescued == m_fixed.rescued == 5
    # oracle holds its rate, so both modes agree within a snapshot per rescue
    assert abs(m_adapt.total_time_s - m_fixed.total_time_s) <= 5 * 0.5 + 1e-9


def test_mission_requires_all_in_loop(sar_env):
    cfg, scene, ccfg = sar_env
    plan = seeded_route(cfg, stream_seed(0, "mission-route"))
    ep = EpisodeConfig(n_snapshots=10, category="Mob3dCommInLoop")
    with pytest.raises(ValueError):
        run_mission(scene, plan, MissionConfig(), ep, ccfg, Policy(kind="oracle"),
                    rng_for(0, "random-policy"))


def test_mission_follows_the_one_ue_of_its_mobility_module(sar_env):
    cfg, scene, ccfg = sar_env
    plan = seeded_route(cfg, stream_seed(0, "mission-route"))
    comms = CommsModule(scene, ccfg)

    def mission(plans):
        return MissionModule(Policy(kind="oracle"), comms, MobilityModule(plans, 0.25),
                             MissionConfig(), [], rng=rng_for(0, "random-policy"))

    assert mission({"scout": plan}).ue_id == "scout"
    for plans in ({}, {"uav0": plan, "uav1": offset_plan(plan, 5.0)}):
        with pytest.raises(ValueError, match=f"one UE; its mobility has {len(plans)}"):
            mission(plans)


def test_mission_config_validation():
    with pytest.raises(ValueError):
        MissionConfig(payload_bytes=0)
    with pytest.raises(ValueError):
        MissionConfig(n_targets=-1)
    with pytest.raises(ValueError, match="n_targets 4 exceeds the 3 target_fractions"):
        MissionConfig(n_targets=4, target_fractions=(0.2, 0.5, 0.8))
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError, match="target_fractions must lie in"):
            MissionConfig(n_targets=2, target_fractions=(0.2, bad))
    assert MissionConfig(n_targets=2, target_fractions=(0.0, 1.0)).n_targets == 2


def test_target_positions_on_route_ground():
    plan = TrajectoryPlan(start=(0.0, 0.0, 40.0), end=(100.0, 0.0, 40.0))
    cfgm = MissionConfig(n_targets=3, target_fractions=(0.2, 0.5, 0.8))
    targets = cfgm.target_positions(plan)
    assert [t[0] for t in targets] == pytest.approx([20.0, 50.0, 80.0])
    assert all(t[2] == 0.0 for t in targets)


def test_metrics_serialization(sar_env):
    cfg, scene, ccfg = sar_env
    metrics, _ = _mission(cfg, scene, ccfg, MissionConfig(n_targets=1), Policy(kind="oracle"))
    doc = json.loads(json.dumps(metrics.to_dict()))
    assert doc["rescued"] <= doc["n_targets"]
    assert doc["policy"] == "oracle"
    assert len(doc["outcomes"]) == 1
