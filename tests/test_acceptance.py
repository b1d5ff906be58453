"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import numpy as np
import pytest
import trace_oracle
from trace_oracle import mirror_point

from skycell.ai import TOPK_GRID, BeamDataset, DecisionTreeModel, Policy, topk_accuracy
from skycell.bench import run_benchmark
from skycell.bus import Broker, topic_matches
from skycell.cli import main as cli_main
from skycell.config import (
    base_route,
    comms_config,
    default_scene,
    load_config,
    rng_for,
    seeded_route,
    stream_seed,
)
from skycell.geometry import (
    SPEED_OF_LIGHT,
    Building,
    Material,
    PathBundle,
    Scene,
    TxPose,
    trace_paths,
)
from skycell.mission import (
    DEGRADATION_TIERS,
    MissionConfig,
    default_test_image,
    degradation,
    psnr_db,
    rescue_wait_s,
    run_mission,
    simulate_image_loss,
)
from skycell.orchestrator import ALL_IN_LOOP, EpisodeConfig
from skycell.phy import (
    UpaConfig,
    beam_sweep,
    dft_codebook,
    pair_index,
)


# the separate test trajectory of criterion 6: its own seed and flight level
TEST_SEED_OFFSET = 555
TEST_EPISODES = 6
TEST_ROUTE_Z = 32.0


def _report(num, text, t0):
    print(f"ACCEPTANCE {num:2d} PASS ({time.perf_counter() - t0:6.2f}s): {text}")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared dataset -> model -> test-dataset artifacts built via the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    cfg = load_config(None)

    ds_dir = root / "dataset"
    assert cli_main(["dataset", "--out", str(ds_dir)]) == 0

    # separate test trajectory: distinct seed, lower flight level
    test_cfg = dict(cfg)
    test_seed = int(cfg["episode"]["seed"]) + TEST_SEED_OFFSET
    z = TEST_ROUTE_Z
    test_cfg_path = root / "test_cfg.json"
    test_cfg_path.write_text(json.dumps({
        "episode": {"seed": test_seed},
        "mobility": {"route": {"start": [190.0, 325.0, z], "end": [521.0, 325.0, z]}},
    }))
    test_dir = root / "test_dataset"
    n_test = str(TEST_EPISODES)
    assert cli_main(["dataset", "--config", str(test_cfg_path), "--episodes", n_test,
                     "--out", str(test_dir)]) == 0

    model_dir = root / "model"
    assert cli_main(["train", "--dataset", str(ds_dir / "dataset.csv"),
                     "--test-dataset", str(test_dir / "dataset.csv"),
                     "--out", str(model_dir)]) == 0
    return {
        "cfg": cfg,
        "dataset": BeamDataset.load_csv(ds_dir / "dataset.csv"),
        "test_dataset": BeamDataset.load_csv(test_dir / "dataset.csv"),
        "model": DecisionTreeModel.load(model_dir / "model.json"),
        "table_path": model_dir / "topk_accuracy.csv",
    }


def test_criterion_1_degradation_table_exact():
    t0 = time.perf_counter()
    assert (degradation(70.0).packet_loss_percent, degradation(70.0).psnr_db) == (1.0, 26.36)
    assert (degradation(45.0).packet_loss_percent, degradation(45.0).psnr_db) == (25.0, 12.39)
    assert (degradation(10.0).packet_loss_percent, degradation(10.0).psnr_db) == (50.0, 9.37)
    _report(1, "degradation tiers map 70/45/10 Mbps to (1%,26.36)/(25%,12.39)/(50%,9.37) dB", t0)


def test_criterion_2_rescue_time_curve():
    t0 = time.perf_counter()
    b = 4e7
    for tput, expected in ((30.0, 8 * b / 3e7), (60.0, 8 * b / 6e7), (90.0, 8 * b / 9e7)):
        assert rescue_wait_s(b, tput) == pytest.approx(expected, rel=1e-9)
    assert rescue_wait_s(b, 30.0) == pytest.approx(10.666666666666666, rel=1e-9)
    assert rescue_wait_s(b, 60.0) == pytest.approx(5.333333333333333, rel=1e-9)
    assert rescue_wait_s(b, 90.0) == pytest.approx(3.5555555555555554, rel=1e-9)
    grid = np.linspace(1.0, 90.0, 300)
    waits = [rescue_wait_s(b, float(t)) for t in grid]
    assert all(a > c for a, c in zip(waits, waits[1:]))
    _report(2, "rescue wait 8B/T hits 10.667/5.333/3.556 s and decreases over 1-90 Mbps", t0)


def test_criterion_3_codebooks():
    t0 = time.perf_counter()
    for upa, size in ((UpaConfig(8, 8), 64), (UpaConfig(2, 2), 4)):
        cb = dft_codebook(upa)
        assert cb.n_codewords == size
        gram = cb.codewords.conj() @ cb.codewords.T
        assert np.max(np.abs(np.linalg.norm(cb.codewords, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(gram - np.eye(size))) <= 1e-9
    _report(3, "DFT codebooks: 64 and 4 orthonormal codewords", t0)


def test_criterion_4_sweep_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    tx_cb, rx_cb = dft_codebook(UpaConfig(8, 8)), dft_codebook(UpaConfig(2, 2))
    for trial in range(100):
        entries = (rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))) * 1e-6
        best, gains = beam_sweep(entries, tx_cb, rx_cb)
        brute = np.empty(256)
        for i in range(4):
            for j in range(64):
                brute[pair_index(i, j, 64, 4)] = abs(
                    np.conj(rx_cb.codewords[i]) @ entries @ tx_cb.codewords[j]
                )
        assert np.allclose(gains, brute, rtol=0, atol=1e-12)
        assert best == int(np.argmax(brute))
        scale = float(rng.uniform(1e-3, 1e3))
        assert beam_sweep(entries * scale, tx_cb, rx_cb)[0] == best
    _report(4, "beam sweep equals brute force on 100 random channels; argmax scale-invariant", t0)


def test_criterion_5_ray_tracer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    concrete = Material("concrete", 0.5)
    checked = 0
    for _ in range(1000):
        x0 = float(rng.uniform(5, 300))
        wall = Building((x0, float(rng.uniform(1, 200)), 0.0),
                        (x0 + float(rng.uniform(2, 30)), float(rng.uniform(300, 600)),
                         float(rng.uniform(40, 150))), concrete)
        side = 1 if rng.random() < 0.5 else -1
        face_x = wall.max_corner[0] if side > 0 else wall.min_corner[0]
        tx = (face_x + side * float(rng.uniform(1, 80)), float(rng.uniform(210, 290)),
              float(rng.uniform(5, 120)))
        rx = (face_x + side * float(rng.uniform(1, 80)), float(rng.uniform(210, 290)),
              float(rng.uniform(5, 120)))
        scene = Scene(719.2, 693.4, TxPose(tx), [wall])
        paths = trace_paths(scene, rx, ground_reflection=False).paths
        bundle = PathBundle(tuple(p for p in paths if p.kind != "R2"))
        assert bundle == trace_oracle.trace_paths(scene, tx, rx, max_order=1,
                                                  ground_reflection=False)
        for path in (p for p in bundle.paths if p.kind == "R1"):
            if abs(path.vertices[0][0] - face_x) > 1e-6:
                continue
            expected = float(np.linalg.norm(np.asarray(rx) - mirror_point(tx, 0, face_x)))
            assert path.length == pytest.approx(expected, rel=1e-9)
            checked += 1
        fwd = sorted(p.length for p in trace_paths(scene, rx).paths)
        # reciprocity: the same wall with the transmitter at the receiver's end
        reverse = Scene(719.2, 693.4, TxPose(rx), [wall])
        rev = sorted(p.length for p in trace_paths(reverse, tx).paths)
        assert np.allclose(fwd, rev, rtol=1e-9)
    assert checked >= 200

    free = Scene(719.2, 693.4, TxPose((0, 0, 50)), [])
    path = trace_paths(free, (100, 0, 50), carrier_hz=4e10, ground_reflection=False).paths[0]
    assert abs(abs(path.gain) - 5.964e-6) <= 1e-9
    _report(5, "image-method lengths, reciprocity, free-space gain 5.964e-6 at 100 m / 40 GHz", t0)


def test_criterion_6_decision_tree_pipeline(pipeline):
    t0 = time.perf_counter()
    dataset = pipeline["dataset"]
    n_nlos = int(sum(1 for c in dataset.los if c == "NLOS"))
    assert 1000 <= n_nlos <= 1500

    table = pipeline["table_path"].read_text().strip().splitlines()
    assert table[0] == "k,validation_acc,test_acc"
    rows = [line.split(",") for line in table[1:]]
    ks = [int(r[0]) for r in rows]
    val = [float(r[1]) for r in rows]
    test = [float(r[2]) for r in rows]
    assert ks == list(TOPK_GRID)
    assert val[0] >= 0.078  # 20x the 1/256 random expectation
    assert all(b >= a for a, b in zip(val, val[1:]))
    assert all(b >= a for a, b in zip(test, test[1:]))
    assert all(v >= t for v, t in zip(val, test))

    from skycell.ai import filter_nlos, split_dataset
    cfg = pipeline["cfg"]
    nlos = filter_nlos(dataset)
    _, validation = split_dataset(nlos, train_frac=0.7,
                                  seed=stream_seed(cfg["episode"]["seed"], "split"))
    assert topk_accuracy(pipeline["model"], validation, 256) == 1.0
    _report(6, f"{n_nlos} NLOS rows; val top-1 {val[0]:.3f} >= 0.078; "
               "top-K monotone; acc(256)=1; val >= test at every K", t0)


def test_criterion_7_mission_dominance(pipeline):
    t0 = time.perf_counter()
    cfg = pipeline["cfg"]
    scene = default_scene()
    ccfg = comms_config(cfg)
    mission_cfg = MissionConfig()
    means, rescues = {}, {}
    for kind in ("oracle", "tree", "random"):
        times, resc = [], []
        for seed in range(10):
            plan = seeded_route(cfg, stream_seed(seed, "mission-route"))
            ep = EpisodeConfig(n_snapshots=mission_cfg.max_snapshots, sampling_interval=0.5,
                               category=ALL_IN_LOOP, seed=seed)
            policy = Policy(kind=kind, model=pipeline["model"] if kind == "tree" else None)
            metrics, _ = run_mission(scene, plan, mission_cfg, ep, policy=policy,
                                     comms_cfg=ccfg, rng=rng_for(seed, "random-policy"))
            times.append(metrics.total_time_s)
            resc.append(metrics.rescued)
        means[kind] = float(np.mean(times))
        rescues[kind] = resc
    assert means["oracle"] <= means["tree"] <= means["random"]
    assert (np.mean(rescues["oracle"]) >= np.mean(rescues["tree"])
            >= np.mean(rescues["random"]))
    assert all(r == 5 for r in rescues["oracle"])
    _report(7, "mean mission time {oracle:.1f} <= {tree:.1f} <= {random:.1f} s; "
               "oracle rescues 5/5 on every seed".format(**{k: means[k] for k in means}), t0)


def test_criterion_8_psnr_pipeline():
    t0 = time.perf_counter()
    img = default_test_image(256)
    assert img.shape == (256, 256)
    for tier in DEGRADATION_TIERS:
        values = []
        for seed in range(100):
            lossy = simulate_image_loss(img, tier.packet_loss_percent, seed)
            p = psnr_db(img, lossy)
            if math.isfinite(p):
                values.append(p)
        mean = float(np.mean(values))
        assert abs(mean - tier.psnr_db) <= 3.0
    _report(8, "block-loss PSNR within +/-3 dB of 26.36/12.39/9.37 over 100 seeds", t0)


def test_criterion_9_bus_conformance():
    t0 = time.perf_counter()
    broker = Broker()
    sub = broker.subscribe("conf.>")
    for publisher in ("p0", "p1"):
        for i in range(200):
            broker.publish("conf.stream", f"{publisher}:{i}", publisher=publisher)
    seen = {}
    count = 0
    while True:
        msg = sub.next_message()
        if msg is None:
            break
        assert msg.seq == seen.get(msg.publisher, 0) + 1  # per-publisher FIFO
        seen[msg.publisher] = msg.seq
        count += 1
    assert count == 400  # no loss, no duplication

    def ref_match(pattern, topic):
        p, t = pattern.split("."), topic.split(".")
        def rec(i, j):
            if i == len(p):
                return j == len(t)
            if p[i] == ">":
                return i == len(p) - 1 and j < len(t)
            if j == len(t):
                return False
            return (p[i] == "*" or p[i] == t[j]) and rec(i + 1, j + 1)
        return rec(0, 0)

    rng = np.random.default_rng(909)
    segs = ["a", "b", "c", "dd"]
    for _ in range(10_000):
        topic = ".".join(rng.choice(segs) for _ in range(rng.integers(1, 6)))
        pat = [str(rng.choice(segs + ["*"])) for _ in range(rng.integers(1, 6))]
        if rng.random() < 0.3:
            pat.append(">")
        pattern = ".".join(pat)
        assert topic_matches(pattern, topic) == ref_match(pattern, topic)

    table_v = [
        ("3D.mobility.positions",
         '{"UE_type": "UAV", "UE_Id": "uav0", "position": {"x":0, "y":0, "z":0}}'),
        ("communications.throughput",
         '{"UE_type": "UAV", "UE_Id": "uav0", "throughput": 42.5}'),
        ("communications.state", "Ready"),
    ]
    for topic, payload in table_v:
        s = broker.subscribe(topic)
        broker.publish(topic, payload)
        assert s.next_message().payload == payload  # byte-identical
    _report(9, "FIFO, lossless delivery, wildcard matcher == brute force on 10k cases, "
               "payload round-trips byte-identical", t0)


def test_criterion_10_benchmark():
    t0 = time.perf_counter()
    scene = default_scene()
    cfg = load_config(None)
    reports = run_benchmark(scene, [1, 3, 5, 10], base_route(cfg), comms_config(cfg),
                            virtual_seconds=60.0, sampling_interval=0.5,
                            repetitions=3, seed=0)
    assert [r.n_uavs for r in reports] == [1, 3, 5, 10]
    for r in reports:
        assert r.error is None
        assert r.tv_s == 60.0
        assert abs(r.rtf - r.tp_s / r.tv_s) <= 1e-12
    tps = [r.tp_s for r in reports]
    assert all(b >= a for a, b in zip(tps, tps[1:])), f"Tp not monotone: {tps}"
    _report(10, "benchmark 1/3/5/10 UAVs: Tv exactly 60 s, rtf = Tp/Tv, "
                f"median Tp non-decreasing {['%.2f' % t for t in tps]}", t0)
