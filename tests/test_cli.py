import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from skycell import orchestrator as orch
from skycell.ai import TOPK_GRID, BeamDataset, DecisionTreeModel, TreeNode, train_tree
from skycell.blueprint import DATASET_MAX_SNAPSHOTS
from skycell.cli import main
from skycell.config import LEAVES, default_config, load_config
from skycell.orchestrator import EpisodeLog


def _write_cfg(tmp_path, **overrides):
    doc = {"episode": {"n_snapshots": 8, "seed": 3}, "dataset": {"episodes": 1}}
    for key, value in overrides.items():
        doc.setdefault(key, {}).update(value) if isinstance(value, dict) else doc.update({key: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_writes_log_manifest_metrics(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    log = EpisodeLog.read_jsonl(out / "episode.jsonl")
    assert len(log.records) == 8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["config"]["episode"]["n_snapshots"] == 8
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n_snapshots"] == 8
    assert set(metrics["module_step_s"]) == {"3D", "communications", "ai"}


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_run_same_seed_identical_logs(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "episode.jsonl").read_bytes() == (out2 / "episode.jsonl").read_bytes()


def test_run_mob3d_category(tmp_path):
    cfg = _write_cfg(tmp_path, episode={"n_snapshots": 5, "seed": 1,
                                        "category": "Mob3dCommInLoop"})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    log = EpisodeLog.read_jsonl(out / "episode.jsonl")
    assert len(log.records) == 5
    assert all(rec.throughput_mbps >= 0 for rec in log.records)


def test_run_replay_category(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "rec"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    cfg2 = _write_cfg(tmp_path, episode={"n_snapshots": 8, "seed": 3,
                                         "category": "AiCommInLoop"})
    out2 = tmp_path / "replayed"
    rc = main(["run", "--config", cfg2, "--out", str(out2),
               "--replay", str(out / "episode.jsonl")])
    assert rc == 0
    a = EpisodeLog.read_jsonl(out / "episode.jsonl")
    b = EpisodeLog.read_jsonl(out2 / "episode.jsonl")
    assert [r.ue_states for r in a.records] == [r.ue_states for r in b.records]


def test_run_replay_without_log_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, episode={"n_snapshots": 4, "seed": 3,
                                        "category": "AiCommInLoop"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("category", ["AllInLoop", "Mob3dCommInLoop"])
def test_run_replay_outside_its_category_exits_2(tmp_path, capsys, category):
    """Only AiCommInLoop replays a log; any other category would fly a seeded route and
    ignore it, so a replay log there is rejected before --out is made."""
    recorded = tmp_path / "rec"
    assert main(["run", "--config", _write_cfg(tmp_path), "--out", str(recorded)]) == 0
    one = tmp_path / "one.jsonl"
    one.write_text((recorded / "episode.jsonl").read_text().splitlines()[0] + "\n")
    cfg = _write_cfg(tmp_path, episode={"category": category})
    out = tmp_path / "x"
    assert main(["run", "--config", cfg, "--replay", str(one), "--out", str(out)]) == 2
    assert (f"error: replay_log (--replay PATH) is read only in episode.category AiCommInLoop, "
            f"got episode.category {category}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("interval", [1.0, 0.5])
def test_a_replay_runs_at_the_clock_it_was_recorded_at(tmp_path, capsys, interval):
    """Each record k of a replay log is at t = k * episode.sampling_interval, or the
    replay would stamp the recorded positions with other times; a log recorded at 0.5 s
    is refused at 1.0 s before --out is made."""
    recorded = tmp_path / "rec"
    assert main(["run", "--config", _write_cfg(tmp_path, episode={"n_snapshots": 4}),
                 "--out", str(recorded)]) == 0
    cfg = _write_cfg(tmp_path, episode={"n_snapshots": 4, "category": "AiCommInLoop",
                                        "sampling_interval": interval})
    out = tmp_path / "x"
    rc = main(["run", "--config", cfg, "--replay", str(recorded / "episode.jsonl"),
               "--out", str(out)])
    if interval == 0.5:
        assert rc == 0
        assert [r.t for r in EpisodeLog.read_jsonl(out / "episode.jsonl").records] == [
            0.0, 0.5, 1.0, 1.5]
        return
    assert rc == 2
    log = (recorded / "episode.jsonl").resolve()
    assert (f"replay log {log} record 1 has t 0.5, not 1 times episode.sampling_interval 1.0"
            in capsys.readouterr().err)
    assert not out.exists()


def test_dataset_rows_and_invariant(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "ds"
    assert main(["dataset", "--config", cfg, "--episodes", "1", "--out", str(out)]) == 0
    ds = BeamDataset.load_csv(out / "dataset.csv")
    # one flight of a few hundred snapshots at most, minus outages
    assert 0 < len(ds) <= 400
    assert np.array_equal(ds.gains.argmax(axis=1), ds.best_pair)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["dataset"]["episodes"] == 1


def test_train_eval_mission_pipeline(tmp_path):
    cfg = _write_cfg(tmp_path)
    ds_dir = tmp_path / "ds"
    assert main(["dataset", "--config", cfg, "--episodes", "3", "--out", str(ds_dir)]) == 0

    train_dir = tmp_path / "model"
    rc = main(["train", "--config", cfg, "--dataset", str(ds_dir / "dataset.csv"),
               "--test-dataset", str(ds_dir / "dataset.csv"), "--out", str(train_dir)])
    assert rc == 0
    table = (train_dir / "topk_accuracy.csv").read_text().strip().splitlines()
    assert table[0] == "k,validation_acc,test_acc"
    ks = [int(line.split(",")[0]) for line in table[1:]]
    assert ks == list(TOPK_GRID)
    accs = [float(line.split(",")[1]) for line in table[1:]]
    assert all(b >= a for a, b in zip(accs, accs[1:]))

    eval_dir = tmp_path / "eval"
    rc = main(["eval", "--config", cfg, "--model", str(train_dir / "model.json"),
               "--dataset", str(ds_dir / "dataset.csv"), "--out", str(eval_dir)])
    assert rc == 0

    mission_dir = tmp_path / "mission"
    rc = main(["mission", "--config", cfg, "--policy", "tree",
               "--model", str(train_dir / "model.json"), "--out", str(mission_dir)])
    assert rc == 0
    metrics = json.loads((mission_dir / "mission.json").read_text())
    assert metrics["policy"] == "tree"
    assert 0 <= metrics["rescued"] <= metrics["n_targets"]


def test_pipeline_end_to_end_determinism(tmp_path):
    cfg = _write_cfg(tmp_path)

    def run_pipeline(tag):
        ds = tmp_path / f"ds_{tag}"
        model = tmp_path / f"model_{tag}"
        mission = tmp_path / f"mission_{tag}"
        assert main(["dataset", "--config", cfg, "--episodes", "2", "--out", str(ds)]) == 0
        assert main(["train", "--config", cfg, "--dataset", str(ds / "dataset.csv"),
                     "--out", str(model)]) == 0
        assert main(["mission", "--config", cfg, "--policy", "random",
                     "--out", str(mission)]) == 0
        return ((ds / "dataset.csv").read_bytes(),
                (model / "model.json").read_bytes(),
                (mission / "mission.json").read_bytes(),
                (mission / "episode.jsonl").read_bytes())

    assert run_pipeline("a") == run_pipeline("b")


def test_mission_writes_rescue_curve(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "m"
    assert main(["mission", "--config", cfg, "--policy", "oracle", "--out", str(out)]) == 0
    lines = (out / "rescue_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "throughput_mbps,wait_s"
    assert len(lines) == 91
    waits = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(waits, waits[1:]))


@pytest.mark.parametrize("category", ["Mob3dCommInLoop", "AiCommInLoop"])
def test_mission_in_another_category_exits_2(tmp_path, capsys, category):
    """The mission flies AllInLoop only, so a config that asks for another category is
    rejected before --out is made, not flown as AllInLoop under a manifest that says
    otherwise."""
    cfg = _write_cfg(tmp_path, episode={"category": category, "n_snapshots": 4})
    out = tmp_path / "m"
    assert main(["mission", "--config", cfg, "--out", str(out)]) == 2
    assert (f"error: mission flies episode.category AllInLoop only, "
            f"got episode.category {category}") in capsys.readouterr().err
    assert not out.exists()


def test_mission_and_dataset_manifests_record_what_ran(tmp_path, monkeypatch):
    """mission runs to mission.max_snapshots and dataset flies Mob3dCommInLoop, each flight
    to the dataset cap, and each manifest's config says so; the mission re-run from that
    config writes the same log."""
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, mission={"max_snapshots": 40})
    first, again = tmp_path / "m", tmp_path / "again"
    assert main(["mission", "--config", cfg, "--out", str(first)]) == 0
    config = json.loads((first / "manifest.json").read_text())["config"]
    assert config["episode"]["category"] == "AllInLoop"
    assert config["episode"]["n_snapshots"] == config["mission"]["max_snapshots"] == 40
    resolved = tmp_path / "resolved.json"
    resolved.write_text(json.dumps(config))
    assert main(["mission", "--config", str(resolved), "--out", str(again)]) == 0
    assert (again / "episode.jsonl").read_bytes() == (first / "episode.jsonl").read_bytes()

    default = tmp_path / "default"
    assert main(["mission", "--config", _write_cfg(tmp_path), "--out", str(default)]) == 0
    episode = json.loads((default / "manifest.json").read_text())["config"]["episode"]
    assert episode["n_snapshots"] == default_config()["mission"]["max_snapshots"]

    ds = tmp_path / "ds"
    assert main(["dataset", "--config", _write_cfg(tmp_path), "--out", str(ds)]) == 0
    episode = json.loads((ds / "manifest.json").read_text())["config"]["episode"]
    assert episode["category"] == "Mob3dCommInLoop"
    assert episode["n_snapshots"] == DATASET_MAX_SNAPSHOTS


def test_mission_tree_without_model_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["mission", "--config", cfg, "--policy", "tree",
                 "--out", str(tmp_path / "m")]) == 2


def test_unknown_policy_rejected(tmp_path):
    cfg = _write_cfg(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["mission", "--config", cfg, "--policy", "alchemy",
              "--out", str(tmp_path / "m")])
    assert err.value.code == 2


def test_unknown_policy_kind_in_config_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, policy={"kind": "bogus"})
    assert main(["mission", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert 'policy.kind must be one of random, tree, oracle, got "bogus"' in capsys.readouterr().err


def test_removed_barrier_timeout_key_exits_2(tmp_path, capsys):
    removed = {"episode": "barrier_timeout_s", "mobility": "randomize_waypoints",
               "dataset": "filter_nlos"}
    for section, key in removed.items():
        cfg = _write_cfg(tmp_path, **{section: {key: 5}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"unknown config key '{section}.{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_train_dataset_too_small_exits_2(tmp_path):
    ds = BeamDataset.from_rows([((0.0, 0.0, 0.0), "NLOS", 0, np.zeros(256))])
    path = tmp_path / "tiny.csv"
    ds.save_csv(path)
    cfg = _write_cfg(tmp_path)
    assert main(["train", "--config", cfg, "--dataset", str(path),
                 "--out", str(tmp_path / "t")]) == 2


def test_bench_csv(tmp_path):
    """Each count flies bench.virtual_seconds, four snapshots at the 0.5 s interval, and the
    manifest's config records that count, not the config's eight."""
    cfg = _write_cfg(tmp_path, bench={"virtual_seconds": 2.0, "repetitions": 1})
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg, "--counts", "1,2", "--out", str(out)]) == 0
    assert [r["n_snapshots"] for r in json.loads((out / "bench.json").read_text())] == [4, 4]
    assert json.loads((out / "manifest.json").read_text())["config"]["episode"]["n_snapshots"] == 4
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "n_uavs,Tp_s,Tv_s,rtf,t_mobility_s,t_comms_s,t_ai_s"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) == pytest.approx(float(cells[1]) / float(cells[2]), rel=1e-12)


def test_bench_bad_counts_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["bench", "--config", cfg, "--counts", "0", "--out", str(tmp_path / "bench")]) == 2
    assert main(["bench", "--config", cfg, "--counts", "x", "--out", str(tmp_path / "bench")]) == 2


_FAST_BENCH = {"virtual_seconds": 1.0, "repetitions": 1}


@pytest.mark.parametrize(
    "command, doc, flags, message",
    [
        ("bench", {"bench": {**_FAST_BENCH, "virtual_seconds": 1.25}}, ["--counts", "1"],
         "bench.virtual_seconds 1.25 must be a multiple of episode.sampling_interval 0.5"),
        ("mission", {"mission": {"n_targets": 7}}, [],
         "mission.n_targets 7 exceeds the 5 target_fractions of mission.target_fractions"),
        ("run", {"episode": {"category": "AiCommInLoop"}}, [],
         "episode.category AiCommInLoop needs replay_log (--replay PATH), got null"),
        ("mission", {"comms": {"max_throughput_mbps": 120}}, [],
         "comms.max_throughput_mbps 120 is above the 90 Mbps the degradation table grades"),
        ("mission", {}, ["--policy", "tree"],
         "policy.kind tree needs policy.model_path (--model PATH), got null"),
        ("run", {}, ["--policy", "tree"],
         "policy.kind tree needs policy.model_path (--model PATH), got null"),
        ("bench", {"bench": _FAST_BENCH}, ["--counts", "0"], "--counts needs positive integers"),
        ("bench", {"bench": _FAST_BENCH, "episode": {"category": "Mob3dCommInLoop"}},
         ["--counts", "1"],
         "bench flies episode.category AllInLoop only, got episode.category Mob3dCommInLoop"),
        ("run", {"scene": "missing-scene.json"}, [], "cannot load scene: [Errno 2]"),
        ("train", {}, ["--test-dataset", "missing.csv"], "cannot read test dataset: [Errno 2]"),
    ],
    ids=["bench-interval-multiple", "mission-targets-over-fractions", "run-replay-without-log",
         "mission-cap-over-table", "mission-tree-without-model", "run-tree-without-model",
         "bench-zero-count", "bench-in-another-category", "run-missing-scene-file",
         "train-missing-test-dataset"],
)
def test_a_failed_check_leaves_no_out(tmp_path, capsys, command, doc, flags, message):
    """A command makes --out just before its first write, so a check that fails exits 2
    without it; a check that reads more than one leaf names each key and value."""
    cfg = _write_cfg(tmp_path, **doc)
    out = tmp_path / "o"
    if command == "train":
        _nlos_dataset(tmp_path / "ds.csv")
        flags = ["--dataset", str(tmp_path / "ds.csv"), *flags]
    assert main([command, "--config", cfg, *flags, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("run", {"comms": {"carrier_hz": 0}}, "comms.carrier_hz must be > 0, got 0.0"),
        ("dataset", {"comms": {"bandwidth_hz": 0}}, "comms.bandwidth_hz must be > 0, got 0.0"),
        ("run", {"comms": {"max_throughput_mbps": -1}},
         "comms.max_throughput_mbps must be > 0, got -1.0"),
        ("bench", {"comms": {"max_throughput_mbps": 0}, "bench": _FAST_BENCH},
         "comms.max_throughput_mbps must be > 0, got 0.0"),
        ("dataset", {"mobility": {"route": {"speed_mps": 0}}}, "speed_mps must be > 0, got 0.0"),
        ("run", {"mobility": {"route": {"speed_mps": -5}}}, "speed_mps must be > 0, got -5.0"),
        ("bench", {"mobility": {"route": {"speed_mps": 0}}, "bench": _FAST_BENCH},
         "speed_mps must be > 0, got 0.0"),
        ("bench", {"bench": {**_FAST_BENCH, "repetitions": 0}},
         "bench.repetitions must be >= 1, got 0"),
        ("bench", {"bench": {**_FAST_BENCH, "virtual_seconds": -1}},
         "bench.virtual_seconds must be > 0, got -1"),
        ("bench", {"bench": {**_FAST_BENCH, "virtual_seconds": 0.0}},
         "bench.virtual_seconds must be > 0, got 0.0"),
        ("mission", {"mission": {"detection_radius_m": -5}},
         "mission.detection_radius_m must be >= 0, got -5.0"),
        ("mission", {"mission": {"n_targets": -5}}, "mission.n_targets must be >= 0, got -5"),
        ("mission", {"mission": {"payload_bytes": 0}},
         "mission.payload_bytes must be > 0, got 0.0"),
        ("mission", {"mission": {"max_snapshots": 0}}, "mission.max_snapshots must be >= 1, got 0"),
        ("run", {"episode": {"n_snapshots": 0}}, "episode.n_snapshots must be >= 1, got 0"),
        ("run", {"episode": {"sampling_interval": 0}},
         "episode.sampling_interval must be > 0, got 0.0"),
        ("run", {"mobility": {"route": {"start": [190.0, 325.0, -1.0]}}},
         "mobility.route.start must be [x, y, z] of finite numbers with z > 0, "
         "got [190.0, 325.0, -1.0]"),
        ("bench", {"mobility": {"route": {"end": [521.0, 325.0, -1.0]}}, "bench": _FAST_BENCH},
         "mobility.route.end must be [x, y, z] of finite numbers with z > 0, "
         "got [521.0, 325.0, -1.0]"),
        ("bench", {"mobility": {"route": {"start": [190.0, 325.0, 0]}}, "bench": _FAST_BENCH},
         "mobility.route.start must be [x, y, z] of finite numbers with z > 0, "
         "got [190.0, 325.0, 0]"),
        ("dataset", {"mobility": {"route": {"waypoints": [[300.0, 325.0, 40.0],
                                                         [400.0, 325.0, 0.0]]}}},
         "mobility.route.waypoints must be a list of [x, y, z] points with z > 0, "
         "got [[300.0, 325.0, 40.0], [400.0, 325.0, 0.0]]"),
        ("mission", {"mobility": {"route": {"end": [521.0, 325.0, -1.0]}}},
         "mobility.route.end must be [x, y, z] of finite numbers with z > 0, "
         "got [521.0, 325.0, -1.0]"),
    ],
    ids=["zero-carrier", "zero-bandwidth", "negative-cap", "zero-cap-bench", "zero-speed",
         "negative-speed", "zero-speed-bench", "zero-repetitions", "negative-virtual-seconds",
         "zero-virtual-seconds", "negative-detection-radius", "negative-targets",
         "zero-payload", "zero-max-snapshots", "zero-snapshots", "zero-interval",
         "route-start-below-ground", "route-end-below-ground-bench",
         "route-start-on-ground-bench", "route-waypoint-on-ground",
         "route-end-below-ground-mission"],
)
def test_non_positive_rate_speed_or_repetitions_exits_2(tmp_path, capsys, command, doc, message):
    """The config is checked before the output directory is made."""
    cfg = _write_cfg(tmp_path, **doc)
    out = tmp_path / "o"
    counts = ["--counts", "1"] if command == "bench" else []
    assert main([command, "--config", cfg, *counts, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "seed, bound", [(2**64 + 11, f"< {2**64}"), (-1, ">= 0")], ids=["2**64+11", "-1"]
)
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, seed, bound):
    """The seed streams read a seed's low 64 bits alone, so a seed outside [0, 2**64)
    would run the episode of another seed (2**64 + 11 that of 11, -1 that of 2**64 - 1)."""
    cfg = _write_cfg(tmp_path, episode={"seed": seed})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: episode.seed must be {bound}, got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_runs(tmp_path):
    cfg = _write_cfg(tmp_path, episode={"n_snapshots": 2, "seed": 2**64 - 1})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 2**64 - 1


_INTEGER_LEAVES = [
    ("run", "episode.n_snapshots"),
    ("run", "episode.seed"),
    ("run", "comms.tx_array.0"),
    ("run", "comms.rx_array.1"),
    ("run", "mobility.n_waypoints"),
    ("mission", "mission.n_targets"),
    ("mission", "mission.max_snapshots"),
    ("dataset", "dataset.episodes"),
    ("train", "dataset.max_depth"),
    ("train", "dataset.min_leaf"),
    ("bench", "bench.repetitions"),
]
_STRICT_CASES = [(command, key, value) for command, key in _INTEGER_LEAVES
                 for value in (1.5, True, "3")]
_STRICT_CASES += [("mission", "mission.fixed_wait", value) for value in (1.5, 1, "no")]


@pytest.mark.parametrize(
    "command, key, value", _STRICT_CASES, ids=[f"{k}={v!r}" for _, k, v in _STRICT_CASES]
)
def test_integer_or_boolean_leaf_of_another_type_exits_2(tmp_path, capsys, command, key, value):
    """Neither truncated nor truthy: the message names the dotted key and the value."""
    _assert_leaf_exits_2(tmp_path, capsys, command, key, value)


_NUMBER_LEAVES = [("run", f"comms.{name}") for name in (
    "tx_power_dbm", "bandwidth_hz", "noise_figure_db", "max_throughput_mbps", "carrier_hz",
    "spacing_wl", "rx_azimuth_deg", "rx_downtilt_deg")]
_NUMBER_LEAVES += [
    ("run", "episode.sampling_interval"),
    ("run", "mobility.route.speed_mps"),
    ("run", "mobility.corridor_half_width"),
    ("mission", "mission.payload_bytes"),
    ("mission", "mission.detection_radius_m"),
    ("mission", "mission.psnr_detect_threshold_db"),
    ("mission", "mission.min_detect_throughput_mbps"),
    ("train", "dataset.train_frac"),
    ("bench", "bench.virtual_seconds"),
]
_HUGE = 10**400  # a JSON integer float() cannot hold
_NUMBER_CASES = [(command, key, value) for command, key in _NUMBER_LEAVES
                 for value in ("36", True, float("nan"), float("inf"), _HUGE)]


@pytest.mark.parametrize(
    "command, key, value", _NUMBER_CASES,
    ids=[f"{k}=10**400" if v is _HUGE else f"{k}={v!r}" for _, k, v in _NUMBER_CASES],
)
def test_number_leaf_of_another_type_exits_2(tmp_path, capsys, command, key, value):
    """A float leaf takes a finite JSON integer or float; text, booleans, NaN,
    Infinity (which Python's json reads) and an integer beyond the float range are
    not read as numbers."""
    _assert_leaf_exits_2(tmp_path, capsys, command, key, value)


def _assert_leaf_exits_2(tmp_path, capsys, command, key, value):
    """The command, with the leaf at the dotted key set to value, exits 2 naming both."""
    defaults = load_config()
    doc = {}
    *sections, name = key.split(".")
    node, default = doc, defaults
    for section in sections:
        default = default[section]
        node = node.setdefault(section, list(default) if type(default) is list else {})
    node[int(name) if type(node) is list else name] = value
    argv = [command, "--config", _write_cfg(tmp_path, **doc), "--out", str(tmp_path / "o")]
    if command == "train":
        _nlos_dataset(tmp_path / "ds.csv")
        argv += ["--dataset", str(tmp_path / "ds.csv")]
    if command == "bench":
        argv += ["--counts", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {key} must be " in err and f"got {json.dumps(value)}" in err
    assert not (tmp_path / "o").exists()


def _leaves(section, prefix=""):
    """The dotted key of every value in a config that is not itself a section."""
    for name, value in section.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{name}.")
        else:
            yield prefix + name


def test_every_default_leaf_is_in_the_table():
    assert set(_leaves(default_config())) <= set(LEAVES)


_WRONG_KIND = {"int": 1.5, "bool": 1, "number": "36", "numbers": ["a"], "point": [1, 2],
               "points": [[1, 2]], "rows_cols": [8], "path": 1.5, "scene": 1.5}
_PAST = {">": 0, ">=": -1, "<": 0, "<=": 1}  # limit + _PAST[op] breaks the bound (op, limit)


def _bad_leaves():
    """(key, value) of each leaf of another kind, and of each bound of a leaf broken."""
    cases = []
    for key, (kind, *bounds) in LEAVES.items():
        cases.append((key, "bogus" if type(kind) is tuple else _WRONG_KIND[kind]))
        for op, limit in bounds:
            value = limit + _PAST[op]
            value = float(value) if kind == "number" else [value] if kind == "numbers" else value
            cases.append((key, value))
    return cases


_BAD_LEAVES = _bad_leaves()


@pytest.mark.parametrize("key, value", _BAD_LEAVES, ids=[f"{k}={v!r}" for k, v in _BAD_LEAVES])
def test_every_leaf_is_checked_before_out_is_made(tmp_path, capsys, key, value):
    """LEAVES is the one list of kinds and bounds: each leaf of the wrong kind or out of
    bounds exits 2, naming the dotted key and the value, before --out exists."""
    _assert_leaf_exits_2(tmp_path, capsys, "run", key, value)


@pytest.mark.parametrize(
    "command, flags",
    [("run", []), ("dataset", []), ("train", ["--dataset", "ds.csv"]),
     ("eval", ["--model", "m.json", "--dataset", "ds.csv"]), ("mission", []), ("bench", [])],
)
def test_every_command_checks_the_config_before_out_is_made(tmp_path, capsys, command, flags):
    cfg = _write_cfg(tmp_path, comms={"tx_array": [0, 8]})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, *flags, "--out", str(out)]) == 2
    assert "error: comms.tx_array.0 must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_mission_honours_min_detect_throughput(tmp_path):
    # the oracle rescues 5/5 on this route when detection needs only 1 Mbps
    cfg = _write_cfg(tmp_path, mission={"min_detect_throughput_mbps": 1e6})
    out = tmp_path / "m"
    assert main(["mission", "--config", cfg, "--policy", "oracle", "--seed", "3",
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "mission.json").read_text())
    assert (metrics["rescued"], metrics["n_targets"]) == (0, 5)
    assert [o["outcome"] for o in metrics["outcomes"]] == ["missed"] * 5


@pytest.mark.parametrize(
    "doc",
    [{"mision": {"n_targets": 1}}, {"comms": {"tx_powr_dbm": 30.0}}, {"mission": None}, [1, 2]],
)
@pytest.mark.parametrize("command", ["run", "mission"])
def test_bad_config_exits_2(tmp_path, capsys, doc, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_manifest_lists_every_default_key(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["replay_log"] is None
    assert manifest["config"]["comms"]["rx_azimuth_deg"] == 90.0
    assert manifest["config"]["comms"]["rx_downtilt_deg"] == -45.0


def _replay_log(tmp_path):
    out = tmp_path / "recorded"
    out.mkdir()
    assert main(["run", "--config", _write_cfg(out), "--out", str(out)]) == 0
    return ["--replay", str(out / "episode.jsonl")]


def _nlos_dataset_flags(tmp_path):
    path = tmp_path / "input.csv"
    _nlos_dataset(path)
    return ["--dataset", str(path)]


def _leaf_model_flags(tmp_path):
    path = tmp_path / "leaf.json"
    DecisionTreeModel(TreeNode(counts=np.arange(256, dtype=np.int64)), 1, 256).save(path)
    return ["--model", str(path)]


def _relative(flags):
    """The same flags with each path given relative to tmp_path, the first run's directory."""
    return lambda p: [os.path.relpath(a, p) if os.path.isabs(a) else a for a in flags(p)]


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("run", {}, lambda p: ["--policy", "oracle"]),
        ("run", {"episode": {"category": "Mob3dCommInLoop"}}, lambda p: []),
        ("run", {"episode": {"category": "AiCommInLoop"}}, _replay_log),
        ("dataset", {}, lambda p: []),
        ("mission", {}, lambda p: ["--policy", "random"]),
        ("mission", {}, lambda p: ["--policy", "tree", *_leaf_model_flags(p)]),
    ],
    ids=["run-oracle", "run-mob3d", "run-replay", "dataset", "mission-random", "mission-tree"],
)
def test_no_episode_parses_json(tmp_path, monkeypatch, command, config, flags):
    """Every message the shipped modules publish carries its doc, so no episode of any
    category calls json.loads; reading the config and a replay log is not in the loop."""
    flags = flags(tmp_path)
    parses = []
    episode, loads = orch.run_episode, json.loads

    def counted(*args, **kwargs):
        json.loads = lambda *a, **k: parses.append(a) or loads(*a, **k)
        try:
            return episode(*args, **kwargs)
        finally:
            json.loads = loads

    monkeypatch.setattr(orch, "run_episode", counted)
    cfg = _write_cfg(tmp_path, **config)
    assert main([command, "--config", cfg, *flags, "--out", str(tmp_path / "out")]) == 0
    assert parses == []


@pytest.mark.parametrize(
    "command, config, flags, inputs, artifacts",
    [
        ("run", {}, lambda p: ["--policy", "random"], None, ["episode.jsonl"]),
        ("run", {"episode": {"category": "AiCommInLoop"}}, _replay_log, None, ["episode.jsonl"]),
        ("dataset", {}, lambda p: ["--episodes", "2"], None, ["dataset.csv"]),
        ("train", {}, lambda p: ["--max-depth", "3"], _nlos_dataset_flags,
         ["model.json", "topk_accuracy.csv"]),
        ("mission", {}, lambda p: ["--policy", "tree", *_leaf_model_flags(p)], None,
         ["episode.jsonl", "mission.json"]),
        ("run", {"episode": {"category": "AiCommInLoop"}}, _relative(_replay_log), None,
         ["episode.jsonl"]),
        ("mission", {}, _relative(lambda p: ["--policy", "tree", *_leaf_model_flags(p)]), None,
         ["episode.jsonl", "mission.json"]),
    ],
    ids=["run-policy", "run-replay", "dataset-episodes", "train-max-depth", "mission-model",
         "run-relative-replay", "mission-relative-model"],
)
def test_manifest_reproduces_the_run(
    tmp_path, monkeypatch, command, config, flags, inputs, artifacts
):
    """Every override flag lands in the manifest's config, so that config alone re-runs it,
    also from another directory."""
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, **config)
    inputs = inputs(tmp_path) if inputs else []
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([command, "--config", cfg, *flags(tmp_path), *inputs, "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    resolved = tmp_path / "resolved.json"
    resolved.write_text(json.dumps(manifest["config"]))
    sibling = tmp_path / "elsewhere"
    sibling.mkdir()
    monkeypatch.chdir(sibling)
    assert main([command, "--config", str(resolved), *inputs, "--out", str(again)]) == 0
    for name in artifacts:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
    assert json.loads((again / "manifest.json").read_text()) == manifest


def _scene(length=719.2, width=693.4, position=(360.0, 399.5, 120.0), buildings=(),
           materials=None, **angles):
    """A config doc whose scene is given inline: the bounds, a transmitter, buildings,
    each (min corner, max corner), and materials when given."""
    scene = {"bounds": {"length": length, "width": width},
             "tx": {"position": list(position), **angles},
             "buildings": [{"min": lo, "max": hi} for lo, hi in buildings]}
    if materials is not None:
        scene["materials"] = materials
    return {"scene": scene}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"scene": "missing-scene.json"}, "cannot load scene: [Errno 2] No such file"),
        ({"scene": {"bounds": {"length": 100.0, "width": 100.0}}}, "scene lacks key 'tx'"),
        ({"comms": {"tx_array": [8]}}, "comms.tx_array must be [rows, cols], got [8]"),
        ({"comms": {"tx_array": [0, 8]}}, "comms.tx_array.0 must be >= 1, got 0"),
        ({"comms": {"rx_array": [2, -1]}}, "comms.rx_array.1 must be >= 1, got -1"),
        ({"comms": {"spacing_wl": 0}}, "comms.spacing_wl must be > 0, got 0.0"),
        ({"mission": {"n_targets": 7}}, "n_targets 7 exceeds the 5 target_fractions"),
        ({"mission": {"target_fractions": [0.15, 0.35, 1.5, 0.75, 0.9]}},
         "mission.target_fractions must be a list of numbers <= 1, got [0.15, 0.35, 1.5, "),
        ({"comms": {"tx_array": [10**24, 8]}}, f"comms.tx_array.0 must be <= 64, got {10**24}"),
        ({"mobility": {"n_waypoints": 10**24}},
         f"mobility.n_waypoints must be <= 1000, got {10**24}"),
        (_scene(position=[math.nan, 399.5, 120.0]),
         "tx position must be three finite numbers with z > 0, got (nan, 399.5, 120.0)"),
        (_scene(position=[360.0, 399.5, -3.0]), "got (360.0, 399.5, -3.0)"),
        (_scene(position=[360.0, 399.5]), "got (360.0, 399.5)"),
        (_scene(length=-719.2), "scene length must be finite and > 0, got -719.2"),
        (_scene(width=math.inf), "scene width must be finite and > 0, got inf"),
        (_scene(azimuth_deg=math.nan), "tx azimuth_deg and downtilt_deg must be finite, got "),
        (_scene(downtilt_deg=math.inf), "tx azimuth_deg and downtilt_deg must be finite, got "),
        # six 2-coordinate numbers would regroup into one box row
        (_scene(buildings=[([10, 10], [20, 30, 40])]),
         "building min corner must be three finite numbers, got (10, 10)"),
        (_scene(buildings=[([10, 10, 0], [20, 30, 40, 50])]),
         "building max corner must be three finite numbers, got (20, 30, 40, 50)"),
        (_scene(buildings=[([10, 10, 0], [20, 30, math.inf])]),
         "building max corner must be three finite numbers, got (20, 30, inf)"),
        (_scene(position=[5, 5, True]), "scene tx.position must be a number, got true"),
        (_scene(position=[5, "5", 30]), 'scene tx.position must be a number, got "5"'),
        (_scene(azimuth_deg=True), "scene tx.azimuth_deg must be a number, got true"),
        (_scene(downtilt_deg="45"), 'scene tx.downtilt_deg must be a number, got "45"'),
        (_scene(materials={"concrete": "0.5"}),
         'scene materials.concrete must be a number, got "0.5"'),
        (_scene(length=True), "scene bounds.length must be a number, got true"),
    ],
    ids=["missing-scene-file", "scene-without-tx", "one-number-array", "zero-array-rows",
         "negative-array-cols", "zero-spacing",
         "more-targets-than-fractions", "fraction-above-one", "huge-array-rows",
         "huge-waypoint-count", "nan-tx", "tx-below-ground", "two-coordinate-tx",
         "negative-scene-length", "infinite-scene-width", "nan-tx-azimuth",
         "infinite-tx-downtilt", "two-coordinate-corner", "four-coordinate-corner",
         "infinite-corner", "boolean-tx-z", "text-tx-y", "boolean-tx-azimuth",
         "text-tx-downtilt", "text-material", "boolean-scene-length"],
)
def test_bad_scene_array_or_targets_exit_2(tmp_path, capsys, doc, message):
    cfg = _write_cfg(tmp_path, **doc)
    out = tmp_path / "m"
    assert main(["mission", "--config", cfg, "--policy", "random", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _run_in_subprocess(cfg, out):
    """`skycell run` in a child whose stdin is /dev/null, so a read of a number taken as a
    file descriptor ends."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "skycell.cli", "run", "--config", cfg, "--out", str(out)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("text, kind", [("[1]", "list"), ("null", "NoneType"), ('"a"', "str")])
def test_scene_file_holding_no_object_exits_2(tmp_path, capsys, text, kind):
    path = tmp_path / "scene.json"
    path.write_text(text)
    out = tmp_path / "x"
    assert main(["run", "--config", _write_cfg(tmp_path, scene=str(path)), "--out", str(out)]) == 2
    assert f"error: scene must be a JSON object, got {kind}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scene", [0, True, 5], ids=["zero", "true", "five"])
def test_scene_of_another_type_exits_2(tmp_path, scene):
    """open() would take the number as a file descriptor."""
    proc = _run_in_subprocess(_write_cfg(tmp_path, scene=scene), tmp_path / "x")
    assert proc.returncode == 2
    assert f"scene must be a path, a scene object or null, got {json.dumps(scene)}" in proc.stderr


@pytest.mark.parametrize("value", [0, 7])
@pytest.mark.parametrize(
    "key, doc",
    [("replay_log", lambda v: {"episode": {"category": "AiCommInLoop"}, "replay_log": v}),
     ("policy.model_path", lambda v: {"policy": {"kind": "tree", "model_path": v}})],
    ids=["replay", "model"],
)
def test_path_leaf_of_another_type_exits_2(tmp_path, key, doc, value):
    """A replay log or model path is text or null; open() would take a number as a file
    descriptor, the child's open stdin for 0 and a closed one for 7."""
    out = tmp_path / "x"
    proc = _run_in_subprocess(_write_cfg(tmp_path, **doc(value)), out)
    assert proc.returncode == 2
    assert f"error: {key} must be a path or null, got {value}" in proc.stderr
    assert not out.exists()


def _digest(path):
    return {"path": str(Path(path).resolve()),
            "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}


def test_manifest_names_each_input_by_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    _nlos_dataset(train_csv)
    _nlos_dataset(test_csv, seed=1)
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "model"
    assert main(["train", "--config", cfg, "--dataset", "train.csv", "--test-dataset", "test.csv",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {"dataset": _digest(train_csv), "test_dataset": _digest(test_csv)}

    # a scene given as a path is an input too; the built-in scene is not
    scene = tmp_path / "scene.json"
    shutil.copy(Path(__file__).resolve().parents[1] / "src/skycell/data/urban_canyon.json", scene)
    for source, inputs in (("builtin", {}), ("scene.json", {"scene": _digest(scene)})):
        run_out = tmp_path / f"run-{source}"
        assert main(["run", "--config", _write_cfg(tmp_path, scene=source),
                     "--out", str(run_out)]) == 0
        assert json.loads((run_out / "manifest.json").read_text())["inputs"] == inputs


def _decisions(path):
    return [rec.chosen_pair for rec in EpisodeLog.read_jsonl(path).records]


def test_random_policy_stays_inside_a_smaller_pair_space(tmp_path):
    # a 4x4 transmit array gives 16 x 4 = 64 beam pairs
    cfg = _write_cfg(tmp_path, comms={"tx_array": [4, 4]})
    for command in ("run", "mission"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--policy", "random", "--out", str(out)]) == 0
        decisions = _decisions(out / "episode.jsonl")
        assert decisions and all(0 <= d < 64 for d in decisions)


def test_random_policy_reaches_every_receive_codeword(tmp_path):
    # a 16x8 transmit array gives 128 x 4 = 512 pairs; rx codewords 2 and 3
    # start at pair 256
    cfg = _write_cfg(tmp_path, comms={"tx_array": [16, 8]},
                     episode={"n_snapshots": 120, "seed": 7})
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--policy", "random", "--out", str(out)]) == 0
    decisions = _decisions(out / "episode.jsonl")
    assert len(decisions) == 120
    assert max(decisions) >= 256 and all(0 <= d < 512 for d in decisions)


def test_larger_pair_space_through_dataset_train_and_mission(tmp_path):
    cfg = _write_cfg(tmp_path, comms={"tx_array": [16, 8]})
    ds_dir, model_dir = tmp_path / "ds", tmp_path / "model"
    assert main(["dataset", "--config", cfg, "--out", str(ds_dir)]) == 0
    lines = (ds_dir / "dataset.csv").read_text().splitlines()
    widths = {len(line.split(",")) for line in lines}
    assert widths == {5 + 512}
    assert main(["train", "--config", cfg, "--dataset", str(ds_dir / "dataset.csv"),
                 "--out", str(model_dir)]) == 0
    model = json.loads((model_dir / "model.json").read_text())
    assert model["n_classes"] == 512
    assert main(["mission", "--config", cfg, "--policy", "tree",
                 "--model", str(model_dir / "model.json"), "--out", str(tmp_path / "m")]) == 0


def test_topk_table_lists_only_k_up_to_the_pair_count(tmp_path):
    # 2x2 transmit and 2x2 receive arrays: 16 pairs
    cfg = _write_cfg(tmp_path, comms={"tx_array": [2, 2]})
    ds_dir, model_dir = tmp_path / "ds", tmp_path / "model"
    assert main(["dataset", "--config", cfg, "--out", str(ds_dir)]) == 0
    assert main(["train", "--config", cfg, "--dataset", str(ds_dir / "dataset.csv"),
                 "--out", str(model_dir)]) == 0
    table = (model_dir / "topk_accuracy.csv").read_text().strip().splitlines()
    assert [int(line.split(",")[0]) for line in table[1:]] == [k for k in TOPK_GRID if k <= 16]


def test_model_of_another_pair_count_exits_2(tmp_path, capsys):
    # a model over the shipped 8x8 x 2x2 pairs, flown or evaluated at 4x4 x 2x2
    model_path = tmp_path / "model.json"
    DecisionTreeModel(TreeNode(counts=np.ones(256, dtype=np.int64)), 1, 256).save(model_path)
    cfg = _write_cfg(tmp_path, comms={"tx_array": [4, 4]})
    for command in ("run", "mission"):
        rc = main([command, "--config", cfg, "--policy", "tree", "--model", str(model_path),
                   "--out", str(tmp_path / command)])
        assert rc == 2
        assert "256 pairs, arrays 64" in capsys.readouterr().err
    doc = json.loads(model_path.read_text())
    del doc["n_classes"]
    model_path.with_name("old.json").write_text(json.dumps(doc))
    rc = main(["run", "--config", cfg, "--policy", "tree",
               "--model", str(model_path.with_name("old.json")), "--out", str(tmp_path / "old")])
    assert rc == 2
    assert "lacks n_classes" in capsys.readouterr().err
    ds_dir = tmp_path / "ds"
    assert main(["dataset", "--config", cfg, "--out", str(ds_dir)]) == 0
    rc = main(["eval", "--config", cfg, "--model", str(model_path),
               "--dataset", str(ds_dir / "dataset.csv"), "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert "tree model has 256 pairs, dataset 64" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mission", "eval"])
def test_a_model_of_a_huge_pair_count_exits_2_before_allocating(tmp_path, capsys, command):
    """A two-leaf model file of under 150 bytes claiming ten million pairs is refused by
    its pair count, against the arrays (mission) or the dataset (eval), before any leaf
    is laid out: one leaf's counts alone would take 80 MB."""
    leaf = {"counts": {"3": 1}}
    root = {"feature": 0, "threshold": 100.0, "left": leaf, "right": leaf}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"max_depth": 2, "n_classes": 10_000_000, "root": root}))
    assert path.stat().st_size < 150
    data = tmp_path / "ds.csv"
    data.write_text("x,y,z,los,best_pair,g0,g1\n" + "1.0,2.0,30.0,NLOS,1,0.25,0.5\n")
    inputs = ["--policy", "tree"] if command == "mission" else ["--dataset", str(data)]
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        rc = main([command, "--config", _write_cfg(tmp_path), "--model", str(path), *inputs,
                   "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    against = "arrays 256" if command == "mission" else "dataset 2"
    assert f"tree model has 10000000 pairs, {against}" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 8 * 2**20


def test_best_pair_outside_the_gain_columns_exits_2(tmp_path, capsys):
    # two gain columns, so only pairs 0 and 1 exist
    lines = ["x,y,z,los,best_pair,g0,g1"]
    lines += [f"{i}.0,{2 * i}.0,30.0,NLOS,{pair},0.5,0.25" for i, pair in enumerate((5, 7, -1))]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    cfg = _write_cfg(tmp_path)
    rc = main(["train", "--config", cfg, "--dataset", str(path), "--out", str(tmp_path / "t")])
    assert rc == 2
    assert "row 0: best_pair 5 is outside the 2 gain columns" in capsys.readouterr().err
    assert not (tmp_path / "t" / "model.json").exists()
    model_path = tmp_path / "model.json"
    DecisionTreeModel(TreeNode(counts=np.ones(2, dtype=np.int64)), 1, 2).save(model_path)
    rc = main(["eval", "--config", cfg, "--model", str(model_path), "--dataset", str(path),
               "--out", str(tmp_path / "e")])
    assert rc == 2
    assert "best_pair 5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_best_pair_beyond_int64_exits_2(tmp_path, capsys, command):
    """A best_pair of 400 digits is refused by its row, as any pair outside the gain
    columns is, before it would overflow the int64 column."""
    huge = 10**400
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y,z,los,best_pair,g0,g1\n1.0,2.0,30.0,NLOS,1,0.5,0.25\n"
                    f"3.0,4.0,30.0,NLOS,{huge},0.5,0.25\n")
    model_path = tmp_path / "model.json"
    DecisionTreeModel(TreeNode(counts=np.ones(2, dtype=np.int64)), 1, 2).save(model_path)
    flags = ["--model", str(model_path)] if command == "eval" else []
    out = tmp_path / "o"
    assert main([command, "--config", _write_cfg(tmp_path), *flags, "--dataset", str(path),
                 "--out", str(out)]) == 2
    assert f"row 1: best_pair {huge} is outside the 2 gain columns" in capsys.readouterr().err
    assert not out.exists()


_GOOD_ROW = "1.0,2.0,30.0,NLOS,2,0.5,0.25,0.75"


@pytest.mark.parametrize(
    "row, message",
    [
        ("1.0,2.0", "row 1: 2 fields, the header has 8"),
        ("1.0,2.0,30.0,NLOS,0,0.5,0.25", "row 1: 7 fields, the header has 8"),
        ("nan,2.0,30.0,NLOS,2,0.5,0.25,0.75", "row 1: a position is not a finite number"),
        ("1.0,2.0,30.0,NLOS,2,0.5,NaN,0.75", "row 1: a gain is not a finite number"),
        ("1.0,2.0,30.0,NLOS,2,0.5,inf,0.75", "row 1: a gain is not a finite number"),
        ("1.0,2.0,30.0,NLOS,2,0.5,junk,0.75", "row 1: could not convert string to float: 'junk'"),
        ("1.0,2.0,30.0,NLOS,2.0,0.5,0.25,0.75", "row 1: invalid literal for int()"),
        ("1.0,2.0,30.0,LOSS,2,0.5,0.25,0.75",
         "row 1: los 'LOSS' is not one of ('LOS', 'NLOS', 'outage')"),
        ('1.0,2.0,30.0,"NLOS",2,0.5,0.25,0.75', "row 1: los '\"NLOS\"' is not one of"),
    ],
)
def test_malformed_dataset_row_exits_2(tmp_path, capsys, row, message):
    # three gain columns; rows 0 and 2 are good, so only row 1 can stop the run
    path = tmp_path / "bad.csv"
    path.write_text("\r\n".join(["x,y,z,los,best_pair,g0,g1,g2", _GOOD_ROW, row, _GOOD_ROW]) + "\r\n")
    cfg = _write_cfg(tmp_path)
    rc = main(["train", "--config", cfg, "--dataset", str(path), "--out", str(tmp_path / "t")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t" / "model.json").exists()


@pytest.mark.parametrize("header", ["", "x,y,z,los,best_pair,g0,g2,g1", "x,y,z,best_pair,los,g0"])
def test_malformed_dataset_header_exits_2(tmp_path, capsys, header):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n" + _GOOD_ROW + "\n" if header else "")
    cfg = _write_cfg(tmp_path)
    rc = main(["train", "--config", cfg, "--dataset", str(path), "--out", str(tmp_path / "t")])
    assert rc == 2
    assert "unexpected dataset header" in capsys.readouterr().err


def test_mission_rejects_a_cap_above_the_degradation_table(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, comms={"max_throughput_mbps": 400.0})
    rc = main(["mission", "--config", cfg, "--policy", "random", "--out", str(tmp_path / "m")])
    assert rc == 2
    assert "max_throughput_mbps 400 is above the 90 Mbps" in capsys.readouterr().err
    assert not (tmp_path / "m" / "mission.json").exists()
    # the run command has no degradation table and keeps the cap
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0


def _nlos_dataset(path, seed=0):
    rng = np.random.default_rng(seed)
    rows = [((float(i), 2.0 * i, 30.0), "NLOS", int(rng.integers(256)), rng.random(256))
            for i in range(24)]
    BeamDataset.from_rows(rows).save_csv(path)


def test_zero_episodes_exits_2(tmp_path, capsys):
    # a zero flag is a value, not an absent flag: the config's flight count must not stand in
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "ds"
    assert main(["dataset", "--config", cfg, "--episodes", "0", "--out", str(out)]) == 2
    assert "episodes must be >= 1, got 0" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


def test_zero_max_depth_exits_2(tmp_path, capsys):
    path = tmp_path / "ds.csv"
    _nlos_dataset(path)
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "t"
    rc = main(["train", "--config", cfg, "--dataset", str(path), "--max-depth", "0",
               "--out", str(out)])
    assert rc == 2
    assert "max_depth must be >= 1, got 0" in capsys.readouterr().err
    assert not (out / "model.json").exists()
    cfg = _write_cfg(tmp_path, dataset={"max_depth": 0})
    assert main(["train", "--config", cfg, "--dataset", str(path), "--out", str(out)]) == 2
    assert main(["train", "--config", cfg, "--dataset", str(path), "--max-depth", "2",
                 "--out", str(out)]) == 0
    assert json.loads((out / "model.json").read_text())["max_depth"] == 2


@pytest.mark.parametrize("min_leaf", [0, -3])
def test_min_leaf_below_one_exits_2(tmp_path, capsys, min_leaf):
    """A min_leaf below 1 would train the min_leaf-1 tree under another name."""
    path = tmp_path / "ds.csv"
    _nlos_dataset(path)
    cfg = _write_cfg(tmp_path, dataset={"min_leaf": min_leaf})
    out = tmp_path / "t"
    assert main(["train", "--config", cfg, "--dataset", str(path), "--out", str(out)]) == 2
    assert f"dataset.min_leaf must be >= 1, got {min_leaf}" in capsys.readouterr().err
    assert not (out / "model.json").exists()
    with pytest.raises(ValueError, match=f"min_leaf must be >= 1, got {min_leaf}"):
        train_tree(BeamDataset.load_csv(path), max_depth=2, min_leaf=min_leaf)


def test_empty_replay_log_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, episode={"n_snapshots": 4, "seed": 3,
                                        "category": "AiCommInLoop"})
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["run", "--config", cfg, "--replay", str(empty), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "has no records" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("{}", "episode-log record lacks key 't'"),
        ('{"t": 0.0, "ue_states": [{"UE_type": "UAV", "UE_Id": "uav0"}], "chosen_pair": 1,'
         ' "throughput_mbps": 5.0, "events": []}', "episode-log record lacks key 'position'"),
        ('{"t": 0.0, "ue_states": 5, "chosen_pair": 1, "throughput_mbps": 5.0, "events": []}',
         "malformed episode-log record"),
        ('{"t": 0.0, "ue_states": [{"UE_type": "UAV", "UE_Id": "uav0", "position": '
         '{"x": 300, "y": 325, "z": 40}}], "chosen_pair": 1, "throughput_mbps": 5.0,'
         ' "events": []}', "position must be a list of three numbers"),
        ('{"t": 0.0, "ue_states": [{"UE_type": "UAV", "UE_Id": "uav0", "position": [300, 325]}],'
         ' "chosen_pair": 1, "throughput_mbps": 5.0, "events": []}',
         "position must be a list of three numbers"),
        ('{"t": 0.0, "ue_states": [{"UE_type": "BOAT", "UE_Id": "uav0", "position": [300, 325,'
         ' 40]}], "chosen_pair": 1, "throughput_mbps": 5.0, "events": []}',
         "UE_type must be one of ('UAV', 'CAR', 'PERSON'), got 'BOAT'"),
        ('{"t": 0.0, "ue_states": [{"UE_type": "UAV", "UE_Id": "uav0", "position": [300, 325,'
         ' 40]}, {"UE_type": "UAV", "UE_Id": "uav0", "position": [310, 325, 40]}],'
         ' "chosen_pair": 1, "throughput_mbps": 5.0, "events": []}',
         "episode-log record lists UE_Id 'uav0' twice"),
        ('{"t": 0.0, "ue_states": [{"UE_type": "UAV", "UE_Id": 5, "position": [300, 325, 40]}],'
         ' "chosen_pair": 1, "throughput_mbps": 5.0, "events": []}',
         "episode-log UE_Id must be a string, got 5"),
        ('{"t": 0.0, "ue_states": [{"UE_type": "UAV", "UE_Id": null, "position": [300, 325,'
         ' 40]}], "chosen_pair": 1, "throughput_mbps": 5.0, "events": []}',
         "episode-log UE_Id must be a string, got None"),
        ('{"t": 0.0, "ue_states": [{"UE_type": "UAV", "UE_Id": "uav0", "position": [NaN, 325,'
         ' 40]}], "chosen_pair": 1, "throughput_mbps": 5.0, "events": []}',
         "episode-log position must be finite, got [nan, 325, 40]"),
        ('{"t": 0.0, "ue_states": [{"UE_type": "UAV", "UE_Id": "uav0", "position": [300,'
         ' Infinity, 40]}], "chosen_pair": 1, "throughput_mbps": 5.0, "events": []}',
         "episode-log position must be finite, got [300, inf, 40]"),
        ('{"t": "noon", "ue_states": [], "chosen_pair": 1, "throughput_mbps": 5.0,'
         ' "events": []}', "episode-log t must be a finite number, got 'noon'"),
        ('{"t": NaN, "ue_states": [], "chosen_pair": 1, "throughput_mbps": 5.0, "events": []}',
         "episode-log t must be a finite number, got nan"),
        ('{"t": 0.0, "ue_states": [], "chosen_pair": true, "throughput_mbps": 5.0,'
         ' "events": []}', "episode-log chosen_pair must be an integer, got True"),
        ('{"t": 0.0, "ue_states": [], "chosen_pair": 1.0, "throughput_mbps": 5.0,'
         ' "events": []}', "episode-log chosen_pair must be an integer, got 1.0"),
        ('{"t": 0.0, "ue_states": [], "chosen_pair": 1, "throughput_mbps": null,'
         ' "events": []}', "episode-log throughput_mbps must be a finite number, got None"),
        ('{"t": 0.0, "ue_states": [], "chosen_pair": 1, "throughput_mbps": Infinity,'
         ' "events": []}', "episode-log throughput_mbps must be a finite number, got inf"),
        ('{"t": 0.0, "ue_states": [], "chosen_pair": 1, "throughput_mbps": 5.0,'
         ' "events": "stalled"}', "episode-log events must be a list of strings, got 'stalled'"),
        ('{"t": 0.0, "ue_states": [], "chosen_pair": 1, "throughput_mbps": 5.0,'
         ' "events": ["found", 3]}',
         "episode-log events must be a list of strings, got ['found', 3]"),
        pytest.param('{"t": 0.0, "ue_states": [{"UE_type": "UAV", "UE_Id": "uav0", "position":'
                     ' [1' + "0" * 400 + ', 325, 40]}], "chosen_pair": 1, "throughput_mbps": 5.0,'
                     ' "events": []}',
                     "episode-log position must be finite, got [1" + "0" * 400 + ", 325, 40]",
                     id="position-of-400-digits"),
    ],
)
def test_malformed_replay_record_exits_2(tmp_path, capsys, line, message):
    cfg = _write_cfg(tmp_path, episode={"n_snapshots": 4, "seed": 3,
                                        "category": "AiCommInLoop"})
    log = tmp_path / "bad.jsonl"
    log.write_text(line + "\n")
    rc = main(["run", "--config", cfg, "--replay", str(log), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert message in capsys.readouterr().err


def _leaf_model(counts, **keys):
    """A one-leaf model; a key given True is dropped, any other value replaces it."""
    doc = {"max_depth": 1, "n_classes": 256, "root": {"counts": counts}}
    for key, value in keys.items():
        if value is True:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc)


def _split_model(feature=0, threshold=100.0):
    leaf = {"counts": {"3": 1}}
    root = {"feature": feature, "threshold": threshold, "left": leaf, "right": leaf}
    return json.dumps({"max_depth": 2, "n_classes": 256, "root": root})


@pytest.mark.parametrize(
    "text, message",
    [
        (_leaf_model({"3": 1}, root=True), "model file lacks key 'root'"),
        (_leaf_model({"3": 1}, max_depth=True), "model file lacks key 'max_depth'"),
        (json.dumps({"max_depth": 1, "n_classes": 256, "root": {"feature": 0}}),
         "model file lacks key 'threshold'"),
        (_leaf_model({"999": 1}), "model leaf class 999 is outside its 256 pairs"),
        (_leaf_model({"-1": 1}), "model leaf class -1 is outside its 256 pairs"),
        (json.dumps({"max_depth": 1, "n_classes": 256, "root": 3}), "malformed model file"),
        (_leaf_model([3]), "malformed model file"),
        (_split_model(feature=7), "model node feature must be 0, 1 or 2, got 7"),
        (_split_model(feature=True), "model node feature must be 0, 1 or 2, got true"),
        (_split_model(threshold="abc"), 'model node threshold must be a finite number, got "abc"'),
        (_split_model(threshold=math.nan), "model node threshold must be a finite number, got NaN"),
        (_leaf_model({"3": -5}), "model leaf count of class 3 must be an integer in [0, 2**63), "
                                 "got -5"),
        (_leaf_model({"3": 2.5}), "model leaf count of class 3 must be an integer in [0, 2**63), "
                                  "got 2.5"),
        ("5", "model file must hold a JSON object, got 5"),
        ("[1, 2]", "model file must hold a JSON object, got [1, 2]"),
        (_leaf_model({}), "model leaf counts no sample, got {}"),
        (_leaf_model({"3": 0}), 'model leaf counts no sample, got {"3": 0}'),
        (_leaf_model({"3": 1}, n_classes=4.9), "model n_classes must be an integer >= 1, got 4.9"),
        (_leaf_model({"3": 1}, n_classes="4"), 'model n_classes must be an integer >= 1, got "4"'),
        (json.dumps({"max_depth": 1, "n_classes": True, "root": {"counts": {"3": 1}}}),
         "model n_classes must be an integer >= 1, got true"),
        (_leaf_model({"3": 1}, n_classes=0), "model n_classes must be an integer >= 1, got 0"),
        (_leaf_model({"3": 1}, max_depth=-4), "model max_depth must be an integer >= 1, got -4"),
        (_leaf_model({"3": 1}, max_depth=2.0), "model max_depth must be an integer >= 1, got 2.0"),
    ],
)
def test_malformed_model_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "m"
    rc = main(["mission", "--config", cfg, "--policy", "tree", "--model", str(path),
               "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (_leaf_model({}), "model leaf counts no sample, got {}"),
        (_leaf_model({"3": 1}, n_classes=4.9), "model n_classes must be an integer >= 1, got 4.9"),
        (_leaf_model({"3": 1}, max_depth=-4), "model max_depth must be an integer >= 1, got -4"),
    ],
    ids=["empty-leaf", "fractional-n-classes", "negative-max-depth"],
)
def test_eval_of_a_model_with_bad_sizes_or_counts_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    data = tmp_path / "ds.csv"
    data.write_text("x,y,z,los,best_pair,g0,g1\n" + "1.0,2.0,30.0,NLOS,1,0.25,0.5\n")
    out = tmp_path / "e"
    rc = main(["eval", "--config", _write_cfg(tmp_path), "--model", str(path),
               "--dataset", str(data), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# each input file: the flags that make a command read bad as it, the lead of its error
# and its format
_INPUTS = {
    "config": (lambda tmp, bad: ["run", "--config", str(bad)], "cannot read config", "json"),
    "scene": (lambda tmp, bad: ["run", "--config", _write_cfg(tmp, scene=str(bad))],
              "cannot load scene", "json"),
    "replay": (lambda tmp, bad: ["run", "--config", _write_cfg(
        tmp, episode={"category": "AiCommInLoop"}), "--replay", str(bad)],
               "cannot read replay log", "jsonl"),
    "model": (lambda tmp, bad: ["mission", "--config", _write_cfg(tmp), "--policy", "tree",
                                "--model", str(bad)], "cannot read model", "json"),
    "dataset": (lambda tmp, bad: ["train", "--config", _write_cfg(tmp), "--dataset", str(bad)],
                "cannot read dataset", "csv"),
    "test-dataset": (lambda tmp, bad: ["train", "--config", _write_cfg(tmp),
                                       *_nlos_dataset_flags(tmp), "--test-dataset", str(bad)],
                     "cannot read test dataset", "csv"),
    "eval-model": (lambda tmp, bad: ["eval", "--config", _write_cfg(tmp), "--model", str(bad),
                                     *_nlos_dataset_flags(tmp)], "cannot read model", "json"),
    "eval-dataset": (lambda tmp, bad: ["eval", "--config", _write_cfg(tmp),
                                       *_leaf_model_flags(tmp), "--dataset", str(bad)],
                     "cannot read dataset", "csv"),
}
# a file of each format cut short, and the error it decodes to
_CUT_SHORT = {
    "json": ('{"bounds": ', "Expecting value: line 1 column 12 (char 11)"),
    "jsonl": ('{"t": 0.0,', "line 1: Expecting property name enclosed in double quotes"),
    "csv": ("x,y,z,los,best_pair,g0,g1\n1.0,2.0", "row 0: 2 fields, the header has 7"),
}


@pytest.mark.parametrize("failure", ["cut-short", "not-utf-8"])
@pytest.mark.parametrize("which", list(_INPUTS))
def test_an_input_that_does_not_decode_is_named_with_its_path(tmp_path, capsys, which,
                                                              failure):
    """A file cut short, or not UTF-8, exits 2 with the error an unreadable file gets,
    with its path, and makes no --out."""
    flags, lead, kind = _INPUTS[which]
    text, error = _CUT_SHORT[kind]
    bad = (tmp_path / f"bad.{kind}").resolve()
    if failure == "cut-short":
        bad.write_text(text)
    else:
        bad.write_bytes(b"\xff" + text.encode())
        error = "'utf-8' codec can't decode byte 0xff in position 0"
    out = tmp_path / "out"
    assert main([*flags(tmp_path, bad), "--out", str(out)]) == 2
    assert f"error: {lead}: {bad}: {error}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_of_a_malformed_model_exits_2(tmp_path, capsys):
    """A split on a fourth coordinate is refused when the model is read, before any row
    reaches it."""
    path = tmp_path / "model.json"
    path.write_text(_split_model(feature=7))
    data = tmp_path / "ds.csv"
    data.write_text("x,y,z,los,best_pair,g0,g1\n" + "1.0,2.0,30.0,NLOS,1,0.25,0.5\n")
    out = tmp_path / "e"
    rc = main(["eval", "--config", _write_cfg(tmp_path), "--model", str(path),
               "--dataset", str(data), "--out", str(out)])
    assert rc == 2
    assert "model node feature must be 0, 1 or 2, got 7" in capsys.readouterr().err
    assert not out.exists()
