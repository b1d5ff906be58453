import json

import numpy as np
import pytest

from skycell.ai import TOPK_GRID, BeamDataset
from skycell.cli import main
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


def test_dataset_rows_and_invariant(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "ds"
    assert main(["dataset", "--config", cfg, "--episodes", "1", "--out", str(out)]) == 0
    ds = BeamDataset.load_csv(out / "dataset.csv")
    # one flight of a few hundred snapshots at most, minus outages
    assert 0 < len(ds) <= 400
    assert np.array_equal(ds.gains.argmax(axis=1), ds.best_pair)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["episodes"] == 1


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


def test_train_dataset_too_small_exits_2(tmp_path):
    ds = BeamDataset.from_rows([((0.0, 0.0, 0.0), "NLOS", 0, np.zeros(256))])
    path = tmp_path / "tiny.csv"
    ds.save_csv(path)
    cfg = _write_cfg(tmp_path)
    assert main(["train", "--config", cfg, "--dataset", str(path),
                 "--out", str(tmp_path / "t")]) == 2


def test_bench_csv(tmp_path):
    cfg = _write_cfg(tmp_path, bench={"virtual_seconds": 2.0, "repetitions": 1})
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg, "--counts", "1,2", "--out", str(out)]) == 0
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
