import json

import pytest

from skycell.config import (
    ConfigError,
    comms_config,
    default_config,
    load_config,
    load_scene,
    mission_config,
)

SCENE = {
    "bounds": {"length": 100.0, "width": 80.0},
    "tx": {"position": [50.0, 40.0, 30.0], "azimuth_deg": 0.0, "downtilt_deg": 30.0},
    "buildings": [{"min": [10.0, 10.0, 0.0], "max": [20.0, 20.0, 15.0]}],
}


def _load(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return load_config(path)


def test_user_values_merge_over_every_default(tmp_path):
    doc = {"comms": {"tx_power_dbm": 20.0}, "mobility": {"route": {"speed_mps": 2.0}}}
    cfg = _load(tmp_path, doc)
    defaults = default_config()
    assert cfg["comms"] == dict(defaults["comms"], tx_power_dbm=20.0)
    assert cfg["mobility"]["route"] == dict(defaults["mobility"]["route"], speed_mps=2.0)
    assert cfg["mission"] == defaults["mission"]
    assert comms_config(cfg).tx_power_dbm == 20.0


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"mision": {}}, "'mision'"),
        ({"comms": {"tx_powr_dbm": 30.0}}, "'comms.tx_powr_dbm'"),
        ({"mobility": {"route": {"speed": 2.0}}}, "'mobility.route.speed'"),
    ],
)
def test_unknown_key_rejected_with_its_path(tmp_path, doc, path):
    with pytest.raises(ConfigError, match=path):
        _load(tmp_path, doc)


@pytest.mark.parametrize(
    "doc", [{"mission": None}, {"episode": 5}, {"mobility": {"route": []}}, [1]]
)
def test_non_object_where_a_section_belongs_rejected(tmp_path, doc):
    with pytest.raises(ConfigError, match="must be a JSON object"):
        _load(tmp_path, doc)


def test_scene_is_a_path_or_a_scene_dict(tmp_path):
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(json.dumps(SCENE))
    from_path = load_scene(_load(tmp_path, {"scene": str(scene_file)}))
    from_dict = load_scene(_load(tmp_path, {"scene": SCENE}))
    for scene in (from_path, from_dict):
        assert (scene.length, scene.width, len(scene.buildings)) == (100.0, 80.0, 1)
    assert len(load_scene(default_config()).buildings) == 24


def test_mission_config_follows_every_mission_key(tmp_path):
    doc = {
        "payload_bytes": 1e6,
        "n_targets": 2,
        "detection_radius_m": 7.0,
        "psnr_detect_threshold_db": 12.39,
        "min_detect_throughput_mbps": 1e6,
        "target_fractions": [0.2, 0.8],
        "fixed_wait": False,
        "max_snapshots": 50,
    }
    m = mission_config(_load(tmp_path, {"mission": doc}))
    assert {key: getattr(m, key) for key in doc} == dict(doc, target_fractions=(0.2, 0.8))
