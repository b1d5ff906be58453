"""Byte-identity gate: artifacts of fixed-seed CLI runs against frozen digests.

Every artifact below is deterministic in (config, seed), so a refactor that
keeps behaviour keeps each file byte for byte. The SHA-256 digests were
recorded before the co-simulation loop was deduplicated (mission on top of
the policy step, one pause, one steering formula, one source of config
defaults) and must not be re-recorded for a change meant to keep behaviour.
They hold for one numpy build and CPU family (numpy 2.4, x86-64); a
different floating-point stack may round differently.
"""

import hashlib
import json

import pytest

from skycell.cli import main

SEED = "7"

GOLDEN = {
    "run-AllInLoop/episode.jsonl": "5e170f346df2251ea10eb225f4f540354a986c91bdcce59bd67858f9bbbf5028",
    "run-Mob3dCommInLoop/episode.jsonl": "5e170f346df2251ea10eb225f4f540354a986c91bdcce59bd67858f9bbbf5028",
    "run-AiCommInLoop/episode.jsonl": "5e170f346df2251ea10eb225f4f540354a986c91bdcce59bd67858f9bbbf5028",
    "run-random/episode.jsonl": "0bb32675cc8e5434213e145139dbd6ed056e78f6671cabc58c887e6273afc41c",
    "dataset/dataset.csv": "5399a0ab11e12dba92b3b3a0af4c925f707ffb9cb00acb19446c94a560743367",
    "train/model.json": "a47584829be979b4600a9ecb490eb359d9926c5a080a183fae3a5351e18ff029",
    "train/topk_accuracy.csv": "50c41e19579419b5829d3673733e70502b1436aaed76eaad0969092d3cbab250",
    "mission-random/episode.jsonl": "a80062ab15d58f6cd81feab51de491e7cf70d63832308bdbcc0fc01e5111f858",
    "mission-random/mission.json": "3333c0fab7872142a91b48bb47ac0c1f0d3cf7344c563fd274b597d40d9d5369",
    "mission-random/rescue_curve.csv": "82f020282ac8da88e46e779b35b30d1d8fd72c2cc52407d05e9798f1575e4cff",
    "mission-oracle/episode.jsonl": "29bfcc3c020ecb1abc48344921926685b7ca6c5bc650d2ac5a9481e282d467e9",
    "mission-oracle/mission.json": "d157684c8e2e29d5819e083f280429bfe3d55ee38acfb87b5ce8539aa1fe2b45",
    "mission-oracle/rescue_curve.csv": "82f020282ac8da88e46e779b35b30d1d8fd72c2cc52407d05e9798f1575e4cff",
    "mission-tree/episode.jsonl": "9367e6cdab24f14b202943ce5598dd1cc285280158c2967301d1f96927e1b759",
    "mission-tree/mission.json": "91db70de5c7e6bdc5cd3f768439842ca1450d3c769eabcc24a8310365e6997ad",
    "mission-tree/rescue_curve.csv": "82f020282ac8da88e46e779b35b30d1d8fd72c2cc52407d05e9798f1575e4cff",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("goldens")

    def cli(command, out, *extra, category=None):
        argv = [command, "--seed", SEED, "--out", str(root / out), *extra]
        if category is not None:
            cfg = root / f"{category}.json"
            cfg.write_text(json.dumps({"episode": {"category": category}}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 0

    cli("run", "run-AllInLoop", category="AllInLoop")
    cli("run", "run-Mob3dCommInLoop", category="Mob3dCommInLoop")
    cli("run", "run-AiCommInLoop", "--replay", str(root / "run-AllInLoop" / "episode.jsonl"),
        category="AiCommInLoop")
    cli("run", "run-random", "--policy", "random")
    cli("dataset", "dataset", "--episodes", "3")
    cli("train", "train", "--dataset", str(root / "dataset" / "dataset.csv"))
    for policy in ("random", "oracle"):
        cli("mission", f"mission-{policy}", "--policy", policy)
    cli("mission", "mission-tree", "--policy", "tree", "--model", str(root / "train" / "model.json"))
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_matches_golden(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name], f"{name} changed"
