"""Command-line entry point: run / dataset / train / eval / mission / bench.

Exit codes: 0 success, 1 runtime failure inside a simulation, 2 usage or
configuration errors. Each override flag writes its config key, every
command reads its settings from that resolved config alone, and the manifest
next to its outputs records that config and the seed, so a run can be
reproduced exactly from it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from . import config as cfgmod
from . import orchestrator as orch
from .ai import (
    TOPK_GRID,
    BeamDataset,
    DecisionTreeModel,
    Policy,
    filter_nlos,
    split_dataset,
    topk_accuracy,
    train_tree,
)
from .blueprint import CommsModule, MobilityModule, PolicyModule, ReplayModule, generate_dataset_rows
from .config import ConfigError
from .mission import DEGRADATION_CEILING_MBPS, estimate_rescue_curve, run_mission


# argparse dest of each override flag -> the config key it writes
_FLAG_KEYS = {
    "seed": "episode.seed",
    "replay": "replay_log",
    "policy": "policy.kind",
    "model": "policy.model_path",
    "episodes": "dataset.episodes",
    "max_depth": "dataset.max_depth",
}


def _load_config(args) -> dict:
    """Defaults, then the --config JSON, then every override flag that was given.

    A path flag is stored resolved, so the manifest re-runs from any directory.
    """
    try:
        cfg = cfgmod.load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for dest, key in _FLAG_KEYS.items():
        value = vars(args).get(dest)
        if value is not None:  # an absent flag leaves its key alone; a 0 is a value
            if dest in ("replay", "model"):
                value = str(Path(value).resolve())
            *sections, leaf = key.split(".")
            node = cfg
            for section in sections:
                node = node[section]
            node[leaf] = value
    return cfg


def _seed(cfg: dict) -> int:
    return cfgmod.strict_leaf(cfg, "episode.seed")


def _inputs(**paths) -> dict:
    """Manifest entry for the input files a command read: resolved path and SHA-256.

    A None path (an input the command did not read) is left out.
    """
    files = {}
    for name, path in paths.items():
        if path is not None:
            path = Path(path).resolve()
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            files[name] = {"path": str(path), "sha256": digest}
    return {"inputs": files}


def _scene_path(cfg: dict):
    """The scene's file when the config gives it as a path, else None."""
    source = cfg["scene"]
    return source if isinstance(source, str) and source != "builtin" else None


def _model_path(cfg: dict):
    """The tree model's file when the policy reads one, else None."""
    return cfg["policy"]["model_path"] if cfg["policy"]["kind"] == "tree" else None


def _policy(cfg: dict) -> Policy:
    kind, model_path = cfg["policy"]["kind"], cfg["policy"]["model_path"]
    model = None
    if kind == "tree":
        if not model_path:
            raise ConfigError("tree policy requires --model PATH (policy.model_path)")
        try:
            model = DecisionTreeModel.load(model_path)
        except OSError as exc:
            raise ConfigError(f"cannot read model: {exc}") from exc
    return Policy(kind=kind, model=model)


def _episode_config(cfg: dict, category: str | None = None, n_snapshots: int | None = None):
    if n_snapshots is None:
        n_snapshots = cfgmod.strict_leaf(cfg, "episode.n_snapshots")
    return orch.EpisodeConfig(
        n_snapshots=n_snapshots,
        sampling_interval=cfgmod.strict_leaf(cfg, "episode.sampling_interval", float),
        category=cfg["episode"]["category"] if category is None else category,
        seed=_seed(cfg),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
# Each command reads its settings from the resolved config alone (args only for
# the input files and --counts), writes into out, and returns manifest extras.


def cmd_run(cfg: dict, args, out: Path) -> dict:
    seed = _seed(cfg)
    scene = cfgmod.load_scene(cfg)
    comms_cfg = cfgmod.comms_config(cfg)
    ep = _episode_config(cfg)
    modules = []
    replay_path = None
    mobility = None
    if ep.category == orch.AI_COMM_IN_LOOP:
        replay_path = cfg["replay_log"]
        if not replay_path:
            raise ConfigError("AiCommInLoop needs --replay pointing at a recorded episode log")
        try:
            recorded = orch.EpisodeLog.read_jsonl(replay_path)
        except OSError as exc:
            raise ConfigError(f"cannot read replay log: {exc}") from exc
        if not recorded.records:
            raise ConfigError(f"replay log {replay_path} has no records")
        modules.append(ReplayModule(recorded.records))
        ep = _episode_config(cfg, n_snapshots=min(ep.n_snapshots, len(recorded.records)))
    else:
        plan = cfgmod.seeded_route(cfg, cfgmod.stream_seed(seed, "mobility", 0))
        mobility = MobilityModule({"uav0": plan}, ep.sampling_interval)
        modules.append(mobility)

    comms = CommsModule(
        scene,
        comms_cfg,
        publish_throughput_in_step=ep.category == orch.MOB3D_COMM_IN_LOOP,
        mobility=mobility,
    )
    modules.append(comms)
    model_path = None
    if ep.category in (orch.ALL_IN_LOOP, orch.AI_COMM_IN_LOOP):
        modules.append(PolicyModule(_policy(cfg), comms, cfgmod.rng_for(seed, "random-policy")))
        model_path = _model_path(cfg)

    log = orch.run_episode(ep, modules)
    log.write_jsonl(out / "episode.jsonl")
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "n_snapshots": len(log.records),
                "virtual_duration_s": len(log.records) * ep.sampling_interval,
                "wall_clock_s": log.wall_clock_s,
                "module_step_s": log.timings,
            },
            fh,
            indent=2,
        )
    print(f"episode complete: {len(log.records)} snapshots -> {out / 'episode.jsonl'}")
    return _inputs(scene=_scene_path(cfg), replay_log=replay_path, model=model_path)


def cmd_dataset(cfg: dict, args, out: Path) -> dict:
    seed = _seed(cfg)
    scene = cfgmod.load_scene(cfg)
    comms_cfg = cfgmod.comms_config(cfg)
    ep = _episode_config(cfg)
    n_episodes = cfgmod.strict_leaf(cfg, "dataset.episodes")
    if n_episodes < 1:
        raise ConfigError(f"episodes must be >= 1, got {n_episodes}")

    rows = []
    for e in range(n_episodes):
        plan = cfgmod.seeded_route(cfg, cfgmod.stream_seed(seed, "mobility", e))
        rows.extend(
            generate_dataset_rows(scene, plan, comms_cfg, sampling_interval=ep.sampling_interval)
        )
    dataset = BeamDataset.from_rows(rows)
    n_nlos = int(sum(1 for c in dataset.los if c == "NLOS"))
    if n_nlos == 0:
        print("warning: dataset contains no NLOS rows", file=sys.stderr)
    path = out / "dataset.csv"
    dataset.save_csv(path)
    print(f"dataset: {len(dataset)} rows ({n_nlos} NLOS) over {n_episodes} flights -> {path}")
    return {"rows": len(dataset), **_inputs(scene=_scene_path(cfg))}


def _topk_table(model, grids: dict) -> list:
    table = []
    for k in (k for k in TOPK_GRID if k <= model.n_classes):
        row = {"k": k}
        for name, ds in grids.items():
            row[name] = topk_accuracy(model, ds, k)
        table.append(row)
    return table


def _write_table(table: list, path: Path) -> None:
    names = [k for k in table[0] if k != "k"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["k"] + [f"{n}_acc" for n in names]) + "\n")
        for row in table:
            fh.write(",".join([str(row["k"])] + [repr(row[n]) for n in names]) + "\n")


def cmd_train(cfg: dict, args, out: Path) -> dict:
    try:
        full = filter_nlos(BeamDataset.load_csv(args.dataset))
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    if len(full) < 2:
        raise ConfigError("dataset too small to split after NLOS filtering")
    train_frac = cfgmod.strict_leaf(cfg, "dataset.train_frac", float)
    train, validation = split_dataset(
        full, train_frac=train_frac, seed=cfgmod.stream_seed(_seed(cfg), "split")
    )
    max_depth = cfgmod.strict_leaf(cfg, "dataset.max_depth")
    if max_depth < 1:
        raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
    min_leaf = cfgmod.strict_leaf(cfg, "dataset.min_leaf")
    if min_leaf < 1:
        raise ConfigError(f"dataset.min_leaf must be >= 1, got {min_leaf}")
    model = train_tree(train, max_depth=max_depth, min_leaf=min_leaf)
    model.save(out / "model.json")

    grids = {"validation": validation}
    if args.test_dataset:
        try:
            test = filter_nlos(BeamDataset.load_csv(args.test_dataset))
        except OSError as exc:
            raise ConfigError(f"cannot read test dataset: {exc}") from exc
        if len(test):
            grids["test"] = test
    table = _topk_table(model, grids)
    _write_table(table, out / "topk_accuracy.csv")
    for row in table:
        cells = "  ".join(f"{n}={row[n]:.4f}" for n in row if n != "k")
        print(f"top-{row['k']:<3d} {cells}")
    print(f"model -> {out / 'model.json'}")
    return {
        "train_rows": len(train),
        "validation_rows": len(validation),
        **_inputs(dataset=args.dataset, test_dataset=args.test_dataset),
    }


def cmd_eval(cfg: dict, args, out: Path) -> dict:
    try:
        model = DecisionTreeModel.load(cfg["policy"]["model_path"])
        ds = filter_nlos(BeamDataset.load_csv(args.dataset))
    except OSError as exc:
        raise ConfigError(f"cannot read inputs: {exc}") from exc
    if len(ds) == 0:
        raise ConfigError("evaluation dataset is empty after filtering")
    table = _topk_table(model, {"eval": ds})
    _write_table(table, out / "topk_accuracy.csv")
    for row in table:
        print(f"top-{row['k']:<3d} eval={row['eval']:.4f}")
    return {"rows": len(ds), **_inputs(model=cfg["policy"]["model_path"], dataset=args.dataset)}


def cmd_mission(cfg: dict, args, out: Path) -> dict:
    seed = _seed(cfg)
    scene = cfgmod.load_scene(cfg)
    comms_cfg = cfgmod.comms_config(cfg)
    policy = _policy(cfg)
    mission_cfg = cfgmod.mission_config(cfg)
    plan = cfgmod.seeded_route(cfg, cfgmod.stream_seed(seed, "mission-route"))
    ep = _episode_config(cfg, category=orch.ALL_IN_LOOP, n_snapshots=mission_cfg.max_snapshots)
    metrics, log = run_mission(
        scene,
        plan,
        mission_cfg,
        ep,
        policy=policy,
        comms_cfg=comms_cfg,
        rng=cfgmod.rng_for(seed, "random-policy"),
    )
    log.write_jsonl(out / "episode.jsonl")
    with open(out / "mission.json", "w", encoding="utf-8") as fh:
        json.dump(metrics.to_dict(), fh, indent=2)
    curve = estimate_rescue_curve(
        mission_cfg.payload_bytes, range(1, int(DEGRADATION_CEILING_MBPS) + 1)
    )
    with open(out / "rescue_curve.csv", "w", encoding="utf-8") as fh:
        fh.write("throughput_mbps,wait_s\n")
        for tput, wait in curve:
            fh.write(f"{tput},{wait!r}\n")
    print(
        f"policy={policy.kind} total_time_s={metrics.total_time_s:.2f} "
        f"rescued={metrics.rescued}/{metrics.n_targets}"
    )
    return _inputs(scene=_scene_path(cfg), model=_model_path(cfg))


def cmd_bench(cfg: dict, args, out: Path) -> dict:
    scene = cfgmod.load_scene(cfg)
    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --counts: {exc}") from exc
    if not counts or any(c < 1 for c in counts):
        raise ConfigError("--counts needs positive integers")
    repetitions = cfgmod.strict_leaf(cfg, "bench.repetitions")
    if repetitions < 1:
        raise ConfigError(f"bench.repetitions must be >= 1, got {repetitions}")
    virtual_seconds = cfgmod.strict_leaf(cfg, "bench.virtual_seconds", float)
    if not virtual_seconds > 0:
        raise ConfigError(f"bench.virtual_seconds must be > 0, got {virtual_seconds}")
    reports = bench_mod.run_benchmark(
        scene,
        counts,
        virtual_seconds=virtual_seconds,
        sampling_interval=cfgmod.strict_leaf(cfg, "episode.sampling_interval", float),
        base_plan=cfgmod.base_route(cfg),
        comms_cfg=cfgmod.comms_config(cfg),
        repetitions=repetitions,
        seed=_seed(cfg),
    )
    bench_mod.write_csv(reports, out / "bench.csv")
    bench_mod.write_json(reports, out / "bench.json")
    for r in reports:
        if r.error:
            print(f"uavs={r.n_uavs} FAILED: {r.error}")
        else:
            print(f"uavs={r.n_uavs} Tp={r.tp_s:.3f}s (min {r.tp_min_s:.3f}s) "
                  f"Tv={r.tv_s:.1f}s rtf={r.rtf:.4f}")
    return {"counts": counts, **_inputs(scene=_scene_path(cfg))}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skycell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def override(p, flag, help, **kwargs):
        key = _FLAG_KEYS[flag[2:].replace("-", "_")]
        p.add_argument(flag, default=None, help=f"{help}; sets config {key}", **kwargs)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config (merged over defaults)")
        override(p, "--seed", "64-bit master seed", type=int)
        p.add_argument("--out", default="skycell_out", help="output directory")

    p = sub.add_parser("run", help="run one episode in the configured category")
    common(p)
    override(p, "--replay", "recorded episode log for AiCommInLoop")
    override(p, "--policy", "beam-pair policy", choices=["random", "tree", "oracle"])
    override(p, "--model", "tree model JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("dataset", help="generate a beam-selection dataset CSV")
    common(p)
    override(p, "--episodes", "number of randomized flights", type=int)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train the decision tree and report top-K accuracy")
    common(p)
    p.add_argument("--dataset", required=True, help="training dataset CSV")
    p.add_argument("--test-dataset", default=None, help="separate test-trajectory CSV")
    override(p, "--max-depth", "deepest split of the tree", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    common(p)
    override(p, "--model", "tree model JSON", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mission", help="fly the search-and-rescue mission")
    common(p)
    override(p, "--policy", "beam-pair policy", choices=["random", "tree", "oracle"])
    override(p, "--model", "tree model JSON (for --policy tree)")
    p.set_defaults(func=cmd_mission)

    p = sub.add_parser("bench", help="real-time-factor benchmark over UAV counts")
    common(p)
    p.add_argument("--counts", default="1,3,5,10", help="comma-separated UAV counts")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    """Resolve the config, run the command into --out, then write its manifest."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        seed = _seed(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        extra = args.func(cfg, args, out)
        cfgmod.write_manifest(out, args.command, seed, cfg, extra)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except orch.EpisodeAbort as exc:
        print(f"aborted: {exc.diagnostic}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
