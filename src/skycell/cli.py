"""Command-line entry point: run / dataset / train / eval / mission / bench.

Exit codes: 0 success, 1 runtime failure inside a simulation, 2 usage or
configuration errors. Every command writes a manifest (resolved config +
seed) next to its outputs so a run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

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
from .mission import estimate_rescue_curve, run_mission


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(args) -> dict:
    try:
        cfg = cfgmod.load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if args.seed is not None:
        cfg["episode"]["seed"] = args.seed
    return cfg


def _seed(cfg: dict) -> int:
    return int(cfg["episode"]["seed"])


def _policy(cfg: dict, kind: str | None, model_path: str | None) -> Policy:
    kind = kind or cfg["policy"]["kind"]
    model_path = model_path or cfg["policy"]["model_path"]
    if kind not in ("random", "tree", "oracle"):
        raise ConfigError(f"unknown policy {kind!r}")
    model = None
    if kind == "tree":
        if not model_path:
            raise ConfigError("tree policy requires --model PATH")
        try:
            model = DecisionTreeModel.load(model_path)
        except OSError as exc:
            raise ConfigError(f"cannot read model: {exc}") from exc
    return Policy(kind=kind, model=model)


def _episode_config(cfg: dict, category: str | None = None, n_snapshots: int | None = None):
    e = cfg["episode"]
    return orch.EpisodeConfig(
        n_snapshots=n_snapshots or int(e["n_snapshots"]),
        sampling_interval=float(e["sampling_interval"]),
        category=category or e["category"],
        seed=_seed(cfg),
        barrier_timeout_s=float(e["barrier_timeout_s"]),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _load_config(args)
    seed = _seed(cfg)
    out = _out_dir(args)
    scene = cfgmod.load_scene(cfg)
    comms_cfg = cfgmod.comms_config(cfg)
    ep = _episode_config(cfg)

    if cfg["mobility"]["randomize_waypoints"]:
        plan = cfgmod.seeded_route(cfg, cfgmod.stream_seed(seed, "mobility", 0))
    else:
        plan = cfgmod.base_route(cfg)

    modules = []
    if ep.category == orch.AI_COMM_IN_LOOP:
        replay_path = args.replay or cfg["replay_log"]
        if not replay_path:
            raise ConfigError("AiCommInLoop needs --replay pointing at a recorded episode log")
        try:
            recorded = orch.EpisodeLog.read_jsonl(replay_path)
        except OSError as exc:
            raise ConfigError(f"cannot read replay log: {exc}") from exc
        modules.append(ReplayModule(recorded.records))
        ep = _episode_config(cfg, n_snapshots=min(ep.n_snapshots, len(recorded.records)),
                             category=ep.category)
    else:
        modules.append(MobilityModule({"uav0": plan}, ep.sampling_interval))

    comms = CommsModule(
        scene, comms_cfg, publish_throughput_in_step=ep.category == orch.MOB3D_COMM_IN_LOOP
    )
    modules.append(comms)
    if ep.category in (orch.ALL_IN_LOOP, orch.AI_COMM_IN_LOOP):
        policy = _policy(cfg, getattr(args, "policy", None), getattr(args, "model", None))
        modules.append(PolicyModule(policy, comms, cfgmod.rng_for(seed, "random-policy")))

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
    cfgmod.write_manifest(out, "run", seed, cfg)
    print(f"episode complete: {len(log.records)} snapshots -> {out / 'episode.jsonl'}")
    return 0


def cmd_dataset(args) -> int:
    cfg = _load_config(args)
    seed = _seed(cfg)
    out = _out_dir(args)
    scene = cfgmod.load_scene(cfg)
    comms_cfg = cfgmod.comms_config(cfg)
    ep = _episode_config(cfg)
    n_episodes = args.episodes or int(cfg["dataset"]["episodes"])
    if n_episodes < 1:
        raise ConfigError("--episodes must be >= 1")

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
    cfgmod.write_manifest(out, "dataset", seed, cfg, {"episodes": n_episodes, "rows": len(dataset)})
    print(f"dataset: {len(dataset)} rows ({n_nlos} NLOS) over {n_episodes} flights -> {path}")
    return 0


def _topk_table(model, grids: dict) -> list:
    table = []
    for k in TOPK_GRID:
        row = {"k": k}
        for name, ds in grids.items():
            row[name] = topk_accuracy(model, ds, k)
        table.append(row)
    return table


def _maybe_filter(ds: BeamDataset, cfg: dict) -> BeamDataset:
    if cfg["dataset"]["filter_nlos"]:
        return filter_nlos(ds)
    return ds


def _write_table(table: list, path: Path) -> None:
    names = [k for k in table[0] if k != "k"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["k"] + [f"{n}_acc" for n in names]) + "\n")
        for row in table:
            fh.write(",".join([str(row["k"])] + [repr(row[n]) for n in names]) + "\n")


def cmd_train(args) -> int:
    cfg = _load_config(args)
    seed = _seed(cfg)
    out = _out_dir(args)
    try:
        full = BeamDataset.load_csv(args.dataset)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    full = _maybe_filter(full, cfg)
    if len(full) < 2:
        raise ConfigError("dataset too small to split after NLOS filtering")
    d = cfg["dataset"]
    train_frac = float(d["train_frac"])
    train, validation = split_dataset(
        full, train_frac=train_frac, seed=cfgmod.stream_seed(seed, "split")
    )
    max_depth = args.max_depth or int(d["max_depth"])
    min_leaf = int(d["min_leaf"])
    model = train_tree(train, max_depth=max_depth, min_leaf=min_leaf)
    model.save(out / "model.json")

    grids = {"validation": validation}
    if args.test_dataset:
        try:
            test = _maybe_filter(BeamDataset.load_csv(args.test_dataset), cfg)
        except OSError as exc:
            raise ConfigError(f"cannot read test dataset: {exc}") from exc
        if len(test):
            grids["test"] = test
    table = _topk_table(model, grids)
    _write_table(table, out / "topk_accuracy.csv")
    cfgmod.write_manifest(
        out, "train", seed, cfg,
        {"train_rows": len(train), "validation_rows": len(validation), "max_depth": max_depth},
    )
    for row in table:
        cells = "  ".join(f"{n}={row[n]:.4f}" for n in row if n != "k")
        print(f"top-{row['k']:<3d} {cells}")
    print(f"model -> {out / 'model.json'}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    try:
        model = DecisionTreeModel.load(args.model)
        ds = _maybe_filter(BeamDataset.load_csv(args.dataset), cfg)
    except OSError as exc:
        raise ConfigError(f"cannot read inputs: {exc}") from exc
    if len(ds) == 0:
        raise ConfigError("evaluation dataset is empty after filtering")
    table = _topk_table(model, {"eval": ds})
    _write_table(table, out / "topk_accuracy.csv")
    cfgmod.write_manifest(out, "eval", _seed(cfg), cfg, {"rows": len(ds)})
    for row in table:
        print(f"top-{row['k']:<3d} eval={row['eval']:.4f}")
    return 0


def cmd_mission(args) -> int:
    cfg = _load_config(args)
    seed = _seed(cfg)
    out = _out_dir(args)
    scene = cfgmod.load_scene(cfg)
    comms_cfg = cfgmod.comms_config(cfg)
    policy = _policy(cfg, args.policy, args.model)
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
    curve = estimate_rescue_curve(mission_cfg.payload_bytes, range(1, 91))
    with open(out / "rescue_curve.csv", "w", encoding="utf-8") as fh:
        fh.write("throughput_mbps,wait_s\n")
        for tput, wait in curve:
            fh.write(f"{tput},{wait!r}\n")
    cfgmod.write_manifest(out, "mission", seed, cfg, {"policy": policy.kind})
    print(
        f"policy={policy.kind} total_time_s={metrics.total_time_s:.2f} "
        f"rescued={metrics.rescued}/{metrics.n_targets}"
    )
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    seed = _seed(cfg)
    out = _out_dir(args)
    scene = cfgmod.load_scene(cfg)
    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --counts: {exc}") from exc
    if not counts or any(c < 1 for c in counts):
        raise ConfigError("--counts needs positive integers")
    b = cfg["bench"]
    reports = bench_mod.run_benchmark(
        scene,
        counts,
        virtual_seconds=float(b["virtual_seconds"]),
        sampling_interval=float(cfg["episode"]["sampling_interval"]),
        base_plan=cfgmod.base_route(cfg),
        comms_cfg=cfgmod.comms_config(cfg),
        repetitions=int(b["repetitions"]),
        seed=seed,
    )
    bench_mod.write_csv(reports, out / "bench.csv")
    bench_mod.write_json(reports, out / "bench.json")
    for r in reports:
        if r.error:
            print(f"uavs={r.n_uavs} FAILED: {r.error}")
        else:
            print(f"uavs={r.n_uavs} Tp={r.tp_s:.3f}s (min {r.tp_min_s:.3f}s) "
                  f"Tv={r.tv_s:.1f}s rtf={r.rtf:.4f}")
    cfgmod.write_manifest(out, "bench", seed, cfg, {"counts": counts})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skycell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config (merged over defaults)")
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed")
        p.add_argument("--out", default="skycell_out", help="output directory")

    p = sub.add_parser("run", help="run one episode in the configured category")
    common(p)
    p.add_argument("--replay", default=None, help="recorded episode log for AiCommInLoop")
    p.add_argument("--policy", choices=["random", "tree", "oracle"], default=None)
    p.add_argument("--model", default=None, help="tree model JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("dataset", help="generate a beam-selection dataset CSV")
    common(p)
    p.add_argument("--episodes", type=int, default=None, help="number of randomized flights")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train the decision tree and report top-K accuracy")
    common(p)
    p.add_argument("--dataset", required=True, help="training dataset CSV")
    p.add_argument("--test-dataset", default=None, help="separate test-trajectory CSV")
    p.add_argument("--max-depth", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mission", help="fly the search-and-rescue mission")
    common(p)
    p.add_argument("--policy", choices=["random", "tree", "oracle"], default=None)
    p.add_argument("--model", default=None, help="tree model JSON (for --policy tree)")
    p.set_defaults(func=cmd_mission)

    p = sub.add_parser("bench", help="real-time-factor benchmark over UAV counts")
    common(p)
    p.add_argument("--counts", default="1,3,5,10", help="comma-separated UAV counts")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except orch.EpisodeAbort as exc:
        print(f"aborted: {exc.diagnostic}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
