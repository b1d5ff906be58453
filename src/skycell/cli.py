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
    POLICY_KINDS,
    TOPK_GRID,
    BeamDataset,
    DecisionTreeModel,
    Policy,
    filter_nlos,
    split_dataset,
    topk_accuracy,
    train_tree,
)
from .blueprint import (DATASET_MAX_SNAPSHOTS, MobilityModule, PolicyModule, ReplayModule,
                        generate_dataset_rows, loop_modules)
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


def _overrides(args) -> dict:
    """The config key of every override flag that was given, to its value.

    A path flag is stored resolved, so the manifest re-runs from any directory.
    """
    given = {dest: vars(args).get(dest) for dest in _FLAG_KEYS}
    return {
        _FLAG_KEYS[dest]: str(Path(value).resolve()) if dest in ("replay", "model") else value
        for dest, value in given.items()
        if value is not None  # an absent flag leaves its key alone; a 0 is a value
    }


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
            raise ConfigError("policy.kind tree needs policy.model_path (--model PATH), "
                              f"got {json.dumps(model_path)}")
        arrays = cfgmod.comms_config(cfg)
        n_pairs = arrays.tx_upa.n_elements * arrays.rx_upa.n_elements
        model = cfgmod.read_input("cannot read model", model_path,
                                  lambda path: DecisionTreeModel.load(path, n_pairs, "arrays"))
    return Policy(kind=kind, model=model)


def _episode_config(cfg: dict, **changes) -> orch.EpisodeConfig:
    return orch.EpisodeConfig(**{**cfg["episode"], **changes})


def _all_in_loop_only(cfg: dict, command: str) -> None:
    """A command that flies AllInLoop alone refuses a config asking for another category."""
    category = cfg["episode"]["category"]
    if category != orch.ALL_IN_LOOP:
        raise ConfigError(f"{command} flies episode.category {orch.ALL_IN_LOOP} only, "
                          f"got episode.category {category}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
# Each command reads its settings from the resolved config alone (args only for
# the input files and --counts), makes out just before its first write (so a check
# that fails leaves no directory), writes into out, and returns manifest extras.


def cmd_run(cfg: dict, args, out: Path) -> dict:
    seed = cfg["episode"]["seed"]
    scene = cfgmod.load_scene(cfg)
    comms_cfg = cfgmod.comms_config(cfg)
    ep = _episode_config(cfg)
    replay_path = None
    if cfg["replay_log"] and ep.category != orch.AI_COMM_IN_LOOP:
        raise ConfigError(f"replay_log (--replay PATH) is read only in episode.category "
                          f"{orch.AI_COMM_IN_LOOP}, got episode.category {ep.category}")
    if ep.category == orch.AI_COMM_IN_LOOP:
        replay_path = cfg["replay_log"]
        if not replay_path:
            raise ConfigError(f"episode.category {ep.category} needs replay_log (--replay PATH), "
                              f"got {json.dumps(replay_path)}")
        recorded = cfgmod.read_input("cannot read replay log", replay_path,
                                     orch.EpisodeLog.read_jsonl)
        if not recorded.records:
            raise ConfigError(f"replay log {replay_path} has no records")
        for k, record in enumerate(recorded.records):  # replayed at the recording's clock
            if record.t != k * ep.sampling_interval:
                raise ConfigError(
                    f"replay log {replay_path} record {k} has t {record.t}, not {k} times "
                    f"episode.sampling_interval {ep.sampling_interval}")
        source = ReplayModule(recorded.records)
        ep = _episode_config(cfg, n_snapshots=min(ep.n_snapshots, len(recorded.records)))
    else:
        plan = cfgmod.seeded_route(cfg, cfgmod.stream_seed(seed, "mobility", 0))
        source = MobilityModule({"uav0": plan}, ep.sampling_interval)

    ai = model_path = None
    if "ai" in orch.category_wiring(ep.category):
        def ai(comms):
            return PolicyModule(_policy(cfg), comms, cfgmod.rng_for(seed, "random-policy"))

        model_path = _model_path(cfg)
    log = orch.run_episode(ep, loop_modules(ep.category, scene, comms_cfg, source, ai=ai))
    out.mkdir(parents=True, exist_ok=True)
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
    cfg["episode"]["category"] = orch.MOB3D_COMM_IN_LOOP  # the category the flights run in
    cfg["episode"]["n_snapshots"] = DATASET_MAX_SNAPSHOTS  # the cap each flight runs to
    seed, interval = cfg["episode"]["seed"], cfg["episode"]["sampling_interval"]
    n_episodes = cfg["dataset"]["episodes"]
    scene = cfgmod.load_scene(cfg)
    comms_cfg = cfgmod.comms_config(cfg)

    rows = []
    for e in range(n_episodes):
        plan = cfgmod.seeded_route(cfg, cfgmod.stream_seed(seed, "mobility", e))
        rows.extend(generate_dataset_rows(scene, plan, comms_cfg, sampling_interval=interval))
    dataset = BeamDataset.from_rows(rows)
    n_nlos = int(sum(1 for c in dataset.los if c == "NLOS"))
    if n_nlos == 0:
        print("warning: dataset contains no NLOS rows", file=sys.stderr)
    out.mkdir(parents=True, exist_ok=True)
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
    full = filter_nlos(cfgmod.read_input("cannot read dataset", args.dataset, BeamDataset.load_csv))
    if len(full) < 2:
        raise ConfigError("dataset too small to split after NLOS filtering")
    d = cfg["dataset"]
    train, validation = split_dataset(
        full, train_frac=d["train_frac"], seed=cfgmod.stream_seed(cfg["episode"]["seed"], "split")
    )
    model = train_tree(train, max_depth=d["max_depth"], min_leaf=d["min_leaf"])

    grids = {"validation": validation}
    if args.test_dataset:
        test = filter_nlos(cfgmod.read_input("cannot read test dataset", args.test_dataset,
                                             BeamDataset.load_csv))
        if len(test):
            grids["test"] = test
    table = _topk_table(model, grids)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "model.json")
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
    ds = cfgmod.read_input("cannot read dataset", args.dataset, BeamDataset.load_csv)
    model = cfgmod.read_input(
        "cannot read model", cfg["policy"]["model_path"],
        lambda path: DecisionTreeModel.load(path, ds.gains.shape[1], "dataset"))
    ds = filter_nlos(ds)
    if len(ds) == 0:
        raise ConfigError("evaluation dataset is empty after filtering")
    table = _topk_table(model, {"eval": ds})
    out.mkdir(parents=True, exist_ok=True)
    _write_table(table, out / "topk_accuracy.csv")
    for row in table:
        print(f"top-{row['k']:<3d} eval={row['eval']:.4f}")
    return {"rows": len(ds), **_inputs(model=cfg["policy"]["model_path"], dataset=args.dataset)}


def cmd_mission(cfg: dict, args, out: Path) -> dict:
    _all_in_loop_only(cfg, "mission")
    episode = cfg["episode"]
    seed = episode["seed"]
    scene = cfgmod.load_scene(cfg)
    comms_cfg = cfgmod.comms_config(cfg)
    policy = _policy(cfg)
    mission_cfg = cfgmod.mission_config(cfg)
    plan = cfgmod.seeded_route(cfg, cfgmod.stream_seed(seed, "mission-route"))
    episode["n_snapshots"] = mission_cfg.max_snapshots  # the cap the mission runs to
    ep = _episode_config(cfg)
    metrics, log = run_mission(
        scene,
        plan,
        mission_cfg,
        ep,
        policy=policy,
        comms_cfg=comms_cfg,
        rng=cfgmod.rng_for(seed, "random-policy"),
    )
    out.mkdir(parents=True, exist_ok=True)
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
    _all_in_loop_only(cfg, "bench")
    scene = cfgmod.load_scene(cfg)
    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --counts: {exc}") from exc
    if not counts or any(c < 1 for c in counts):
        raise ConfigError("--counts needs positive integers")
    reports = bench_mod.run_benchmark(
        scene,
        counts,
        virtual_seconds=cfg["bench"]["virtual_seconds"],
        sampling_interval=cfg["episode"]["sampling_interval"],
        base_plan=cfgmod.base_route(cfg),
        comms_cfg=cfgmod.comms_config(cfg),
        repetitions=cfg["bench"]["repetitions"],
        seed=cfg["episode"]["seed"],
    )
    cfg["episode"]["n_snapshots"] = reports[0].n_snapshots  # the snapshots each count flew
    out.mkdir(parents=True, exist_ok=True)
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
    override(p, "--policy", "beam-pair policy", choices=POLICY_KINDS)
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
    override(p, "--policy", "beam-pair policy", choices=POLICY_KINDS)
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
        cfg = cfgmod.load_config(args.config, _overrides(args))
        out = Path(args.out)
        extra = args.func(cfg, args, out)
        cfgmod.write_manifest(out, args.command, cfg, extra)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except orch.EpisodeAbort as exc:
        print(f"aborted: {exc.diagnostic}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
