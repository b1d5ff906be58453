"""The three benchmark workloads, their correctness checks and output digests.

Each workload is built only from skycell's public entry points:
orchestrator.run_episode, the blueprint module classes with offset_plan and
generate_dataset_rows, mission.run_mission, the ai dataset/train/eval
functions and the config loaders. Calls go through module attributes
(``orch.run_episode``, ``ai.train_tree``) so the span recorder in spans.py can
wrap them from outside.

Every route and policy RNG derives from the workload seed. A pass records,
per operation, its wall time, the host and virtual time spent inside
run_episode and the host-speed scale; then the outputs its checks need.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
from skycell import ai
from skycell import blueprint
from skycell import config as cfgmod
from skycell import mission
from skycell import orchestrator as orch
from skycell.bus import Broker

WORKLOADS = ("swarm10", "dataset10", "mission_random")

SWARM_UAVS = 10
SWARM_SPACING_M = 3.0
# The 60 virtual second flight (120 snapshots at the shipped 0.5 s interval)
# runs as four consecutive episodes, each starting where the last one ended,
# so the host-speed kernel (calibrate.py) runs every ~0.7 s rather than once
# around one 3 s episode; with one episode the spread between runs was 9%.
SWARM_SEGMENTS = 4
SWARM_SEGMENT_SNAPSHOTS = 30
# Passes are sized in work, not in flights or missions, so that a pass does
# the same work for every seed. Seeded routes differ in length, and a
# random-policy rescue pause lasts 320 Mbit / throughput, so mission length
# varies several-fold between seeds. Flights and missions run back to back
# until the budget is spent; the last one is cut at the budget.
DATASET_SNAPSHOT_BUDGET = 1_500  # about ten flights; every snapshot is traced
# A snapshot whose UAV moved must be traced; at this commit that costs about
# five times more than a snapshot that reuses the cached sweep.
TRACED_SNAPSHOT_EXTRA_UNITS = 5
MISSION_WORK_BUDGET = 40_000  # snapshots + 5 x traced snapshots; about 24 missions


@dataclass
class Context:
    """Everything a pass needs that is loaded once per process."""

    cfg: dict
    scene: object
    comms_cfg: object
    sampling_interval: float
    mission_cfg: object
    out_dir: Path

    @classmethod
    def load(cls, out_dir: Path) -> "Context":
        cfg = cfgmod.load_config(None)
        m = cfg["mission"]
        mission_cfg = mission.MissionConfig(
            payload_bytes=float(m["payload_bytes"]),
            n_targets=int(m["n_targets"]),
            detection_radius_m=float(m["detection_radius_m"]),
            psnr_detect_threshold_db=float(m["psnr_detect_threshold_db"]),
            min_detect_throughput_mbps=float(m["min_detect_throughput_mbps"]),
            target_fractions=tuple(m["target_fractions"]),
            fixed_wait=bool(m["fixed_wait"]),
            max_snapshots=int(m["max_snapshots"]),
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        return cls(
            cfg=cfg,
            scene=cfgmod.load_scene(cfg),
            comms_cfg=cfgmod.comms_config(cfg),
            sampling_interval=float(cfg["episode"]["sampling_interval"]),
            mission_cfg=mission_cfg,
            out_dir=out_dir,
        )


class PassAborted(Exception):
    """An operation raised; the rest of the pass is skipped."""


class PassResult:
    """Operations of one pass and the outputs their checks need.

    An operation is an episode, flight, mission or pipeline stage. It fails
    when it raises or when the pass's output check fails. Each operation's
    wall time and run_episode host/virtual time is kept, in order.
    """

    def __init__(self, meter: "EpisodeMeter"):
        self.meter = meter
        self.ops = []  # (name, wall_s, host_s, virtual_s, host-speed scale)
        self._calibration = None
        self.raised = 0
        self.rejected = False
        self.errors = []
        self.outputs = {}

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return min(self.attempted, self.raised + int(self.rejected))

    def op(self, name: str, fn, *args, **kwargs):
        """Run and time one operation; a raise is recorded, then aborts the pass.

        The host-speed kernel runs before and after, outside the timed span.
        """
        meter = self.meter
        before = self._calibration or calibrate.point()
        h0, v0 = meter.host_s, meter.virtual_s
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.raised += 1
            self.errors.append(f"{name}: {exc!r}")
            raise PassAborted(name) from exc
        finally:
            wall = time.perf_counter() - t0
            self._calibration = calibrate.point()
            self.ops.append((
                name, wall, meter.host_s - h0, meter.virtual_s - v0,
                calibrate.scale(before, self._calibration),
            ))

    def reject(self, what: str) -> None:
        """An output check failed; the pass's outputs count as one failed operation."""
        self.rejected = True
        self.errors.append(what)


class EpisodeMeter:
    """Sums host and virtual seconds over every run_episode call.

    Installed as a thin wrapper on ``orchestrator.run_episode`` so that
    episodes run inside generate_dataset_rows and run_mission are counted.
    """

    def __init__(self):
        self.host_s = 0.0
        self.virtual_s = 0.0
        self._original = None

    def install(self) -> None:
        original = self._original = orch.run_episode

        def metered(config, *args, **kwargs):
            log = original(config, *args, **kwargs)
            self.host_s += log.wall_clock_s
            self.virtual_s += len(log.records) * config.sampling_interval
            return log

        orch.run_episode = metered

    def uninstall(self) -> None:
        orch.run_episode = self._original


# ---------------------------------------------------------------------------
# swarm10: ten UAVs fanned out over the base route, random policy
# ---------------------------------------------------------------------------


def _route_from(plan, distance_m: float):
    """The rest of a route after flying distance_m metres along it."""
    pts = plan.points
    for i in range(len(pts) - 1):
        leg = math.dist(pts[i], pts[i + 1])
        if distance_m < leg:
            f = distance_m / leg
            start = tuple(a + f * (b - a) for a, b in zip(pts[i], pts[i + 1]))
            return dataclasses.replace(plan, start=start, waypoints=tuple(pts[i + 1:-1]))
        distance_m -= leg
    return dataclasses.replace(plan, start=plan.end, waypoints=())


def _swarm_modules(ctx: Context, seed: int, k: int, sweeps: list):
    base = cfgmod.base_route(ctx.cfg)
    flown = k * SWARM_SEGMENT_SNAPSHOTS * ctx.sampling_interval * base.speed_mps
    route = _route_from(base, flown)
    plans = {
        f"uav{i}": blueprint.offset_plan(route, SWARM_SPACING_M * (i - (SWARM_UAVS - 1) / 2.0))
        for i in range(SWARM_UAVS)
    }
    mobility = blueprint.MobilityModule(plans, ctx.sampling_interval)
    comms = blueprint.CommsModule(
        ctx.scene, ctx.comms_cfg, sweep_hook=lambda t, ue_id, result: sweeps.append(result)
    )
    policy = blueprint.PolicyModule(
        ai.Policy(kind="random"), comms, cfgmod.rng_for(seed, "random-policy", k)
    )
    return [mobility, comms, policy]


def _swarm_segment(ctx: Context, seed: int, k: int, n_snapshots: int) -> dict:
    """Episode k of the flight, on a broker the benchmark also listens to."""
    broker = Broker()
    sub_decision = broker.subscribe(orch.DECISION_TOPIC)
    sub_tput = broker.subscribe(orch.THROUGHPUT_TOPIC)
    sweeps = []
    ep = orch.EpisodeConfig(
        n_snapshots=n_snapshots,
        sampling_interval=ctx.sampling_interval,
        category=orch.ALL_IN_LOOP,
        seed=seed,
    )
    log = orch.run_episode(ep, _swarm_modules(ctx, seed, k, sweeps), broker=broker)
    log.write_jsonl(ctx.out_dir / f"swarm10-episode-{k}.jsonl")
    return {
        "records": len(log.records),
        "decisions": sub_decision.drain(),
        "throughputs": sub_tput.drain(),
        "sweeps": sweeps,
    }


def run_swarm(ctx: Context, seed: int, res: PassResult) -> None:
    res.outputs = {
        "segments": [
            res.op(f"episode {k}", _swarm_segment, ctx, seed, k, SWARM_SEGMENT_SNAPSHOTS)
            for k in range(SWARM_SEGMENTS)
        ]
    }


def check_swarm(ctx: Context, res: PassResult) -> str:
    """Invariants of one swarm pass; returns the decision/throughput digest."""
    lines = []
    for k, segment in enumerate(res.outputs["segments"]):
        lines += _check_swarm_segment(ctx, res, k, segment)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _check_swarm_segment(ctx: Context, res: PassResult, k: int, out: dict) -> list:
    cap = ctx.comms_cfg.max_throughput_mbps
    ue_ids = {f"uav{i}" for i in range(SWARM_UAVS)}
    times = [j * ctx.sampling_interval for j in range(SWARM_SEGMENT_SNAPSHOTS)]
    if out["records"] != SWARM_SEGMENT_SNAPSHOTS:
        res.reject(f"swarm {k}: {out['records']} records, expected {SWARM_SEGMENT_SNAPSHOTS}")
    per_snapshot = {t: {"decision": {}, "throughput": {}} for t in times}
    for kind, msgs in (("decision", out["decisions"]), ("throughput", out["throughputs"])):
        for msg in msgs:
            doc = json.loads(msg.payload)
            slot = per_snapshot.get(msg.publish_time)
            if slot is None or doc["UE_Id"] in slot[kind]:
                res.reject(f"swarm {k}: stray or duplicate {kind} at t={msg.publish_time}")
                continue
            slot[kind][doc["UE_Id"]] = doc["pair"] if kind == "decision" else doc["throughput"]
    lines = []
    for t in times:
        slot = per_snapshot[t]
        if set(slot["decision"]) != ue_ids or set(slot["throughput"]) != ue_ids:
            res.reject(f"swarm {k}: snapshot t={t} lacks one decision and one throughput per UE")
            continue
        for ue in sorted(ue_ids):
            tput = slot["throughput"][ue]
            if not 0.0 <= tput <= cap:
                res.reject(f"swarm {k}: throughput {tput} outside [0, {cap}] for {ue} at t={t}")
            lines.append(f"{k} {t!r} {ue} {slot['decision'][ue]} {tput:.9e}")
    for result in out["sweeps"]:
        if result.best_pair != int(np.argmax(result.gains)):
            res.reject(f"swarm {k}: best_pair is not the argmax of the gains at {result.position}")
    return lines


# ---------------------------------------------------------------------------
# dataset10: seeded MOB3D flights, CSV round trip, training and top-K
# ---------------------------------------------------------------------------


def _flight_plan(ctx: Context, seed: int, e: int):
    return cfgmod.seeded_route(ctx.cfg, cfgmod.stream_seed(seed, "mobility", e))


def _flight(ctx: Context, seed: int, e: int, max_snapshots: int, meter: EpisodeMeter):
    """Dataset rows of one flight, and the snapshots it ran."""
    before = meter.virtual_s
    rows = blueprint.generate_dataset_rows(
        ctx.scene,
        _flight_plan(ctx, seed, e),
        ctx.comms_cfg,
        sampling_interval=ctx.sampling_interval,
        max_snapshots=max_snapshots,
    )
    return rows, round((meter.virtual_s - before) / ctx.sampling_interval)


def run_dataset(ctx: Context, seed: int, res: PassResult) -> None:
    d = ctx.cfg["dataset"]
    rows = []
    used = 0
    while used < DATASET_SNAPSHOT_BUDGET:
        e = res.attempted
        flight_rows, n = res.op(
            f"flight {e}", _flight, ctx, seed, e, DATASET_SNAPSHOT_BUDGET - used, res.meter
        )
        rows.extend(flight_rows)
        used += n
    csv_path = ctx.out_dir / "dataset.csv"
    model_path = ctx.out_dir / "model.json"
    dataset = ai.BeamDataset.from_rows(rows)
    res.op("csv write", dataset.save_csv, csv_path)
    loaded = res.op("csv read", ai.BeamDataset.load_csv, csv_path)

    def fit():
        nlos = ai.filter_nlos(loaded)
        train, validation = ai.split_dataset(
            nlos, train_frac=float(d["train_frac"]), seed=cfgmod.stream_seed(seed, "split")
        )
        model = ai.train_tree(train, max_depth=int(d["max_depth"]), min_leaf=int(d["min_leaf"]))
        model.save(model_path)
        return model, validation

    model, validation = res.op("train", fit)
    table = res.op("top-K", lambda: [[k, ai.topk_accuracy(model, validation, k)] for k in ai.TOPK_GRID])
    res.outputs = {
        "rows": rows,
        "dataset": dataset,
        "loaded": loaded,
        "csv_path": csv_path,
        "model_path": model_path,
        "topk": table,
    }


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_dataset(ctx: Context, res: PassResult) -> dict:
    out = res.outputs
    for pos, los, best, gains in out["rows"]:
        if best != int(np.argmax(gains)):
            res.reject(f"dataset: best_pair is not the argmax of the gains at {pos}")
            break
    ds, back = out["dataset"], out["loaded"]
    same = (
        len(ds) == len(back)
        and np.array_equal(ds.positions, back.positions)
        and list(ds.los) == list(back.los)
        and np.array_equal(ds.best_pair, back.best_pair)
        and np.array_equal(ds.gains, back.gains)
    )
    if not same:
        res.reject("dataset: load_csv(save_csv(ds)) does not round-trip")
    accs = [acc for _k, acc in out["topk"]]
    if any(b < a for a, b in zip(accs, accs[1:])):
        res.reject(f"dataset: top-K accuracy decreases in K: {accs}")
    return {
        "csv_sha256": _file_sha256(out["csv_path"]),
        "model_sha256": _file_sha256(out["model_path"]),
        "topk": out["topk"],
    }


# ---------------------------------------------------------------------------
# mission_random: rescue missions with the random policy
# ---------------------------------------------------------------------------


def _mission(ctx: Context, seed: int, i: int, n_snapshots: int):
    ep = orch.EpisodeConfig(
        n_snapshots=n_snapshots,
        sampling_interval=ctx.sampling_interval,
        category=orch.ALL_IN_LOOP,
        seed=seed,
    )
    return mission.run_mission(
        ctx.scene,
        cfgmod.seeded_route(ctx.cfg, cfgmod.stream_seed(seed, "mission-route", i)),
        ctx.mission_cfg,
        ep,
        policy=ai.Policy(kind="random"),
        comms_cfg=ctx.comms_cfg,
        rng=cfgmod.rng_for(seed, "random-policy", i),
    )


def _work_units(log) -> int:
    """Snapshots plus the extra cost of those that had to be traced (UAV moved)."""
    traced = 0
    previous = None
    for rec in log.records:
        position = rec.ue_states[0][2]
        traced += position != previous
        previous = position
    return len(log.records) + TRACED_SNAPSHOT_EXTRA_UNITS * traced


def run_missions(ctx: Context, seed: int, res: PassResult) -> None:
    missions = []
    used = 0
    while used < MISSION_WORK_BUDGET:
        i = len(missions)
        # cap so that even an all-traced mission stays within the budget
        cap = max(1, (MISSION_WORK_BUDGET - used) // (1 + TRACED_SNAPSHOT_EXTRA_UNITS))
        cap = min(ctx.mission_cfg.max_snapshots, cap)

        def fly():
            metrics, log = _mission(ctx, seed, i, cap)
            log.write_jsonl(ctx.out_dir / f"mission-{i}.jsonl")
            return metrics, log

        metrics, log = res.op(f"mission {i}", fly)
        missions.append((metrics, len(log.records), cap))
        used += _work_units(log)
    res.outputs = {"missions": missions}


def check_missions(ctx: Context, res: PassResult) -> list:
    docs = []
    for i, (metrics, n_records, cap) in enumerate(res.outputs["missions"]):
        doc = metrics.to_dict()
        docs.append(doc)
        states = [o["outcome"] for o in doc["outcomes"]]
        rescued, missed = states.count("rescued"), states.count("missed")
        if rescued != doc["rescued"] or len(states) != doc["n_targets"]:
            res.reject(f"mission {i}: outcome list disagrees with the rescued count")
        # a mission cut at the snapshot budget may leave targets pending
        if rescued + missed != doc["n_targets"] and n_records != cap:
            res.reject(f"mission {i}: rescued + missed != n_targets on a finished mission")
        if not math.isclose(doc["total_time_s"], n_records * ctx.sampling_interval, abs_tol=1e-9):
            res.reject(f"mission {i}: total_time_s != records x Ts")
    return docs


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

RUNNERS = {"swarm10": run_swarm, "dataset10": run_dataset, "mission_random": run_missions}
CHECKS = {"swarm10": check_swarm, "dataset10": check_dataset, "mission_random": check_missions}


def first_snapshot(ctx: Context, workload: str, seed: int) -> None:
    """Build the workload's first episode and run its first snapshot only."""
    if workload == "swarm10":
        _swarm_segment(ctx, seed, 0, 1)
    elif workload == "dataset10":
        blueprint.generate_dataset_rows(
            ctx.scene, _flight_plan(ctx, seed, 0), ctx.comms_cfg,
            sampling_interval=ctx.sampling_interval, max_snapshots=1,
        )
    elif workload == "mission_random":
        _mission(ctx, seed, 0, 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def run_pass(ctx: Context, workload: str, seed: int, meter: EpisodeMeter) -> PassResult:
    res = PassResult(meter)
    try:
        RUNNERS[workload](ctx, seed, res)
    except PassAborted:
        res.outputs = {}
    return res


def check_pass(ctx: Context, workload: str, res: PassResult):
    """Run the seed-independent invariants; returns the pass digest (or None)."""
    if not res.outputs:
        return None
    return CHECKS[workload](ctx, res)
