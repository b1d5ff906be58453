"""Run configuration: JSON loading, defaults, seed substreams and manifests.

Every piece of randomness in a run derives from one 64-bit master seed via
named substreams, so a (config, seed) pair pins the entire pipeline. The
shipped default_config.json is the one source of default values: a user's
JSON is validated against it and merged over it, so every section and key
is present afterwards, and LEAVES is the one list of each leaf's kind and
bounds, checked once when the config is loaded.
"""

from __future__ import annotations

import json
import operator
import zlib
from importlib import resources
from pathlib import Path

import numpy as np

from .ai import POLICY_KINDS
from .geometry import Scene
from .mission import MissionConfig
from .mobility import Corridor, TrajectoryPlan, random_waypoints
from .orchestrator import CATEGORIES, finite_number
from .phy import CommsConfig, UpaConfig


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit code 2."""


def stream_seed(master_seed: int, *names) -> tuple:
    """Entropy tuple for a named substream of the master seed."""
    parts = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    for name in names:
        if isinstance(name, int):
            parts.append(name & 0xFFFFFFFF)
        else:
            parts.append(zlib.crc32(str(name).encode("utf-8")))
    return tuple(parts)


def rng_for(master_seed: int, *names) -> np.random.Generator:
    return np.random.default_rng(stream_seed(master_seed, *names))


def _data_text(name: str) -> str:
    return resources.files("skycell.data").joinpath(name).read_text(encoding="utf-8")


def default_config() -> dict:
    return json.loads(_data_text("default_config.json"))


def default_scene() -> Scene:
    return Scene.from_dict(json.loads(_data_text("urban_canyon.json")))


def _merge(base: dict, override, where: str = "") -> dict:
    """Deep-merge override over base; keys must exist and sections stay dicts.

    A key whose default is not a dict (a leaf such as "scene", which may be a
    path string or a scene dict) takes the override as given.
    """
    if not isinstance(override, dict):
        what = f"config section {where!r}" if where else "config"
        raise ConfigError(f"{what} must be a JSON object, got {type(override).__name__}")
    out = dict(base)
    for key, value in override.items():
        path = f"{where}.{key}" if where else key
        if key not in base:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(base[key], dict):
            value = _merge(base[key], value, path)
        out[key] = value
    return out


def _point(value) -> bool:
    """[x, y, z] of finite numbers above the ground plane: every route point is one."""
    return type(value) is list and len(value) == 3 and all(map(finite_number, value)) and value[2] > 0


_KINDS = {  # kind -> (test of a value, what the error message calls it)
    "int": (lambda v: type(v) is int, "an integer"),
    "bool": (lambda v: type(v) is bool, "a boolean"),
    "number": (finite_number, "a finite number"),
    "numbers": (lambda v: type(v) is list and all(map(finite_number, v)), "a list of finite numbers"),
    "point": (_point, "[x, y, z] of finite numbers with z > 0"),
    "points": (lambda v: type(v) is list and all(map(_point, v)),
               "a list of [x, y, z] points with z > 0"),
    "rows_cols": (lambda v: type(v) is list and len(v) == 2, "[rows, cols]"),
    # open() takes an integer as a file descriptor, so only text may name a file
    "path": (lambda v: v is None or type(v) is str, "a path or null"),
    "scene": (lambda v: v is None or type(v) in (str, dict), "a path, a scene object or null"),
}
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
MAX_ARRAY_SIDE = 64  # elements along one side of a UPA
MAX_WAYPOINTS = 1000

# Every leaf of default_config.json: dotted key -> (kind, *bounds), where each
# bound (op, limit) must hold for the value, or for every entry of a "numbers"
# list. A kind is a _KINDS name or the tuple of texts allowed. A float, even an
# integral one such as 10.0, is not an "int", and a "number" leaf is stored as
# a float. An array comes before its entries, so an entry is read only from a
# [rows, cols] list.
LEAVES = {
    "scene": ("scene",),
    "replay_log": ("path",),
    "episode.n_snapshots": ("int", (">=", 1)),
    "episode.sampling_interval": ("number", (">", 0)),
    "episode.category": (CATEGORIES,),
    "episode.seed": ("int", (">=", 0), ("<", 2**64)),  # the seed streams read 64 bits
    "comms.tx_power_dbm": ("number",),
    "comms.bandwidth_hz": ("number", (">", 0)),
    "comms.noise_figure_db": ("number",),
    "comms.max_throughput_mbps": ("number", (">", 0)),
    "comms.carrier_hz": ("number", (">", 0)),
    "comms.tx_array": ("rows_cols",),
    "comms.tx_array.0": ("int", (">=", 1), ("<=", MAX_ARRAY_SIDE)),
    "comms.tx_array.1": ("int", (">=", 1), ("<=", MAX_ARRAY_SIDE)),
    "comms.rx_array": ("rows_cols",),
    "comms.rx_array.0": ("int", (">=", 1), ("<=", MAX_ARRAY_SIDE)),
    "comms.rx_array.1": ("int", (">=", 1), ("<=", MAX_ARRAY_SIDE)),
    "comms.spacing_wl": ("number", (">", 0)),
    "comms.rx_azimuth_deg": ("number",),
    "comms.rx_downtilt_deg": ("number",),
    "mobility.route.start": ("point",),
    "mobility.route.end": ("point",),
    "mobility.route.waypoints": ("points",),
    "mobility.route.speed_mps": ("number", (">", 0)),
    "mobility.corridor_half_width": ("number", (">", 0)),
    "mobility.n_waypoints": ("int", (">=", 1), ("<=", MAX_WAYPOINTS)),
    "policy.kind": (POLICY_KINDS,),
    "policy.model_path": ("path",),
    "mission.payload_bytes": ("number", (">", 0)),
    "mission.n_targets": ("int", (">=", 0)),
    "mission.detection_radius_m": ("number", (">=", 0)),
    "mission.psnr_detect_threshold_db": ("number",),
    "mission.target_fractions": ("numbers", (">=", 0), ("<=", 1)),
    "mission.fixed_wait": ("bool",),
    "mission.max_snapshots": ("int", (">=", 1)),
    "mission.min_detect_throughput_mbps": ("number",),
    "dataset.episodes": ("int", (">=", 1)),
    "dataset.train_frac": ("number", (">", 0), ("<", 1)),
    "dataset.max_depth": ("int", (">=", 1)),
    "dataset.min_leaf": ("int", (">=", 1)),
    "bench.virtual_seconds": ("number", (">", 0)),
    "bench.repetitions": ("int", (">=", 1)),
}


def _slot(cfg: dict, key: str) -> tuple:
    """The section or array that holds the leaf at a dotted key, and the leaf's name
    or index in it ("comms.tx_array.0" is an array entry)."""
    *path, name = key.split(".")
    node = cfg
    for part in path:
        node = node[int(part)] if type(node) is list else node[part]
    return node, int(name) if type(node) is list else name


def _check(cfg: dict) -> None:
    """Every leaf of LEAVES has its kind and keeps its bounds, or a ConfigError names
    the dotted key and the value."""
    for key, (kind, *bounds) in LEAVES.items():
        node, name = _slot(cfg, key)
        value = node[name]
        if type(kind) is tuple:
            test, what = kind.__contains__, "one of " + ", ".join(kind)
        else:
            test, what = _KINDS[kind]
        if not test(value):
            raise ConfigError(f"{key} must be {what}, got {json.dumps(value)}")
        if kind == "number":
            node[name] = value = float(value)
        entries, each = (value, "a list of numbers ") if kind == "numbers" else ([value], "")
        for op, limit in bounds:
            if not all(_OPS[op](entry, limit) for entry in entries):
                raise ConfigError(f"{key} must be {each}{op} {limit}, got {json.dumps(value)}")


def read_input(lead: str, path, read):
    """read(path), or a ConfigError that begins with lead, such as "cannot read model":
    a file that cannot be opened keeps the OSError's text, which names the path, and
    one that does not decode (not UTF-8, not its format) or holds a value that read
    refuses has its path named before the ValueError's text."""
    try:
        return read(path)
    except OSError as exc:
        raise ConfigError(f"{lead}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{lead}: {path}: {exc}") from exc


def _json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_config(path=None, overrides=None) -> dict:
    """Shipped defaults, deep-merged with the user's JSON when given, then each dotted
    key of overrides set to its value; every leaf is then checked against LEAVES."""
    cfg = default_config()
    if path is not None:
        cfg = _merge(cfg, read_input("cannot read config", path, _json_file))
    for key, value in (overrides or {}).items():
        node, name = _slot(cfg, key)
        node[name] = value
    _check(cfg)
    return cfg


def load_scene(cfg: dict) -> Scene:
    source = cfg["scene"]
    try:
        if isinstance(source, dict):
            return Scene.from_dict(source)
        if source in ("builtin", None):
            return default_scene()
        # only the decode names the path: a decoded doc's own errors name its keys
        return Scene.from_dict(read_input("cannot load scene", source, _json_file))
    except KeyError as exc:
        raise ConfigError(f"scene lacks key {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"cannot load scene: {exc}") from exc


def comms_config(cfg: dict) -> CommsConfig:
    c = cfg["comms"]
    tx_upa, rx_upa = (UpaConfig(*c[k], spacing=c["spacing_wl"]) for k in ("tx_array", "rx_array"))
    return CommsConfig(
        tx_power_dbm=c["tx_power_dbm"],
        bandwidth_hz=c["bandwidth_hz"],
        noise_figure_db=c["noise_figure_db"],
        max_throughput_mbps=c["max_throughput_mbps"],
        carrier_hz=c["carrier_hz"],
        tx_upa=tx_upa,
        rx_upa=rx_upa,
        rx_azimuth_deg=c["rx_azimuth_deg"],
        rx_downtilt_deg=c["rx_downtilt_deg"],
    )


def mission_config(cfg: dict) -> MissionConfig:
    m = cfg["mission"]
    return MissionConfig(**dict(m, target_fractions=tuple(m["target_fractions"])))


def base_route(cfg: dict) -> TrajectoryPlan:
    route = cfg["mobility"]["route"]
    return TrajectoryPlan(
        start=tuple(route["start"]),
        end=tuple(route["end"]),
        waypoints=tuple(tuple(w) for w in route["waypoints"]),
        speed_mps=route["speed_mps"],
    )


def seeded_route(cfg: dict, seed_entropy) -> TrajectoryPlan:
    """Base A->B route with seeded random waypoints inside the corridor."""
    base = base_route(cfg)
    mobility = cfg["mobility"]
    corridor = Corridor(start=base.start, end=base.end, half_width=mobility["corridor_half_width"])
    plan = random_waypoints(seed_entropy, corridor, k=mobility["n_waypoints"])
    return TrajectoryPlan(
        start=plan.start, end=plan.end, waypoints=plan.waypoints, speed_mps=base.speed_mps
    )


def write_manifest(out_dir: Path, command: str, seed: int, cfg: dict, extra: dict = None) -> None:
    doc = {"command": command, "seed": seed, "config": cfg}
    if extra:
        doc.update(extra)
    with open(Path(out_dir) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
