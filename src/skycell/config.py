"""Run configuration: JSON loading, defaults, seed substreams and manifests.

Every piece of randomness in a run derives from one 64-bit master seed via
named substreams, so a (config, seed) pair pins the entire pipeline. The
shipped default_config.json is the one source of default values: a user's
JSON is validated against it and merged over it, so every section and key
is present afterwards.
"""

from __future__ import annotations

import json
import math
import zlib
from importlib import resources
from pathlib import Path

import numpy as np

from .geometry import Scene
from .mission import MissionConfig
from .mobility import Corridor, TrajectoryPlan, random_waypoints
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


_LEAF_KINDS = {  # kind -> (the JSON types it accepts, what the error message calls it)
    int: ((int,), "an integer"),
    bool: ((bool,), "a boolean"),
    float: ((int, float), "a finite number"),
}


def strict_leaf(cfg: dict, key: str, kind: type = int):
    """The value at a dotted key ("dataset.episodes"; "comms.tx_array.0" is an
    array entry), which must be a JSON integer, a JSON boolean for kind=bool, or
    a finite JSON integer or float for kind=float (returned as a float).

    A float, even an integral one such as 10.0, is not an integer here, and a
    boolean, text, NaN or an infinity is no number.
    """
    value = cfg
    for part in key.split("."):
        value = value[int(part)] if type(value) is list else value[part]
    types, what = _LEAF_KINDS[kind]
    if type(value) not in types or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{key} must be {what}, got {json.dumps(value)}")
    return kind(value)


def load_config(path=None) -> dict:
    """Shipped defaults, deep-merged with the user's JSON when given."""
    cfg = default_config()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = _merge(cfg, json.load(fh))
    return cfg


def load_scene(cfg: dict) -> Scene:
    source = cfg["scene"]
    # open() takes an integer as a file descriptor, so only a path string may reach it
    if source is not None and not isinstance(source, (str, dict)):
        raise ConfigError(
            f"scene must be a path, a scene object or null, got {type(source).__name__}"
        )
    try:
        if isinstance(source, dict):
            return Scene.from_dict(source)
        if source in ("builtin", None):
            return default_scene()
        return Scene.from_file(source)
    except KeyError as exc:
        raise ConfigError(f"scene lacks key {exc}") from exc
    except (OSError, TypeError) as exc:
        raise ConfigError(f"cannot load scene: {exc}") from exc


def _upa(cfg: dict, key: str, spacing: float) -> UpaConfig:
    dims = cfg["comms"][key]
    if type(dims) is not list or len(dims) != 2:
        raise ConfigError(f"comms.{key} must be [rows, cols], got {dims!r}")
    sides = []
    for i in (0, 1):
        side = strict_leaf(cfg, f"comms.{key}.{i}")
        if side < 1:
            raise ConfigError(f"comms.{key}.{i} must be >= 1, got {side}")
        sides.append(side)
    return UpaConfig(*sides, spacing=spacing)


def comms_config(cfg: dict) -> CommsConfig:
    def number(name):
        return strict_leaf(cfg, f"comms.{name}", float)

    spacing = number("spacing_wl")
    if not spacing > 0:
        raise ConfigError(f"comms.spacing_wl must be > 0, got {spacing}")
    return CommsConfig(
        tx_power_dbm=number("tx_power_dbm"),
        bandwidth_hz=number("bandwidth_hz"),
        noise_figure_db=number("noise_figure_db"),
        max_throughput_mbps=number("max_throughput_mbps"),
        carrier_hz=number("carrier_hz"),
        tx_upa=_upa(cfg, "tx_array", spacing),
        rx_upa=_upa(cfg, "rx_array", spacing),
        rx_azimuth_deg=number("rx_azimuth_deg"),
        rx_downtilt_deg=number("rx_downtilt_deg"),
    )


def mission_config(cfg: dict) -> MissionConfig:
    m = cfg["mission"]

    def number(name):
        return strict_leaf(cfg, f"mission.{name}", float)

    return MissionConfig(
        payload_bytes=number("payload_bytes"),
        n_targets=strict_leaf(cfg, "mission.n_targets"),
        detection_radius_m=number("detection_radius_m"),
        psnr_detect_threshold_db=number("psnr_detect_threshold_db"),
        min_detect_throughput_mbps=number("min_detect_throughput_mbps"),
        target_fractions=tuple(m["target_fractions"]),
        fixed_wait=strict_leaf(cfg, "mission.fixed_wait", bool),
        max_snapshots=strict_leaf(cfg, "mission.max_snapshots"),
    )


def base_route(cfg: dict) -> TrajectoryPlan:
    route = cfg["mobility"]["route"]
    return TrajectoryPlan(
        start=tuple(route["start"]),
        end=tuple(route["end"]),
        waypoints=tuple(tuple(w) for w in route["waypoints"]),
        speed_mps=strict_leaf(cfg, "mobility.route.speed_mps", float),
    )


def seeded_route(cfg: dict, seed_entropy) -> TrajectoryPlan:
    """Base A->B route with seeded random waypoints inside the corridor."""
    base = base_route(cfg)
    corridor = Corridor(
        start=base.start,
        end=base.end,
        half_width=strict_leaf(cfg, "mobility.corridor_half_width", float),
    )
    plan = random_waypoints(seed_entropy, corridor, k=strict_leaf(cfg, "mobility.n_waypoints"))
    return TrajectoryPlan(
        start=plan.start, end=plan.end, waypoints=plan.waypoints, speed_mps=base.speed_mps
    )


def write_manifest(out_dir: Path, command: str, seed: int, cfg: dict, extra: dict = None) -> None:
    doc = {"command": command, "seed": seed, "config": cfg}
    if extra:
        doc.update(extra)
    with open(Path(out_dir) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
