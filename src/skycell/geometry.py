"""Static 3D scene and deterministic image-method ray tracer.

The scene is a flat ground plane plus axis-aligned box buildings inside a
rectangular boundary. Multipath components are enumerated exactly with the
image method: line of sight, single specular bounces off every building face
and the ground, and double bounces via nested mirror images. No diffraction
or diffuse scattering. The scene caches the image tree of its own
transmitter, and :func:`trace_paths_batch` traces many receivers in one pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels

SPEED_OF_LIGHT = 2.998e8

DEFAULT_MATERIALS = {
    "concrete": 0.5,
    "metal": 0.95,
}

PATH_KINDS = ("LOS", "R1", "R2")


@dataclass(frozen=True)
class Material:
    name: str
    reflection_coefficient: float

    def __post_init__(self):
        if not 0.0 <= self.reflection_coefficient <= 1.0:
            raise ValueError(
                f"reflection coefficient must be in [0,1], got {self.reflection_coefficient}"
            )


@dataclass(frozen=True)
class Building:
    min_corner: tuple
    max_corner: tuple
    material: Material

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=float)
        hi = np.asarray(self.max_corner, dtype=float)
        if not (lo < hi).all():
            raise ValueError(f"building min {lo} must be < max {hi} per axis")


@dataclass(frozen=True)
class TxPose:
    position: tuple
    azimuth_deg: float = 0.0
    downtilt_deg: float = 45.0


@dataclass(frozen=True)
class PropagationPath:
    """One multipath component: kind is LOS, R1 or R2 (reflection order)."""

    kind: str
    vertices: tuple
    length: float
    aod: tuple  # (azimuth, elevation) radians, global frame, at the Tx
    aoa: tuple  # (azimuth, elevation) radians, global frame, at the Rx
    gain: complex


@dataclass(frozen=True)
class PathBundle:
    paths: tuple

    @property
    def los_present(self) -> bool:
        return any(p.kind == "LOS" for p in self.paths)


class Scene:
    """Immutable world: bounds, ground, buildings and the transmitter pose."""

    def __init__(self, length, width, tx, buildings=(), ground_material=None):
        self.length = float(length)
        self.width = float(width)
        self.tx = tx
        self.buildings = tuple(buildings)
        self.ground_material = ground_material or Material(
            "concrete", DEFAULT_MATERIALS["concrete"]
        )
        for b in self.buildings:
            lo = np.asarray(b.min_corner, dtype=float)
            hi = np.asarray(b.max_corner, dtype=float)
            if lo[0] < 0 or lo[1] < 0 or hi[0] > self.length or hi[1] > self.width:
                raise ValueError(f"building {b} outside scene bounds")
        self._packed = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "Scene":
        materials = dict(DEFAULT_MATERIALS)
        materials.update(doc.get("materials", {}))

        def mat(name):
            if name not in materials:
                raise ValueError(f"unknown material {name!r}")
            return Material(name, float(materials[name]))

        txd = doc["tx"]
        tx = TxPose(
            position=tuple(float(v) for v in txd["position"]),
            azimuth_deg=float(txd.get("azimuth_deg", 0.0)),
            downtilt_deg=float(txd.get("downtilt_deg", 45.0)),
        )
        buildings = [
            Building(tuple(b["min"]), tuple(b["max"]), mat(b.get("material", "concrete")))
            for b in doc.get("buildings", [])
        ]
        return cls(
            length=doc["bounds"]["length"],
            width=doc["bounds"]["width"],
            tx=tx,
            buildings=buildings,
            ground_material=mat(doc.get("ground_material", "concrete")),
        )

    @classmethod
    def from_file(cls, path) -> "Scene":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        mats = {b.material.name: b.material.reflection_coefficient for b in self.buildings}
        mats[self.ground_material.name] = self.ground_material.reflection_coefficient
        return {
            "bounds": {"length": self.length, "width": self.width},
            "tx": {
                "position": list(self.tx.position),
                "azimuth_deg": self.tx.azimuth_deg,
                "downtilt_deg": self.tx.downtilt_deg,
            },
            "buildings": [
                {
                    "min": list(b.min_corner),
                    "max": list(b.max_corner),
                    "material": b.material.name,
                }
                for b in self.buildings
            ],
            "materials": mats,
        }

    # -- packed arrays for the kernels --------------------------------------

    @property
    def boxes(self) -> np.ndarray:
        if "boxes" not in self._packed:
            if self.buildings:
                arr = np.array(
                    [list(b.min_corner) + list(b.max_corner) for b in self.buildings],
                    dtype=np.float64,
                )
            else:
                arr = np.zeros((0, 6), dtype=np.float64)
            self._packed["boxes"] = arr
        return self._packed["boxes"]

    def faces(self, ground: bool = True):
        key = ("faces", ground)
        if key not in self._packed:
            axes, coords, signs, uvs, refls = [], [], [], [], []
            for b in self.buildings:
                lo = np.asarray(b.min_corner, dtype=float)
                hi = np.asarray(b.max_corner, dtype=float)
                r = b.material.reflection_coefficient
                for axis in range(3):
                    ua, va = (axis + 1) % 3, (axis + 2) % 3
                    for sign, coord in ((-1.0, lo[axis]), (1.0, hi[axis])):
                        if axis == 2 and sign < 0 and coord <= 1e-9:
                            continue  # bottom face sitting on the ground
                        axes.append(axis)
                        coords.append(coord)
                        signs.append(sign)
                        uvs.append((lo[ua], hi[ua], lo[va], hi[va]))
                        refls.append(r)
            if ground:
                axes.append(2)
                coords.append(0.0)
                signs.append(1.0)
                uvs.append((0.0, self.length, 0.0, self.width))
                refls.append(self.ground_material.reflection_coefficient)
            self._packed[key] = (
                np.asarray(axes, dtype=np.int64),
                np.asarray(coords, dtype=np.float64),
                np.asarray(signs, dtype=np.float64),
                np.asarray(uvs, dtype=np.float64).reshape(-1, 4),
                np.asarray(refls, dtype=np.float64),
            )
        return self._packed[key]

    def image_tree(self, tx, ground: bool = True) -> kernels.ImageTree:
        """Static image tree for a transmitter; cached only for the scene's own.

        Any other transmitter gets a fresh, uncached tree, so the cache holds
        at most one tree per ground flag.
        """
        faces = self.faces(ground)
        if np.asarray(tx, dtype=np.float64).tolist() != list(self.tx.position):
            return kernels.build_image_tree(tx, *faces)
        key = ("tree", ground)
        if key not in self._packed:
            self._packed[key] = kernels.build_image_tree(tx, *faces)
        return self._packed[key]


def _angles(direction) -> tuple:
    az = math.atan2(direction[1], direction[0])
    el = math.atan2(direction[2], math.hypot(direction[0], direction[1]))
    return (az, el)


def trace_paths(
    scene: Scene,
    tx,
    rx,
    max_order: int = 2,
    carrier_hz: float = 4e10,
    ground_reflection: bool = True,
) -> PathBundle:
    """Enumerate LOS and specular paths from tx to rx, with complex gains.

    Per-path amplitude is lambda/(4*pi*length) scaled by the product of the
    reflection coefficients met along the way; phase is -2*pi*length/lambda.
    Paths come back sorted by (kind, length).
    """
    rx = np.asarray(rx, dtype=np.float64)
    if rx.shape != (3,):
        raise ValueError("rx must be one 3D point")
    return trace_paths_batch(
        scene, tx, rx[None, :], max_order, carrier_hz, ground_reflection
    )[0]


def trace_paths_batch(
    scene: Scene,
    tx,
    rx,
    max_order: int = 2,
    carrier_hz: float = 4e10,
    ground_reflection: bool = True,
) -> list:
    """:func:`trace_paths` for every row of rx (M, 3); one bundle per row.

    The receivers share one vectorised pass over the transmitter's image
    tree, which the scene caches for its own transmitter.
    """
    tx = np.asarray(tx, dtype=np.float64)
    rx = np.asarray(rx, dtype=np.float64)
    if tx.shape != (3,) or rx.ndim != 2 or rx.shape[1] != 3:
        raise ValueError("tx must be a 3D point and rx an (M, 3) array")
    if (rx == tx).all(axis=1).any():
        raise ValueError("tx and rx must differ")
    if tx[2] <= 0 or (rx[:, 2] <= 0).any():
        raise ValueError("tx and rx must be above the ground plane")
    if not 0 <= max_order <= 2:
        raise ValueError("max_order must be 0, 1 or 2")

    tree = scene.image_tree(tx, ground=ground_reflection)
    lam = SPEED_OF_LIGHT / carrier_hz
    return [
        _bundle(raw, lam) for raw in kernels.trace_batch(tree, rx, scene.boxes, max_order)
    ]


def _bundle(raw, lam: float) -> PathBundle:
    paths = []
    for kind_i, h1, h2, length, aod_dir, aoa_dir, refl in raw:
        mag = lam / (4.0 * math.pi * length) * refl
        phase = -2.0 * math.pi * length / lam
        vertices = ()
        if h1 is not None:
            vertices += (tuple(h1),)
        if h2 is not None:
            vertices += (tuple(h2),)
        paths.append(
            PropagationPath(
                kind=PATH_KINDS[kind_i],
                vertices=vertices,
                length=float(length),
                aod=_angles(aod_dir),
                aoa=_angles(aoa_dir),
                gain=complex(mag * math.cos(phase), mag * math.sin(phase)),
            )
        )
    paths.sort(key=lambda p: (PATH_KINDS.index(p.kind), p.length, p.aod, p.aoa))
    return PathBundle(paths=tuple(paths))


def los_class(bundle: PathBundle) -> str:
    """Classify a bundle as LOS, NLOS or outage (no paths at all)."""
    if not bundle.paths:
        return "outage"
    return "LOS" if bundle.los_present else "NLOS"
