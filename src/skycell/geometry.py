"""Static 3D scene and deterministic image-method ray tracer.

The scene is a flat ground plane plus axis-aligned box buildings inside a
rectangular boundary. Multipath components are enumerated exactly with the
image method: line of sight, single specular bounces off every building face
and the ground, and double bounces via nested mirror images. No diffraction
or diffuse scattering. The scene holds the transmitter, and the tracer
traces from it alone. The scene packs its buildings into box rows once, at
construction, and caches the transmitter's image tree once per ground flag.
:func:`trace_path_arrays` traces many receivers in one pass, adds gains and
angles to the kernel's path table and returns the sorted paths as arrays
(PathArrays), the one batched form, which the radio pass uses;
:func:`trace_paths` is its readable one-receiver form, a
PathBundle of PropagationPaths built from those arrays, so the gain, angle
and sort formulas exist once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _is_point(values) -> bool:
    """Three finite numbers; a boolean, text, NaN, infinity or huge integer is none."""
    try:
        return len(values) == 3 and all(type(v) is not bool and math.isfinite(v) for v in values)
    except (TypeError, OverflowError):
        return False


def _number(key: str, value) -> float:
    """A number of a scene document as a float; a boolean, text or an integer too
    large for a float is refused by its key."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"scene {key} must be a number, got {json.dumps(value)}")


@dataclass(frozen=True)
class Building:
    min_corner: tuple
    max_corner: tuple
    material: Material

    def __post_init__(self):
        for name, corner in (("min", self.min_corner), ("max", self.max_corner)):
            if not _is_point(corner):
                raise ValueError(f"building {name} corner must be three finite numbers, got {corner!r}")
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
        for name, value in (("length", self.length), ("width", self.width)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"scene {name} must be finite and > 0, got {value}")
        position = tuple(tx.position)
        if not (_is_point(position) and position[2] > 0):
            raise ValueError(f"tx position must be three finite numbers with z > 0, got {position}")
        if not (math.isfinite(tx.azimuth_deg) and math.isfinite(tx.downtilt_deg)):
            raise ValueError(f"tx azimuth_deg and downtilt_deg must be finite, got {tx}")
        self.tx = tx
        self.buildings = tuple(buildings)
        self.ground_material = ground_material or Material(
            "concrete", DEFAULT_MATERIALS["concrete"]
        )
        # one row (min x, y, z, max x, y, z) per building
        self.boxes = np.array([list(b.min_corner) + list(b.max_corner) for b in self.buildings],
                              dtype=np.float64).reshape(-1, 6)
        for b, (x0, y0, _z0, x1, y1, _z1) in zip(self.buildings, self.boxes.tolist()):
            if x0 < 0 or y0 < 0 or x1 > self.length or y1 > self.width:
                raise ValueError(f"building {b} outside scene bounds")
        self._trees = {}  # ground flag -> image tree of the transmitter

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "Scene":
        if type(doc) is not dict:
            raise ValueError(f"scene must be a JSON object, got {type(doc).__name__}")
        materials = dict(DEFAULT_MATERIALS)
        materials.update(doc.get("materials", {}))

        def mat(name):
            if name not in materials:
                raise ValueError(f"unknown material {name!r}")
            return Material(name, _number(f"materials.{name}", materials[name]))

        txd = doc["tx"]
        tx = TxPose(
            position=tuple(_number("tx.position", v) for v in txd["position"]),
            azimuth_deg=_number("tx.azimuth_deg", txd.get("azimuth_deg", 0.0)),
            downtilt_deg=_number("tx.downtilt_deg", txd.get("downtilt_deg", 45.0)),
        )
        buildings = [
            Building(tuple(b["min"]), tuple(b["max"]), mat(b.get("material", "concrete")))
            for b in doc.get("buildings", [])
        ]
        return cls(
            length=_number("bounds.length", doc["bounds"]["length"]),
            width=_number("bounds.width", doc["bounds"]["width"]),
            tx=tx,
            buildings=buildings,
            ground_material=mat(doc.get("ground_material", "concrete")),
        )

    # -- arrays for the kernels ---------------------------------------------

    def faces(self, ground: bool = True):
        """Face arrays: axis, plane coord, outward sign, (u_lo, u_hi, v_lo, v_hi), reflection."""
        axes, coords, signs, uvs, refls = [], [], [], [], []
        for b, box in zip(self.buildings, self.boxes.tolist()):
            lo, hi = box[:3], box[3:]
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
        return (
            np.asarray(axes, dtype=np.int64),
            np.asarray(coords, dtype=np.float64),
            np.asarray(signs, dtype=np.float64),
            np.asarray(uvs, dtype=np.float64).reshape(-1, 4),
            np.asarray(refls, dtype=np.float64),
        )

    def image_tree(self, ground: bool = True) -> kernels.ImageTree:
        """Static image tree of the transmitter, built once per ground flag."""
        if ground not in self._trees:
            self._trees[ground] = kernels.build_image_tree(self.tx.position, *self.faces(ground))
        return self._trees[ground]


class PathArrays(NamedTuple):
    """The paths of one radio pass as arrays, one entry per path.

    Paths are sorted by receiver row, then as a bundle lists them: by kind,
    length, AoD and AoA. A path's ``kinds`` entry indexes PATH_KINDS and is
    its reflection order; its bounce points fill that many rows of
    ``points``, and the rest are NaN.
    """

    rows: np.ndarray  # (P,) receiver row
    kinds: np.ndarray  # (P,)
    lengths: np.ndarray  # (P,)
    gains: np.ndarray  # (P,) complex
    aod: np.ndarray  # (P, 2) (azimuth, elevation) radians, global frame, at the Tx
    aoa: np.ndarray  # (P, 2) the same at the Rx
    points: np.ndarray  # (P, 2, 3)


def _angles(directions) -> np.ndarray:
    """(P, 2) (azimuth, elevation) of the unit directions (P, 3).

    Scalar math.atan2/math.hypot: numpy's vectorised atan2 is not libm bit
    for bit, and the golden artifacts pin these bits.
    """
    x, y, z = directions.T.tolist()
    azimuth = list(map(math.atan2, y, x))
    elevation = list(map(math.atan2, z, map(math.hypot, x, y)))
    return np.array([azimuth, elevation]).T


def trace_paths(
    scene: Scene,
    rx,
    *,
    carrier_hz: float = 4e10,
    ground_reflection: bool = True,
) -> PathBundle:
    """Enumerate LOS, first- and second-order specular paths from the scene's
    transmitter to rx, with complex gains.

    Per-path amplitude is lambda/(4*pi*length) scaled by the product of the
    reflection coefficients met along the way; phase is -2*pi*length/lambda.
    Paths come back sorted by (kind, length, aod, aoa).
    """
    rx = np.asarray(rx, dtype=np.float64)
    if rx.shape != (3,):
        raise ValueError("rx must be one 3D point")
    paths = trace_path_arrays(scene, rx[None, :], carrier_hz=carrier_hz,
                              ground_reflection=ground_reflection)
    return PathBundle(paths=tuple(
        PropagationPath(PATH_KINDS[kind], tuple(map(tuple, points[:kind])), length, tuple(aod),
                        tuple(aoa), gain)
        for kind, length, gain, aod, aoa, points in zip(*(a.tolist() for a in paths[1:]))
    ))


def trace_path_arrays(
    scene: Scene,
    rx,
    *,
    carrier_hz: float = 4e10,
    ground_reflection: bool = True,
) -> PathArrays:
    """The paths of :func:`trace_paths` for every row of rx (M, 3), as arrays.

    The receivers share one vectorised pass over the image tree of the
    scene's transmitter, which the scene caches. Gains and angles are array
    expressions of the kernel's path table, with every cos, sin, atan2 and
    hypot taken from libm, so each path carries the bits the one-receiver
    scalar formulas give.
    """
    rx = np.asarray(rx, dtype=np.float64)
    if rx.ndim != 2 or rx.shape[1] != 3:
        raise ValueError("rx must be an (M, 3) array")
    if not np.isfinite(rx).all():
        raise ValueError("rx must be finite")
    if (rx == scene.tx.position).all(axis=1).any():
        raise ValueError("tx and rx must differ")
    if (rx[:, 2] <= 0).any():
        raise ValueError("rx must be above the ground plane")

    tree = scene.image_tree(ground_reflection)
    rows, kinds, points, lengths, aod_dir, aoa_dir, refl = kernels.trace_batch(tree, rx, scene.boxes)

    lam = SPEED_OF_LIGHT / carrier_hz
    mag = lam / (4.0 * math.pi * lengths) * refl
    phase = (-2.0 * math.pi * lengths / lam).tolist()
    gains = np.empty(rows.size, dtype=np.complex128)
    gains.real = mag * np.fromiter(map(math.cos, phase), np.float64, len(phase))
    gains.imag = mag * np.fromiter(map(math.sin, phase), np.float64, len(phase))
    aod, aoa = _angles(aod_dir), _angles(aoa_dir)
    # stable, so paths that tie on every key keep their enumeration order
    order = np.lexsort((aoa[:, 1], aoa[:, 0], aod[:, 1], aod[:, 0], lengths, kinds, rows))
    return PathArrays(rows[order], kinds[order], lengths[order], gains[order], aod[order],
                      aoa[order], points[order])


def los_class(bundle: PathBundle) -> str:
    """Classify a bundle as LOS, NLOS or outage (no paths at all)."""
    if not bundle.paths:
        return "outage"
    return "LOS" if bundle.los_present else "NLOS"
