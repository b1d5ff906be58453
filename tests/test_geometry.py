import hashlib
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
import trace_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from trace_oracle import mirror_point

from skycell.blueprint import TRACE_BATCH, MobilityModule, offset_plan
from skycell.config import base_route, default_scene, load_config, load_scene
from skycell.geometry import (
    PATH_KINDS,
    SPEED_OF_LIGHT,
    Building,
    Material,
    PathArrays,
    PathBundle,
    Scene,
    TxPose,
    los_class,
    trace_path_arrays,
    trace_paths,
)
from skycell import kernels
from skycell.kernels import _seg_blocked_np_many

CONCRETE = Material("concrete", 0.5)


def empty_scene():
    return Scene(719.2, 693.4, TxPose((100.0, 100.0, 50.0)), [])


def box_scene(lo, hi):
    return Scene(719.2, 693.4, TxPose((100.0, 100.0, 50.0)), [Building(lo, hi, CONCRETE)])


def _from(scene, tx):
    """The scene with its transmitter at tx, the point the tracer traces from."""
    return Scene(scene.length, scene.width, TxPose(tuple(map(float, tx))), scene.buildings,
                 scene.ground_material)


def _up_to(bundle, k):
    """The bundle's paths of reflection order k or less, in bundle order: the paths the
    oracle enumerates at max_order k."""
    return PathBundle(tuple(p for p in bundle.paths if PATH_KINDS.index(p.kind) <= k))


def _arrays_up_to(paths, k):
    """The path arrays' rows of reflection order k or less, in order."""
    keep = paths.kinds <= k
    return PathArrays(*(v[keep] for v in paths))


def test_mirror_point_examples():
    assert np.allclose(mirror_point((1, 2, 3), 0, 0.0), (-1, 2, 3))
    p = np.array([3.0, -7.0, 2.5])
    assert np.allclose(mirror_point(mirror_point(p, 1, 4.0), 1, 4.0), p)
    assert np.allclose(mirror_point((5, 0, 0), 0, 10.0), (15, 0, 0))


def _occluded(scene, p, q) -> bool:
    p, q = np.array([p], dtype=np.float64), np.array([q], dtype=np.float64)
    return bool(_seg_blocked_np_many(p, q, scene.boxes)[0])


def test_occlusion_examples():
    assert not _occluded(empty_scene(), (0, 15, 15), (30, 15, 15))
    scene = box_scene((10, 10, 10), (20, 20, 20))
    assert _occluded(scene, (0, 15, 15), (30, 15, 15))
    assert not _occluded(scene, (0, 15, 200), (30, 15, 200))


# coordinates on a unit grid meet box faces exactly; the floats fall anywhere
_occl_coord = st.one_of(st.integers(0, 10).map(float), st.floats(-1.0, 11.0))
_occl_point = st.tuples(_occl_coord, _occl_coord, _occl_coord)


@st.composite
def _occl_segment(draw):
    """A segment, parallel to one or two axes when it takes that many coordinates of its
    start."""
    p = draw(_occl_point)
    q = list(draw(_occl_point))
    for axis in draw(st.sets(st.integers(0, 2), max_size=2)):
        q[axis] = p[axis]
    return p, tuple(q)


_occl_box = st.tuples(*[st.integers(0, 8)] * 3, *[st.integers(1, 4)] * 3).map(
    lambda b: b[:3] + tuple(lo + size for lo, size in zip(b[:3], b[3:])))


@given(st.lists(_occl_segment(), max_size=8), st.lists(_occl_box, max_size=4))
@example(segments=[], boxes=[(0, 0, 0, 1, 1, 1)])
@example(segments=[((0.0, 0.5, 0.5), (2.0, 0.5, 0.5))], boxes=[])
@settings(max_examples=200, deadline=None)
def test_occlusion_matches_the_oracle(segments, boxes):
    """The broad-phase slab test blocks exactly the segments the oracle's slab test
    against every box blocks: segments along an axis, ending on a face or at a
    corner, and passes with no box or no segment."""
    p = np.array([a for a, _ in segments], dtype=np.float64).reshape(-1, 3)
    q = np.array([b for _, b in segments], dtype=np.float64).reshape(-1, 3)
    b = np.array(boxes, dtype=np.float64).reshape(-1, 6)
    # an axis a few ulps from parallel overflows its slab ratios; both tests discard them
    with np.errstate(over="ignore"):
        expected = trace_oracle._seg_blocked(p, q, b).tolist()
        assert _seg_blocked_np_many(p, q, b).tolist() == expected


def test_free_space_gain():
    scene = _from(empty_scene(), (0, 0, 50))
    bundle = trace_paths(scene, (100, 0, 50), carrier_hz=4e10, ground_reflection=False)
    assert len(bundle.paths) == 1
    path = bundle.paths[0]
    assert path.kind == "LOS"
    lam = SPEED_OF_LIGHT / 4e10
    assert lam == pytest.approx(7.495e-3, rel=1e-4)
    assert abs(path.gain) == pytest.approx(lam / (4 * math.pi * 100.0), abs=1e-15)
    assert abs(abs(path.gain) - 5.964e-6) < 1e-9
    assert path.gain == pytest.approx(
        abs(path.gain) * complex(math.cos(-2 * math.pi * 100 / lam),
                                 math.sin(-2 * math.pi * 100 / lam))
    )


def test_single_wall_image_length():
    # wall at x=0 (east face of a slab filling x<=0 is not possible inside
    # bounds; use a thin slab with its +x face at x=10 and mirror about it)
    tx = (15.0, 10.0, 10.0)
    rx = (13.0, 14.0, 10.0)
    scene = Scene(
        719.2, 693.4, TxPose(tx),
        [Building((5.0, 0.1, 0.0), (10.0, 100.0, 60.0), CONCRETE)],
    )
    bundle = _up_to(trace_paths(scene, rx, ground_reflection=False), 1)
    _assert_same_bundle(bundle, trace_oracle.trace_paths(scene, tx, rx, max_order=1,
                                                         ground_reflection=False))
    r1 = [p for p in bundle.paths if p.kind == "R1"]
    assert len(r1) == 1
    mirrored = mirror_point(tx, 0, 10.0)
    expected = float(np.linalg.norm(np.asarray(rx) - mirrored))
    assert r1[0].length == pytest.approx(expected, rel=1e-12)
    assert abs(r1[0].gain) == pytest.approx(
        0.5 * (SPEED_OF_LIGHT / 4e10) / (4 * math.pi * expected), rel=1e-12
    )


def test_spec_wall_example_length_value():
    # mirror identity: |(-5,0,10)-(3,4,10)| = sqrt(64+16)
    assert math.dist((-5, 0, 10), (3, 4, 10)) == pytest.approx(math.sqrt(80.0))


def test_blocked_los_no_reflectors_gives_outage():
    scene = _from(box_scene((40, 40, 0), (60, 60, 100)), (20, 50, 50))
    bundle = _up_to(trace_paths(scene, (80, 50, 50), ground_reflection=False), 0)
    _assert_same_bundle(bundle, trace_oracle.trace_paths(scene, (20, 50, 50), (80, 50, 50),
                                                         max_order=0, ground_reflection=False))
    assert not bundle.paths
    assert not bundle.los_present
    assert los_class(bundle) == "outage"


def test_los_class_cases():
    scene = _from(empty_scene(), (10, 10, 30))
    with_ground = trace_paths(scene, (60, 10, 30))
    assert with_ground.los_present and los_class(with_ground) == "LOS"
    blocked = Scene(719.2, 693.4, TxPose((10, 10, 30)),
                    [Building((30, 5, 0), (40, 20, 100), CONCRETE),
                     Building((0.1, 40, 0), (100, 45, 60), CONCRETE)])
    nl = trace_paths(blocked, (60, 10, 30))
    assert not nl.los_present and los_class(nl) == "NLOS"
    assert all(p.kind in ("R1", "R2") for p in nl.paths) and nl.paths


def test_ground_reflection_geometry():
    scene = _from(empty_scene(), (0, 0, 30))
    bundle = trace_paths(scene, (40, 0, 30))
    kinds = [p.kind for p in bundle.paths]
    assert kinds == ["LOS", "R1"]
    ground = bundle.paths[1]
    assert ground.length == pytest.approx(math.sqrt(40.0**2 + 60.0**2), rel=1e-12)
    assert ground.vertices[0][2] == pytest.approx(0.0, abs=1e-9)


def _random_wall_scene(rng):
    x0 = rng.uniform(5, 300)
    wall = Building(
        (x0, rng.uniform(1, 200), 0.0),
        (x0 + rng.uniform(2, 30), rng.uniform(300, 600), rng.uniform(40, 150)),
        CONCRETE,
    )
    return Scene(719.2, 693.4, TxPose((1, 1, 1)), [wall]), wall


def test_image_method_identity_randomized():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(1000):
        scene, wall = _random_wall_scene(rng)
        side = 1 if rng.random() < 0.5 else -1
        face_x = wall.max_corner[0] if side > 0 else wall.min_corner[0]
        tx = (face_x + side * rng.uniform(1, 80), rng.uniform(210, 290), rng.uniform(5, 120))
        rx = (face_x + side * rng.uniform(1, 80), rng.uniform(210, 290), rng.uniform(5, 120))
        if tx == rx:
            continue
        bundle = _up_to(trace_paths(_from(scene, tx), rx, ground_reflection=False), 1)
        _assert_same_bundle(bundle, trace_oracle.trace_paths(scene, tx, rx, max_order=1,
                                                             ground_reflection=False))
        for path in (p for p in bundle.paths if p.kind == "R1"):
            if abs(path.vertices[0][0] - face_x) > 1e-6:
                continue  # bounce off another face of the same box
            mirrored = mirror_point(tx, 0, face_x)
            expected = float(np.linalg.norm(np.asarray(rx) - mirrored))
            assert path.length == pytest.approx(expected, rel=1e-9)
            checked += 1
    assert checked > 200


def test_reciprocity_path_length_multisets():
    rng = np.random.default_rng(7)
    scene = Scene(
        719.2, 693.4, TxPose((100, 100, 50)),
        [
            Building((50, 40, 0), (90, 90, 60), CONCRETE),
            Building((150, 30, 0), (200, 80, 45), Material("metal", 0.95)),
            Building((100, 150, 0), (160, 210, 80), CONCRETE),
        ],
    )
    for _ in range(25):
        a = (rng.uniform(10, 300), rng.uniform(10, 300), rng.uniform(5, 100))
        b = (rng.uniform(10, 300), rng.uniform(10, 300), rng.uniform(5, 100))
        fwd = sorted(p.length for p in trace_paths(_from(scene, a), b).paths)
        rev = sorted(p.length for p in trace_paths(_from(scene, b), a).paths)
        assert len(fwd) == len(rev)
        assert np.allclose(fwd, rev, rtol=1e-9)


def test_monotone_occlusion_adding_building_never_adds_los():
    rng = np.random.default_rng(99)
    base = Scene(719.2, 693.4, TxPose((100, 100, 50)),
                 [Building((50, 40, 0), (90, 90, 60), CONCRETE)])
    bigger = Scene(719.2, 693.4, TxPose((100, 100, 50)),
                   [Building((50, 40, 0), (90, 90, 60), CONCRETE),
                    Building((120, 40, 0), (160, 90, 70), CONCRETE)])
    for _ in range(60):
        a = (rng.uniform(10, 300), rng.uniform(10, 300), rng.uniform(5, 100))
        b = (rng.uniform(10, 300), rng.uniform(10, 300), rng.uniform(5, 100))
        before = trace_paths(_from(base, a), b).los_present
        after = trace_paths(_from(bigger, a), b).los_present
        assert not (after and not before)


def test_path_lengths_never_below_direct_distance():
    scene = Scene(719.2, 693.4, TxPose((100, 100, 50)),
                  [Building((50, 40, 0), (90, 90, 60), CONCRETE)])
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = (rng.uniform(10, 200), rng.uniform(10, 200), rng.uniform(5, 80))
        b = (rng.uniform(10, 200), rng.uniform(10, 200), rng.uniform(5, 80))
        direct = math.dist(a, b)
        for p in trace_paths(_from(scene, a), b).paths:
            assert p.length >= direct - 1e-9
            assert abs(p.gain) <= (SPEED_OF_LIGHT / 4e10) / (4 * math.pi * direct) + 1e-15


def test_trace_rejects_degenerate_and_out_of_range():
    scene = empty_scene()
    with pytest.raises(ValueError):
        trace_paths(_from(scene, (1, 1, 1)), (1, 1, 1))
    with pytest.raises(ValueError):
        _from(scene, (1, 1, -5))


def _assert_same_bundle(got, ref):
    assert len(got.paths) == len(ref.paths)
    for p, q in zip(got.paths, ref.paths):
        assert p.kind == q.kind
        assert p.vertices == q.vertices
        assert p.length == q.length
        assert p.aod == q.aod
        assert p.aoa == q.aoa
        assert p.gain == q.gain


def _random_points(rng, scene, n, z_max=150.0):
    return np.column_stack([
        rng.uniform(1.0, scene.length - 1.0, n),
        rng.uniform(1.0, scene.width - 1.0, n),
        rng.uniform(1.0, z_max, n),
    ])


def test_tracer_matches_oracle():
    """Fast path vs the frozen scalar tracer, compared with exact equality."""
    kinds = Counter()
    rng = np.random.default_rng(0)

    # shipped scene and its cached tree, single and batched
    scene = default_scene()
    tx = scene.tx.position
    points = _random_points(rng, scene, 120)
    batch = trace_path_arrays(scene, points)
    for m, p in enumerate(points):
        ref = trace_oracle.trace_paths(scene, tx, p)
        _assert_run_is_bundle(batch, m, ref)
        _assert_same_bundle(trace_paths(scene, p), ref)
        kinds.update(q.kind for q in ref.paths)

    # shipped buildings, arbitrary transmitters (a scene each)
    for _ in range(40):
        a, b = _random_points(rng, scene, 2)
        _assert_same_bundle(trace_paths(_from(scene, a), b), trace_oracle.trace_paths(scene, a, b))

    # criterion 5's random walls and both ground flags, the bundle also filtered to the
    # oracle's lower orders; order 0 leaves no R1 or R2 path
    concrete = Material("concrete", 0.5)
    for _ in range(60):
        x0 = float(rng.uniform(5, 300))
        wall = Building((x0, float(rng.uniform(1, 200)), 0.0),
                        (x0 + float(rng.uniform(2, 30)), float(rng.uniform(300, 600)),
                         float(rng.uniform(40, 150))), concrete)
        walls = Scene(719.2, 693.4, TxPose((1, 1, 1)), [wall])
        side = 1 if rng.random() < 0.5 else -1
        face_x = wall.max_corner[0] if side > 0 else wall.min_corner[0]
        a = (face_x + side * float(rng.uniform(1, 80)), float(rng.uniform(210, 290)),
             float(rng.uniform(5, 120)))
        b = (face_x + side * float(rng.uniform(1, 80)), float(rng.uniform(210, 290)),
             float(rng.uniform(5, 120)))
        for order, ground in ((2, True), (1, False), (0, True), (2, False)):
            ref = trace_oracle.trace_paths(walls, a, b, max_order=order, ground_reflection=ground)
            _assert_same_bundle(
                _up_to(trace_paths(_from(walls, a), b, ground_reflection=ground), order), ref)
            kinds.update(q.kind for q in ref.paths)

    assert min(kinds["LOS"], kinds["R1"], kinds["R2"]) >= 50, kinds


_SHIPPED = default_scene()
_coord = st.tuples(
    st.floats(1.0, _SHIPPED.length - 1.0),
    st.floats(1.0, _SHIPPED.width - 1.0),
    st.floats(1.0, 150.0),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(_coord, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_batch_equals_single_calls_in_any_order(points, rnd):
    singles = [trace_paths(_SHIPPED, p) for p in points]
    order = list(range(len(points)))
    rnd.shuffle(order)
    batch = trace_path_arrays(_SHIPPED, [points[k] for k in order])
    assert (np.diff(batch.rows) >= 0).all()
    for m, k in enumerate(order):
        _assert_run_is_bundle(batch, m, singles[k])


def _bits(values, dtype) -> bytes:
    return np.array(values, dtype=dtype).tobytes()


def _assert_run_is_bundle(paths, m, bundle):
    """Receiver m's run of the path arrays holds the bundle's paths bit for bit, in
    bundle order: kind, bounce points, length, gain, AoD and AoA."""
    ref = bundle.paths
    run = paths.rows == m
    kinds = paths.kinds[run].tolist()
    assert [PATH_KINDS[k] for k in kinds] == [p.kind for p in ref]
    assert ([tuple(map(tuple, pts[:k])) for k, pts in zip(kinds, paths.points[run].tolist())]
            == [p.vertices for p in ref])
    assert paths.lengths[run].tobytes() == _bits([p.length for p in ref], np.float64)
    assert paths.gains[run].tobytes() == _bits([p.gain for p in ref], np.complex128)
    assert paths.aod[run].tobytes() == _bits([p.aod for p in ref], np.float64)
    assert paths.aoa[run].tobytes() == _bits([p.aoa for p in ref], np.float64)


@settings(max_examples=25, deadline=None)
@given(st.lists(_coord, min_size=1, max_size=6))
# two R1 and two R2 paths tie on length at each receiver, and the AoD azimuth orders
# each pair; at the second, one R2 pair is enumerated the other way round
@example([(360.0, 320.5, 40.0)])
@example([(360.0, 365.5, 40.0)])
def test_path_arrays_equal_the_oracle_in_bundle_order(points):
    """Each receiver's run of the path arrays holds its oracle bundle bit for bit, in
    bundle order: kind, length, gain, AoD and AoA."""
    tx = _SHIPPED.tx.position
    paths = trace_path_arrays(_SHIPPED, points)
    assert (np.diff(paths.rows) >= 0).all()
    for m, point in enumerate(points):
        _assert_run_is_bundle(paths, m, trace_oracle.trace_paths(_SHIPPED, tx, point))


@pytest.mark.parametrize("max_order", [0, 1, 2])
@pytest.mark.parametrize("ground_reflection", [True, False])
def test_batched_receivers_off_the_shipped_scene_match_the_oracle(max_order, ground_reflection):
    """2-6 receivers per pass on random-wall scenes: each receiver's run of the path
    arrays, filtered to reflection order max_order or less, equals its oracle bundle at
    that order bit for bit, with no R1 or R2 row at order 0 and 1 and wherever no bounce
    survives. The first receiver of each pass shares a coordinate with the transmitter,
    where rx - tx and tx - rx differ in the sign of a zero."""
    rng = np.random.default_rng(2700 + 3 * max_order + ground_reflection)
    kinds = Counter()
    for _ in range(30):
        walls, wall = _random_wall_scene(rng)
        side = 1 if rng.random() < 0.5 else -1
        face_x = wall.max_corner[0] if side > 0 else wall.min_corner[0]
        tx = (face_x + side * rng.uniform(1, 80), rng.uniform(210, 290), rng.uniform(5, 120))
        n = int(rng.integers(2, 7))
        points = np.column_stack([face_x + rng.choice([-1, 1], n) * rng.uniform(1, 80, n),
                                  rng.uniform(210, 290, n), rng.uniform(5, 120, n)])
        shared = rng.integers(0, 3)
        points[0, shared] = tx[shared]
        paths = _arrays_up_to(trace_path_arrays(_from(walls, tx), points,
                                                ground_reflection=ground_reflection), max_order)
        for m, point in enumerate(points):
            ref = trace_oracle.trace_paths(walls, tx, point, max_order=max_order,
                                           ground_reflection=ground_reflection)
            _assert_run_is_bundle(paths, m, ref)
            kinds.update(q.kind for q in ref.paths)
    assert kinds["LOS"] > 0
    assert (kinds["R1"] > 0) == (max_order >= 1)
    # two faces of one box never face each other, so a double bounce needs the ground
    assert (kinds["R2"] > 0) == (max_order >= 2 and ground_reflection)


# each of ten UAVs' position and the next moves a pass traces with it
_PER_UAV = 1 + max(1, TRACE_BATCH // 10 - 1)


def _loop_passes(rng, n_draws=6):
    """Receiver layouts as the loop's radio pass makes them, each from a seeded point of
    the shipped route: one UAV's position and its next TRACE_BATCH - 1 moves, and ten
    UAVs 3 m apart across the route, as the swarm benchmark flies them, each position
    followed by the moves traced with it."""
    cfg = load_config()
    route, dt = base_route(cfg), cfg["episode"]["sampling_interval"]
    lone = MobilityModule({"uav0": route}, dt).upcoming("uav0", 10**6)
    fleet = MobilityModule({f"uav{i}": offset_plan(route, 3.0 * (i - 4.5)) for i in range(10)}, dt)
    fans = [fleet.upcoming(ue_id, 10**6) for ue_id in fleet.states]
    for _ in range(n_draws):
        k = int(rng.integers(0, len(lone) - TRACE_BATCH))
        yield "lone", np.array(lone[k:k + TRACE_BATCH])
        k = int(rng.integers(0, len(fans[0]) - _PER_UAV))
        yield "fan", np.array([p for fan in fans for p in fan[k:k + _PER_UAV]])


@pytest.mark.filterwarnings("error")
def test_passes_laid_out_as_in_the_loop_match_the_oracle():
    """Each receiver of a pass the loop makes equals its oracle bundle bit for bit: on the
    shipped scene, on the ground alone (first-order faces but no face pairs) and on a
    scene with no faces at all. The tracer's survivor counts follow the layout of a pass,
    and no empty stage may warn."""
    shipped = default_scene()
    ground_only = Scene(shipped.length, shipped.width, shipped.tx, [])
    tx = shipped.tx.position
    kinds = Counter()
    for layout, points in _loop_passes(np.random.default_rng(2800)):
        assert len(points) == {"lone": TRACE_BATCH, "fan": 10 * _PER_UAV}[layout]
        for scene, ground in ((shipped, True), (ground_only, True), (ground_only, False)):
            paths = trace_path_arrays(scene, points, ground_reflection=ground)
            for m, point in enumerate(points):
                ref = trace_oracle.trace_paths(scene, tx, point, ground_reflection=ground)
                _assert_run_is_bundle(paths, m, ref)
                kinds[scene is shipped, ground] += len(ref.paths)
    tree = ground_only.image_tree()
    assert tree.r1_faces.size == 1 and tree.pair_i.size == 0
    assert ground_only.image_tree(ground=False).r1_faces.size == 0
    # LOS plus the ground bounce, then LOS alone
    assert kinds[False, True] == 2 * kinds[False, False] > 0
    assert kinds[True, True] > kinds[False, True]


def _crossing(a, b, planes):
    """(M, N) mask: segment a->b crosses row n's face strictly inside the segment, with
    a (M, 3, N) and b (3, N) along the row's cols, as the enumeration tests it."""
    den = b[..., 0, :] - a[..., 0, :]
    t = (planes.coord - a[..., 0, :]) / den
    uv = a[..., 1:, :] + t[..., None, :] * (b[..., 1:, :] - a[..., 1:, :])
    on_face = ((uv >= planes.lo) & (uv <= planes.hi)).all(axis=-2)
    return (np.abs(den) > kernels._PAR_EPS) & (t > 0.0) & (t < 1.0) & on_face


@st.composite
def _wall_passes(draw):
    """A scene of 1-3 random walls, some floating above the ground, with a
    transmitter in front of one, at times close to the ground, and 1-80
    receivers laid out to straddle a wall face's plane (some on it), on one height
    (a flat box, at times a roof's), far apart over and past the scene or close
    together; or one receiver, the tightest box, in front of a pair's second face (a
    first-order face where the tree has no pair), on the line from the row's image
    through a point on an edge of the face."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["straddle", "flat", "far", "close", "edge"]))
    m = 1 if layout == "edge" else draw(st.integers(1, 80))
    ground = draw(st.booleans())
    walls = []
    for _ in range(draw(st.integers(1, 3))):
        lo = rng.uniform([5.0, 5.0, 0.0], [400.0, 400.0, 0.0])
        if rng.random() < 0.3:  # a floating box: a bottom face, and pairs with it
            lo[2] = rng.uniform(5.0, 80.0)
        hi = lo + rng.uniform([2.0, 2.0, 20.0], [80.0, 80.0, 150.0])
        walls.append(Building(tuple(lo), tuple(hi), CONCRETE))
    wall = walls[int(rng.integers(len(walls)))]
    axis = int(rng.integers(2))
    face = wall.max_corner[axis] if rng.random() < 0.5 else wall.min_corner[axis]
    tx = rng.uniform(1.0, 300.0, 3)
    tx[axis] = face + rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 80.0)
    if rng.random() < 0.3:  # a low transmitter: second images just below the ground
        tx[2] = rng.uniform(0.05, 2.0)
    scene = Scene(719.2, 693.4, TxPose(tuple(tx.tolist())), walls)
    if layout == "straddle":
        rx = np.column_stack([rng.uniform(0.0, 500.0, m), rng.uniform(0.0, 500.0, m),
                              rng.uniform(1.0, 160.0, m)])
        rx[:, axis] = face + rng.uniform(-30.0, 30.0, m)
        rx[rng.random(m) < 0.2, axis] = face
    elif layout == "flat":
        z = wall.max_corner[2] if rng.random() < 0.3 else rng.uniform(1.0, 160.0)
        rx = np.column_stack([rng.uniform(0.0, 500.0, (m, 2)), np.full(m, z)])
    elif layout == "far":
        rx = rng.uniform([-300.0, -300.0, 1.0], [1000.0, 1000.0, 400.0], (m, 3))
    elif layout == "close":
        rx = rng.uniform(1.0, 300.0, 3) + rng.normal(0.0, rng.uniform(0.1, 10.0), (m, 3))
        rx[:, 2] = np.abs(rx[:, 2]) + 0.5
    else:
        tree = scene.image_tree(ground)
        planes = tree.plane_j if tree.pair_j.size else tree.r1
        n = int(rng.integers(planes.coord.size))
        on_face = np.array([planes.coord[n], *rng.uniform(planes.lo[:, n], planes.hi[:, n])])
        k = 1 + int(rng.integers(2))  # the in-plane axis put on the lower or upper edge
        on_face[k] = (planes.lo, planes.hi)[int(rng.integers(2))][k - 1, n]
        rx = np.empty((1, 3))
        rx[0, planes.cols[:, n]] = on_face + rng.uniform(0.05, 3.0) * (on_face - planes.img[:, n])
        rx[:, 2] = np.maximum(rx[:, 2], 0.5)
    return scene, tuple(tx.tolist()), rx, ground


@given(_wall_passes())
@settings(max_examples=40, deadline=None)
def test_the_cull_keeps_every_pair_a_receiver_can_reach(case):
    """Whatever the pass's receivers, the cull of the image tree to their box keeps
    every face pair that some receiver passes the first test against in the dense
    (receiver, pair) grid, and each receiver's run of the path arrays, every pass culled,
    equals its oracle bundle."""
    scene, tx, rx, ground = case
    tree = scene.image_tree(ground)
    f_axis, f_coord, f_sign = tree.faces[:3]
    in_front = f_sign * (rx[:, f_axis] - f_coord) > kernels._FACE_EPS  # (M, faces)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = _crossing(rx[:, tree.plane_j.cols], tree.plane_j.img, tree.plane_j)
    first &= in_front[:, tree.pair_j]
    reached = first.any(axis=0)
    culled = kernels._cull(tree, rx)
    assert (set(zip(tree.pair_i[reached].tolist(), tree.pair_j[reached].tolist()))
            <= set(zip(culled.pair_i.tolist(), culled.pair_j.tolist())))
    paths = trace_path_arrays(scene, rx, ground_reflection=ground)
    for m, point in enumerate(rx):
        _assert_run_is_bundle(paths, m, trace_oracle.trace_paths(scene, tx, point,
                                                                 ground_reflection=ground))


def test_a_pair_whose_second_image_lies_just_behind_its_face_is_kept():
    """A transmitter 0.5 m above the ground in front of a wall puts the second image of
    the pair (wall, ground) 0.5 m below the ground, strictly behind it: the tree keeps
    the pair, and the receiver whose path bounces off the wall and then the ground
    gets that path, as in its oracle bundle."""
    wall = Building((100.0, 100.0, 0.0), (120.0, 300.0, 60.0), CONCRETE)
    tx, rx = (90.0, 200.0, 0.5), (50.0, 200.0, 1.0)
    scene = Scene(719.2, 693.4, TxPose(tx), [wall])
    tree = scene.image_tree()
    f_axis, f_coord, f_sign = tree.faces[:3]
    wall_face = int(np.nonzero((f_axis == 0) & (f_coord == 100.0))[0][0])
    ground = f_axis.size - 1
    assert (wall_face, ground) in set(zip(tree.pair_i.tolist(), tree.pair_j.tolist()))
    ref = trace_oracle.trace_paths(scene, tx, rx)
    assert [p.vertices for p in ref.paths if p.kind == "R2"] == [((100.0, 200.0, 0.25),
                                                                  (90.0, 200.0, 0.0))]
    _assert_run_is_bundle(trace_path_arrays(scene, [rx]), 0, ref)


def test_image_tree_cached_for_scene_tx_only():
    scene = default_scene()
    tree = scene.image_tree()
    assert scene.image_tree(ground=True) is tree
    assert scene.image_tree(ground=False) is not tree
    assert scene.image_tree(ground=False) is scene.image_tree(ground=False)
    n_faces = scene.faces()[0].size
    assert 0 < tree.pair_i.size < n_faces * (n_faces - 1)


@pytest.mark.parametrize("ground,n_pairs,digest", [
    (True, 440, "70533b3126ef7151fec6f57a830428010d2dc2958e644e03e7eb1e688836adf2"),
    (False, 350, "b247853dda747c28a7b7f4f5f42899f90868aa3bf516368f07600d7f092ba090"),
])
def test_shipped_image_tree_pair_list_is_pinned(ground, n_pairs, digest):
    """The shipped tree's pairs, in (i, j) order: the oracle comparisons pass for any
    conservative pruning, so only this pin catches a weaker one, which would slow
    every pass. Without the test that the second image lies behind face j, which also
    makes the two faces face each other, the tree keeps 838 pairs with the ground."""
    scene = default_scene()
    tree = scene.image_tree(ground)
    assert tree.pair_i.size == n_pairs
    pairs = np.stack([tree.pair_i, tree.pair_j]).astype("<i8").tobytes()
    assert hashlib.sha256(pairs).hexdigest() == digest


def test_trace_batch_validation():
    tx = (1.0, 1.0, 5.0)
    scene = _from(empty_scene(), tx)
    assert [a.shape[0] for a in trace_path_arrays(scene, np.zeros((0, 3)))] == [0] * 7
    # no receivers cull the shipped tree to no pair
    shipped = default_scene()
    assert [a.shape[0] for a in trace_path_arrays(shipped, np.zeros((0, 3)))] == [0] * 7
    with pytest.raises(ValueError):
        trace_path_arrays(scene, [(2.0, 2.0, 10.0), tx])
    with pytest.raises(ValueError):
        trace_path_arrays(scene, [(2.0, 2.0, 10.0), (3.0, 3.0, -1.0)])
    with pytest.raises(ValueError):
        trace_path_arrays(scene, [2.0, 2.0, 10.0])
    # the transmitter is the scene's: a call that still passes one fails, not traces from it
    with pytest.raises(TypeError):
        trace_path_arrays(scene, tx, [(2.0, 2.0, 10.0)])
    with pytest.raises(TypeError):
        trace_paths(scene, tx, (2.0, 2.0, 10.0))
    # a NaN compares false with everything, so only a finiteness check stops it
    for rx in [(math.nan, 300.0, 40.0), (2.0, 2.0, math.inf), (2.0, -math.inf, 10.0)]:
        with pytest.raises(ValueError, match="must be finite"):
            trace_path_arrays(scene, [(2.0, 2.0, 10.0), rx])
        with pytest.raises(ValueError, match="must be finite"):
            trace_paths(scene, rx)
        with pytest.raises(ValueError, match="must be three finite numbers"):
            _from(scene, rx)


@pytest.mark.parametrize("rx, text", [
    ([2.0, 2.0, 10.0], "rx must be an (M, 3) array"),
    ([(2.0, 2.0, 10.0), (math.nan, 2.0, 10.0)], "rx must be finite"),
    ([(2.0, 2.0, 10.0), (3.0, 3.0, -1.0)], "rx must be above the ground plane"),
])
def test_trace_errors_name_the_receivers(rx, text):
    """These checks read the receivers alone (the scene checked its transmitter), so
    their texts name no transmitter."""
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        trace_path_arrays(_from(empty_scene(), (1.0, 1.0, 5.0)), rx)


def test_scene_from_file_reads_a_hand_written_doc(tmp_path):
    doc = {
        "bounds": {"length": 719.2, "width": 693.4},
        "tx": {"position": [360.0, 399.5, 120.0], "azimuth_deg": -90.0, "downtilt_deg": 45.0},
        "buildings": [{"min": [10, 10, 0], "max": [20, 30, 40], "material": "concrete"}],
        "materials": {"concrete": 0.5},
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    loaded = load_scene({"scene": str(path)})
    assert loaded.length == 719.2
    assert loaded.tx == TxPose((360.0, 399.5, 120.0), azimuth_deg=-90.0, downtilt_deg=45.0)
    assert loaded.buildings[0].min_corner == (10, 10, 0)


@pytest.mark.parametrize(
    "key, edit, shown",
    [
        ("tx.position", lambda d: d["tx"].update(position=[5, 5, True]), "true"),
        ("tx.position", lambda d: d["tx"].update(position=["360", 399.5, 120.0]), '"360"'),
        ("tx.azimuth_deg", lambda d: d["tx"].update(azimuth_deg=True), "true"),
        ("tx.downtilt_deg", lambda d: d["tx"].update(downtilt_deg="45"), '"45"'),
        ("tx.position", lambda d: d["tx"].update(position=[10**400, 399.5, 120.0]), "1" + "0" * 400),
        ("materials.concrete", lambda d: d["materials"].update(concrete="0.5"), '"0.5"'),
        ("materials.metal", lambda d: d.update(materials={"metal": False}, ground_material="metal"),
         "false"),
        ("bounds.width", lambda d: d["bounds"].update(width="693.4"), '"693.4"'),
    ],
    ids=["boolean-tx-z", "text-tx-x", "boolean-azimuth", "text-downtilt", "huge-tx-x",
         "text-material", "boolean-material", "text-width"],
)
def test_scene_from_dict_refuses_booleans_and_text_by_key(key, edit, shown):
    """float() would read true as 1.0 and "0.5" as 0.5; the scene names the key instead."""
    doc = {
        "bounds": {"length": 719.2, "width": 693.4},
        "tx": {"position": [360.0, 399.5, 120.0]},
        "buildings": [{"min": [10, 10, 0], "max": [20, 30, 40], "material": "concrete"}],
        "materials": {"concrete": 0.5},
    }
    edit(doc)
    with pytest.raises(ValueError) as err:
        Scene.from_dict(doc)
    assert str(err.value) == f"scene {key} must be a number, got {shown}"


def test_building_validation():
    with pytest.raises(ValueError):
        Building((10, 10, 0), (5, 30, 40), CONCRETE)
    # each corner is three finite numbers; six 2-coordinate numbers would fill one box row
    for lo, hi, name in [((10, 10), (20, 30, 40), "min"), ((10, 10, 0), (20, 30, 40, 50), "max"),
                         ((10, 10, 0), (20, 30, math.inf), "max"),
                         ((10, math.nan, 0), (20, 30, 40), "min"),
                         ((10, 10, True), (20, 30, 40), "min"),
                         ((10, 10, 0), (20, "30", 40), "max"), ((10, 10, 0), (20, 30, 10**400), "max"),
                         (5, (20, 30, 40), "min")]:
        with pytest.raises(ValueError, match=f"building {name} corner must be three finite numbers"):
            Building(lo, hi, CONCRETE)
    assert Building(np.array([10, 10, 0]), [20.0, 30.0, 40.0], CONCRETE).max_corner[2] == 40.0
    with pytest.raises(ValueError):
        Scene(100, 100, TxPose((5, 5, 50)),
              [Building((50, 50, 0), (150, 60, 10), CONCRETE)])
    with pytest.raises(ValueError):
        Material("x", 1.5)
