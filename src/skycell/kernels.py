"""Tracer kernels in numpy: slab occlusion, the static image tree, batched paths.

The transmitter is fixed, so its first-order images, the ordered face pairs
that can carry a second-order path and each pair's second-order image do not
depend on the receiver. :func:`build_image_tree` computes them once (beam
tracing from a fixed source, as in Funkhouser et al., SIGGRAPH 1998), and
:func:`trace_batch` enumerates the paths to many receivers in one vectorised
pass (Sionna RT batches receivers the same way, arXiv:2303.11103) into one
path table, LOS, R1 and R2 rows alike. Every surviving candidate is computed
with the same per-element expressions as the scalar one-receiver
enumeration, so the paths come out bit-identical. The
occlusion test lays segments and boxes out axis-major, so its broad phase
compares every box with all segments in one long inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# open-segment clip: endpoints sitting on a face do not count as occlusion
_T_EPS = 1e-9
# |direction component| below this is treated as parallel to the slab
_PAR_EPS = 1e-12
# inclusive tolerance for reflection points on face rectangles
_FACE_EPS = 1e-9
# margin by which the static pair pruning grows every face; far above the
# rounding of any reflection point, so pruning never drops a valid path
_PRUNE_EPS = 1e-6
# row k is the one-hot mask of axis k
_AXES = np.eye(3, dtype=bool)
# the 8 corners of a box: True picks the upper bound on that axis
_CORNERS = np.array([[(c >> b) & 1 for b in range(3)] for c in range(8)], dtype=bool)


def _seg_blocked_np_many(p, q, boxes):
    """Occlusion test for N segments p->q (N, 3) against B boxes; returns (N,) bool.

    Axis-major throughout: segments as (3, N) and boxes as (3, B) rows. A broad
    phase keeps the (box, segment) pairs whose bounding boxes overlap, one (B, N)
    boolean combined axis by axis, so every inner loop runs over the N segments;
    the slab test runs on those K pairs alone, as (3, K) rows. A slab hit implies
    overlapping bounding boxes, so the broad phase changes no result.
    """
    blocked = np.zeros(p.shape[0], dtype=bool)
    if boxes.shape[0] == 0 or p.shape[0] == 0:
        return blocked
    p = np.ascontiguousarray(p.T)
    q = np.ascontiguousarray(q.T)
    bt = np.ascontiguousarray(boxes.T)
    b_lo, b_hi = bt[:3, :, None], bt[3:, :, None]
    s_lo, s_hi = np.minimum(p, q), np.maximum(p, q)
    near = s_lo[0] <= b_hi[0]
    cmp = np.empty_like(near)
    near &= np.greater_equal(s_hi[0], b_lo[0], out=cmp)
    for a in (1, 2):
        near &= np.less_equal(s_lo[a], b_hi[a], out=cmp)
        near &= np.greater_equal(s_hi[a], b_lo[a], out=cmp)
    # flat indices split by hand: np.nonzero on a 2-D mask is several times slower
    pair = near.ravel().nonzero()[0]
    if pair.size == 0:
        return blocked
    box = pair // near.shape[1]
    seg = pair - box * near.shape[1]
    pp = p.take(seg, axis=1)
    d = (q - p).take(seg, axis=1)
    lo = bt[:3].take(box, axis=1)
    hi = bt[3:].take(box, axis=1)
    par = np.abs(d) <= _PAR_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (lo - pp) / d
        tb = (hi - pp) / d
    t_enter = np.minimum(ta, tb)
    t_exit = np.maximum(ta, tb, out=tb)
    if par.any():
        # parallel axes: inside the slab leaves t unconstrained, outside kills the box
        inside = (pp >= lo) & (pp <= hi)
        t_enter = np.where(par, np.where(inside, -np.inf, np.inf), t_enter)
        t_exit = np.where(par, np.where(inside, np.inf, -np.inf), t_exit)
    # max and min are exact, so chaining the three rows gives the bits of a reduction
    t0 = np.maximum(t_enter[0], t_enter[1])
    np.maximum(t0, t_enter[2], out=t0)
    np.maximum(t0, _T_EPS, out=t0)
    t1 = np.minimum(t_exit[0], t_exit[1])
    np.minimum(t1, t_exit[2], out=t1)
    np.minimum(t1, 1.0 - _T_EPS, out=t1)
    blocked[seg[t1 > t0]] = True
    return blocked


def _norm_rows(v):
    x, y, z = v.T
    return np.sqrt(x * x + y * y + z * z)


def _mirror_rows(points, axes, coords):
    out = points.copy()
    rows = np.arange(points.shape[0])
    out[rows, axes] = 2.0 * coords - points[rows, axes]
    return out


def _face_hit(a, b, coord, lo, hi):
    """Where segment a->b crosses a face plane {x_axis = coord}: (t, ok).

    ``a`` and ``b`` hold each end along the face axis, then along its two
    in-plane axes, as shape (..., 3, N); ``lo``/``hi`` (2, N) are the face
    rectangle grown by _FACE_EPS. ok is True where the crossing lies
    strictly inside the segment and on the rectangle. The crossing point is
    a + t * (b - a) component by component, bit-identical to computing it
    as a 3-vector and selecting. Call under np.errstate(divide="ignore",
    invalid="ignore"): t is garbage wherever ok is False.
    """
    # in place, one buffer each for t and the in-plane point: with many
    # receivers in a pass these are the tracer's largest arrays
    pa = a[..., 0, :]
    t = b[..., 0, :] - pa  # the denominator, then t
    ok = np.abs(t) > _PAR_EPS
    np.divide(np.subtract(coord, pa, out=np.empty_like(t)), t, out=t)
    ok &= (t > 0.0) & (t < 1.0)
    au = a[..., 1:, :]
    uv = b[..., 1:, :] - au
    np.multiply(t[..., None, :], uv, out=uv)
    np.add(au, uv, out=uv)
    ok &= ((uv >= lo) & (uv <= hi)).all(axis=-2)
    return t, ok


# ---------------------------------------------------------------------------
# static image tree
# ---------------------------------------------------------------------------


class Planes(NamedTuple):
    """Per-row constants of a face-crossing test; see :func:`_face_hit`."""

    cols: np.ndarray  # (3, N): the face axis, then its two in-plane axes
    coord: np.ndarray  # (N,) plane coordinate
    lo: np.ndarray  # (2, N) face rectangle grown by _FACE_EPS
    hi: np.ndarray  # (2, N)
    img: np.ndarray  # (3, N) the row's image point along cols


def _planes(img, axes, coords, uv) -> Planes:
    cols = np.stack([axes, (axes + 1) % 3, (axes + 2) % 3])
    return Planes(
        cols=cols,
        coord=coords,
        lo=np.stack([uv[:, 0] - _FACE_EPS, uv[:, 2] - _FACE_EPS]),
        hi=np.stack([uv[:, 1] + _FACE_EPS, uv[:, 3] + _FACE_EPS]),
        img=img[np.arange(img.shape[0]), cols],
    )


@dataclass(frozen=True)
class ImageTree:
    """Receiver-independent part of the image method for one transmitter.

    ``img1[f]`` is the transmitter mirrored in face f. First-order paths can
    only use the faces in ``r1_faces`` (those facing the transmitter), whose
    planes and images ``r1`` holds. Pair k bounces off face ``pair_i[k]``
    then ``pair_j[k]``, has second-order image ``img2[k]``, and ``r2`` holds
    face j's plane with that image; ``pair_r1[k]`` is face i's row in r1.
    Pairs keep (i, j) order.
    """

    tx: np.ndarray
    faces: tuple  # (axis, coord, sign, uv, reflection), as Scene.faces returns
    img1: np.ndarray
    r1_faces: np.ndarray
    r1: Planes
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_r1: np.ndarray
    img2: np.ndarray
    r2: Planes


def _face_boxes(f_axis, f_coord, f_uv):
    """Each face rectangle as a 3D box (lo, hi), grown by _PRUNE_EPS."""
    nf = f_axis.shape[0]
    rows = np.arange(nf)
    lo = np.empty((nf, 3))
    hi = np.empty((nf, 3))
    lo[rows, f_axis] = hi[rows, f_axis] = f_coord
    lo[rows, (f_axis + 1) % 3], hi[rows, (f_axis + 1) % 3] = f_uv[:, 0], f_uv[:, 1]
    lo[rows, (f_axis + 2) % 3], hi[rows, (f_axis + 2) % 3] = f_uv[:, 2], f_uv[:, 3]
    return lo - _PRUNE_EPS, hi + _PRUNE_EPS


def _clip_front(lo, hi, axes, coords, signs):
    """Clip boxes to the closed half-spaces in front of planes."""
    on_axis = _AXES[axes]
    c = coords[:, None]
    lo = np.where(on_axis & (signs > 0)[:, None], np.maximum(lo, c), lo)
    hi = np.where(on_axis & (signs < 0)[:, None], np.minimum(hi, c), hi)
    return lo, hi


def build_image_tree(tx, f_axis, f_coord, f_sign, f_uv, f_refl) -> ImageTree:
    """First-order images and the pruned second-order pair list for tx.

    A pair (i, j) is kept only if all three conservative tests pass:
    face i faces the transmitter; each face has a part in front of the
    other; and, seen from the first image (central projection onto plane i),
    the part of face j in front of face i can land on the part of face i in
    front of face j. A path off i then j needs all three, since its second
    bounce point projects from the first image to its first bounce point.
    """
    tx = np.asarray(tx, dtype=np.float64)
    nf = f_axis.shape[0]
    tx_side = f_sign * (tx[f_axis] - f_coord) > _FACE_EPS
    img1 = _mirror_rows(np.broadcast_to(tx, (nf, 3)).copy(), f_axis, f_coord)

    lo, hi = _face_boxes(f_axis, f_coord, f_uv)
    # ahead[i, j]: some point of face j lies on or in front of plane i
    ahead = np.where(
        (f_sign > 0)[:, None], hi[:, f_axis].T >= f_coord[:, None], lo[:, f_axis].T <= f_coord[:, None]
    )
    I, J = np.nonzero(tx_side[:, None] & ahead & ahead.T & ~np.eye(nf, dtype=bool))
    lo_j, hi_j = _clip_front(lo[J], hi[J], f_axis[I], f_coord[I], f_sign[I])
    lo_i, hi_i = _clip_front(lo[I], hi[I], f_axis[J], f_coord[J], f_sign[J])

    # corners of the clipped face-j boxes, projected from img1 onto plane i;
    # img1 lies strictly behind plane i, so the central projection keeps the
    # box convex and the projected corners bound every projected point
    corners = np.where(_CORNERS[:, None, :], hi_j, lo_j)  # (8, P, 3)
    axis = f_axis[I]
    x_a = corners[:, np.arange(I.size), axis]
    t = (f_coord[I] - x_a) / (img1[I, axis] - x_a)
    proj = img1[I] - corners
    proj *= t[:, :, None]
    proj += corners
    # overlap with the clipped face-i box across plane i's two in-plane axes
    within = (proj.min(axis=0) <= hi_i) & (proj.max(axis=0) >= lo_i)
    keep = (within | _AXES[axis]).all(axis=1)
    I, J = I[keep], J[keep]

    r1_faces = np.nonzero(tx_side)[0]
    img2 = _mirror_rows(img1[I], f_axis[J], f_coord[J])
    return ImageTree(
        tx=tx,
        faces=(f_axis, f_coord, f_sign, f_uv, f_refl),
        img1=img1,
        r1_faces=r1_faces,
        r1=_planes(img1[r1_faces], f_axis[r1_faces], f_coord[r1_faces], f_uv[r1_faces]),
        pair_i=I,
        pair_j=J,
        pair_r1=np.searchsorted(r1_faces, I),
        img2=img2,
        r2=_planes(img2, f_axis[J], f_coord[J], f_uv[J]),
    )


# ---------------------------------------------------------------------------
# batched enumeration
# ---------------------------------------------------------------------------


def _first_order(tree, rx, rx_side):
    """Valid-geometry R1 candidates: (receiver row, reflection coefficient, image,
    bounce point)."""
    *_, f_refl = tree.faces
    r1 = tree.r1
    t, ok = _face_hit(r1.img, rx[:, r1.cols], r1.coord, r1.lo, r1.hi)
    mm, k = (ok & rx_side[:, tree.r1_faces]).nonzero()
    ff = tree.r1_faces[k]
    img1 = tree.img1[ff]
    rxr = rx[mm]
    h1 = img1 + t[mm, k][:, None] * (rxr - img1)
    return mm, f_refl[ff], img1, h1


def _second_order(tree, rx, rx_side):
    """Valid-geometry R2 candidates: (receiver row, reflection product, image, h1, h2)."""
    f_axis, f_coord, f_sign, _f_uv, f_refl = tree.faces
    r1, r2 = tree.r1, tree.r2
    t2, ok = _face_hit(rx[:, r2.cols], r2.img, r2.coord, r2.lo, r2.hi)
    mm, pp = (ok & rx_side[:, tree.pair_j]).nonzero()
    img2 = tree.img2[pp]
    rxr = rx[mm]
    h2 = rxr + t2[mm, pp][:, None] * (img2 - rxr)
    # back from h2 to the first image: the bounce off face i, then both
    # bounce points in front of the other face
    I, J, k = tree.pair_i[pp], tree.pair_j[pp], tree.pair_r1[pp]
    rows = np.arange(pp.size)
    t1, ok = _face_hit(h2[rows, r1.cols[:, k]], r1.img[:, k], r1.coord[k], r1.lo[:, k], r1.hi[:, k])
    img1 = tree.img1[I]
    h1 = h2 + t1[:, None] * (img1 - h2)
    ok &= f_sign[I] * (h2[rows, f_axis[I]] - f_coord[I]) > _FACE_EPS
    ok &= f_sign[J] * (h1[rows, f_axis[J]] - f_coord[J]) > _FACE_EPS
    return mm[ok], (f_refl[I] * f_refl[J])[ok], img2[ok], h1[ok], h2[ok]


def trace_batch(tree: ImageTree, rx, boxes, max_order: int) -> tuple:
    """Enumerate valid LOS/R1/R2 paths from the tree's transmitter to each rx row.

    Returns one table with a row per path, (rows, kinds, points, lengths,
    aod_dir, aoa_dir, refl): receiver row, reflection order (an index into
    geometry.PATH_KINDS), bounce points (P, 2, 3) padded with NaN, length,
    the unit directions it leaves the transmitter and reaches the receiver
    along (P, 3), and the product of the reflection coefficients it meets.
    Rows are in enumeration order: LOS, R1, then R2, each by receiver, then
    first order by face and second order by (i, j). Callers apply gains and
    sorting. All occlusion tests run as one broad-phase call.
    """
    tx = tree.tx
    rx = np.asarray(rx, dtype=np.float64).reshape(-1, 3)
    n_rx = rx.shape[0]
    f_axis, f_coord, f_sign, _f_uv, _f_refl = tree.faces
    rx_side = f_sign[None, :] * (rx[:, f_axis] - f_coord[None, :]) > _FACE_EPS

    empty = np.zeros((0, 3))
    no_rows = np.zeros(0, dtype=np.int64)
    m1, refl1, img1, h1_1 = no_rows, no_rows, empty, empty
    m2, refl2, img2, h1_2, h2_2 = no_rows, no_rows, empty, empty, empty
    if max_order >= 1 and f_axis.shape[0]:
        with np.errstate(divide="ignore", invalid="ignore"):
            m1, refl1, img1, h1_1 = _first_order(tree, rx, rx_side)
            if max_order >= 2:
                m2, refl2, img2, h1_2, h2_2 = _second_order(tree, rx, rx_side)

    # the candidates, LOS then R1 then R2. A LOS path has no bounce: its first point
    # is rx, and its last point and last image are tx
    n1, n2 = m1.size, m2.size
    rows = np.concatenate([np.arange(n_rx), m1, m2])
    kinds = np.arange(3).repeat((n_rx, n1, n2))
    first = np.concatenate([rx, h1_1, h1_2])
    last = np.concatenate([tx[None, :].repeat(n_rx, 0), h1_1, h2_2])
    image = np.concatenate([last[:n_rx], img1, img2])
    refl = np.concatenate([[1.0] * n_rx, refl1, refl2])
    rxr = rx[rows]

    # one occlusion call; segments: tx-first for all | h1-h2 for R2 | last-rx for R1 and R2
    n = rows.size
    free = ~_seg_blocked_np_many(np.concatenate([tx[None, :].repeat(n, 0), h1_2, last[n_rx:]]),
                                 np.concatenate([first, h2_2, rxr[n_rx:]]), boxes)
    ok = free[:n]
    ok[n_rx + n1:] &= free[n:n + n2]
    ok[n_rx:] &= free[n + n2:]
    keep = ok.nonzero()[0]
    rows, kinds, first, last, image, refl, rxr = (
        rows[keep], kinds[keep], first[keep], last[keep], image[keep], refl[keep], rxr[keep])

    # one set of expressions for every kind: for LOS, |tx - rx| has the bits of |rx - tx|
    # and tx - rx those of -dvec, bar the sign of a zero where rx and tx share a coordinate
    dvec = first - tx
    evec = last - rxr
    evec[kinds == 0] = -dvec[kinds == 0]
    length, dn, en = _norm_rows(np.concatenate([image - rxr, dvec, evec])).reshape(3, -1)
    points = np.concatenate([first, last], axis=1).reshape(-1, 2, 3)
    points[kinds[:, None] <= (0, 1)] = np.nan  # bounce k exists where kind > k
    return rows, kinds, points, length, dvec / dn[:, None], evec / en[:, None], refl


def active_backend() -> str:
    """Name of the tracer implementation; numpy is the only one."""
    return "numpy"
