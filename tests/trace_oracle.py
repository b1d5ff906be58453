"""Frozen references: the scalar tracer and the path-by-path channel synthesis.

Test-only. The tracer traces one receiver at a time with no precomputed image
tree, enumerates every ordered face pair and runs the slab test against every
box. The batched tracer in ``skycell.kernels`` evaluates the same
per-candidate expressions, so the two must agree exactly on every path they
return. The synthesis builds each channel one path at a time from one
direction and one steering vector per path; ``skycell.phy.synthesize_channels``
must give the same bits for every receiver of a batch.
"""

from __future__ import annotations

import math

import numpy as np

from skycell.geometry import PATH_KINDS, SPEED_OF_LIGHT, PathBundle, PropagationPath

_T_EPS = 1e-9
_PAR_EPS = 1e-12
_FACE_EPS = 1e-9


def _seg_blocked(p, q, boxes):
    p = np.atleast_2d(p)
    q = np.atleast_2d(q)
    if boxes.shape[0] == 0:
        return np.zeros(p.shape[0], dtype=bool)
    d = (q - p)[:, None, :]
    pp = p[:, None, :]
    lo = boxes[None, :, :3]
    hi = boxes[None, :, 3:]
    par = np.abs(d) <= _PAR_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (lo - pp) / d
        tb = (hi - pp) / d
    t_enter = np.minimum(ta, tb)
    t_exit = np.maximum(ta, tb)
    inside = (pp >= lo) & (pp <= hi)
    t_enter = np.where(par, np.where(inside, -np.inf, np.inf), t_enter)
    t_exit = np.where(par, np.where(inside, np.inf, -np.inf), t_exit)
    t0 = np.maximum(t_enter.max(axis=2), _T_EPS)
    t1 = np.minimum(t_exit.min(axis=2), 1.0 - _T_EPS)
    return (t1 > t0).any(axis=1)


def _norm_rows(v):
    return np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2 + v[:, 2] ** 2)


def _mirror_rows(points, axes, coords):
    out = points.copy()
    rows = np.arange(points.shape[0])
    out[rows, axes] = 2.0 * coords - points[rows, axes]
    return out


def _on_face_rows(hits, axes, uv):
    rows = np.arange(hits.shape[0])
    u = hits[rows, (axes + 1) % 3]
    v = hits[rows, (axes + 2) % 3]
    return (
        (u >= uv[:, 0] - _FACE_EPS)
        & (u <= uv[:, 1] + _FACE_EPS)
        & (v >= uv[:, 2] - _FACE_EPS)
        & (v <= uv[:, 3] + _FACE_EPS)
    )


def _plane_hit_rows(a, b, axes, coords):
    rows = np.arange(a.shape[0])
    pa = a[rows, axes]
    pb = b[rows, axes]
    denom = pb - pa
    ok = np.abs(denom) > _PAR_EPS
    t = np.where(ok, (coords - pa) / np.where(ok, denom, 1.0), -1.0)
    ok &= (t > 0.0) & (t < 1.0)
    return t, ok


def _emit(tx, rx, h1, h2, img_last, refl, kind, sink):
    length = _norm_rows(img_last - rx[None, :])
    dvec = h1 - tx[None, :]
    dn = _norm_rows(dvec)
    evec = (h2 if h2 is not None else h1) - rx[None, :]
    en = _norm_rows(evec)
    for k in range(h1.shape[0]):
        sink.append((
            kind, h1[k], None if h2 is None else h2[k], length[k],
            dvec[k] / dn[k], evec[k] / en[k], refl[k],
        ))


def trace_candidates(tx, rx, boxes, f_axis, f_coord, f_sign, f_uv, f_refl, max_order):
    paths = []
    if not bool(_seg_blocked(tx[None, :], rx[None, :], boxes)[0]):
        d = rx - tx
        length = float(np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2))
        paths.append((0, None, None, length, d / length, -d / length, 1.0))
    if max_order < 1 or f_axis.shape[0] == 0:
        return paths

    nf = f_axis.shape[0]
    tx_side = f_sign * (tx[f_axis] - f_coord) > _FACE_EPS
    rx_side = f_sign * (rx[f_axis] - f_coord) > _FACE_EPS
    img1_all = _mirror_rows(np.broadcast_to(tx, (nf, 3)).copy(), f_axis, f_coord)

    cand = np.where(tx_side & rx_side)[0]
    if cand.size:
        img1 = img1_all[cand]
        t, ok = _plane_hit_rows(img1, np.broadcast_to(rx, (cand.size, 3)), f_axis[cand], f_coord[cand])
        cand, img1, t = cand[ok], img1[ok], t[ok]
        if cand.size:
            h1 = img1 + t[:, None] * (rx[None, :] - img1)
            ok = _on_face_rows(h1, f_axis[cand], f_uv[cand])
            cand, img1, h1 = cand[ok], img1[ok], h1[ok]
        if cand.size:
            ok = ~_seg_blocked(np.broadcast_to(tx, (cand.size, 3)), h1, boxes)
            ok &= ~_seg_blocked(h1, np.broadcast_to(rx, (cand.size, 3)), boxes)
            cand, img1, h1 = cand[ok], img1[ok], h1[ok]
        if cand.size:
            _emit(tx, rx, h1, None, img1, f_refl[cand], 1, paths)

    if max_order < 2:
        return paths

    I, J = np.meshgrid(np.arange(nf), np.arange(nf), indexing="ij")
    I, J = I.ravel(), J.ravel()
    keep = (I != J) & tx_side[I] & rx_side[J]
    I, J = I[keep], J[keep]
    if I.size == 0:
        return paths
    img1 = img1_all[I]
    img2 = _mirror_rows(img1, f_axis[J], f_coord[J])
    t2, ok = _plane_hit_rows(np.broadcast_to(rx, (I.size, 3)), img2, f_axis[J], f_coord[J])
    I, J, img1, img2, t2 = I[ok], J[ok], img1[ok], img2[ok], t2[ok]
    if I.size == 0:
        return paths
    h2 = rx[None, :] + t2[:, None] * (img2 - rx[None, :])
    ok = _on_face_rows(h2, f_axis[J], f_uv[J])
    rows = np.arange(h2.shape[0])
    ok &= f_sign[I] * (h2[rows, f_axis[I]] - f_coord[I]) > _FACE_EPS
    I, J, img1, img2, h2 = I[ok], J[ok], img1[ok], img2[ok], h2[ok]
    if I.size == 0:
        return paths
    t1, ok = _plane_hit_rows(h2, img1, f_axis[I], f_coord[I])
    I, J, img1, img2, h2, t1 = I[ok], J[ok], img1[ok], img2[ok], h2[ok], t1[ok]
    if I.size == 0:
        return paths
    h1 = h2 + t1[:, None] * (img1 - h2)
    ok = _on_face_rows(h1, f_axis[I], f_uv[I])
    rows = np.arange(h1.shape[0])
    ok &= f_sign[J] * (h1[rows, f_axis[J]] - f_coord[J]) > _FACE_EPS
    I, J, img2, h1, h2 = I[ok], J[ok], img2[ok], h1[ok], h2[ok]
    if I.size == 0:
        return paths
    m = I.size
    ok = ~_seg_blocked(np.broadcast_to(tx, (m, 3)), h1, boxes)
    ok &= ~_seg_blocked(h1, h2, boxes)
    ok &= ~_seg_blocked(h2, np.broadcast_to(rx, (m, 3)), boxes)
    I, J, img2, h1, h2 = I[ok], J[ok], img2[ok], h1[ok], h2[ok]
    if I.size:
        _emit(tx, rx, h1, h2, img2, f_refl[I] * f_refl[J], 2, paths)
    return paths


def mirror_point(p, axis: int, coord: float) -> np.ndarray:
    """Reflect a point across the axis-aligned plane {x_axis = coord}."""
    out = np.array(p, dtype=np.float64)
    out[axis] = 2.0 * coord - out[axis]
    return out


def _angles(direction) -> tuple:
    az = math.atan2(direction[1], direction[0])
    el = math.atan2(direction[2], math.hypot(direction[0], direction[1]))
    return (az, el)


def trace_paths(scene, tx, rx, max_order=2, carrier_hz=4e10, ground_reflection=True) -> PathBundle:
    """The reference bundle for one receiver, built as the tracer built it."""
    tx = np.asarray(tx, dtype=np.float64)
    rx = np.asarray(rx, dtype=np.float64)
    f_axis, f_coord, f_sign, f_uv, f_refl = scene.faces(ground=ground_reflection)
    raw = trace_candidates(tx, rx, scene.boxes, f_axis, f_coord, f_sign, f_uv, f_refl, max_order)
    lam = SPEED_OF_LIGHT / carrier_hz
    paths = []
    for kind_i, h1, h2, length, aod_dir, aoa_dir, refl in raw:
        mag = lam / (4.0 * math.pi * length) * refl
        phase = -2.0 * math.pi * length / lam
        vertices = ()
        if h1 is not None:
            vertices += (tuple(h1),)
        if h2 is not None:
            vertices += (tuple(h2),)
        paths.append(PropagationPath(
            kind=PATH_KINDS[kind_i],
            vertices=vertices,
            length=float(length),
            aod=_angles(aod_dir),
            aoa=_angles(aoa_dir),
            gain=complex(mag * math.cos(phase), mag * math.sin(phase)),
        ))
    paths.sort(key=lambda p: (PATH_KINDS.index(p.kind), p.length, p.aod, p.aoa))
    return PathBundle(paths=tuple(paths))


def direction_from_angles(azimuth: float, elevation: float) -> np.ndarray:
    ce = math.cos(elevation)
    return np.array(
        [ce * math.cos(azimuth), ce * math.sin(azimuth), math.sin(elevation)],
        dtype=np.float64,
    )


def steering_from_direction(upa, d_local) -> np.ndarray:
    u = d_local[0]
    v = d_local[1]
    m = np.arange(upa.rows)[:, None]
    n = np.arange(upa.cols)[None, :]
    phase = 2.0 * math.pi * upa.spacing * (m * u + n * v)
    return (np.exp(1j * phase) / math.sqrt(upa.n_elements)).ravel()


def synthesize_channel(bundle, tx_upa, rx_upa, tx_rotation=None, rx_rotation=None) -> np.ndarray:
    """The reference (Nr, Nt) channel of one bundle that carries paths, path by path."""
    assert bundle.paths, "the reference covers bundles with paths only"
    h = np.zeros((rx_upa.n_elements, tx_upa.n_elements), dtype=np.complex128)
    for path in bundle.paths:
        d_tx = direction_from_angles(*path.aod)
        d_rx = direction_from_angles(*path.aoa)
        if tx_rotation is not None:
            d_tx = tx_rotation.T @ d_tx
        if rx_rotation is not None:
            d_rx = rx_rotation.T @ d_rx
        a_tx = steering_from_direction(tx_upa, d_tx)
        a_rx = steering_from_direction(rx_upa, d_rx)
        h += path.gain * np.outer(a_rx, a_tx.conj())
    return h
