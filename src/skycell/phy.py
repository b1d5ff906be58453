"""Antenna arrays, DFT codebooks, narrowband channel synthesis and beam sweep.

The channel is a geometric narrowband model: each traced path contributes its
complex gain times the outer product of receive and transmit steering
vectors, with angles expressed in each array's local frame.
:func:`synthesize_channels` takes a radio pass's path arrays (gains and
AoD/AoA, as :func:`skycell.geometry.trace_path_arrays` returns them, with each
receiver's path count) and builds every receiver's channel in one pass; a
receiver without paths sums none and gets the zero channel, its outage.
:func:`synthesize_channel` wraps it for one PathBundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PathBundle


@dataclass(frozen=True)
class UpaConfig:
    rows: int
    cols: int
    spacing: float = 0.5  # element pitch in wavelengths

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.spacing <= 0:
            raise ValueError("UPA needs rows, cols >= 1 and spacing > 0")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class Codebook:
    codewords: np.ndarray  # (n_codewords, n_elements) complex, unit norm rows

    @property
    def n_codewords(self) -> int:
        return self.codewords.shape[0]


@dataclass
class CommsConfig:
    tx_power_dbm: float
    bandwidth_hz: float
    noise_figure_db: float
    max_throughput_mbps: float
    carrier_hz: float
    tx_upa: UpaConfig
    rx_upa: UpaConfig
    # receive-array boresight on the drone; -90 downtilt points straight up
    rx_azimuth_deg: float
    rx_downtilt_deg: float

    @property
    def tx_power_w(self) -> float:
        return 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0)

    @property
    def noise_power_w(self) -> float:
        noise_dbm = -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db
        return 10.0 ** ((noise_dbm - 30.0) / 10.0)


def steering_from_direction(upa: UpaConfig, d_local: np.ndarray) -> np.ndarray:
    """Unit-norm array response for a unit direction already in the array frame."""
    return _steering(upa, np.asarray(d_local)[None, :])[0]


def _steering(upa: UpaConfig, d_local: np.ndarray) -> np.ndarray:
    """(P, n_elements) responses for the P unit directions (rows) of d_local.

    Element (m, n) carries phase 2*pi*spacing*(m*u + n*v) with (u, v) the
    first two components of the direction; rows flatten row-major.
    """
    u = d_local[:, 0, None, None]
    v = d_local[:, 1, None, None]
    m = np.arange(upa.rows)[:, None]
    n = np.arange(upa.cols)[None, :]
    phase = 2.0 * math.pi * upa.spacing * (m * u + n * v)
    return (np.exp(1j * phase) / math.sqrt(upa.n_elements)).reshape(len(d_local), upa.n_elements)


def dft_codebook(upa: UpaConfig) -> Codebook:
    """Kronecker product of 1-D DFT bases over rows and cols; orthonormal."""
    fr = np.exp(2j * np.pi * np.outer(np.arange(upa.rows), np.arange(upa.rows)) / upa.rows)
    fc = np.exp(2j * np.pi * np.outer(np.arange(upa.cols), np.arange(upa.cols)) / upa.cols)
    cb = np.kron(fr, fc) / math.sqrt(upa.n_elements)
    return Codebook(codewords=cb)


def boresight_rotation(azimuth_deg: float, downtilt_deg: float) -> np.ndarray:
    """Rotation matrix mapping array-local axes to global axes.

    The local +z axis (boresight) points at the given azimuth, tilted down
    from the horizon by the downtilt; local x stays horizontal.
    """
    az = math.radians(azimuth_deg)
    el = math.radians(-downtilt_deg)
    z = np.array([math.cos(az) * math.cos(el), math.sin(az) * math.cos(el), math.sin(el)])
    x = np.array([-math.sin(az), math.cos(az), 0.0])
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


def synthesize_channel(
    bundle: PathBundle,
    tx_upa: UpaConfig,
    rx_upa: UpaConfig,
    tx_rotation: np.ndarray | None = None,
    rx_rotation: np.ndarray | None = None,
) -> np.ndarray:
    """The (Nr, Nt) complex matrix H = sum over paths of gain * a_rx(aoa) a_tx(aod)^H."""
    paths = bundle.paths
    return synthesize_channels(
        np.array([len(paths)]),
        np.array([p.gain for p in paths], dtype=np.complex128),
        np.array([p.aod for p in paths]).reshape(-1, 2),
        np.array([p.aoa for p in paths]).reshape(-1, 2),
        tx_upa, rx_upa, tx_rotation, rx_rotation,
    )[0]


def _directions(angles) -> np.ndarray:
    """(P, 3) unit vectors (cos el cos az, cos el sin az, sin el) of (P, 2) (az, el) rows.

    Scalar math.cos/math.sin: numpy's vectorised trig is not guaranteed to
    match libm bit for bit, and the golden artifacts pin these bits.
    """
    azimuth, elevation = angles.T.tolist()
    n = len(azimuth)
    d = np.empty((n, 3))
    ce = np.fromiter(map(math.cos, elevation), np.float64, n)
    d[:, 0] = ce * np.fromiter(map(math.cos, azimuth), np.float64, n)
    d[:, 1] = ce * np.fromiter(map(math.sin, azimuth), np.float64, n)
    d[:, 2] = np.fromiter(map(math.sin, elevation), np.float64, n)
    return d


def synthesize_channels(
    counts: np.ndarray,
    gains: np.ndarray,
    aod: np.ndarray,
    aoa: np.ndarray,
    tx_upa: UpaConfig,
    rx_upa: UpaConfig,
    tx_rotation: np.ndarray | None = None,
    rx_rotation: np.ndarray | None = None,
) -> np.ndarray:
    """(M, Nr, Nt) channels of the M = len(counts) receivers of a pass, in one pass.

    Receiver m holds the next ``counts[m]`` paths; path p has complex gain
    ``gains[p]`` and (azimuth, elevation) rows ``aod[p]``/``aoa[p]``, as
    :func:`skycell.geometry.trace_path_arrays` returns them. Each receiver sums
    its paths in that order, one path index at a time, so every H is bit-equal
    to its own path-by-path sum; a receiver without paths gets the zero matrix.
    """
    rows = np.repeat(np.arange(counts.size), counts)
    # receivers by descending path count (rank), so the depth[k] that hold a
    # path k are a prefix; paths laid out path index first, so each k is one
    # contiguous run
    order = np.argsort(-counts, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    k = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    layout = np.lexsort((rank[rows], k))
    depth = np.bincount(k).tolist()
    d_tx = _directions(aod[layout])
    d_rx = _directions(aoa[layout])
    if tx_rotation is not None:
        d_tx = d_tx @ tx_rotation
    if rx_rotation is not None:
        d_rx = d_rx @ rx_rotation
    a_tx = _steering(tx_upa, d_tx).conj()[:, None, :]
    a_rx = _steering(rx_upa, d_rx)[:, :, None]
    gains = gains[layout, None, None]
    h = np.zeros((counts.size, rx_upa.n_elements, tx_upa.n_elements), dtype=np.complex128)
    # one depth's terms at a time, built and scaled in one buffer sized for the widest,
    # depth 0 (every receiver with a path): never a (paths, Nr, Nt) array
    terms = np.empty_like(h[: depth[0] if depth else 0])
    start = 0
    for m in depth:
        run, term = slice(start, start + m), terms[:m]
        np.multiply(a_rx[run], a_tx[run], out=term)
        np.multiply(gains[run], term, out=term)
        h[:m] += term
        start += m
    return h[rank]


def pair_index(rx_idx: int, tx_idx: int, n_tx: int, n_rx: int) -> int:
    """Flatten a (receive, transmit) codeword pair; Tx index in the low bits."""
    if not 0 <= rx_idx < n_rx:
        raise ValueError(f"rx_idx {rx_idx} out of range [0, {n_rx})")
    if not 0 <= tx_idx < n_tx:
        raise ValueError(f"tx_idx {tx_idx} out of range [0, {n_tx})")
    return rx_idx * n_tx + tx_idx


def beam_sweep(h: np.ndarray, tx_cb: Codebook, rx_cb: Codebook):
    """Evaluate |w^H H f| for every codeword pair; the full sweep is the oracle.

    Returns (best_pair, gains) where gains[rx*n_tx + tx] covers all pairs and
    best_pair is the argmax with ties broken toward the lowest index. An
    (M, Nr, Nt) stack of channels gives a list of M best pairs and (M, pairs)
    gains, each row bit-equal to the sweep of that channel alone.
    """
    n_rx, n_tx = rx_cb.codewords.shape[1], tx_cb.codewords.shape[1]
    if h.ndim not in (2, 3) or h.shape[-2:] != (n_rx, n_tx):
        raise ValueError("codebook sizes do not match channel dimensions")
    combined = rx_cb.codewords.conj() @ h @ tx_cb.codewords.T
    gains = np.abs(combined).reshape(h.shape[:-2] + (-1,))
    return np.argmax(gains, axis=-1).tolist(), gains


def throughput_mbps(gain: float, cfg: CommsConfig) -> float:
    """Capped Shannon throughput of a beamformed link with combined gain."""
    if not gain >= 0:  # NaN included
        raise ValueError(f"gain must be non-negative, got {gain}")
    snr = cfg.tx_power_w * gain * gain / cfg.noise_power_w
    shannon = cfg.bandwidth_hz * math.log2(1.0 + snr) / 1e6
    return min(cfg.max_throughput_mbps, shannon)
