"""Antenna arrays, DFT codebooks, narrowband channel synthesis and beam sweep.

The channel is a geometric narrowband model: each traced path contributes its
complex gain times the outer product of receive and transmit steering
vectors, with angles expressed in each array's local frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PathBundle, direction_from_angles


class ChannelOutage(Exception):
    """Raised when a path bundle carries no multipath components."""


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


@dataclass(frozen=True)
class ChannelMatrix:
    entries: np.ndarray  # (Nr, Nt) complex
    carrier_hz: float


@dataclass
class CommsConfig:
    tx_power_dbm: float = 30.0
    bandwidth_hz: float = 1e8
    noise_figure_db: float = 7.0
    max_throughput_mbps: float = 90.0
    carrier_hz: float = 4e10
    tx_upa: UpaConfig = field(default_factory=lambda: UpaConfig(8, 8))
    rx_upa: UpaConfig = field(default_factory=lambda: UpaConfig(2, 2))
    # receive-array boresight on the drone; -90 downtilt points straight up
    rx_azimuth_deg: float = 90.0
    rx_downtilt_deg: float = -45.0

    @property
    def tx_power_w(self) -> float:
        return 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0)

    @property
    def noise_power_w(self) -> float:
        noise_dbm = -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db
        return 10.0 ** ((noise_dbm - 30.0) / 10.0)


def steering_from_direction(upa: UpaConfig, d_local: np.ndarray) -> np.ndarray:
    """Unit-norm array response for a unit direction already in the array frame.

    Element (m, n) carries phase 2*pi*spacing*(m*u + n*v) with (u, v) the
    first two components of the direction; rows flatten row-major.
    """
    u = d_local[0]
    v = d_local[1]
    m = np.arange(upa.rows)[:, None]
    n = np.arange(upa.cols)[None, :]
    phase = 2.0 * math.pi * upa.spacing * (m * u + n * v)
    return (np.exp(1j * phase) / math.sqrt(upa.n_elements)).ravel()


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
    carrier_hz: float = 4e10,
    tx_rotation: np.ndarray | None = None,
    rx_rotation: np.ndarray | None = None,
) -> ChannelMatrix:
    """Sum of per-path rank-one terms: H = sum gain * a_rx(aoa) a_tx(aod)^H."""
    if not bundle.paths:
        raise ChannelOutage("no propagation paths; channel is in outage")
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
    return ChannelMatrix(entries=h, carrier_hz=carrier_hz)


def pair_index(rx_idx: int, tx_idx: int, n_tx: int = 64, n_rx: int = 4) -> int:
    """Flatten a (receive, transmit) codeword pair; Tx index in the low bits."""
    if not 0 <= rx_idx < n_rx:
        raise ValueError(f"rx_idx {rx_idx} out of range [0, {n_rx})")
    if not 0 <= tx_idx < n_tx:
        raise ValueError(f"tx_idx {tx_idx} out of range [0, {n_tx})")
    return rx_idx * n_tx + tx_idx


def beam_sweep(h: ChannelMatrix, tx_cb: Codebook, rx_cb: Codebook):
    """Evaluate |w^H H f| for every codeword pair; the full sweep is the oracle.

    Returns (best_pair, gains) where gains[rx*n_tx + tx] covers all pairs and
    best_pair is the argmax with ties broken toward the lowest index.
    """
    entries = h.entries
    if entries.shape != (rx_cb.codewords.shape[1], tx_cb.codewords.shape[1]):
        raise ValueError("codebook sizes do not match channel dimensions")
    combined = rx_cb.codewords.conj() @ entries @ tx_cb.codewords.T
    gains = np.abs(combined).ravel()
    return int(np.argmax(gains)), gains


def throughput_mbps(gain: float, cfg: CommsConfig) -> float:
    """Capped Shannon throughput of a beamformed link with combined gain."""
    if gain < 0:
        raise ValueError("gain must be non-negative")
    snr = cfg.tx_power_w * gain * gain / cfg.noise_power_w
    shannon = cfg.bandwidth_hz * math.log2(1.0 + snr) / 1e6
    return min(cfg.max_throughput_mbps, shannon)
