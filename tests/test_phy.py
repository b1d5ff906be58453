import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skycell.geometry import PathBundle, PropagationPath
from skycell.phy import (
    ChannelMatrix,
    ChannelOutage,
    Codebook,
    CommsConfig,
    UpaConfig,
    beam_sweep,
    boresight_rotation,
    dft_codebook,
    pair_index,
    steering_from_direction,
    synthesize_channel,
    throughput_mbps,
)

TX = UpaConfig(8, 8)
RX = UpaConfig(2, 2)


def _path(gain, aod, aoa, length=100.0):
    return PropagationPath(kind="LOS", vertices=(), length=length, aod=aod, aoa=aoa, gain=gain)


def steering(upa, azimuth, elevation):
    """Response toward a local direction given by azimuth and angle off boresight."""
    d = np.array([
        math.sin(elevation) * math.cos(azimuth),
        math.sin(elevation) * math.sin(azimuth),
        math.cos(elevation),
    ])
    return steering_from_direction(upa, d)


def test_steering_broadside_uniform():
    a = steering(TX, 0.0, 0.0)
    assert np.allclose(a, np.full(64, 1 / 8.0))
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12


def test_steering_unit_norm_any_angles():
    rng = np.random.default_rng(5)
    for _ in range(50):
        az, el = rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2)
        assert abs(np.linalg.norm(steering(TX, az, el)) - 1.0) <= 1e-12


def test_steering_2x2_u1_alternating_rows():
    # u = sin(el)cos(az) = 1 at el=pi/2, az=0: element (m,n) phase = pi*m
    a = steering(RX, 0.0, math.pi / 2) * 2.0
    phases = np.angle(a)
    assert phases[0] == pytest.approx(0.0, abs=1e-12)
    assert phases[1] == pytest.approx(0.0, abs=1e-12)
    assert abs(phases[2]) == pytest.approx(math.pi, abs=1e-9)
    assert abs(phases[3]) == pytest.approx(math.pi, abs=1e-9)


def test_codebook_sizes():
    assert dft_codebook(TX).n_codewords == 64
    assert dft_codebook(RX).n_codewords == 4


@pytest.mark.parametrize("upa", [TX, RX])
def test_codebook_orthonormal(upa):
    cb = dft_codebook(upa).codewords
    gram = cb.conj() @ cb.T
    n = cb.shape[0]
    assert np.all(np.abs(np.diag(gram) - 1.0) <= 1e-12)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-9


def test_synthesize_single_path_rank_one():
    bundle = PathBundle(paths=(_path(2e-6 + 1e-6j, (0.3, 0.2), (1.0, -0.4)),))
    h = synthesize_channel(bundle, TX, RX)
    s = np.linalg.svd(h.entries, compute_uv=False)
    assert s[0] == pytest.approx(abs(2e-6 + 1e-6j), rel=1e-9)
    assert np.all(s[1:] <= s[0] * 1e-12)


def test_synthesize_linearity_two_equal_paths():
    g = 1.5e-6 * np.exp(0.7j)
    one = PathBundle(paths=(_path(g, (0.1, 0.0), (0.2, 0.3)),))
    two = PathBundle(paths=(_path(g, (0.1, 0.0), (0.2, 0.3)),) * 2)
    h1 = synthesize_channel(one, TX, RX).entries
    h2 = synthesize_channel(two, TX, RX).entries
    assert np.allclose(h2, 2 * h1)


def test_synthesize_outage_is_distinct():
    with pytest.raises(ChannelOutage):
        synthesize_channel(PathBundle(paths=()), TX, RX)


def test_pair_index_examples():
    assert pair_index(0, 0) == 0
    assert pair_index(3, 63) == 255
    assert pair_index(1, 2) == 66
    with pytest.raises(ValueError):
        pair_index(4, 0)
    with pytest.raises(ValueError):
        pair_index(0, 64)
    with pytest.raises(ValueError):
        pair_index(-1, 0)


def _random_channel(rng):
    entries = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
    return ChannelMatrix(entries=entries * 1e-6, carrier_hz=4e10)


def test_sweep_matches_brute_force_on_100_random_channels():
    rng = np.random.default_rng(42)
    tx_cb, rx_cb = dft_codebook(TX), dft_codebook(RX)
    for _ in range(100):
        h = _random_channel(rng)
        best, gains = beam_sweep(h, tx_cb, rx_cb)
        brute = np.empty(256)
        for i in range(4):
            for j in range(64):
                w = rx_cb.codewords[i]
                f = tx_cb.codewords[j]
                brute[pair_index(i, j)] = abs(np.conj(w) @ h.entries @ f)
        assert np.allclose(gains, brute, rtol=0, atol=1e-12)
        assert best == int(np.argmax(brute))


def test_sweep_on_codeword_aligned_channel():
    tx_cb, rx_cb = dft_codebook(TX), dft_codebook(RX)
    for (i, j) in ((0, 0), (2, 17), (3, 63)):
        entries = np.outer(rx_cb.codewords[i], tx_cb.codewords[j].conj())
        best, gains = beam_sweep(ChannelMatrix(entries, 4e10), tx_cb, rx_cb)
        assert best == pair_index(i, j)
        assert gains[best] == pytest.approx(1.0, rel=1e-12)


def test_sweep_zero_channel_tie_break():
    tx_cb, rx_cb = dft_codebook(TX), dft_codebook(RX)
    best, gains = beam_sweep(ChannelMatrix(np.zeros((4, 64), complex), 4e10), tx_cb, rx_cb)
    assert best == 0
    assert np.all(gains == 0)


def test_sweep_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(11)
    tx_cb, rx_cb = dft_codebook(TX), dft_codebook(RX)
    h = _random_channel(rng)
    best, _ = beam_sweep(h, tx_cb, rx_cb)
    for c in (1e-3, 7.0, 1e4):
        scaled = ChannelMatrix(h.entries * c, h.carrier_hz)
        assert beam_sweep(scaled, tx_cb, rx_cb)[0] == best


def test_sweep_energy_bounded_by_spectral_norm():
    rng = np.random.default_rng(13)
    tx_cb, rx_cb = dft_codebook(TX), dft_codebook(RX)
    for _ in range(20):
        h = _random_channel(rng)
        _, gains = beam_sweep(h, tx_cb, rx_cb)
        spectral = np.linalg.svd(h.entries, compute_uv=False)[0]
        assert gains.max() <= spectral + 1e-9


def test_throughput_endpoints():
    cfg = CommsConfig()
    assert throughput_mbps(0.0, cfg) == 0.0
    assert throughput_mbps(1.0, cfg) == cfg.max_throughput_mbps
    with pytest.raises(ValueError):
        throughput_mbps(-1e-9, cfg)


@given(st.floats(min_value=0, max_value=1e-3), st.floats(min_value=0, max_value=1e-3))
@settings(max_examples=200)
def test_throughput_monotone(g1, g2):
    cfg = CommsConfig()
    lo, hi = sorted((g1, g2))
    assert throughput_mbps(lo, cfg) <= throughput_mbps(hi, cfg)


def test_noise_power_matches_closed_form():
    cfg = CommsConfig(bandwidth_hz=1e8, noise_figure_db=7.0)
    expected_dbm = -174.0 + 10 * math.log10(1e8) + 7.0
    assert 10 * math.log10(cfg.noise_power_w * 1000) == pytest.approx(expected_dbm)


def test_boresight_rotation_is_orthonormal_and_points_down():
    r = boresight_rotation(-90.0, 45.0)
    assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
    boresight = r[:, 2]
    assert boresight[1] == pytest.approx(-math.cos(math.radians(45.0)))
    assert boresight[2] == pytest.approx(-math.sin(math.radians(45.0)))
