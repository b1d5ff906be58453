import dataclasses
import math

import numpy as np
import pytest
import trace_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from skycell.ai import Policy, policy_decide
from skycell.config import comms_config, load_config
from skycell.geometry import PathBundle, PropagationPath
from skycell.phy import (
    ChannelOutage,
    Codebook,
    UpaConfig,
    beam_sweep,
    boresight_rotation,
    dft_codebook,
    pair_index,
    steering_from_direction,
    synthesize_channel,
    synthesize_channels,
    throughput_mbps,
)

TX = UpaConfig(8, 8)
RX = UpaConfig(2, 2)
SHIPPED = comms_config(load_config(None))


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
    s = np.linalg.svd(h, compute_uv=False)
    assert s[0] == pytest.approx(abs(2e-6 + 1e-6j), rel=1e-9)
    assert np.all(s[1:] <= s[0] * 1e-12)


def test_synthesize_linearity_two_equal_paths():
    g = 1.5e-6 * np.exp(0.7j)
    one = PathBundle(paths=(_path(g, (0.1, 0.0), (0.2, 0.3)),))
    two = PathBundle(paths=(_path(g, (0.1, 0.0), (0.2, 0.3)),) * 2)
    h1 = synthesize_channel(one, TX, RX)
    h2 = synthesize_channel(two, TX, RX)
    assert np.allclose(h2, 2 * h1)


def test_synthesize_outage_is_distinct():
    with pytest.raises(ChannelOutage):
        synthesize_channel(PathBundle(paths=()), TX, RX)
    lit = PathBundle(paths=(_path(1e-6, (0.1, 0.0), (0.2, 0.3)),))
    with pytest.raises(ChannelOutage):
        synthesize_channels([lit, PathBundle(paths=())], TX, RX)


_angles = st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi / 2, math.pi / 2))
_gain = st.builds(complex, st.floats(-1e-5, 1e-5), st.floats(-1e-5, 1e-5))
_any_path = st.builds(_path, _gain, _angles, _angles, st.floats(1.0, 1e3))


def _bundles(min_paths, max_paths):
    paths = st.lists(_any_path, min_size=min_paths, max_size=max_paths)
    return st.lists(paths.map(lambda ps: PathBundle(paths=tuple(ps))), min_size=1, max_size=3)


_rotation = st.one_of(
    st.none(), st.builds(boresight_rotation, st.floats(-180.0, 180.0), st.floats(-90.0, 90.0))
)
_shape = st.tuples(st.integers(1, 4), st.integers(1, 4))


@given(
    tx_shape=_shape,
    rx_shape=_shape,
    batch=st.tuples(_bundles(1, 1), _bundles(2, 9)).flatmap(lambda t: st.permutations(t[0] + t[1])),
    tx_rotation=_rotation,
    rx_rotation=_rotation,
)
@settings(max_examples=80, deadline=None)
def test_batched_synthesis_is_bit_equal_to_the_path_by_path_oracle(
    tx_shape, rx_shape, batch, tx_rotation, rx_rotation
):
    """Every receiver of a batch that mixes one-path and many-path bundles gets the
    bits of its own path-by-path sum, and so does the one-bundle form."""
    tx_upa, rx_upa = UpaConfig(*tx_shape), UpaConfig(*rx_shape)
    h = synthesize_channels(batch, tx_upa, rx_upa, tx_rotation, rx_rotation)
    assert h.shape == (len(batch), rx_upa.n_elements, tx_upa.n_elements)
    for got, bundle in zip(h, batch):
        ref = trace_oracle.synthesize_channel(bundle, tx_upa, rx_upa, tx_rotation, rx_rotation)
        assert got.tobytes() == ref.tobytes()
        one = synthesize_channel(bundle, tx_upa, rx_upa, tx_rotation, rx_rotation)
        assert one.tobytes() == ref.tobytes()
    d = trace_oracle.direction_from_angles(*batch[0].paths[0].aod)
    assert (steering_from_direction(tx_upa, d).tobytes()
            == trace_oracle.steering_from_direction(tx_upa, d).tobytes())


def test_pair_index_examples():
    assert pair_index(0, 0, 64, 4) == 0
    assert pair_index(3, 63, 64, 4) == 255
    assert pair_index(1, 2, 64, 4) == 66
    assert pair_index(1, 2, 16, 4) == 18
    assert pair_index(0, 127, 128, 4) == 127
    with pytest.raises(ValueError):
        pair_index(4, 0, 64, 4)
    with pytest.raises(ValueError):
        pair_index(0, 64, 64, 4)
    with pytest.raises(ValueError):
        pair_index(0, 16, 16, 4)
    with pytest.raises(ValueError):
        pair_index(-1, 0, 64, 4)


def _random_channel(rng):
    entries = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
    return entries * 1e-6


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
                brute[pair_index(i, j, 64, 4)] = abs(np.conj(w) @ h @ f)
        assert np.allclose(gains, brute, rtol=0, atol=1e-12)
        assert best == int(np.argmax(brute))


def test_sweep_on_codeword_aligned_channel():
    tx_cb, rx_cb = dft_codebook(TX), dft_codebook(RX)
    for (i, j) in ((0, 0), (2, 17), (3, 63)):
        entries = np.outer(rx_cb.codewords[i], tx_cb.codewords[j].conj())
        best, gains = beam_sweep(entries, tx_cb, rx_cb)
        assert best == pair_index(i, j, 64, 4)
        assert gains[best] == pytest.approx(1.0, rel=1e-12)


def test_sweep_zero_channel_tie_break():
    tx_cb, rx_cb = dft_codebook(TX), dft_codebook(RX)
    best, gains = beam_sweep(np.zeros((4, 64), complex), tx_cb, rx_cb)
    assert best == 0
    assert np.all(gains == 0)


def test_sweep_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(11)
    tx_cb, rx_cb = dft_codebook(TX), dft_codebook(RX)
    h = _random_channel(rng)
    best, _ = beam_sweep(h, tx_cb, rx_cb)
    for c in (1e-3, 7.0, 1e4):
        assert beam_sweep(h * c, tx_cb, rx_cb)[0] == best


def test_sweep_energy_bounded_by_spectral_norm():
    rng = np.random.default_rng(13)
    tx_cb, rx_cb = dft_codebook(TX), dft_codebook(RX)
    for _ in range(20):
        h = _random_channel(rng)
        _, gains = beam_sweep(h, tx_cb, rx_cb)
        spectral = np.linalg.svd(h, compute_uv=False)[0]
        assert gains.max() <= spectral + 1e-9


def test_throughput_endpoints():
    cfg = SHIPPED
    assert throughput_mbps(0.0, cfg) == 0.0
    assert throughput_mbps(1.0, cfg) == cfg.max_throughput_mbps
    with pytest.raises(ValueError):
        throughput_mbps(-1e-9, cfg)


@given(st.floats(min_value=0, max_value=1e-3), st.floats(min_value=0, max_value=1e-3))
@settings(max_examples=200)
def test_throughput_monotone(g1, g2):
    cfg = SHIPPED
    lo, hi = sorted((g1, g2))
    assert throughput_mbps(lo, cfg) <= throughput_mbps(hi, cfg)


def test_noise_power_matches_closed_form():
    cfg = dataclasses.replace(SHIPPED, bandwidth_hz=1e8, noise_figure_db=7.0)
    expected_dbm = -174.0 + 10 * math.log10(1e8) + 7.0
    assert 10 * math.log10(cfg.noise_power_w * 1000) == pytest.approx(expected_dbm)


def test_boresight_rotation_is_orthonormal_and_points_down():
    r = boresight_rotation(-90.0, 45.0)
    assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
    boresight = r[:, 2]
    assert boresight[1] == pytest.approx(-math.cos(math.radians(45.0)))
    assert boresight[2] == pytest.approx(-math.sin(math.radians(45.0)))


_side = st.integers(min_value=1, max_value=4)


@given(tx_rows=_side, tx_cols=_side, rx_rows=_side, rx_cols=_side,
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pair_space_follows_any_array_shape(tx_rows, tx_cols, rx_rows, rx_cols, seed):
    tx_cb = dft_codebook(UpaConfig(tx_rows, tx_cols))
    rx_cb = dft_codebook(UpaConfig(rx_rows, rx_cols))
    n_tx, n_rx = tx_cb.n_codewords, rx_cb.n_codewords
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(n_rx, n_tx)) + 1j * rng.normal(size=(n_rx, n_tx))
    best, gains = beam_sweep(entries, tx_cb, rx_cb)
    assert gains.shape == (n_rx * n_tx,)
    for i in range(n_rx):
        for j in range(n_tx):
            expected = abs(np.conj(rx_cb.codewords[i]) @ entries @ tx_cb.codewords[j])
            assert gains[pair_index(i, j, n_tx, n_rx)] == pytest.approx(expected, rel=1e-9)
    grid = gains.reshape(n_rx, n_tx)
    assert policy_decide(Policy(kind="oracle"), None, grid, rng) == best
    for _ in range(8):
        pair = policy_decide(Policy(kind="random"), None, grid, rng)
        rx_idx, tx_idx = divmod(pair, n_tx)
        assert 0 <= rx_idx < n_rx and 0 <= tx_idx < n_tx
        assert pair == pair_index(rx_idx, tx_idx, n_tx, n_rx)
