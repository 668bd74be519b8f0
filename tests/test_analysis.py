"""Band energies, relative SNR reports, and attention-map diagnostics."""

import numpy as np
import pytest

from specfuse import selftest
from specfuse import (
    AttentionWindow,
    DegenerateInputError,
    InvalidParameterError,
    SeededRng,
    TokenSequence,
    VideoLatent,
    aggregate_attention,
    apply_mask,
    attention_map,
    band_energy,
    diagonality,
    fft3,
    gaussian_latent,
    gaussian_lowpass,
    ifft3,
    parseval_energy,
    project_qkv,
    relative_snr,
    uniform_band_edges,
)
from specfuse.harness import block_weights


def tone_latent(t: int, k: int, spatial=4) -> VideoLatent:
    wave = np.cos(2.0 * np.pi * k * np.arange(t) / t)
    data = np.broadcast_to(wave[None, :, None, None], (1, t, spatial, spatial))
    return VideoLatent(data.astype(np.float32))


class TestBandEnergy:
    test_sums_to_total = staticmethod(selftest.check_band_energy_total)

    def test_dc_lands_in_lowest_band(self):
        lat = VideoLatent(np.ones((1, 8, 4, 4), dtype=np.float32))
        energies = band_energy(lat, [0.25 * np.pi])
        assert energies[0] == pytest.approx(parseval_energy(lat), rel=1e-12)
        assert energies[1] == 0.0

    def test_high_tone_lands_in_high_band(self):
        lat = tone_latent(16, 4)  # omega = pi/2
        energies = band_energy(lat, [0.25 * np.pi])
        assert energies[0] == pytest.approx(0.0, abs=1e-9)
        assert energies[1] == pytest.approx(parseval_energy(lat), rel=1e-6)

    def test_white_noise_tracks_bin_counts(self):
        lat = gaussian_latent((4, 64, 32, 32), SeededRng(1))
        edges = uniform_band_edges(8)
        energies = band_energy(lat, edges)
        from specfuse import frequency_grid

        grid = frequency_grid((64, 32, 32), "temporal")
        counts = np.bincount(
            np.searchsorted(edges, grid, side="left").ravel(), minlength=edges.size + 1
        )
        expected = counts / counts.sum() * energies.sum()
        assert np.abs(energies / expected - 1.0).max() < 0.1

    def test_non_ascending_edges(self):
        lat = gaussian_latent((1, 4, 4, 4), SeededRng(3))
        with pytest.raises(InvalidParameterError):
            band_energy(lat, [0.5, 0.25])


class TestRelativeSnr:
    test_scale_invariance = staticmethod(selftest.check_snr_scale_invariance)

    def test_identity_gives_unit_ratios(self):
        lat = gaussian_latent((2, 16, 8, 8), SeededRng(4))
        report = relative_snr(lat, lat, uniform_band_edges(16))
        assert np.allclose(report.ratios, 1.0, atol=1e-12)
        assert report.available_count == 16

    def test_lowpassed_extension_degrades_high_band(self):
        ref = gaussian_latent((2, 8, 8, 8), SeededRng(5))
        ext_raw = gaussian_latent((2, 32, 8, 8), SeededRng(6))
        lpf = gaussian_lowpass((32, 8, 8), 0.25, "temporal")
        ext = ifft3(apply_mask(fft3(ext_raw), lpf))
        report = relative_snr(ref, ext, [0.25 * np.pi])
        low, high = report.ratios
        assert high < low
        assert high < 0.9  # high band unavailable
        assert bool(report.available[1]) is False

    def test_zero_reference_rejected(self):
        zeros = VideoLatent(np.zeros((1, 4, 4, 4), dtype=np.float32))
        lat = gaussian_latent((1, 4, 4, 4), SeededRng(7))
        with pytest.raises(DegenerateInputError):
            relative_snr(zeros, lat, [0.5])

    def test_csv_and_text_shapes(self):
        lat = gaussian_latent((1, 16, 4, 4), SeededRng(10))
        report = relative_snr(lat, lat, uniform_band_edges(16))
        csv_lines = report.to_csv().strip().split("\n")
        assert len(csv_lines) == 16
        assert all(len(line.split(",")) == 4 for line in csv_lines)
        assert report.to_text().strip().split("\n")[-1].startswith("available 16/16")


class TestAggregateAttention:
    test_rows_sum_to_one = staticmethod(selftest.check_aggregate_row_stochastic)

    def test_identity_map_stays_diagonal(self):
        agg = aggregate_attention([np.eye(12)], 4)
        assert np.array_equal(agg.matrix, np.eye(4))

    def test_two_maps_average(self):
        a = np.eye(4)
        b = np.full((4, 4), 0.25)
        agg = aggregate_attention([a, b], 4)
        expected = (a + b) / 2
        assert np.allclose(agg.matrix, expected, atol=1e-12)

    def test_windowed_map_structure(self):
        t, tpf, span = 16, 2, 8
        feats = SeededRng(11).normals(t * tpf * 4).reshape(t * tpf, 4)
        toks = TokenSequence(feats, np.repeat(np.arange(t), tpf))
        q, k, _ = project_qkv(toks, block_weights(4, SeededRng(12)))
        weights = attention_map(q, k, toks.frame_index,
                                window=AttentionWindow.local(span))
        agg = aggregate_attention([weights], t)
        radius = span // 2
        for i in range(t):
            for j in range(t):
                if abs(i - j) >= radius:
                    assert agg.matrix[i, j] == 0.0

    def test_empty_collection_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate_attention([], 4)

    def test_non_stochastic_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate_attention([np.ones((4, 4))], 4)


class TestDiagonality:
    test_identity_scores_one = staticmethod(selftest.check_aggregate_row_stochastic)

    def test_uniform_matches_band_count(self):
        t = 64
        attn = aggregate_attention([np.full((t, t), 1.0 / t)], t)
        radius = max(1, t // 16)
        i = np.arange(t)
        in_band = (np.abs(i[:, None] - i[None, :]) <= radius).sum()
        assert diagonality(attn) == pytest.approx(in_band / (t * t), rel=1e-12)

    def test_windowed_beats_uniform(self):
        t = 32
        uniform = aggregate_attention([np.full((t, t), 1.0 / t)], t)
        window = np.zeros((t, t))
        for i in range(t):
            lo, hi = max(0, i - 2), min(t, i + 3)
            window[i, lo:hi] = 1.0 / (hi - lo)
        windowed = aggregate_attention([window], t)
        assert diagonality(windowed) >= diagonality(uniform)
