"""Band energies, relative SNR reports, and attention-map diagnostics."""

import re
import tracemalloc

import numpy as np
import pytest

from specfuse import selftest
from specfuse import (
    AttentionWindow,
    AttnMap,
    DegenerateInputError,
    InvalidParameterError,
    InvalidShapeError,
    NonFiniteValueError,
    SeededRng,
    SnrReport,
    TokenSequence,
    VideoLatent,
    aggregate_attention,
    attention_map,
    band_energy,
    diagonality,
    fft3,
    gaussian_latent,
    gaussian_lowpass,
    ifft3,
    project_qkv,
    relative_snr,
    uniform_band_edges,
)
from specfuse.harness import block_weights

from attention_oracle import admitted_by_rule


def tone_latent(t: int, k: int, spatial=4) -> VideoLatent:
    wave = np.cos(2.0 * np.pi * k * np.arange(t) / t)
    data = np.broadcast_to(wave[None, :, None, None], (1, t, spatial, spatial))
    return VideoLatent(data.astype(np.float32))


class TestBandEnergy:
    test_sums_to_total = staticmethod(selftest.check_band_energy_total)

    def test_dc_lands_in_lowest_band(self):
        lat = VideoLatent(np.ones((1, 8, 4, 4), dtype=np.float32))
        energies = band_energy(lat, [0.25 * np.pi])
        assert energies[0] == pytest.approx(selftest._energy(lat.data), rel=1e-12)
        assert energies[1] == 0.0

    def test_high_tone_lands_in_high_band(self):
        lat = tone_latent(16, 4)  # omega = pi/2
        energies = band_energy(lat, [0.25 * np.pi])
        assert energies[0] == pytest.approx(0.0, abs=1e-9)
        assert energies[1] == pytest.approx(selftest._energy(lat.data), rel=1e-6)

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

    # Every frame count crosses every width; the 10-frame cases keep their
    # original ids.
    ORACLE_SHAPES = [(t, w) for t in (10, 1, 2, 3, 4, 7, 8) for w in (1, 2, 3, 4, 7, 8)]

    @pytest.mark.parametrize("t, w", ORACLE_SHAPES,
                             ids=[f"{w}" if t == 10 else f"t{t}-{w}" for t, w in ORACLE_SHAPES])
    @pytest.mark.parametrize("mode", ["temporal", "radial"])
    def test_matches_the_full_spectrum_oracle(self, t, w, mode):
        # band_energy transforms only the axes its grid varies on, keeping
        # the half spectrum of the last (T in temporal mode, W in radial
        # mode) and counting its mirrored bins twice; the oracle bins every
        # bin of fft3.
        from specfuse import frequency_grid

        lat = gaussian_latent((3, t, 5, w), SeededRng(20 + w))
        edges = uniform_band_edges(6)
        grid = frequency_grid((t, 5, w), mode)
        energy = (np.abs(fft3(lat)) ** 2).sum(axis=0)
        want = np.bincount(np.searchsorted(edges, grid, side="left").ravel(),
                           weights=energy.ravel(), minlength=edges.size + 1)
        got = band_energy(lat, edges, mode)
        assert np.abs(got - want).max() <= 1e-12 * want.sum()

    @pytest.mark.parametrize("mode", ["temporal", "radial"])
    def test_peak_memory_below_the_latent(self, mode):
        # One channel at a time: the traced peak stays below the float32
        # latent itself (a whole-latent float64 transform is 6.5x it).
        lat = gaussian_latent((16, 256, 16, 16), SeededRng(40))
        edges = uniform_band_edges(32)
        tracemalloc.start()
        try:
            band_energy(lat, edges, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < lat.data.nbytes

    def test_non_ascending_edges(self):
        lat = gaussian_latent((1, 4, 4, 4), SeededRng(3))
        with pytest.raises(InvalidParameterError):
            band_energy(lat, [0.5, 0.25])

    @pytest.mark.parametrize("num_bands", [2.5, 2.0, True])
    def test_non_integer_band_count_rejected(self, num_bands):
        with pytest.raises(InvalidParameterError, match="num_bands must be an integer"):
            uniform_band_edges(num_bands)


class TestRelativeSnr:
    test_scale_invariance = staticmethod(selftest.check_snr_scale_invariance)

    def test_identity_gives_unit_ratios(self):
        lat = gaussian_latent((2, 16, 8, 8), SeededRng(4))
        report = relative_snr(lat, lat, uniform_band_edges(16))
        assert np.allclose(report.ratios, 1.0, atol=1e-12)
        assert report.available_count == 16

    @pytest.mark.parametrize("ext_frames, empty_ratio", [(8, 1.0), (32, np.inf)])
    def test_ratios_match_the_per_band_rule(self, ext_frames, empty_ratio):
        # 8 frames fill 5 of 16 temporal bands; 32 frames fill all 16.
        ref = gaussian_latent((2, 8, 4, 4), SeededRng(11))
        ext = gaussian_latent((2, ext_frames, 4, 4), SeededRng(12))
        edges = uniform_band_edges(16)
        r, e = (x / x.sum() for x in (band_energy(ref, edges), band_energy(ext, edges)))
        expected = [e[i] / r[i] if r[i] > 0.0 else (1.0 if e[i] == 0.0 else np.inf)
                    for i in range(16)]
        ratios = relative_snr(ref, ext, edges).ratios
        assert np.array_equal(ratios, expected)
        assert (r == 0.0).sum() == 11 and set(ratios[r == 0.0]) == {empty_ratio}

    def test_lowpassed_extension_degrades_high_band(self):
        ref = gaussian_latent((2, 8, 8, 8), SeededRng(5))
        ext_raw = gaussian_latent((2, 32, 8, 8), SeededRng(6))
        lpf = gaussian_lowpass((32, 8, 8), 0.25, "temporal")
        ext = ifft3(fft3(ext_raw) * lpf.weights)
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

    @pytest.mark.parametrize("edges", [[np.nan], [0.5, np.nan]])
    def test_non_finite_edges_rejected(self, edges):
        lat = gaussian_latent((1, 8, 4, 4), SeededRng(8))
        with pytest.raises(InvalidParameterError, match="finite"):
            relative_snr(lat, lat, edges)

    def test_csv_and_text_shapes(self):
        lat = gaussian_latent((1, 16, 4, 4), SeededRng(10))
        report = relative_snr(lat, lat, uniform_band_edges(16))
        csv_lines = report.to_csv().strip().split("\n")
        assert len(csv_lines) == 16
        assert all(len(line.split(",")) == 4 for line in csv_lines)
        assert report.to_text().strip().split("\n")[-1].startswith("available 16/16")

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(InvalidParameterError, match="threshold must be a finite real number"):
            SnrReport([0.0, 1.0, np.pi], [1.0, 0.5], threshold=threshold)

    @pytest.mark.parametrize("boundaries, ratios, error, message", [
        ([0.0, 1.0, np.pi], [np.nan, 1.0], InvalidParameterError, "ratios must be non-negative"),
        ([0.0, np.nan, np.pi], [1.0, 1.0], NonFiniteValueError, "boundaries must be finite"),
        ([0.0, 1.0, np.pi], [[1.0, 1.0]], InvalidParameterError,
         "ratios must have shape (2,), got (1, 2)"),
        ([[0.0, 1.0, np.pi]], [1.0, 1.0], InvalidShapeError,
         "boundaries must have 1 non-empty axes, got shape (1, 3)"),
    ], ids=["nan-ratio", "nan-boundary", "2d-ratios", "2d-boundaries"])
    def test_malformed_report_rejected(self, boundaries, ratios, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SnrReport(boundaries, ratios)

    def test_copies_the_callers_arrays(self):
        bounds = np.array([0.0, 1.0, np.pi])
        ratios = np.array([1.0, 0.5])
        report = SnrReport(bounds, ratios)
        assert bounds.flags.writeable and ratios.flags.writeable
        bounds[1] = 2.0
        ratios[:] = 0.0
        assert report.boundaries.tolist() == [0.0, 1.0, np.pi]
        assert report.ratios.tolist() == [1.0, 0.5]


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
        window = AttentionWindow.local(span)
        agg = aggregate_attention([attention_map(q, k, toks.frame_index, window=window)], t)
        assert (agg.matrix[~admitted_by_rule(t, window=window)] == 0.0).all()

    @pytest.mark.parametrize("t, tpf", [(1, 5), (4, 3), (7, 2), (9, 4)])
    def test_matches_the_pooling_oracle(self, t, tpf):
        # Random row-stochastic maps whose zeroed frame blocks all fall on
        # the same frame pairs.
        rng = np.random.default_rng(100 * t + tpf)
        n = t * tpf
        keep = rng.random((t, t)) < 0.5
        np.fill_diagonal(keep, True)
        maps = []
        for _ in range(3):
            m = rng.random((n, n)) * np.kron(keep, np.ones((tpf, tpf)))
            maps.append(m / m.sum(axis=1, keepdims=True))
        want = np.zeros((t, t))
        for m in maps:
            want += m.reshape(n, t, tpf).sum(axis=2).reshape(t, tpf, t).mean(axis=1) / tpf
        want /= want.sum(axis=1, keepdims=True)
        got = aggregate_attention(maps, t).matrix
        assert np.abs(got - want).max() <= 1e-14
        assert (got[~keep] == 0.0).all()

    def test_map_copies_the_callers_array(self):
        m = np.eye(4)
        amap = AttnMap(m)
        assert m.flags.writeable
        m[0] = 0.25
        assert np.array_equal(amap.matrix, np.eye(4))

    def test_non_finite_map_rejected(self):
        with pytest.raises(NonFiniteValueError, match="^map entries must be finite$"):
            AttnMap([[np.nan, np.nan], [0.5, 0.5]])

    def test_empty_collection_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate_attention([], 4)

    def test_empty_matrix_does_not_tile(self):
        with pytest.raises(InvalidParameterError,
                           match=r"^matrix shape \(0, 0\) does not tile 2 frames$"):
            aggregate_attention([np.zeros((0, 0))], 2)

    def test_non_stochastic_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate_attention([np.ones((4, 4))], 4)

    @pytest.mark.parametrize("num_frames", [0, -2])
    def test_frame_count_below_one_rejected(self, num_frames):
        with pytest.raises(InvalidParameterError):
            aggregate_attention([np.eye(4)], num_frames)

    @pytest.mark.parametrize("num_frames", [4.5, 4.0, True])
    def test_non_integer_frame_count_rejected(self, num_frames):
        with pytest.raises(InvalidParameterError, match="^num_frames must be an integer"):
            aggregate_attention([np.eye(4)], num_frames)

    def test_numpy_integer_frame_count_accepted(self):
        assert np.array_equal(aggregate_attention([np.eye(4)], np.int64(2)).matrix, np.eye(2))


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
