"""Transforms and masks, checked against a direct DFT oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specfuse import selftest
from specfuse import (
    FrequencyMask,
    InvalidParameterError,
    SeededRng,
    ShapeMismatchError,
    SpectralTensor,
    VideoLatent,
    apply_mask,
    band_masks,
    fft3,
    gaussian_latent,
    gaussian_lowpass,
    ifft3,
    parseval_energy,
)


def dft_matrix(n: int) -> np.ndarray:
    """Orthonormal DFT matrix, written out from the definition."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)


def dft3_oracle(data: np.ndarray) -> np.ndarray:
    """O(N^2)-per-axis transform over (T, H, W) via explicit DFT matrices."""
    _, t, h, w = data.shape
    ft, fh, fw = dft_matrix(t), dft_matrix(h), dft_matrix(w)
    return np.einsum("tu,hv,wx,cuvx->cthw", ft, fh, fw, data.astype(np.complex128))


def tone_latent(shape, axis: int, k: int) -> VideoLatent:
    """cos(2 pi k n / N) along one of the T/H/W axes."""
    n = shape[axis]
    wave = np.cos(2.0 * np.pi * k * np.arange(n) / n)
    reshape = [1, 1, 1, 1]
    reshape[axis] = n
    data = np.broadcast_to(wave.reshape(reshape), shape)
    return VideoLatent(data.astype(np.float32))


class TestFft3:
    def test_matches_direct_dft(self):
        lat = gaussian_latent((2, 8, 6, 6), SeededRng(1))
        ours = fft3(lat).data
        oracle = dft3_oracle(lat.data)
        assert np.abs(ours - oracle).max() < 1e-10

    def test_dc_signal(self):
        lat = VideoLatent(np.ones((1, 4, 4, 4), dtype=np.float32))
        spec = fft3(lat).data[0]
        energy = np.abs(spec) ** 2
        assert energy[0, 0, 0] == pytest.approx(energy.sum(), rel=1e-12)

    def test_pure_temporal_tone(self):
        k = 3
        lat = tone_latent((1, 16, 2, 2), axis=1, k=k)
        profile = (np.abs(fft3(lat).data[0]) ** 2).sum(axis=(1, 2))
        hot = {int(i) for i in np.nonzero(profile > 1e-9 * profile.max())[0]}
        assert hot == {k, 16 - k}

    def test_parseval_oracle(self):
        lat = gaussian_latent((2, 8, 6, 6), SeededRng(2))
        total_direct = (np.abs(dft3_oracle(lat.data)) ** 2).sum()
        total_fast = parseval_energy(fft3(lat))
        assert abs(total_direct - total_fast) / total_direct < 1e-12
        rel = abs(parseval_energy(lat) - total_fast) / parseval_energy(lat)
        assert rel < 1e-5

    @pytest.mark.parametrize("shape", [(1, 3, 5, 7), (2, 8, 6, 6), (4, 32, 16, 16)])
    def test_roundtrip(self, shape):
        lat = gaussian_latent(shape, SeededRng(sum(shape)))
        err = np.abs(ifft3(fft3(lat)).data - lat.data).max()
        assert err <= 1e-4

    def test_residue_check_rejects_asymmetric(self):
        spec = np.zeros((1, 4, 2, 2), dtype=np.complex128)
        spec[0, 1, 0, 0] = 1.0  # lone bin, no conjugate partner
        with pytest.raises(InvalidParameterError):
            ifft3(SpectralTensor(spec), max_imag=1e-9)

    def test_residue_check_is_relative_to_the_signal(self):
        big = 1e12 * gaussian_latent((2, 16, 8, 8), SeededRng(12)).data
        lat = VideoLatent(big.astype(np.float32))
        spec = fft3(lat).data
        back = ifft3(SpectralTensor(spec), max_imag=1e-9)
        assert np.abs(back.data - lat.data).max() <= 1e-4 * np.abs(lat.data).max()
        lone = spec.copy()
        lone[0, 1, 0, 0] += 1e12  # a bin with no conjugate partner
        with pytest.raises(InvalidParameterError):
            ifft3(SpectralTensor(lone), max_imag=1e-9)


class TestGaussianLowpass:
    test_dc_weight_is_one = staticmethod(selftest.check_lowpass_shape)
    test_monotone_in_distance = staticmethod(selftest.check_lowpass_shape)

    def test_closed_form_at_stop_frequency(self):
        # Temporal bin k=1 of T=8 sits at distance 0.25 exactly.
        mask = gaussian_lowpass((8, 4, 4), 0.25, "temporal")
        assert mask.weights[1, 0, 0] == pytest.approx(np.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("d0", [0.0, -0.5, 1.5])
    def test_invalid_d0(self, d0):
        with pytest.raises(InvalidParameterError):
            gaussian_lowpass((4, 4, 4), d0)


class TestBandMasks:
    test_three_scale_edges = staticmethod(selftest.check_band_partition)
    test_four_scale_edges = staticmethod(selftest.check_band_partition)
    test_single_scale_keeps_everything = staticmethod(selftest.check_band_partition)
    test_masks_are_indicators = staticmethod(selftest.check_band_partition)
    test_edge_bin_goes_to_coarser_band = staticmethod(selftest.check_band_partition)

    @pytest.mark.parametrize("alphas", [[1], [1, 2], [1, 2, 4], [1, 2, 4, 8], [2, 3, 7]])
    @pytest.mark.parametrize("mode", ["temporal", "radial"])
    def test_partition_of_unity(self, alphas, mode):
        masks = band_masks(alphas, (32, 6, 6), mode)
        total = sum(m.weights for m in masks)
        assert np.array_equal(total, np.ones((32, 6, 6)))

    @given(alphas=st.lists(st.integers(1, 64), min_size=1, max_size=6, unique=True).map(sorted),
           t=st.integers(1, 40), h=st.integers(1, 9), w=st.integers(1, 9),
           mode=st.sampled_from(["temporal", "radial"]))
    def test_random_alphas_partition_exactly(self, alphas, t, h, w, mode):
        masks = band_masks(alphas, (t, h, w), mode)
        assert all(set(np.unique(m.weights)) <= {0.0, 1.0} for m in masks)
        assert np.array_equal(sum(m.weights for m in masks), np.ones((t, h, w)))

    @pytest.mark.parametrize("alphas", [[1, 1, 2], [2, 1], [0, 1], []])
    def test_invalid_alphas(self, alphas):
        with pytest.raises(InvalidParameterError):
            band_masks(alphas, (8, 4, 4))


class TestApplyMask:
    def test_all_ones_is_identity(self):
        spec = fft3(gaussian_latent((2, 8, 4, 4), SeededRng(3)))
        mask = FrequencyMask(np.ones((8, 4, 4)))
        assert np.array_equal(apply_mask(spec, mask).data, spec.data)

    def test_all_zeros_kills_everything(self):
        spec = fft3(gaussian_latent((2, 8, 4, 4), SeededRng(4)))
        mask = FrequencyMask(np.zeros((8, 4, 4)))
        assert np.abs(apply_mask(spec, mask).data).max() == 0.0

    def test_lowpass_crushes_nyquist_tone(self):
        lat = tone_latent((1, 16, 4, 4), axis=1, k=8)  # omega = pi
        mask = gaussian_lowpass((16, 4, 4), 0.25, "temporal")
        filtered = apply_mask(fft3(lat), mask)
        assert parseval_energy(filtered) < 1e-3 * parseval_energy(lat)

    def test_shape_mismatch(self):
        spec = fft3(gaussian_latent((1, 4, 4, 4), SeededRng(5)))
        with pytest.raises(ShapeMismatchError):
            apply_mask(spec, FrequencyMask(np.ones((8, 4, 4))))


class TestFrequencyMaskType:
    test_filtered_real_signal_stays_real = staticmethod(selftest.check_mask_symmetry_residue)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            FrequencyMask(np.full((4, 4, 4), 1.5))

    def test_copies_the_callers_array(self):
        weights = np.ones((2, 2, 2))
        mask = FrequencyMask(weights)
        assert weights.flags.writeable
        weights[0, 0, 0] = 0.0
        assert np.array_equal(mask.weights, np.ones((2, 2, 2)))

    def test_rejects_asymmetric(self):
        weights = np.zeros((4, 4, 4))
        weights[1, 0, 0] = 1.0  # bin -1 (= index 3) left at 0
        with pytest.raises(InvalidParameterError):
            FrequencyMask(weights)
