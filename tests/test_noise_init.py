"""Shuffled base noise, mixing weights, and the noise mixer."""

import hashlib

import numpy as np
import pytest

from specfuse import selftest
from specfuse import (
    InvalidParameterError,
    SeededRng,
    SpecMixParams,
    base_noise,
    center_distance,
    gaussian_latent,
    mixing_angle,
    specmix,
)


def frame_digest(data: np.ndarray, t: int) -> str:
    return hashlib.sha256(data[:, t].tobytes()).hexdigest()


def mix_inputs(params: SpecMixParams, chw) -> tuple[np.ndarray, np.ndarray]:
    """The base and residual noise specmix mixes, in float64."""
    c, h, w = chw
    res = gaussian_latent((c, params.frames, h, w), SeededRng(params.seed_res))
    return base_noise(params, chw).data.astype(np.float64), res.data.astype(np.float64)


def mix_weights(frames: int) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of d * pi/2 per temporal index, the extreme indices exactly 0/1."""
    theta = np.array([center_distance(t, frames) for t in range(frames)]) * np.pi / 2
    cos_w, sin_w = np.cos(theta), np.sin(theta)
    cos_w[-1] = cos_w[0] = 0.0
    sin_w[-1] = sin_w[0] = 1.0
    return cos_w[None, :, None, None], sin_w[None, :, None, None]


class TestBaseNoise:
    test_second_window_is_permutation = staticmethod(selftest.check_base_noise_multiset)

    def test_native_length_is_plain_gaussian(self):
        params = SpecMixParams(frames=8, t_alpha=8, seed_base=3, seed_res=4, seed_perm=5)
        noise = base_noise(params, (2, 4, 4))
        fresh = gaussian_latent((2, 8, 4, 4), SeededRng(3))
        assert np.array_equal(noise.data, fresh.data)

    def test_every_frame_comes_from_first_window(self):
        params = SpecMixParams(frames=20, t_alpha=8, seed_base=9, seed_res=10, seed_perm=11)
        noise = base_noise(params, (1, 4, 4)).data
        window = {frame_digest(noise, t) for t in range(8)}
        for t in range(20):
            assert frame_digest(noise, t) in window

    def test_trailing_window_has_distinct_frames(self):
        params = SpecMixParams(frames=20, t_alpha=8, seed_base=9, seed_res=10, seed_perm=11)
        noise = base_noise(params, (1, 4, 4)).data
        tail = [frame_digest(noise, t) for t in range(16, 20)]
        assert len(set(tail)) == len(tail)

    def test_too_few_frames_rejected(self):
        with pytest.raises(InvalidParameterError):
            SpecMixParams(frames=4, t_alpha=8)

    @pytest.mark.parametrize("field, counts", [("frames", (8.5, 8)), ("t_alpha", (8, 2.5))],
                             ids=["frames", "t_alpha"])
    def test_non_integer_frame_counts_rejected(self, field, counts):
        frames, t_alpha = counts
        with pytest.raises(InvalidParameterError, match=f"^{field} must be an integer"):
            SpecMixParams(frames=frames, t_alpha=t_alpha)


class TestCenterDistance:
    test_symmetry = staticmethod(selftest.check_specmix_determinism_and_limits)

    def test_center_of_odd_sequence(self):
        assert center_distance(2, 5) == 0.0
        assert mixing_angle(center_distance(2, 5)) == 0.0

    def test_endpoints(self):
        for frames in (2, 5, 17):
            assert center_distance(0, frames) == 1.0
            assert center_distance(frames - 1, frames) == 1.0
            assert mixing_angle(1.0) == np.pi / 2

    def test_interior_value(self):
        assert center_distance(1, 5) == 0.5
        assert mixing_angle(0.5) == np.pi / 4

    def test_single_frame(self):
        assert center_distance(0, 1) == 0.0

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            center_distance(5, 5)
        with pytest.raises(InvalidParameterError):
            mixing_angle(1.5)


class TestSpecmix:
    test_deterministic = staticmethod(selftest.check_specmix_determinism_and_limits)
    test_center_slice_is_base = staticmethod(selftest.check_specmix_determinism_and_limits)
    test_endpoint_slices_are_residual = staticmethod(selftest.check_specmix_determinism_and_limits)
    test_per_slice_variance = staticmethod(selftest.check_specmix_variance)

    def test_spatial_mode_matches_pixel_domain_mix(self):
        # Spatial mode is the per-frame mix itself, computed in float64
        # and stored once in float32.
        for frames, t_alpha in ((12, 4), (17, 8), (256, 16)):
            params = SpecMixParams(frames=frames, t_alpha=t_alpha, seed_base=7, seed_res=8,
                                   seed_perm=9)
            out = specmix(params, (2, 4, 4)).data
            base, res = mix_inputs(params, (2, 4, 4))
            cos_w, sin_w = mix_weights(frames)
            direct = cos_w * base + sin_w * res
            assert np.array_equal(out, direct.astype(np.float32))

    @pytest.mark.parametrize("mode, axes", [("spatial", (2, 3)), ("full3d", (1, 2, 3))])
    def test_matches_the_spectral_formulation(self, mode, axes):
        # Oracle: the weights applied to the orthonormal FFT over `axes` of
        # both inputs, then inverted over the same axes. The (H, W) part of
        # the transform commutes with per-index weights, so specmix skips it.
        for frames, t_alpha, chw in ((12, 4, (2, 4, 4)), (17, 8, (2, 3, 5)),
                                     (64, 16, (3, 8, 8))):
            params = SpecMixParams(frames=frames, t_alpha=t_alpha, seed_base=frames,
                                   seed_res=frames + 1, seed_perm=frames + 2)
            base, res = mix_inputs(params, chw)
            cos_w, sin_w = mix_weights(frames)
            mixed = (cos_w * np.fft.fftn(base, axes=axes, norm="ortho")
                     + sin_w * np.fft.fftn(res, axes=axes, norm="ortho"))
            oracle = np.fft.ifftn(mixed, axes=axes, norm="ortho").real
            out = specmix(params, chw, mode).data
            assert np.abs(out - oracle).max() < 1e-6

    def test_full3d_mode_runs_and_differs(self):
        params = SpecMixParams(frames=16, t_alpha=8, seed_base=10, seed_res=11, seed_perm=12)
        spatial = specmix(params, (2, 4, 4), "spatial")
        full = specmix(params, (2, 4, 4), "full3d")
        assert spatial.shape == full.shape
        assert not np.array_equal(spatial.data, full.data)

    def test_unknown_mix_domain(self):
        params = SpecMixParams(frames=8, t_alpha=8)
        with pytest.raises(InvalidParameterError):
            specmix(params, (1, 2, 2), "bogus")
