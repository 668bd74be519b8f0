"""Shuffled base noise, mixing weights, and the noise mixer."""

import hashlib

import numpy as np
import pytest

from specfuse import selftest
from specfuse import (
    InvalidParameterError,
    InvalidShapeError,
    SeededRng,
    SpecMixParams,
    base_noise,
    gaussian_latent,
    specmix,
)
from specfuse.noise_init import _mix_weights


def frame_digest(data: np.ndarray, t: int) -> str:
    return hashlib.sha256(data[:, t].tobytes()).hexdigest()


def mix_inputs(params: SpecMixParams, chw) -> tuple[np.ndarray, np.ndarray]:
    """The base and residual noise specmix mixes, in float64."""
    c, h, w = chw
    res = gaussian_latent((c, params.frames, h, w), SeededRng(params.seed_res))
    return base_noise(params, chw).data.astype(np.float64), res.data.astype(np.float64)


def mix_weights(frames: int) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of d * pi/2 per temporal index, the extreme indices exactly 0/1.

    d = |t - c| / c is index t's distance to the centre c = (frames - 1) / 2.
    """
    centre = (frames - 1) / 2
    theta = np.array([abs(t - centre) / centre for t in range(frames)]) * np.pi / 2
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

    @pytest.mark.parametrize("field, counts",
                             [("frames", (8.5, 8)), ("t_alpha", (8, 2.5)), ("frames", (True, 1))],
                             ids=["frames", "t_alpha", "frames-bool"])
    def test_non_integer_frame_counts_rejected(self, field, counts):
        frames, t_alpha = counts
        with pytest.raises(InvalidParameterError, match=f"^{field} must be an integer"):
            SpecMixParams(frames=frames, t_alpha=t_alpha)


class TestCenterDistance:
    """The centre distance d behind `_mix_weights`, read through the angle d * pi/2."""

    test_symmetry = staticmethod(selftest.check_specmix_determinism_and_limits)

    def test_center_of_odd_sequence(self):
        cos_w, sin_w = _mix_weights(5)
        assert (cos_w[0, 2, 0, 0], sin_w[0, 2, 0, 0]) == (1.0, 0.0)

    def test_endpoints(self):
        # Exactly 0/1 only where the angle is exactly pi/2, i.e. d == 1.
        for frames in (2, 5, 17):
            cos_w, sin_w = _mix_weights(frames)
            assert cos_w.ravel()[[0, -1]].tolist() == [0.0, 0.0]
            assert sin_w.ravel()[[0, -1]].tolist() == [1.0, 1.0]

    def test_interior_value(self):
        cos_w, sin_w = _mix_weights(5)  # frame 1 is halfway out: d = 0.5
        assert (cos_w[0, 1, 0, 0], sin_w[0, 1, 0, 0]) == (np.cos(np.pi / 4), np.sin(np.pi / 4))

    def test_single_frame(self):
        # A lone frame is the centre, with no 0/0 (a RuntimeWarning fails the test).
        cos_w, sin_w = _mix_weights(1)
        assert (cos_w.ravel().tolist(), sin_w.ravel().tolist()) == ([1.0], [0.0])


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

    def test_single_frame_is_the_base(self):
        # One frame is the centre: cos = 1 and sin = 0, so the mix is the base itself.
        params = SpecMixParams(frames=1, t_alpha=1, seed_base=4, seed_res=5, seed_perm=6)
        for mode in ("spatial", "full3d"):
            assert specmix(params, (2, 3, 4), mode).data.tobytes() == \
                base_noise(params, (2, 3, 4)).data.tobytes()

    @pytest.mark.parametrize("chw", [(2.5, 4, 4), (2, 4, True), (2, 4.0, 4)],
                             ids=["float", "bool", "integral-float"])
    def test_non_integer_axis_rejected(self, chw):
        params = SpecMixParams(frames=8, t_alpha=4)
        for make in (base_noise, specmix):
            with pytest.raises(InvalidShapeError, match="^shape must be an integer"):
                make(params, chw)

    def test_numpy_integer_axes_accepted(self):
        params = SpecMixParams(frames=8, t_alpha=4)
        chw = tuple(np.int64(n) for n in (2, 4, 3))
        for make in (base_noise, specmix):
            assert make(params, chw).data.tobytes() == make(params, (2, 4, 3)).data.tobytes()
