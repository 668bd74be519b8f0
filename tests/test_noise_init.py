"""Shuffled base noise, mixing weights, and the noise mixer."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noise_oracle import base_data, mix_inputs, mix_weights, spatial_mix
from specfuse import selftest, tensor_core
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


# (frames, t_alpha, (C, H, W)): odd H * W, frames not a multiple of t_alpha,
# t_alpha == frames, C = 1, one frame, and 16 windows.
MIX_CASES = [(12, 4, (2, 3, 5)), (17, 8, (3, 4, 4)), (8, 8, (2, 3, 3)), (21, 4, (1, 5, 3)),
             (1, 1, (2, 3, 4)), (256, 16, (2, 4, 4))]


def frame_digest(data: np.ndarray, t: int) -> str:
    return hashlib.sha256(data[:, t].tobytes()).hexdigest()


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
    test_per_slice_variance = staticmethod(selftest.check_specmix_variance)

    def test_spatial_mode_matches_pixel_domain_mix(self, monkeypatch):
        # specmix is the per-frame mix itself, cos_w * base + sin_w *
        # residual over whole float64 copies, stored once in float32, and
        # the base is the whole shuffled base, at every block size.
        for block in (1, 3, 16, tensor_core._BLOCK_PAIRS):
            monkeypatch.setattr(tensor_core, "_BLOCK_PAIRS", block)
            for frames, t_alpha, chw in MIX_CASES:
                params = SpecMixParams(frames, t_alpha, seed_base=7, seed_res=8, seed_perm=9)
                assert specmix(params, chw).data.tobytes() == spatial_mix(params, chw).tobytes()
                assert base_noise(params, chw).data.tobytes() == base_data(params, chw).tobytes()

    @given(c=st.integers(1, 3), h=st.integers(1, 5), w=st.integers(1, 5),
           t_alpha=st.integers(1, 6), extra=st.integers(0, 13), block=st.integers(1, 48),
           seed=st.integers(0, 2**32))
    def test_drawn_shapes_and_blocks_match_the_whole_array_mix(self, c, h, w, t_alpha, extra,
                                                               block, seed):
        params = SpecMixParams(t_alpha + extra, t_alpha, seed, seed + 1, seed + 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor_core, "_BLOCK_PAIRS", block)
            out = specmix(params, (c, h, w)).data
        assert out.tobytes() == spatial_mix(params, (c, h, w)).tobytes()

    def test_working_set(self):
        # signal-diag's noise: the float32 output (4 MiB), the first window
        # and one block's scratch. The whole-array mix held 36 MiB.
        params = SpecMixParams(frames=256, t_alpha=16, seed_base=1, seed_res=2, seed_perm=3)
        tracemalloc.start()
        try:
            specmix(params, (16, 16, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    @pytest.mark.parametrize("mode, axes", [("spatial", (2, 3))])
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
            out = specmix(params, chw).data
            assert np.abs(out - oracle).max() < 1e-6

    def test_single_frame_is_the_base(self):
        # One frame is the centre: cos = 1 and sin = 0, so the mix is the base itself.
        params = SpecMixParams(frames=1, t_alpha=1, seed_base=4, seed_res=5, seed_perm=6)
        assert specmix(params, (2, 3, 4)).data.tobytes() == \
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

