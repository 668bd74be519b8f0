"""Blend and multi-band fusion, including the token <-> latent mapping."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specfuse import config, fusion
from specfuse import (
    AttentionWindow,
    FrequencyMask,
    FusionPlan,
    InvalidParameterError,
    InvalidPlanError,
    InvalidShapeError,
    NonFiniteValueError,
    SeededRng,
    ShapeMismatchError,
    TokenSequence,
    VideoLatent,
    band_masks,
    fft3,
    gaussian_latent,
    gaussian_lowpass,
    latent_from_tokens,
    masked_attention,
    multiband_attention,
    multiband_fuse,
    project_qkv,
    sparse_attention,
    spectral_blend,
    spectral_blend_attention,
    tokens_from_latent,
    uniform_keyframes,
)
from specfuse.harness import block_weights, run_stack


def random_tokens(t, tpf, d, seed) -> TokenSequence:
    feats = SeededRng(seed).normals(t * tpf * d).reshape(t * tpf, d)
    return TokenSequence(feats, np.repeat(np.arange(t), tpf))


def fusion_oracle(toks, weights, plan, spatial) -> np.ndarray:
    """float64 reference: each branch run alone, masked np.fft.fftn sum, ifftn."""
    q, k, v = project_qkv(toks, weights)
    t, (h, w) = toks.num_frames, spatial
    masks = band_masks(plan.alphas, (t, h, w), plan.domain_mode)
    total = np.zeros((toks.d_model, t, h, w), dtype=np.complex128)
    for i, (alpha, mask) in enumerate(zip(plan.alphas, masks)):
        if plan.sparse_global and i == len(plan.alphas) - 1:
            out = sparse_attention(q, k, v, toks.frame_index, uniform_keyframes(t, 0.5))
        else:
            window = AttentionWindow.for_span(alpha * plan.t_alpha, t)
            out = masked_attention(q, k, v, toks.frame_index, window)
        grid = out.features.reshape(t, h, w, -1).transpose(3, 0, 1, 2)
        total += np.fft.fftn(grid, axes=(1, 2, 3), norm="ortho") * mask.weights
    fused = np.fft.ifftn(total, axes=(1, 2, 3), norm="ortho").real
    return fused.transpose(1, 2, 3, 0).reshape(t * h * w, -1)


def temporal_tone(shape, k: int) -> VideoLatent:
    c, t, h, w = shape
    wave = np.cos(2.0 * np.pi * k * np.arange(t) / t)
    return VideoLatent(np.broadcast_to(wave[None, :, None, None], shape).astype(np.float32))


class TestTokenLatentMapping:
    def test_roundtrip(self):
        lat = gaussian_latent((3, 4, 2, 5), SeededRng(1))
        back = latent_from_tokens(tokens_from_latent(lat), (2, 5))
        assert np.array_equal(back.data, lat.data)

    def test_token_order_is_frame_major_row_major(self):
        c, t, h, w = 2, 3, 2, 2
        lat = VideoLatent(np.arange(c * t * h * w, dtype=np.float32).reshape(c, t, h, w))
        toks = tokens_from_latent(lat)
        for ti in range(t):
            for y in range(h):
                for x in range(w):
                    token = toks.features[ti * h * w + y * w + x]
                    assert np.array_equal(token, lat.data[:, ti, y, x])

    def test_bad_spatial_factorization(self):
        lat = gaussian_latent((2, 3, 2, 5), SeededRng(2))
        with pytest.raises(ShapeMismatchError):
            latent_from_tokens(tokens_from_latent(lat), (3, 3))


class TestSpectralBlend:
    def test_identical_branches_pass_through(self):
        z = gaussian_latent((2, 8, 4, 4), SeededRng(3))
        lpf = gaussian_lowpass((8, 4, 4), 0.25)
        out = spectral_blend(z, z, lpf)
        assert np.array_equal(out.data, z.data)

    def test_all_ones_filter_returns_global(self):
        zg = gaussian_latent((2, 8, 4, 4), SeededRng(4))
        zl = gaussian_latent((2, 8, 4, 4), SeededRng(5))
        out = spectral_blend(zg, zl, FrequencyMask(np.ones((8, 4, 4))))
        assert np.abs(out.data - zg.data).max() <= 1e-6

    def test_tone_split_keeps_both_tones(self):
        shape = (1, 16, 4, 4)
        low, high = temporal_tone(shape, 1), temporal_tone(shape, 6)
        fine_mask, coarse_mask = band_masks([1, 4], (16, 4, 4))  # split at pi/8
        out = spectral_blend(low, high, coarse_mask)  # low band from `low`, rest from `high`
        spec_out = fft3(out)[0]
        expected = fft3(low)[0] + fft3(high)[0]
        assert np.abs(spec_out - expected).max() <= 1e-6

    def test_large_amplitude_is_accepted(self):
        # The imaginary residue grows with the amplitude; it is ~5e-4 here.
        zg, zl = (VideoLatent((1e12 * gaussian_latent((2, 16, 8, 8), SeededRng(s)).data)
                              .astype(np.float32)) for s in (8, 9))
        out = spectral_blend(zg, zl, gaussian_lowpass((16, 8, 8), 0.25))
        assert np.isfinite(out.data).all()

    def test_shape_mismatch(self):
        a = gaussian_latent((1, 4, 4, 4), SeededRng(6))
        b = gaussian_latent((1, 8, 4, 4), SeededRng(7))
        with pytest.raises(ShapeMismatchError):
            spectral_blend(a, b, gaussian_lowpass((4, 4, 4), 0.25))


class TestMultibandFuse:
    def test_identical_branches_pass_through(self):
        z = gaussian_latent((2, 16, 4, 4), SeededRng(8))
        masks = band_masks([1, 2, 4], (16, 4, 4))
        out = multiband_fuse([z, z, z], masks)
        assert np.array_equal(out.data, z.data)

    @pytest.mark.parametrize("alphas", [(1,), (1, 2, 4)])
    @pytest.mark.parametrize("mode", ["temporal", "radial"])
    def test_identical_float64_branches_return_the_branch(self, alphas, mode):
        # Every difference from branch 0 is zero, so the fusion adds an
        # exact zero to branch 0.
        x = SeededRng(13).normals(2 * 16 * 4 * 4).reshape(2, 16, 4, 4)
        out = fusion._fuse([x] * len(alphas), band_masks(alphas, (16, 4, 4), mode))
        assert out is not x and np.array_equal(out, x)

    def test_two_bands_equals_spectral_blend(self):
        zg = gaussian_latent((2, 8, 4, 4), SeededRng(9))
        zl = gaussian_latent((2, 8, 4, 4), SeededRng(10))
        lpf = gaussian_lowpass((8, 4, 4), 0.25)
        blended = spectral_blend(zg, zl, lpf)
        fused = multiband_fuse([zl, zg], [lpf.complement(), lpf])
        assert np.abs(blended.data - fused.data).max() <= 1e-6

    def test_three_tones_union(self):
        shape = (1, 32, 4, 4)
        masks = band_masks([1, 2, 4], (32, 4, 4))
        # k=1 -> pi/16 (coarse band), k=3 -> 3pi/16 (middle), k=8 -> pi/2 (fine).
        fine, mid, coarse = temporal_tone(shape, 8), temporal_tone(shape, 3), temporal_tone(shape, 1)
        out = multiband_fuse([fine, mid, coarse], masks)
        expected = fft3(fine) + fft3(mid) + fft3(coarse)
        assert np.abs(fft3(out) - expected).max() <= 1e-6

    def test_partition_violation_rejected(self):
        z = gaussian_latent((1, 8, 4, 4), SeededRng(11))
        half = FrequencyMask(np.full((8, 4, 4), 0.5))
        quarter = FrequencyMask(np.full((8, 4, 4), 0.25))
        with pytest.raises(InvalidPlanError):
            multiband_fuse([z, z], [half, quarter])

    def test_mismatched_lengths_rejected(self):
        z = gaussian_latent((1, 8, 4, 4), SeededRng(12))
        with pytest.raises(InvalidParameterError):
            multiband_fuse([z], band_masks([1, 2], (8, 4, 4)))


class TestFusionProperties:
    @given(c=st.integers(1, 3), t=st.integers(1, 12), h=st.integers(1, 6),
           w=st.integers(1, 6), d0=st.floats(0.05, 1.0),
           mode=st.sampled_from(["temporal", "radial"]), seed=st.integers(0, 2**32))
    def test_blend_is_two_band_multiband_fuse(self, c, t, h, w, d0, mode, seed):
        zg = gaussian_latent((c, t, h, w), SeededRng(seed))
        zl = gaussian_latent((c, t, h, w), SeededRng(seed + 1))
        lpf = gaussian_lowpass((t, h, w), d0, mode)
        blended = spectral_blend(zg, zl, lpf)
        fused = multiband_fuse([zl, zg], [lpf.complement(), lpf])
        assert np.array_equal(blended.data, fused.data)

    @given(c=st.integers(1, 3), t=st.integers(1, 24), h=st.integers(1, 6),
           w=st.integers(1, 6),
           alphas=st.lists(st.integers(1, 16), min_size=1, max_size=5, unique=True).map(sorted),
           mode=st.sampled_from(["temporal", "radial"]), seed=st.integers(0, 2**32))
    def test_identical_branches_return_the_input(self, c, t, h, w, alphas, mode, seed):
        z = gaussian_latent((c, t, h, w), SeededRng(seed))
        out = multiband_fuse([z] * len(alphas), band_masks(alphas, (t, h, w), mode))
        assert np.array_equal(out.data, z.data)

    @given(c=st.integers(1, 3), t=st.integers(1, 12), h=st.integers(1, 5),
           w=st.sampled_from([1, 2, 3, 4, 7, 8]),
           alphas=st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True).map(sorted),
           gaussian=st.booleans(), d0=st.floats(0.05, 1.0),
           mode=st.sampled_from(["temporal", "radial"]), seed=st.integers(0, 2**32))
    def test_half_spectrum_matches_the_full_complex_oracle(self, c, t, h, w, alphas, gaussian,
                                                           d0, mode, seed):
        # The fusion keeps the half of each real branch's spectrum, in its
        # masks' layout.
        if gaussian:
            lpf = gaussian_lowpass((t, h, w), d0, mode)
            masks = [lpf.complement(), lpf]
        else:
            masks = band_masks(alphas, (t, h, w), mode)
        rng = SeededRng(seed)
        branches = [rng.normals(c * t * h * w).reshape(c, t, h, w) for _ in masks]
        total = sum(fft3(b) * m.weights for b, m in zip(branches, masks))
        oracle = np.fft.ifftn(total, axes=(1, 2, 3), norm="ortho").real
        fused = fusion._fuse(branches, masks)
        assert np.abs(fused - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert np.array_equal(multiband_fuse(branches, masks).data, fused.astype(np.float32))


class TestChannelBlocks:
    """`_fuse` streams over channel blocks of at most `_BLOCK_BYTES`, split
    across `config.pool_width()` threads; neither may change a bit."""

    @given(data=st.data(), c=st.integers(1, 17), t=st.sampled_from([1, 2, 5, 7, 8]),
           h=st.integers(1, 4), w=st.sampled_from([1, 2, 3, 4, 7]), gaussian=st.booleans(),
           mode=st.sampled_from(["temporal", "radial"]), seed=st.integers(0, 2**32))
    def test_blocks_and_widths_change_no_bit(self, data, c, t, h, w, gaussian, mode, seed):
        if gaussian:
            lpf = gaussian_lowpass((t, h, w), 0.3, mode)
            masks = [lpf.complement(), lpf]
        else:
            masks = band_masks((1, 2, 4), (t, h, w), mode)
        rng = SeededRng(seed)
        branches = [rng.normals(c * t * h * w).reshape(c, t, h, w) for _ in masks]
        latents = [VideoLatent(b) for b in branches]
        # At these sizes the whole latent is one block.
        whole = fusion._fuse(branches, masks)
        whole_latent = multiband_fuse(latents, masks).data
        whole_spectrum = fusion.fused_spectrum(branches, masks)
        total = sum(fft3(b) * m.weights for b, m in zip(branches, masks))
        oracle = np.fft.ifftn(total, axes=(1, 2, 3), norm="ortho").real
        assert np.abs(whole - oracle).max() <= 1e-12 * np.abs(oracle).max()
        per = data.draw(st.integers(1, c), label="channels per block")
        with mock.patch.object(fusion, "_BLOCK_BYTES", 8 * per * t * h * w):
            assert np.array_equal(fusion.fused_spectrum(branches, masks), whole_spectrum)
            for width in (1, 2, 3):
                with mock.patch.object(config, "pool_width", return_value=width):
                    assert np.array_equal(fusion._fuse(branches, masks), whole)
                    assert np.array_equal(multiband_fuse(latents, masks).data, whole_latent)

    @given(data=st.data(), c=st.integers(1, 9), t=st.sampled_from([1, 2, 5, 8]),
           h=st.integers(1, 3), w=st.sampled_from([1, 2, 3, 7]),
           alphas=st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True).map(sorted),
           gaussian=st.booleans(), mode=st.sampled_from(["temporal", "radial"]),
           seed=st.integers(0, 2**32))
    def test_work_counts(self, data, c, t, h, w, alphas, gaussian, mode, seed):
        # Per channel block, B branches cost B - 1 forward transforms and
        # one inverse (one branch none), and `fused_spectrum` B forward ones.
        if gaussian:
            lpf = gaussian_lowpass((t, h, w), 0.3, mode)
            masks = [lpf.complement(), lpf]
        else:
            masks = band_masks(alphas, (t, h, w), mode)
        rng = SeededRng(seed)
        branches = [rng.normals(c * t * h * w).reshape(c, t, h, w) for _ in masks]
        per = data.draw(st.integers(1, c), label="channels per block")
        b, blocks = len(masks), -(-c // per)
        with mock.patch.object(fusion, "_BLOCK_BYTES", 8 * per * t * h * w), \
                mock.patch.object(config, "pool_width", return_value=1), \
                mock.patch.object(fusion, "_rfftn", wraps=fusion._rfftn) as forward, \
                mock.patch.object(fusion, "_irfftn_real", wraps=fusion._irfftn_real) as inverse:
            fused = fusion._fuse(branches, masks)
            assert (forward.call_count, inverse.call_count) == ((b - 1) * blocks, (b > 1) * blocks)
            forward.reset_mock()
            inverse.reset_mock()
            fusion.fused_spectrum(branches, masks)
            assert (forward.call_count, inverse.call_count) == (b * blocks, 0)
        if b == 1:
            assert np.array_equal(fused, branches[0])

    @pytest.mark.parametrize("width", [1, 2])
    def test_non_finite_sum_in_one_block_raises(self, width):
        masks = band_masks((1, 2), (8, 4, 4))
        rng = SeededRng(40)
        branches = [rng.normals(4 * 8 * 4 * 4).reshape(4, 8, 4, 4) for _ in masks]
        branches[1][3] = 1e308  # finite, but its spectrum overflows
        with mock.patch.object(fusion, "_BLOCK_BYTES", 8 * 8 * 4 * 4), \
                mock.patch.object(config, "pool_width", return_value=width), \
                np.errstate(all="ignore"), pytest.raises(NonFiniteValueError):
            fusion._fuse(branches, masks)

    def test_no_channels_rejected(self):
        masks = band_masks((1, 2), (4, 2, 2))
        for fuse in (multiband_fuse, fusion.fused_spectrum):
            with pytest.raises(InvalidShapeError):
                fuse([np.zeros((0, 4, 2, 2))] * 2, masks)

    def test_one_block_starts_no_thread(self):
        z = gaussian_latent((8, 32, 8, 8), SeededRng(41))
        lpf = gaussian_lowpass((32, 8, 8), 0.25, "radial")
        with mock.patch.object(config, "pool_width", return_value=2), \
                mock.patch.object(config, "ThreadPoolExecutor",
                                  side_effect=AssertionError("a thread pool started")):
            spectral_blend(z, z, lpf)

    def test_blend_peak_memory_at_signal_diag_shape(self):
        # (16, 256, 16, 16): 4 MiB per float32 latent and one 512 KiB block
        # per channel. Whole-latent spectra peaked at 35.5 MiB here.
        zg = gaussian_latent((16, 256, 16, 16), SeededRng(42))
        zl = gaussian_latent((16, 256, 16, 16), SeededRng(43))
        lpf = gaussian_lowpass((256, 16, 16), 0.25, "radial")
        tracemalloc.start()
        try:
            with mock.patch.object(config, "pool_width", return_value=2):
                spectral_blend(zg, zl, lpf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, f"spectral_blend peaked at {peak / 2**20:.1f} MiB"


class TestFusionPlan:
    def test_text_roundtrip(self):
        # Every plan key, as the CLI reads it from a plan file.
        text = ("t_alpha = 8\nalphas = 1,2,4\nsparse_global = true\n"
                "domain_mode = radial\nd0 = 0.3\n")
        assert FusionPlan.from_text(text) == FusionPlan(
            t_alpha=8, alphas=(1, 2, 4), sparse_global=True, domain_mode="radial", d0=0.3)

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError):
            FusionPlan.from_text("t_alpha = 8\nalphas = 1,2\nbogus = 1\n")

    def test_descending_alphas_rejected(self):
        with pytest.raises(InvalidPlanError):
            FusionPlan(t_alpha=8, alphas=(2, 1))

    @pytest.mark.parametrize("t_alpha", [8.0, 8.5, True])
    def test_non_integer_t_alpha_rejected(self, t_alpha):
        with pytest.raises(InvalidParameterError, match="t_alpha must be an integer"):
            FusionPlan(t_alpha=t_alpha, alphas=(1, 2))

    @pytest.mark.parametrize("alphas", [(), (0, 1), (2, 1), (1, 1), (1.5, 2), (True, 2)])
    def test_one_alpha_rule_for_masks_and_plans(self, alphas):
        # band_masks and FusionPlan share one validator, each with its own error type.
        with pytest.raises(InvalidParameterError):
            band_masks(alphas, (8, 4, 4))
        with pytest.raises(InvalidPlanError):
            FusionPlan(t_alpha=8, alphas=alphas)

    @pytest.mark.parametrize("flag", ["false", 0, 1, None])
    def test_non_bool_sparse_global_rejected(self, flag):
        with pytest.raises(InvalidParameterError, match="sparse_global must be of type bool"):
            FusionPlan(t_alpha=8, alphas=(1, 2), sparse_global=flag)

    def test_non_integer_alpha_rejected(self):
        with pytest.raises(InvalidPlanError, match="alphas must be an integer"):
            FusionPlan(t_alpha=8, alphas=(1.5, 2))
        plan = FusionPlan(t_alpha=np.int64(8), alphas=(np.int64(1), np.int32(2)))
        assert plan.alphas == (1, 2) and all(type(a) is int for a in plan.alphas)

    def test_coverage_validation(self):
        plan = FusionPlan(t_alpha=8, alphas=(1, 2))
        plan.validate_for(16)
        with pytest.raises(InvalidPlanError):
            plan.validate_for(17)

    def test_unknown_domain_mode_rejected(self):
        with pytest.raises(InvalidParameterError, match="domain_mode"):
            FusionPlan(t_alpha=8, alphas=(1, 2), domain_mode="bogus")
        with pytest.raises(InvalidParameterError, match="domain_mode"):
            FusionPlan.from_text("t_alpha = 8\nalphas = 1,2\ndomain_mode = nope\n")

    @pytest.mark.parametrize("text, key", [
        ("t_alpha = x\nalphas = 1,2\n", "t_alpha"),
        ("t_alpha = 8\nalphas = 1,a\n", "alphas"),
        ("t_alpha = 8\nalphas = 1,2\nd0 = zz\n", "d0"),
        ("t_alpha = 8\nalphas = 1,,2\n", "^alphas has an empty list item"),
        ("t_alpha = 8\nalphas = 1,2,\n", "^alphas has an empty list item"),
        ("t_alpha = 8\nd0 = 0.3\n", r"^plan is missing required keys: \['alphas'\]$"),
    ], ids=["t_alpha", "alphas", "d0", "empty-alphas-item", "trailing-comma", "missing-key"])
    def test_malformed_number_names_its_key(self, text, key):
        with pytest.raises(InvalidParameterError, match=key):
            FusionPlan.from_text(text)


class TestFusedAttention:
    @staticmethod
    def assert_branches_equal_attention(t, tpf, d, seed, t_alpha, spatial):
        toks = random_tokens(t, tpf, d, seed)
        weights = block_weights(d, SeededRng(seed + 1))
        plan = FusionPlan(t_alpha=t_alpha, alphas=(1, 2, 4), sparse_global=True)
        q, k, v = project_qkv(toks, weights)
        frames = toks.frame_index
        alone = [masked_attention(q, k, v, frames, AttentionWindow.for_span(a * t_alpha, t))
                 for a in plan.alphas[:-1]]
        alone.append(sparse_attention(q, k, v, frames, uniform_keyframes(t, 0.5)))
        branches = fusion._branch_latents(toks, weights, plan, spatial)
        for branch, out in zip(branches, alone, strict=True):
            assert np.array_equal(branch.transpose(1, 2, 3, 0).reshape(-1, d), out.features)

    def test_branch_latents_equal_single_branch_attention(self):
        self.assert_branches_equal_attention(32, 16, 8, 15, 8, (4, 4))

    def test_branch_latents_equal_single_branch_attention_at_d17(self):
        # `project_qkv`'s matmuls write (n, d) arrays, the fused path's write
        # strided views of its stacks. At d = 17 and 3072 tokens OpenBLAS
        # threads the product, and the two must still agree bit for bit.
        self.assert_branches_equal_attention(16, 192, 17, 36, 4, (12, 16))

    def test_attention_working_set(self):
        # 8192 tokens (T = 32, 16x16), d = 16, three frame sets, two shares.
        # In float64: the operand stacks n * (2 * 17 + 17) = 3.19 MiB, the
        # set outputs 3 * n * 16 = 3 MiB, and the share buffers 2 * 60 *
        # (4 * 256 + 35 * 17) = 1.48 MiB (60 query rows per chunk, 4 key
        # frames per logits block). A second copy of Q, K and V adds 3 MiB.
        toks = random_tokens(32, 256, 16, 38)
        weights = block_weights(16, SeededRng(39))
        plan = FusionPlan(t_alpha=8, alphas=(1, 2, 4))
        tracemalloc.start()
        try:
            with mock.patch.object(config, "pool_width", return_value=2):
                multiband_attention(toks, weights, plan, (16, 16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (3.19 + 3 + 1.48 + 1) * 2**20  # 1 MiB of slack
        assert peak < bound, f"multiband_attention peaked at {peak / 2**20:.2f} MiB"

    def test_gaussian_pair_builds_no_band_masks(self):
        toks = random_tokens(16, 16, 8, 17)
        weights = block_weights(8, SeededRng(18))
        plan = FusionPlan(t_alpha=8, alphas=(1, 2), d0=0.3)
        expected = spectral_blend_attention(toks, weights, plan, (4, 4))
        stacked = run_stack(toks, plan, depth=1, seed=19, spatial=(4, 4))
        with mock.patch.object(fusion, "band_masks", side_effect=AssertionError("band_masks")):
            assert np.array_equal(spectral_blend_attention(toks, weights, plan, (4, 4)).features,
                                  expected.features)
            assert np.array_equal(run_stack(toks, plan, depth=1, seed=19, spatial=(4, 4)).features,
                                  stacked.features)

    @pytest.mark.parametrize("spatial", [(3, 5), (-4, -4), (0, 16), (4.7, 4), (True, 16),
                                         (4.7, 4.2)])
    def test_bad_spatial_rejected_before_attention(self, spatial):
        toks = random_tokens(16, 16, 8, 20)
        plan = FusionPlan(t_alpha=8, alphas=(1, 2))
        with mock.patch.object(fusion, "_attend_stacks", side_effect=AssertionError("attended")):
            for fuse in (multiband_attention, spectral_blend_attention):
                with pytest.raises(ShapeMismatchError):
                    fuse(toks, block_weights(8, SeededRng(21)), plan, spatial)
        with pytest.raises(ShapeMismatchError):
            latent_from_tokens(toks, spatial)

    @pytest.mark.parametrize("fuse", [multiband_attention, spectral_blend_attention])
    @pytest.mark.parametrize("operand", range(3), ids=["query", "key", "value"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weights_rejected_before_attention(self, fuse, operand, bad):
        # Checked before the projection's matmul, so inf warns of nothing.
        weights = list(block_weights(4, SeededRng(33)))
        weights[operand][1, 2] = bad
        name = ["query", "key", "value"][operand]
        plan = FusionPlan(t_alpha=8, alphas=(1, 2))
        with mock.patch.object(fusion, "_attend_stacks", side_effect=AssertionError("attended")), \
                pytest.raises(NonFiniteValueError, match=f"^{name} weights must be finite$"):
            fuse(random_tokens(16, 4, 4, 32), weights, plan, (2, 2))

    @pytest.mark.parametrize("fuse", [multiband_attention, spectral_blend_attention])
    def test_overflowing_projection_rejected_before_attention(self, fuse):
        # Finite weights can still project finite tokens to inf.
        weights = (np.full((4, 4), 1e308),) + block_weights(4, SeededRng(34))[1:]
        plan = FusionPlan(t_alpha=8, alphas=(1, 2))
        with mock.patch.object(fusion, "_attend_stacks", side_effect=AssertionError("attended")), \
                np.errstate(all="ignore"), \
                pytest.raises(NonFiniteValueError, match="^q must be finite$"):
            fuse(random_tokens(16, 4, 4, 35), weights, plan, (2, 2))

    def test_single_branch_is_plain_attention(self):
        toks = random_tokens(8, 16, 8, 13)
        weights = block_weights(8, SeededRng(14))
        plan = FusionPlan(t_alpha=8, alphas=(1,))
        out = multiband_attention(toks, weights, plan, (4, 4))
        q, k, v = project_qkv(toks, weights)
        plain = masked_attention(q, k, v, toks.frame_index, AttentionWindow.for_span(8, 8))
        assert np.abs(out.features - plain.features).max() <= 1e-4

    def test_lpf_equal_one_returns_global_branch(self):
        toks = random_tokens(16, 16, 8, 21)
        weights = block_weights(8, SeededRng(22))
        plan = FusionPlan(t_alpha=8, alphas=(1, 2))
        ones = FrequencyMask(np.ones((16, 4, 4)))
        zeros = FrequencyMask(np.zeros((16, 4, 4)))
        out = fusion._fused_attention(toks, weights, plan, (4, 4), lambda grid: [zeros, ones])
        q, k, v = project_qkv(toks, weights)
        glob = masked_attention(q, k, v, toks.frame_index, AttentionWindow.for_span(16, 16))
        assert np.abs(out.features - glob.features).max() <= 1e-4

    @pytest.mark.parametrize("plan", [
        FusionPlan(t_alpha=8, alphas=(1, 2, 4)),
        FusionPlan(t_alpha=8, alphas=(1, 2, 4), sparse_global=True),
        FusionPlan(t_alpha=12, alphas=(1, 2), domain_mode="radial"),
    ], ids=["dense", "sparse-global", "radial-two-scale"])
    def test_matches_float64_oracle(self, plan):
        toks = random_tokens(24, 16, 8, 26)
        weights = block_weights(8, SeededRng(27))
        out = multiband_attention(toks, weights, plan, (4, 4))
        oracle = fusion_oracle(toks, weights, plan, (4, 4))
        assert np.abs(out.features - oracle).max() <= 1e-12

    def test_overflowing_features_raise_non_finite(self):
        toks = random_tokens(16, 4, 4, 30)
        huge = TokenSequence(1e200 * toks.features, toks.frame_index)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValueError):
            multiband_attention(huge, block_weights(4, SeededRng(31)),
                                FusionPlan(t_alpha=8, alphas=(1, 2)), (2, 2))

    def test_plan_must_cover_sequence(self):
        toks = random_tokens(32, 4, 4, 25)
        plan = FusionPlan(t_alpha=8, alphas=(1, 2))
        with pytest.raises(InvalidPlanError):
            multiband_attention(toks, (np.eye(4), np.eye(4), np.eye(4)), plan, (2, 2))
