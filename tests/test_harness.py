"""Scene synthesis and stacked fusion blocks."""

import re

import numpy as np
import pytest

from specfuse import (
    AttentionWindow,
    FusionPlan,
    InvalidParameterError,
    InvalidShapeError,
    SeededRng,
    SyntheticScene,
    Tone,
    band_energy,
    block_weights,
    fft3,
    make_scene,
    masked_attention,
    project_qkv,
    run_stack,
    tokens_from_latent,
)


def noisy_scene_tokens(shape, seed):
    return tokens_from_latent(make_scene(SyntheticScene(shape=shape, noise_level=1.0, seed=seed)))


class TestMakeScene:
    def test_single_tone_band_placement(self):
        scene = SyntheticScene(shape=(1, 32, 4, 4), tones=(Tone("t", np.pi / 8, 1.0),))
        energies = band_energy(make_scene(scene), [np.pi / 8, np.pi / 4])
        assert energies[0] == pytest.approx(energies.sum(), rel=1e-9)

    def test_two_tones_split_bands(self):
        scene = SyntheticScene(
            shape=(1, 32, 4, 4),
            tones=(Tone("t", np.pi / 8, 1.0), Tone("t", np.pi / 2, 1.0)),
        )
        energies = band_energy(make_scene(scene), [np.pi / 8, np.pi / 4])
        assert energies[0] > 0.0 and energies[2] > 0.0
        assert energies[1] == pytest.approx(0.0, abs=1e-9)

    def test_empty_scene_is_zero(self):
        scene = SyntheticScene(shape=(2, 8, 4, 4))
        assert np.abs(make_scene(scene).data).max() == 0.0

    def test_spatial_tone_axis(self):
        scene = SyntheticScene(shape=(1, 2, 16, 2), tones=(Tone("h", np.pi / 2, 2.0),))
        spec = np.abs(fft3(make_scene(scene))[0]) ** 2
        profile = spec.sum(axis=(0, 2))
        assert int(profile.argmax()) in (4, 12)

    def test_invalid_tone_rejected(self):
        with pytest.raises(InvalidParameterError):
            Tone("t", 4.0, 1.0)
        with pytest.raises(InvalidParameterError):
            Tone("x", 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            Tone("t", 1.0, 0.0)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(InvalidParameterError,
                           match=r"amplitude must be a finite real number in \(0, inf\)"):
            Tone("t", 1.0, amplitude)

    @pytest.mark.parametrize("level", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_noise_level_rejected(self, level):
        # NaN would otherwise give a noiseless scene (nan > 0 is false) and
        # inf would fail late, on the latent's finiteness check.
        message = r"noise_level must be a finite real number in \[0, inf\)"
        with pytest.raises(InvalidParameterError, match=message):
            SyntheticScene(shape=(1, 2, 2, 2), noise_level=level)
        with pytest.raises(InvalidParameterError, match=message):
            SyntheticScene.from_text(f"shape = 1,2,2,2\nnoise_level = {level}\n")

    def test_noise_is_seeded(self):
        scene = SyntheticScene(shape=(2, 8, 4, 4), noise_level=0.5, seed=13)
        assert np.array_equal(make_scene(scene).data, make_scene(scene).data)

    def test_config_roundtrip(self):
        # Every scene key, as the CLI reads it from a scene file.
        text = ("shape = 4,32,8,8\nseed = 42\nnoise_level = 0.25\n"
                "tones = t:0.125:1.0, w:0.5:2.0\n")
        assert SyntheticScene.from_text(text) == SyntheticScene(
            shape=(4, 32, 8, 8),
            tones=(Tone("t", 0.125, 1.0), Tone("w", 0.5, 2.0)),
            noise_level=0.25,
            seed=42,
        )

    @pytest.mark.parametrize("shape", [(1, 8.7, 2, 2), (1, 8, 2, True), (1, 8, 2)],
                             ids=["float", "bool", "rank-3"])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(InvalidShapeError):
            SyntheticScene(shape=shape)

    def test_scene_file_shape_follows_the_constructor_rule(self):
        with pytest.raises(InvalidShapeError) as constructed:
            SyntheticScene(shape=(1, 8, 2))
        with pytest.raises(InvalidShapeError, match=f"^{re.escape(str(constructed.value))}$"):
            SyntheticScene.from_text("shape = 1,8,2\n")

    def test_numpy_integer_shape_accepted(self):
        scene = SyntheticScene(shape=tuple(np.int64(n) for n in (1, 8, 2, 2)))
        assert scene == SyntheticScene(shape=(1, 8, 2, 2))
        assert all(type(n) is int for n in scene.shape)

    def test_unknown_config_key(self):
        with pytest.raises(InvalidParameterError):
            SyntheticScene.from_text("shape = 1,2,2,2\nwhat = 3\n")

    @pytest.mark.parametrize("text, key", [
        ("shape = 1,2,x,4\n", "shape"),
        ("shape = 1,2,2,2\nseed = q\n", "seed"),
        ("shape = 1,2,2,2\nnoise_level = lots\n", "noise_level"),
        ("shape = 1,2,2,2\ntones = t:abc:1\n", "tones"),
        ("shape = 1,2,2,2\ntones = t:0.5:1,,h:0.2:1\n", "^tones has an empty list item"),
        ("shape = 1,,2,2,2\n", "^shape has an empty list item"),
        ("seed = 3\nnoise_level = 0.5\n", r"^scene is missing required keys: \['shape'\]$"),
        ("shape = 1,2,2,2\ntones = t:9:1\n", r"^tones: omega must be a finite real number"),
        ("shape = 1,2,2,2\ntones = x:1:1\n", r"^tones: axis must be one of"),
        ("shape = 1,2,2,2\ntones = t:1\n", r"^tones: tone must be axis:omega:amplitude"),
        ("shape = 1,2,2,2\ntones = t:1:0\n", r"^tones: amplitude must be a finite real number"),
    ], ids=["shape", "seed", "noise_level", "tones", "empty-tones-item", "empty-shape-item",
            "missing-key", "tone-omega-range", "tone-axis", "tone-arity", "tone-zero-amplitude"])
    def test_malformed_number_names_its_key(self, text, key):
        with pytest.raises(InvalidParameterError, match=key):
            SyntheticScene.from_text(text)


class TestRunStack:
    def test_depth_one_is_single_call(self):
        toks = noisy_scene_tokens((8, 16, 4, 4), 1)
        plan = FusionPlan(t_alpha=8, alphas=(1, 2))
        from specfuse import spectral_blend_attention

        stacked = run_stack(toks, plan, depth=1, seed=3, spatial=(4, 4))
        weights = block_weights(8, SeededRng(3))
        single = spectral_blend_attention(toks, weights, plan, (4, 4))
        assert np.array_equal(stacked.features, single.features)

    def test_depth_two_short_input_is_plain_attention(self):
        # T == t_alpha: two plain attention passes, each block taking the
        # next three matrices of the seeded weight stream.
        toks = noisy_scene_tokens((4, 8, 4, 4), 2)
        plan = FusionPlan(t_alpha=8, alphas=(1, 2), domain_mode="radial")
        out = run_stack(toks, plan, depth=2, seed=0, spatial=(4, 4))
        rng = SeededRng(0)
        ref = toks
        for _ in range(2):
            q, k, v = project_qkv(ref, block_weights(4, rng))
            ref = masked_attention(q, k, v, ref.frame_index, AttentionWindow.for_span(8, 8))
        assert np.abs(out.features - ref.features).max() <= 2e-4

    def test_bad_depth(self):
        toks = noisy_scene_tokens((2, 8, 2, 2), 6)
        with pytest.raises(InvalidParameterError):
            run_stack(toks, FusionPlan(t_alpha=8, alphas=(1, 2)), 0, 1, (2, 2))

    def test_non_integer_depth_rejected(self):
        toks = noisy_scene_tokens((2, 8, 2, 2), 6)
        with pytest.raises(InvalidParameterError, match="depth must be an integer"):
            run_stack(toks, FusionPlan(t_alpha=8, alphas=(1, 2)), 1.0, 1, (2, 2))
