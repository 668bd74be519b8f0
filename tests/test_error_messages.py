"""Library errors that no other test raises, each with its type and message.

One row per raise statement: frame ids and attention operands, the zero-energy
extended input of `relative_snr`, `AttnMap`'s invariants, the config dialect,
fusion operands, `frequency_grid`'s domain mode, the seed range (each seed,
and the CLI's `--seed`, whose derived seeds must fit too) and the `.spfu`
header; and every typed parameter given an object of another class.
"""

import os
import re
import struct

import numpy as np
import pytest

from specfuse import (
    AttentionWindow,
    AttnMap,
    FrequencyMask,
    FusionPlan,
    SeededRng,
    SpecMixParams,
    SyntheticScene,
    TokenSequence,
    VideoLatent,
    band_energy,
    band_masks,
    base_noise,
    diagonality,
    frequency_grid,
    gaussian_latent,
    latent_from_tokens,
    masked_attention,
    multiband_attention,
    multiband_fuse,
    project_qkv,
    read_tensor,
    relative_snr,
    spectral_blend,
    spectral_blend_attention,
    specmix,
    tokens_from_latent,
    write_tensor,
)
from specfuse.cli import main
from specfuse.errors import (DegenerateInputError, InvalidParameterError, InvalidShapeError,
                             ShapeMismatchError, TruncatedPayloadError, UnsupportedFormatError)
from specfuse.harness import block_weights, make_scene, run_stack

FRAMES = [0, 0, 1, 1]
OPERAND = np.arange(8.0).reshape(4, 2) / 8
LATENT = gaussian_latent((1, 4, 2, 2), SeededRng(0))
MASKS = band_masks((1, 2), (4, 2, 2))
SMALL_MASK = FrequencyMask(np.ones((2, 2, 2)))


def spfu_file(path, dtype=0, rank=4, dims=(1, 1, 1, 1), size=None):
    """A .spfu file of ones with the given header fields, cut to `size` bytes if given."""
    blob = struct.pack("<4sHBB4I", b"SPFU", 1, dtype, rank, *dims)
    blob += np.ones(int(np.prod(dims)), dtype="<f4").tobytes()
    path.write_bytes(blob[:size])
    return path


# (id, call(tmp_path), error, exact message)
ERRORS = [
    ("frame_index-length", lambda p: TokenSequence(OPERAND, [0, 0, 1]),
     ShapeMismatchError, "frame_index must have shape (4,), got (3,)"),
    ("frame_index-start", lambda p: TokenSequence(OPERAND, [1, 1, 2, 2]),
     InvalidParameterError, "frame ids must start at 0"),
    ("qkv-token-count", lambda p: masked_attention(OPERAND, OPERAND[:2], OPERAND, FRAMES,
                                                   AttentionWindow(2)),
     ShapeMismatchError, "k must have shape (4, 2), got (2, 2)"),
    ("qk-key-dimension", lambda p: masked_attention(OPERAND, np.ones((4, 3)), OPERAND, FRAMES,
                                                    AttentionWindow(2)),
     ShapeMismatchError, "k must have shape (4, 2), got (4, 3)"),
    ("global-window-span", lambda p: masked_attention(OPERAND, OPERAND, OPERAND, FRAMES,
                                                      AttentionWindow(1, "global")),
     InvalidParameterError, "global window must span the whole sequence"),
    ("snr-zero-extended", lambda p: relative_snr(LATENT, VideoLatent(np.zeros((1, 4, 2, 2))),
                                                 [0.5]),
     DegenerateInputError, "extended input has zero total spectral energy"),
    ("map-square", lambda p: AttnMap(np.full((2, 3), 1 / 3)),
     InvalidShapeError, "map entries must have shape (2, 2), got (2, 3)"),
    ("map-negative", lambda p: AttnMap([[1.5, -0.5], [0.5, 0.5]]),
     InvalidParameterError, "map entries must be non-negative"),
    ("map-rows", lambda p: AttnMap([[0.5, 0.4], [0.5, 0.5]]),
     InvalidParameterError, "map rows must sum to 1"),
    ("config-no-equals", lambda p: FusionPlan.from_text("t_alpha = 8\nalphas\n"),
     InvalidParameterError, "line 2: expected 'key = value', got 'alphas'"),
    ("config-empty-key", lambda p: SyntheticScene.from_text(" = 1\n"),
     InvalidParameterError, "line 1: empty key"),
    ("config-duplicate-key", lambda p: FusionPlan.from_text("t_alpha = 8\nt_alpha = 4\n"),
     InvalidParameterError, "line 2: duplicate key 't_alpha'"),
    ("config-bool", lambda p: FusionPlan.from_text("t_alpha = 8\nalphas = 1\nsparse_global = 1\n"),
     InvalidParameterError, "sparse_global must be 'true' or 'false', got '1'"),
    ("fuse-mask-shapes", lambda p: multiband_fuse([LATENT, LATENT], [MASKS[0], SMALL_MASK]),
     ShapeMismatchError, "masks must have shape (4, 2, 2), got (2, 2, 2)"),
    ("fuse-no-branch", lambda p: multiband_fuse([], []),
     InvalidParameterError, "need at least one branch"),
    ("fuse-mask-latent", lambda p: multiband_fuse([LATENT], [SMALL_MASK]),
     ShapeMismatchError, "masks must have shape (4, 2, 2), got (2, 2, 2)"),
    ("frequency_grid-domain", lambda p: frequency_grid((4, 2, 2), "polar"),
     InvalidParameterError, "domain_mode must be one of ('temporal', 'radial'), got 'polar'"),
    ("seed-64-bit", lambda p: SeededRng(2**64),
     InvalidParameterError, "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
    ("specmix-seed_base-64-bit", lambda p: SpecMixParams(frames=8, t_alpha=4, seed_base=2**64),
     InvalidParameterError, "seed_base must be a 64-bit unsigned integer, got 18446744073709551616"),
    ("specmix-seed_res-64-bit", lambda p: SpecMixParams(frames=8, t_alpha=4, seed_res=2**64),
     InvalidParameterError, "seed_res must be a 64-bit unsigned integer, got 18446744073709551616"),
    ("specmix-seed_perm-64-bit", lambda p: SpecMixParams(frames=8, t_alpha=4, seed_perm=2**64),
     InvalidParameterError, "seed_perm must be a 64-bit unsigned integer, got 18446744073709551616"),
    ("scene-seed-64-bit", lambda p: SyntheticScene(shape=(1, 2, 2, 2), seed=2**64),
     InvalidParameterError, "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
    ("spfu-header", lambda p: read_tensor(spfu_file(p / "t.spfu", size=10)),
     TruncatedPayloadError, "header truncated at 10 bytes"),
    ("spfu-dtype", lambda p: read_tensor(spfu_file(p / "t.spfu", dtype=1)),
     UnsupportedFormatError, "unsupported dtype code 1"),
    ("spfu-rank", lambda p: read_tensor(spfu_file(p / "t.spfu", rank=3)),
     UnsupportedFormatError, "unsupported rank 3"),
    ("spfu-zero-axis", lambda p: read_tensor(spfu_file(p / "t.spfu", dims=(1, 0, 2, 2))),
     InvalidShapeError, "shape must be >= 1, got 0"),
]


@pytest.mark.parametrize("call, error, message", [e[1:] for e in ERRORS],
                         ids=[e[0] for e in ERRORS])
def test_error_type_and_message(call, error, message, tmp_path):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(tmp_path)
    assert type(info.value) is error


@pytest.mark.parametrize("seed, code, err", [
    (2**64 - 2, 1, "error: seed must be <= 18446744073709551613, so that seed + 2 is a 64-bit "
                   "unsigned integer, got 18446744073709551614\n"),
    (2**64 - 3, 0, ""),
], ids=["overflows", "largest"])
def test_cli_seed_names_the_option_not_a_derived_seed(seed, code, err, tmp_path, capsys):
    # `specmix --seed S` seeds its three streams with S, S + 1 and S + 2.
    out = tmp_path / "noise.spfu"
    assert main(["specmix", "--frames", "4", "--t-alpha", "2", "--channels", "1", "--height", "2",
                 "--width", "2", "--seed", str(seed), "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("seed, err", [
    (-1, "error: weights_seed must be >= 0, got -1\n"),
    (2**64, "error: weights_seed must be a 64-bit unsigned integer, got 18446744073709551616\n"),
], ids=["negative", "64-bit"])
def test_cli_weights_seed_names_the_option(seed, err, tmp_path, capsys):
    lat, out = tmp_path / "x.spfu", tmp_path / "map.csv"
    write_tensor(lat, LATENT)
    assert main(["attnmap", "--input", str(lat), "--weights-seed", str(seed),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == err
    assert not out.exists()


ARRAY = np.ones((1, 4, 2, 2))
TOKENS = TokenSequence(OPERAND, FRAMES)
WEIGHTS = block_weights(2, SeededRng(0))
PLAN = FusionPlan(2, (1, 2))
PLAN_KEYS = {"t_alpha": 2, "alphas": (1, 2)}
PARAMS = SpecMixParams(frames=8, t_alpha=4)
# (id, call, exact message): a typed parameter given an object of another class
# (a plain array, a str, a dict, an int or None) raises InvalidParameterError
# naming it, before any transform runs.
WRONG_CLASS = [
    ("fuse-mask-weights", lambda: multiband_fuse([LATENT, LATENT], [m.weights for m in MASKS]),
     "masks must be of type FrequencyMask, got ndarray"),
    ("blend-lpf-array", lambda: spectral_blend(LATENT, LATENT, np.ones((4, 2, 2))),
     "lpf must be of type FrequencyMask, got ndarray"),
    ("diagonality-array", lambda: diagonality(np.eye(3)),
     "attn must be of type AttnMap, got ndarray"),
    ("snr-reference-array", lambda: relative_snr(ARRAY, LATENT, [1.0]),
     "reference must be of type VideoLatent, got ndarray"),
    ("snr-extended-array", lambda: relative_snr(LATENT, ARRAY, [1.0]),
     "extended must be of type VideoLatent, got ndarray"),
    ("band-energy-array", lambda: band_energy(ARRAY, [1.0]),
     "x must be of type VideoLatent, got ndarray"),
    ("scene-tone-str", lambda: SyntheticScene(shape=(1, 4, 2, 2), tones=("t",)),
     "tones must be of type Tone, got str"),
    ("multiband-tokens", lambda: multiband_attention(OPERAND, WEIGHTS, PLAN, (1, 2)),
     "tokens must be of type TokenSequence, got ndarray"),
    ("multiband-plan", lambda: multiband_attention(TOKENS, WEIGHTS, PLAN_KEYS, (1, 2)),
     "plan must be of type FusionPlan, got dict"),
    ("blend-attention-tokens", lambda: spectral_blend_attention(OPERAND, WEIGHTS, PLAN, (1, 2)),
     "tokens must be of type TokenSequence, got ndarray"),
    ("blend-attention-plan", lambda: spectral_blend_attention(TOKENS, WEIGHTS, PLAN_KEYS, (1, 2)),
     "plan must be of type FusionPlan, got dict"),
    ("run_stack-tokens", lambda: run_stack(OPERAND, PLAN, 1, 0, (1, 2)),
     "tokens must be of type TokenSequence, got ndarray"),
    ("run_stack-plan", lambda: run_stack(TOKENS, PLAN_KEYS, 1, 0, (1, 2)),
     "plan must be of type FusionPlan, got dict"),
    ("project_qkv-tokens", lambda: project_qkv(OPERAND, WEIGHTS),
     "tokens must be of type TokenSequence, got ndarray"),
    ("latent_from_tokens-latent", lambda: latent_from_tokens(LATENT, (2, 2)),
     "tokens must be of type TokenSequence, got VideoLatent"),
    ("tokens_from_latent-array", lambda: tokens_from_latent(ARRAY),
     "latent must be of type VideoLatent, got ndarray"),
    ("write_tensor-array", lambda: write_tensor(os.devnull, ARRAY),
     "latent must be of type VideoLatent, got ndarray"),
    ("gaussian_latent-rng", lambda: gaussian_latent((1, 4, 2, 2), 3),
     "rng must be of type SeededRng, got int"),
    ("block_weights-rng", lambda: block_weights(2, 3), "rng must be of type SeededRng, got int"),
    ("specmix-params", lambda: specmix(None, (1, 2, 2)),
     "params must be of type SpecMixParams, got NoneType"),
    ("base_noise-params", lambda: base_noise({"frames": 8, "t_alpha": 4}, (1, 2, 2)),
     "params must be of type SpecMixParams, got dict"),
    ("make_scene-none", lambda: make_scene(None),
     "scene must be of type SyntheticScene, got NoneType"),
]


@pytest.mark.parametrize("call, message", [e[1:] for e in WRONG_CLASS],
                         ids=[e[0] for e in WRONG_CLASS])
def test_wrong_class_rejected_before_any_transform(call, message, monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran before the class check")

    for name in ("fftn", "ifftn", "rfftn", "irfft"):
        monkeypatch.setattr(np.fft, name, no_transform)
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is InvalidParameterError
