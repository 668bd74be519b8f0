"""The one integer rule, `config.check_integer`, at every entry point that takes
a count, span, seed or dimension.

Each entry point gets the same five inputs: an integral float, a fraction
(a valid value plus 0.5) and a bool, which must fail as non-integers, the value
one below its lower bound, which must fail with the bound in the message, and a
numpy integer, which must pass.
"""

import re

import numpy as np
import pytest

from specfuse import (
    AttentionWindow,
    FusionPlan,
    SeededRng,
    SpecMixParams,
    SyntheticScene,
    TokenSequence,
    aggregate_attention,
    band_masks,
    base_noise,
    frequency_grid,
    gaussian_latent,
    gaussian_lowpass,
    latent_from_tokens,
    specmix,
    uniform_band_edges,
    uniform_keyframes,
)
from specfuse.errors import (InvalidParameterError, InvalidPlanError, InvalidShapeError,
                             ShapeMismatchError)
from specfuse.harness import block_weights, run_stack

# Two frames of four tokens, d = 2: the (H, W) factorization and the stack depth.
TOKENS = TokenSequence(np.arange(16.0).reshape(8, 2) / 16, [0, 0, 0, 0, 1, 1, 1, 1])

# (id, call, error, parameter name, lower bound, a valid value)
ENTRIES = [
    ("frequency_grid-temporal", lambda v: frequency_grid((v, 4, 4), "temporal"),
     InvalidShapeError, "grid axes", 1, 8),
    ("frequency_grid-radial", lambda v: frequency_grid((8, 4, v), "radial"),
     InvalidShapeError, "grid axes", 1, 4),
    ("gaussian_lowpass", lambda v: gaussian_lowpass((v, 4, 4), 0.25, "radial"),
     InvalidShapeError, "grid axes", 1, 8),
    ("band_masks-grid", lambda v: band_masks((1, 2), (v, 4, 4), "radial"),
     InvalidShapeError, "grid axes", 1, 8),
    ("band_masks-alphas", lambda v: band_masks((v, 8), (8, 4, 4)),
     InvalidParameterError, "alphas", 1, 2),
    ("plan-t_alpha", lambda v: FusionPlan(t_alpha=v, alphas=(1, 2)),
     InvalidParameterError, "t_alpha", 1, 8),
    ("plan-alphas", lambda v: FusionPlan(t_alpha=8, alphas=(v, 8)),
     InvalidPlanError, "alphas", 1, 2),
    ("window-span", lambda v: AttentionWindow(v), InvalidParameterError, "span_frames", 1, 2),
    ("for_span-span", lambda v: AttentionWindow.for_span(v, 8),
     InvalidParameterError, "span_frames", 1, 4),
    ("for_span-frames", lambda v: AttentionWindow.for_span(4, v),
     InvalidParameterError, "num_frames", 1, 8),
    ("plan-validate_for", lambda v: FusionPlan(t_alpha=8, alphas=(1, 2)).validate_for(v),
     InvalidParameterError, "num_frames", 1, 8),
    ("uniform_keyframes", lambda v: uniform_keyframes(v, 0.5),
     InvalidParameterError, "num_frames", 1, 4),
    ("aggregate_attention", lambda v: aggregate_attention([np.eye(4)], v),
     InvalidParameterError, "num_frames", 1, 2),
    ("uniform_band_edges", uniform_band_edges, InvalidParameterError, "num_bands", 1, 4),
    ("spatial", lambda v: latent_from_tokens(TOKENS, (v, 2)), ShapeMismatchError, "spatial", 1, 2),
    ("run_stack-depth", lambda v: run_stack(TOKENS, FusionPlan(2, (1,)), v, 0, (2, 2)),
     InvalidParameterError, "depth", 1, 2),
    ("specmix-t_alpha", lambda v: SpecMixParams(frames=8, t_alpha=v),
     InvalidParameterError, "t_alpha", 1, 4),
    ("specmix-frames", lambda v: SpecMixParams(frames=v, t_alpha=2),
     InvalidParameterError, "frames", 2, 4),
    ("specmix-seed_base", lambda v: SpecMixParams(frames=8, t_alpha=4, seed_base=v),
     InvalidParameterError, "seed_base", 0, 7),
    ("specmix-seed_res", lambda v: SpecMixParams(frames=8, t_alpha=4, seed_res=v),
     InvalidParameterError, "seed_res", 0, 7),
    ("specmix-seed_perm", lambda v: SpecMixParams(frames=8, t_alpha=4, seed_perm=v),
     InvalidParameterError, "seed_perm", 0, 7),
    ("specmix-chw", lambda v: specmix(SpecMixParams(frames=8, t_alpha=4), (v, 2, 2)),
     InvalidShapeError, "shape", 1, 2),
    ("base_noise-chw", lambda v: base_noise(SpecMixParams(frames=8, t_alpha=4), (2, 2, v)),
     InvalidShapeError, "shape", 1, 2),
    ("latent-shape", lambda v: gaussian_latent((v, 2, 2, 2), SeededRng(0)),
     InvalidShapeError, "shape", 1, 2),
    ("scene-shape", lambda v: SyntheticScene(shape=(2, v, 2, 2)),
     InvalidShapeError, "shape", 1, 4),
    ("scene-seed", lambda v: SyntheticScene(shape=(1, 2, 2, 2), seed=v),
     InvalidParameterError, "seed", 0, 7),
    ("block_weights", lambda v: block_weights(v, SeededRng(0)),
     InvalidParameterError, "d_model", 1, 2),
    ("seed", SeededRng, InvalidParameterError, "seed", 0, 7),
    ("uniforms", lambda v: SeededRng(0).uniforms(v), InvalidParameterError, "n", 0, 3),
    ("normals", lambda v: SeededRng(0).normals(v), InvalidParameterError, "n", 0, 3),
    ("permutation", lambda v: SeededRng(0).permutation(v), InvalidParameterError, "n", 0, 3),
]


@pytest.mark.parametrize("kind", ["float", "fraction", "bool", "below", "numpy"])
@pytest.mark.parametrize("call, error, name, minimum, valid", [e[1:] for e in ENTRIES],
                         ids=[e[0] for e in ENTRIES])
def test_integer_rule(call, error, name, minimum, valid, kind):
    if kind == "numpy":
        call(np.int64(valid))
        return
    value = {"float": float(valid), "fraction": valid + 0.5, "bool": True,
             "below": minimum - 1}[kind]
    message = (f"{name} must be >= {minimum}, got {value}" if kind == "below"
               else f"{name} must be an integer, got {value!r}")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


# Values no comparison can order against a count: `for_span` and `validate_for`
# read both counts through the rule before they compare them.
@pytest.mark.parametrize("call, message", [
    (lambda: AttentionWindow.for_span(np.array([2, 3]), 8),
     "span_frames must be an integer, got array([2, 3])"),
    (lambda: AttentionWindow.for_span(None, 8), "span_frames must be an integer, got None"),
    (lambda: AttentionWindow.for_span(4, 2.5), "num_frames must be an integer, got 2.5"),
    (lambda: FusionPlan(t_alpha=8, alphas=(1, 2)).validate_for("8"),
     "num_frames must be an integer, got '8'"),
], ids=["for_span-array", "for_span-none", "for_span-frames-fraction", "validate_for-str"])
def test_counts_read_before_compared(call, message):
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is InvalidParameterError
