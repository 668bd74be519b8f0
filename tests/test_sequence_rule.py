"""The one sequence rule, `config.check_sequence`, at every entry point that takes
a list or tuple: shapes, grids, (C, H, W), (H, W), scales, Q/K/V weights, maps,
branch outputs, masks and tones.

Each site gets the same inputs: a scalar, None, a str, bytes, a 0-d array and a
lone `Tone`, which must fail as non-sequences, and one item fewer and one more
where the length is fixed, each with the entry's error type and the rule's
message; a list and a generator of the valid items must give the bytes of the
valid tuple. The Hypothesis properties draw more of each.
"""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specfuse import (
    FusionPlan,
    SeededRng,
    SpecMixParams,
    SyntheticScene,
    TokenSequence,
    Tone,
    aggregate_attention,
    band_masks,
    base_noise,
    frequency_grid,
    gaussian_latent,
    gaussian_lowpass,
    latent_from_tokens,
    multiband_attention,
    multiband_fuse,
    project_qkv,
    spectral_blend_attention,
    specmix,
)
from specfuse.errors import (InvalidParameterError, InvalidPlanError, InvalidShapeError,
                             ShapeMismatchError, SpecfuseError)
from specfuse.fusion import fused_spectrum
from specfuse.harness import block_weights, run_stack

# Two frames of four tokens, d = 2, as (2, 2) grids.
TOKENS = TokenSequence(np.arange(16.0).reshape(8, 2) / 16, [0, 0, 0, 0, 1, 1, 1, 1])
WEIGHTS = block_weights(2, SeededRng(0))
PLAN = FusionPlan(t_alpha=2, alphas=(1, 2))
LATENT = gaussian_latent((1, 4, 2, 2), SeededRng(0))
MASKS = tuple(band_masks((1, 2), (4, 2, 2)))
PARAMS = SpecMixParams(frames=8, t_alpha=4)

# (id, call, error, parameter name, fixed length or None, a valid tuple)
SITES = [
    ("gaussian_latent", lambda v: gaussian_latent(v, SeededRng(0)),
     InvalidShapeError, "shape", 4, (1, 4, 2, 2)),
    ("scene-shape", lambda v: SyntheticScene(shape=v), InvalidShapeError, "shape", 4, (1, 4, 2, 2)),
    ("frequency_grid", lambda v: frequency_grid(v, "radial"),
     InvalidShapeError, "grid axes", 3, (4, 2, 2)),
    ("gaussian_lowpass", lambda v: gaussian_lowpass(v, 0.2),
     InvalidShapeError, "grid axes", 3, (4, 2, 2)),
    ("band_masks-grid", lambda v: band_masks((1, 2), v),
     InvalidShapeError, "grid axes", 3, (4, 2, 2)),
    ("specmix", lambda v: specmix(PARAMS, v), InvalidShapeError, "shape", 3, (1, 2, 2)),
    ("base_noise", lambda v: base_noise(PARAMS, v), InvalidShapeError, "shape", 3, (1, 2, 2)),
    ("latent_from_tokens", lambda v: latent_from_tokens(TOKENS, v),
     ShapeMismatchError, "spatial", 2, (2, 2)),
    ("multiband_attention-spatial", lambda v: multiband_attention(TOKENS, WEIGHTS, PLAN, v),
     ShapeMismatchError, "spatial", 2, (2, 2)),
    ("spectral_blend_attention-spatial",
     lambda v: spectral_blend_attention(TOKENS, WEIGHTS, PLAN, v),
     ShapeMismatchError, "spatial", 2, (2, 2)),
    ("run_stack-spatial", lambda v: run_stack(TOKENS, PLAN, 2, 0, v),
     ShapeMismatchError, "spatial", 2, (2, 2)),
    ("plan-alphas", lambda v: FusionPlan(t_alpha=2, alphas=v), InvalidPlanError, "alphas", None,
     (1, 2)),
    ("band_masks-alphas", lambda v: band_masks(v, (4, 2, 2)),
     InvalidParameterError, "alphas", None, (1, 2)),
    ("project_qkv", lambda v: project_qkv(TOKENS, v),
     InvalidParameterError, "Q/K/V weights", 3, WEIGHTS),
    ("multiband_attention-weights", lambda v: multiband_attention(TOKENS, v, PLAN, (2, 2)),
     InvalidParameterError, "Q/K/V weights", 3, WEIGHTS),
    ("spectral_blend_attention-weights",
     lambda v: spectral_blend_attention(TOKENS, v, PLAN, (2, 2)),
     InvalidParameterError, "Q/K/V weights", 3, WEIGHTS),
    ("aggregate_attention", lambda v: aggregate_attention(v, 2),
     InvalidParameterError, "attention matrices", None, (np.eye(4), np.full((4, 4), 0.25))),
    ("multiband_fuse-branches", lambda v: multiband_fuse(v, MASKS),
     InvalidParameterError, "branch outputs", None, (LATENT, LATENT.data)),
    ("multiband_fuse-masks", lambda v: multiband_fuse((LATENT, LATENT), v),
     InvalidParameterError, "masks", 2, MASKS),
    ("fused_spectrum-branches", lambda v: fused_spectrum(v, MASKS),
     InvalidParameterError, "branch outputs", None, (LATENT, LATENT.data)),
    ("fused_spectrum-masks", lambda v: fused_spectrum((LATENT, LATENT), v),
     InvalidParameterError, "masks", 2, MASKS),
    ("scene-tones", lambda v: SyntheticScene(shape=(1, 4, 2, 2), tones=v),
     InvalidParameterError, "tones", None, (Tone("t", 1.0, 1.0), Tone("w", 0.5, 2.0))),
]
FIXED = [site for site in SITES if site[4] is not None]
NOT_SEQUENCES = {"scalar": 5, "none": None, "str": "ab", "bytes": b"\x01\x02",
                 "array-0d": np.array(5), "tone": Tone("t", 1.0, 1.0)}


def output_bytes(result) -> bytes:
    """The bytes an entry returns: its arrays, or the repr of a plan or scene."""
    if isinstance(result, (list, tuple)):
        return b"".join(map(output_bytes, result))
    if isinstance(result, np.ndarray):
        return result.tobytes()
    for field in ("data", "features", "weights", "matrix"):
        if hasattr(result, field):
            return getattr(result, field).tobytes()
    return repr(result).encode()


def rejects(call, error, value, message):
    with pytest.raises(SpecfuseError, match=f"^{re.escape(message)}$") as info:
        call(value)
    assert type(info.value) is error


def site_params(sites):
    return pytest.mark.parametrize("call, error, name, length, valid", [s[1:] for s in sites],
                                   ids=[s[0] for s in sites])


@pytest.mark.parametrize("kind", NOT_SEQUENCES)
@site_params(SITES)
def test_non_sequence_rejected(call, error, name, length, valid, kind):
    value = NOT_SEQUENCES[kind]
    rejects(call, error, value, f"{name} must be a sequence, got {value!r}")


@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
@site_params(FIXED)
def test_wrong_length_rejected(call, error, name, length, valid, change):
    value = (valid * 2)[: length + change]
    rejects(call, error, value, f"{name} must have {length} items, got {length + change}")


@site_params(SITES)
def test_list_and_generator_give_the_tuple_bytes(call, error, name, length, valid):
    expected = output_bytes(call(valid))
    assert output_bytes(call(list(valid))) == expected
    assert output_bytes(call(item for item in valid)) == expected


# Bytes iterate as small integers, so a code without the rule could read a
# drawn b"\xff\xff\xff\xff" as a 255**4 latent: keep them to two items.
NON_ITERABLES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                          st.complex_numbers(), st.text(), st.binary(max_size=2))


@given(site=st.sampled_from(SITES), value=NON_ITERABLES)
def test_drawn_non_sequence_raises_the_entry_error(site, value):
    _, call, error, name, _, _ = site
    rejects(call, error, value, f"{name} must be a sequence, got {value!r}")


@given(site=st.sampled_from(FIXED), data=st.data())
def test_drawn_wrong_length_raises_the_entry_error(site, data):
    _, call, error, name, length, valid = site
    count = data.draw(st.integers(0, 3 * length).filter(lambda n: n != length), label="count")
    form = data.draw(st.sampled_from([tuple, list, iter]), label="form")
    rejects(call, error, form((valid * 3)[:count]), f"{name} must have {length} items, got {count}")


@given(site=st.sampled_from(SITES), form=st.sampled_from([list, iter, reversed]), data=st.data())
def test_drawn_iterable_gives_the_tuple_bytes(site, form, data):
    # Items drawn from the valid ones, in the order the form gives; sites
    # with a fixed length take as many as the valid tuple has.
    _, call, _, _, length, valid = site
    items = tuple(data.draw(st.permutations(valid), label="items"))
    if length is None:
        items = items[: data.draw(st.integers(1, len(items)), label="count")]
    try:
        expected = output_bytes(call(tuple(form(items))))
    except SpecfuseError as err:  # the entry's own rule for the items, e.g. ascending alphas
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            call(form(items))
        return
    assert output_bytes(call(form(items))) == expected
