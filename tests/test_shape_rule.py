"""The one shape rule, `tensor_core.check_shape`, at every entry point whose
operand has a shape another operand fixes: frame ids against the token count,
projection weights against d_model, k against q and v against q's token count,
branch outputs against the first branch and each mask against their (T, H, W),
`SnrReport` ratios against the boundaries, and an `AttnMap` against its own
row count.

Each site gets a wrong length (one more on the first axis) and a wrong trailing
axis (one more on the last), and must fail with the entry's error type and the
rule's message. A trailing axis no other operand fixes (v's value dimension)
and the one axis of frame ids, whose rank the array rule reads first, have no
trailing case. The Hypothesis property draws pairs of shapes.
"""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specfuse import (
    AttentionWindow,
    AttnMap,
    FrequencyMask,
    SeededRng,
    SnrReport,
    TokenSequence,
    band_masks,
    gaussian_latent,
    masked_attention,
    multiband_fuse,
    project_qkv,
)
from specfuse.errors import InvalidShapeError, ShapeMismatchError, SpecfuseError
from specfuse.harness import block_weights
from specfuse.tensor_core import check_shape

FRAMES = [0, 0, 1, 1]
OPERAND = np.arange(8.0).reshape(4, 2) / 8
TOKENS = TokenSequence(OPERAND, FRAMES)
W_Q, W_K, W_V = block_weights(2, SeededRng(0))
LATENT = gaussian_latent((1, 4, 2, 2), SeededRng(0))
MASKS = band_masks((1, 2), (4, 2, 2))
WINDOW = AttentionWindow(2)

# (id, call(operand), error, operand name, expected shape, wrong length, wrong
# trailing axis or None). `call` passes the operand, ones of the case's shape
# (as ints for frame ids), where the entry takes it. An expected shape of None
# is square: the operand's row count fixes its width.
SITES = [
    ("frame_index", lambda x: TokenSequence(OPERAND, x.astype(np.int64)),
     ShapeMismatchError, "frame_index", (4,), (5,), None),
    ("query-weights", lambda x: project_qkv(TOKENS, (x, W_K, W_V)),
     ShapeMismatchError, "query weights", (2, 2), (3, 2), (2, 3)),
    ("key-weights", lambda x: project_qkv(TOKENS, (W_Q, x, W_V)),
     ShapeMismatchError, "key weights", (2, 2), (3, 2), (2, 3)),
    ("value-weights", lambda x: project_qkv(TOKENS, (W_Q, W_K, x)),
     ShapeMismatchError, "value weights", (2, 2), (3, 2), (2, 3)),
    ("k", lambda x: masked_attention(OPERAND, x, OPERAND, FRAMES, WINDOW),
     ShapeMismatchError, "k", (4, 2), (5, 2), (4, 3)),
    ("v", lambda x: masked_attention(OPERAND, OPERAND, x, FRAMES, WINDOW),
     ShapeMismatchError, "v", (4, 2), (5, 2), None),
    ("branch-outputs", lambda x: multiband_fuse([LATENT, x], MASKS),
     ShapeMismatchError, "branch outputs", (1, 4, 2, 2), (2, 4, 2, 2), (1, 4, 2, 3)),
    ("first-mask", lambda x: multiband_fuse([LATENT, LATENT], [FrequencyMask(x), MASKS[1]]),
     ShapeMismatchError, "masks", (4, 2, 2), (5, 2, 2), (4, 2, 3)),
    # A wrong grid after a correct first mask: each mask is read against the latent.
    ("second-mask", lambda x: multiband_fuse([LATENT, LATENT], [MASKS[0], FrequencyMask(x)]),
     ShapeMismatchError, "masks", (4, 2, 2), (5, 2, 2), (4, 2, 3)),
    ("snr-ratios", lambda x: SnrReport([0.0, 1.0, np.pi], x),
     ShapeMismatchError, "ratios", (2,), (3,), (2, 1)),
    ("map-square", lambda x: AttnMap(x / x.shape[1]),
     InvalidShapeError, "map entries", None, (3, 2), (2, 3)),
]
CASES = [(site, kind, shape) for site in SITES
         for kind, shape in (("length", site[5]), ("trailing", site[6])) if shape is not None]


@pytest.mark.parametrize("site, shape", [case[::2] for case in CASES],
                         ids=[f"{case[0][0]}-{case[1]}" for case in CASES])
def test_wrong_shape_rejected(site, shape):
    _, call, error, name, expected, _, _ = site
    expected = (shape[0],) * 2 if expected is None else expected
    message = f"{name} must have shape {expected}, got {shape}"
    with pytest.raises(SpecfuseError, match=f"^{re.escape(message)}$") as info:
        call(np.ones(shape))
    assert type(info.value) is error


SHAPES = st.lists(st.integers(0, 3), max_size=4).map(tuple)


@given(have=SHAPES, error=st.sampled_from([ShapeMismatchError, InvalidShapeError]),
       as_list=st.booleans(), data=st.data())
def test_accepted_exactly_when_the_shapes_are_equal(have, error, as_list, data):
    want = data.draw(st.one_of(st.just(have), SHAPES), label="want")
    arr = np.empty(have)
    shape = list(want) if as_list else want
    if have == want:
        assert check_shape(arr, "x", shape, error) is arr
    else:
        message = f"x must have shape {want}, got {have}"
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            check_shape(arr, "x", shape, error)
        assert type(info.value) is error
