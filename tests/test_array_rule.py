"""The one array rule, `tensor_core.check_array`, at every entry point that takes
an array: token features and frame ids, latents, masks, maps, SNR boundaries,
projection weights, attention operands, key frames, spectra and fused branches.

Each site starts from a valid array and gets the same variants of it: complex
entries, strings and bools, which must fail as the wrong kind, one axis fewer
and one more, an empty axis (every axis, or the last alone), NaN and Inf
(float sites), and a non-integral float (integer sites), each with its error
type and the rule's message; the valid values as numpy float32 or int32 arrays
must pass.
"""

import re

import numpy as np
import pytest

from specfuse import (
    AttentionWindow,
    AttnMap,
    FrequencyMask,
    SnrReport,
    TokenSequence,
    VideoLatent,
    attention_map,
    band_masks,
    fft3,
    ifft3,
    masked_attention,
    multiband_fuse,
    project_qkv,
    sparse_attention,
)
from specfuse.errors import InvalidParameterError, InvalidShapeError, NonFiniteValueError
from specfuse.fusion import fused_spectrum
from specfuse.tensor_core import check_array

# Two frames of two tokens, d = 2.
FRAMES = np.array([0, 0, 1, 1])
TOKENS = TokenSequence(np.arange(8.0).reshape(4, 2) / 8, FRAMES)
QKV = TOKENS.features
EYE = np.eye(2)
MASKS = band_masks((1, 2), (2, 2, 2))
BRANCH = np.arange(16.0).reshape(2, 2, 2, 2) / 16
WINDOW = AttentionWindow(2)

# (id, call, valid value, name, error of the rank and kind checks); the float
# sites hold real or complex numbers, the integer sites frame ids.
FLOAT_SITES = [
    ("TokenSequence-features", lambda x: TokenSequence(x, FRAMES), QKV, "token features",
     InvalidShapeError),
    ("VideoLatent", VideoLatent, BRANCH, "latent values", InvalidShapeError),
    ("FrequencyMask", FrequencyMask, np.ones((2, 2, 2)), "mask weights", InvalidShapeError),
    ("AttnMap", AttnMap, EYE, "map entries", InvalidShapeError),
    ("SnrReport-boundaries", lambda x: SnrReport(x, [1.0, 1.0]), np.array([0.0, 1.0, 3.0]),
     "boundaries", InvalidShapeError),
    ("project_qkv-query", lambda x: project_qkv(TOKENS, (x, EYE, EYE)), EYE, "query weights",
     InvalidShapeError),
    ("project_qkv-key", lambda x: project_qkv(TOKENS, (EYE, x, EYE)), EYE, "key weights",
     InvalidShapeError),
    ("project_qkv-value", lambda x: project_qkv(TOKENS, (EYE, EYE, x)), EYE, "value weights",
     InvalidShapeError),
    ("masked_attention-q", lambda x: masked_attention(x, QKV, QKV, FRAMES, WINDOW), QKV, "q",
     InvalidShapeError),
    ("masked_attention-k", lambda x: masked_attention(QKV, x, QKV, FRAMES, WINDOW), QKV, "k",
     InvalidShapeError),
    ("masked_attention-v", lambda x: masked_attention(QKV, QKV, x, FRAMES, WINDOW), QKV, "v",
     InvalidShapeError),
    ("attention_map-q", lambda x: attention_map(x, QKV, FRAMES), QKV, "q", InvalidShapeError),
    ("attention_map-k", lambda x: attention_map(QKV, x, FRAMES), QKV, "k", InvalidShapeError),
    ("fft3", fft3, BRANCH, "latent values", InvalidShapeError),
    ("ifft3", ifft3, BRANCH.astype(np.complex128), "spectrum values", InvalidShapeError),
    ("multiband_fuse", lambda x: multiband_fuse([x, BRANCH], MASKS), BRANCH, "branch outputs",
     InvalidShapeError),
    ("fused_spectrum", lambda x: fused_spectrum([BRANCH, x], MASKS), BRANCH, "branch outputs",
     InvalidShapeError),
]
INT_SITES = [
    ("TokenSequence-frame_index", lambda x: TokenSequence(QKV, x), FRAMES,
     np.array([0, 0.5, 1, 1]), "frame_index", InvalidParameterError),
    ("masked_attention-frame_index", lambda x: masked_attention(QKV, QKV, QKV, x, WINDOW),
     FRAMES, np.array([0, 0.5, 1, 1]), "frame_index", InvalidParameterError),
    ("sparse_attention-keyframes", lambda x: sparse_attention(QKV, QKV, QKV, FRAMES, x),
     np.array([1]), np.array([0.5]), "keyframes", InvalidParameterError),
]


def _variant(valid: np.ndarray, kind: str) -> np.ndarray:
    if kind == "complex":
        return valid + 1j
    if kind == "fewer":
        return valid[0]
    if kind == "more":
        return valid[None]
    if kind == "empty":
        return valid[(slice(0),) * valid.ndim]
    if kind == "empty-last":
        return valid[..., :0]
    value = valid.astype({"str": str, "bool": bool}.get(kind, valid.dtype))
    if kind in ("nan", "inf"):
        value.flat[1] = np.nan if kind == "nan" else np.inf
    return value


def _expect(call, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call(value)
    assert type(raised.value) is error


_SHAPE_KINDS = ["fewer", "more", "empty", "empty-last"]


@pytest.mark.parametrize("kind", ["complex", "str", "bool", *_SHAPE_KINDS, "nan", "inf", "numpy"])
@pytest.mark.parametrize("call, valid, name, error", [e[1:] for e in FLOAT_SITES],
                         ids=[e[0] for e in FLOAT_SITES])
def test_float_sites(call, valid, name, error, kind):
    complex_site = valid.dtype.kind == "c"
    if kind == "numpy" or (kind == "complex" and complex_site):
        for dtype in (np.float32, np.int32):
            call(valid.real.astype(dtype))
        if complex_site:
            call(valid.astype(np.complex64))
        return
    value = _variant(valid, kind)
    if kind in _SHAPE_KINDS:
        message = f"{name} must have {valid.ndim} non-empty axes, got shape {value.shape}"
    elif kind in ("nan", "inf"):
        message, error = f"{name} must be finite", NonFiniteValueError
    else:
        noun = "complex numbers" if complex_site else "real numbers"
        message = f"{name} must hold {noun}, got {value.dtype}"
    _expect(call, value, error, message)


@pytest.mark.parametrize("kind", ["complex", "str", "bool", "float", *_SHAPE_KINDS, "numpy"])
@pytest.mark.parametrize("call, valid, fraction, name, error", [e[1:] for e in INT_SITES],
                         ids=[e[0] for e in INT_SITES])
def test_integer_sites(call, valid, fraction, name, error, kind):
    if kind == "numpy":
        call(valid.astype(np.int32))
        return
    value = fraction if kind == "float" else _variant(valid, kind)
    if kind in _SHAPE_KINDS:
        message = f"{name} must have 1 non-empty axes, got shape {value.shape}"
    else:
        message = f"{name} must hold integers, got {value.dtype}"
    _expect(call, value, error, message)


def test_fft3_spectrum_must_be_finite():
    # Finite input whose transform overflows: the spectrum is checked too.
    with np.errstate(all="ignore"):
        _expect(fft3, np.full((1, 2, 2, 2), 1e308), NonFiniteValueError,
                "spectrum values must be finite")


def test_operands_of_their_dtype_are_not_copied():
    view = np.zeros((3, 4)).T
    assert check_array(view, "view", 2) is view
    copied = check_array(view, "view", 2, copy=True)
    assert copied is not view and copied.flags.c_contiguous and not copied.flags.writeable
    assert view.flags.writeable
