"""Seed noise construction for extended sequences.

Builds the starting noise tensor from two ingredients:

* a consistency base: the first t_alpha frames are fresh Gaussian noise
  and every later window repeats them in a seeded shuffled order, which
  pins the low-frequency content across windows;
* a fresh Gaussian residual, sampled independently per frame.

The two are mixed frame by frame with cos/sin weights (`_mix_weights`)
driven by the normalized distance of a frame to the sequence center:
cos_w[t] * base[t] + sin_w[t] * residual[t]. The center keeps the base,
the edges keep the residual, and cos^2 + sin^2 = 1 keeps the variance at 1
in expectation. Weights at the extreme frames are clamped to exact 0/1.
The residual stream is written straight into the float32 output and mixed
in place, one window and channel block at a time in float64 scratch; each
window's base frames are read from the first window, so the base is never
built.

No (H, W) transform is needed: each weight is one scalar per temporal
index, which commutes with any linear map over (H, W), so a spatial FFT
and its inverse around the mix would cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core
from .config import check_instance, check_integer, check_seed, check_sequence, check_size
from .errors import InvalidShapeError
from .tensor_core import SeededRng, VideoLatent, gaussian_latent


@dataclass(frozen=True)
class SpecMixParams:
    """Frame counts and seeds for the noise initializer."""

    frames: int
    t_alpha: int
    seed_base: int = 0
    seed_res: int = 1
    seed_perm: int = 2

    def __post_init__(self):
        t_alpha = check_integer(self.t_alpha, "t_alpha", minimum=1)
        check_integer(self.frames, "frames", minimum=t_alpha)
        for name in ("seed_base", "seed_res", "seed_perm"):
            object.__setattr__(self, name, check_seed(getattr(self, name), name))


def _windows(params: SpecMixParams):
    """(frames, base) per window of t_alpha frames, in order: the window's
    slice of the T axis and the indices of its base frames in the first
    window, from the seed_perm stream."""
    t, ta = params.frames, params.t_alpha
    yield slice(0, ta), np.arange(ta)
    perm_rng = SeededRng(params.seed_perm)
    for start in range(ta, t, ta):
        length = min(ta, t - start)
        yield slice(start, start + length), perm_rng.permutation(ta)[:length]


def base_noise(params: SpecMixParams, chw: tuple[int, int, int]) -> VideoLatent:
    """Window-shuffled consistency noise of shape (C, frames, H, W).

    Frames [0, t_alpha) are fresh Gaussian. Each later window of t_alpha
    frames is a fresh seeded permutation of the first window; a trailing
    partial window takes the first (frames mod t_alpha) entries of one.
    A `chw` not three ints >= 1 raises InvalidShapeError naming "shape".
    """
    check_instance(params, "params", kind=SpecMixParams)
    c, h, w = check_sequence(chw, "shape", InvalidShapeError, 3, check_size)
    first = gaussian_latent((c, params.t_alpha, h, w), SeededRng(params.seed_base)).data
    out = np.empty((c, params.frames, h, w), dtype=np.float32)
    for frames, base in _windows(params):
        np.take(first, base, axis=1, out=out[:, frames])
    return VideoLatent._adopt(out)


def _mix_weights(frames: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of d * pi/2 per temporal index, shaped to broadcast over (C, T, H, W).

    d in [0, 1] is the index's distance to the centre over (frames - 1) / 2.
    """
    half = (frames - 1) / 2.0
    d = np.abs(np.arange(frames) - half) / half if frames > 1 else np.zeros(1)
    theta = d * np.pi / 2.0
    cos_w = np.cos(theta)
    sin_w = np.sin(theta)
    # cos(pi/2) rounds to ~6e-17; clamp so the extreme indices mix exactly.
    edge = theta == np.pi / 2
    cos_w[edge] = 0.0
    sin_w[edge] = 1.0
    return cos_w.reshape(1, -1, 1, 1), sin_w.reshape(1, -1, 1, 1)


def specmix(params: SpecMixParams, chw: tuple[int, int, int]) -> VideoLatent:
    """Center-weighted mix of base and residual noise, (C, frames, H, W).

    Mixes frame by frame in float64, in place in the float32 output one
    window and channel block at a time, and rounds each value once; it
    never holds the whole base or a float64 latent. See the module
    docstring. Deterministic given the three seeds. `chw` as in
    `base_noise`.
    """
    check_instance(params, "params", kind=SpecMixParams)
    c, h, w = check_sequence(chw, "shape", InvalidShapeError, 3, check_size)
    ta = params.t_alpha
    first = gaussian_latent((c, ta, h, w), SeededRng(params.seed_base)).data
    out = np.empty((c, params.frames, h, w), dtype=np.float32)
    SeededRng(params.seed_res)._normals_into(out.reshape(-1))
    cos_w, sin_w = _mix_weights(params.frames)
    # A mix block is `per` channels of one window, about as many values as
    # a block of the stream: (cos_w * base) + (sin_w * res) in float64
    # scratch, rounded once into `out`.
    per = max(1, 2 * tensor_core._BLOCK_PAIRS // (ta * h * w))
    gathered = np.empty((min(per, c), ta, h, w), dtype=np.float32)
    cos_term, sin_term = np.empty(gathered.shape), np.empty(gathered.shape)
    for frames, base in _windows(params):
        for lo in range(0, c, per):
            res = out[lo : lo + per, frames]
            n = res.shape[0]
            g, a, b = (buf[:n, : len(base)] for buf in (gathered, cos_term, sin_term))
            np.take(first[lo : lo + n], base, axis=1, out=g)
            np.multiply(cos_w[:, frames], g, out=a)
            np.multiply(sin_w[:, frames], res, out=b)
            np.add(a, b, out=res)
    return VideoLatent._adopt(out)
