"""Seed noise construction for extended sequences.

Builds the starting noise tensor from two ingredients:

* a consistency base: the first t_alpha frames are fresh Gaussian noise
  and every later window repeats them in a seeded shuffled order, which
  pins the low-frequency content across windows;
* a fresh Gaussian residual, sampled independently per frame.

The two are mixed with cos/sin weights (`_mix_weights`) driven by the
normalized distance of a temporal index to the sequence center: the
center keeps the base, the edges keep the residual, and cos^2 + sin^2 = 1
keeps the variance at 1 in expectation. Mixing domains ("mix_domain"):

* "spatial" (default): a direct per-frame mix,
  cos_w[t] * base[t] + sin_w[t] * residual[t]. Weights at the extreme
  frames are clamped to exact 0/1.
* "full3d": the index is the temporal-frequency bin; both inputs are
  transformed along T, mixed bin by bin, and transformed back, keeping
  the real part of the inverse.

No (H, W) transform is needed: each weight is one scalar per temporal
index, which commutes with any linear map over (H, W), so a spatial FFT
and its inverse around the mix would cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_integer
from .errors import InvalidParameterError
from .tensor_core import SeededRng, VideoLatent, gaussian_latent

MIX_DOMAINS = ("spatial", "full3d")


@dataclass(frozen=True)
class SpecMixParams:
    """Frame counts and seeds for the noise initializer."""

    frames: int
    t_alpha: int
    seed_base: int = 0
    seed_res: int = 1
    seed_perm: int = 2

    def __post_init__(self):
        for name in ("frames", "t_alpha"):
            check_integer(getattr(self, name), name)
        if self.t_alpha < 1:
            raise InvalidParameterError(f"t_alpha must be >= 1, got {self.t_alpha}")
        if self.frames < self.t_alpha:
            raise InvalidParameterError(
                f"frames ({self.frames}) must be >= t_alpha ({self.t_alpha})"
            )


def base_noise(params: SpecMixParams, chw: tuple[int, int, int]) -> VideoLatent:
    """Window-shuffled consistency noise of shape (C, frames, H, W).

    Frames [0, t_alpha) are fresh Gaussian. Each later window of t_alpha
    frames is a fresh seeded permutation of the first window; a trailing
    partial window takes the first (frames mod t_alpha) entries of one.
    """
    c, h, w = chw
    t, ta = params.frames, params.t_alpha
    first = gaussian_latent((c, ta, h, w), SeededRng(params.seed_base)).data
    out = np.empty((c, t, h, w), dtype=np.float32)
    out[:, :ta] = first
    perm_rng = SeededRng(params.seed_perm)
    for start in range(ta, t, ta):
        length = min(ta, t - start)
        perm = perm_rng.permutation(ta)
        out[:, start : start + length] = first[:, perm[:length]]
    return VideoLatent(out)


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


def specmix(params: SpecMixParams, chw: tuple[int, int, int],
            mix_domain: str = "spatial") -> VideoLatent:
    """Center-weighted mix of base and residual noise, (C, frames, H, W).

    "spatial" mixes frame by frame in float64; "full3d" mixes the
    temporal FFT bins and keeps the real part of the inverse. See the
    module docstring. Deterministic given the three seeds.
    """
    if mix_domain not in MIX_DOMAINS:
        raise InvalidParameterError(f"unknown mix_domain {mix_domain!r}")
    c, h, w = chw
    base = base_noise(params, chw).data.astype(np.float64)
    res = gaussian_latent((c, params.frames, h, w), SeededRng(params.seed_res)).data
    res = res.astype(np.float64)
    cos_w, sin_w = _mix_weights(params.frames)
    if mix_domain == "spatial":
        return VideoLatent(cos_w * base + sin_w * res)
    mixed = cos_w * np.fft.fft(base, axis=1) + sin_w * np.fft.fft(res, axis=1)
    return VideoLatent(np.fft.ifft(mixed, axis=1).real)
