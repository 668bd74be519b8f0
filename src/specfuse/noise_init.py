"""Seed noise construction for extended sequences.

Builds the starting noise tensor from two ingredients:

* a consistency base: the first t_alpha frames are fresh Gaussian noise
  and every later window repeats them in a seeded shuffled order, which
  pins the low-frequency content across windows;
* a fresh Gaussian residual, sampled independently per frame.

The two are mixed per frame in the spectral domain with cos/sin weights
driven by the frame's normalized distance to the sequence center: center
frames keep the base, edge frames keep the residual, and cos^2 + sin^2
= 1 keeps the per-frame variance at 1 in expectation.

Mixing domains ("mix_domain"):

* "spatial" (default): the FFT runs over (H, W) only, so "the slice at
  frame t" is the literal frame. Weights at the extreme frames are
  clamped to exact 0/1.
* "full3d": the FFT also covers the temporal axis and the mixing index
  walks temporal-frequency bins instead of frames; the inverse transform
  is no longer exactly real and the imaginary part is discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    c, h, w = (int(n) for n in chw)
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


def center_distance(t: int, frames: int) -> float:
    """Normalized distance of frame t to the sequence center, in [0, 1]."""
    if frames < 1 or not 0 <= t < frames:
        raise InvalidParameterError(f"frame {t} outside [0, {frames})")
    if frames == 1:
        return 0.0
    half = (frames - 1) / 2.0
    return abs(t - half) / half


def mixing_angle(d: float) -> float:
    """Map a center distance to the mixing angle d * pi/2."""
    if not 0.0 <= d <= 1.0:
        raise InvalidParameterError(f"distance must lie in [0, 1], got {d}")
    return d * math.pi / 2.0


def _mix_weights(frames: int) -> tuple[np.ndarray, np.ndarray]:
    d = np.array([center_distance(t, frames) for t in range(frames)])
    theta = d * (np.pi / 2.0)
    cos_w = np.cos(theta)
    sin_w = np.sin(theta)
    # cos(pi/2) rounds to ~6e-17; clamp so the extreme frames mix exactly.
    edge = d >= 1.0
    cos_w[edge] = 0.0
    sin_w[edge] = 1.0
    return cos_w, sin_w


def mixed_spectra(params: SpecMixParams, chw: tuple[int, int, int],
                  mix_domain: str = "spatial") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (mixed, base, residual) spectra before the inverse transform.

    Exposed so the exact center/endpoint slice identities can be checked
    bin-for-bin without a transform roundtrip.
    """
    if mix_domain not in MIX_DOMAINS:
        raise InvalidParameterError(f"unknown mix_domain {mix_domain!r}")
    c, h, w = (int(n) for n in chw)
    t = params.frames
    base = base_noise(params, chw).data.astype(np.float64)
    res = gaussian_latent((c, t, h, w), SeededRng(params.seed_res)).data.astype(np.float64)
    axes = (2, 3) if mix_domain == "spatial" else (1, 2, 3)
    base_f = np.fft.fftn(base, axes=axes, norm="ortho")
    res_f = np.fft.fftn(res, axes=axes, norm="ortho")
    cos_w, sin_w = _mix_weights(t)
    shape = (1, t, 1, 1)
    mixed = cos_w.reshape(shape) * base_f + sin_w.reshape(shape) * res_f
    return mixed, base_f, res_f


def specmix(params: SpecMixParams, chw: tuple[int, int, int],
            mix_domain: str = "spatial") -> VideoLatent:
    """Center-weighted spectral mix of base and residual noise.

    Deterministic given the three seeds. See the module docstring for the
    two mixing domains.
    """
    mixed, _, _ = mixed_spectra(params, chw, mix_domain)
    axes = (2, 3) if mix_domain == "spatial" else (1, 2, 3)
    out = np.fft.ifftn(mixed, axes=axes, norm="ortho").real
    return VideoLatent(out)
