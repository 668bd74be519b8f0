"""Branch attention plus frequency-domain fusion.

Two composition schemes over shared Q, K, V; every branch of a plan comes
from one pass of the multi-window attention core:

* spectral_blend_attention: a local windowed branch and a global branch,
  merged by a Gaussian low-pass split (low band from the global branch,
  high band from the local one).
* multiband_attention: one windowed branch per scale, each owning one
  hard frequency band; the masked spectra sum to the fused output.

Token <-> latent mapping: d_model is the channel axis; tokens are ordered
frame-major, then row-major over (H, W). Branch windows saturate to fully
global attention once alpha * t_alpha covers the sequence, so plans leave
short inputs unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .attention import (
    AttentionWindow,
    MacCounter,
    TokenSequence,
    _attend,
    _frame_set,
    project_qkv,
    uniform_keyframes,
)
from .errors import InvalidParameterError, InvalidPlanError, ShapeMismatchError
from .spectral import FrequencyMask, band_masks, fft3, gaussian_lowpass, ifft3
from .tensor_core import SpectralTensor, VideoLatent

PARTITION_TOLERANCE = 1e-6
IMAG_RESIDUE_LIMIT = 1e-5
SPARSE_KEY_FRACTION = 0.5


def tokens_from_latent(latent: VideoLatent) -> TokenSequence:
    """Flatten a (C, T, H, W) latent to tokens in the canonical order."""
    c, t, h, w = latent.shape
    feats = latent.data.astype(np.float64).transpose(1, 2, 3, 0).reshape(t * h * w, c)
    frames = np.repeat(np.arange(t, dtype=np.int64), h * w)
    return TokenSequence(feats, frames)


def latent_from_tokens(tokens: TokenSequence, spatial: tuple[int, int]) -> VideoLatent:
    """Inverse of tokens_from_latent; needs the (H, W) factorization."""
    h, w = int(spatial[0]), int(spatial[1])
    t = tokens.num_frames
    if h * w != tokens.tokens_per_frame:
        raise ShapeMismatchError(
            f"spatial {h}x{w} does not factor {tokens.tokens_per_frame} tokens per frame"
        )
    data = tokens.features.reshape(t, h, w, tokens.d_model).transpose(3, 0, 1, 2)
    return VideoLatent(data.astype(np.float32))


@dataclass(frozen=True)
class BranchConfig:
    """One materialized attention branch: scale, sparsity flag, owned band."""

    alpha: int
    sparse: bool
    mask: FrequencyMask

    def __post_init__(self):
        if self.alpha < 1:
            raise InvalidParameterError(f"alpha must be >= 1, got {self.alpha}")


@dataclass(frozen=True)
class FusionPlan:
    """Branch layout: native length, ascending scales, options.

    `domain_mode` selects how band masks measure frequency ("temporal" or
    "radial"); `d0` is the low-pass stop frequency used by the two-branch
    blend path. `sparse_global` switches the largest branch to key-frame
    attention over half the frames.
    """

    t_alpha: int
    alphas: tuple[int, ...]
    sparse_global: bool = False
    domain_mode: str = "temporal"
    d0: float = 0.25

    def __post_init__(self):
        if self.t_alpha < 1:
            raise InvalidParameterError(f"t_alpha must be >= 1, got {self.t_alpha}")
        alphas = tuple(int(a) for a in self.alphas)
        if not alphas or alphas[0] < 1:
            raise InvalidPlanError(f"alphas must be >= 1, got {alphas}")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise InvalidPlanError(f"alphas must be strictly ascending, got {alphas}")
        if not 0.0 < self.d0 <= 1.0:
            raise InvalidParameterError(f"d0 must lie in (0, 1], got {self.d0}")
        object.__setattr__(self, "alphas", alphas)

    def validate_for(self, num_frames: int) -> None:
        if self.alphas[-1] * self.t_alpha < num_frames:
            raise InvalidPlanError(
                f"largest window {self.alphas[-1]}*{self.t_alpha} does not cover "
                f"{num_frames} frames"
            )

    def branch_configs(self, shape: tuple[int, int, int]) -> list[BranchConfig]:
        """Materialize per-branch band masks for a concrete (T, H, W)."""
        masks = band_masks(self.alphas, shape, self.domain_mode)
        last = len(self.alphas) - 1
        return [
            BranchConfig(alpha=a, sparse=self.sparse_global and i == last, mask=m)
            for i, (a, m) in enumerate(zip(self.alphas, masks))
        ]

    def to_text(self) -> str:
        return config.format_kv(
            {
                "t_alpha": str(self.t_alpha),
                "alphas": ",".join(str(a) for a in self.alphas),
                "sparse_global": "true" if self.sparse_global else "false",
                "domain_mode": self.domain_mode,
                "d0": repr(self.d0),
            }
        )

    @classmethod
    def from_text(cls, text: str) -> "FusionPlan":
        pairs = config.parse_kv(text)
        known = {"t_alpha", "alphas", "sparse_global", "domain_mode", "d0"}
        unknown = set(pairs) - known
        if unknown:
            raise InvalidParameterError(f"unknown plan keys: {sorted(unknown)}")
        if "t_alpha" not in pairs or "alphas" not in pairs:
            raise InvalidParameterError("plan needs at least t_alpha and alphas")
        kwargs = {
            "t_alpha": int(pairs["t_alpha"]),
            "alphas": tuple(int(a) for a in pairs["alphas"].split(",") if a.strip()),
        }
        if "sparse_global" in pairs:
            kwargs["sparse_global"] = config.parse_bool(pairs["sparse_global"], "sparse_global")
        if "domain_mode" in pairs:
            kwargs["domain_mode"] = pairs["domain_mode"]
        if "d0" in pairs:
            kwargs["d0"] = float(pairs["d0"])
        return cls(**kwargs)


def _check_same_shape(latents) -> tuple[int, int, int, int]:
    shape = latents[0].shape
    for lat in latents[1:]:
        if lat.shape != shape:
            raise ShapeMismatchError(f"latent shapes differ: {lat.shape} vs {shape}")
    return shape


def spectral_blend(z_global: VideoLatent, z_local: VideoLatent,
                   lpf: FrequencyMask) -> VideoLatent:
    """Low band of the global latent plus high band of the local latent.

    Computes ifft3(fft3(z_global) * P + fft3(z_local) * (1 - P)) and
    drops the (rounding-level) imaginary residue after a symmetry check.
    """
    shape = _check_same_shape([z_global, z_local])
    if lpf.shape != shape[1:]:
        raise ShapeMismatchError(f"filter shape {lpf.shape} does not match latent {shape[1:]}")
    p = lpf.weights[None, :, :, :]
    fused = fft3(z_global).data * p + fft3(z_local).data * (1.0 - p)
    return ifft3(SpectralTensor(fused), max_imag=IMAG_RESIDUE_LIMIT)


def _check_partition(masks) -> None:
    total = np.zeros(masks[0].shape, dtype=np.float64)
    for mask in masks:
        if mask.shape != masks[0].shape:
            raise ShapeMismatchError("mask shapes differ")
        total += mask.weights
    err = float(np.abs(total - 1.0).max())
    if err > PARTITION_TOLERANCE:
        raise InvalidPlanError(f"masks do not form a partition of unity (max error {err:.3e})")


def fused_spectrum(branch_outputs, masks) -> SpectralTensor:
    """Sum of masked branch spectra, in branch order.

    At bins where a branch's mask is zero its contribution is exactly
    zero, so branches cannot leak outside their band.
    """
    if len(branch_outputs) != len(masks):
        raise InvalidParameterError("need one mask per branch output")
    if not branch_outputs:
        raise InvalidParameterError("need at least one branch")
    shape = _check_same_shape(branch_outputs)
    if masks[0].shape != shape[1:]:
        raise ShapeMismatchError(f"mask shape {masks[0].shape} does not match latent {shape[1:]}")
    _check_partition(masks)
    total = np.zeros(shape, dtype=np.complex128)
    for latent, mask in zip(branch_outputs, masks):
        total += fft3(latent).data * mask.weights[None, :, :, :]
    return SpectralTensor(total)


def multiband_fuse(branch_outputs, masks) -> VideoLatent:
    """Inverse transform of the mask-weighted spectrum sum."""
    return ifft3(fused_spectrum(branch_outputs, masks), max_imag=IMAG_RESIDUE_LIMIT)


def _branch_window(alpha: int, t_alpha: int, num_frames: int) -> AttentionWindow:
    return AttentionWindow.for_span(alpha * t_alpha, num_frames)


def _branch_latents(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                    spatial: tuple[int, int],
                    counters: dict[int, MacCounter] | None = None) -> list[VideoLatent]:
    """Run every branch of the plan in one attention pass on shared projections.

    Returns one latent per branch; `counters` maps branch index to a
    MacCounter that receives that branch's logical MACs.
    """
    t = tokens.num_frames
    plan.validate_for(t)
    q, k, v = project_qkv(tokens, qkv_weights)
    last = len(plan.alphas) - 1
    frame_sets = [
        _frame_set(t, keyframes=uniform_keyframes(t, SPARSE_KEY_FRACTION))
        if plan.sparse_global and i == last
        else _frame_set(t, window=_branch_window(alpha, plan.t_alpha, t))
        for i, alpha in enumerate(plan.alphas)
    ]
    branch_counters = [(counters or {}).get(i) for i in range(len(plan.alphas))]
    outs = _attend(q, k, v, tokens.frame_index, frame_sets, branch_counters)
    return [latent_from_tokens(TokenSequence(out, tokens.frame_index), spatial)
            for out in outs]


def spectral_blend_attention(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                             spatial: tuple[int, int]) -> TokenSequence:
    """Two-branch attention fused through the Gaussian low-pass split.

    The plan must hold exactly two scales with the finer one at 1; the
    coarser branch runs globally (its window covers the sequence by the
    plan invariant) and contributes the low band.
    """
    if len(plan.alphas) != 2 or plan.alphas[0] != 1:
        raise InvalidPlanError(f"blend plan needs alphas (1, global), got {plan.alphas}")
    t = tokens.num_frames
    plan.validate_for(t)
    h, w = spatial
    z_local, z_global = _branch_latents(tokens, qkv_weights, plan, spatial)
    lpf = gaussian_lowpass((t, h, w), plan.d0, plan.domain_mode)
    return tokens_from_latent(spectral_blend(z_global, z_local, lpf))


def multiband_attention(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                        spatial: tuple[int, int],
                        masks: list[FrequencyMask] | None = None,
                        counters: dict[int, MacCounter] | None = None) -> TokenSequence:
    """Per-scale windowed attention fused band-by-band.

    `masks` overrides the plan's hard band masks (aligned with the
    ascending alphas); any partition of unity is accepted. `counters`
    maps branch index to a MacCounter for operation counting.
    """
    t = tokens.num_frames
    plan.validate_for(t)
    h, w = spatial
    branch_outputs = _branch_latents(tokens, qkv_weights, plan, spatial, counters)
    if masks is None:
        masks = band_masks(plan.alphas, (t, h, w), plan.domain_mode)
    elif len(masks) != len(plan.alphas):
        raise InvalidPlanError("need one mask per plan branch")
    return tokens_from_latent(multiband_fuse(branch_outputs, masks))
