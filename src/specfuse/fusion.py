"""Branch attention plus frequency-domain fusion.

The `FusionPlan` alone describes the branches: branch i runs at scale
plan.alphas[i] (ascending, local to global) and owns mask i. One fusion
path: every branch comes from one pass of the multi-window attention core
on shared Q, K, V, and `_fused_half` sums the branches' mask-weighted
spectra in float64 (the masks must form a partition of unity). Branches
are real, so the sum is kept in the masks' real-input half layout
(`spectral._half_layout`): transformed only along the axes the masks vary
on, T alone for temporal masks and (T, H, W) for radial ones, with the
last of them halved. The inverse (`spectral._irfftn_real`) checks the
imaginary residue on that axis's self-conjugate planes. The masks, built
once where they are used, pick the scheme: one hard band per scale
(`band_masks`, in `multiband_attention`) or the Gaussian low-pass pair
[1 - P, P] (`spectral_blend_attention`, low band from the global branch). Branch
outputs stay float64 up to the returned tokens; float32 `VideoLatent`s
appear only at the latent API.

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
from .errors import (InvalidParameterError, InvalidPlanError, NonFiniteValueError,
                     ShapeMismatchError)
from .spectral import (DOMAIN_MODES, FrequencyMask, _check_alphas, _half_layout, _irfftn_real,
                       _rfftn, band_masks, gaussian_lowpass)
from .tensor_core import VideoLatent

PARTITION_TOLERANCE = 1e-6
IMAG_RESIDUE_LIMIT = 1e-5
SPARSE_KEY_FRACTION = 0.5


def _token_rows(grid: np.ndarray) -> np.ndarray:
    """(C, T, H, W) values as (T*H*W, C) token rows in the canonical order."""
    return grid.transpose(1, 2, 3, 0).reshape(-1, grid.shape[0])


def _check_spatial(spatial: tuple[int, int], tpf: int) -> tuple[int, int]:
    h, w = int(spatial[0]), int(spatial[1])
    if h < 1 or h * w != tpf:
        raise ShapeMismatchError(f"spatial {h}x{w} does not factor {tpf} tokens per frame")
    return h, w


def _latent_grid(features: np.ndarray, t: int, spatial: tuple[int, int]) -> np.ndarray:
    """Inverse of _token_rows, as a view; needs the (H, W) factorization."""
    n, c = features.shape
    return features.reshape(t, *_check_spatial(spatial, n // t), c).transpose(3, 0, 1, 2)


def tokens_from_latent(latent: VideoLatent) -> TokenSequence:
    """Flatten a (C, T, H, W) latent to tokens in the canonical order."""
    t, h, w = latent.shape[1:]
    frames = np.repeat(np.arange(t, dtype=np.int64), h * w)
    return TokenSequence(_token_rows(latent.data.astype(np.float64)), frames)


def latent_from_tokens(tokens: TokenSequence, spatial: tuple[int, int]) -> VideoLatent:
    """Inverse of tokens_from_latent; needs the (H, W) factorization."""
    return VideoLatent(_latent_grid(tokens.features, tokens.num_frames, spatial))


@dataclass(frozen=True)
class FusionPlan:
    """Branch layout: native length, ascending scales, options.

    Branch i attends within alphas[i] * t_alpha frames and owns band i of
    `band_masks(alphas, ...)`: the finest scale the highest frequencies, the
    coarsest the lowest. `domain_mode` selects how masks measure frequency
    ("temporal" or "radial"). `sparse_global` switches the largest branch to
    key-frame attention over half the frames. `d0` is the Gaussian low-pass
    stop frequency, read only by `spectral_blend_attention`, which
    `harness.run_stack` picks for two-scale plans; the `fuse` CLI runs those
    through hard bands, so the two entry points disagree on them.
    """

    t_alpha: int
    alphas: tuple[int, ...]
    sparse_global: bool = False
    domain_mode: str = "temporal"
    d0: float = 0.25

    def __post_init__(self):
        if config.check_integer(self.t_alpha, "t_alpha") < 1:
            raise InvalidParameterError(f"t_alpha must be >= 1, got {self.t_alpha}")
        alphas = _check_alphas(self.alphas, InvalidPlanError)
        if not isinstance(self.sparse_global, bool):
            raise InvalidParameterError(f"sparse_global must be a bool, got {self.sparse_global!r}")
        if not 0.0 < self.d0 <= 1.0:
            raise InvalidParameterError(f"d0 must lie in (0, 1], got {self.d0}")
        if self.domain_mode not in DOMAIN_MODES:
            raise InvalidParameterError(f"unknown domain_mode {self.domain_mode!r}")
        object.__setattr__(self, "alphas", alphas)

    def validate_for(self, num_frames: int) -> None:
        if self.alphas[-1] * self.t_alpha < num_frames:
            raise InvalidPlanError(
                f"largest window {self.alphas[-1]}*{self.t_alpha} does not cover "
                f"{num_frames} frames"
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
            "t_alpha": config.parse_number(pairs["t_alpha"], "t_alpha"),
            "alphas": tuple(config.parse_number(a, "alphas")
                            for a in pairs["alphas"].split(",") if a.strip()),
        }
        if "sparse_global" in pairs:
            kwargs["sparse_global"] = config.parse_bool(pairs["sparse_global"], "sparse_global")
        if "domain_mode" in pairs:
            kwargs["domain_mode"] = pairs["domain_mode"]
        if "d0" in pairs:
            kwargs["d0"] = config.parse_number(pairs["d0"], "d0", float)
        return cls(**kwargs)


def _check_same_shape(latents) -> tuple[int, int, int, int]:
    shape = latents[0].shape
    for lat in latents[1:]:
        if lat.shape != shape:
            raise ShapeMismatchError(f"latent shapes differ: {lat.shape} vs {shape}")
    return shape


def _check_partition(masks) -> None:
    total = np.zeros(masks[0].shape, dtype=np.float64)
    for mask in masks:
        if mask.shape != masks[0].shape:
            raise ShapeMismatchError("mask shapes differ")
        total += mask.weights
    err = float(np.abs(total - 1.0).max())
    if err > PARTITION_TOLERANCE:
        raise InvalidPlanError(f"masks do not form a partition of unity (max error {err:.3e})")


def _fused_half(branch_outputs, masks) -> tuple[np.ndarray, tuple[int, ...]]:
    """Sum of masked branch spectra, in branch order, as a float64 half spectrum.

    Branch outputs are VideoLatents or real (C, T, H, W) arrays; each is
    transformed in float64 by `_rfftn` over the axes any mask varies on.
    Returns the sum in the masks' half layout (`spectral._half_layout`)
    and those axes. The masks are constant along the other axes, so
    leaving those untransformed changes nothing the inverse returns. At
    bins where a branch's mask is zero its contribution is exactly zero,
    so branches cannot leak outside their band. Raises NonFiniteValueError
    if the sum is not finite.
    """
    if len(branch_outputs) != len(masks):
        raise InvalidParameterError("need one mask per branch output")
    if not branch_outputs:
        raise InvalidParameterError("need at least one branch")
    shape = _check_same_shape(branch_outputs)
    if masks[0].shape != shape[1:]:
        raise ShapeMismatchError(f"mask shape {masks[0].shape} does not match latent {shape[1:]}")
    _check_partition(masks)
    axes, index = _half_layout(*(mask.weights for mask in masks))
    total = None
    for branch, mask in zip(branch_outputs, masks):
        spectrum = _rfftn(branch, axes)
        spectrum *= mask.weights[index]
        if total is None:
            total = spectrum
        else:
            total += spectrum
    if not np.isfinite(total).all():
        raise NonFiniteValueError("spectrum values must be finite")
    return total, axes


def fused_spectrum(branch_outputs, masks) -> np.ndarray:
    """`_fused_half`'s complex128 sum itself, in the masks' half layout."""
    return _fused_half(branch_outputs, masks)[0]


def _fuse(branch_outputs, masks) -> np.ndarray:
    """Inverse of `_fused_half`, residue-checked, as a float64 (C, T, H, W) array."""
    half, axes = _fused_half(branch_outputs, masks)
    return _irfftn_real(half, axes, masks[0].shape[axes[-1]], IMAG_RESIDUE_LIMIT)


def multiband_fuse(branch_outputs, masks) -> VideoLatent:
    """Inverse transform of the mask-weighted spectrum sum."""
    return VideoLatent(_fuse(branch_outputs, masks))


def spectral_blend(z_global: VideoLatent, z_local: VideoLatent,
                   lpf: FrequencyMask) -> VideoLatent:
    """Low band of the global latent plus high band of the local latent.

    The two-band case of multiband_fuse, with masks [1 - P, P] over
    [z_local, z_global]: ifft3(fft3(z_local) * (1 - P) + fft3(z_global) * P).
    """
    return multiband_fuse([z_local, z_global], [lpf.complement(), lpf])


def _branch_latents(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                    spatial: tuple[int, int],
                    counters: list[MacCounter | None] | None = None) -> list[np.ndarray]:
    """Run every branch of `plan` in one attention pass on shared projections.

    Returns one float64 (C, T, H, W) array per branch, in plan order;
    `counters`, aligned with the alphas, get each branch's logical MACs.
    """
    t = tokens.num_frames
    plan.validate_for(t)
    _check_spatial(spatial, tokens.tokens_per_frame)
    q, k, v = project_qkv(tokens, qkv_weights)
    last = len(plan.alphas) - 1
    frame_sets = [
        _frame_set(t, keyframes=uniform_keyframes(t, SPARSE_KEY_FRACTION))
        if plan.sparse_global and i == last
        else _frame_set(t, window=AttentionWindow.for_span(alpha * plan.t_alpha, t))
        for i, alpha in enumerate(plan.alphas)
    ]
    outs = _attend(q, k, v, tokens.frame_index, frame_sets, counters)
    return [_latent_grid(out, t, spatial) for out in outs]


def spectral_blend_attention(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                             spatial: tuple[int, int]) -> TokenSequence:
    """Two-branch attention fused through the Gaussian low-pass split.

    The plan must hold exactly two scales with the finer one at 1; the
    coarser branch runs globally (its window covers the sequence by the
    plan invariant) and contributes the low band. This is
    multiband_attention with the masks [1 - P, P] of the plan's low-pass
    filter P.
    """
    if len(plan.alphas) != 2 or plan.alphas[0] != 1:
        raise InvalidPlanError(f"blend plan needs alphas (1, global), got {plan.alphas}")
    _check_spatial(spatial, tokens.tokens_per_frame)
    lpf = gaussian_lowpass((tokens.num_frames, *spatial), plan.d0, plan.domain_mode)
    return multiband_attention(tokens, qkv_weights, plan, spatial,
                               masks=[lpf.complement(), lpf])


def multiband_attention(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                        spatial: tuple[int, int],
                        masks: list[FrequencyMask] | None = None) -> TokenSequence:
    """Per-scale windowed attention fused band-by-band.

    `masks` (aligned with the ascending alphas) replaces the plan's hard
    band masks, which are built only when it is None; any partition of
    unity is accepted.
    """
    branch_outputs = _branch_latents(tokens, qkv_weights, plan, spatial)
    if masks is None:
        masks = band_masks(plan.alphas, (tokens.num_frames, *spatial), plan.domain_mode)
    elif len(masks) != len(plan.alphas):
        raise InvalidPlanError("need one mask per plan branch")
    return TokenSequence(_token_rows(_fuse(branch_outputs, masks)), tokens.frame_index)
